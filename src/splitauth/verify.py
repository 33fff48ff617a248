"""Exact verification that a block list is a splitting design.

Every block lists the t-subsets it covers and the counts are tallied,
so the work is bounded by the blocks, not by the C(v, t) subsets of
the point set: the design holds when all C(v, t) subsets are counted
and share one count.  A block covers a t-subset when each of
its points lies in some part of the block and those parts are pairwise
distinct; two points inside the same part are not covered by it.

A design is shape-checked once for every strength
(``SplittingDesign.shape``).  A block list in developed form (see
:mod:`splitauth.construct`) is told once, before anything else, and
then shape-checked by the first block of each run: every other block is
a translate of its run's first, point for point, and translation by j
is a bijection of 1..v, so it keeps part count, part size and
disjointness.  Any other list, and a developed one whose run-first
blocks have a defect, is checked block by block, so every defect keeps
its text and index.

A well-shaped list in developed form is counted through point 1 only.
Every t-subset has a translate through point 1 that as many blocks
cover, and only blocks through point 1 cover it, so counting those
blocks' covered t-subsets that hold point 1 decides the design:
C(v-1, t-1) subsets must share one count.  The verdict, the parameters
(b counts every block) and the witness are the same as counting all
subsets, since the subsets through point 1 come first in lexicographic
order.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, combinations, compress, filterfalse, product, repeat
from operator import gt, itemgetter, lt, ne

from . import construct
from ._record import frozen
from .construct import SplittingDesign


@frozen
class DesignParams:
    """The tuple (t, v, b, c, u, lambda) of a splitting design: v points,
    b blocks, each block u pairwise-disjoint parts of c points (block
    size ``l`` = c*u), and every t-subset covered lambda times.

    Construction enforces positivity, t <= u and c*u <= v, the preamble
    constraints any splitting design must satisfy.
    """

    t: int
    v: int
    b: int
    c: int
    u: int
    lam: int

    def __post_init__(self) -> None:
        for name in ("t", "v", "b", "c", "u", "lam"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.t > self.u:
            raise ValueError(f"strength t={self.t} exceeds parts per block u={self.u}")
        if self.l > self.v:
            raise ValueError(f"block size c*u={self.l} exceeds point count v={self.v}")

    @property
    def l(self) -> int:
        """The block size c*u."""
        return self.c * self.u

    def __str__(self) -> str:
        return f"{self.t}-({self.v},{self.b},{self.l}={self.c}×{self.u},{self.lam})"


@frozen
class VerificationResult:
    """Outcome of exact checking.

    ``params`` is filled in only when the design verifies; ``defects``
    lists human-readable reasons otherwise, and ``witness`` pins the
    lexicographically first t-subset whose coverage count is off, as
    (subset, actual count, count of the first subset (1, ..., t)).
    """

    ok: bool
    params: DesignParams | None
    defects: tuple[str, ...] = ()
    witness: tuple[tuple[int, ...], int, int] | None = None


def verify_design(design: SplittingDesign, t: int) -> VerificationResult:
    """Test exactly whether ``design`` is a t-splitting design.

    Checks structure, then counts how often each t-subset of 1..v is
    covered and requires one common value lambda >= 1.  The verified
    parameters (t, v, b, c, u, lambda) are returned on success.

    The design's shape is checked once for all strengths
    (``design.shape``), and the result is kept on the design per t, so
    asking the same design again returns it without counting; an equal
    but distinct design is counted afresh.  A code's ``design`` keeps
    its verdicts the same way.  A t outside 1..u raises on every call.
    """
    if t < 1:
        raise ValueError(f"strength t={t} must be positive")
    # The fields are immutable, so a result stays true of its design.
    known = design.__dict__.setdefault("_verified", {})
    if t in known:
        return known[t]
    defects, c, u = design.shape
    if defects:
        result = VerificationResult(ok=False, params=None, defects=tuple(defects))
    elif t > u:
        raise ValueError(f"strength t={t} exceeds parts per block u={u}")
    else:
        result = _verify_shaped(design.blocks, design.v, design.runs, t, c, u)
    known[t] = result
    return result


def _coverage(blocks, t: int) -> Counter[tuple[int, ...]]:
    """How many blocks cover each covered t-subset, keyed by sorted
    tuples of points.

    Counts a point column at a time: column (s, k) holds point k of part
    s of every block, and each choice of t columns from distinct parts
    gives every block one covered subset.  The blocks must be free of
    shape defects (each u parts of c points, as
    ``construct._shape_defects`` checks): ``zip`` cuts ragged columns
    short without a word.
    """
    counts: Counter[tuple[int, ...]] = Counter()
    if not blocks:
        return counts
    columns = [
        [tuple(map(itemgetter(k), part)) for k in range(len(part[0]))]
        for part in (tuple(map(itemgetter(s), blocks)) for s in range(len(blocks[0])))
    ]
    for parts in combinations(columns, t):
        for cols in product(*parts):
            if t == 2:
                a, b = cols
                counts.update(compress(zip(a, b), map(lt, a, b)))
                counts.update(compress(zip(b, a), map(gt, a, b)))
            else:
                counts.update(map(tuple, map(sorted, zip(*cols))))
    return counts


def _verify_shaped(blocks, v: int, runs, t: int, c: int, u: int) -> VerificationResult:
    """:func:`verify_design` for blocks on points 1..v already known to
    be free of structural defects, each of u >= t parts of c points,
    with their :func:`construct.developed_runs`."""
    if runs is None:
        counts, subsets = _coverage(blocks, t), math.comb(v, t)
    else:
        through = _coverage([blocks[e] for e in construct.through_point_1(blocks, v, runs)], t)
        counts = Counter({subset: n for subset, n in through.items() if subset[0] == 1})
        subsets = math.comb(v - 1, t - 1)
    first = tuple(range(1, t + 1))
    reference = counts[first]
    if len(counts) == subsets and len(set(counts.values())) == 1:
        params = DesignParams(t=t, v=v, b=len(blocks), c=c, u=u, lam=reference)
        return VerificationResult(ok=True, params=params)
    # The lexicographically first subset not covered ``reference`` times:
    # the first covered one if reference is 0, else the first of the
    # covered subsets with another count and the first uncovered subset.
    # Counted through point 1, a gap found past those subsets comes after
    # the wrong count that must then be among them.
    if reference:
        wrong = compress(counts, map(ne, counts.values(), repeat(reference)))
        subset = min(chain(wrong, _first_gap(counts, v, t)))
    else:
        subset = min(counts)
    n = counts[subset]
    return VerificationResult(
        ok=False,
        params=None,
        defects=(
            f"subset {subset} is covered {n} times, "
            f"but {first} is covered {reference} times",
        ),
        witness=(subset, n, reference),
    )


def _first_gap(counts, v: int, t: int) -> list[tuple[int, ...]]:
    """The lexicographically first t-subset of 1..v missing from
    ``counts``, in a list that is empty when none is.

    The covered subsets of each least point x are counted against the
    C(v-x, t-1) t-subsets that start at x; only the first x that falls
    short is walked in order, over the points its first starts[x] + 1
    subsets use.  Every x before it is fully covered, so the cost is
    bounded by the covered subsets, not by C(v, t) or v.
    """
    starts = Counter(map(itemgetter(0), counts))
    for x in range(1, v - t + 2):
        if starts[x] < math.comb(v - x, t - 1):
            # One of the first starts[x] + 1 subsets at x is missing, and
            # each lexicographic step raises the largest point by at most one.
            pool = range(x + 1, min(v, x + t - 1 + starts[x]) + 1)
            subsets = map((x,).__add__, combinations(pool, t - 1))
            return [next(filterfalse(counts.__contains__, subsets))]
    return []

