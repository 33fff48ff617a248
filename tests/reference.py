"""Reference implementations the engine is held to.

These are the original Fraction-per-transcript security enumeration,
the lexicographic scan over all C(v, t) subsets in design verification
and the set-keyed orbit walk, kept verbatim apart from imports, from
``split_weight`` and ``cell``, which were methods of ``SplittingACode``,
and from ``orbit_of``, which returns only the translates now.  They
are slow by design: every value they produce is computed the direct
way, so tests compare the library's counting engine against them on
small inputs.  The level formula ``lambda_level`` and the receiver's
view of a rule (``decode``, ``valid_messages``) live here too, since
only tests use them.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, product

from splitauth import (
    DesignParams,
    PosteriorTable,
    SecurityReport,
    SplittingACode,
    SplittingDesign,
    VerificationResult,
    translate_block,
)
from splitauth.construct import Block, _block_key, _shape_defects


def lambda_level(params: DesignParams, s: int) -> Fraction:
    """Number of blocks covering a fixed s-subset, as an exact rational.

    lambda_s = lambda * C(v-s, t-s) / (c^(t-s) * C(u-s, t-s)).  For a
    realizable design this is a positive integer; integrality is *not*
    enforced here so that arbitrary candidates can be screened.
    """
    if not 1 <= s <= params.t:
        raise ValueError(f"level s={s} out of range 1..{params.t}")
    num = params.lam * math.comb(params.v - s, params.t - s)
    den = params.c ** (params.t - s) * math.comb(params.u - s, params.t - s)
    return Fraction(num, den)


def cell(code: SplittingACode, rule: int, source: int) -> tuple[int, ...]:
    """The cell of rule ``rule`` for source ``source`` (both 1-based)."""
    return code.rules[rule - 1][source - 1]


def decode(code: SplittingACode, rule: int, message: int) -> int | None:
    """The source that ``message`` encodes under ``rule``, or None when
    the receiver rejects it.

    Uniqueness comes from cell disjointness.
    """
    for s, cell in enumerate(code.rules[rule - 1], start=1):
        if message in cell:
            return s
    return None


def valid_messages(code: SplittingACode, rule: int) -> frozenset[int]:
    """All messages the receiver accepts under ``rule``: the union of
    its cells, of size c*u."""
    return frozenset(m for cell in code.rules[rule - 1] for m in cell)


def split_weight(code: SplittingACode, rule: int, source: int, message: int) -> Fraction:
    """Probability of sending ``message`` given this rule and source."""
    messages = cell(code, rule, source)
    if message not in messages:
        return Fraction(0)
    if code.split_dist is None:
        return Fraction(1, len(messages))
    return code.split_dist[rule - 1][source - 1][sorted(messages).index(message)]


def _joint_and_marginals(
    code: SplittingACode,
) -> tuple[dict[tuple[int, int], Fraction], dict[int, Fraction]]:
    """p(source, message) and p(message) tables under the code's
    distributions."""
    joint: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
    marginals = {m: Fraction(0) for m in range(1, code.v + 1)}
    for e in range(1, code.num_rules + 1):
        p_e = code.key_dist[e - 1]
        if p_e == 0:
            continue
        for s in range(1, code.u + 1):
            p_s = code.source_dist[s - 1]
            if p_s == 0:
                continue
            for m in cell(code, e, s):
                mass = p_e * p_s * split_weight(code, e, s, m)
                joint[(s, m)] += mass
                marginals[m] += mass
    return joint, marginals


def perfect_secrecy_check(code: SplittingACode) -> PosteriorTable:
    """Whether one observed message reveals nothing about the source.

    Computes p(source | message) exactly for every message that can
    occur and compares it with the prior.  The verdict requires every
    message of the space to be reachable AND every posterior to equal
    the prior; unreachable messages are reported separately as the
    cause.
    """
    joint, marginals = _joint_and_marginals(code)
    priors = {s: code.source_dist[s - 1] for s in range(1, code.u + 1)}
    entries: dict[tuple[int, int], Fraction] = {}
    unreachable: list[int] = []
    ok = True
    for m in range(1, code.v + 1):
        if marginals[m] == 0:
            unreachable.append(m)
            ok = False
            continue
        for s in range(1, code.u + 1):
            post = joint[(s, m)] / marginals[m]
            entries[(s, m)] = post
            if post != priors[s]:
                ok = False
    return PosteriorTable(
        priors=priors,
        message_marginals=marginals,
        entries=entries,
        unreachable=tuple(unreachable),
        ok=ok,
    )


def _source_subset_dist(
    code: SplittingACode, i: int
) -> dict[tuple[int, ...], Fraction]:
    """Distribution of which i distinct sources the opponent observes.

    Source order and repeats are ignored, so a particular i-subset
    occurs with probability proportional to the product of its source
    probabilities.
    """
    subsets = list(combinations(range(1, code.u + 1), i))
    weights = [
        math.prod((code.source_dist[s - 1] for s in subset), start=Fraction(1))
        for subset in subsets
    ]
    total = sum(weights)
    if total == 0:
        raise ValueError(f"no {i}-subset of sources has positive probability")
    return {subset: w / total for subset, w in zip(subsets, weights) if w > 0}


def deception_probability(code: SplittingACode, i: int) -> Fraction:
    """Exact optimal success probability for spoofing of order i.

    Enumerates every transcript the opponent can observe (rule, i
    observed sources, message choice per source), then lets the
    opponent pick, per transcript, the unobserved message with the
    highest probability of being accepted as a *new* source.
    """
    if not 0 <= i <= code.u:
        raise ValueError(f"spoofing order i={i} out of range 0..{code.u}")
    subset_dist = _source_subset_dist(code, i)
    success: dict[frozenset[int], dict[int, Fraction]] = defaultdict(
        lambda: defaultdict(Fraction)
    )
    for e in range(1, code.num_rules + 1):
        p_e = code.key_dist[e - 1]
        if p_e == 0:
            continue
        decode_map = {
            m: s for s, cell in enumerate(code.rules[e - 1], start=1) for m in cell
        }
        for sources, p_sub in subset_dist.items():
            for picks in product(*(cell(code, e, s) for s in sources)):
                mass = p_e * p_sub
                for s, m in zip(sources, picks):
                    mass *= split_weight(code, e, s, m)
                if mass == 0:
                    continue
                observed = frozenset(picks)
                gains = success[observed]
                for m2, s2 in decode_map.items():
                    if m2 not in observed and s2 not in sources:
                        gains[m2] += mass
    return sum(
        (max(gains.values()) for gains in success.values() if gains),
        start=Fraction(0),
    )


def deception_bound(code: SplittingACode, i: int) -> Fraction:
    """Information-theoretic floor for spoofing of order i.

    Under any rule e in use, |M(e)| messages are accepted and the i
    observations rule out at most i * max_s |e(s)| of them, so guessing
    uniformly among the rest succeeds with probability at least
    (|M(e)| - i * max_s |e(s)|) / (v - i); the floor is the minimum
    over rules in use.  For a c-splitting code it is c*(u-i)/(v-i).
    """
    if not 0 <= i < code.v:
        raise ValueError(f"spoofing order i={i} out of range 0..{code.v - 1}")
    best: Fraction | None = None
    for rule, p_e in zip(code.rules, code.key_dist):
        if p_e == 0:
            continue
        accepted = sum(len(cell) for cell in rule)
        widest = max(len(cell) for cell in rule)
        value = Fraction(accepted - i * widest, code.v - i)
        best = value if best is None else min(best, value)
    assert best is not None  # key_dist sums to 1, so some rule is in use
    return best


def security_level(code: SplittingACode, i_max: int | None = None) -> int:
    """Largest L <= i_max with deception probability equal to the floor
    at every order 0..L; -1 when even order 0 exceeds the floor.

    ``i_max`` defaults to u - 1, the last order at which spoofing a new
    source is possible at all.
    """
    if i_max is None:
        i_max = code.u - 1
    if i_max > code.u:
        raise ValueError(f"i_max={i_max} exceeds source count u={code.u}")
    level = -1
    for i in range(0, i_max + 1):
        if deception_probability(code, i) != deception_bound(code, i):
            break
        level = i
    return level


def optimality_check(code: SplittingACode, t: int) -> bool | None:
    """Whether the code has the fewest rules possible for strength t.

    A c-splitting code that resists spoofing of every order below t
    needs at least C(v, t) / (c^t * C(u, t)) encoding rules.  Returns
    equality with that floor, or None when the precondition fails (the
    code is not (t-1)-fold secure, so the floor does not apply).
    """
    if not 1 <= t <= code.u:
        raise ValueError(f"strength t={t} out of range 1..{code.u}")
    if security_level(code, i_max=t - 1) < t - 1:
        return None
    floor = Fraction(math.comb(code.v, t), code.c**t * math.comb(code.u, t))
    return Fraction(code.num_rules) == floor


def analyze(code: SplittingACode, i_max: int | None = None) -> SecurityReport:
    """Deception probabilities, floors, security level, rule-count
    optimality (at strength i_max + 1) and secrecy in one report."""
    if i_max is None:
        i_max = code.u - 1
    if not 0 <= i_max <= code.u:
        raise ValueError(f"i_max={i_max} out of range 0..{code.u}")
    deception = {i: deception_probability(code, i) for i in range(i_max + 1)}
    bounds = {i: deception_bound(code, i) for i in range(i_max + 1)}
    level = -1
    for i in range(i_max + 1):
        if deception[i] != bounds[i]:
            break
        level = i
    if i_max + 1 <= code.u:
        optimal = None if level < i_max else optimality_check(code, t=i_max + 1)
    else:
        optimal = None
    return SecurityReport(
        deception=deception,
        bounds=bounds,
        level=level,
        optimal=optimal,
        posteriors=perfect_secrecy_check(code),
    )


def covered_subsets(block: Block, t: int) -> list[tuple[int, ...]]:
    """All t-subsets of points that this block covers, as sorted tuples.

    One covered subset per way of picking t mutually distinct parts and
    one point from each; since parts are disjoint, no subset repeats.
    """
    out: list[tuple[int, ...]] = []
    for parts in combinations(block, t):
        for points in product(*parts):
            out.append(tuple(sorted(points)))
    return out


def verify_design(design: SplittingDesign, t: int) -> VerificationResult:
    """Exhaustively test whether ``design`` is a t-splitting design.

    Checks structure, then counts coverage of every t-subset of 1..v
    and requires one common value lambda >= 1.  The verified parameters
    (t, v, b, c, u, lambda) are returned on success.
    """
    if t < 1:
        raise ValueError(f"strength t={t} must be positive")
    defects, c, u = _shape_defects(design.blocks, design.v)
    if defects:
        return VerificationResult(ok=False, params=None, defects=tuple(defects))
    if t > u:
        raise ValueError(f"strength t={t} exceeds parts per block u={u}")

    counts: Counter[tuple[int, ...]] = Counter()
    for block in design.blocks:
        counts.update(covered_subsets(block, t))

    reference: int | None = None
    for subset in combinations(range(1, design.v + 1), t):
        n = counts.get(subset, 0)
        if reference is None:
            reference = n
        elif n != reference:
            return VerificationResult(
                ok=False,
                params=None,
                defects=(
                    f"subset {subset} is covered {n} times, "
                    f"but {tuple(range(1, t + 1))} is covered {reference} times",
                ),
                witness=(subset, n, reference),
            )
    if not reference:
        first = tuple(range(1, t + 1))
        return VerificationResult(
            ok=False,
            params=None,
            defects=(f"subset {first} is covered 0 times",),
            witness=(first, 0, 0),
        )
    params = DesignParams(t=t, v=design.v, b=design.b, c=c, u=u, lam=reference)
    return VerificationResult(ok=True, params=params)


def orbit_of(block: Block, v: int) -> tuple[Block, ...]:
    """All distinct translates of a block, in translation order j = 0, 1, ...

    Two translates are equal when they have the same parts as an
    unordered set of point sets.
    """
    seen: set[frozenset[frozenset[int]]] = set()
    blocks: list[Block] = []
    for j in range(v):
        translate = translate_block(block, j, v)
        key = _block_key(translate)
        if key not in seen:
            seen.add(key)
            blocks.append(translate)
    return tuple(blocks)
