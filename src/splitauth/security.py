"""Exact security analysis of splitting authentication codes.

The threat model is spoofing of order i: the opponent observes i
messages sent under one rule for i distinct sources, then injects a new
message, succeeding when the receiver accepts it as a source the
opponent has not already used.  Order 0 is impersonation, order 1 is
substitution.

Two exact paths give the same ``Fraction``s.  When the key, source and
split distributions are all uniform, every transcript has one mass and
every value is a count of rules: an observed set O and a spoofed
message x in a cell not yet seen are an (i+1)-subset that the rule
covers.  So orders 1..i_max come from one count of the covered
t-subsets at t = i_max + 1 (b·C(u,t)·c^t for b rules), each lower order
from the one above it, and order 0 and the posteriors from n(s, m), the
number of rules with message m in cell s (a b·u·c scan).  Any other
code is enumerated exhaustively over rules, sources and message
choices, b·C(u,i)·c^i per order i, with the distributions scaled once
to integers over the least common multiples of their denominators, so
masses add up as ints and each reported probability is one
``Fraction``.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import chain, combinations, product, repeat

from . import verify
from ._record import frozen
from .acode import SplittingACode, common_denominator
from .params import binomial


@frozen
class PosteriorTable:
    """Source posteriors given each observable message.

    ``entries`` maps (source, message) to p(source | message) for every
    message of positive marginal probability.  ``unreachable`` lists
    messages no rule-source pair can ever send; their conditionals are
    undefined, and their existence already fails the secrecy verdict,
    which quantifies over every message.
    """

    priors: dict[int, Fraction]
    message_marginals: dict[int, Fraction]
    entries: dict[tuple[int, int], Fraction]
    unreachable: tuple[int, ...]
    ok: bool


@frozen
class SecurityReport:
    """Full exact analysis of one code.

    ``deception[i]`` is the opponent's optimal success probability for
    spoofing of order i and ``bounds[i]`` the information-theoretic
    floor; ``level`` is the largest L with equality at every order
    0..L, or -1 when already order 0 exceeds the floor.  ``optimal``
    says whether the code has the minimum possible number of rules for
    its security level (None when that bound's precondition fails).
    """

    deception: dict[int, Fraction]
    bounds: dict[int, Fraction]
    level: int
    optimal: bool | None
    posteriors: PosteriorTable

    @property
    def secrecy_ok(self) -> bool:
        return self.posteriors.ok


@frozen
class _Masses:
    """The code's distributions as integers over common denominators:
    ``key[e]`` and ``source[s]`` are the probabilities of rule e+1 and
    source s+1, and ``split[e][s]`` pairs each message of cell (e+1, s+1)
    with its sending probability, each times its ``*_den``."""

    key: tuple[int, ...]
    key_den: int
    source: tuple[int, ...]
    source_den: int
    split: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    split_den: int


def _masses(code: SplittingACode) -> _Masses:
    key, key_den = common_denominator(code.key_dist)
    source, source_den = common_denominator(code.source_dist)
    if code.split_dist is None:
        weights, split_den = repeat(1), code.c
    else:
        flat, split_den = common_denominator(
            w for per_source in code.split_dist for ws in per_source for w in ws
        )
        weights = iter(flat)
    # split_dist lists each cell's weights in ascending message order;
    # zip stops at the end of the cell without taking from ``weights``.
    split = tuple(
        tuple(tuple(zip(sorted(cell), weights)) for cell in rule)
        for rule in code.rules
    )
    return _Masses(key, key_den, source, source_den, split, split_den)


def _is_uniform(code: SplittingACode) -> bool:
    """Whether the key, source and split distributions are all uniform.
    ``count`` tests identity before equality, and the default and the
    parsed distributions repeat one object, so this is a cheap scan."""
    dists = [code.key_dist, code.source_dist]
    if code.split_dist is not None:
        dists.extend(chain.from_iterable(code.split_dist))
    return all(d.count(d[0]) == len(d) for d in dists)


# Masses p(s, m) and p(m) as integers over the denominator that comes last.
_Joint = tuple[dict[tuple[int, int], int], list[int], int]


def _cell_counts(code: SplittingACode) -> _Joint:
    """The masses p(s, m) and p(m) of a uniform code as counts over
    b·u·c: n(s, m), the number of rules with message m in cell s, and
    Σ_s n(s, m), the number of rules that accept m (indexed by message)."""
    joint = {}
    marginals = [0] * (code.v + 1)
    for s in range(code.u):
        for m, n in Counter(chain.from_iterable(rule[s] for rule in code.rules)).items():
            joint[s + 1, m] = n
            marginals[m] += n
    return joint, marginals, code.num_rules * code.u * code.c


def _joint_masses(code: SplittingACode, masses: _Masses) -> _Joint:
    """The masses p(s, m) and p(m) from the scaled distributions."""
    joint: dict[tuple[int, int], int] = defaultdict(int)
    marginals = [0] * (code.v + 1)
    for k_e, cells in zip(masses.key, masses.split):
        if not k_e:
            continue
        for s, (w_s, cell) in enumerate(zip(masses.source, cells), start=1):
            if not w_s:
                continue
            for m, w in cell:
                mass = k_e * w_s * w
                joint[s, m] += mass
                marginals[m] += mass
    return joint, marginals, masses.key_den * masses.source_den * masses.split_den


def _posteriors(
    code: SplittingACode,
    joint: dict[tuple[int, int], int],
    marginals: list[int],
    den: int,
) -> PosteriorTable:
    """The table from integer masses p(s, m) and p(m) over ``den``;
    ``marginals`` is indexed by message, slot 0 unused."""
    priors = {s: code.source_dist[s - 1] for s in range(1, code.u + 1)}
    unreachable = tuple(m for m in range(1, code.v + 1) if not marginals[m])
    entries = {
        (s, m): Fraction(joint.get((s, m), 0), marginals[m])
        for m in range(1, code.v + 1)
        if marginals[m]
        for s in range(1, code.u + 1)
    }
    return PosteriorTable(
        priors=priors,
        message_marginals={m: Fraction(n, den) for m, n in enumerate(marginals) if m},
        entries=entries,
        unreachable=unreachable,
        ok=not unreachable and all(p == priors[s] for (s, _), p in entries.items()),
    )


def perfect_secrecy_check(code: SplittingACode) -> PosteriorTable:
    """Whether one observed message reveals nothing about the source.

    Computes p(source | message) exactly for every message that can
    occur and compares it with the prior.  The verdict requires every
    message of the space to be reachable AND every posterior to equal
    the prior; unreachable messages are reported separately as the
    cause.
    """
    if _is_uniform(code):
        return _posteriors(code, *_cell_counts(code))
    return _posteriors(code, *_joint_masses(code, _masses(code)))


def _deception(code: SplittingACode, masses: _Masses, i: int) -> Fraction:
    """Spoofing of order i; see :func:`deception_probability`.

    An i-subset of sources is observed with probability proportional to
    the product of its source probabilities, so transcript masses are
    integers over key_den * (sum of subset weights) * split_den^i.
    """
    subsets = [
        (sources, math.prod(masses.source[s - 1] for s in sources))
        for sources in combinations(range(1, code.u + 1), i)
    ]
    total = sum(w for _, w in subsets)
    if total == 0:
        raise ValueError(f"no {i}-subset of sources has positive probability")
    success = defaultdict(lambda: defaultdict(int))  # observed set -> message -> gain
    for k_e, cells in zip(masses.key, masses.split):
        if not k_e:
            continue
        for sources, w_sub in subsets:
            unseen = (cell for s, cell in enumerate(cells, start=1) if s not in sources)
            targets = [m for cell in unseen for m, _ in cell]
            if not w_sub or not targets:
                continue
            for picks in product(*(cells[s - 1] for s in sources)):
                mass = k_e * w_sub
                for _, w in picks:
                    mass *= w
                if not mass:
                    continue
                gains = success[frozenset(m for m, _ in picks)]
                for m2 in targets:
                    gains[m2] += mass
    return Fraction(
        sum(max(gains.values()) for gains in success.values()),
        masses.key_den * total * masses.split_den**i,
    )


def _coverage_deception(
    code: SplittingACode, top: int, lowest: int, counts
) -> dict[int, Fraction]:
    """P_d_i of a uniform code for top >= i >= lowest, from ``counts``:
    each covered (top+1)-subset and the number of rules that cover it.
    At top = u no subset is counted, so order u alone reads 0: nothing is
    left to spoof.

    Under a rule, an observed set O and a spoofed message x in an unseen
    cell form an (i+1)-subset that the rule covers, so the gain of x on O
    is cov_{i+1}(O ∪ {x}) transcripts of one mass, and the opponent's
    best is the largest count over the (i+1)-subsets holding O.  A rule
    covering an i-subset S leaves (u-i)·c messages in its unseen cells,
    so the counts of order i-1 follow: Σ_x cov_{i+1}(S ∪ {x}) =
    (u-i)·c·cov_i(S).
    """
    u, c = code.u, code.c
    deception = {}
    for i in range(top, lowest - 1, -1):
        best: dict[tuple[int, ...], int] = {}
        below: Counter[tuple[int, ...]] = Counter()
        for subset, n in counts.items():
            for seen in combinations(subset, i):
                if best.get(seen, 0) < n:
                    best[seen] = n
                if i > lowest:
                    below[seen] += n
        deception[i] = Fraction(
            sum(best.values()), code.num_rules * binomial(u, i) * c**i
        )
        counts = {seen: n // ((u - i) * c) for seen, n in below.items()}
    return deception


def deception_probability(code: SplittingACode, i: int) -> Fraction:
    """Exact optimal success probability for spoofing of order i.

    Enumerates every transcript the opponent can observe (rule, i
    observed sources, message choice per source), then lets the
    opponent pick, per transcript, the unobserved message with the
    highest probability of being accepted as a *new* source.  For a
    uniform code this reads coverage counts instead (see the module
    docstring).
    """
    if not 0 <= i <= code.u:
        raise ValueError(f"spoofing order i={i} out of range 0..{code.u}")
    if not _is_uniform(code):
        return _deception(code, _masses(code), i)
    return _coverage_deception(code, i, i, verify._coverage(code.rules, i + 1))[i]


def deception_bound(code: SplittingACode, i: int) -> Fraction:
    """Information-theoretic floor for spoofing of order i.

    Under any rule e in use, |M(e)| messages are accepted and the i
    observations rule out at most i * max_s |e(s)| of them, so guessing
    uniformly among the rest succeeds with probability at least
    (|M(e)| - i * max_s |e(s)|) / (v - i); the floor is the minimum
    over rules in use.  Every rule of a code has u cells of the common
    size c, so that minimum is c*(u-i)/(v-i).
    """
    if not 0 <= i < code.v:
        raise ValueError(f"spoofing order i={i} out of range 0..{code.v - 1}")
    return Fraction(code.c * (code.u - i), code.v - i)


def rule_count_floor(code: SplittingACode, t: int) -> Fraction:
    """The minimum number of rules a (t-1)-fold-secure c-splitting code
    with these parameters can have: C(v, t) / (c^t * C(u, t))."""
    if not 1 <= t <= code.u:
        raise ValueError(f"strength t={t} out of range 1..{code.u}")
    return Fraction(binomial(code.v, t), code.c**t * binomial(code.u, t))


def analyze(code: SplittingACode, i_max: int | None = None) -> SecurityReport:
    """Deception probabilities, floors, security level, rule-count
    optimality (at strength i_max + 1) and secrecy in one report.

    Every order is computed once.  A uniform code counts its covered
    (i_max+1)-subsets once and reads every value off that count and
    n(s, m); any other code takes all orders and the posteriors from one
    integer scaling of its distributions.
    """
    if i_max is None:
        i_max = code.u - 1
    if not 0 <= i_max <= code.u:
        raise ValueError(f"i_max={i_max} out of range 0..{code.u}")
    return _analyze(code, i_max)


def _analyze(code: SplittingACode, i_max: int, counts=None) -> SecurityReport:
    """:func:`analyze` for an i_max in range; ``counts`` is the rules'
    ``verify._coverage`` at t = i_max + 1 when the caller has it."""
    if _is_uniform(code):
        joint, marginals, den = _cell_counts(code)
        found = {0: Fraction(max(marginals), code.num_rules)}
        top = min(i_max, code.u - 1)
        if top:
            if counts is None:
                counts = verify._coverage(code.rules, top + 1)
            found.update(_coverage_deception(code, top, 1, counts))
        # Order u leaves no source to spoof.
        deception = {i: found.get(i, Fraction(0)) for i in range(i_max + 1)}
        posteriors = _posteriors(code, joint, marginals, den)
    else:
        masses = _masses(code)
        deception = {i: _deception(code, masses, i) for i in range(i_max + 1)}
        posteriors = _posteriors(code, *_joint_masses(code, masses))
    bounds = {i: deception_bound(code, i) for i in range(i_max + 1)}
    misses = (i for i in range(i_max + 1) if deception[i] != bounds[i])
    level = next(misses, i_max + 1) - 1
    optimal = None
    if level == i_max < code.u:
        optimal = rule_count_floor(code, i_max + 1) == code.num_rules
    return SecurityReport(
        deception=deception,
        bounds=bounds,
        level=level,
        optimal=optimal,
        posteriors=posteriors,
    )
