"""Exact security analysis of splitting authentication codes.

The threat model is spoofing of order i: the opponent observes i
messages sent under one rule for i distinct sources, then injects a new
message, succeeding when the receiver accepts it as a source the
opponent has not already used.  Order 0 is impersonation, order 1 is
substitution.

Every code, uniform or not, is scaled once to integers over the least
common multiples of the denominators of its distributions and laid out
in point columns: per source and rank, the r-th smallest message of
each rule's cell and the mass p(s)·p(m | e, s) of sending it.  Order i
then walks the C(u,i) observed source subsets and the c^i choices of a
rank in each observed cell, one column over the b rules per choice, and
each of these transcripts adds its mass to the gains of the (u-i)·c
messages in its unseen cells: b·C(u,i)·c^i·(u-i)·c gain updates.  The
posteriors come from the same columns, per source and message.  Masses
add up as ints, each reported probability is one ``Fraction``, and
equal integer ratios share one.

A code whose rules form a 2-splitting design of index 1, as every
code of ``code_from_design`` does, needs no walk past order 0: every
two messages lie in distinct cells of exactly one rule.  So the
transcripts that show one message m have disjoint targets, and the best
spoof after seeing m gains the largest mass of a transcript showing m:
order 1 is b·u·c mass comparisons.  Any i >= 2 messages are shown by one
transcript only, so order i is exactly 1 for 2 <= i < u.  The verdict
is the strength-2 one kept on the code's ``design``: counted by
``code_from_design``, otherwise once on first use, at most b·C(u,2)·c²
covered pairs (half the gain updates of the order-1 walk).

A code whose rules are in developed form (see
:mod:`splitauth.construct`: each run closes on its first rule cell for
cell, so every cell keeps its source), with equal key weights and no
``split_dist``, is fixed by x -> x+1 on messages: so are its
transcripts' masses, the optimal gain f(S) of each observed set S, and
p(s, m).  Only the rules through message 1 are laid out in columns.
Every transcript that shows message 1 comes from one of them, so
f(S) comes out exact for every S that holds message 1, and each i-set
has i members: Σ_S f(S) = (v/i)·Σ_{S∋1} f(S) for i >= 1.  At order 0
message 1 is as good as any, and p(s, 1) stands for every p(s, m).
Any other code takes the whole walk (or, past order 0, none if its
rules have index 1).  So does a code holding a short
orbit whose closing shift permutes a rule's cells: that shift sends a
message of one source to another source, so the orbit is not a run.  A
code's runs are its design's, found once (``code.design.runs``).
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, filterfalse, repeat
from operator import contains, eq, itemgetter, mul

from . import construct
from ._record import frozen
from .acode import SplittingACode, common_denominator
from .verify import verify_design


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
class _Columns:
    """The code's distributions as integers over common denominators, by
    point columns over all rules: ``messages[s][r][e]`` is the r-th
    smallest message of cell (e+1, s+1) and ``weights[s][r][e]`` the
    mass p(s+1)·p(that message | e+1, s+1) times source_den·split_den;
    ``key[e]`` and ``source[s]`` are the probabilities of rule e+1 and
    source s+1 times ``key_den`` and ``source_den``.  With ``through_1``
    the columns hold only the rules through message 1 of a code fixed
    by x -> x+1, in their own order; ``key_den`` is still the code's."""

    key: tuple[int, ...]
    key_den: int
    source: tuple[int, ...]
    source_den: int
    messages: tuple[tuple[tuple[int, ...], ...], ...]
    weights: tuple[tuple[tuple[int, ...], ...], ...]
    split_den: int
    through_1: bool


def _columns(code: SplittingACode) -> _Columns:
    rules, keys, through_1 = code.rules, code.key_dist, False
    # One key weight repeated (the uniform default) is scaled once.
    uniform = keys == keys[:1] * len(keys)
    runs = code.design.runs if code.split_dist is None else None
    if runs is not None and uniform:
        rules = [rules[e] for e in construct.through_point_1(rules, code.v, runs)]
        through_1 = True
    key, key_den = common_denominator(keys[:1] if uniform else keys)
    if uniform:
        key *= len(rules)
    source, source_den = common_denominator(code.source_dist)
    u, c = code.u, code.c
    messages = tuple(
        tuple(zip(*map(sorted, map(itemgetter(s), rules)))) for s in range(u)
    )
    if code.split_dist is None:
        flat, split_den = (1,) * (len(rules) * u * c), c
    else:
        flat, split_den = common_denominator(
            chain.from_iterable(chain.from_iterable(code.split_dist))
        )
    # split_dist lists each cell's weights in ascending message order,
    # so weight r of source s sits at s·c + r among a rule's u·c.
    weights = tuple(
        tuple(
            tuple(map(mul, flat[s * c + r :: u * c], repeat(w_s))) for r in range(c)
        )
        for s, w_s in enumerate(source)
    )
    return _Columns(key, key_den, source, source_den, messages, weights, split_den, through_1)


def _joint_masses(code: SplittingACode, cols: _Columns) -> tuple[list[list[int]], list[int], int]:
    """The masses p(s, m) and p(m) as integers over the denominator that
    comes last, from the scaled columns: one list per source of Σ_e
    key(e)·weight(e, s, m), and their sums, each indexed by message
    (slot 0 unused)."""
    joint = []
    for columns, weights in zip(cols.messages, cols.weights):
        per = [0] * (code.v + 1)
        for ms, ws in zip(columns, weights):
            for m, w in zip(ms, map(mul, cols.key, ws)):
                per[m] += w
        if cols.through_1:
            per[1:] = [per[1]] * code.v
        joint.append(per)
    return joint, list(map(sum, zip(*joint))), cols.key_den * cols.source_den * cols.split_den


def _posteriors(code: SplittingACode, cols: _Columns) -> PosteriorTable:
    """The table from the integer masses of :func:`_joint_masses`.

    Entries with one (p(s, m), p(m)) pair share one ``Fraction``, and so
    do messages with one p(m).  Each p(s | m) is compared with p(s) by
    cross-multiplying integers, per source and message.
    """
    joint, marginals, den = _joint_masses(code, cols)
    u, v = code.u, code.v
    unreachable = tuple(filterfalse(marginals.__getitem__, range(1, v + 1)))
    # p(s, m)·source_den == source[s]·p(m), source by source
    ok = not unreachable and all(
        all(map(eq, map(mul, per, repeat(cols.source_den)), map(mul, marginals, repeat(w))))
        for per, w in zip(joint, cols.source)
    )
    ratio = lru_cache(maxsize=None)(Fraction)  # one Fraction per distinct pair
    # p(s, m) and p(m) of the reached messages, by message, then source
    numerators = chain.from_iterable(compress(zip(*joint), marginals))
    denominators = chain.from_iterable(map(repeat, filter(None, marginals), repeat(u)))
    return PosteriorTable(
        priors={s: code.source_dist[s - 1] for s in range(1, u + 1)},
        message_marginals=dict(zip(range(1, v + 1), map(ratio, marginals[1:], repeat(den)))),
        entries=dict(
            zip(
                [(s, m) for m in compress(range(v + 1), marginals) for s in range(1, u + 1)],
                map(ratio, numerators, denominators),
            )
        ),
        unreachable=unreachable,
        ok=ok,
    )


def perfect_secrecy_check(code: SplittingACode) -> PosteriorTable:
    """Whether one observed message reveals nothing about the source.

    Computes p(source | message) exactly for every message that can
    occur and compares it with the prior.  The verdict requires every
    message of the space to be reachable AND every posterior to equal
    the prior; unreachable messages are reported separately as the
    cause.
    """
    return _posteriors(code, _columns(code))


def _deception(code: SplittingACode, cols: _Columns, i: int) -> Fraction:
    """Spoofing of order i; see :func:`deception_probability`.

    An i-subset of sources is observed with probability proportional to
    the product of its source weights, so transcript masses are integers
    over key_den·e_i·split_den^i, where e_i, the sum of those products
    over all i-subsets, follows from e_j += e_(j-1)·w over the weights w.

    When the rules form a 2-splitting design of index 1
    (``verify_design(code.design, 2)``), the transcripts that show one
    message have pairwise disjoint targets, so f({m}) is the largest
    mass of a transcript that shows m: order 1 takes b·u·c mass
    comparisons, with one dict of the best mass per message.  Every set
    of i >= 2 messages is shown by one transcript only, whose mass is
    then its f(S), so the masses of all transcripts add up to the whole
    denominator and order i is exactly 1.  Every other code takes
    :func:`_walk`.  Columns of the rules through message 1 give f(S) for
    the sets that hold it, and their sum is taken v/i times (see the
    module docstring).
    """
    sums = [1] + [0] * i  # sums[j]: e_j of the source weights read so far
    for w in cols.source:
        for j in range(i, 0, -1):
            sums[j] += sums[j - 1] * w
    if sums[i] == 0:
        raise ValueError(f"no {i}-subset of sources has positive probability")
    if i == code.u:
        return Fraction(0)  # no unseen cell is left to spoof
    params = verify_design(code.design, 2).params if i else None
    if params is not None and params.lam == 1:
        if i > 1:
            return Fraction(1)  # one transcript shows each observed set
        best = _heaviest(cols)
        total = best.get(1, 0) if cols.through_1 else sum(best.values())
    else:
        total = _walk(code, cols, i)
    den = cols.key_den * sums[i] * cols.split_den**i
    if cols.through_1 and i:  # Σ_S f(S) = (v/i)·Σ_{S∋1} f(S)
        return Fraction(total * code.v, den * i)
    return Fraction(total, den)


def _heaviest(cols: _Columns) -> dict[int, int]:
    """The largest mass of an order-1 transcript that shows each message
    (messages no transcript of positive mass shows are left out)."""
    best: dict[int, int] = {}
    for columns, weights in zip(cols.messages, cols.weights):
        for ms, ws in zip(columns, weights):
            for m, w in zip(ms, map(mul, cols.key, ws)):
                if w > best.get(m, 0):
                    best[m] = w
    return best


def _walk(code: SplittingACode, cols: _Columns, i: int) -> int:
    """Σ_S f(S) over the observed i-sets S of any code, 0 <= i < u, as
    integers over the denominator of :func:`_deception`.

    The sources are walked in order, each observed or left unseen.  An
    observed source multiplies each transcript's mass column by the
    weight column of each rank of its cell, once per prefix of the walk,
    and appends that rank's message column.  Once i sources are
    observed, the unseen cells' messages form one target row per rule,
    and each transcript adds its mass to the gains of its (u-i)·c
    targets: b·C(u,i)·c^i·(u-i)·c gain updates in all.  ``success`` holds
    one gain dict per distinct observed set, keyed by its sorted
    messages; that, not the columns, is what grows with i.  Columns of
    the rules through message 1 add only the transcripts whose observed
    set holds it, so ``success`` holds only those sets.
    """
    u = code.u
    success = defaultdict(dict)  # sorted observed messages -> message -> gain
    # (next source, sources left to observe, (observed message columns,
    # mass column) per choice of ranks, unseen message columns)
    stack = [(0, i, [((), cols.key)], ())]
    while stack:
        s, left, chosen, unseen = stack.pop()
        if left:
            if left < u - s:
                stack.append((s + 1, left, chosen, unseen + cols.messages[s]))
            if cols.source[s]:
                extended = [
                    (picked + (column,), list(map(mul, masses, weights)))
                    for picked, masses in chosen
                    for column, weights in zip(cols.messages[s], cols.weights[s])
                ]
                stack.append((s + 1, left - 1, extended, unseen))
            continue
        rows = list(zip(*unseen, *chain.from_iterable(cols.messages[s:])))
        for picked, masses in chosen:
            if i > 1:
                observed = map(tuple, map(sorted, zip(*picked)))
            else:  # one message is its own key, and zip() of no column is empty
                observed = picked[0] if i else repeat(())
            transcripts = zip(observed, masses, rows)
            if cols.through_1 and i:  # only the sets through message 1 are summed
                transcripts = compress(transcripts, map(contains, zip(*picked), repeat(1)))
            for seen, mass, row in transcripts:
                if mass:
                    gains = success[seen]
                    for m in row:
                        gains[m] = gains.get(m, 0) + mass
    return sum(max(gains.values()) for gains in success.values())


def deception_probability(code: SplittingACode, i: int) -> Fraction:
    """Exact optimal success probability for spoofing of order i.

    Enumerates every transcript the opponent can observe (rule, i
    observed sources, message choice per source), then lets the
    opponent pick, per transcript, the unobserved message with the
    highest probability of being accepted as a *new* source.  That walk
    costs b·C(u,i)·c^i·(u-i)·c gain updates; when the rules have index
    1, order 1 costs b·u·c mass comparisons and orders 2..u-1 are 1
    with no walk (see the module docstring).
    """
    if not 0 <= i <= code.u:
        raise ValueError(f"spoofing order i={i} out of range 0..{code.u}")
    return _deception(code, _columns(code), i)


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
    return Fraction(math.comb(code.v, t), code.c**t * math.comb(code.u, t))


def analyze(code: SplittingACode, i_max: int | None = None) -> SecurityReport:
    """Deception probabilities, floors, security level, rule-count
    optimality (at strength i_max + 1) and secrecy in one report.

    Every order is computed once, and all orders and the posteriors
    come from one integer scaling of the code's distributions.
    """
    if i_max is None:
        i_max = code.u - 1
    if not 0 <= i_max <= code.u:
        raise ValueError(f"i_max={i_max} out of range 0..{code.u}")
    cols = _columns(code)
    deception = {i: _deception(code, cols, i) for i in range(i_max + 1)}
    posteriors = _posteriors(code, cols)
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
