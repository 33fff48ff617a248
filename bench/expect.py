"""Expected results, computed without calling the program under test.

Every value here comes from the paper's closed forms or from a short
direct formula over the generated inputs, so a wrong answer from the
program cannot also make its own expectation wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


@dataclass(frozen=True)
class Claims:
    """What `analyze` (and the index check before it) must report."""

    v: int
    b: int
    params: str
    pd0: Fraction
    pd1: Fraction
    bound0: Fraction
    bound1: Fraction
    level: int
    optimal: bool | None
    secrecy: bool


def family_base_blocks(c: int, n: int) -> tuple[int, list[tuple[tuple[int, ...], ...]]]:
    """v and the base blocks of the paper's two-source family 2-(2c²n+1, ., 2c, 1):
    block h pairs {1..c} with the step-c progression from 2c²(h-1)+c+1."""
    v = 2 * c * c * n + 1
    first = tuple(range(1, c + 1))
    blocks = [
        (first, tuple(2 * c * c * (h - 1) + c + 1 + i * c for i in range(c)))
        for h in range(1, n + 1)
    ]
    return v, blocks


def developed_blocks(c: int, n: int) -> tuple[int, tuple]:
    """Every translate of every base block over Z_v, base block by base
    block, translation by translation, points kept in part order.  v is
    1 mod 2c², so each orbit is full and no translate repeats."""
    v, base = family_base_blocks(c, n)
    blocks = tuple(
        tuple(tuple((x - 1 + j) % v + 1 for x in part) for part in block)
        for block in base
        for j in range(v)
    )
    return v, blocks


def canonical(blocks) -> list:
    """Blocks as a sorted list of sorted part sets, for order-free comparison."""
    return sorted(tuple(sorted(tuple(sorted(p)) for p in block)) for block in blocks)


def same_blocks(got, want) -> bool:
    return tuple(got) == tuple(want) or canonical(got) == canonical(want)


def params_text(v: int, b: int, c: int) -> str:
    return f"2-({v},{b},{2 * c}={c}×2,1)"


def uniform_claims(c: int, n: int) -> Claims:
    """Closed forms for a uniform index-1 two-source code (u=2): the
    deception floors 2c/v and c/(v-1) are met, the code is one-fold
    secure, has the minimum C(v,2)/c² = n·v rules and perfect secrecy."""
    v = 2 * c * c * n + 1
    b = n * v
    return Claims(
        v=v,
        b=b,
        params=params_text(v, b, c),
        pd0=Fraction(2 * c, v),
        pd1=Fraction(c, v - 1),
        bound0=Fraction(2 * c, v),
        bound1=Fraction(c, v - 1),
        level=1,
        optimal=True,
        secrecy=True,
    )


def weighted_claims(rules, v: int, key, source, split) -> Claims:
    """Deception and secrecy of an index-1 two-source code under arbitrary
    distributions.

    P_d0 = max_m sum_{e containing m} p_e.  Index 1 puts each cross-part
    pair in exactly one rule, so after seeing m the best guess is worth
    p_e·p_s·w_e(m) for the single rule joining m to it, and
    P_d1 = sum_m max_{e containing m} p_e·p_{s_e(m)}·w_e(m).
    ``split[e][s]`` lists weights in ascending message order.
    """
    b = len(rules)
    c = len(rules[0][0])
    impersonation = [Fraction(0)] * (v + 1)
    substitution = [Fraction(0)] * (v + 1)
    joint = [[Fraction(0)] * (v + 1) for _ in source]
    for rule, p_e, weights in zip(rules, key, split):
        for s, (cell, cell_weights) in enumerate(zip(rule, weights)):
            for m, w in zip(sorted(cell), cell_weights):
                impersonation[m] += p_e
                mass = p_e * source[s] * w
                substitution[m] = max(substitution[m], mass)
                joint[s][m] += mass
    secrecy = all(
        sum(joint[s][m] for s in range(len(source))) > 0
        and all(
            joint[s][m] == p_s * sum(joint[t][m] for t in range(len(source)))
            for s, p_s in enumerate(source)
        )
        for m in range(1, v + 1)
    )
    pd0 = max(impersonation[1:])
    pd1 = sum(substitution[1:], Fraction(0))
    bound0, bound1 = Fraction(2 * c, v), Fraction(c, v - 1)
    level = -1 if pd0 != bound0 else (0 if pd1 != bound1 else 1)
    return Claims(
        v=v,
        b=b,
        params=params_text(v, b, c),
        pd0=pd0,
        pd1=pd1,
        bound0=bound0,
        bound1=bound1,
        level=level,
        optimal=None if level < 1 else b * c * c == math.comb(v, 2),
        secrecy=secrecy,
    )


def pair_rank(pair: tuple[int, int], v: int) -> int:
    """1-based position of a point pair in the lexicographic scan of C(v,2)."""
    a, b = pair
    return (a - 1) * v - (a - 1) * a // 2 + (b - a)


def dropped_block_witness(block, v: int) -> tuple[tuple[int, int], int, int]:
    """Witness of an index-1 design with one block removed.

    The removed block's cross-part pairs are covered 0 times, all others
    once.  The scan compares each pair with (1, 2), so the witness is the
    first pair whose coverage differs from that of (1, 2).
    """
    missing = {
        tuple(sorted((x, y)))
        for i, part in enumerate(block)
        for other in block[i + 1 :]
        for x in part
        for y in other
    }
    if (1, 2) not in missing:
        return min(missing), 0, 1
    # (1, 2) reads 0: the witness is the first pair the block still covers.
    pair = (1, 3)
    while pair in missing:
        a, b = pair
        pair = (a, b + 1) if b < v else (a + 1, a + 2)
    return pair, 1, 0


def analyze_report(cl: Claims) -> str:
    """`splitauth analyze` output for a code meeting every claim."""
    return (
        f"rules form a splitting design: {cl.params}, λ=1\n"
        f"P_d0 = {cl.pd0} (floor {cl.bound0}, met exactly)\n"
        f"P_d1 = {cl.pd1} (floor {cl.bound1}, met exactly)\n"
        "one-fold secure against spoofing\n"
        f"encoding rules: {cl.b}, minimum possible: {cl.b}, optimal\n"
        "perfect secrecy\n"
        "PASS\n"
    )


def markdown_matrix(blocks) -> str:
    """`splitauth export -f markdown` output for a two-source code."""
    lines = ["| rule | s₁ | s₂ |", "| --- | --- | --- |"]
    for e, block in enumerate(blocks, start=1):
        cells = " | ".join("{" + ",".join(map(str, part)) + "}" for part in block)
        lines.append(f"| e{str(e).translate(SUBSCRIPTS)} | {cells} |")
    return "\n".join(lines) + "\n"
