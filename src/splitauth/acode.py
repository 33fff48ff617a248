"""Splitting authentication codes.

A code has u source states, v messages (1..v), and a set of encoding
rules.  Under rule e, source s may be sent as any message in the cell
e(s); the cells of one rule are pairwise disjoint, so every valid
message names exactly one source, and all cells share one size c
(the splitting number).  The sender draws the rule, the source, and the
message within the cell at random; all three distributions are exact
rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain

from . import construct, verify
from ._record import frozen
from .construct import Block, SplittingDesign

SplitDist = tuple[tuple[tuple[Fraction, ...], ...], ...]


def rule_defects(rules: tuple[Block, ...], v: int, u: int | None = None) -> list[str]:
    """Structural problems of a rule list, without building a code.

    Every rule needs the same number of cells (u, when given), every
    cell the same size, cells of one rule pairwise disjoint, all
    messages in 1..v.  Callers use this to diagnose malformed rule sets
    before (or instead of) constructing a code.
    """
    words = (
        "rule", "cell", "message", "code has no encoding rules",
        "rule 1 has no cells", "rule 1 has an empty cell",
    )
    return construct._shape_defects(rules, v, words, u)[0]


def _uniform(n: int) -> tuple[Fraction, ...]:
    return (Fraction(1, n),) * n


def common_denominator(weights) -> tuple[tuple[int, ...], int]:
    """Exact rationals as integer numerators over the least common
    multiple of their denominators (``Fraction`` or ``int`` weights)."""
    ratios = [w.as_integer_ratio() for w in weights]
    den = math.lcm(*{d for _, d in ratios})
    return tuple(n * (den // d) for n, d in ratios), den


def _check_dist(dist: tuple[Fraction, ...], n: int, name: str) -> None:
    if len(dist) != n:
        raise ValueError(f"{name} has {len(dist)} entries, expected {n}")
    # One value n times (the uniform default and parsed uniform dists
    # repeat one object, which tuple equality tests by identity first)
    # is checked once, weighted by n; any other dist entry by entry.
    values, times = (dist[:1], n) if dist == dist[:1] * n else (dist, 1)
    if any(p < 0 for p in values):
        raise ValueError(f"{name} has a negative entry")
    numerators, den = common_denominator(values)
    total = sum(numerators) * times
    if total != den:
        raise ValueError(f"{name} sums to {Fraction(total, den)}, expected 1")


def _cells_sum_to_one(split, b: int, u: int, c: int) -> bool:
    """Whether ``split`` has b rules of u cells of c weights, none of
    them negative, each cell summing to 1.

    Every weight is scaled once over one common denominator, and each
    cell's numerators must sum to it.
    """
    cells = list(chain.from_iterable(split))
    if len(split) != b or {*map(len, split)} != {u} or {*map(len, cells)} != {c}:
        return False
    nums, den = common_denominator(chain.from_iterable(cells))
    return min(nums) >= 0 and {*map(sum, zip(*[iter(nums)] * c))} == {den}


@frozen
class SplittingACode:
    """An authentication code with splitting.

    ``rules[e][s]`` is the cell of messages that rule e+1 assigns to
    source s+1 (the API itself is 1-based).  ``split_dist[e][s]`` gives
    the sending probabilities of the cell's messages in ascending
    message order; None means uniform within every cell.  Empty
    ``key_dist``/``source_dist`` default to uniform.
    """

    u: int
    v: int
    rules: tuple[Block, ...]
    key_dist: tuple[Fraction, ...] = ()
    source_dist: tuple[Fraction, ...] = ()
    split_dist: SplitDist | None = None

    def __post_init__(self) -> None:
        defects = rule_defects(self.rules, self.v, self.u)
        if defects:
            raise ValueError("; ".join(defects))
        self._check_dists()

    def _check_dists(self) -> None:
        """Fill in the uniform defaults and check every distribution."""
        if not self.key_dist:
            object.__setattr__(self, "key_dist", _uniform(len(self.rules)))
        if not self.source_dist:
            object.__setattr__(self, "source_dist", _uniform(self.u))
        _check_dist(self.key_dist, len(self.rules), "key_dist")
        _check_dist(self.source_dist, self.u, "source_dist")
        if self.split_dist is not None and not _cells_sum_to_one(
            self.split_dist, len(self.rules), self.u, self.c
        ):
            # Something is off: find it cell by cell, in the order errors are named.
            if len(self.split_dist) != len(self.rules):
                raise ValueError(
                    f"split_dist covers {len(self.split_dist)} rules, "
                    f"expected {len(self.rules)}"
                )
            # The rules passed the shape check, so every cell has c messages.
            c = self.c
            for e, per_source in enumerate(self.split_dist, start=1):
                if len(per_source) != self.u:
                    raise ValueError(
                        f"split_dist of rule {e} covers {len(per_source)} "
                        f"sources, expected {self.u}"
                    )
                for s, weights in enumerate(per_source, start=1):
                    _check_dist(weights, c, f"split_dist of rule {e}, source {s}")

    @classmethod
    def _on_checked_rules(cls, *fields) -> SplittingACode:
        """The code with these fields in order, for rules that already passed
        :func:`rule_defects` with this u: checks only the distributions."""
        code = cls.__new__(cls)
        code.__dict__.update(zip(cls.__annotations__, fields))
        code._check_dists()
        return code

    @property
    def num_rules(self) -> int:
        return len(self.rules)

    @property
    def c(self) -> int:
        """The common cell size (splitting number)."""
        return len(self.rules[0][0])

    @cached_property
    def design(self) -> SplittingDesign:
        """The rules as a splitting design, kept with its ``runs``, its
        shape and each strength's :func:`verify.verify_design` verdict:
        the design ``code_from_design`` verified, otherwise one made on
        first use.  The fields are immutable, and ``design`` is not one
        of them.  With index 1 at strength 2, every two messages lie in
        distinct cells of exactly one rule."""
        design = SplittingDesign(self.v, self.rules)
        # The rules passed rule_defects with this u: no shape walk is needed.
        design.__dict__["shape"] = ([], self.c, self.u)
        return design


def code_from_design(
    design: SplittingDesign,
    key_dist: tuple[Fraction, ...] = (),
    source_dist: tuple[Fraction, ...] = (),
    split_dist: SplitDist | None = None,
) -> SplittingACode:
    """Use the blocks of a verified splitting design as encoding rules.

    Part s of block e becomes the cell of messages rule e may use for
    source s.  The design must verify exactly as a 2-splitting
    design with index 1; anything else is rejected, because the
    security guarantees downstream depend on exactly that structure.
    Distributions default to uniform.
    """
    result = verify.verify_design(design, 2)
    if not result.ok or result.params is None:
        raise ValueError(
            "design does not verify as a 2-splitting design: "
            + "; ".join(result.defects)
        )
    if result.params.lam != 1:
        raise ValueError(
            f"design has index {result.params.lam}, need exactly 1 "
            "for an encoding-rule set"
        )
    code = SplittingACode._on_checked_rules(
        result.params.u, design.v, design.blocks, key_dist, source_dist, split_dist
    )
    # The rules are the design's blocks: hand over what was found on them.
    code.__dict__["design"] = design
    return code

