"""The counting engine against the direct reference implementations.

Every comparison is exact equality of the returned objects: the same
Fractions, the same witness triples, the same defect text, the same
blocks in the same order.
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
import splitauth.construct
import splitauth.security
import splitauth.verify
from splitauth import (
    BaseBlockFamily,
    SplittingACode,
    SplittingDesign,
    analyze,
    code_from_design,
    deception_probability,
    develop_cyclic,
    family_u2,
    orbit_of,
    perfect_secrecy_check,
    verify_design,
)


def outcome(f, *args):
    """A call's value, or its ValueError text, so that failures compare
    too."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _normalize(weights: list[int]) -> tuple[Fraction, ...]:
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def _weights(n: int):
    """n rational weights summing to 1, zeros allowed."""
    drawn = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)
    return drawn.map(_normalize)


def _weights_or_uniform(n: int):
    return st.one_of(st.just(()), _weights(n))


@st.composite
def small_codes(draw) -> SplittingACode:
    """Random rules with random or uniform distributions; at u = 4 and
    c = 3 an order has up to 27 rank choices and three unseen sources."""
    u = draw(st.sampled_from((2, 3, 4)))
    c = draw(st.sampled_from((1, 2, 3)))
    v = draw(st.integers(c * u, c * u + 4))
    rules = []
    for _ in range(draw(st.integers(1, 6))):
        points = draw(st.permutations(range(1, v + 1)))[: c * u]
        rules.append(tuple(tuple(points[k * c : (k + 1) * c]) for k in range(u)))
    split = None
    if draw(st.booleans()):
        split = tuple(tuple(draw(_weights(c)) for _ in range(u)) for _ in rules)
    return SplittingACode(
        u=u,
        v=v,
        rules=tuple(rules),
        key_dist=draw(_weights_or_uniform(len(rules))),
        source_dist=draw(_weights_or_uniform(u)),
        split_dist=split,
    )


@st.composite
def uniform_codes(draw) -> SplittingACode:
    """Codes with uniform key, source and split distributions, where
    every transcript has one mass: random rules, so mostly not designs,
    and with spare messages often never sent.  Distributions are left to
    their defaults or spelled out, one object per entry."""
    u = draw(st.sampled_from((1, 2, 3, 4)))
    c = draw(st.sampled_from((1, 2)))
    v = draw(st.integers(c * u, c * u + 4))
    rules = []
    for _ in range(draw(st.integers(1, 6))):
        points = draw(st.permutations(range(1, v + 1)))[: c * u]
        rules.append(tuple(tuple(points[k * c : (k + 1) * c]) for k in range(u)))
    spelled = st.booleans()
    b = len(rules)
    return SplittingACode(
        u=u,
        v=v,
        rules=tuple(rules),
        key_dist=tuple(Fraction(1, b) for _ in rules) if draw(spelled) else (),
        source_dist=tuple(Fraction(1, u) for _ in range(u)) if draw(spelled) else (),
        split_dist=tuple(
            tuple(tuple(Fraction(1, c) for _ in range(c)) for _ in range(u))
            for _ in rules
        )
        if draw(spelled)
        else None,
    )


class TestSecurityAgainstReference:
    @given(code=small_codes())
    @settings(max_examples=150, deadline=None)
    def test_every_order(self, code):
        for i in range(code.u + 1):
            assert outcome(deception_probability, code, i) == outcome(
                reference.deception_probability, code, i
            )

    @given(code=small_codes())
    @settings(max_examples=150, deadline=None)
    def test_reports(self, code):
        for i_max in range(code.u + 1):
            assert outcome(analyze, code, i_max) == outcome(
                reference.analyze, code, i_max
            )

    @given(code=small_codes())
    @settings(max_examples=100, deadline=None)
    def test_level_and_optimality(self, code):
        for i_max in range(code.u):
            report = outcome(analyze, code, i_max)
            if isinstance(report, str):
                # analyze computes every order up to i_max, while the
                # reference level stops at the first order off its floor
                assert report == outcome(reference.analyze, code, i_max)
                continue
            assert report.level == reference.security_level(code, i_max)
            assert report.optimal == reference.optimality_check(code, i_max + 1)

    @given(code=small_codes())
    @settings(max_examples=100, deadline=None)
    def test_posteriors(self, code):
        assert perfect_secrecy_check(code) == reference.perfect_secrecy_check(code)

    @given(code=uniform_codes())
    @settings(max_examples=150, deadline=None)
    def test_uniform_codes(self, code):
        for i in range(code.u + 1):
            assert outcome(analyze, code, i) == outcome(reference.analyze, code, i)
            assert deception_probability(code, i) == reference.deception_probability(
                code, i
            )
        assert perfect_secrecy_check(code) == reference.perfect_secrecy_check(code)

    def test_one_weight_off_uniform_takes_the_engine(self, monkeypatch):
        calls = []
        columns = splitauth.security._columns

        def engine(code):
            calls.append(code)
            return columns(code)

        monkeypatch.setattr(splitauth.security, "_columns", engine)
        rules = develop_cyclic(family_u2(2, 1)).blocks
        split = [((Fraction(1, 2),) * 2,) * 2] * len(rules)
        split[4] = ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 2),) * 2)
        code = SplittingACode(u=2, v=9, rules=rules, split_dist=tuple(split))
        for i in range(code.u + 1):
            assert analyze(code, i) == reference.analyze(code, i)
            assert deception_probability(code, i) == reference.deception_probability(
                code, i
            )
        assert perfect_secrecy_check(code) == reference.perfect_secrecy_check(code)
        # each call scales the code to integers once
        assert len(calls) == 2 * (code.u + 1) + 1

    def test_weights_pair_with_ascending_messages(self):
        # developed cells wrap around, e.g. (9, 1): weight 1/3 goes to
        # message 1 and 2/3 to message 9, whatever order the rule stores
        rules = develop_cyclic(family_u2(2, 1)).blocks
        assert ((9, 1), (2, 4)) in rules
        split = ((Fraction(1, 3), Fraction(2, 3)),) * 2
        code = SplittingACode(u=2, v=9, rules=rules, split_dist=(split,) * len(rules))
        for i in range(code.u + 1):
            assert deception_probability(code, i) == reference.deception_probability(
                code, i
            )
        assert perfect_secrecy_check(code) == reference.perfect_secrecy_check(code)

    @pytest.mark.parametrize(
        "source_dist",
        [(), (Fraction(2, 13),) + (Fraction(1, 13),) * 11],
        ids=["uniform", "weighted"],
    )
    def test_high_order_one_rule(self, source_dist):
        # C(12, 6) = 924 observed sets, each its own gain dict
        u = 12
        rule = tuple((m,) for m in range(1, u + 1))
        code = SplittingACode(u=u, v=u, rules=(rule,), source_dist=source_dist)
        assert deception_probability(code, 6) == reference.deception_probability(
            code, 6
        )
        assert analyze(code, 6) == reference.analyze(code, 6)

    def test_reference_shapes(self):
        for c, n in ((2, 1), (2, 2), (1, 3), (3, 1)):
            code = SplittingACode(
                u=2, v=2 * c * c * n + 1, rules=develop_cyclic(family_u2(c, n)).blocks
            )
            for i_max in (0, 1, 2):
                assert analyze(code, i_max) == reference.analyze(code, i_max)


BASE_DESIGNS = tuple(
    develop_cyclic(family_u2(c, n)) for c, n in ((2, 1), (2, 2), (1, 3), (3, 1))
)


@st.composite
def damaged_designs(draw) -> SplittingDesign:
    """A reference design with one block dropped, duplicated or with one
    point moved to another point outside that block."""
    design = draw(st.sampled_from(BASE_DESIGNS))
    blocks = list(design.blocks)
    k = draw(st.integers(0, len(blocks) - 1))
    action = draw(st.sampled_from(("drop", "duplicate", "mutate")))
    if action == "drop":
        del blocks[k]
    elif action == "duplicate":
        blocks.insert(draw(st.integers(0, len(blocks))), blocks[k])
    else:
        block = blocks[k]
        used = {x for part in block for x in part}
        part = draw(st.integers(0, len(block) - 1))
        slot = draw(st.integers(0, len(block[part]) - 1))
        point = draw(st.sampled_from(sorted(set(range(1, design.v + 1)) - used)))
        moved = list(block[part])
        moved[slot] = point
        blocks[k] = block[:part] + (tuple(moved),) + block[part + 1 :]
    return SplittingDesign(v=design.v, blocks=tuple(blocks))


@st.composite
def random_designs(draw) -> SplittingDesign:
    """A few random three-part blocks: mostly not designs at all."""
    c = draw(st.sampled_from((1, 2)))
    v = draw(st.integers(3 * c, 3 * c + 4))
    blocks = []
    for _ in range(draw(st.integers(1, 8))):
        points = draw(st.permutations(range(1, v + 1)))[: 3 * c]
        blocks.append(tuple(tuple(points[k * c : (k + 1) * c]) for k in range(3)))
    return SplittingDesign(v=v, blocks=tuple(blocks))


class TestVerifyAgainstReference:
    @given(design=damaged_designs())
    @settings(max_examples=150, deadline=None)
    def test_damaged_designs(self, design):
        for t in (1, 2):
            assert verify_design(design, t) == reference.verify_design(design, t)

    @given(design=random_designs())
    @settings(max_examples=150, deadline=None)
    def test_random_designs(self, design):
        for t in (1, 2, 3):
            assert verify_design(design, t) == reference.verify_design(design, t)

    def test_undamaged_and_doubled(self):
        for design in BASE_DESIGNS:
            doubled = SplittingDesign(v=design.v, blocks=design.blocks * 2)
            for d in (design, doubled):
                for t in (1, 2):
                    assert verify_design(d, t) == reference.verify_design(d, t)

    def test_witness_after_last_covered_subset(self):
        # every covered pair counts once, and the first uncovered pair
        # comes after all of them
        design = SplittingDesign(v=5, blocks=(((1,), (2,)), ((1,), (3,))))
        result = verify_design(design, 2)
        assert result == reference.verify_design(design, 2)
        assert result.witness == ((1, 4), 0, 1)


@st.composite
def block_lists(draw) -> tuple[int, int, tuple]:
    """(v, u, blocks): up to six random blocks of u parts of c points,
    then up to three repeats of them; the list may be empty."""
    u = draw(st.integers(1, 5))
    c = draw(st.integers(1, 3))
    v = draw(st.integers(u * c, u * c + 3))
    blocks = []
    for _ in range(draw(st.integers(0, 6))):
        points = draw(st.permutations(range(1, v + 1)))[: u * c]
        blocks.append(tuple(tuple(points[k * c : (k + 1) * c]) for k in range(u)))
    if blocks:
        blocks += draw(st.lists(st.sampled_from(blocks), max_size=3))
    return v, u, tuple(blocks)


class TestCoverageAgainstReference:
    @given(drawn=block_lists())
    @settings(max_examples=150, deadline=None)
    def test_every_strength(self, drawn):
        v, u, blocks = drawn
        design = SplittingDesign(v=v, blocks=blocks)
        for t in range(1, u + 1):
            covered = (s for block in blocks for s in reference.covered_subsets(block, t))
            assert splitauth.verify._coverage(blocks, t) == Counter(covered)
            if blocks:
                assert verify_design(design, t) == reference.verify_design(design, t)


def reference_develop(family: BaseBlockFamily) -> SplittingDesign:
    orbits = [reference.orbit_of(base, family.v) for base in family.base_blocks]
    return SplittingDesign(
        v=family.v,
        blocks=tuple(b for blocks in orbits for b in blocks),
        orbit_lengths=tuple(len(blocks) for blocks in orbits),
    )


@st.composite
def families(draw) -> tuple[BaseBlockFamily, int, list[bool]]:
    """(family, p, short): one to three base blocks of one shape over
    Z_v, v = p*q, where block k is fixed by the shift by p (so its orbit
    length divides p) when short[k], and random otherwise (so its orbit
    is mostly full)."""
    p, q = draw(st.integers(2, 5)), draw(st.integers(2, 3))
    v = p * q
    c = draw(st.integers(1, p))
    r = draw(st.integers(1, p // c))  # parts whose translates by p fill a block
    u = q * r

    def fixed_by_p():
        # r*c points of distinct residues mod p, so no two translates meet
        residues = draw(st.permutations(range(p)))[: r * c]
        lifts = draw(st.lists(st.integers(0, q - 1), min_size=r * c, max_size=r * c))
        points = [x + p * k + 1 for x, k in zip(residues, lifts)]
        parts = [
            tuple((x - 1 + j * p) % v + 1 for x in points[i * c : (i + 1) * c])
            for j in range(q)
            for i in range(r)
        ]
        return tuple(draw(st.permutations(parts)))

    def scattered():
        points = draw(st.permutations(range(1, v + 1)))[: u * c]
        return tuple(tuple(points[k * c : (k + 1) * c]) for k in range(u))

    short = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    blocks = tuple(fixed_by_p() if s else scattered() for s in short)
    return BaseBlockFamily(v=v, u=u, c=c, base_blocks=blocks), p, short


class TestOrbitsAgainstReference:
    def test_short_orbit_family(self):
        # v = c*u mod u(u-1)c^2 allows short orbits: over Z_12 the shift
        # by 6 fixes {1,7}|{2,8} and swaps the parts of {1,4}|{7,10}
        base = (((1, 7), (2, 8)), ((1, 4), (7, 10)), ((1, 2), (3, 5)))
        family = BaseBlockFamily(v=12, u=2, c=2, base_blocks=base)
        assert 12 % 8 == 4
        design = develop_cyclic(family)
        assert design == reference_develop(family)
        assert design.orbit_lengths == (6, 6, 12)

    def test_family_shapes(self):
        for c, n in ((1, 1), (1, 4), (2, 1), (2, 3), (3, 2), (4, 1)):
            family = family_u2(c, n)
            assert develop_cyclic(family) == reference_develop(family)

    @given(drawn=families())
    @settings(max_examples=100, deadline=None)
    def test_random_families(self, drawn):
        family, p, short = drawn
        design, expected = develop_cyclic(family), reference_develop(family)
        assert design == expected
        assert design.orbit_lengths == expected.orbit_lengths
        for length, fixed in zip(design.orbit_lengths, short):
            assert p % length == 0 if fixed else family.v % length == 0

    @given(
        v=st.integers(2, 16),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_blocks(self, v, data):
        c = data.draw(st.integers(1, v // 2))
        u = data.draw(st.integers(1, v // c))
        points = data.draw(st.permutations(range(1, v + 1)))[: c * u]
        block = tuple(tuple(points[k * c : (k + 1) * c]) for k in range(u))
        assert orbit_of(block, v) == reference.orbit_of(block, v)


# --- developed form: the orbit path against the general path ---


def _shuffled(blocks, seed=0):
    order = list(blocks)
    random.Random(seed).shuffle(order)
    return tuple(order)


def _both_orders(v, u, blocks, source_dist=(), i_max=None):
    """verify_design at every strength and analyze at every order, on
    ``blocks`` and on a seeded shuffle of them: the two must agree.
    Returns the developed order's results."""
    mixed = _shuffled(blocks)
    results = []
    for t in range(1, u + 1):
        result = verify_design(SplittingDesign(v=v, blocks=blocks), t)
        assert verify_design(SplittingDesign(v=v, blocks=mixed), t) == result
        results.append(result)
    code = SplittingACode(u=u, v=v, rules=blocks, source_dist=source_dist)
    shuffled = SplittingACode(u=u, v=v, rules=mixed, source_dist=source_dist)
    for i in range(u + 1 if i_max is None else i_max + 1):
        report = outcome(analyze, code, i)
        assert outcome(analyze, shuffled, i) == report
        results.append(report)
    return code, results


@st.composite
def cyclic_families(draw) -> BaseBlockFamily:
    """Base blocks over Z_v, v = p*q, u = 2..3, c = q: each scattered (a
    full orbit, mostly), made of cosets of the subgroup of order q (every
    part fixed by the shift by p, so a short orbit for codes too), or a
    copy of an earlier base block."""
    p, q = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    v, u = p * q, draw(st.integers(2, min(3, p)))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("scattered", "cosets", "copy")))
        if kind == "copy" and blocks:
            blocks.append(draw(st.sampled_from(blocks)))
        elif kind == "cosets":
            residues = draw(st.permutations(range(1, p + 1)))[:u]
            blocks.append(tuple(tuple(x + k * p for k in range(q)) for x in residues))
        else:
            points = draw(st.permutations(range(1, v + 1)))[: u * q]
            blocks.append(tuple(tuple(points[k * q : (k + 1) * q]) for k in range(u)))
    return BaseBlockFamily(v=v, u=u, c=q, base_blocks=tuple(blocks))


# (25, 3, 2): lambda = 1 at t = 2, order 2 far above its floor
_THREE_SOURCES = BaseBlockFamily(v=25, u=3, c=2, base_blocks=(((1, 16), (19, 5), (11, 17)),))


class TestDevelopedForm:
    """Rules in developed order take the orbit path, a shuffle of them
    takes the general one, and both give the same results."""

    @pytest.mark.parametrize(
        "c,n", [(2, 1), (2, 2), (2, 4), (2, 8), (2, 16), (2, 32), (3, 4), (4, 2)]
    )
    def test_ladder(self, c, n):
        design = develop_cyclic(family_u2(c, n))
        v, blocks = design.v, design.blocks
        assert splitauth.construct.developed_runs(blocks, v) == [
            (k * v, v) for k in range(n)
        ]
        assert splitauth.construct.developed_runs(_shuffled(blocks), v) is None
        code, results = _both_orders(v, 2, blocks)
        assert splitauth.security._columns(code).through_1
        assert results[1].ok and results[1].params.lam == 1
        report = results[-2]  # i_max = 1
        assert report.deception == {0: Fraction(2 * c, v), 1: Fraction(1, 2 * c * n)}
        assert (report.level, report.optimal, report.secrecy_ok) == (1, True, True)

    @given(family=cyclic_families(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_families(self, family, data):
        design = develop_cyclic(family)
        # Short orbits whose closing shift moves cells between sources
        # leave the list out of developed form; only the rest are counted.
        assume(splitauth.construct.developed_runs(design.blocks, family.v) is not None)
        source_dist = data.draw(_weights_or_uniform(family.u))
        code, results = _both_orders(family.v, family.u, design.blocks, source_dist)
        assert splitauth.security._columns(code).through_1
        u = family.u
        for t in range(1, u + 1):
            assert results[t - 1] == reference.verify_design(design, t)
        for i in range(u + 1):
            assert results[u + i] == outcome(reference.analyze, code, i)
        table = perfect_secrecy_check(code)
        assert repr(table) == repr(reference.perfect_secrecy_check(code))

    @given(drawn=families().filter(lambda drawn: drawn[0].u <= 4))
    @settings(max_examples=40, deadline=None)
    def test_families_with_parts_swapped_by_the_shift(self, drawn):
        # the shift by p maps a short orbit's block to itself as a
        # design but moves its parts between sources
        family = drawn[0]
        design = develop_cyclic(family)
        _, results = _both_orders(family.v, family.u, design.blocks)
        for t in range(1, family.u + 1):
            assert results[t - 1] == reference.verify_design(design, t)

    def test_three_sources(self):
        # (25, 3, 2): lambda = 1 at t = 2, order 2 far above its floor
        family = BaseBlockFamily(
            v=25, u=3, c=2, base_blocks=(((1, 16), (19, 5), (11, 17)),)
        )
        design = develop_cyclic(family)
        code, results = _both_orders(25, 3, design.blocks, i_max=2)
        assert results[1].ok and not results[2].ok
        assert results[-1] == reference.analyze(code, 2)
        assert results[-1].deception == {
            0: Fraction(6, 25), 1: Fraction(1, 6), 2: Fraction(1)
        }

    def test_three_sources_cli(self, tmp_path, capsys):
        from splitauth.cli import main

        rules = develop_cyclic(
            BaseBlockFamily(v=25, u=3, c=2, base_blocks=(((1, 16), (19, 5), (11, 17)),))
        ).blocks
        runs = []
        for name, order in (("developed", rules), ("shuffled", _shuffled(rules))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"u": 3, "v": 25, "rules": order}))
            runs.append((main(["analyze", str(path), "--orders", "2"]), capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 1 and "P_d2 = 1 (floor 2/23, exceeded)" in runs[0][1].out

    def test_reference_count_zero(self):
        # only pairs at distance 2 are covered: (1, 2) never is, and the
        # witness is the first covered pair
        family = BaseBlockFamily(v=7, u=2, c=1, base_blocks=(((1,), (3,)),))
        design = develop_cyclic(family)
        code, results = _both_orders(7, 2, design.blocks)
        assert results[1].witness == ((1, 3), 1, 0)
        assert results[1] == reference.verify_design(design, 2)
        assert results[2:] == [reference.analyze(code, i) for i in range(3)]


def _damaged(block, kind, v):
    """``block`` with one point or part changed: its first point moved
    outside 1..v or onto the block's last point, its first part one point
    shorter, or its last part repeated as an extra part."""
    first, *rest = block
    if kind == "outside":
        return ((v + 1, *first[1:]), *rest)
    if kind == "repeated":
        return ((rest[-1][-1], *first[1:]), *rest)
    if kind == "shrunk":
        return (first[:-1], *rest)
    return (*block, block[-1])


class TestShapeByRunFirstBlocks:
    """A list in developed form is shape-checked by the first block of
    each run; every verdict, defect text and witness is the one the whole
    per-point loop (``reference.verify_design``) gives."""

    @staticmethod
    def check(v, blocks):
        """The results at t = 1..3, the one at t = 1 returned."""
        results = [
            outcome(verify_design, SplittingDesign(v=v, blocks=blocks), t) for t in range(1, 4)
        ]
        assert results == [
            outcome(reference.verify_design, SplittingDesign(v=v, blocks=blocks), t)
            for t in range(1, 4)
        ]
        defects = splitauth.construct._shape_defects(blocks, v)[0]
        assert results[0].defects == (tuple(defects) if blocks else ("design has no blocks",))
        return results[0]

    @given(
        family=cyclic_families(),
        kind=st.sampled_from(("outside", "repeated", "shrunk", "extra part")),
        at_first=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_damaged_block(self, family, kind, at_first, data):
        v, blocks = family.v, develop_cyclic(family).blocks
        # a list that closes only as a design is damaged as one run
        runs = splitauth.construct.developed_runs(blocks, v) or [(0, len(blocks))]
        later = [a + j for a, n in runs for j in range(1, n)]
        k = data.draw(st.sampled_from([a for a, _ in runs] if at_first or not later else later))
        damaged = blocks[:k] + (_damaged(blocks[k], kind, v),) + blocks[k + 1 :]
        assert not self.check(v, damaged).ok

    @given(
        family=cyclic_families(),
        kind=st.sampled_from(("repeated", "shrunk", "extra part")),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_damaged_base_block(self, family, kind, data):
        # every translate carries the damage, so the list stays in
        # developed form and the run-first blocks find the defect
        assume(kind != "shrunk" or family.c > 1)  # an empty part has no translates
        bases = list(family.base_blocks)
        h = data.draw(st.integers(0, len(bases) - 1))
        bases[h] = _damaged(bases[h], kind, family.v)
        blocks = tuple(chain.from_iterable(orbit_of(base, family.v) for base in bases))
        assert not self.check(family.v, blocks).ok
        # About a third of these lists close only as designs: a shift
        # fixes a block of few points by permuting its parts.  They are
        # checked above, but only developed ones count toward the examples.
        assume(splitauth.construct.developed_runs(blocks, family.v) is not None)

    @pytest.mark.parametrize(
        "blocks,v,runs",
        [
            ((), 5, []),
            (((),), 5, None),
            ((((), (1,)),), 5, None),
            ((((1,), ()), ((2,), ())), 2, None),
            ((((1, 2), (3,)), ((2, 3), (4,))), 5, None),
            ((((1,), (2,)), ((2,), (3,), (4,))), 5, None),
            ((((1,), (2,)), ((2,),)), 5, None),
            ((((1,),),), 1, [(0, 1)]),
            ((((1,), (1,)),), 1, [(0, 1)]),
            ((((1,), (2,)),), 1, None),
            ((((1, 1), (3,)), ((2, 2), (4,)), ((3, 3), (1,)), ((4, 4), (2,))), 4, [(0, 4)]),
        ],
        ids=[
            "empty list", "empty block", "empty part", "empty parts", "ragged parts",
            "ragged blocks", "short block", "v=1", "v=1 repeated", "v=1 outside",
            "repeats in every translate",
        ],
    )
    def test_developed_runs_of_malformed_lists(self, blocks, v, runs):
        assert splitauth.construct.developed_runs(blocks, v) == runs
        self.check(v, blocks)


def _table1_code(**fields) -> SplittingACode:
    return SplittingACode(u=2, v=9, rules=develop_cyclic(family_u2(2, 1)).blocks, **fields)


class TestNearMisses:
    """Lists one step away from developed form take the general path
    and still match the reference."""

    @staticmethod
    def check(code):
        assert not splitauth.security._columns(code).through_1
        for i in range(code.u + 1):
            assert outcome(analyze, code, i) == outcome(reference.analyze, code, i)
        design = SplittingDesign(v=code.v, blocks=code.rules)
        for t in range(1, code.u + 1):
            assert verify_design(design, t) == reference.verify_design(design, t)

    def test_closing_translate_swaps_sources(self):
        # over Z_4 the shift by 2 maps {1}|{3} to {3}|{1}: the same
        # block, so one orbit of the design, but not the same cells, so
        # not a run
        design = develop_cyclic(BaseBlockFamily(v=4, u=2, c=1, base_blocks=(((1,), (3,)),)))
        assert design.blocks == (((1,), (3,)), ((2,), (4,)))
        assert splitauth.construct.developed_runs(design.blocks, 4) is None
        self.check(SplittingACode(u=2, v=4, rules=design.blocks))

    def test_rule_dropped(self):
        rules = develop_cyclic(family_u2(2, 2)).blocks
        self.check(SplittingACode(u=2, v=17, rules=rules[:5] + rules[6:]))

    def test_key_weight_changed_inside_a_run(self):
        keys = (Fraction(1, 6), Fraction(1, 18)) + (Fraction(1, 9),) * 7
        self.check(_table1_code(key_dist=keys))

    def test_one_key_weight_per_run(self):
        # two runs, each with its own key weight: fixed by the shift, but
        # only codes with equal key weights take the orbit path
        rules = develop_cyclic(family_u2(2, 2)).blocks
        keys = (Fraction(1, 51),) * 17 + (Fraction(2, 51),) * 17
        assert splitauth.construct.developed_runs(rules, 17) == [(0, 17), (17, 17)]
        self.check(SplittingACode(u=2, v=17, rules=rules, key_dist=keys))

    def test_points_out_of_position(self):
        rules = list(develop_cyclic(family_u2(2, 1)).blocks)
        rules[3] = (rules[3][0][::-1], rules[3][1])
        code = SplittingACode(u=2, v=9, rules=tuple(rules))
        assert splitauth.construct.developed_runs(code.rules, 9) is None
        self.check(code)

    def test_weighted_cell_that_wraps(self):
        half = (Fraction(1, 2),) * 2
        rules = develop_cyclic(family_u2(2, 1)).blocks
        assert rules[8] == ((9, 1), (2, 4))
        split = ((half, half),) * 8 + (((Fraction(1, 3), Fraction(2, 3)), half),)
        self.check(_table1_code(split_dist=split))


class TestOrbitPathCost:
    def test_developed_codes_never_build_full_columns(self, monkeypatch):
        sizes = []
        columns = splitauth.security._Columns

        def recording(*fields):
            sizes.append(len(fields[4][0][0]))  # rules in the message columns
            return columns(*fields)

        monkeypatch.setattr(splitauth.security, "_Columns", recording)
        for c, n in ((2, 2), (2, 8), (3, 4)):
            code = code_from_design(develop_cyclic(family_u2(c, n)))
            analyze(code, 1)
            deception_probability(code, 1)
            perfect_secrecy_check(code)
            assert sizes == [2 * c * n] * 3  # u·c rules through 1 per orbit
            sizes.clear()

    @pytest.mark.parametrize("relabeled", [False, True])
    def test_one_search_per_code(self, relabeled, monkeypatch):
        calls = []
        search = splitauth.construct.developed_runs
        monkeypatch.setattr(
            splitauth.construct, "developed_runs", lambda *a: calls.append(a) or search(*a)
        )
        rules = develop_cyclic(family_u2(2, 4)).blocks
        if relabeled:
            image = [0] + random.Random(1).sample(range(1, 34), 33)
            rules = tuple(tuple(tuple(image[x] for x in p) for p in r) for r in rules)
        code = SplittingACode(u=2, v=33, rules=rules)
        analyze(code, 1)
        deception_probability(code, 0)
        deception_probability(code, 1)
        perfect_secrecy_check(code)
        assert splitauth.security._columns(code).through_1 is not relabeled
        assert len(calls) == 1

    @pytest.mark.parametrize("damage", ["relabeled", "shuffled", "dropped"])
    def test_other_lists_leave_before_any_point_pass(self, damage, monkeypatch):
        design = develop_cyclic(family_u2(2, 32))
        v, blocks = design.v, design.blocks
        if damage == "relabeled":
            image = [0] + random.Random(1).sample(range(1, v + 1), v)
            blocks = tuple(tuple(tuple(image[x] for x in p) for p in b) for b in blocks)
        elif damage == "shuffled":
            blocks = _shuffled(blocks)
        else:
            blocks = blocks[:100] + blocks[101:]
        passes, translated = [], []
        translates = splitauth.construct._translates
        translate = splitauth.construct.translate_block
        monkeypatch.setattr(
            splitauth.construct, "_translates", lambda *a: passes.append(a) or translates(*a)
        )
        monkeypatch.setattr(
            splitauth.construct,
            "translate_block",
            lambda *a: translated.append(a) or translate(*a),
        )
        assert splitauth.construct.developed_runs(blocks, v) is None
        assert passes == []
        # v = 257 is prime: the shifts 1 and v, then the run's last block
        assert len(translated) <= 3

    @pytest.mark.parametrize(
        "family,i,expected",
        [
            (family_u2(2, 4), 1, Fraction(1, 16)),
            (family_u2(2, 32), 1, Fraction(1, 128)),
            (_THREE_SOURCES, 1, Fraction(1, 6)),
            (_THREE_SOURCES, 2, Fraction(1)),
        ],
        ids=["c2n4", "c2n32", "(25,3,2) order 1", "(25,3,2) order 2"],
    )
    def test_deception_keeps_only_sets_through_1(self, family, i, expected, monkeypatch):
        kept = []

        class Recording(defaultdict):
            def __init__(self, *args):
                super().__init__(*args)
                kept.append(self)

        monkeypatch.setattr(splitauth.security, "defaultdict", Recording)
        # every run twice: still developed, but of index 2, so walked
        rules = develop_cyclic(family).blocks * 2
        code = SplittingACode(u=family.u, v=family.v, rules=rules)
        assert splitauth.security._columns(code).through_1
        assert deception_probability(code, i) == expected
        (success,) = kept
        assert success and all((seen if i == 1 else seen[0]) == 1 for seen in success)


class TestSharedPosteriors:
    """One Fraction per distinct (p(s, m), p(m)) pair, every posterior
    still compared with its own source's prior."""

    def test_shared_pair_with_different_priors_fails(self):
        # every p(m) is 1/5; at message 2 sources 1 and 2 both have
        # posterior 2/5, whose prior is 2/5 for source 1 but 3/10 for 2.
        # Every other posterior of 2/5 or 1/10 belongs to a source of that
        # prior, so comparing each shared Fraction with the prior of one
        # source that has it would pass this code.
        rules = (
            ((1,), (2,), (3,), (4,)), ((2,), (1,), (5,), (3,)),
            ((3,), (4,), (1,), (5,)), ((5,), (3,), (4,), (2,)),
            ((4,), (5,), (2,), (1,)), ((4,), (5,), (3,), (2,)),
            ((5,), (2,), (4,), (1,)), ((4,), (5,), (3,), (1,)),
        )
        weights = (6, 6, 6, 4, 3, 2, 2, 1)
        code = SplittingACode(
            u=4,
            v=5,
            rules=rules,
            key_dist=tuple(Fraction(w, 30) for w in weights),
            source_dist=(Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)),
        )
        table = perfect_secrecy_check(code)
        assert table.entries[1, 2] is table.entries[2, 2] == Fraction(2, 5)
        assert table.priors[1] != table.priors[2]
        assert table.unreachable == ()
        assert not table.ok
        assert table == reference.perfect_secrecy_check(code)
        first = {}
        for (s, _), p in table.entries.items():
            first.setdefault(id(p), p == table.priors[s])
        assert all(first.values())

    @pytest.mark.parametrize(
        "source_dist",
        [(), (Fraction(1, 3), Fraction(2, 3))],
        ids=["uniform", "weighted"],
    )
    @pytest.mark.parametrize("c,n", [(2, 1), (2, 8), (3, 4)])
    def test_developed_codes_build_u_posteriors(self, c, n, source_dist):
        design = develop_cyclic(family_u2(c, n))
        code = code_from_design(design, source_dist=source_dist)
        table = perfect_secrecy_check(code)
        assert len({id(p) for p in table.entries.values()}) <= code.u
        assert len({id(p) for p in table.message_marginals.values()}) == 1
        assert table.ok
        assert table == reference.perfect_secrecy_check(code)

    @given(code=st.one_of(small_codes(), uniform_codes()))
    @settings(max_examples=150, deadline=None)
    def test_tables_print_as_the_reference(self, code):
        # the same entries in the same order: by message, then source
        table = perfect_secrecy_check(code)
        assert repr(table) == repr(reference.perfect_secrecy_check(code))


# --- index 1: the heaviest transcript per message, and 1 past order 1 ---

# Index-1 designs small enough for the reference: family_u2 rungs of
# u = 2 and c = 1..3, and the u = 3 and u = 4 fixtures
_INDEX_1 = (
    family_u2(2, 1),
    family_u2(2, 2),
    family_u2(1, 3),
    family_u2(3, 1),
    BaseBlockFamily(v=7, u=3, c=1, base_blocks=(((1,), (2,), (4,)),)),
    BaseBlockFamily(v=13, u=4, c=1, base_blocks=(((1,), (2,), (4,), (10,)),)),
    _THREE_SOURCES,
)


def _relabel(rules, v: int, seed: int):
    image = [0] + random.Random(seed).sample(range(1, v + 1), v)
    return tuple(tuple(tuple(image[x] for x in part) for part in rule) for rule in rules)


def _twice(items) -> tuple:
    """Each item twice in a row."""
    return tuple(chain.from_iterable(zip(items, items)))


@st.composite
def index_1_codes(draw) -> SplittingACode:
    """Developments of the index-1 fixtures, with points relabeled or
    not, with uniform or drawn key, source and split weights (zeros
    allowed), made by ``code_from_design`` or by the constructor."""
    family = draw(st.sampled_from(_INDEX_1))
    rules = develop_cyclic(family).blocks
    if draw(st.booleans()):
        rules = _relabel(rules, family.v, draw(st.integers(0, 2**32)))
    u, c = family.u, family.c
    dists = {
        "key_dist": draw(_weights_or_uniform(len(rules))),
        "source_dist": draw(_weights_or_uniform(u)),
    }
    if draw(st.booleans()):
        dists["split_dist"] = tuple(
            tuple(draw(_weights(c)) for _ in range(u)) for _ in rules
        )
    if draw(st.booleans()):
        return code_from_design(SplittingDesign(v=family.v, blocks=rules), **dists)
    return SplittingACode(u=u, v=family.v, rules=rules, **dists)


def _recorded_gain_walks(monkeypatch) -> list:
    """The gain dicts of :func:`splitauth.security._walk` made from now on,
    one per walk."""
    kept = []

    class Recording(defaultdict):
        def __init__(self, *args):
            super().__init__(*args)
            kept.append(self)

    monkeypatch.setattr(splitauth.security, "defaultdict", Recording)
    return kept


class TestIndexOne:
    """Codes whose rules form a 2-splitting design of index 1 skip the
    gain walk at orders >= 1, and still equal the reference."""

    @given(code=index_1_codes())
    @settings(max_examples=120, deadline=None)
    def test_every_order(self, code):
        assert verify_design(code.design, 2).params.lam == 1
        for i in range(code.u + 1):
            assert outcome(deception_probability, code, i) == outcome(
                reference.deception_probability, code, i
            )
        i_max = code.u - 1
        assert outcome(analyze, code, i_max) == outcome(reference.analyze, code, i_max)

    @pytest.mark.parametrize(
        "source_dist",
        [(), (Fraction(0), Fraction(1, 3), Fraction(2, 3))],
        ids=["uniform", "one-silent-source"],
    )
    def test_three_sources_with_zero_weights(self, source_dist):
        rules = _relabel(develop_cyclic(_THREE_SOURCES).blocks, 25, 3)
        rng = random.Random(3)
        keys = [rng.randint(0, 3) for _ in rules]
        keys[0] = 0  # a rule never used
        total = sum(keys)
        code = SplittingACode(
            u=3,
            v=25,
            rules=rules,
            key_dist=tuple(Fraction(k, total) for k in keys),
            source_dist=source_dist,
            split_dist=tuple(
                tuple((Fraction(k, 3), Fraction(3 - k, 3)) for k in (0, 1, 2)) for _ in rules
            ),
        )
        for i in range(4):
            assert outcome(deception_probability, code, i) == outcome(
                reference.deception_probability, code, i
            )
        assert analyze(code, 2) == reference.analyze(code, 2)
        assert analyze(code, 2).deception[2] == 1

    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
    @pytest.mark.parametrize("miss", ["doubled", "dropped", "added"])
    @pytest.mark.parametrize(
        "family", [family_u2(2, 2), _INDEX_1[4], _THREE_SOURCES], ids=["c2n2", "731", "2532"]
    )
    def test_near_misses_take_the_walk(self, family, miss, weighted, monkeypatch):
        rules = develop_cyclic(family).blocks
        if miss == "doubled":  # every rule twice: λ = 2
            rules = rules * 2
        elif miss == "dropped":
            rules = rules[:3] + rules[4:]
        else:  # the first rule again with its cells in reverse source order
            rules = rules + (rules[0][::-1],)
        dists = {}
        if weighted:
            rng = random.Random(len(rules))
            dists = {
                "key_dist": _normalize([rng.randint(0, 4) or 1 for _ in rules]),
                "source_dist": _normalize([rng.randint(0, 4) or 1 for _ in range(family.u)]),
                "split_dist": tuple(
                    tuple(_normalize([rng.randint(1, 4) for _ in range(family.c)])
                          for _ in range(family.u))
                    for _ in rules
                ),
            }
        code = SplittingACode(u=family.u, v=family.v, rules=rules, **dists)
        params = verify_design(code.design, 2).params
        assert params is None or params.lam != 1
        kept = _recorded_gain_walks(monkeypatch)
        for i in range(family.u):
            assert deception_probability(code, i) == reference.deception_probability(code, i)
        assert len(kept) == family.u  # one walk per order
        assert analyze(code, family.u - 1) == reference.analyze(code, family.u - 1)

    def test_orders_past_one_are_one(self):
        # (13, 4, 1): orders 2 and 3 are far above their floors 2/11, 1/10
        code = code_from_design(develop_cyclic(_INDEX_1[5]))
        report = analyze(code, 3)
        assert report.deception == {
            0: Fraction(4, 13), 1: Fraction(1, 4), 2: Fraction(1), 3: Fraction(1)
        }
        assert report == reference.analyze(code, 3)


class TestDuplicateAndHalve:
    """A code and its twin with every rule duplicated at half the key
    weight have the same deception; on an index-1 code the twin has
    λ = 2, so the twin is walked and the code is not."""

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=2, deadline=None)
    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_ladder(self, n, weighted, seed):
        design = develop_cyclic(family_u2(2, n))
        rng = random.Random(seed)
        rules, dists = design.blocks, {}
        if weighted:
            rules = _relabel(rules, design.v, seed)
            dists = {
                "key_dist": _normalize([rng.randint(0, 9) for _ in rules[:-1]] + [1]),
                "source_dist": _normalize([rng.randint(0, 3), 1]),
                "split_dist": tuple(
                    tuple(_normalize([rng.randint(1, 9), rng.randint(1, 9)]) for _ in rule)
                    for rule in rules
                ),
            }
        code = code_from_design(SplittingDesign(v=design.v, blocks=rules), **dists)
        # every rule twice in a row, each copy at half its key weight and
        # with its rule's split weights
        twin = SplittingACode(
            u=2,
            v=design.v,
            rules=_twice(rules),
            key_dist=_twice([k / 2 for k in code.key_dist]),
            source_dist=code.source_dist,
            split_dist=code.split_dist and _twice(code.split_dist),
        )
        assert verify_design(code.design, 2).params.lam == 1
        assert verify_design(twin.design, 2).params.lam == 2
        for i in (0, 1):
            assert deception_probability(twin, i) == deception_probability(code, i)


class TestIndexOneCost:
    def test_order_1_builds_no_gain_dict(self, covered, monkeypatch):
        kept = _recorded_gain_walks(monkeypatch)
        for family in (family_u2(2, 4), _THREE_SOURCES):
            rules = _relabel(develop_cyclic(family).blocks, family.v, 1)
            code = SplittingACode(u=family.u, v=family.v, rules=rules)
            for i in range(1, family.u):
                deception_probability(code, i)
            analyze(code, family.u - 1)
            perfect_secrecy_check(code)
            assert len(kept) == 1  # order 0 of analyze
            kept.clear()
        # the pairs counted once per code, over all its rules
        assert covered == [(len(develop_cyclic(family_u2(2, 4)).blocks), 2), (25, 2)]

    def test_code_from_design_hands_over_its_counts(self, covered, monkeypatch):
        searched = []
        search = splitauth.construct.developed_runs
        monkeypatch.setattr(
            splitauth.construct,
            "developed_runs",
            lambda *a: searched.append(len(a[0])) or search(*a),
        )
        code = code_from_design(develop_cyclic(family_u2(2, 32)))
        analyze(code, 1)
        assert searched == [8224]  # one search, for the design and the code
        assert covered == [(128, 2)]  # the 128 of 8,224 blocks through point 1
        plain = SplittingACode(u=2, v=257, rules=code.rules)
        assert plain == code and repr(plain) == repr(code) and hash(plain) == hash(code)
