from __future__ import annotations

import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from splitauth import (
    BaseBlockFamily,
    DesignParams,
    SplittingDesign,
    develop_cyclic,
    family_u2,
    verify_design,
)
from conftest import TABLE1_RULES, TABLE2_RULES



def count_covering_blocks(design: SplittingDesign, points: tuple[int, ...]) -> int:
    """How many blocks cover the point subset, with multiplicity."""
    target = tuple(sorted(points))
    covered = (reference.covered_subsets(block, len(target)) for block in design.blocks)
    return sum(target in subsets for subsets in covered)


def structure_defects(v: int, blocks) -> tuple[str, ...]:
    return verify_design(SplittingDesign(v=v, blocks=blocks), 1).defects


class TestCheckStructure:
    def test_reference_designs_clean(self, table1_design, table2_design):
        assert verify_design(table1_design, 2).defects == ()
        assert verify_design(table2_design, 2).defects == ()

    def test_overlapping_parts(self):
        assert structure_defects(9, (((1, 2), (2, 5)),)) == ("block 1 repeats point 2",)

    def test_ragged_part(self):
        assert structure_defects(9, (((1, 2), (3, 5)), ((1,), (3, 5)))) == (
            "block 2 has a part of size 1, expected 2",
        )

    def test_point_out_of_range(self):
        assert structure_defects(9, (((1, 2), (3, 10)),)) == (
            "block 1 uses point 10 outside 1..9",
        )

    def test_part_count_mismatch(self):
        assert structure_defects(9, (((1, 2), (3, 5)), ((1, 2),))) == (
            "block 2 has 1 parts, expected 2",
        )

    def test_empty_design(self):
        assert structure_defects(9, ()) == ("design has no blocks",)

    @pytest.mark.parametrize(
        "blocks, defect",
        [(((),), "block 1 is degenerate: ()"), ((((), ()),), "block 1 is degenerate: ((), ())")],
    )
    def test_degenerate_first_block(self, blocks, defect):
        assert structure_defects(9, blocks) == (defect,)


class TestCoveredSubsets:
    """The per-block subset list that the coverage oracle counts."""

    def test_cross_part_pairs_only(self):
        block = ((1, 2), (3, 5))
        assert sorted(reference.covered_subsets(block, 2)) == [
            (1, 3),
            (1, 5),
            (2, 3),
            (2, 5),
        ]

    def test_single_point_subsets(self):
        assert sorted(reference.covered_subsets(((1, 2), (3, 5)), 1)) == [
            (1,),
            (2,),
            (3,),
            (5,),
        ]


class TestCountCoveringBlocks:
    def test_pair_in_one_part_not_covered_there(self, table1_design):
        # 1 and 3 share a part in the rule {8,9}|{1,3}, which does not count
        assert count_covering_blocks(table1_design, (1, 3)) == 1

    def test_pair_inside_first_block(self, table1_design):
        assert count_covering_blocks(table1_design, (1, 2)) == 1

    def test_every_pair_once(self, table1_design):
        v = table1_design.v
        from itertools import combinations

        assert all(
            count_covering_blocks(table1_design, pair) == 1
            for pair in combinations(range(1, v + 1), 2)
        )

    def test_multiplicity_counts(self):
        block = ((1, 2), (3, 5))
        design = SplittingDesign(v=9, blocks=(block, block))
        assert count_covering_blocks(design, (1, 3)) == 2


class TestVerifyDesign:
    def test_table1_parameters(self, table1_design):
        result = verify_design(table1_design, 2)
        assert result.ok
        assert result.params == DesignParams(t=2, v=9, b=9, c=2, u=2, lam=1)

    def test_table2_parameters(self, table2_design):
        result = verify_design(table2_design, 2)
        assert result.ok
        assert result.params == DesignParams(t=2, v=17, b=34, c=2, u=2, lam=1)

    def test_mutated_row_fails_with_witness(self):
        blocks = TABLE1_RULES[:4] + (((5, 6), (7, 8)),) + TABLE1_RULES[5:]
        result = verify_design(SplittingDesign(v=9, blocks=blocks), 2)
        assert not result.ok
        assert result.witness is not None
        subset, actual, reference = result.witness
        assert actual != reference

    def test_structural_defect_reported(self):
        result = verify_design(SplittingDesign(v=9, blocks=(((1, 2), (2, 5)),)), 2)
        assert not result.ok
        assert result.params is None
        assert result.witness is None

    def test_strength_above_parts_rejected(self, table1_design):
        assert verify_design(table1_design, 2).ok
        for _ in range(2):
            with pytest.raises(ValueError):
                verify_design(table1_design, 3)

    def test_nonpositive_strength_rejected(self, table1_design):
        assert verify_design(table1_design, 2).ok
        for _ in range(2):
            with pytest.raises(ValueError):
                verify_design(table1_design, 0)

    def test_empty_design_fails(self):
        result = verify_design(SplittingDesign(v=9, blocks=()), 2)
        assert not result.ok

    def test_zero_coverage_fails(self):
        design = SplittingDesign(v=6, blocks=(((1,), (2,)),))
        result = verify_design(design, 2)
        assert not result.ok

    def test_duplicated_design_doubles_index(self, table1_design):
        doubled = SplittingDesign(
            v=9, blocks=table1_design.blocks + table1_design.blocks
        )
        result = verify_design(doubled, 2)
        assert result.ok
        assert result.params is not None and result.params.lam == 2

    def test_verified_parameters_are_admissible(self, table1_design, table2_design):
        for design in (table1_design, table2_design):
            result = verify_design(design, 2)
            params = result.params
            assert params is not None
            levels = [reference.lambda_level(params, s) for s in (1, 2)]
            assert all(level.denominator == 1 for level in levels)
            assert params.b * params.u >= params.v

    def test_coverage_sum_identity(self, table2_design):
        # sum of all pair coverages = b * c^2 * C(u, 2)
        from itertools import combinations

        params = verify_design(table2_design, 2).params
        assert params is not None
        total = sum(
            count_covering_blocks(table2_design, pair)
            for pair in combinations(range(1, 18), 2)
        )
        assert total == params.b * params.c**2 * math.comb(params.u, 2)


class TestVerifiedOnce:
    """A design remembers its result per strength; nothing else does."""

    def test_equal_design_counts_again(self, covered):
        design = develop_cyclic(family_u2(2, 1))
        first = verify_design(design, 2)
        assert verify_design(design, 2) is first
        assert verify_design(SplittingDesign(v=9, blocks=design.blocks), 2) == first
        assert covered == [(4, 2), (4, 2)]  # the 4 of 9 blocks through point 1

    def test_downgrade_counts_only_lower_strengths(self, covered):
        design = develop_cyclic(family_u2(2, 1))
        assert verify_design(design, 2).ok
        assert verify_design(design, 1).ok
        assert covered == [(4, 2), (4, 1)]

    def test_shape_defects_returned_again(self, checked):
        design = SplittingDesign(v=9, blocks=(((1, 2), (2, 5)),))
        first = verify_design(design, 2)
        assert first.defects == ("block 1 repeats point 2",)
        assert verify_design(design, 2) == first
        assert verify_design(design, 1) == first
        assert checked == [1]

    def test_shape_checked_once_for_every_strength(self, checked, covered):
        # {1}|{2}|{4} over Z_7: a 2-(7,7,3=1×3,1) design, but not a 3-design
        design = develop_cyclic(BaseBlockFamily(v=7, u=3, c=1, base_blocks=(((1,), (2,), (4,)),)))
        checked.clear()
        assert [verify_design(design, t).ok for t in (1, 2, 3)] == [True, True, False]
        assert checked == [1]  # the first block of the one run
        assert covered == [(3, 1), (3, 2), (3, 3)]  # the 3 of 7 blocks through point 1


class TestDowngradeCheck:
    """A design verified at strength t is one at every lower strength."""

    def test_replication_matches_formula(self, table2_design):
        result = verify_design(table2_design, 1)
        assert result.ok
        params2 = verify_design(table2_design, 2).params
        assert params2 is not None
        assert result.params is not None
        assert result.params.lam == reference.lambda_level(params2, 1) == 8


class TestFirstGap:
    def test_witness_memory_is_bounded_by_the_blocks(self):
        design = SplittingDesign(v=10**6, blocks=(((1,), (2,)),))
        tracemalloc.start()
        try:
            result = verify_design(design, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.witness == ((1, 3), 0, 1)
        assert peak < 2**20


def relabeled(blocks, mapping):
    return tuple(
        tuple(tuple(mapping[x] for x in part) for part in block) for block in blocks
    )


class TestOrderInsensitivity:
    @given(st.permutations(list(range(9))))
    def test_block_order_irrelevant(self, order):
        design = SplittingDesign(v=9, blocks=tuple(TABLE1_RULES[i] for i in order))
        result = verify_design(design, 2)
        assert result.ok and result.params is not None and result.params.lam == 1

    @given(st.lists(st.booleans(), min_size=9, max_size=9))
    def test_part_order_irrelevant(self, flips):
        blocks = tuple(
            (block[1], block[0]) if flip else block
            for block, flip in zip(TABLE1_RULES, flips)
        )
        result = verify_design(SplittingDesign(v=9, blocks=blocks), 2)
        assert result.ok and result.params is not None and result.params.lam == 1

    @given(st.permutations(list(range(1, 10))))
    def test_point_relabeling_irrelevant(self, image):
        mapping = dict(zip(range(1, 10), image))
        design = SplittingDesign(v=9, blocks=relabeled(TABLE1_RULES, mapping))
        result = verify_design(design, 2)
        assert result.ok and result.params is not None and result.params.lam == 1


class TestUniformityImplication:
    @given(
        e=st.integers(0, 8),
        s=st.integers(0, 1),
        k=st.integers(0, 1),
        x=st.integers(1, 9),
    )
    def test_pair_uniformity_implies_point_uniformity(self, e, s, k, x):
        # no mutation can keep λ uniform at t=2 while breaking it at t=1
        cell = list(TABLE1_RULES[e][s])
        cell[k] = x
        rule = list(TABLE1_RULES[e])
        rule[s] = tuple(cell)
        blocks = TABLE1_RULES[:e] + (tuple(rule),) + TABLE1_RULES[e + 1 :]
        design = SplittingDesign(v=9, blocks=blocks)
        result = verify_design(design, 2)
        if result.ok:
            lower = verify_design(design, 1)
            assert lower.ok and lower.params is not None
            assert lower.params.lam == reference.lambda_level(result.params, 1)
