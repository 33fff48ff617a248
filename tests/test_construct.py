from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitauth import (
    BaseBlockFamily,
    develop_cyclic,
    family_u2,
    orbit_of,
    translate_block,
)
from conftest import TABLE1_RULES, TABLE2_RULES


def block_key(block):
    return frozenset(frozenset(part) for part in block)


@st.composite
def small_blocks(draw):
    """A structurally valid two-part block over a small point range."""
    v = draw(st.integers(4, 12))
    c = draw(st.integers(1, 2))
    points = draw(
        st.lists(st.integers(1, v), min_size=2 * c, max_size=2 * c, unique=True)
    )
    return (tuple(points[:c]), tuple(points[c:])), v


class TestTranslateBlock:
    def test_shift_by_one(self):
        assert translate_block(((1, 2), (3, 5)), 1, 9) == ((2, 3), (4, 6))

    def test_wrap_around_preserves_point_order(self):
        assert translate_block(((1, 2), (11, 13)), 16, 17) == ((17, 1), (10, 12))

    def test_zero_shift_is_identity(self):
        block = ((4, 9), (1, 7))
        assert translate_block(block, 0, 9) == block

    @given(small_blocks(), st.integers(0, 40), st.integers(0, 40))
    def test_group_action(self, block_and_v, j, k):
        block, v = block_and_v
        composed = translate_block(translate_block(block, j, v), k, v)
        assert composed == translate_block(block, (j + k) % v, v)

    @given(small_blocks())
    def test_full_cycle_is_identity(self, block_and_v):
        block, v = block_and_v
        assert translate_block(block, v, v) == block


class TestOrbitOf:
    def test_reference_orbits_are_full(self):
        assert len(orbit_of(((1, 2), (3, 5)), 9)) == 9
        assert len(orbit_of(((1, 2), (11, 13)), 17)) == 17

    def test_part_swapped_translate_is_same_block(self):
        # shifting {1}|{2} by 1 mod 2 only exchanges part roles
        assert orbit_of(((1,), (2,)), 2) == (((1,), (2,)),)

    def test_short_orbit_detected(self):
        # {1,4} | {2,5} over v=6 repeats after three shifts
        assert orbit_of(((1, 4), (2, 5)), 6) == (
            ((1, 4), (2, 5)),
            ((2, 5), (3, 6)),
            ((3, 6), (4, 1)),
        )

    @given(small_blocks())
    def test_orbit_length_divides_modulus(self, block_and_v):
        block, v = block_and_v
        blocks = orbit_of(block, v)
        assert v % len(blocks) == 0
        assert len(set(map(block_key, blocks))) == len(blocks)

    @given(small_blocks())
    def test_orbit_closed_under_translation(self, block_and_v):
        block, v = block_and_v
        blocks = orbit_of(block, v)
        keys = set(map(block_key, blocks))
        for b in blocks:
            assert block_key(translate_block(b, 1, v)) in keys


class TestDevelopCyclic:
    def test_table1_rows_in_order(self, table1_design):
        assert table1_design.blocks == TABLE1_RULES
        assert table1_design.v == 9
        assert table1_design.orbit_lengths == (9,)

    def test_table2_rows_in_order(self, table2_design):
        assert table2_design.blocks == TABLE2_RULES
        assert table2_design.v == 17
        assert table2_design.orbit_lengths == (17, 17)

    def test_block_count_is_sum_of_orbit_lengths(self, table2_design):
        assert table2_design.b == sum(table2_design.orbit_lengths)

    def test_empty_family_gives_empty_design(self):
        design = develop_cyclic(BaseBlockFamily(v=5, u=2, c=1, base_blocks=()))
        assert design.b == 0 and design.blocks == ()

    def test_duplicate_base_blocks_kept_with_multiplicity(self):
        base = ((1, 2), (3, 5))
        family = BaseBlockFamily(v=9, u=2, c=2, base_blocks=(base, base))
        design = develop_cyclic(family)
        assert design.b == 18
        assert design.blocks[:9] == design.blocks[9:]

    def test_developed_design_is_cyclic(self, table2_design):
        def canon(block):
            return tuple(sorted(tuple(sorted(part)) for part in block))

        v = table2_design.v
        original = sorted(canon(b) for b in table2_design.blocks)
        shifted = sorted(
            canon(translate_block(b, 1, v)) for b in table2_design.blocks
        )
        assert original == shifted

    def test_provenance_recorded(self):
        # one orbit length per base block, in base-block order
        base = (((1, 2), (3, 5)), ((1, 4), (2, 5)))
        design = develop_cyclic(BaseBlockFamily(v=6, u=2, c=2, base_blocks=base))
        assert design.orbit_lengths == (6, 3)
        assert design.blocks[6:] == orbit_of(base[1], 6)

    def test_structurally_invalid_family_rejected(self):
        with pytest.raises(ValueError, match="^base block 1 repeats point 2$"):
            BaseBlockFamily(v=9, u=2, c=2, base_blocks=(((1, 2), (2, 5)),))

    @pytest.mark.parametrize(
        "base_blocks, defect",
        [
            ((((1, 2), (3, 5)), ((1, 2), (3,))), "base block 2 has a part of size 1, expected 2"),
            ((((1, 2), (3, 5)), ((1, 2),)), "base block 2 has 1 parts, expected 2"),
            ((((1, 2), (3, 10)),), "base block 1 uses point 10 outside 1..9"),
            ((((1, 2), (3, 4), (5, 6)), ((1, 2), (3, 5))), "base block 1 has 3 parts, expected 2"),
            ((((1,), (3,)),), "base block 1 has a part of size 1, expected 2"),
            (((),), "base block 1 is degenerate: ()"),
            ((((), ()),), "base block 1 is degenerate: ((), ())"),
        ],
    )
    def test_first_base_block_defect_raised(self, base_blocks, defect):
        with pytest.raises(ValueError) as raised:
            BaseBlockFamily(v=9, u=2, c=2, base_blocks=base_blocks)
        assert str(raised.value) == defect
        with pytest.raises(ValueError, match="outside"):
            BaseBlockFamily(v=9, u=2, c=2, base_blocks=(((1, 2), (3, 10)),))
        with pytest.raises(ValueError, match="parts"):
            BaseBlockFamily(v=9, u=2, c=2, base_blocks=(((1, 2),),))


class TestFamilyU2:
    def test_smallest(self):
        family = family_u2(2, 1)
        assert family.v == 9
        assert family.base_blocks == (((1, 2), (3, 5)),)

    def test_two_base_blocks(self):
        family = family_u2(2, 2)
        assert family.v == 17
        assert family.base_blocks == (((1, 2), (3, 5)), ((1, 2), (11, 13)))

    def test_part_size_three(self):
        family = family_u2(3, 1)
        assert family.v == 19
        assert family.base_blocks == (((1, 2, 3), (4, 7, 10)),)

    def test_part_size_one(self):
        family = family_u2(1, 1)
        assert family.v == 3
        assert family.base_blocks == (((1,), (2,)),)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            family_u2(0, 1)
        with pytest.raises(ValueError):
            family_u2(2, 0)

    @given(st.integers(1, 4), st.integers(1, 4))
    def test_shape(self, c, n):
        family = family_u2(c, n)
        assert family.v == 2 * c * c * n + 1
        assert len(family.base_blocks) == n
        for block in family.base_blocks:
            assert block[0] == tuple(range(1, c + 1))
            assert len(block[1]) == c
