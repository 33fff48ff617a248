from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitauth import (
    SplittingACode,
    SplittingDesign,
    analyze,
    code_from_design,
    develop_cyclic,
    family_u2,
    rule_defects,
    verify_design,
)
from conftest import TABLE1_RULES
from splitauth.acode import _cells_sum_to_one
from reference import decode, split_weight, valid_messages


class TestRuleDefects:
    def test_reference_rules_clean(self, table1_code):
        assert rule_defects(table1_code.rules, 9) == []

    def test_empty_rule_list(self):
        assert rule_defects((), 9) == ["code has no encoding rules"]

    def test_cell_overlap_within_rule(self):
        rules = (((1, 2), (2, 5)),)
        assert any("repeats message 2" in d for d in rule_defects(rules, 9))

    def test_mixed_cell_sizes(self):
        rules = (((1, 2), (3, 5)), ((1, 2), (3,)))
        assert any("size 1, expected 2" in d for d in rule_defects(rules, 9))

    def test_cell_count_mismatch(self):
        rules = (((1, 2), (3, 5)), ((1, 2),))
        assert any("1 cells, expected 2" in d for d in rule_defects(rules, 9))

    def test_message_out_of_range(self):
        rules = (((1, 2), (3, 12)),)
        assert any("outside 1..9" in d for d in rule_defects(rules, 9))

    def test_declared_cell_count(self, table1_code):
        assert rule_defects(table1_code.rules, 9, 2) == []
        assert rule_defects(table1_code.rules, 9, 3) == ["rules have 2 cells, expected u=3"]
        # reported only once the rules agree among themselves
        rules = (((1, 2), (3, 5)), ((1, 2), (3, 12)))
        assert rule_defects(rules, 9, 3) == ["rule 2 uses message 12 outside 1..9"]

    def test_declared_cell_count_holds_every_rule(self):
        # rules that disagree are each held to the declared u, the first too
        rules = (((1,), (2,), (3,)), ((1,), (2,)), ((3,), (4,)))
        assert rule_defects(rules, 9, 2) == ["rule 1 has 3 cells, expected 2"]
        assert rule_defects(rules, 9) == [
            "rule 2 has 2 cells, expected 3",
            "rule 3 has 2 cells, expected 3",
        ]


class TestSplittingACode:
    def test_defaults_are_uniform(self, table1_code):
        assert table1_code.key_dist == tuple(Fraction(1, 9) for _ in range(9))
        assert table1_code.source_dist == (Fraction(1, 2), Fraction(1, 2))
        assert table1_code.split_dist is None
        assert split_weight(table1_code, 1, 1, 1) == Fraction(1, 2)

    def test_cell_size_exposed(self, table1_code, table2_code):
        assert table1_code.c == 2
        assert table2_code.c == 2

    def test_bad_distribution_sum_rejected(self):
        # plain int weights are read like Fractions
        for key_dist, total in [((Fraction(1, 10),) * 9, "9/10"), ((2,) + (0,) * 8, "2")]:
            with pytest.raises(ValueError, match=f"^key_dist sums to {total}, expected 1$"):
                SplittingACode(u=2, v=9, rules=TABLE1_RULES, key_dist=key_dist)

    def test_negative_weight_rejected(self):
        dist = (Fraction(-1, 2), Fraction(3, 2))
        with pytest.raises(ValueError, match="negative"):
            SplittingACode(u=2, v=9, rules=TABLE1_RULES, source_dist=dist)

    @pytest.mark.parametrize(
        "entry", [Fraction(1, 10), Fraction(1, 8), Fraction(2, 9), Fraction(-1, 9)]
    )
    def test_one_repeated_value_checked_like_written_out(self, entry):
        # nine copies of one object are checked once; moving half of one
        # entry to another keeps the sum and the signs and defeats that
        repeated = (entry,) * 9
        written = (entry / 2, entry * 3 / 2) + (entry,) * 7

        def error(dist):
            with pytest.raises(ValueError) as caught:
                SplittingACode(u=2, v=9, rules=TABLE1_RULES, key_dist=dist)
            return str(caught.value)

        assert error(repeated) == error(written)
        assert error(repeated) in (
            f"key_dist sums to {entry * 9}, expected 1",
            "key_dist has a negative entry",
        )

    def test_structural_defect_rejected(self):
        with pytest.raises(ValueError, match="repeats message"):
            SplittingACode(u=2, v=9, rules=(((1, 2), (2, 5)),))

    def test_split_dist_shape_enforced(self):
        half = (Fraction(1, 2), Fraction(1, 2))
        good = tuple((half, half) for _ in range(9))
        code = SplittingACode(u=2, v=9, rules=TABLE1_RULES, split_dist=good)
        assert split_weight(code, 1, 2, 3) == Fraction(1, 2)
        with pytest.raises(ValueError, match="split_dist"):
            SplittingACode(u=2, v=9, rules=TABLE1_RULES, split_dist=good[:5])

    def test_split_weights_follow_ascending_cell_order(self):
        # rule 9 has cell (9, 1): ascending order is 1 then 9
        half = (Fraction(1, 2), Fraction(1, 2))
        weights = tuple(
            (half, half) if e != 8 else ((Fraction(1, 4), Fraction(3, 4)), half)
            for e in range(9)
        )
        code = SplittingACode(u=2, v=9, rules=TABLE1_RULES, split_dist=weights)
        assert split_weight(code, 9, 1, 1) == Fraction(1, 4)
        assert split_weight(code, 9, 1, 9) == Fraction(3, 4)
        assert split_weight(code, 9, 1, 2) == 0


class TestCodeFromDesign:
    def test_table1(self, table1_design, table1_code):
        assert table1_code.u == 2
        assert table1_code.v == 9
        assert table1_code.rules == table1_design.blocks
        assert table1_code.key_dist[0] == Fraction(1, 9)

    def test_table2(self, table2_code):
        assert table2_code.num_rules == 34
        assert table2_code.key_dist[0] == Fraction(1, 34)

    def test_empty_design_rejected(self):
        with pytest.raises(ValueError):
            code_from_design(SplittingDesign(v=9, blocks=()))

    def test_non_design_rejected(self):
        blocks = TABLE1_RULES[:4] + (((5, 6), (7, 8)),) + TABLE1_RULES[5:]
        with pytest.raises(ValueError, match="does not verify"):
            code_from_design(SplittingDesign(v=9, blocks=blocks))

    def test_index_above_one_rejected(self, table1_design):
        doubled = SplittingDesign(
            v=9, blocks=table1_design.blocks + table1_design.blocks
        )
        with pytest.raises(ValueError, match="index 2"):
            code_from_design(doubled)

    def test_verified_design_is_counted_once(self, covered):
        design = develop_cyclic(family_u2(2, 1))
        assert verify_design(design, 2).ok
        assert code_from_design(design).rules == design.blocks
        assert covered == [(4, 2)]  # the 4 of 9 blocks through point 1

    def test_design_is_handed_over(self, searched, covered):
        design = develop_cyclic(family_u2(2, 1))
        code = code_from_design(design)
        assert code.design is design
        analyze(code, 1)  # reads the runs and the pair verdict found on the design
        assert searched == [9]
        assert covered == [(4, 2)]

    def test_design_made_on_first_use(self, checked):
        code = SplittingACode(u=2, v=9, rules=TABLE1_RULES)
        assert code.design is code.design
        assert code.design == SplittingDesign(v=9, blocks=TABLE1_RULES)
        assert verify_design(code.design, 2).params.lam == 1
        assert checked == [9]  # the constructor's check: the design walks no shape

    def test_round_trip_preserves_blocks(self, table2_design, table2_code):
        assert SplittingDesign(v=17, blocks=table2_code.rules).blocks == (
            table2_design.blocks
        )


class TestEncodeDecode:
    """The receiver's view of a rule, as the message-first oracles read it."""

    def test_decode(self, table1_code):
        assert decode(table1_code, 1, 5) == 2
        assert decode(table1_code, 1, 1) == 1
        assert decode(table1_code, 1, 7) is None


class TestValidMessages:
    def test_first_rule(self, table1_code):
        assert valid_messages(table1_code, 1) == frozenset({1, 2, 3, 5})

    def test_second_orbit_rule(self, table2_code):
        assert valid_messages(table2_code, 18) == frozenset({1, 2, 11, 13})

    def test_sizes(self, table2_code):
        for e in range(1, 35):
            assert len(valid_messages(table2_code, e)) == 4

    def test_uniform_message_coverage(self, table1_code, table2_code):
        # every message appears in exactly the replication number of rules
        for code, expected in ((table1_code, 4), (table2_code, 8)):
            for m in range(1, code.v + 1):
                containing = sum(
                    m in valid_messages(code, e)
                    for e in range(1, code.num_rules + 1)
                )
                assert containing == expected


class TestSplitDistCheck:
    """The one-pass check of split_dist against the cell-by-cell one."""

    @given(
        c=st.integers(1, 4),
        rules=st.lists(
            st.lists(st.fractions(-1, 2, max_denominator=12), min_size=8, max_size=8),
            min_size=1,
            max_size=3,
        ),
        closed=st.booleans(),
    )
    def test_agrees_with_each_cell_summed(self, c, rules, closed):
        cells = [tuple(rule[k : k + c]) for rule in rules for k in (0, 4)]
        if closed:  # the last weight makes each sum 1, so only a sign can be off
            cells = [cell[:-1] + (1 - sum(cell[:-1]),) for cell in cells]
        split = tuple(zip(cells[0::2], cells[1::2]))
        want = all(min(cell) >= 0 and sum(cell) == 1 for rule in split for cell in rule)
        assert _cells_sum_to_one(split, len(split), 2, c) == want

    def test_wrong_shapes_are_not_accepted(self):
        half = (Fraction(1, 2),) * 2
        assert _cells_sum_to_one(((half, half),) * 2, 2, 2, 2)
        assert not _cells_sum_to_one(((half, half),) * 2, 3, 2, 2)
        assert not _cells_sum_to_one(((half,), (half, half)), 2, 2, 2)
        assert not _cells_sum_to_one(((half, half), (half, half[:1])), 2, 2, 2)

    def test_valid_split_is_not_checked_cell_by_cell(self, monkeypatch):
        import splitauth.acode

        names = []
        check = splitauth.acode._check_dist

        def recording(dist, n, name):
            names.append(name)
            return check(dist, n, name)

        monkeypatch.setattr(splitauth.acode, "_check_dist", recording)
        third = (Fraction(1, 3), Fraction(2, 3))
        SplittingACode(u=2, v=9, rules=TABLE1_RULES, split_dist=((third, third),) * 9)
        assert names == ["key_dist", "source_dist"]

    def test_first_fault_is_named(self):
        half = (Fraction(1, 2),) * 2
        split = [(half, half)] * 9
        split[5] = (half, (-Fraction(1, 2), Fraction(3, 2)))
        split[2] = ((Fraction(1, 3),) * 2, half)
        with pytest.raises(ValueError, match=r"^split_dist of rule 3, source 1 sums to 2/3"):
            SplittingACode(u=2, v=9, rules=TABLE1_RULES, split_dist=tuple(split))
