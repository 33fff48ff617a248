from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitauth import (
    SplittingACode,
    analyze,
    deception_bound,
    deception_probability,
    perfect_secrecy_check,
    rule_count_floor,
)
from conftest import TABLE1_RULES, TABLE2_RULES
from reference import cell, decode, split_weight, valid_messages


# --- independent oracles -------------------------------------------------
# Reference implementations written before the engine was tested, and
# deliberately structured the other way around: they enumerate candidate
# or observed messages first instead of rules.  Their outputs on the two
# reference codes are frozen below before any engine comparison.


def oracle_impersonation(code: SplittingACode) -> Fraction:
    """Best injected message, no observations: maximize the key mass of
    the rules that accept it."""
    best = Fraction(0)
    for m in range(1, code.v + 1):
        payoff = sum(
            (
                code.key_dist[e - 1]
                for e in range(1, code.num_rules + 1)
                if m in valid_messages(code, e)
            ),
            Fraction(0),
        )
        best = max(best, payoff)
    return best


def oracle_substitution(code: SplittingACode) -> Fraction:
    """One observed message, one injected one.

    For each observable message, gather every (rule, source) event that
    could have produced it with its exact probability, then let the
    opponent pick the substitute whose acceptance-as-another-source mass
    is largest.
    """
    total = Fraction(0)
    for m in range(1, code.v + 1):
        events: list[tuple[int, int, Fraction]] = []
        for e in range(1, code.num_rules + 1):
            for s in range(1, code.u + 1):
                w = (
                    code.key_dist[e - 1]
                    * code.source_dist[s - 1]
                    * split_weight(code, e, s, m)
                )
                if w:
                    events.append((e, s, w))
        if not events:
            continue
        best = Fraction(0)
        for sub in range(1, code.v + 1):
            if sub == m:
                continue
            win = sum(
                (
                    w
                    for e, s, w in events
                    if sub in valid_messages(code, e) and decode(code, e, sub) != s
                ),
                Fraction(0),
            )
            best = max(best, win)
        total += best
    return total


def cell_count_posteriors(code: SplittingACode) -> dict[tuple[int, int], Fraction]:
    """Posteriors for fully uniform codes, straight from cell counts: with
    uniform key, source and split weights, p(s | m) is the share of the
    rules containing m that put it in source s's cell."""
    table: dict[tuple[int, int], Fraction] = {}
    for m in range(1, code.v + 1):
        counts = [
            sum(m in cell(code, e, s) for e in range(1, code.num_rules + 1))
            for s in range(1, code.u + 1)
        ]
        total = sum(counts)
        if total:
            for s in range(1, code.u + 1):
                table[s, m] = Fraction(counts[s - 1], total)
    return table


def _normalize(weights: list[int]) -> tuple[Fraction, ...]:
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


@st.composite
def table1_weighted_codes(draw) -> SplittingACode:
    """The first reference rule set under arbitrary rational
    distributions (key weights may drop rules entirely; split weights
    may silence one message of a cell)."""
    key_w = draw(
        st.lists(st.integers(0, 4), min_size=9, max_size=9).filter(any)
    )
    source_w = draw(st.lists(st.integers(1, 4), min_size=2, max_size=2))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 3)),
            min_size=18,
            max_size=18,
        )
    )
    split = tuple(
        tuple(_normalize(list(pairs[2 * e + s])) for s in range(2))
        for e in range(9)
    )
    return SplittingACode(
        u=2,
        v=9,
        rules=TABLE1_RULES,
        key_dist=_normalize(key_w),
        source_dist=_normalize(source_w),
        split_dist=split,
    )


class TestOracleValues:
    """Freeze the oracles' own outputs on the reference codes."""

    def test_impersonation_oracle(self, table1_code, table2_code):
        assert oracle_impersonation(table1_code) == Fraction(4, 9)
        assert oracle_impersonation(table2_code) == Fraction(4, 17)

    def test_substitution_oracle(self, table1_code, table2_code):
        assert oracle_substitution(table1_code) == Fraction(1, 4)
        assert oracle_substitution(table2_code) == Fraction(1, 8)

    def test_posterior_oracle(self, table1_code, table2_code):
        for code in (table1_code, table2_code):
            table = cell_count_posteriors(code)
            assert len(table) == 2 * code.v
            assert set(table.values()) == {Fraction(1, 2)}


class TestDeceptionProbability:
    def test_frozen_values(self, table1_code, table2_code):
        assert deception_probability(table1_code, 0) == Fraction(4, 9)
        assert deception_probability(table1_code, 1) == Fraction(1, 4)
        assert deception_probability(table2_code, 0) == Fraction(4, 17)
        assert deception_probability(table2_code, 1) == Fraction(1, 8)

    def test_matches_oracles(self, table1_code, table2_code):
        for code in (table1_code, table2_code):
            assert deception_probability(code, 0) == oracle_impersonation(code)
            assert deception_probability(code, 1) == oracle_substitution(code)

    def test_all_sources_observed_leaves_no_target(self, table1_code):
        assert deception_probability(table1_code, 2) == 0

    def test_order_out_of_range(self, table1_code):
        with pytest.raises(ValueError):
            deception_probability(table1_code, -1)
        with pytest.raises(ValueError):
            deception_probability(table1_code, 3)

    def test_concentrated_key_is_transparent(self):
        # all key mass on one rule: inject any message of that rule
        dist = (Fraction(1),) + tuple(Fraction(0) for _ in range(8))
        code = SplittingACode(u=2, v=9, rules=TABLE1_RULES, key_dist=dist)
        assert deception_probability(code, 0) == 1

    def test_impersonation_ignores_split_weights(self, table1_code):
        lopsided = tuple(
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
            for _ in range(9)
        )
        code = SplittingACode(u=2, v=9, rules=TABLE1_RULES, split_dist=lopsided)
        assert deception_probability(code, 0) == deception_probability(
            table1_code, 0
        )

    def test_silent_source_still_enumerates(self, table1_code):
        code = SplittingACode(
            u=2,
            v=9,
            rules=TABLE1_RULES,
            source_dist=(Fraction(0), Fraction(1)),
        )
        assert deception_probability(code, 0) == Fraction(4, 9)
        assert deception_probability(code, 1) == oracle_substitution(code)

    def test_silent_source_blocks_two_observations(self):
        code = SplittingACode(
            u=2,
            v=9,
            rules=TABLE1_RULES,
            source_dist=(Fraction(0), Fraction(1)),
        )
        with pytest.raises(ValueError, match="2-subset"):
            deception_probability(code, 2)


class TestDeceptionBound:
    def test_reference_values(self, table1_code, table2_code):
        assert deception_bound(table1_code, 0) == Fraction(4, 9)
        assert deception_bound(table1_code, 1) == Fraction(1, 4)
        assert deception_bound(table2_code, 0) == Fraction(4, 17)
        assert deception_bound(table2_code, 1) == Fraction(1, 8)

    def test_closed_form(self, table1_code, table2_code):
        # c*(u-i)/(v-i) when every cell has size c
        for code in (table1_code, table2_code):
            for i in range(code.u + 1):
                assert deception_bound(code, i) == Fraction(
                    code.c * (code.u - i), code.v - i
                )

    def test_order_range(self, table1_code):
        deception_bound(table1_code, 8)
        with pytest.raises(ValueError):
            deception_bound(table1_code, 9)
        with pytest.raises(ValueError):
            deception_bound(table1_code, -1)


class TestSecurityLevel:
    def test_reference_codes_are_one_fold(self, table1_code, table2_code):
        assert analyze(table1_code).level == 1
        assert analyze(table2_code).level == 1

    def test_truncated_scan(self, table1_code):
        assert analyze(table1_code, i_max=0).level == 0

    def test_concentrated_key_fails_at_zero(self):
        dist = (Fraction(1),) + tuple(Fraction(0) for _ in range(8))
        code = SplittingACode(u=2, v=9, rules=TABLE1_RULES, key_dist=dist)
        assert analyze(code).level == -1

    def test_i_max_above_source_count(self, table1_code):
        with pytest.raises(ValueError):
            analyze(table1_code, i_max=3)


class TestOptimality:
    def test_reference_codes_are_optimal(self, table1_code, table2_code):
        assert analyze(table1_code).optimal is True
        assert analyze(table2_code).optimal is True

    def test_rule_count_floor(self, table1_code, table2_code):
        assert rule_count_floor(table1_code, 2) == 9
        assert rule_count_floor(table2_code, 2) == 34
        assert rule_count_floor(table1_code, 1) == Fraction(9, 4)

    def test_redundant_rules_are_suboptimal(self):
        code = SplittingACode(u=2, v=9, rules=TABLE1_RULES + TABLE1_RULES)
        report = analyze(code)
        assert report.level == 1
        assert report.optimal is False

    def test_precondition_failure_gives_none(self):
        dist = (Fraction(1),) + tuple(Fraction(0) for _ in range(8))
        code = SplittingACode(u=2, v=9, rules=TABLE1_RULES, key_dist=dist)
        assert analyze(code).optimal is None

    def test_strength_range(self, table1_code):
        for t in (0, 3):
            with pytest.raises(ValueError):
                rule_count_floor(table1_code, t)


def message_marginals(code: SplittingACode) -> dict[int, Fraction]:
    return perfect_secrecy_check(code).message_marginals


class TestMessageMarginals:
    def test_uniform_reference_marginals(self, table1_code, table2_code):
        for code, expected in (
            (table1_code, Fraction(1, 9)),
            (table2_code, Fraction(1, 17)),
        ):
            marginals = message_marginals(code)
            for m in range(1, code.v + 1):
                assert marginals[m] == expected

    def test_marginals_sum_to_one(self, table2_code):
        marginals = message_marginals(table2_code)
        assert set(marginals) == set(range(1, 18))
        total = sum(marginals[m] for m in range(1, 18))
        assert total == 1

    def test_unused_rules_contribute_nothing(self):
        dist = (Fraction(1),) + tuple(Fraction(0) for _ in range(8))
        code = SplittingACode(u=2, v=9, rules=TABLE1_RULES, key_dist=dist)
        assert message_marginals(code)[4] == 0
        assert message_marginals(code)[1] == Fraction(1, 4)


class TestPerfectSecrecy:
    def test_reference_codes(self, table1_code, table2_code):
        for code in (table1_code, table2_code):
            table = perfect_secrecy_check(code)
            assert table.ok
            assert table.unreachable == ()
            assert table.priors == {1: Fraction(1, 2), 2: Fraction(1, 2)}
            assert table.entries == cell_count_posteriors(code)
            assert set(table.entries.values()) == {Fraction(1, 2)}

    def test_skewed_prior_still_secret(self):
        # balanced cell counts hide the source under any prior
        code = SplittingACode(
            u=2,
            v=9,
            rules=TABLE1_RULES,
            source_dist=(Fraction(1, 3), Fraction(2, 3)),
        )
        table = perfect_secrecy_check(code)
        assert table.ok
        assert all(
            table.entries[s, m] == table.priors[s]
            for s in (1, 2)
            for m in range(1, 10)
        )

    def test_concentrated_key_leaks(self):
        dist = (Fraction(1),) + tuple(Fraction(0) for _ in range(8))
        code = SplittingACode(u=2, v=9, rules=TABLE1_RULES, key_dist=dist)
        table = perfect_secrecy_check(code)
        assert not table.ok
        assert table.unreachable == (4, 6, 7, 8, 9)
        assert table.entries[1, 1] == 1
        assert table.entries[2, 3] == 1

    def test_silenced_message_fails_verdict(self, table1_code):
        # zero out message 1 in every cell that contains it
        silence = {(1, 1), (6, 2), (8, 2), (9, 1)}
        split = tuple(
            tuple(
                (Fraction(0), Fraction(1))
                if (e, s) in silence
                else (Fraction(1, 2), Fraction(1, 2))
                for s in (1, 2)
            )
            for e in range(1, 10)
        )
        code = SplittingACode(u=2, v=9, rules=TABLE1_RULES, split_dist=split)
        table = perfect_secrecy_check(code)
        assert not table.ok
        assert table.unreachable == (1,)
        assert table.message_marginals[1] == 0


class TestAnalyze:
    def test_table1_report(self, table1_code):
        report = analyze(table1_code)
        assert report.deception == {0: Fraction(4, 9), 1: Fraction(1, 4)}
        assert report.bounds == {0: Fraction(4, 9), 1: Fraction(1, 4)}
        assert report.level == 1
        assert report.optimal is True
        assert report.secrecy_ok

    def test_table2_report(self, table2_code):
        report = analyze(table2_code)
        assert report.deception == {0: Fraction(4, 17), 1: Fraction(1, 8)}
        assert report.level == 1
        assert report.optimal is True
        assert report.secrecy_ok

    def test_insecure_code_report(self):
        dist = (Fraction(1),) + tuple(Fraction(0) for _ in range(8))
        code = SplittingACode(u=2, v=9, rules=TABLE1_RULES, key_dist=dist)
        report = analyze(code)
        assert report.level == -1
        assert report.optimal is None
        assert not report.secrecy_ok

    def test_truncated_orders(self, table1_code):
        report = analyze(table1_code, i_max=0)
        assert set(report.deception) == {0}
        assert report.level == 0
        # 9 rules is above the strength-1 floor of 9/4
        assert report.optimal is False

    def test_full_order_scan(self, table1_code):
        report = analyze(table1_code, i_max=2)
        assert report.deception[2] == 0
        assert report.bounds[2] == 0
        assert report.level == 2
        assert report.optimal is None

    def test_i_max_range(self, table1_code):
        with pytest.raises(ValueError):
            analyze(table1_code, i_max=3)

    def test_security_makes_no_coverage_count(self, table2_code, covered):
        analyze(table2_code, 1)
        deception_probability(table2_code, 1)
        perfect_secrecy_check(table2_code)
        assert covered == []


class TestHandComputedCode:
    """Two disjoint rules over eight messages, worked out by hand.

    Order 0: any message is accepted by exactly one of the two equally
    likely rules, so the best guess wins with probability 1/2, meeting
    the floor 4/8.  Order 1: one observed message pins down rule and
    source, so a substitute aimed at the other source is always
    accepted: deception 1 against a floor of 2/7.  Every posterior is
    degenerate, so there is no secrecy either.
    """

    @pytest.fixture()
    def code(self):
        return SplittingACode(
            u=2, v=8, rules=(((1, 2), (3, 4)), ((5, 6), (7, 8)))
        )

    def test_impersonation(self, code):
        assert deception_probability(code, 0) == Fraction(1, 2)
        assert deception_bound(code, 0) == Fraction(1, 2)

    def test_substitution(self, code):
        assert deception_probability(code, 1) == 1
        assert deception_bound(code, 1) == Fraction(2, 7)
        assert oracle_substitution(code) == 1

    def test_level_and_optimality(self, code):
        assert analyze(code).level == 0
        assert analyze(code, i_max=0).optimal is True
        assert analyze(code).optimal is None

    def test_no_secrecy(self, code):
        table = perfect_secrecy_check(code)
        assert not table.ok
        assert table.unreachable == ()
        assert table.entries[1, 1] == 1
        assert table.entries[2, 1] == 0


class TestRepresentationInvariance:
    @given(perm=st.permutations(tuple(range(1, 10))))
    @settings(max_examples=30, deadline=None)
    def test_relabeling_messages_changes_nothing(self, perm):
        relabel = {m: perm[m - 1] for m in range(1, 10)}
        rules = tuple(
            tuple(tuple(sorted(relabel[m] for m in cell)) for cell in rule)
            for rule in TABLE1_RULES
        )
        code = SplittingACode(u=2, v=9, rules=rules)
        assert deception_probability(code, 0) == Fraction(4, 9)
        assert deception_probability(code, 1) == Fraction(1, 4)
        assert perfect_secrecy_check(code).ok


class TestWeightedCodeProperties:
    @given(code=table1_weighted_codes())
    @settings(max_examples=60, deadline=None)
    def test_deception_never_beats_floor(self, code):
        for i in (0, 1):
            assert deception_probability(code, i) >= deception_bound(code, i)

    @given(code=table1_weighted_codes())
    @settings(max_examples=60, deadline=None)
    def test_engine_matches_oracles(self, code):
        assert deception_probability(code, 0) == oracle_impersonation(code)
        assert deception_probability(code, 1) == oracle_substitution(code)

    @given(code=table1_weighted_codes())
    @settings(max_examples=60, deadline=None)
    def test_posteriors_are_proper(self, code):
        table = perfect_secrecy_check(code)
        for m in range(1, 10):
            if m in table.unreachable:
                assert table.message_marginals[m] == 0
                continue
            assert table.entries[1, m] + table.entries[2, m] == 1
