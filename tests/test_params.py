from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitauth import (
    DesignParams,
    admissible,
    binomial,
    check_divisibility,
    check_fisher,
    check_identities,
    lambda_level,
)

P9 = DesignParams(t=2, v=9, b=9, c=2, u=2, lam=1)
P17 = DesignParams(t=2, v=17, b=34, c=2, u=2, lam=1)


class TestBinomial:
    def test_values(self):
        assert binomial(9, 2) == 36
        assert binomial(17, 2) == 136
        assert binomial(0, 0) == 1

    def test_k_above_n_is_zero(self):
        assert binomial(5, 7) == 0

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 2)
        with pytest.raises(ValueError):
            binomial(3, -1)

    def test_large_exact(self):
        assert binomial(128, 64) % 2 == 0
        assert binomial(128, 0) == 1

    @given(st.integers(0, 60), st.integers(0, 70))
    def test_pascal_rule(self, n, k):
        assert binomial(n + 1, k + 1) == binomial(n, k) + binomial(n, k + 1)


class TestDesignParams:
    def test_block_size_defaults_to_cu(self):
        assert P9.l == 4
        assert DesignParams(t=2, v=9, b=9, c=2, u=2, lam=1, l=4).l == 4

    def test_inconsistent_block_size_rejected(self):
        with pytest.raises(ValueError):
            DesignParams(t=2, v=9, b=9, c=2, u=2, lam=1, l=5)

    def test_strength_above_parts_rejected(self):
        with pytest.raises(ValueError):
            DesignParams(t=3, v=9, b=9, c=2, u=2, lam=1)

    def test_block_size_above_points_rejected(self):
        with pytest.raises(ValueError):
            DesignParams(t=2, v=3, b=9, c=2, u=2, lam=1)

    def test_nonpositive_fields_rejected(self):
        with pytest.raises(ValueError):
            DesignParams(t=2, v=9, b=0, c=2, u=2, lam=1)
        with pytest.raises(ValueError):
            DesignParams(t=0, v=9, b=9, c=2, u=2, lam=1)

    @pytest.mark.parametrize("name", ["t", "v", "b", "c", "u", "lam"])
    def test_bools_rejected(self, name):
        fields = dict(t=2, v=9, b=9, c=2, u=2, lam=1)
        fields[name] = True
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            DesignParams(**fields)

    def test_str_form(self):
        assert str(P9) == "2-(9,9,4=2×2,1)"
        assert str(P17) == "2-(17,34,4=2×2,1)"


class TestLambdaLevel:
    def test_replication_numbers(self):
        assert lambda_level(P9, 1) == 4
        assert lambda_level(P17, 1) == 8

    def test_top_level_equals_index(self):
        assert lambda_level(P9, 2) == 1
        assert lambda_level(P17, 2) == 1

    def test_non_integer_value_is_exact(self):
        p = DesignParams(t=2, v=10, b=9, c=2, u=2, lam=1)
        assert lambda_level(p, 1) == Fraction(9, 2)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            lambda_level(P9, 0)
        with pytest.raises(ValueError):
            lambda_level(P9, 3)

    def test_derived_counts(self):
        assert [lambda_level(P17, s) for s in (1, 2)] == [Fraction(8), Fraction(1)]


class TestIdentities:
    def test_reference_parameters_pass(self):
        assert check_identities(P9) == {
            "replication": True,
            "coverage": True,
            "pairwise": True,
        }
        assert all(check_identities(P17).values())

    def test_perturbed_block_count_fails_replication(self):
        bad = DesignParams(t=2, v=9, b=8, c=2, u=2, lam=1)
        assert check_identities(bad)["replication"] is False

    def test_pairwise_identity_at_strength_three(self):
        # the 15 pair partitions of 6 points: r = 15, lambda_2 = 12, and
        # r * (u-1) * c = 60 = lambda_2 * (v-1)
        p = DesignParams(t=3, v=6, b=15, c=2, u=3, lam=6)
        assert (lambda_level(p, 1), lambda_level(p, 2)) == (15, 12)
        assert all(check_identities(p).values())

    def test_pairwise_identity_needs_strength_two(self):
        p = DesignParams(t=1, v=9, b=9, c=2, u=2, lam=4)
        assert "pairwise" not in check_identities(p)


class TestDivisibility:
    def test_reference_parameters_pass(self):
        assert check_divisibility(P9) == {1: True, 2: True}

    def test_even_point_count_fails(self):
        p = DesignParams(t=2, v=10, b=9, c=2, u=2, lam=1)
        assert check_divisibility(p)[1] is False

    def test_strength_one_always_passes(self):
        p = DesignParams(t=1, v=10, b=5, c=2, u=2, lam=1)
        assert check_divisibility(p) == {1: True}


class TestFisher:
    def test_reference_parameters_pass(self):
        assert check_fisher(P9) is True
        assert check_fisher(P17) is True

    def test_violation(self):
        p = DesignParams(t=2, v=100, b=10, c=2, u=2, lam=1)
        assert check_fisher(p) is False

    def test_not_applicable_below_strength_two(self):
        p = DesignParams(t=1, v=9, b=9, c=2, u=2, lam=4)
        assert check_fisher(p) is None


class TestAdmissible:
    def test_reference_parameters_pass(self):
        for p in (P9, P17):
            report = admissible(p)
            assert report.all_ok
            assert report.failures == []
            assert report.fisher_ok is True

    def test_divisibility_failure_reported(self):
        p = DesignParams(t=2, v=10, b=9, c=2, u=2, lam=1)
        report = admissible(p)
        assert not report.all_ok
        assert any("divisibility" in f for f in report.failures)

    def test_fisher_failure_reported(self):
        p = DesignParams(t=2, v=100, b=10, c=2, u=2, lam=1)
        report = admissible(p)
        assert any("block-count bound" in f for f in report.failures)


class TestProperties:
    @given(
        st.integers(1, 4),
        st.integers(1, 40),
        st.integers(1, 3),
        st.integers(2, 4),
        st.integers(1, 5),
    )
    def test_divisibility_means_integral_levels(self, t, b, c, u, lam):
        if t > u:
            return
        v = c * u + t  # keep parameters representable
        params = DesignParams(t=t, v=v, b=b, c=c, u=u, lam=lam)
        div = check_divisibility(params)
        for s in range(1, t + 1):
            assert div[s] == (lambda_level(params, s).denominator == 1)

    @given(st.integers(1, 3), st.integers(1, 4))
    def test_family_parameters_always_admissible(self, c, n):
        v = 2 * c * c * n + 1
        params = DesignParams(t=2, v=v, b=n * v, c=c, u=2, lam=1)
        assert admissible(params).all_ok
