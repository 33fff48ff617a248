from __future__ import annotations

from fractions import Fraction

import pytest

from reference import lambda_level
from splitauth import DesignParams

P9 = DesignParams(t=2, v=9, b=9, c=2, u=2, lam=1)
P17 = DesignParams(t=2, v=17, b=34, c=2, u=2, lam=1)


class TestDesignParams:
    def test_block_size_defaults_to_cu(self):
        assert P9.l == 4
        with pytest.raises(AttributeError):
            P9.l = 4

    def test_inconsistent_block_size_rejected(self):
        # l is derived from c and u, so no block size can be passed at all
        for l in (4, 5):
            with pytest.raises(TypeError):
                DesignParams(t=2, v=9, b=9, c=2, u=2, lam=1, l=l)

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
    """The level formula the acceptance checks use as an oracle."""

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
