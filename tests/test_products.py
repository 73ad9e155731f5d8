from fractions import Fraction as F

import pytest

from qserieslab import (
    ProductFactor,
    euler_phi,
    expand_product,
    invert,
    mul,
)
from qserieslab.verify import evaluate, parse_expression
from oracles import partition_counts, pentagonal_sum, residue_parts


class TestEulerPhi:
    def test_low_order(self):
        assert dict(euler_phi(F(6)).terms) == {F(0): 1, F(1): -1, F(2): -1, F(5): 1}

    def test_matches_pentagonal_sum_to_15(self):
        assert {int(e): int(c) for e, c in euler_phi(F(15)).terms} == pentagonal_sum(15)

    def test_matches_pentagonal_sum_to_200(self):
        assert {int(e): int(c) for e, c in euler_phi(F(200)).terms} == pentagonal_sum(200)

    def test_matches_pentagonal_sum_to_1000(self):
        assert {int(e): int(c) for e, c in euler_phi(F(1000)).terms} == pentagonal_sum(1000)

    def test_trivial_order(self):
        assert euler_phi(F(1)).terms == ((F(0), F(1)),)

    def test_unit_property(self):
        phi = euler_phi(F(30))
        assert mul(phi, invert(phi)).terms == ((F(0), F(1)),)


class TestExpandProduct:
    def test_rr_one_product(self):
        out = expand_product((ProductFactor(1, 2, 5, -1), ProductFactor(1, 3, 5, -1)), F(8))
        expected = residue_parts(5, (2, 3), 7)
        assert [out.coefficient(k) for k in range(8)] == expected
        assert expected == [1, 0, 1, 1, 1, 1, 2, 2]

    def test_universal_w_character(self):
        # 1/((q^2;q)_inf (q^3;q)_inf): two-family partition counts
        out = expand_product((ProductFactor(1, 2, 1, -1), ProductFactor(1, 3, 1, -1)), F(5))
        counts = [0] * 5
        a = partition_counts(list(range(2, 5)), 4)
        b = partition_counts(list(range(3, 5)), 4)
        for n in range(5):
            counts[n] = sum(a[i] * b[n - i] for i in range(n + 1))
        assert [out.coefficient(n) for n in range(5)] == counts
        assert counts == [1, 0, 1, 2, 3]

    def test_reciprocal_phi_matches_partition_counts_to_1000(self):
        out = expand_product((ProductFactor(1, 1, 1, -1),), F(1000))
        assert [out.coefficient(n) for n in range(1000)] == partition_counts(list(range(1, 1000)), 999)

    def test_empty_spec_is_prefactor(self):
        # an empty product is 1; the grammar spells a prefactor as mono(c,e) * prod(...)
        assert expand_product((), F(4)).terms == ((F(0), F(1)),)
        assert evaluate(parse_expression("mono(3,1/2) * prod()"), F(4)).terms == ((F(1, 2), F(3)),)

    def test_power_matches_repetition(self):
        squared = (ProductFactor(1, 1, 2, 2),)
        repeated = (ProductFactor(1, 1, 2, 1), ProductFactor(1, 1, 2, 1))
        assert expand_product(squared, F(25)) == expand_product(repeated, F(25))

    def test_negative_power_matches_repetition(self):
        squared = (ProductFactor(-1, 2, 3, -2),)
        repeated = (ProductFactor(-1, 2, 3, -1), ProductFactor(-1, 2, 3, -1))
        assert expand_product(squared, F(25)) == expand_product(repeated, F(25))

    def test_reciprocal_progression_positivity(self):
        out = expand_product((ProductFactor(1, F(1, 6), 1, -1), ProductFactor(1, F(5, 6), 1, -1)), F(12))
        assert all(c.denominator == 1 and c > 0 for _, c in out.terms)

    def test_reciprocal_times_direct_cancels(self):
        forward = (ProductFactor(1, F(3, 2), F(5, 2), 1),)
        backward = (ProductFactor(1, F(3, 2), F(5, 2), -1),)
        prod = mul(expand_product(forward, F(40)), expand_product(backward, F(40)))
        assert prod.terms == ((F(0), F(1)),)

    def test_fractional_prefactor_coefficient(self):
        out = evaluate(parse_expression("mono(-2/3,0) * prod(1,1,1,1)"), F(3))
        assert dict(out.terms) == {F(0): F(-2, 3), F(1): F(2, 3), F(2): F(2, 3)}

    def test_cutoff_order_zero(self):
        # below q^0 a product holds nothing; nor does q^5 times one below q^2
        for order in (F(0), F(-3, 2)):
            out = expand_product((ProductFactor(1, 1, 1, -1),), order)
            assert out.is_zero and out.order == order
        assert evaluate(parse_expression("mono(1,5) * prod()"), F(2)).is_zero


class TestValidation:
    def test_bad_sign(self):
        with pytest.raises(ValueError):
            ProductFactor(0, 1, 1, 1)

    def test_nonpositive_start(self):
        with pytest.raises(ValueError):
            ProductFactor(1, 0, 1, 1)

    def test_nonpositive_step(self):
        with pytest.raises(ValueError):
            ProductFactor(1, 1, F(-1, 2), 1)

    def test_zero_power(self):
        with pytest.raises(ValueError):
            ProductFactor(1, 1, 1, 0)

    @pytest.mark.parametrize("power", [2.0, F(1, 2)])
    def test_non_integer_power(self, power):
        with pytest.raises(ValueError, match="integer"):
            ProductFactor(1, 1, 1, power)
