import sys
from bisect import bisect_left
from dataclasses import fields
from fractions import Fraction as F
from math import ceil, gcd, lcm
from unittest.mock import patch

import pytest

from qserieslab import (
    CharLabel,
    EmptySeriesError,
    GradingError,
    InsufficientOrderError,
    Mismatch,
    PuiseuxSeries,
    add,
    compare,
    from_text,
    invert,
    minimal_char,
    monomial,
    mul,
    named_series,
    scale,
    sub,
    substitute,
    substitute_signed,
    to_text,
    truncate,
    zero,
)
from qserieslab import series
from qserieslab.products import euler_phi
from qserieslab.series import _shift
from oracles import dict_mul, partition_counts


def geometric(order, exponent=1):
    # 1 + q^e + q^2e + ...
    terms = {}
    e = F(0)
    while e < order:
        terms[e] = F(1)
        e += exponent
    return add(zero(order), PuiseuxSeries(F(exponent).denominator, F(order), tuple(sorted(terms.items()))))


class TestMonomial:
    def test_constant_one(self):
        s = monomial(1, 0, 1, 10)
        assert s.terms == ((F(0), F(1)),)
        assert s.order == 10

    def test_rr_prefactor(self):
        s = monomial(1, F(11, 60), 60, 5)
        assert s.terms == ((F(11, 60), F(1)),)
        assert s.grading == 60

    def test_off_grid_rejected(self):
        with pytest.raises(GradingError):
            monomial(3, F(7, 2), 1, 10)

    def test_beyond_order_is_empty(self):
        assert monomial(1, 12, 1, 10).is_zero

    def test_zero_coefficient_is_empty(self):
        assert monomial(0, 2, 1, 10).is_zero


class TestAdd:
    def test_additive_inverse(self):
        one_q = add(monomial(1, 0, 1, 10), monomial(1, 1, 1, 10))
        assert add(one_q, scale(one_q, -1)).is_zero

    def test_lcm_reconciliation(self):
        s = add(monomial(1, F(1, 2), 2, 10), monomial(1, F(1, 3), 3, 10))
        assert s.grading == 6
        assert s.terms == ((F(1, 3), F(1)), (F(1, 2), F(1)))

    def test_order_is_min(self):
        s = add(zero(5), zero(9))
        assert s.order == 5

    def test_character_sum_identity_low_order(self):
        lhs = add(minimal_char(CharLabel(5, 6, 1, 2), F(5)), minimal_char(CharLabel(5, 6, 1, 4), F(5)))
        rhs = substitute(minimal_char(CharLabel(2, 5, 1, 1), F(10)), F(1, 2))
        assert compare(lhs, rhs, 5) is None


class TestShift:
    def test_negative_fractional_shift(self):
        a = PuiseuxSeries(2, F(7, 2), ((F(-1, 2), F(3)), (F(1), F(-1))))
        s = _shift(a, F(-4, 3))
        assert s == PuiseuxSeries(6, F(13, 6), ((F(-11, 6), F(3)), (F(-1, 3), F(-1))))

    def test_empty_series_keeps_the_shifted_order(self):
        assert _shift(zero(-3, 4), F(5, 6)) == PuiseuxSeries(1, F(-13, 6), ())

    def test_grading_reduces(self):
        # q^(1/6) * (q^(-1/6) + 2q^(5/6)) lies on the integer grid
        a = PuiseuxSeries(6, F(2), ((F(-1, 6), F(1)), (F(5, 6), F(2))))
        assert _shift(a, F(1, 6)) == PuiseuxSeries(1, F(13, 6), ((F(0), F(1)), (F(1), F(2))))


class TestMul:
    def test_telescope(self):
        one_minus_q = sub(monomial(1, 0, 1, 20), monomial(1, 1, 1, 20))
        geo = invert(one_minus_q)
        assert mul(one_minus_q, geo).terms == ((F(0), F(1)),)

    def test_exponent_cancellation(self):
        a = monomial(1, F(-1, 30), 30, 10)
        b = monomial(1, F(1, 30), 30, 10)
        assert mul(a, b).terms == ((F(0), F(1)),)

    def test_rescaled_product_against_dict_oracle(self):
        x = substitute(minimal_char(CharLabel(2, 5, 1, 2), F(36)), F(1, 3))
        y = substitute(minimal_char(CharLabel(2, 5, 1, 2), F(24)), F(1, 2))
        prod = mul(x, y)
        assert prod.leading_exponent == F(-1, 180) + F(-1, 120)
        assert prod.leading_exponent == F(-1, 72)
        expect = dict_mul(dict(x.terms), dict(y.terms), prod.order)
        assert dict(prod.terms) == expect

    def test_negative_lead_extends_order(self):
        # O_a + lead(b) can exceed min(O_a, O_b)
        a = monomial(1, F(-2), 1, 10)
        b = monomial(1, F(-3), 1, 8)
        assert mul(a, b).order == min(10 + (-3), 8 + (-2))

    def test_zero_operand(self):
        a = monomial(1, 1, 1, 10)
        assert mul(a, zero(7)).is_zero
        assert mul(a, zero(7)).order == min(10 + 0, 7 + 1)

    def test_empty_negative_order_operands(self):
        # each operand truncated only terms at or above -3, so their product
        # is exact below -6 and no further
        assert mul(zero(-3), zero(-3)).order == -6
        assert mul(zero(-3), zero(-1)).order == -4

    def test_kronecker_path_matches_naive(self):
        # large enough that the packed big-int path is taken
        phi = euler_phi(260)
        inv = invert(phi)
        prod = mul(inv, inv)
        expect = dict_mul(dict(inv.terms), dict(inv.terms), prod.order)
        assert dict(prod.terms) == expect


def _polynomial(coefs, order):
    """sum(c * q^i for i, c in enumerate(coefs)) on the integer grid."""
    return PuiseuxSeries(1, order, tuple((F(i), F(c)) for i, c in enumerate(coefs) if c))


def kernel_mul(a, b, kernel="_kronecker_mul"):
    """mul(a, b) with the terms mul keeps, those that can reach below the
    product's order, always sent through the named kernel of series
    (_shifted_mul, for an a of +-1 numerators, or _kronecker_mul), whichever
    one mul's rule would pick; mul(a, b) itself when an operand is empty."""
    if not a.exps or not b.exps:
        return mul(a, b)
    order = min(a.order + F(b.exps[0], b.grading), b.order + F(a.exps[0], a.grading))
    grid = lcm(a.grading, b.grading)
    top = ceil(order * grid)
    ea = [e * (grid // a.grading) for e in a.exps]
    eb = [e * (grid // b.grading) for e in b.exps]
    na, nb = bisect_left(ea, top - eb[0]), bisect_left(eb, top - ea[0])
    ea, ca, eb, cb = ea[:na], a.nums[:na], eb[:nb], b.nums[:nb]
    g = gcd(*(e - ea[0] for e in ea), *(e - eb[0] for e in eb)) or 1
    exps, nums = getattr(series, kernel)(ea, eb, ca, cb, top, g)
    return series._from_grid(grid, exps, nums, a.den * b.den, order)


def spied(name, calls):
    """A stand-in for series.<name> that records its arguments in calls."""
    kernel = getattr(series, name)

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    return spy


class TestKernelRule:
    """After pruning, with na <= nb terms that fill la + lb digits laid out
    densely on the common exponent stride and w the bit length of the larger
    operand's largest numerator, mul sums pairs when na * nb <= la + lb,
    takes shifted adds when the na numerators are all +-1 and
    na * lb <= (la + lb) * w, and packs otherwise."""

    @staticmethod
    def kernel(a, b):
        """The kernel mul(a, b) runs: pairs, shifted or packed; its product
        is checked against the dict oracle."""
        shifted, packed = [], []
        spies = {"_shifted_mul": spied("_shifted_mul", shifted), "_kronecker_mul": spied("_kronecker_mul", packed)}
        with patch.multiple(series, **spies):
            prod = mul(a, b)
        assert dict(prod.terms) == dict_mul(dict(a.terms), dict(b.terms), prod.order)
        assert len(shifted) + len(packed) <= 1
        return "shifted" if shifted else "packed" if packed else "pairs"

    @staticmethod
    def integral(exps, order, sign=1):
        return PuiseuxSeries(1, F(order), tuple((F(e), F(sign * (e + 1))) for e in exps))

    @staticmethod
    def theta(exps, order, scale=1):
        """Alternating signs times scale at the given exponents."""
        return PuiseuxSeries(1, F(order), tuple((F(e), F((-1) ** k * scale)) for k, e in enumerate(exps)))

    @pytest.mark.parametrize(
        "exps_a, exps_b, beyond_pairs",
        [
            ((0, 1, 2), (0, 1, 5), False),  # 9 pairs, 3 + 6 digits
            ((0, 1, 2), (0, 1, 4), True),  # 9 pairs, 3 + 5 digits
            ((0, 2, 4), (0, 2, 8), True),  # 9 pairs, 3 + 5 digits on stride 2
            ((0, 2, 4), (0, 2, 10), False),  # 9 pairs, 3 + 6 digits on stride 2
            ((0, 1, 2), (0, 1, 4, 30), True),  # q^30 is pruned at order 20
        ],
    )
    def test_pairs_against_digits(self, exps_a, exps_b, beyond_pairs):
        # the numerators 1, 2, 3 are not all +-1, so past pairs the product packs
        kernel = self.kernel(self.integral(exps_a, 20), self.integral(exps_b, 40, -1))
        assert kernel == ("packed" if beyond_pairs else "pairs")

    @pytest.mark.parametrize(
        "a, b, kernel",
        [
            # 4 * 10 = (10 + 10) * 2 element adds against bits, w = 2 for 3
            (((0, 3, 6, 9), 1), (range(10), 3), "shifted"),
            (((0, 2, 4, 6, 9), 1), (range(10), 3), "packed"),  # 5 * 10 > 20 * 2
            (((0, 2, 4, 6, 9), 1), (range(10), 4), "shifted"),  # 5 * 10 <= 20 * 3
            (((0, 2, 4, 6, 9), F(1, 3)), (range(10), 4), "shifted"),  # numerators +-1 over 3
            (((0, 3, 6, 9), 2), (range(10), 3), "packed"),  # numerators +-2 would multiply
            (((0, 3, 6, 9), 1), (range(6), 3), "shifted"),  # 4 * 6 <= (10 + 6) * 2
            (((0, 3, 6, 9), 1), ((*range(6), 15), 3), "packed"),  # lb counts the gap: 4 * 16 > 26 * 2
        ],
    )
    def test_names_the_kernel(self, a, b, kernel):
        (exps_a, scale), (exps_b, c) = a, b
        sparse = self.theta(exps_a, 20, scale)
        dense = PuiseuxSeries(1, F(20), tuple((F(e), F(c)) for e in exps_b))
        assert self.kernel(sparse, dense) == kernel
        assert self.kernel(dense, sparse) == kernel  # the sparser operand is found either way

    def test_two_terms_on_a_fine_grid_sum_pairs(self):
        # 400 pairs against the 2 + 198,404 digits of 1/(q)_oo on the 1/997 grid
        a = PuiseuxSeries(997, F(200), ((F(0), F(1)), (F(1, 997), F(1))))
        assert self.kernel(a, invert(euler_phi(200))) == "pairs"

    def test_theta_times_the_partition_function_shifts(self):
        # the 23 pentagonal terms of (q)_oo below 200 against its 200-term
        # inverse, whose largest numerator p(199) has w = 42 bits
        phi = euler_phi(200)
        assert self.kernel(phi, invert(phi)) == "shifted"

    def test_theta_squared_packs(self):
        # w = 1: shifted adds would outnumber the bits, as past pairs they always do
        phi = euler_phi(200)
        assert self.kernel(phi, phi) == "packed"


class TestTransformMul:
    """The Kronecker product through libmpdec, which kernel_mul takes on
    nonzero operands with _TRANSFORM_BITS at 0, against the dict oracle."""

    @staticmethod
    def transform_product(a, b, expect_transform=True):
        calls = []
        with patch.multiple(series, _TRANSFORM_BITS=0, _transform_mul=spied("_transform_mul", calls)):
            prod = kernel_mul(a, b)
        assert len(calls) == (1 if expect_transform else 0)
        assert dict(prod.terms) == dict_mul(dict(a.terms), dict(b.terms), prod.order)
        return prod

    def test_all_negative_digits(self):
        a = _polynomial([-(i % 7) - 1 for i in range(40)], 40)
        b = _polynomial([-3 * i - 2 for i in range(30)], 40)
        prod = self.transform_product(a, b)
        assert all(c > 0 for _, c in prod.terms)
        assert all(c < 0 for _, c in self.transform_product(a, scale(b, -1)).terms)

    def test_mixed_signs(self):
        a = _polynomial([(-1) ** i * (i + 1) ** 3 for i in range(50)], 50)
        b = _polynomial([(i * 7919) % 101 - 50 for i in range(45)], 50)
        self.transform_product(a, b)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_widest_digit(self, sign):
        # n equal coefficients c and c', all kept at order 2n, make the middle
        # digit n*c*c' the sum of |a_i| * max|b_0..b_(2n-2-i)|, so bound - 1:
        # the widest the packing allows
        n, c = 64, 10**40 - 1
        a, b = _polynomial([c] * n, 2 * n), _polynomial([sign * c] * n, 2 * n)
        prod = self.transform_product(a, b)
        assert prod.coefficient(n - 1) == sign * n * c * c

    def test_python_decimal_takes_the_binary_path(self):
        a = _polynomial([(-1) ** i * (i + 1) for i in range(40)], 40)
        b = _polynomial([i * i - 20 for i in range(40)], 40)
        transformed = self.transform_product(a, b)
        with patch.object(series, "_LIBMPDEC", None):
            assert self.transform_product(a, b, expect_transform=False) == transformed

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
    def test_digits_past_the_str_limit_take_the_binary_path(self):
        # coefficients near 10**5000 make digits longer than the 4300-digit limit
        # on int <-> str, which the transform path reads through str
        a = _polynomial([10**5000 - 7 * i for i in range(30)], 30)
        b = _polynomial([(-1) ** i * (10**5000 + i) for i in range(30)], 30)
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            binary = self.transform_product(a, b, expect_transform=False)
            sys.set_int_max_str_digits(0)
            assert self.transform_product(a, b) == binary
        finally:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("kernel, pack", [("int", "_pack"), ("libmpdec", "_decimal_pack")])
def test_square_packs_once(kernel, pack):
    if kernel == "libmpdec" and series._LIBMPDEC is None:
        pytest.skip("decimal is the pure-Python module")
    a = invert(euler_phi(100))
    packs = []
    bits = float("inf") if kernel == "int" else 0
    with patch.multiple(series, _TRANSFORM_BITS=bits, **{pack: spied(pack, packs)}):
        prod = kernel_mul(a, a)
    assert len(packs) == 1
    assert dict(prod.terms) == dict_mul(dict(a.terms), dict(a.terms), prod.order)


class TestDigitsAboveTheCut:
    """The digit width holds only the coefficients below the product's order,
    so the digits above it overflow and must be discarded, from a positive
    or a negative packed product, and from a square (always positive)."""

    n, spike = 40, 10**60

    def operand(self, sign, shift=0):
        # small alternating numerators, then one spike in the last kept slot:
        # the kept digits reach about 2 * spike, the discarded top spike**2
        small = [(-1) ** i * (i + 1 + shift) for i in range(self.n - 1)]
        return _polynomial([*small, sign * self.spike], self.n)

    @pytest.mark.parametrize("kernel, pack", [("int", "_pack"), ("libmpdec", "_decimal_pack")])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, None)], ids=["pos", "neg", "neg2", "square"])
    def test_overflowing_digits_are_discarded(self, kernel, pack, signs):
        if kernel == "libmpdec" and series._LIBMPDEC is None:
            pytest.skip("decimal is the pure-Python module")
        a = self.operand(signs[0])
        b = a if signs[1] is None else self.operand(signs[1], shift=1)
        packs = []
        bits = float("inf") if kernel == "int" else 0
        with patch.multiple(series, _TRANSFORM_BITS=bits, **{pack: spied(pack, packs)}):
            prod = kernel_mul(a, b)
        assert len(packs) == (1 if b is a else 2)
        assert dict(prod.terms) == dict_mul(dict(a.terms), dict(b.terms), prod.order)
        width = packs[0][1]
        half = 128 * 256 ** (width - 1) if kernel == "int" else 5 * 10 ** (width - 1)
        top = dict_mul(dict(a.terms), dict(b.terms), F(2 * self.n))[F(2 * self.n - 2)]
        assert abs(top) >= half  # the highest digit does not fit the width
        assert (top < 0) == (signs[1] == -signs[0])  # so the packed product has its sign


def test_width_holds_the_kept_coefficients():
    # DECOMP-1.4's a22:basic squared at order 500: 3,001 terms whose kept
    # coefficients fit 156 bits, 48 decimal places or 20 bytes; a width for
    # max|a| * max|b| * len(a) would take 225 bits, 69 places or 29 bytes
    if series._LIBMPDEC is None:
        pytest.skip("decimal is the pure-Python module")
    a = named_series("a22:basic", 500)
    transforms, packs = [], []
    with patch.object(series, "_transform_mul", spied("_transform_mul", transforms)):
        prod = kernel_mul(a, a)
    with patch.multiple(series, _TRANSFORM_BITS=float("inf"), _pack=spied("_pack", packs)):
        assert kernel_mul(a, a) == prod
    [(_, _, w, *_)] = transforms
    [(_, nbytes)] = packs
    assert w <= 49 and nbytes <= 21


class TestInvert:
    def test_geometric(self):
        one_minus_q = sub(monomial(1, 0, 1, 10), monomial(1, 1, 1, 10))
        geo = invert(one_minus_q)
        assert dict(geo.terms) == {F(k): F(1) for k in range(10)}

    def test_monomial_inverse(self):
        s = invert(monomial(1, F(11, 60), 60, 5))
        assert s.terms == ((F(-11, 60), F(1)),)

    def test_partition_generating_function(self):
        inv = invert(euler_phi(8))
        expected = partition_counts(list(range(1, 8)), 7)
        assert [inv.coefficient(n) for n in range(8)] == expected
        assert expected[:6] == [1, 1, 2, 3, 5, 7]

    def test_zero_rejected(self):
        with pytest.raises(EmptySeriesError):
            invert(zero(5))

    def test_rational_leading_coefficient(self):
        s = add(monomial(F(2, 3), 0, 1, 6), monomial(1, 1, 1, 6))
        prod = mul(s, invert(s))
        assert prod.terms == ((F(0), F(1)),)


class TestSubstitute:
    def test_exponent_scaling(self):
        s = PuiseuxSeries(60, F(11, 60) + 4, ((F(11, 60), F(1)), (F(11, 60) + 2, F(1)), (F(11, 60) + 3, F(1))))
        out = substitute(s, F(1, 2))
        assert out.terms == ((F(11, 120), F(1)), (F(11, 120) + 1, F(1)), (F(11, 120) + F(3, 2), F(1)))
        assert out.order == (F(11, 60) + 4) / 2

    def test_constant_fixed(self):
        one = monomial(1, 0, 1, 10)
        for r in (F(1, 2), F(2), F(7, 3)):
            assert substitute(one, r).terms == ((F(0), F(1)),)

    def test_leading_exponent_doubles(self):
        s = minimal_char(CharLabel(2, 5, 1, 1), F(3))
        assert substitute(s, 2).leading_exponent == F(11, 30)

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError):
            substitute(monomial(1, 0, 1, 5), F(-1, 2))


class TestSubstituteSigned:
    def test_offset_parity(self):
        s = PuiseuxSeries(60, F(11, 60) + 4, ((F(11, 60), F(1)), (F(11, 60) + 2, F(1)), (F(11, 60) + 3, F(1))))
        out = substitute_signed(s, F(1, 2))
        assert out.terms == ((F(11, 120), F(1)), (F(11, 120) + 1, F(1)), (F(11, 120) + F(3, 2), F(-1)))

    def test_one_plus_q(self):
        s = add(monomial(1, 0, 1, 10), monomial(1, 1, 1, 10))
        out = substitute_signed(s, 1)
        assert dict(out.terms) == {F(0): F(1), F(1): F(-1)}

    def test_signed_half_against_character_difference(self):
        lhs = sub(minimal_char(CharLabel(5, 6, 1, 2), F(20)), minimal_char(CharLabel(5, 6, 1, 4), F(20)))
        rhs = substitute_signed(minimal_char(CharLabel(2, 5, 1, 1), F(40)), F(1, 2))
        assert compare(lhs, rhs, 20) is None

    def test_non_integer_step_rejected(self):
        s = add(monomial(1, 0, 1, 10), monomial(1, F(1, 2), 2, 10))
        with pytest.raises(GradingError):
            substitute_signed(s, F(1, 2))


class TestCompare:
    def test_pass(self):
        a = add(monomial(1, 0, 1, 10), monomial(1, 1, 1, 10))
        assert compare(a, a, 10) is None

    def test_fail_carries_mismatch(self):
        a = add(monomial(1, 0, 1, 10), monomial(1, 1, 1, 10))
        b = add(monomial(1, 0, 1, 10), monomial(2, 1, 1, 10))
        assert compare(a, b, 10) == Mismatch(F(1), F(1), F(2))

    def test_insufficient_order_never_passes(self):
        a = monomial(1, 0, 1, 5)
        with pytest.raises(InsufficientOrderError):
            compare(a, a, 6)

    def test_truncate_cannot_extend(self):
        with pytest.raises(InsufficientOrderError):
            truncate(monomial(1, 0, 1, 5), 7)


class TestTextFormat:
    def test_round_trip(self):
        s = PuiseuxSeries(60, F(311, 60), ((F(-1, 30), F(1)), (F(11, 60), F(-2, 7))))
        assert from_text(to_text(s)) == s

    def test_empty_round_trip(self):
        s = zero(F(7, 2), grading=4)
        assert from_text(to_text(s)) == s

    def test_exact_layout(self):
        s = PuiseuxSeries(60, F(311, 60), ((F(11, 60), F(1)),))
        assert to_text(s) == "D=60 O=311/60\n11/60 1/1\n"

    @pytest.mark.parametrize(
        "bad",
        ["", "O=1/1 D=2", "D=x O=1/1", "D=2 O=1/1\n1/2", "D=1 O=1/0", "D=1 O=5\n1/0 1/1", "D=1 O=5\n1/1 1/0"],
    )
    def test_malformed_rejected(self, bad):
        from qserieslab import FormatError

        with pytest.raises(FormatError):
            from_text(bad)

    def test_coefficient_beyond_order_rejected(self):
        s = monomial(1, 0, 1, 5)
        with pytest.raises(InsufficientOrderError):
            s.coefficient(5)


class TestInvariants:
    """Every check in PuiseuxSeries.__init__ raises its own error."""

    def test_canonical_series_accepted(self):
        s = PuiseuxSeries(6, F(5), ((F(-7, 3), F(2)), (F(-1, 6), F(-1, 2)), (F(0), 1), (F(29, 6), F(3))))
        assert s.leading_exponent == F(-7, 3)

    @pytest.mark.parametrize("grading", [0, -2])
    def test_nonpositive_grading_rejected(self, grading):
        with pytest.raises(GradingError):
            PuiseuxSeries(grading, F(5), ())

    @pytest.mark.parametrize(
        "grading, exponent",
        [(1, F(1, 2)), (2, F(1, 3)), (6, F(-1, 4)), (4, F(7, 12))],
    )
    def test_off_grid_exponent_rejected(self, grading, exponent):
        with pytest.raises(GradingError):
            PuiseuxSeries(grading, F(5), ((F(-1), F(1)), (exponent, F(1))))

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError, match="zero coefficient"):
            PuiseuxSeries(2, F(5), ((F(0), F(1)), (F(1, 2), F(0))))

    @pytest.mark.parametrize(
        "exponents", [(F(1), F(1)), (F(2), F(1)), (F(-1, 2), F(1), F(1, 2))]
    )
    def test_exponents_not_strictly_increasing_rejected(self, exponents):
        terms = tuple((e, F(1)) for e in exponents)
        with pytest.raises(ValueError, match="strictly increasing"):
            PuiseuxSeries(2, F(5), terms)

    @pytest.mark.parametrize("exponent", [F(5), F(11, 2), F(7)])
    def test_term_at_or_beyond_order_rejected(self, exponent):
        with pytest.raises(ValueError, match="beyond truncation order"):
            PuiseuxSeries(2, F(5), ((F(0), F(1)), (exponent, F(1))))

    def test_term_just_below_fractional_order_accepted(self):
        s = PuiseuxSeries(6, F(31, 6), ((F(5), F(1)),))
        assert s.terms == ((F(5), F(1)),)
        with pytest.raises(ValueError, match="beyond truncation order"):
            PuiseuxSeries(6, F(31, 6), ((F(31, 6), F(1)),))

    def test_first_violation_wins(self):
        # an off-grid exponent is reported before a later zero coefficient,
        # and a zero coefficient before a later out-of-order exponent
        with pytest.raises(GradingError):
            PuiseuxSeries(1, F(5), ((F(1, 2), F(1)), (F(1), F(0))))
        with pytest.raises(ValueError, match="zero coefficient"):
            PuiseuxSeries(1, F(5), ((F(2), F(0)), (F(1), F(1))))
        with pytest.raises(ValueError, match="beyond truncation order"):
            PuiseuxSeries(1, F(5), ((F(6), F(1)), (F(1), F(1))))


class TestFields:
    def test_integer_numerators_over_the_grading_and_one_denominator(self):
        s = PuiseuxSeries(6, F(5), ((F(-1, 3), F(1, 2)), (F(1, 6), F(-2, 3)), (F(2), F(4))))
        assert [f.name for f in fields(s)] == ["grading", "order", "exps", "nums", "den"]
        assert (s.grading, s.order, s.exps, s.nums, s.den) == (6, F(5), (-2, 1, 12), (3, -4, 24), 6)

    def test_den_reduced_when_a_term_cancels(self):
        s = add(PuiseuxSeries(1, F(5), ((F(0), F(1, 2)), (F(1), F(1, 3)))), monomial(F(-1, 3), 1, 1, 5))
        assert (s.exps, s.nums, s.den) == ((0,), (1,), 2)

    def test_grading_reduced_when_a_term_cancels(self):
        s = sub(PuiseuxSeries(6, F(5), ((F(0), F(1)), (F(1, 6), F(1)))), monomial(1, F(1, 6), 6, 5))
        assert (s.grading, s.exps) == (1, (0,))

    def test_coefficient_on_and_off_the_grid(self):
        s = PuiseuxSeries(6, F(5), ((F(-1, 3), F(1, 2)), (F(1, 6), F(-2, 3))))
        assert s.coefficient(F(-1, 3)) == F(1, 2)
        assert s.coefficient(F(1, 6)) == F(-2, 3)
        assert s.coefficient(0) == 0
        assert s.coefficient(F(1, 4)) == 0
        assert s.coefficient(F(-7, 2)) == 0

    def test_inverse_of_a_non_unit_lead(self):
        # 1/(2 - 3q) = 1/2 + 3/4 q + 9/8 q^2 + ...
        s = invert(PuiseuxSeries(1, F(4), ((F(0), F(2)), (F(1), F(-3)))))
        assert s.terms == tuple((F(k), F(3**k, 2 ** (k + 1))) for k in range(4))
        assert s.den == 16
