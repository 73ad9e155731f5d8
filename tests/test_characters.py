from fractions import Fraction as F

import pytest

from qserieslab import (
    CharLabel,
    EmptySeriesError,
    InvalidLabelError,
    UnknownNameError,
    central_charge,
    compare,
    conformal_weight,
    lowest_weight_from_char,
    minimal_char,
    named_series,
    parse_expression,
    sub,
    substitute,
    substitute_signed,
    truncate,
    zero,
)
from qserieslab.verify import evaluate
from oracles import minimal_char_offsets, residue_parts


class TestWeights:
    @pytest.mark.parametrize("s,t,c", [(2, 5, F(-22, 5)), (5, 6, F(4, 5)), (3, 4, F(1, 2))])
    def test_central_charge(self, s, t, c):
        assert central_charge(s, t) == c

    def test_central_charge_rejects_common_factor(self):
        with pytest.raises(InvalidLabelError):
            central_charge(4, 6)

    @pytest.mark.parametrize(
        "label,h",
        [
            (CharLabel(5, 6, 1, 2), F(1, 8)),
            (CharLabel(5, 6, 2, 2), F(1, 40)),
            (CharLabel(5, 6, 1, 5), F(3)),
            (CharLabel(5, 6, 2, 3), F(1, 15)),
        ],
    )
    def test_conformal_weight(self, label, h):
        assert conformal_weight(label) == h

    @pytest.mark.parametrize("s,t", [(2, 5), (5, 6), (3, 4), (7, 2)])
    def test_vacuum_weight_vanishes(self, s, t):
        assert conformal_weight(CharLabel(s, t, 1, 1)) == 0

    @pytest.mark.parametrize("args", [(1, 5, 1, 1), (4, 6, 1, 1), (5, 6, 5, 1), (5, 6, 0, 1), (5, 6, 1, 6)])
    def test_invalid_labels(self, args):
        with pytest.raises(InvalidLabelError):
            CharLabel(*args)


class TestMinimalChar:
    def test_vacuum_56_against_oracle(self):
        lead = F(-1, 30)
        s = minimal_char(CharLabel(5, 6, 1, 1), lead + 12)
        expected = minimal_char_offsets(5, 6, 1, 1, 12)
        assert [s.coefficient(lead + k) for k in range(12)] == expected
        assert expected[:5] == [1, 0, 1, 1, 2]

    @pytest.mark.parametrize("label", [(2, 5, 1, 2), (3, 4, 2, 2), (7, 2, 3, 1), (11, 13, 5, 7)])
    def test_large_linear_terms_against_oracle(self, label):
        lead = conformal_weight(CharLabel(*label)) - central_charge(*label[:2]) / 24
        s = minimal_char(CharLabel(*label), lead + 60)
        assert all((e - lead).denominator == 1 for e, _ in s.terms)
        assert [s.coefficient(lead + k) for k in range(60)] == minimal_char_offsets(*label, 60)

    def test_leading_exponent_from_weight(self):
        s = minimal_char(CharLabel(5, 6, 1, 5), F(4))
        assert s.leading_exponent == F(3) - F(1, 30)

    def test_rogers_ramanujan_product_forms(self):
        for variant, label in ((1, CharLabel(2, 5, 1, 1)), (2, CharLabel(2, 5, 1, 2))):
            lead = F(11, 60) if variant == 1 else F(-1, 60)
            order = lead + 60
            assert compare(minimal_char(label, order), named_series(f"rr:{variant}", order), order) is None

    def test_nonnegative_integer_coefficients(self):
        for label in (CharLabel(5, 6, 2, 3), CharLabel(3, 4, 1, 2), CharLabel(2, 7, 1, 3)):
            s = minimal_char(label, F(30))
            assert all(c.denominator == 1 and c > 0 for _, c in s.terms)

    def test_order_below_leading_exponent(self):
        assert minimal_char(CharLabel(5, 6, 1, 5), F(1)).is_zero


def _expression(text, order):
    return evaluate(parse_expression(text), order)


class TestRRProduct:
    def test_variant_one_coefficients(self):
        out = named_series("rr:1", F(11, 60) + 8)
        assert [out.coefficient(F(11, 60) + k) for k in range(8)] == residue_parts(5, (2, 3), 7)

    def test_variant_two_coefficients(self):
        out = named_series("rr:2", F(-1, 60) + 6)
        expected = residue_parts(5, (1, 4), 5)
        assert [out.coefficient(F(-1, 60) + k) for k in range(6)] == expected
        assert expected == [1, 1, 1, 1, 2, 2]

    def test_variant_two_leading_exponent(self):
        assert named_series("rr:2", F(5)).leading_exponent == F(-1, 60)

    def test_unknown_variant(self):
        # the grammar knows rr:1 and rr:2 only: rr:3 fails to parse
        with pytest.raises(ValueError, match="unexpected character"):
            parse_expression("rr:3")


class TestA22Char:
    def test_basic_leading_exponent(self):
        assert named_series("a22:basic", F(6)).leading_exponent == F(-1, 72)

    def test_two_lambda1_leading_exponent(self):
        assert named_series("a22:2L1", F(6)).leading_exponent == F(-7, 360)

    def test_lambda0_leading_exponent(self):
        assert named_series("a22:L0", F(6)).leading_exponent == F(77, 360)

    def test_basic_counts_residue_parts_of_sixths(self):
        s = named_series("a22:basic", F(-1, 72) + F(10, 6))
        counts = residue_parts(6, (1, 5), 9)
        assert [s.coefficient(F(-1, 72) + F(k, 6)) for k in range(10)] == counts

    def test_grading_divides_360(self):
        for module in ("basic", "2L1", "L0"):
            assert 360 % named_series(f"a22:{module}", F(8)).grading == 0


class TestWChar:
    def test_tau_modules_are_rescaled_25_characters(self):
        w40 = named_series("w:tau1/40", F(50))
        assert compare(w40, substitute(minimal_char(CharLabel(2, 5, 1, 2), F(100)), F(1, 2)), 50) is None
        w8 = named_series("w:tau1/8", F(50))
        assert compare(w8, substitute(minimal_char(CharLabel(2, 5, 1, 1), F(100)), F(1, 2)), 50) is None

    def test_vacuum_leading_term(self):
        s = named_series("w:0", F(5))
        assert s.terms[0] == (F(-1, 30), F(1))

    def test_pair_decompositions(self):
        lhs = named_series("w:2/5", F(20))
        rhs = minimal_char(CharLabel(5, 6, 2, 1), F(20)) + minimal_char(CharLabel(5, 6, 2, 5), F(20))
        assert lhs == rhs


class TestTwistedTrace:
    """The graded traces under the order-two automorphism, as (5,6) sums and
    differences: the second character of a twisted pair enters with sign
    (-1)^epsilon; W0 and W2/5 have only an untwisted-sector trace."""

    def test_epsilon_zero_matches_sqrt_rescale(self):
        lhs = _expression("chi:5,6,1,2 + chi:5,6,1,4", F(30))
        rhs = substitute(minimal_char(CharLabel(2, 5, 1, 1), F(60)), F(1, 2))
        assert compare(lhs, rhs, 30) is None

    def test_untwisted_sector_matches_square_rescale(self):
        lhs = _expression("chi:5,6,1,1 - chi:5,6,1,5", F(30))
        rhs = substitute(minimal_char(CharLabel(2, 5, 1, 2), F(15)), F(2))
        assert compare(lhs, rhs, 30) is None

    def test_epsilon_one_matches_signed_substitution(self):
        lhs = _expression("chi:5,6,2,2 - chi:5,6,2,4", F(30))
        rhs = substitute_signed(minimal_char(CharLabel(2, 5, 1, 2), F(60)), F(1, 2))
        assert compare(lhs, rhs, 30) is None

    def test_epsilon_flips_odd_offsets(self):
        plus = named_series("w:tau1/40", F(10))
        minus = _expression("chi:5,6,2,2 - chi:5,6,2,4", F(10))
        diff = sub(plus, minus)
        doubled = minimal_char(CharLabel(5, 6, 2, 4), F(10))
        assert dict(diff.terms) == {e: 2 * c for e, c in doubled.terms}


class TestLowestWeight:
    def test_coset_weights(self):
        half = substitute(minimal_char(CharLabel(2, 5, 1, 1), F(4)), F(1, 2))
        assert lowest_weight_from_char(half, F(4, 5)) == F(1, 8)
        half2 = substitute(minimal_char(CharLabel(2, 5, 1, 2), F(4)), F(1, 2))
        assert lowest_weight_from_char(half2, F(4, 5)) == F(1, 40)

    def test_twisted_weights(self):
        assert lowest_weight_from_char(named_series("a22:basic", F(2)), F(2)) == F(5, 72)
        assert lowest_weight_from_char(named_series("a22:2L1", F(2)), F(16, 5)) == F(41, 360)

    def test_empty_rejected(self):
        with pytest.raises(EmptySeriesError):
            lowest_weight_from_char(zero(5), F(4, 5))


class TestNamedSeries:
    def test_chi_name(self):
        assert named_series("chi:2,5,1,1", F(2)) == minimal_char(CharLabel(2, 5, 1, 1), F(2))

    def test_suffix_substitute(self):
        out = named_series("chi:2,5,1,1@q^1/2", F(10))
        assert out == substitute(minimal_char(CharLabel(2, 5, 1, 1), F(20)), F(1, 2))

    def test_suffix_signed(self):
        out = named_series("chi:2,5,1,2@-q^1/2", F(10))
        assert out == substitute_signed(minimal_char(CharLabel(2, 5, 1, 2), F(20)), F(1, 2))

    def test_families(self):
        # each prelude name is its definition, cut at the order
        for name, text in (
            ("rr:1", "mono(1,11/60) * prod(1,2,5,-1, 1,3,5,-1)"),
            ("a22:2L1", "mono(1,-1/72) * prod(1,1/6,1,-1, 1,5/6,1,-1) * sub(chi:2,5,1,2, 1/3)"),
            ("w:tau1/8", "chi:5,6,1,2 + chi:5,6,1,4"),
        ):
            assert named_series(name, F(3)) == truncate(_expression(text, F(3)), 3), name
        assert not named_series("fkw", F(3)).is_zero

    def test_suffix_parses_to_substitution_of_the_base(self):
        assert parse_expression("a22:L0@q^2/3") == parse_expression("sub(a22:L0, 2/3)")
        assert parse_expression("rr:2@-q^1/2") == parse_expression("subsigned(rr:2, 1/2)")

    @pytest.mark.parametrize(
        "bad",
        [
            "chi:2,5,1",
            "chi:4,6,1,1",
            "rr:3",
            "a22:foo",
            "w:1/15+",
            "chi:2,5,1,1@q^",
            "phi",
            "chi:2,5,1,1@q^-2",
            "rr:1@q^0",
            "rr:1@-q^0/3",
            "rr:1@q^1/0",
            "fkw@q^00",
            "chi:2,4,1,1",
            "rr:1 + rr:2",
            "w:2/5+",
        ],
    )
    def test_unknown_names_rejected(self, bad):
        with pytest.raises(UnknownNameError):
            named_series(bad, F(5))
