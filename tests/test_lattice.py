from fractions import Fraction as F

import pytest

from qserieslab import (
    ALPHA1,
    ALPHA2,
    RHO,
    CharLabel,
    RootVector,
    ThetaBranch,
    ThetaSumSpec,
    WeylElement,
    compare,
    euler_phi,
    fkw_character,
    gram,
    invert,
    minimal_char,
    mul,
    theta_sum,
    weyl_group,
)
from qserieslab import lattice
from qserieslab.series import monomial
from oracles import fkw_offsets, pentagonal_sum


class TestGram:
    def test_simple_root_norms(self):
        assert gram(ALPHA1, ALPHA1) == 2
        assert gram(ALPHA2, ALPHA2) == 2

    def test_off_diagonal(self):
        assert gram(ALPHA1, ALPHA2) == -1

    def test_rho_norm(self):
        assert gram(RHO, RHO) == 2

    def test_bilinearity(self):
        u = RootVector(F(1, 2), F(-3))
        v = RootVector(F(2), F(5, 7))
        w = RootVector(F(-1), F(1))
        assert gram(u + v, w) == gram(u, w) + gram(v, w)
        assert gram(u.scaled(F(3, 2)), v) == F(3, 2) * gram(u, v)


class TestWeylGroup:
    def test_six_elements(self):
        group = weyl_group()
        assert len(group) == 6
        assert len({w.matrix for w in group}) == 6

    def test_identity_first(self):
        e = weyl_group()[0]
        assert e.matrix == ((1, 0), (0, 1))
        assert e.sign == 1

    def test_simple_reflection(self):
        s1 = weyl_group()[1]
        assert s1.apply(ALPHA1) == ALPHA1.scaled(-1)
        assert s1.apply(ALPHA2) == ALPHA1 + ALPHA2
        assert s1.sign == -1

    def test_closure_and_sign_homomorphism(self):
        group = weyl_group()
        matrices = {w.matrix: w for w in group}
        for a in group:
            for b in group:
                prod = a.compose(b)
                assert prod.matrix in matrices
                assert prod.sign == a.sign * b.sign

    def test_gram_preservation(self):
        probes = [RootVector(F(1), F(0)), RootVector(F(0), F(1)), RootVector(F(2), F(-3))]
        for w in weyl_group():
            for u in probes:
                for v in probes:
                    assert gram(w.apply(u), w.apply(v)) == gram(u, v)

    def test_invalid_element_rejected(self):
        with pytest.raises(ValueError):
            WeylElement(((1, 0), (0, 1)), -1)
        with pytest.raises(ValueError):
            WeylElement(((1, 1), (0, 1)), 1)


class TestFkwCharacter:
    def test_displayed_leading_coefficients(self):
        s = fkw_character(F(6))
        lead = F(-1, 30)
        assert s.leading_exponent == lead
        assert [s.coefficient(lead + k) for k in range(5)] == [1, 0, 1, 2, 3]

    def test_no_linear_term(self):
        assert fkw_character(F(4)).coefficient(F(-1, 30) + 1) == 0

    def test_equals_character_sum_to_50(self):
        fk = fkw_character(F(50))
        chars = minimal_char(CharLabel(5, 6, 1, 1), F(50)) + minimal_char(CharLabel(5, 6, 1, 5), F(50))
        assert compare(fk, chars, 50) is None

    @pytest.mark.parametrize("order", [F(1, 2), F(97, 6), F(25), F(-1, 30) + 40, F(200)])
    def test_no_lattice_point_outside_the_n_window_is_below_the_order(self, monkeypatch, order):
        specs = []

        def spy(spec, o):
            specs.append(spec)
            return theta_sum(spec, o)

        monkeypatch.setattr(lattice, "theta_sum", spy)
        fkw_character.cache_clear()
        fkw_character(order)
        # one branch per Weyl element and n in [-bound, bound]
        (spec,) = specs
        bound = (len(spec.branches) // len(weyl_group()) - 1) // 2
        shifted_order = order + F(1, 12)
        for w in weyl_group():
            for n in (bound + 1, bound + 2, bound + 3, -bound - 1, -bound - 2, -bound - 3):
                # |n*alpha1 + m*alpha2|^2 = n^2 + m^2 + (n - m)^2 only grows for |m| past 3|n| + 3
                for m in range(-3 * abs(n) - 3, 3 * abs(n) + 4):
                    v = w.apply(RHO).scaled(5) + ALPHA1.scaled(20 * n) + ALPHA2.scaled(20 * m) - RHO.scaled(4)
                    assert gram(v, v) / 40 >= shifted_order

    @pytest.mark.parametrize("steps", [12, 40])
    def test_against_lattice_oracle(self, steps):
        lead = F(-1, 30)
        s = fkw_character(lead + steps)
        assert all((e - lead).denominator == 1 for e, _ in s.terms)
        assert [s.coefficient(lead + k) for k in range(steps)] == fkw_offsets(steps)

    def test_summand_exponents_bounded_below(self):
        # observed minimum equals the leading exponent
        assert fkw_character(F(40)).leading_exponent == F(-1, 30)


class TestThetaSum:
    def test_pentagonal_fold(self):
        # (-1)^k q^(k(3k-1)/2) folded over even/odd k into two branches
        spec = ThetaSumSpec(F(6), (ThetaBranch(F(-1), F(0), 1), ThetaBranch(F(5), F(1), -1)))
        out = theta_sum(spec, F(40))
        assert {int(e): int(c) for e, c in out.terms} == pentagonal_sum(40)
        assert compare(out, euler_phi(F(40)), 40) is None

    def test_empty_branches(self):
        assert theta_sum(ThetaSumSpec(F(1), ()), F(10)).is_zero

    def test_appendix_sum_against_character_pair(self):
        spec = ThetaSumSpec(
            F(30),
            (
                ThetaBranch(F(-4), F(0), 1),
                ThetaBranch(F(16), F(2), -1),
                ThetaBranch(F(-14), F(3, 2), 1),
                ThetaBranch(F(26), F(11, 2), -1),
            ),
        )
        lhs = mul(
            mul(monomial(1, F(11, 120), 120, F(41)), theta_sum(spec, F(41))),
            invert(euler_phi(F(41))),
        )
        rhs = minimal_char(CharLabel(5, 6, 1, 2), F(40)) + minimal_char(CharLabel(5, 6, 1, 4), F(40))
        assert compare(lhs, rhs, 40) is None

    def test_nonpositive_quadratic_rejected(self):
        with pytest.raises(ValueError):
            ThetaSumSpec(F(0), (ThetaBranch(F(1), F(0), 1),))

    def test_large_linear_term_window(self):
        # vertex far from zero: the window logic must still catch every term
        spec = ThetaSumSpec(F(1, 2), (ThetaBranch(F(-10), F(0), 1),))
        out = theta_sum(spec, F(5))
        expected = {}
        for m in range(-100, 100):
            e = F(m * m, 2) - 10 * m
            if e < 5:
                expected[e] = expected.get(e, 0) + 1
        assert dict(out.terms) == {e: F(c) for e, c in expected.items() if c}
