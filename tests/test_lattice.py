from fractions import Fraction as F

import pytest

from qserieslab import (
    CharLabel,
    compare,
    euler_phi,
    fkw_character,
    invert,
    minimal_char,
    mul,
    theta_sum,
)
from qserieslab import lattice
from qserieslab.series import monomial
from qserieslab.verify import evaluate, parse_expression
from oracles import (
    A2_GRAM,
    a2_norm,
    a2_reflection,
    a2_weyl_group,
    det,
    fkw_offsets,
    mat_mul,
    pentagonal_sum,
    rho_image,
    transpose,
)


class TestGram:
    def test_simple_root_norms(self):
        assert a2_norm(1, 0) == a2_norm(0, 1) == 2

    def test_off_diagonal(self):
        assert A2_GRAM[0][1] == A2_GRAM[1][0] == -1
        # |alpha1 + alpha2|^2 = 2 + 2 - 2
        assert a2_norm(1, 1) == a2_norm(1, 0) + a2_norm(0, 1) + 2 * A2_GRAM[0][1]

    def test_rho_norm(self):
        # every w(rho) in fkw_character's table is a root, like rho itself
        assert a2_norm(1, 1) == 2
        assert [a2_norm(*image) for image, _ in lattice._RHO_IMAGES] == [2] * 6


class TestWeylGroup:
    def test_six_elements(self):
        assert len(a2_weyl_group()) == 6
        assert len(lattice._RHO_IMAGES) == len({image for image, _ in lattice._RHO_IMAGES}) == 6

    def test_identity_first(self):
        assert ((1, 0), (0, 1)) in a2_weyl_group()
        assert lattice._RHO_IMAGES[0] == ((1, 1), 1)

    def test_simple_reflection(self):
        s1 = a2_reflection(0)
        assert s1 == ((-1, 1), (0, 1))  # alpha1 -> -alpha1, alpha2 -> alpha1 + alpha2
        assert det(s1) == -1
        assert (rho_image(s1), -1) in lattice._RHO_IMAGES

    def test_closure_and_sign_homomorphism(self):
        group = a2_weyl_group()
        for a in group:
            for b in group:
                assert mat_mul(a, b) in group
                assert det(mat_mul(a, b)) == det(a) * det(b)

    def test_gram_preservation(self):
        for w in a2_weyl_group():
            assert mat_mul(transpose(w), mat_mul(A2_GRAM, w)) == A2_GRAM

    def test_invalid_element_rejected(self):
        # the checks are not vacuous: a shear of det 1 fails the form and
        # lies outside the group, and signs other than det w break the table
        shear = ((1, 1), (0, 1))
        assert det(shear) == 1 and mat_mul(transpose(shear), mat_mul(A2_GRAM, shear)) != A2_GRAM
        assert shear not in a2_weyl_group()
        assert set(lattice._RHO_IMAGES) != {(rho_image(w), 1) for w in a2_weyl_group()}


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
        calls = []

        def spy(grid, quad, branches, o):
            calls.append(branches)
            return theta_sum(grid, quad, branches, o)

        monkeypatch.setattr(lattice, "theta_sum", spy)
        fkw_character.cache_clear()
        fkw_character(order)
        # one branch per Weyl element and n in [-bound, bound]
        (branches,) = calls
        group = a2_weyl_group()
        bound = (len(branches) // len(group) - 1) // 2
        shifted_order = order + F(1, 12)
        for w in group:
            a, b = rho_image(w)
            for n in (bound + 1, bound + 2, bound + 3, -bound - 1, -bound - 2, -bound - 3):
                # |n*alpha1 + m*alpha2|^2 = n^2 + m^2 + (n - m)^2 only grows for |m| past 3|n| + 3
                for m in range(-3 * abs(n) - 3, 3 * abs(n) + 4):
                    # v = 5w(rho) + 20n*alpha1 + 20m*alpha2 - 4rho
                    assert F(a2_norm(5 * a + 20 * n - 4, 5 * b + 20 * m - 4), 40) >= shifted_order

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
        out = theta_sum(1, 6, ((-1, 0, 1), (5, 1, -1)), F(40))
        assert {int(e): int(c) for e, c in out.terms} == pentagonal_sum(40)
        assert compare(out, euler_phi(F(40)), 40) is None

    def test_empty_branches(self):
        assert theta_sum(1, 1, (), F(10)).is_zero

    def test_appendix_sum_against_character_pair(self):
        # theta(30, -4,0,1, 16,2,-1, -14,3/2,1, 26,11/2,-1) on the grid 2
        theta = theta_sum(2, 60, ((-8, 0, 1), (32, 4, -1), (-28, 3, 1), (52, 11, -1)), F(41))
        assert evaluate(parse_expression("theta(30, -4,0,1, 16,2,-1, -14,3/2,1, 26,11/2,-1)"), F(41)) == theta
        lhs = mul(
            mul(monomial(1, F(11, 120), 120, F(41)), theta),
            invert(euler_phi(F(41))),
        )
        rhs = minimal_char(CharLabel(5, 6, 1, 2), F(40)) + minimal_char(CharLabel(5, 6, 1, 4), F(40))
        assert compare(lhs, rhs, 40) is None

    def test_nonpositive_quadratic_rejected(self):
        # raised before the loop, which would not end without it, and for
        # the theta form at parse time
        for grid, quad in [(1, 0), (1, -3), (0, 1), (-2, 1)]:
            with pytest.raises(ValueError, match="quadratic coefficient must be positive"):
                theta_sum(grid, quad, ((1, 0, 1),), F(10))
        for text in ("theta(0, 1,0,1)", "theta(-3/2, 1,0,1)"):
            with pytest.raises(ValueError, match="quadratic coefficient must be positive"):
                parse_expression(text)

    def test_large_linear_term_window(self):
        # vertex far from zero: the window logic must still catch every term
        out = theta_sum(2, 1, ((-20, 0, 1),), F(5))
        expected = {}
        for m in range(-100, 100):
            e = F(m * m, 2) - 10 * m
            if e < 5:
                expected[e] = expected.get(e, 0) + 1
        assert dict(out.terms) == {e: F(c) for e, c in expected.items() if c}
