import math
from fractions import Fraction as F

import pytest

from qserieslab import (
    BivariateSeries,
    InsufficientWindowError,
    bivariate_from_layers,
    compare_bivariate,
    euler_phi,
    expand_product,
    invert,
    monomial,
    mul,
    quintuple_lhs,
    quintuple_rhs,
    specialize,
    theta_sum,
)
from qserieslab import bivariate
from qserieslab.bivariate import (
    COMPLETE_SUPPORT,
    QUINTUPLE_FLOOR,
    FloorBranch,
    add_bivariate,
    bivariate_theta,
)
from qserieslab.products import ProductFactor
from qserieslab.products import _times_family as times_family
from qserieslab.series import _unpack as unpack
from oracles import family_product, quintuple_product_layers


def quintuple_layer_oracle(k: int, top: int) -> dict[int, int]:
    """Direct enumeration of the series side at layer z^k."""
    out: dict[int, int] = {}
    for m in range(-50, 51):
        if 3 * m + 1 == k:
            e = 3 * m * m + m
            if e < top:
                out[e] = out.get(e, 0) + (1 if m % 2 == 0 else -1)
        if 3 * m == k:
            e = 3 * m * m - m
            if e < top:
                out[e] = out.get(e, 0) + (1 if m % 2 == 0 else -1)
    return {e: c for e, c in out.items() if c}


class TestQuintupleLHS:
    def test_layer_zero_alternating(self):
        lhs = quintuple_lhs(F(12), (-12, 12))
        layer = lhs.layer(0)
        assert {int(e): int(c) for e, c in layer.terms} == quintuple_layer_oracle(0, 12)

    def test_every_window_layer_matches_enumeration(self):
        lhs = quintuple_lhs(F(30), (-10, 10))
        for k in range(-10, 11):
            assert {int(e): int(c) for e, c in lhs.layer(k).terms} == quintuple_layer_oracle(k, 30)

    def test_z1_constant_term(self):
        lhs = quintuple_lhs(F(5), (-2, 2))
        assert lhs.layer(1).coefficient(0) == 1

    def test_z2_layer_vanishes(self):
        assert quintuple_lhs(F(30), (-5, 5)).layer(2).is_zero


class TestQuintupleRHS:
    def test_constant_layer_is_one_plus_z(self):
        rhs = quintuple_rhs(F(8), (-6, 6))
        for k in range(-6, 7):
            expected = F(1) if k in (0, 1) else F(0)
            assert rhs.layer(k).coefficient(0) == expected

    @pytest.mark.parametrize("window,order", [((-15, 15), 20), ((-25, 25), 30)])
    def test_identity_windows(self, window, order):
        lhs = quintuple_lhs(F(order), window)
        rhs = quintuple_rhs(F(order), window)
        assert compare_bivariate(lhs, rhs, order) is None


class TestQuintupleRHSOracle:
    # (-60, 60) is wider than the support at 240, so a layer aliased past the
    # z-bound shows; orders <= 0 have no terms at all
    @pytest.mark.parametrize("window", [(-6, 6), (-25, 25), (-3, 10), (-60, 60), (5, 9), (-9, -5)])
    @pytest.mark.parametrize(
        "order",
        [F(8), F(37, 2), F(1308, 5), F(240), F(0), F(-2), F(1, 2), F(1), F(2), F(3), F(99), F(101), F(1307, 5)],
    )
    def test_matches_brute_force_product(self, order, window):
        rhs = quintuple_rhs(order, window)
        assert (rhs.order, rhs.zmin, rhs.zmax) == (order, *window)
        layers = {k: dict(layer.terms) for k, layer in rhs.layers}
        assert layers == quintuple_product_layers(order, window)


class TestQuintupleRHSLayout:
    # Every q-exponent is even, so the product is laid out in Q = q^2 as half
    # integer rows, half = ceil(ceil(o)/2), row E holding the z-polynomial of
    # Q^E at z = 2^w: the five families run over the rows with strides 1 and
    # 2 and in-row shifts of dz*w bits, after the five passes of the width's
    # majorant over the same number of entries.
    @pytest.mark.parametrize("order", [F(1, 2), F(1), F(2), F(3), F(37, 2), F(99), F(101), F(1307, 5)])
    def test_q_squared_layout(self, monkeypatch, order):
        calls = []

        def spy(f, s, a, d, euler, shift=0):
            calls.append((len(f), s, a, d, shift))
            return times_family(f, s, a, d, euler, shift)

        monkeypatch.setattr(bivariate, "_times_family", spy)
        quintuple_rhs(order, (-6, 6))
        half = -(-math.ceil(order) // 2)
        w = calls[6][4]
        assert len(calls) == 10 and w > 0 and w % 8 == 0
        assert calls[:5] == [(half, -1, 1, d, 0) for d in (1, 1, 2, 1, 2)]
        assert calls[5:] == [
            (half, s, 1, d, dz * w) for s, d, dz in ((1, 1, 0), (-1, 1, 1), (1, 2, 2), (-1, 1, -1), (1, 2, -2))
        ]

    def test_unpacks_only_rows_with_a_nonzero_window_digit(self, monkeypatch):
        # at order 600 the window (-25, 25) holds a term in 17 of the 300 rows,
        # those of q^(3m^2 - m) for |m| <= 8, each on two layers: no other row
        # is unpacked
        calls = []

        def spy(n, nbytes, count):
            calls.append(count)
            return unpack(n, nbytes, count)

        monkeypatch.setattr(bivariate, "_unpack", spy)
        b = quintuple_rhs(F(600), (-25, 25))
        assert calls == [51] * 17
        assert len({e for _, layer in b.layers for e in layer.exps}) == 17

    def test_digit_width_holds_the_majorant(self):
        # QPI's coefficients are all 0 or +-1, so no output shows a width too
        # narrow for the intermediate sums: w itself is pinned against
        # M = 2 * prod (1+Q^n)^3 (1+Q^(2n-1))^2, the product with every sign
        # positive at z = 1, whose coefficients bound the sum of |c| over a row
        positive = ((-1, 1, 0, 1),) * 3 + ((-1, 1, 0, 2),) * 2
        narrowest = set()
        for half in range(1, 121):
            top = max(family_product({(0, 0): 2}, positive, half).values())
            w = bivariate._digit_width(half)
            assert w % 8 == 0 and 2 ** (w - 9) <= top < 2 ** (w - 1)
            narrowest.add(top.bit_length() % 8)
        # at some half the bit length is a multiple of 8, so there
        # 8*ceil(bits/8), which leaves no room for the digit's sign, is too narrow
        assert 0 in narrowest


class TestBivariateTheta:
    def test_reindexing_reproduces_lhs_exactly(self):
        branches = (
            (1, FloorBranch(12, 2, 0, 6, 1)),
            (-1, FloorBranch(12, 14, 4, 6, 4)),
            (1, FloorBranch(12, -2, 0, 6, 0)),
            (-1, FloorBranch(12, 10, 2, 6, 3)),
        )
        window = (-20, 20)
        four = bivariate_theta(branches, F(40), window)
        lhs = quintuple_lhs(F(40), window)
        assert compare_bivariate(four, lhs, 40) is None
        assert {k for k, _ in four.layers} == {k for k, _ in lhs.layers}

    def test_floor_derived_for_shared_step(self):
        four = bivariate_theta(((1, FloorBranch(3, -1, 0, 3, 0)), (1, FloorBranch(3, 1, 0, 3, 1))), F(10), (-5, 5))
        assert four.floor == QUINTUPLE_FLOOR

    def test_floor_is_its_branches_once_each(self):
        # mixed z-steps, an offset past the step, and a branch repeated with
        # the other sign all keep their own shape
        branches = (
            (1, FloorBranch(12, 2, 0, 6, 1)),
            (1, FloorBranch(12, 2, 0, 3, 7)),
            (-1, FloorBranch(12, 2, 0, 6, 1)),
        )
        theta = bivariate_theta(branches, F(10), (-5, 5))
        assert theta.floor == (FloorBranch(12, 2, 0, 6, 1), FloorBranch(12, 2, 0, 3, 7))
        assert bivariate_theta((), F(10), (-5, 5)).floor == COMPLETE_SUPPORT

    @pytest.mark.parametrize("shape", [(0, 1, 0, 3, 0), (-1, 1, 0, 3, 0), (1, 0, 0, 0, 0), (1, 0, 0, -2, 0)])
    def test_floor_branch_needs_positive_quad_and_step(self, shape):
        with pytest.raises(ValueError):
            FloorBranch(*shape)


class TestCompare:
    def test_mismatch_reports_layer(self):
        a = bivariate_from_layers({0: monomial(1, 0, 1, 10)}, (0, 1), F(10))
        b = bivariate_from_layers({1: monomial(2, 3, 1, 10)}, (0, 1), F(10))
        m = compare_bivariate(a, b, 10)
        assert (m.z_exponent, m.exponent, m.lhs, m.rhs) == (0, F(0), F(1), F(0))

    @pytest.mark.parametrize("window", [(5, 7), (-3, 0), (-3, 7)])
    def test_different_windows_rejected(self, window):
        # layers outside either window are unknown: no overlap, partial or
        # empty, may stand for the comparison
        a = quintuple_lhs(F(10), (-3, -1))
        b = quintuple_rhs(F(10), window)
        with pytest.raises(ValueError, match="identical z-windows"):
            compare_bivariate(a, b, 10)
        with pytest.raises(ValueError, match="identical z-windows"):
            compare_bivariate(b, a, 10)

    def test_insufficient_order(self):
        a = bivariate_from_layers({}, (0, 0), F(5))
        from qserieslab import InsufficientOrderError

        with pytest.raises(InsufficientOrderError):
            compare_bivariate(a, a, 6)


class TestSpecialize:
    def test_pure_z0_series_unchanged(self):
        inner = invert(euler_phi(F(12)))
        b = bivariate_from_layers({0: inner}, (0, 0), F(12), COMPLETE_SUPPORT)
        assert specialize(b, 1, F(-3, 2)) == inner

    def test_rescale_only(self):
        inner = invert(euler_phi(F(12)))
        b = bivariate_from_layers({0: inner}, (0, 0), F(12), COMPLETE_SUPPORT)
        out = specialize(b, F(1, 2), 0)
        assert dict(out.terms) == {e / 2: c for e, c in inner.terms}

    def test_missing_floor_rejected(self):
        b = bivariate_from_layers({0: monomial(1, 0, 1, 10)}, (0, 0), F(10))
        with pytest.raises(InsufficientWindowError):
            specialize(b, F(5, 2), F(-3, 2))

    def test_chain_reproduces_four_branch_theta(self):
        lhs = quintuple_lhs(F(30), (-25, 25))
        collapsed = specialize(lhs, F(5, 2), F(-3, 2))
        shifted = mul(monomial(1, F(3, 2), 2, collapsed.order + F(3, 2)), collapsed)
        assert shifted.order >= 25
        # theta(30, -4,0,1, 16,2,-1, -14,3/2,1, 26,11/2,-1) on the grid 2
        theta = theta_sum(2, 60, ((-8, 0, 1), (32, 4, -1), (-28, 3, 1), (52, 11, -1)), shifted.order)
        from qserieslab import compare

        assert compare(shifted, theta, shifted.order) is None

    def test_chain_reproduces_specialized_product(self):
        rhs = quintuple_rhs(F(30), (-25, 25))
        collapsed = specialize(rhs, F(5, 2), F(-3, 2))
        shifted = mul(monomial(1, F(3, 2), 2, collapsed.order + F(3, 2)), collapsed)
        easy = (
            ProductFactor(-1, F(3, 2), F(5), 1),
            ProductFactor(1, F(5), F(5), 1),
            ProductFactor(1, F(2), F(10), 1),
            ProductFactor(1, F(8), F(10), 1),
            ProductFactor(-1, F(7, 2), F(5), 1),
        )
        from qserieslab import compare

        assert compare(shifted, expand_product(easy, shifted.order), shifted.order) is None

    def test_certified_order_accounts_for_window_edge(self):
        lhs = quintuple_lhs(F(30), (-25, 25))
        out = specialize(lhs, F(5, 2), F(-3, 2))
        # included layers: 5/2*30 - 3/2*25; excluded layers lie far higher
        assert out.order == F(5, 2) * 30 - F(3, 2) * 25

    def test_narrow_window_caps_certification(self):
        lhs = quintuple_lhs(F(30), (-2, 2))
        out = specialize(lhs, F(5, 2), F(-3, 2))
        # the first excluded layer is z^3 = z^(3*1) with floor exponent 2
        assert out.order == F(5, 2) * 2 + 3 * F(-3, 2)

    def test_offset_is_not_reduced_by_the_step(self):
        # z^(2m + 5) at m = 0 is z^5, outside the window, with floor q^0; read
        # as z^(2m + 1) it would be z^1, inside it
        b = bivariate_from_layers({}, (-1, 1), F(10), (FloorBranch(1, 0, 0, 2, 5),))
        assert specialize(b, 1, 0).order == 0
        below = bivariate_from_layers({}, (-1, 1), F(10), (FloorBranch(1, 0, 0, 2, -5),))
        assert specialize(below, 1, 0).order == 0

    def test_sum_keeps_union_of_floors(self):
        window = (-7, 7)
        wanted3 = bivariate_theta(((1, FloorBranch(12, 2, 0, 6, 1)), (1, FloorBranch(12, -2, 0, 6, 0))), F(12), window)
        both = add_bivariate(quintuple_lhs(F(12), window), wanted3)
        assert both.floor == QUINTUPLE_FLOOR + wanted3.floor
        unknown = bivariate_from_layers({}, window, F(12))
        assert add_bivariate(both, unknown).floor is None

    def test_commutes_with_addition(self):
        window = (-7, 7)
        a = quintuple_lhs(F(12), window)
        b = quintuple_lhs(F(12), window)
        both = specialize(add_bivariate(a, b), F(5, 2), F(-3, 2))
        separate = specialize(a, F(5, 2), F(-3, 2)) + specialize(b, F(5, 2), F(-3, 2))
        from qserieslab import compare

        shared = min(both.order, separate.order)
        assert compare(both, separate, shared) is None


class TestInvariants:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            BivariateSeries(3, 1, F(5), ())

    def test_layer_outside_window_rejected(self):
        with pytest.raises(ValueError):
            bivariate_from_layers({4: monomial(1, 0, 1, 5)}, (0, 2), F(5))

    def test_layer_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BivariateSeries(0, 1, F(5), ((0, monomial(1, 0, 1, 7)),))
