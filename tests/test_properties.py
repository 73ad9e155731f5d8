"""Randomized invariant suites (fixed-seed via the derandomized profile)."""

from fractions import Fraction as F
from math import lcm
from unittest.mock import patch

from hypothesis import assume, example, given, strategies as st

import pytest

from qserieslab import (
    InsufficientOrderError,
    ProductFactor,
    ProductSpec,
    PuiseuxSeries,
    RootVector,
    add,
    discover,
    expand_product,
    euler_phi,
    from_text,
    gram,
    invert,
    monomial,
    mul,
    scale,
    substitute,
    substitute_signed,
    to_text,
    truncate,
    weyl_group,
    zero,
)
from qserieslab import series
from qserieslab.series import _build
from oracles import dict_mul, pentagonal_sum, product_offsets

nonzero_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(lambda x: x != 0)


@st.composite
def small_series(draw):
    grading = draw(st.integers(1, 6))
    numerators = draw(st.lists(st.integers(-12, 24), max_size=8, unique=True))
    coeffs = draw(
        st.lists(nonzero_fractions, min_size=len(numerators), max_size=len(numerators))
    )
    order = F(draw(st.integers(25, 30)))
    terms = tuple(sorted((F(k, grading), c) for k, c in zip(numerators, coeffs)))
    return PuiseuxSeries(grading, order, terms)


@st.composite
def integer_step_series(draw):
    grading = draw(st.integers(1, 6))
    lead = F(draw(st.integers(-12, 12)), grading)
    offsets = sorted(draw(st.sets(st.integers(1, 10), max_size=6)))
    coeffs = draw(
        st.lists(nonzero_fractions, min_size=len(offsets) + 1, max_size=len(offsets) + 1)
    )
    order = lead + draw(st.integers(12, 16))
    terms = [(lead, coeffs[0])] + [(lead + o, c) for o, c in zip(offsets, coeffs[1:])]
    return PuiseuxSeries(grading, order, tuple(terms))


ratios = st.sampled_from([F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(3)])


def assert_agree(x: PuiseuxSeries, y: PuiseuxSeries) -> None:
    shared = min(x.order, y.order)
    assert truncate(x, shared) == truncate(y, shared)


@given(small_series(), small_series(), small_series())
def test_add_associative_commutative(a, b, c):
    assert_agree(add(add(a, b), c), add(a, add(b, c)))
    assert add(a, b) == add(b, a)


@given(small_series(), small_series(), small_series())
def test_mul_associative(a, b, c):
    assert_agree(mul(mul(a, b), c), mul(a, mul(b, c)))


@given(small_series(), small_series())
def test_mul_commutative(a, b):
    assert mul(a, b) == mul(b, a)


@given(small_series(), small_series(), small_series())
def test_distributive(a, b, c):
    assert_agree(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))


@given(small_series())
def test_multiplicative_identity(a):
    one = monomial(1, 0, 1, a.order)
    assert_agree(mul(a, one), a)


@given(small_series())
def test_invert_round_trip(a):
    assume(not a.is_zero)
    product = mul(a, invert(a))
    assert product.terms == ((F(0), F(1)),)


@given(small_series(), small_series(), ratios)
def test_substitute_is_ring_homomorphism(a, b, r):
    assert_agree(substitute(mul(a, b), r), mul(substitute(a, r), substitute(b, r)))
    assert_agree(substitute(add(a, b), r), add(substitute(a, r), substitute(b, r)))


@given(integer_step_series(), integer_step_series(), ratios)
def test_substitute_signed_multiplicative(a, b, r):
    product = mul(a, b)
    assume(not product.is_zero)
    assert_agree(substitute_signed(product, r), mul(substitute_signed(a, r), substitute_signed(b, r)))


def assert_matches_oracle(product: PuiseuxSeries, a: PuiseuxSeries, b: PuiseuxSeries) -> None:
    lead_a = a.terms[0][0] if a.terms else 0
    lead_b = b.terms[0][0] if b.terms else 0
    assert product.order == min(a.order + lead_b, b.order + lead_a)
    assert dict(product.terms) == dict_mul(dict(a.terms), dict(b.terms), product.order)
    assert product.grading == lcm(*(e.denominator for e, _ in product.terms))


@given(
    st.one_of(
        st.tuples(small_series(), small_series()),
        st.tuples(integer_step_series(), integer_step_series()),
    )
)
def test_kronecker_mul_matches_dict_oracle(pair):
    # with no naive budget every product of nonzero operands takes the packed path
    a, b = pair
    with patch.object(series, "_NAIVE_LIMIT", 0):
        assert_matches_oracle(mul(a, b), a, b)


@given(small_series(), small_series())
def test_naive_mul_matches_dict_oracle(a, b):
    assert_matches_oracle(mul(a, b), a, b)


@given(small_series(), st.fractions(min_value=-14, max_value=32, max_denominator=6))
def test_truncate_is_the_canonical_prefix(a, order):
    if order > a.order:
        with pytest.raises(InsufficientOrderError):
            truncate(a, order)
    else:
        assert truncate(a, order) == _build(dict(a.terms), order)


factor_fractions = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
product_factors = st.tuples(
    st.sampled_from([1, -1]), factor_fractions, factor_fractions, st.sampled_from([-2, -1, 1, 2])
)


@given(
    st.lists(product_factors, min_size=1, max_size=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    nonzero_fractions,
    st.fractions(min_value=F(-1, 2), max_value=7, max_denominator=6),
)
# 1/(1+q^(3/2))^2 below q^(13/2): 13 half-steps end every stride in a partial block
@example([(-1, F(3, 2), F(1), -2)], F(0), F(1), F(13, 2))
def test_expand_product_matches_oracle(factors, prefactor_exponent, prefactor_coefficient, order):
    spec = ProductSpec(tuple(ProductFactor(*f) for f in factors), prefactor_exponent, prefactor_coefficient)
    out = expand_product(spec, order)
    assert out.order == order
    assert dict(out.terms) == product_offsets(factors, prefactor_exponent, prefactor_coefficient, order)


@given(small_series())
def test_text_round_trip(a):
    assert from_text(to_text(a)) == a


@given(st.integers(1, 200))
def test_pentagonal_number_equivalence(order):
    assert {int(e): int(c) for e, c in euler_phi(F(order)).terms} == pentagonal_sum(order)


@given(
    st.integers(1, 4),
    st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6),
    st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6),
    st.sampled_from([1, -1]),
    st.integers(1, 3),
)
def test_product_power_matches_repetition(reps, start, step, sign, magnitude):
    for power in (magnitude, -magnitude):
        bundled = ProductSpec((ProductFactor(sign, start, step, power * reps),))
        repeated = ProductSpec(tuple(ProductFactor(sign, start, step, power) for _ in range(reps)))
        assert expand_product(bundled, F(18)) == expand_product(repeated, F(18))


@given(st.lists(st.tuples(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
                          st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)),
                min_size=1, max_size=3))
def test_reciprocal_progressions_count_partitions(progressions):
    spec = ProductSpec(tuple(ProductFactor(1, a, d, -1) for a, d in progressions))
    out = expand_product(spec, F(15))
    assert out.coefficient(0) == 1
    assert all(c.denominator == 1 and c > 0 for _, c in out.terms)


def test_weyl_gram_preservation_and_sign_homomorphism():
    group = weyl_group()
    probes = [RootVector(F(1), F(0)), RootVector(F(0), F(1)), RootVector(F(-2), F(3)), RootVector(F(5), F(1))]
    matrices = {w.matrix: w.sign for w in group}
    assert len(matrices) == 6
    for a in group:
        for u in probes:
            for v in probes:
                assert gram(a.apply(u), a.apply(v)) == gram(u, v)
        for b in group:
            product = a.compose(b)
            assert matrices[product.matrix] == a.sign * b.sign == product.sign


@given(
    st.lists(small_series(), min_size=2, max_size=3),
    st.lists(st.lists(nonzero_fractions, min_size=2, max_size=3), min_size=1, max_size=2),
)
def test_discovery_round_trip_soundness(bases, combo_rows):
    # plant unique high markers so the bases are independent by construction;
    # test data is exact by definition, so extending the order is legitimate
    order = F(40)
    marked = []
    for i, base in enumerate(bases):
        extended = PuiseuxSeries(base.grading, order, base.terms)
        marked.append(add(extended, monomial(1, 30 + i, 1, order)))
    columns = list(marked)
    for row in combo_rows:
        combo = zero(order)
        for coeff, base in zip(row, marked):
            combo = add(combo, scale(base, coeff))
        columns.append(combo)
    exponents = {e for s in columns for e, _ in s.terms}
    assume(len(exponents) >= len(columns) + 8)
    relations = discover(columns, order)
    assert len(relations) == len(combo_rows)
    for relation in relations:
        residual = zero(order)
        for coeff, series in zip(relation.coefficients, columns):
            if coeff:
                residual = add(residual, scale(series, coeff))
        assert residual.is_zero
