"""Randomized invariant suites (fixed-seed via the derandomized profile)."""

import io
import os
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction as F
from math import ceil, gcd, lcm
from unittest.mock import patch

from hypothesis import assume, example, given, settings, strategies as st

import pytest

from qserieslab import (
    GradingError,
    InsufficientOrderError,
    InsufficientRowsError,
    ProductFactor,
    PuiseuxSeries,
    SeriesError,
    add,
    compare,
    discover,
    expand_product,
    euler_phi,
    from_text,
    invert,
    monomial,
    mul,
    scale,
    specialize,
    sub,
    substitute,
    substitute_signed,
    to_text,
    truncate,
    zero,
)
from qserieslab import bivariate, cli, lattice, products, series, verify
from qserieslab.bivariate import (
    COMPLETE_SUPPORT,
    QUINTUPLE_FLOOR,
    BivariateSeries,
    FloorBranch,
    add_bivariate,
    bivariate_from_layers,
    quintuple_rhs,
    sub_bivariate,
)
from qserieslab.verify import _echelon, evaluate, parse_expression, registry
from oracles import (
    A2_GRAM,
    a2_weyl_group,
    canonical_series,
    det,
    dict_combine,
    dict_combine_bivariate,
    dict_compare,
    dict_mul,
    dict_specialize,
    dict_substitute,
    dense_invert,
    excluded_minimum,
    family_product,
    fmt_text,
    fraction_nullspace,
    mat_mul,
    partition_counts,
    pentagonal_sum,
    product_offsets,
    quintuple_product_layers,
    rho_image,
    theta_enumeration,
    transpose,
)
from test_series import kernel_mul


@st.composite
def nonzero_fractions(draw):
    """The nonzero p/q with q <= 6 in [-4, 4], drawn as a denominator and then
    a numerator so that a failing example shrinks both as integers and prints
    as its value."""
    q = draw(st.integers(1, 6))
    return F(draw(st.integers(-4 * q, 4 * q).filter(bool)), q)


@st.composite
def small_series(draw):
    grading = draw(st.integers(1, 6))
    numerators = draw(st.lists(st.integers(-12, 24), max_size=8, unique=True))
    coeffs = draw(
        st.lists(nonzero_fractions(), min_size=len(numerators), max_size=len(numerators))
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
        st.lists(nonzero_fractions(), min_size=len(offsets) + 1, max_size=len(offsets) + 1)
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


@st.composite
def invertible_series(draw):
    """A monomial, a sparse series of up to five far-apart terms or a dense
    run of up to 17 terms on one step, on gradings 1 to 6, leading at a
    drawn exponent in [-3, 3] with a drawn, mostly non-unit, coefficient."""
    grading = draw(st.integers(1, 6))
    lead = draw(st.integers(-3 * grading, 3 * grading))
    shape = draw(st.sampled_from(["monomial", "sparse", "dense"]))
    if shape == "monomial":
        offsets = []
    elif shape == "sparse":
        offsets = sorted(draw(st.sets(st.integers(1, 12 * grading), min_size=1, max_size=4)))
    else:
        step = draw(st.integers(1, 3))
        offsets = [step * i for i in range(1, draw(st.integers(1, 16)) + 1)]
    coeffs = draw(st.lists(nonzero_fractions(), min_size=len(offsets) + 1, max_size=len(offsets) + 1))
    order = F(lead, grading) + draw(st.integers(1, 12))
    terms = [(F(lead + o, grading), c) for o, c in zip([0, *offsets], coeffs)]
    return PuiseuxSeries(grading, order, tuple((e, c) for e, c in terms if e < order))


@given(invertible_series())
@example(expand_product((ProductFactor(1, F(1), F(1), 1),), F(60)))  # (q)_inf
@example(PuiseuxSeries(3, F(5), ((F(-2, 3), F(-5, 2)),)))
def test_invert_matches_dense_recurrence(a):
    assert invert(a) == dense_invert(a)


@given(small_series(), small_series(), ratios)
def test_substitute_is_ring_homomorphism(a, b, r):
    assert_agree(substitute(mul(a, b), r), mul(substitute(a, r), substitute(b, r)))
    assert_agree(substitute(add(a, b), r), add(substitute(a, r), substitute(b, r)))


@given(integer_step_series(), integer_step_series(), ratios)
def test_substitute_signed_multiplicative(a, b, r):
    product = mul(a, b)
    assume(not product.is_zero)
    assert_agree(substitute_signed(product, r), mul(substitute_signed(a, r), substitute_signed(b, r)))


positive_ratios = st.fractions(min_value=F(1, 6), max_value=4, max_denominator=6)


@given(st.one_of(small_series(), integer_step_series()), positive_ratios, st.booleans())
@example(zero(-3), F(2, 3), True)
@example(zero(F(7, 2), 2), F(5, 4), False)
def test_substitutions_match_dict_oracle(a, r, signed):
    op = substitute_signed if signed else substitute
    try:
        expected = dict_substitute(a.terms, a.order, r, signed)
    except ValueError as exc:
        with pytest.raises(GradingError) as raised:
            op(a, r)
        assert str(raised.value) == str(exc)
    else:
        assert to_text(op(a, r)) == expected


def assert_matches_oracle(product: PuiseuxSeries, a: PuiseuxSeries, b: PuiseuxSeries) -> None:
    lead_a = a.terms[0][0] if a.terms else 0
    lead_b = b.terms[0][0] if b.terms else 0
    assert product.order == min(a.order + lead_b, b.order + lead_a)
    assert dict(product.terms) == dict_mul(dict(a.terms), dict(b.terms), product.order)
    assert product.grading == lcm(*(e.denominator for e, _ in product.terms))


# The _TRANSFORM_BITS patches that send kernel_mul's product of nonzero
# operands through one packed kernel: big ints, or decimals through libmpdec.
PACKED_KERNELS = {
    "binary": {"_TRANSFORM_BITS": float("inf")},
    "transform": {"_TRANSFORM_BITS": 0},
}


PARTITIONS = partition_counts(list(range(1, 40)), 39)


@st.composite
def growing_series(draw):
    """Numerators s_i * p(i)**power that grow along the exponents with the
    partition numbers p, from a lead, with signs and gaps, and the order
    just past the last slot: the product of two is cut at the shorter one's
    length, about the middle of its span, where the discarded products of
    two late terms can outgrow every kept coefficient."""
    lead = draw(st.integers(-6, 6))
    power = draw(st.integers(1, 12))
    signs = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=2, max_size=40))
    terms = [(F(lead + i), F(s * PARTITIONS[i] ** power)) for i, s in enumerate(signs) if s]
    assume(terms)
    return PuiseuxSeries(1, F(lead + len(signs)), tuple(terms))


@st.composite
def growing_pairs(draw):
    """Two growing series, or one twice, which packs once and squares."""
    a = draw(growing_series())
    return (a, a) if draw(st.booleans()) else (a, draw(growing_series()))


@given(
    st.one_of(
        st.tuples(small_series(), small_series()),
        st.tuples(integer_step_series(), integer_step_series()),
        growing_pairs(),
    )
)
def test_kronecker_mul_matches_dict_oracle(pair):
    a, b = pair
    for thresholds in PACKED_KERNELS.values():
        with patch.multiple(series, **thresholds):
            assert_matches_oracle(kernel_mul(a, b), a, b)


@st.composite
def kernel_series(draw):
    """A series on a drawn grading whose terms step by a drawn stride from a
    lead that may be negative: a monomial or up to 14 terms, with
    coefficients all ±1 or drawn rationals and wide integers, certified to a
    drawn distance past its last term."""
    grading, stride = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    lead = draw(st.integers(-12, 12))
    steps = sorted(draw(st.sets(st.integers(1, 30), max_size=13)))
    units = st.sampled_from([F(1), F(-1)])
    wide = st.integers(-(2**80), 2**80).filter(bool).map(F)
    values = draw(st.sampled_from([units, st.one_of(nonzero_fractions(), wide)]))
    numerators = [lead, *(lead + stride * k for k in steps)]
    coeffs = draw(st.lists(values, min_size=len(numerators), max_size=len(numerators)))
    order = F(numerators[-1] + draw(st.integers(1, 40)), grading)
    return PuiseuxSeries(grading, order, tuple((F(k, grading), c) for k, c in zip(numerators, coeffs)))


@given(kernel_series(), kernel_series(), st.booleans())
def test_forced_kernels_match_dict_oracle(a, b, square):
    # a short order of one operand prunes the other's upper terms; shifted
    # adds take an a of +-1 numerators only
    b = a if square else b
    if max(map(abs, a.nums)) == 1:
        assert_matches_oracle(kernel_mul(a, b, "_shifted_mul"), a, b)
    for thresholds in PACKED_KERNELS.values():
        with patch.multiple(series, **thresholds):
            assert_matches_oracle(kernel_mul(a, b), a, b)


@given(small_series(), small_series())
def test_naive_mul_matches_dict_oracle(a, b):
    assert_matches_oracle(mul(a, b), a, b)


@given(small_series(), st.fractions(min_value=-14, max_value=32, max_denominator=6))
def test_truncate_is_the_canonical_prefix(a, order):
    if order > a.order:
        with pytest.raises(InsufficientOrderError):
            truncate(a, order)
    else:
        assert truncate(a, order) == canonical_series(dict(a.terms), order)


any_orders = st.fractions(min_value=-6, max_value=30, max_denominator=6)


@st.composite
def graded_series(draw, order=None):
    """A series on a drawn grading 1..6, possibly empty, certified to a drawn
    order that may be negative or fractional (or to the given one)."""
    grading = draw(st.integers(1, 6))
    o = draw(any_orders) if order is None else order
    numerators = draw(st.lists(st.integers(-36, 36), max_size=8, unique=True))
    terms = sorted((F(k, grading), draw(nonzero_fractions())) for k in numerators if F(k, grading) < o)
    return PuiseuxSeries(grading, o, tuple(terms))


@st.composite
def cancelling_pairs(draw):
    """Two series on drawn gradings where the second may repeat any of
    the first's terms with either sign, so that the sum or the difference
    cancels them, down to nothing at all."""
    a, b = draw(graded_series()), draw(graded_series())
    echo = {e: draw(st.sampled_from([c, -c])) for e, c in a.terms if draw(st.booleans())}
    own = dict(b.terms) if draw(st.booleans()) else {}
    terms = sorted((e, c) for e, c in {**own, **echo}.items() if e < b.order)
    return a, PuiseuxSeries(lcm(a.grading, b.grading), b.order, tuple(terms))


@given(cancelling_pairs())
@example((monomial(1, F(1, 6), 6, 10), monomial(-1, F(1, 6), 6, 10)))
@example((monomial(3, F(-5, 2), 2, F(-7, 3)), monomial(3, F(-5, 2), 2, -2)))
@example((zero(F(-7, 2), 2), zero(-3, 3)))
def test_add_sub_match_dict_oracle(pair):
    a, b = pair
    assert add(a, b) == dict_combine(a, b, 1)
    assert sub(a, b) == dict_combine(a, b, -1)


@st.composite
def signed_parts(draw, parts_from):
    """A first (part, sign) pair from `parts_from` and 0 to 6 more, each a
    fresh draw or an earlier part with the opposite sign, so that parts
    cancel, down to the empty series."""
    parts = [(draw(parts_from), draw(st.sampled_from([1, -1])))]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            part, sign = draw(st.sampled_from(parts))
            parts.append((part, -sign))
        else:
            parts.append((draw(parts_from), draw(st.sampled_from([1, -1]))))
    return parts


@given(signed_parts(graded_series()))
@example([(zero(F(-7, 2), 2), -1)])
@example([(monomial(3, F(1, 6), 6, 10), 1), (monomial(3, F(1, 6), 6, 10), -1)])
def test_combine_matches_folded_dict_oracle(parts):
    expected = zero(parts[0][0].order)
    for part, sign in parts:
        expected = dict_combine(expected, part, sign)
    assert series._combine(parts) == expected


@st.composite
def bivariate_parts(draw):
    window = (draw(st.integers(-5, 0)), draw(st.integers(0, 5)))
    return draw(signed_parts(bivariate_series(window=window)))


@given(bivariate_parts())
def test_bivariate_combine_matches_folded_dict_oracle(parts):
    first = parts[0][0]
    expected = BivariateSeries(first.zmin, first.zmax, first.order, (), first.floor)
    for part, sign in parts:
        expected = dict_combine_bivariate(expected, part, sign)
    assert bivariate._combine(parts) == expected


theta_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def theta_cases(draw):
    """A quadratic coefficient and branches (B, C, sign); a branch may come
    twice with opposite signs, so that those two cancel term by term."""
    quadratic = draw(st.fractions(min_value=F(1, 6), max_value=4, max_denominator=6))
    branches = draw(st.lists(st.tuples(theta_fractions, theta_fractions, st.sampled_from([1, -1])), max_size=3))
    if branches and draw(st.booleans()):
        linear, constant, sign = draw(st.sampled_from(branches))
        branches.append((linear, constant, -sign))
    return quadratic, branches


@given(theta_cases(), st.fractions(min_value=-4, max_value=20, max_denominator=6))
@example((F(1, 2), [(F(1, 3), F(-1, 6), 1), (F(1, 3), F(-1, 6), -1)]), F(0))
@example((F(5, 6), [(F(-1, 2), F(-5, 3), -1)]), F(-3, 2))
def test_theta_sum_matches_fraction_enumeration(case, order):
    # through the theta form, which puts A, B and C on the grid of their lcm
    quadratic, branches = case
    text = "theta(" + ", ".join([str(quadratic), *(f"{b},{c},{sign}" for b, c, sign in branches)]) + ")"
    expected = canonical_series(theta_enumeration(quadratic, branches, order), order)
    assert evaluate(parse_expression(text), order) == expected


floor_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
floor_quads = st.fractions(min_value=F(1, 2), max_value=4, max_denominator=6)


@st.composite
def floors(draw):
    """Up to three branches on drawn z-steps 1..4 and offsets -5..8, so that
    steps mix and offsets fall below 0 and at or above the step, possibly
    with a second branch on the layers of the first; () is the empty floor."""
    branches = []
    for _ in range(draw(st.integers(0, 3))):
        shape = (draw(floor_quads), draw(floor_fractions), draw(floor_fractions))
        branches.append(FloorBranch(*shape, draw(st.integers(1, 4)), draw(st.integers(-5, 8))))
    if branches and draw(st.booleans()):
        first = draw(st.sampled_from(branches))
        shape = (draw(floor_quads), draw(floor_fractions), draw(floor_fractions))
        branches.append(FloorBranch(*shape, first.step, first.offset))
    return tuple(branches)


@st.composite
def bivariate_series(draw, window=None):
    """Up to four drawn layers in a drawn window, all on one drawn order, under
    the quintuple floor, complete support or a drawn floor."""
    zmin, zmax = window or (draw(st.integers(-5, 0)), draw(st.integers(0, 5)))
    order = draw(any_orders)
    ks = draw(st.sets(st.integers(zmin, zmax), max_size=4))
    layers = {k: draw(graded_series(order)) for k in ks}
    floor = draw(st.sampled_from([QUINTUPLE_FLOOR, COMPLETE_SUPPORT]) | floors())
    return bivariate_from_layers(layers, (zmin, zmax), order, floor)


@given(
    bivariate_series(),
    st.sampled_from([F(1, 2), F(1), F(5, 2)]),
    st.sampled_from([F(-3, 2), F(0), F(1, 3)]),
)
def test_specialize_matches_dict_oracle(b, r, w):
    order = r * b.order + (b.zmin if w >= 0 else b.zmax) * w
    excluded = excluded_minimum(b.floor, b.zmin, b.zmax, r, w)
    if excluded is not None:
        order = min(order, excluded)
    assert specialize(b, r, w) == canonical_series(dict_specialize(b.layers, r, w, order), order)


@st.composite
def bivariate_pairs(draw):
    a = draw(bivariate_series())
    return a, draw(bivariate_series(window=(a.zmin, a.zmax)))


@given(bivariate_pairs())
def test_bivariate_add_sub_match_dict_oracle(pair):
    a, b = pair
    assert add_bivariate(a, b) == dict_combine_bivariate(a, b, 1)
    assert sub_bivariate(a, b) == dict_combine_bivariate(a, b, -1)
    assert sub_bivariate(a, a) == dict_combine_bivariate(a, a, -1)


@st.composite
def quintuple_cases(draw):
    """An order p/q in (-3, 120], q <= 6, drawn as a denominator and then a
    numerator, and a window inside [-40, 40]."""
    q = draw(st.integers(1, 6))
    order = F(draw(st.integers(1 - 3 * q, 120 * q)), q)
    zmin = draw(st.integers(-40, 40))
    return order, (zmin, draw(st.integers(zmin, 40)))


@given(quintuple_cases())
def test_quintuple_rhs_matches_brute_force_product(case):
    order, window = case
    rhs = quintuple_rhs(order, window)
    assert (rhs.order, rhs.zmin, rhs.zmax) == (order, *window)
    assert {k: dict(layer.terms) for k, layer in rhs.layers} == quintuple_product_layers(order, window)


@st.composite
def shifted_family_cases(draw):
    """Rows of a bivariate polynomial with coefficients up to 2^80 in size,
    z-exponents in [-3, 3], a digit width w of 1 to 40 bits (any w is exact,
    as the rows need not fit their digits) and one to three Euler families
    (s, e, dz, step) with dz in [-2, 2]."""
    size = draw(st.integers(1, 10))
    coefficient = st.integers(-(2**80), 2**80)
    poly = draw(st.dictionaries(st.tuples(st.integers(0, size - 1), st.integers(-3, 3)), coefficient, max_size=12))
    family = st.tuples(st.sampled_from([1, -1]), st.integers(1, 4), st.integers(-2, 2), st.integers(1, 3))
    return size, poly, draw(st.integers(1, 40)), draw(st.lists(family, min_size=1, max_size=3))


@given(shifted_family_cases())
def test_shifted_times_family_matches_bivariate_oracle(case):
    size, poly, w, families = case
    # row E holds z^3 * P_E(z) at z = 2^w; a family with dz < 0 lifts every
    # row by -dz times its number of Euler terms below Q^size
    rows = [sum(c << w * (k + 3) for (e, k), c in poly.items() if e == row) for row in range(size)]
    lift = 3
    for s, e, dz, step in families:
        rows = products._times_family(rows, s, e, step, True, dz * w)
        if dz < 0:
            lift -= dz * max(n for n in range(size + 1) if n * e + step * n * (n - 1) // 2 < size)
    expected = [0] * size
    for (e, k), c in family_product(poly, families, size).items():
        expected[e] += c << w * (k + lift)
    assert rows == expected


@st.composite
def balanced_rows(draw):
    """A digit width w of 8 to 160 bits, up to 6 rows of up to 8 digits each
    below 2^(w-1) in size, and a run of digits to read from lo, up to two
    past the top."""
    w = 8 * draw(st.integers(1, 20))
    bound = 2 ** (w - 1) - 1
    digit = st.one_of(st.integers(-bound, bound), st.sampled_from([0, bound, -bound]))
    rows = draw(st.lists(st.lists(digit, max_size=8), max_size=6))
    top = max(map(len, rows), default=0)
    lo = draw(st.integers(0, top))
    return w, rows, lo, draw(st.integers(0, top + 2 - lo))


@given(balanced_rows())
# the digits below lo at their most negative: the rounding must not borrow
@example((8, [[-127, -127, 5]], 2, 1))
@example((16, [[32767, 32767, -1]], 2, 2))
# a zero window over digits just below lo at +-(2^(w-1) - 1): skipped
@example((8, [[127, 127, 0, 0, 3], [-127, -127, 0, 0], [127, -127, 0, 0, -1]], 2, 2))
# a zero window under nonzero digits above it, a negative row among them
@example((16, [[1, 0, 0, 5], [0, 0, 0, -32767], [-5, 0, 0, 0, 1], [0, 0, 0]], 1, 2))
# every digit of every row nonzero, at the extremes and beyond 64 bits
@example((8, [[127, -127, 1, -1], [-127, 127, -1, 1]], 0, 4))
@example((160, [[2**159 - 1, -(2**159) + 1, 1], [-1, 2**159 - 1, -(2**159) + 1]], 1, 2))
def test_window_digits_read_balanced_rows(case):
    w, rows, lo, count = case
    columns = bivariate._window_digits([sum(c << w * j for j, c in enumerate(r)) for r in rows], w, lo, count)
    expected = []
    for j in range(lo, lo + count):
        digits = [(2 * e, r[j]) for e, r in enumerate(rows) if j < len(r) and r[j]]
        expected.append(([e for e, _ in digits], [c for _, c in digits]))
    assert columns == expected


factor_fractions = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
product_factors = st.tuples(
    st.sampled_from([1, -1]), factor_fractions, factor_fractions, st.sampled_from([-2, -1, 1, 2])
)


@given(
    st.lists(product_factors, min_size=1, max_size=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    nonzero_fractions(),
    st.fractions(min_value=F(-1, 2), max_value=7, max_denominator=6),
)
# 1/(1+q^(3/2))^2 below q^(13/2): 13 half-steps end every stride in a partial block
@example([(-1, F(3, 2), F(1), -2)], F(0), F(1), F(13, 2))
# Squared families of each kind and sign, 5 or 4 Horner levels each (40 half-steps):
# long strides run per residue class, short ones by blocks, some ending mid-block
@example([(1, 1, 1, 2), (-1, F(1, 2), 1, -2)], F(0), F(1), F(20))
@example([(-1, 1, 1, 2), (1, F(1, 2), 1, -2)], F(1, 3), F(-2), F(61, 3))
# 1/(q;q)_inf below q^17: the last level leads at q^16 and keeps one coefficient
@example([(1, 1, 1, -1)], F(0), F(1), F(17))
def test_expand_product_matches_oracle(factors, prefactor_exponent, prefactor_coefficient, order):
    out = expand_product(tuple(ProductFactor(*f) for f in factors), order)
    assert out.order == order
    assert dict(out.terms) == product_offsets(factors, F(0), F(1), order)
    # the grammar spells the prefactor c*q^e as mono(c,e) * prod(...)
    groups = ", ".join(",".join(map(str, f)) for f in factors)
    out = evaluate(parse_expression(f"mono({prefactor_coefficient},{prefactor_exponent}) * prod({groups})"), order)
    assert out.order >= order
    assert dict(truncate(out, order).terms) == product_offsets(factors, prefactor_exponent, prefactor_coefficient, order)


@given(graded_series(), st.fractions(min_value=-7, max_value=31, max_denominator=12))
def test_coefficient_reads_the_terms(a, e):
    # max_denominator 12 reaches exponents off every grading 1..6
    if e >= a.order:
        with pytest.raises(InsufficientOrderError):
            a.coefficient(e)
    else:
        assert a.coefficient(e) == dict(a.terms).get(e, 0)
    for exponent, c in a.terms:
        assert a.coefficient(exponent) == c


@given(graded_series(), graded_series(), nonzero_fractions(), ratios)
def test_kernel_results_are_canonical(a, b, c, r):
    results = [add(a, b), sub(a, b), mul(a, b), scale(a, c), substitute(a, r), truncate(a, min(a.order, b.order))]
    if a.terms:
        results.append(invert(a))
    for s in results:
        rebuilt = PuiseuxSeries(s.grading, s.order, s.terms)
        assert s == rebuilt
        assert hash(s) == hash(rebuilt)
        assert gcd(s.den, *s.nums) == 1
        assert s.grading == lcm(*(e.denominator for e, _ in s.terms))
    assert hash(add(a, b)) == hash(add(b, a))


@given(small_series())
def test_text_round_trip(a):
    assert from_text(to_text(a)) == a


@st.composite
def formatted_series(draw):
    """Up to six terms on a grading up to 10^7, often one with many divisors,
    at exponents that are either drawn fractions p/q of small q or raw
    numerators over the grading, negative ones included, below a drawn
    order; the coefficients are integers or over a drawn den > 1."""
    grading = draw(
        st.one_of(st.integers(1, 12), st.integers(1, 10**7), st.sampled_from([2**23, 9699690, 10**7, 30000057]))
    )
    ks = set()
    for _ in range(draw(st.integers(0, 6))):
        q = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 10, 12]))
        if grading % q == 0 and draw(st.booleans()):
            ks.add(draw(st.integers(-3 * q, 3 * q)) * (grading // q))
        else:
            ks.add(draw(st.integers(-3 * grading, 3 * grading)))
    dens = st.just(1) if draw(st.booleans()) else st.sampled_from([2, 3, 4, 6, 35])
    coeffs = draw(st.lists(st.builds(F, st.integers(-60, 60).filter(bool), dens), min_size=len(ks), max_size=len(ks)))
    order = 3 + F(draw(st.integers(-3, 4)), draw(st.integers(1, 3)))
    terms = sorted((F(k, grading), c) for k, c in zip(ks, coeffs))
    return PuiseuxSeries(grading, order, tuple((e, c) for e, c in terms if e < order))


@given(formatted_series())
@example(PuiseuxSeries(30000057, 1, ((F(1, 10000019), F(3)), (F(1, 3), F(1, 2)))))
def test_text_matches_termwise_format(a):
    assert to_text(a) == fmt_text(a)


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
        bundled = (ProductFactor(sign, start, step, power * reps),)
        repeated = tuple(ProductFactor(sign, start, step, power) for _ in range(reps))
        assert expand_product(bundled, F(18)) == expand_product(repeated, F(18))


@given(st.lists(st.tuples(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
                          st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)),
                min_size=1, max_size=3))
def test_reciprocal_progressions_count_partitions(progressions):
    out = expand_product(tuple(ProductFactor(1, a, d, -1) for a, d in progressions), F(15))
    assert out.coefficient(0) == 1
    assert all(c.denominator == 1 and c > 0 for _, c in out.terms)


def test_weyl_gram_preservation_and_sign_homomorphism():
    # the group generated from s1 and s2, against fkw_character's table of
    # (w(rho), sign w)
    group = a2_weyl_group()
    assert len(group) == 6
    for a in group:
        assert mat_mul(transpose(a), mat_mul(A2_GRAM, a)) == A2_GRAM
        for b in group:
            assert mat_mul(a, b) in group
            assert det(mat_mul(a, b)) == det(a) * det(b)
    assert set(lattice._RHO_IMAGES) == {(rho_image(w), det(w)) for w in group}
    assert len(lattice._RHO_IMAGES) == 6


@given(
    st.lists(small_series(), min_size=2, max_size=3),
    st.lists(st.lists(nonzero_fractions(), min_size=2, max_size=3), min_size=1, max_size=2),
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


# Few choices per coefficient, so that a failing case shrinks in seconds.
column_coefficients = st.builds(F, st.sampled_from([-4, -3, -1, 1, 2, 5]), st.sampled_from([1, 2, 3, 5]))


@st.composite
def discover_columns(draw):
    """Columns on the gradings 1, 2, 3 and 6 with negative exponents and
    fractional coefficients, plus zero, copied, scaled and summed columns,
    in a drawn order; and a sampling order at or just below theirs."""
    order = F(draw(st.integers(10, 14)))
    bases = []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.sampled_from([1, 2, 3, 6]))
        ks = draw(st.lists(st.integers(-2 * g, order * g - 1), min_size=8, max_size=16, unique=True))
        cs = draw(st.lists(column_coefficients, min_size=len(ks), max_size=len(ks)))
        bases.append(PuiseuxSeries(g, order, tuple(sorted((F(k, g), c) for k, c in zip(ks, cs)))))
    columns = list(bases)
    for kind in draw(st.lists(st.sampled_from(["zero", "copy", "scaled", "sum"]), max_size=3)):
        base = draw(st.sampled_from(bases))
        if kind == "zero":
            columns.append(zero(order))
        elif kind == "copy":
            columns.append(base)
        elif kind == "scaled":
            columns.append(scale(base, draw(nonzero_fractions())))
        else:
            other = draw(st.sampled_from(bases))
            columns.append(add(scale(base, draw(nonzero_fractions())), scale(other, draw(nonzero_fractions()))))
    return draw(st.permutations(columns)), order - draw(st.sampled_from([0, F(1, 2), 1]))


@given(discover_columns())
def test_discover_matches_fraction_oracle(case):
    columns, order = case
    exponents = sorted({e for s in columns for e, _ in s.terms if e < order})
    if len(exponents) < len(columns) + 8:
        with pytest.raises(InsufficientRowsError):
            discover(columns, order)
        return
    relations = [rel.coefficients for rel in discover(columns, order)]
    assert relations == fraction_nullspace([s.terms for s in columns], order)
    # The elimination keeps every pivot row zero left of its pivot.
    lookups = [dict(s.terms) for s in columns]
    matrix = []
    for e in exponents:
        row = [d.get(e, F(0)) for d in lookups]
        den = lcm(*(c.denominator for c in row))
        matrix.append([int(c * den) for c in row])
    echelon, pivots = _echelon(matrix, len(columns))
    assert len(pivots) == len(columns) - len(relations)
    for row, p in zip(echelon, pivots):
        assert row[p] != 0 and not any(row[:p])


@st.composite
def classed_columns(draw):
    """Columns on grading 12 laid out by classes of exponents mod 1: each
    base column has terms in its own drawn classes, the first in at least
    two; one more column may sit alone in a class no base uses; copies,
    multiples and sums of the bases then relate columns across every class
    they span.  Sampled at or just below their order."""
    order = draw(st.integers(4, 8))
    rows = st.lists(st.integers(-1, order - 1), min_size=3, max_size=order + 1, unique=True)
    used: set[int] = set()
    columns = []
    for i in range(draw(st.integers(1, 3))):
        classes = draw(st.lists(st.integers(0, 11), min_size=2 if i == 0 else 1, max_size=3, unique=True))
        used.update(classes)
        ks = [12 * m + r for r in classes for m in draw(rows)]
        columns.append(PuiseuxSeries(12, order, tuple((F(k, 12), draw(column_coefficients)) for k in sorted(ks))))
    bases = list(columns)
    free = sorted(set(range(12)) - used)
    if free and draw(st.booleans()):
        r = draw(st.sampled_from(free))
        ks = [12 * m + r for m in sorted(draw(rows))]
        columns.append(PuiseuxSeries(12, order, tuple((F(k, 12), draw(column_coefficients)) for k in ks)))
    for kind in draw(st.lists(st.sampled_from(["copy", "scaled", "sum"]), max_size=3)):
        base = draw(st.sampled_from(bases))
        if kind == "copy":
            columns.append(base)
        elif kind == "scaled":
            columns.append(scale(base, draw(nonzero_fractions())))
        else:
            other = draw(st.sampled_from(bases))
            columns.append(add(scale(base, draw(nonzero_fractions())), scale(other, draw(nonzero_fractions()))))
    return draw(st.permutations(columns)), order - draw(st.sampled_from([0, F(1, 2), 1]))


_SPLIT = (
    # the first column spans two classes and is the sum of the next two, each
    # in one of them; the last sits alone in a third class
    PuiseuxSeries(12, 6, tuple((F(12 * m + r, 12), F(1)) for m in range(6) for r in (0, 1))),
    PuiseuxSeries(12, 6, tuple((F(m), F(1)) for m in range(6))),
    PuiseuxSeries(12, 6, tuple((F(12 * m + 1, 12), F(1)) for m in range(6))),
    PuiseuxSeries(12, 6, tuple((F(12 * m + 5, 12), F(m + 1)) for m in range(6))),
)


@given(classed_columns())
@example((_SPLIT, F(6)))
@example((_SPLIT[1:] + _SPLIT[:1], F(11, 2)))
def test_discover_by_class_matches_fraction_oracle(case):
    columns, order = case
    if len({e for s in columns for e, _ in s.terms if e < order}) < len(columns) + 8:
        with pytest.raises(InsufficientRowsError):
            discover(columns, order)
        return
    relations = [rel.coefficients for rel in discover(columns, order)]
    assert relations == fraction_nullspace([s.terms for s in columns], order)


@st.composite
def sharing_pairs(draw):
    """Two series on one grading whose terms agree on a drawn prefix, so that
    the first disagreement can lie anywhere: a missing term on either side or
    one exponent with two coefficients."""
    a = draw(small_series())
    shared = draw(st.integers(0, len(a.terms)))
    head = a.terms[:shared]
    if shared < len(a.terms) and draw(st.booleans()):
        e, c = a.terms[shared]
        head += ((e, 2 * c),)
    tail = draw(small_series())
    cut = head[-1][0] if head else F(-100)
    terms = head + tuple((e, c) for e, c in tail.terms if e > cut and (e * a.grading).denominator == 1)
    order = draw(st.sampled_from([a.order, tail.order]))
    return a, PuiseuxSeries(a.grading, order, tuple((e, c) for e, c in terms if e < order))


@given(sharing_pairs(), st.fractions(min_value=-14, max_value=32, max_denominator=6))
def test_compare_matches_dict_oracle(pair, order):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        if order > min(x.order, y.order):
            with pytest.raises(InsufficientOrderError):
                compare(x, y, order)
        else:
            found = compare(x, y, order)
            assert dict_compare(x, y, order) == (
                None if found is None else (found.exponent, found.lhs, found.rhs)
            )


# Registry-grammar products: factors with negative, fractional and zero
# leading exponents, whole-series rescalings and inversions.
_monos = st.builds(
    "mono({},{})".format,
    st.sampled_from(["1", "-2", "3/4"]),
    st.sampled_from(["0", "-1/6", "-1/2", "-1", "-7/3"]),
)
_characters = st.one_of(
    st.builds(
        "chi:2,5,1,{}@{}q^{}".format,
        st.integers(1, 4),
        st.sampled_from(["", "-"]),
        st.sampled_from(["1/3", "1/2", "2"]),
    ),
    st.sampled_from(["rr:1", "rr:2", "a22:basic", "a22:2L1", "a22:L0"]),
)


_btheta_branches = st.builds(
    "{},{},{},{},{},{}".format,
    st.sampled_from([1, -1]),
    st.sampled_from(["1/2", "1", "3", "12"]),
    st.sampled_from(["-2", "0", "3/2", "14"]),
    st.sampled_from(["0", "1/2", "4"]),
    st.integers(1, 6),
    st.integers(-3, 3),
)


@st.composite
def _specializations(draw):
    """specialize(...) over a sum of one to three quintuple sides and
    two-variable theta sums on one window within +-6."""
    window = f"{draw(st.integers(-6, 0))},{draw(st.integers(0, 6))}"
    leaf = st.one_of(
        st.just(f"qlhs({window})"),
        st.just(f"qrhs({window})"),
        st.lists(_btheta_branches, max_size=2).map(lambda branches: f"btheta({', '.join([window, *branches])})"),
    )
    first, *rest = draw(st.lists(leaf, min_size=1, max_size=3))
    total = first + "".join(f" {draw(st.sampled_from('+-'))} {term}" for term in rest)
    return f"specialize({total}, {draw(st.sampled_from(['1', '5/2']))}, {draw(st.sampled_from(['-3/2', '0', '1/2']))})"


def grammar_products(inverses: bool):
    """Flat product chains of 2 to 5 factors over the leaves above and
    specializations, where a factor may be a parenthesised product or sum of
    two leaves."""
    leaf = st.one_of(_monos, _characters, _specializations())
    if inverses:
        leaf = st.one_of(leaf, leaf.map("inv({})".format))
    factor = st.one_of(
        leaf,
        st.builds("({} * {})".format, leaf, leaf),
        st.builds("({} {} {})".format, leaf, st.sampled_from("+-"), leaf),
    )
    if inverses:
        factor = st.one_of(factor, factor.map("inv({})".format))
    return st.lists(factor, min_size=2, max_size=5).map(" * ".join)


small_orders = st.fractions(min_value=1, max_value=8, max_denominator=6)


@given(grammar_products(inverses=True), small_orders)
def test_product_requests_agree_across_orders(text, order):
    expr = parse_expression(text)
    try:
        low, high = evaluate(expr, order), evaluate(expr, order + 3)
    except SeriesError:
        # an inverted factor with no term below the request
        assume(False)
    assert compare(low, high, min(low.order, high.order)) is None


_edge_orders = st.one_of(st.sampled_from([F(-3), F(-1, 2), F(0), F(1, 3)]), small_orders)


@given(grammar_products(inverses=True), _edge_orders)
# the order-0 probe of an inverse whose child leads at q^3 raises, so the
# product learns that lead only from a first evaluation of its factors
@example("inv(mono(1,3)) * mono(1,3)", F(50))
@example("inv(mono(1,3)) * mono(1,-2)", F(2))
@example("mono(1,-7/3) * inv(mono(1,3)) * (a22:L0 - mono(-2,-1/2)) * inv(a22:2L1) * (rr:1 * rr:2)", F(-3))
def test_products_certify_their_request(text, order):
    try:
        value = evaluate(parse_expression(text), order)
    except SeriesError:
        # an inverted factor that is genuinely zero
        assume(False)
    assert value.order >= order


@pytest.mark.parametrize("order", [-3, 0, 50, 600])
def test_builtin_sides_certify_their_request(order):
    for record in registry():
        for side in (record.lhs, record.rhs):
            assert evaluate(side, order).order >= order, record.id


def _expand_with_requests(text, order):
    """(exit code, stdout, the set of expand_product requests evaluate
    makes) of one `expand`, its order-0 probes made afresh."""
    requests = set()
    original = verify.expand_product

    def spy(spec, request):
        requests.add((spec, F(request)))
        return original(spec, request)

    verify._negative_lead.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with patch.object(verify, "expand_product", spy), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["expand", text, "--order", str(order)])
    return code, out.getvalue(), requests


@given(
    grammar_products(inverses=False),
    grammar_products(inverses=True),
    grammar_products(inverses=False),
    st.sampled_from([F(-1, 2), F(0), F(1, 3), F(1)]),
)
@example("a22:basic", "a22:2L1", "mono(1,-1/6) * a22:L0", F(7, 2))
# Three chains make up to 15 factors, about 30 ms an evaluation; inversions
# in all three can ask single factors for orders that take seconds.
@settings(max_examples=40)
def test_nesting_and_monomials_change_no_request(x, y, z, order):
    # a product opens its nested products and folds its monomials, so every
    # grouping of one chain prints the same and asks for the same orders
    groupings = (f"{x} * ({y} * {z})", f"({x} * {y}) * {z}", f"{x} * {y} * {z}")
    results = [_expand_with_requests(text, order) for text in groupings]
    assert results[0] == results[1] == results[2]


def test_square_of_a_name_squares_equal_operands(monkeypatch):
    # a22:basic * a22:basic flattens to the basic product twice and one
    # monomial: both products are asked for one order and meet as equal operands
    operands = []
    original = series._kronecker_mul

    def spy(ea, eb, ca, cb, top, g):
        operands.append((ea, ca) == (eb, cb))
        return original(ea, eb, ca, cb, top, g)

    monkeypatch.setattr(series, "_kronecker_mul", spy)
    evaluate(parse_expression("a22:basic * a22:basic"), 200)
    assert operands and operands[0]


# A zero factor, and one whose probe (and full evaluation) raises.
_degenerate_factors = st.sampled_from(["mono(0,1)", "inv(rr:1-rr:1)"])
_cli_sides = st.one_of(
    grammar_products(inverses=True),
    st.builds("{} * ({})".format, _degenerate_factors, grammar_products(inverses=True)),
    st.builds("({}) * {}".format, grammar_products(inverses=False), _degenerate_factors),
)


@st.composite
def registry_lines(draw):
    lhs = draw(_cli_sides)
    rhs = draw(st.one_of(st.just(lhs), _cli_sides))
    order = draw(st.sampled_from(["1", "5/2", "6"]))
    return f"{order} | {lhs} | {rhs}"


@given(st.lists(registry_lines(), min_size=1, max_size=3), st.sampled_from(["1", "7/2", "6"]))
def test_verify_all_exit_codes(lines, order):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "generated.registry")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"ID{i} | {line}\n" for i, line in enumerate(lines)))
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["verify-all", "--registry", path, "--order", order])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert " FAIL " in out.getvalue()


# ---------------------------------------------------------------------------
# Continuations: a certified order promises that nothing at or above it can
# change what lies below.  Continue each input past its order (terms added at
# or above O, O raised) and the result of every operation must agree with
# its own continuation below the order it certified.


@st.composite
def continuations(draw, a, whole_steps=False):
    """a with terms added at or above O_a on its grid (at whole steps from its
    lead when whole_steps), certified to a higher order."""
    step = F(1) if whole_steps else F(1, a.grading)
    start = a.terms[0][0] if a.terms else a.order
    first = start + step * ceil((a.order - start) / step)
    offsets = sorted(draw(st.sets(st.integers(0, 6), max_size=3)))
    extra = tuple((first + j * step, draw(nonzero_fractions())) for j in offsets)
    top = max([a.order, *(e for e, _ in extra)])
    order = top + draw(st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6))
    grading = lcm(a.grading, *(e.denominator for e, _ in extra))
    return PuiseuxSeries(grading, order, a.terms + extra)


def _whole_steps(a: PuiseuxSeries) -> PuiseuxSeries:
    """a without the terms at a fractional step from its lead."""
    lead = a.terms[0][0] if a.terms else 0
    return PuiseuxSeries(a.grading, a.order, tuple((e, c) for e, c in a.terms if (e - lead).denominator == 1))


@st.composite
def continued(draw, whole_steps=False):
    a = draw(graded_series())
    if whole_steps:
        a = _whole_steps(a)
    return a, draw(continuations(a, whole_steps))


def assert_continues(result: PuiseuxSeries, continued_result: PuiseuxSeries) -> None:
    assert compare(result, continued_result, result.order) is None


# Two empty operands certified to -3: their product is certified to -6, and
# continuations that start at q^-3 meet at q^-6.
_EMPTY_AT_MINUS_3 = (zero(-3), PuiseuxSeries(1, F(-2), ((F(-3), F(1)),)))


@given(continued(), continued(), st.sampled_from([None, *PACKED_KERNELS]))
@example(_EMPTY_AT_MINUS_3, _EMPTY_AT_MINUS_3, None)
@example(_EMPTY_AT_MINUS_3, _EMPTY_AT_MINUS_3, "binary")
@example(_EMPTY_AT_MINUS_3, _EMPTY_AT_MINUS_3, "transform")
def test_sums_and_products_hold_on_continuations(x, y, packed):
    (a, a2), (b, b2) = x, y
    assert_continues(add(a, b), add(a2, b2))
    assert_continues(sub(a, b), sub(a2, b2))
    with patch.multiple(series, **PACKED_KERNELS[packed]) if packed else nullcontext():
        assert_continues(mul(a, b), mul(a2, b2))


@given(
    continued(),
    st.one_of(st.just(F(0)), nonzero_fractions()),
    ratios,
    st.fractions(min_value=-7, max_value=31, max_denominator=6),
)
def test_unary_operations_hold_on_continuations(x, c, r, cut):
    a, a2 = x
    assert_continues(scale(a, c), scale(a2, c))
    assert_continues(substitute(a, r), substitute(a2, r))
    cut = min(cut, a.order)
    assert_continues(truncate(a, cut), truncate(a2, cut))
    if a.terms:
        assert_continues(invert(a), invert(a2))


@given(continued(whole_steps=True), ratios)
def test_signed_substitution_holds_on_continuations(x, r):
    a, a2 = x
    assert_continues(substitute_signed(a, r), substitute_signed(a2, r))


def _floor_at(floor, k: int):
    """The lowest q-exponent the floor allows on the layer z^k: the least
    bound of the branches that hit it, None when none does."""
    bounds = [
        br.quad * m * m + br.lin * m + br.const
        for br in floor
        for m, rest in [divmod(k - br.offset, br.step)]
        if rest == 0
    ]
    return min(bounds, default=None)


@st.composite
def continued_bivariate(draw):
    """A bivariate series, a specialization (r, w), and a continuation: the
    window widened by layers that respect the floor, every layer continued
    past the order, and the order raised by at least what the wider window
    costs under z -> q^w."""
    b = draw(bivariate_series())
    r = draw(st.sampled_from([F(1, 2), F(1), F(5, 2)]))
    w = draw(st.sampled_from([F(-3, 2), F(0), F(1, 3)]))
    below, above = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    cost = (below * max(w, 0) - above * min(w, 0)) / r
    order = b.order + cost + draw(st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6))
    layers = {}
    for k in range(b.zmin - below, b.zmax + above + 1):
        inside = b.zmin <= k <= b.zmax
        start = b.order if inside else _floor_at(b.floor, k)
        if start is None:
            continue
        offsets = sorted(draw(st.sets(st.integers(0, 12), max_size=3)))
        extra = [(ceil(start * 6) / F(6) + F(j, 6), draw(nonzero_fractions())) for j in offsets]
        terms = (b.layer(k).terms if inside else ()) + tuple(t for t in extra if t[0] < order)
        layers[k] = PuiseuxSeries(lcm(6, b.layer(k).grading), order, terms)
    wide = bivariate_from_layers(layers, (b.zmin - below, b.zmax + above), order, b.floor)
    return b, r, w, wide


# The window edge z^-3 holds nothing below q^2, but its continuation's q^2
# lands at q^(2 - 3/3) under z -> q^(1/3): the edge bounds the order even
# when its layer is empty.
@given(continued_bivariate())
@example(
    (
        bivariate_from_layers({}, (-3, 1), F(2), COMPLETE_SUPPORT),
        F(1),
        F(1, 3),
        bivariate_from_layers({-3: monomial(1, 2, 1, 3)}, (-3, 1), F(3), COMPLETE_SUPPORT),
    )
)
def test_specialize_holds_on_continuations(case):
    b, r, w, wide = case
    assert_continues(specialize(b, r, w), specialize(wide, r, w))
