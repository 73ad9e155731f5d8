"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so every tolerance is zero (bit-exact rational
equality).  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import functools
from fractions import Fraction as F

from hypothesis import settings

from qserieslab import (
    CharLabel,
    check,
    compare,
    discover,
    fkw_character,
    lowest_weight_from_char,
    minimal_char,
    monomial,
    mul,
    named_series,
    quintuple_lhs,
    registry,
    specialize,
    substitute,
)
from qserieslab.verify import Status, evaluate

import test_properties
from test_verify import _assert_relation_sound, _basis_functions, _six_traces


def criterion(number, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {summary}")
                raise
            print(f"ACCEPTANCE {number} PASS: {summary}")

        return run

    return wrap


@criterion(1, "Rogers-Ramanujan product forms, 200 integer steps above the lead")
def test_criterion_1_rogers_ramanujan():
    for variant, label, lead in (
        (1, CharLabel(2, 5, 1, 1), F(11, 60)),
        (2, CharLabel(2, 5, 1, 2), F(-1, 60)),
    ):
        order = lead + 200
        assert compare(minimal_char(label, order), named_series(f"rr:{variant}", order), order) is None


@criterion(2, "the four mixed-charge character identities at order 100")
def test_criterion_2_min_identities():
    for identity in ("MIN-1", "MIN-2", "MIN-3", "MIN-4"):
        report = check(identity, 100)
        assert report.status is Status.PASS, report
        assert report.order_checked == 100


@criterion(3, "lattice-sum character equals the h=0 plus h=3 pair through q^50 and q^60")
def test_criterion_3_lattice_sum_identity():
    for order in (50, 60):
        report = check("FKW-50", order)
        assert report.status is Status.PASS, report


@criterion(4, "lattice-sum leading expansion q^(-1/30)(1 + q^2 + 2q^3 + 3q^4)")
def test_criterion_4_lattice_sum_leading_terms():
    s = fkw_character(F(6))
    lead = s.leading_exponent
    assert lead == F(-1, 30)
    assert [s.coefficient(lead + k) for k in (0, 2, 3, 4)] == [1, 1, 2, 3]
    assert s.coefficient(lead + 1) == 0


@criterion(5, "twisted decomposition and the bilinear product identity at order 50")
def test_criterion_5_decomposition_and_ramanujan():
    for identity in ("DECOMP-1.4", "RAMANUJAN"):
        report = check(identity, 50)
        assert report.status is Status.PASS, report
        record = next(r for r in registry() if r.id == identity)
        for side in (record.lhs, record.rhs):
            assert 360 % evaluate(side, F(50)).grading == 0


@criterion(6, "the quintuple-product proof chain")
def test_criterion_6_appendix_chain():
    assert check("QPI", 30).status is Status.PASS  # window [-25, 25], mod q^30
    assert check("WANTED", 50).status is Status.PASS
    assert check("WANTED3", 50).status is Status.PASS  # reindexing, exact
    assert check("EASY", 100).status is Status.PASS
    # the substitution chain, built at the same window and order as QPI, must
    # certify at least q^25 and reproduce the four-branch theta sum
    collapsed = specialize(quintuple_lhs(F(30), (-25, 25)), F(5, 2), F(-3, 2))
    shifted = mul(monomial(1, F(3, 2), 2, collapsed.order + F(3, 2)), collapsed)
    assert shifted.order >= 25
    wanted = next(r for r in registry() if r.id == "WANTED")
    assert compare(shifted, evaluate(wanted.lhs, shifted.order), shifted.order) is None
    assert check("SPECIALIZE-L", 25).status is Status.PASS
    assert check("SPECIALIZE-R", 25).status is Status.PASS


@criterion(7, "relation discovery: one planted relation, ten independents, rank six")
def test_criterion_7_discovery():
    trio = [named_series(n, F(30)) for n in ("chi:5,6,1,2", "chi:5,6,1,4", "chi:2,5,1,1@q^1/2")]
    relations = discover(trio, 30)
    assert len(relations) == 1
    assert relations[0].coefficients == (F(1), F(1), F(-1))

    ten = [minimal_char(CharLabel(5, 6, m, n), F(15)) for m in (1, 2) for n in range(1, 6)]
    assert discover(ten, 15) == []

    basis = _basis_functions(F(30))
    assert discover(basis, 30) == []  # the six-function basis has rank 6

    columns = _six_traces(F(30)) + basis
    paired = discover(columns, 30)
    assert len(paired) == 6
    for relation in paired:
        _assert_relation_sound(relation, columns, F(30))


@criterion(8, "lowest-weight cross-checks 5/72, 41/360, 1/40, 1/8")
def test_criterion_8_lowest_weights():
    assert lowest_weight_from_char(named_series("a22:basic", F(2)), 2) == F(5, 72)
    assert lowest_weight_from_char(named_series("a22:2L1", F(2)), F(16, 5)) == F(41, 360)
    half1 = substitute(minimal_char(CharLabel(2, 5, 1, 2), F(4)), F(1, 2))
    assert lowest_weight_from_char(half1, F(4, 5)) == F(1, 40)
    half2 = substitute(minimal_char(CharLabel(2, 5, 1, 1), F(4)), F(1, 2))
    assert lowest_weight_from_char(half2, F(4, 5)) == F(1, 8)


@criterion(9, "randomized property suites, 100 fixed-seed cases each")
def test_criterion_9_property_suites():
    # The suites run on their own in test_properties.py; this checks that
    # they are there, that the drawn ones are Hypothesis tests, and that those
    # run the loaded fixed-seed profile of 100 examples (tests/conftest.py).
    # The Weyl suite draws nothing: it checks every pair of the six elements.
    assert callable(test_properties.test_weyl_gram_preservation_and_sign_homomorphism)
    names = [
        "test_add_associative_commutative",
        "test_mul_associative",
        "test_mul_commutative",
        "test_distributive",
        "test_multiplicative_identity",
        "test_invert_round_trip",
        "test_substitute_is_ring_homomorphism",
        "test_substitute_signed_multiplicative",
        "test_pentagonal_number_equivalence",
        "test_discovery_round_trip_soundness",
    ]
    assert (settings.default.max_examples, settings.default.derandomize) == (100, True)
    for name in names:
        suite = getattr(test_properties, name)
        assert hasattr(suite, "hypothesis"), f"{name} is not a Hypothesis test"
        # a suite's own @settings would override the profile
        own = getattr(suite, "_hypothesis_internal_use_settings", settings.default)
        assert (own.max_examples, own.derandomize) == (100, True), name
