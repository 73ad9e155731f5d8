from fractions import Fraction as F
from math import gcd

import pytest

from qserieslab import (
    CharLabel,
    IdentityRecord,
    InsufficientOrderError,
    InsufficientRowsError,
    Relation,
    Status,
    UnknownIdentityError,
    check,
    check_record,
    compare,
    discover,
    minimal_char,
    named_series,
    parse_expression,
    registry,
    scale,
    substitute,
    substitute_signed,
    zero,
)
from qserieslab import bivariate, cli, verify
from qserieslab.verify import (
    BivariateThetaExpr,
    Inv,
    Mono,
    Name,
    Product,
    ProductExpr,
    QuintupleLHS,
    QuintupleRHS,
    Specialize,
    Subst,
    Sum,
    ThetaExpr,
    evaluate,
    parse_registry_text,
)
from qserieslab.bivariate import FloorBranch
from qserieslab.products import ProductFactor

REQUIRED_IDS = [
    "RR-1",
    "RR-2",
    "MIN-1",
    "MIN-2",
    "MIN-3",
    "MIN-4",
    "FKW-50",
    "FKW-REMARK",
    "RAMANUJAN",
    "DECOMP-1.4",
    "QPI",
    "WANTED",
    "WANTED3",
    "EASY",
    "SIGNED-1/2-40",
    "SIGNED-1/2-8",
]


class TestRegistry:
    def test_required_entries_present(self):
        ids = [r.id for r in registry()]
        for required in REQUIRED_IDS:
            assert required in ids

    def test_size(self):
        assert len(registry()) >= 13

    def test_min1_record(self):
        record = next(r for r in registry() if r.id == "MIN-1")
        assert record.description
        assert record.default_order == 50

    def test_ids_stable_and_unique(self):
        ids = [r.id for r in registry()]
        assert ids == [r.id for r in registry()]
        assert len(set(ids)) == len(ids)

    def test_two_variable_records_keep_their_trees(self):
        # the seven records of the quintuple-product argument, spelled as trees
        window = (-25, 25)
        # theta(30, -4,0,1, 16,2,-1, -14,3/2,1, 26,11/2,-1) on the grid 2
        wanted_theta = ThetaExpr(2, 60, ((-8, 0, 1), (32, 4, -1), (-28, 3, 1), (52, 11, -1)))
        wanted_product = ProductExpr(
            (
                ProductFactor(1, F(1), F(1), 1),
                ProductFactor(1, F(1), F(5, 2), -1),
                ProductFactor(1, F(3, 2), F(5, 2), -1),
            )
        )
        easy_product = ProductExpr(
            (
                ProductFactor(-1, F(3, 2), F(5), 1),
                ProductFactor(1, F(5), F(5), 1),
                ProductFactor(1, F(2), F(10), 1),
                ProductFactor(1, F(8), F(10), 1),
                ProductFactor(-1, F(7, 2), F(5), 1),
            )
        )
        euler = ProductExpr((ProductFactor(1, F(1), F(1), 1),))
        wanted3 = BivariateThetaExpr(
            (
                (1, FloorBranch(F(12), F(2), F(0), 6, 1)),
                (-1, FloorBranch(F(12), F(14), F(4), 6, 4)),
                (1, FloorBranch(F(12), F(-2), F(0), 6, 0)),
                (-1, FloorBranch(F(12), F(10), F(2), 6, 3)),
            ),
            *window,
        )
        q_lhs, q_rhs = QuintupleLHS(*window), QuintupleRHS(*window)
        expected = {
            "QPI": (q_lhs, q_rhs),
            "WANTED": (wanted_theta, wanted_product),
            "WANTED3": (q_lhs, wanted3),
            "EASY": (easy_product, wanted_product),
            "SPECIALIZE-L": (Product((Mono(F(1), F(3, 2)), Specialize(q_lhs, F(5, 2), F(-3, 2)))), wanted_theta),
            "SPECIALIZE-R": (Product((Mono(F(1), F(3, 2)), Specialize(q_rhs, F(5, 2), F(-3, 2)))), easy_product),
            "APPENDIX-DISPLAY": (
                Product((Mono(F(1), F(11, 120)), wanted_theta, Inv(euler))),
                Sum(((1, Name("chi:5,6,1,2")), (1, Name("chi:5,6,1,4")))),
            ),
        }
        records = registry()
        assert [r.id for r in records[-7:]] == list(expected)
        for record in records[-7:]:
            sides = (record.lhs, record.rhs)
            assert sides == expected[record.id], record.id
            assert repr(sides) == repr(expected[record.id]), record.id
            assert record.default_order == 50
            assert record.description == verify._DESCRIPTIONS[record.id]

    def test_every_record_evaluates_at_20(self):
        for record in registry():
            report = check_record(record, 20)
            assert report.status is Status.PASS, (record.id, report)


class TestCheck:
    def test_min1_at_100(self):
        report = check("MIN-1", 100)
        assert report.status is Status.PASS
        assert report.order_checked == 100
        assert report.mismatch is None

    def test_fkw_at_50(self):
        assert check("FKW-50", 50).status is Status.PASS

    def test_unknown_id(self):
        with pytest.raises(UnknownIdentityError):
            check("NOPE", 10)

    def test_perturbed_record_fails_at_injected_exponent(self):
        base = next(r for r in registry() if r.id == "MIN-1")
        perturbed = IdentityRecord(
            "MIN-1-BROKEN", base.lhs, Sum(((1, base.rhs), (1, Mono(F(1), F(37))))), F(50)
        )
        report = check_record(perturbed, 50)
        assert report.status is Status.FAIL
        assert report.mismatch.exponent == 37
        assert (report.mismatch.lhs, report.mismatch.rhs) == (0, 1)

    def test_monotonicity(self):
        for order in (10, 20, 30):
            assert check("RAMANUJAN", order).status is Status.PASS

    def test_default_order_from_record(self):
        report = check("MIN-2")
        assert report.order_checked == 50

    def test_determinism(self):
        a = check("MIN-3", 40)
        b = check("MIN-3", 40)
        assert (a.id, a.status, a.order_checked, a.mismatch) == (
            b.id,
            b.status,
            b.order_checked,
            b.mismatch,
        )

    @pytest.mark.parametrize("order", [25, 600])
    def test_mixed_step_theta_specializes(self, order):
        # z-steps 6 and 3 each bound their own layers, so the window widens
        # to reach the order; by hand, 5/2*(12m^2 + 2m) - 3/2*(6m + 1) and
        # 5/2*(12m^2 + 2m) - 3/2*3m
        mixed = BivariateThetaExpr(((1, FloorBranch(12, 2, 0, 6, 1)), (1, FloorBranch(12, 2, 0, 3, 0))), -25, 25)
        by_hand = ThetaExpr(2, 60, ((-8, -3, 1), (1, 0, 1)))  # 30m^2 + (-4m - 3/2 | m/2), on the grid 2
        record = IdentityRecord("MIXED-STEPS", Specialize(mixed, F(5, 2), F(-3, 2)), by_hand, F(order))
        report = check_record(record, order)
        assert (report.status, report.order_checked) == (Status.PASS, order)

    def test_sum_of_differently_floored_series_specializes(self):
        # the quintuple series side and its four-branch reindexing carry
        # floors on z-steps 3 and 6; their difference keeps both
        wanted3 = next(r.rhs for r in registry() if r.id == "WANTED3")
        difference = Sum(((1, QuintupleLHS(-25, 25)), (-1, wanted3)))
        record = IdentityRecord("WANTED3-DIFF", Specialize(difference, F(5, 2), F(-3, 2)), Mono(F(0), F(0)), F(600))
        report = check_record(record, 600)
        assert (report.status, report.order_checked) == (Status.PASS, 600)

    def test_empty_theta_specializes(self):
        # no branch: the empty floor says no layer outside the window holds mass
        empty = Specialize(BivariateThetaExpr((), -25, 25), F(5, 2), F(-3, 2))
        report = check_record(IdentityRecord("EMPTY-THETA", empty, Mono(F(0), F(0)), F(50)), 50)
        assert (report.status, report.order_checked) == (Status.PASS, 50)

    def test_window_widens_through_a_sum(self):
        # both terms of the sum widen past their +-25 window, which alone
        # certifies only 1089/2 < 600
        quintuple = QuintupleLHS(-25, 25)
        chain = Specialize(Sum(((1, quintuple), (1, quintuple))), F(5, 2), F(-3, 2))
        report = check_record(IdentityRecord("SUM-WINDOW", chain, chain, F(600)), 600)
        assert report.status is Status.PASS
        assert report.order_checked == 600
        assert report.mismatch is None

    def test_window_search_starts_at_the_childs_window(self, monkeypatch):
        # widths 0 to 25 all leave the +-25 window as it is, so the search
        # bounds it once and widens from there; specialize bounds the last
        windows = []
        excluded_floor = bivariate._excluded_floor

        def spy(floor, zmin, zmax, r, w):
            windows.append((zmin, zmax))
            return excluded_floor(floor, zmin, zmax, r, w)

        monkeypatch.setattr(bivariate, "_excluded_floor", spy)
        value = evaluate(parse_expression("specialize(qlhs(-25,25), 5/2, -3/2)"), 600)
        assert value.order == 600
        assert windows == [(-25, 25), (-26, 26), (-27, 27), (-28, 28), (-28, 28)]

    def test_mismatch_below_certification_still_fails(self):
        # sides that differ inside the certified range report FAIL, not
        # insufficiency, even when the target order is unreachable
        tiny = IdentityRecord(
            "TINY-WINDOW-BAD",
            Specialize(QuintupleLHS(-2, 2), F(5, 2), F(-3, 2)),
            Mono(F(1), F(0)),
            F(25),
        )
        report = check_record(tiny, 25)
        assert report.status is Status.FAIL
        assert report.mismatch.exponent == F(-3, 2)

    def test_retry_reaches_target_despite_inversion_loss(self):
        record = parse_registry_text("INV | 30 | inv(inv(chi:2,5,1,1)) | chi:2,5,1,1")[0]
        report = check_record(record, 30)
        assert report.status is Status.PASS
        assert report.order_checked == 30


class TestRetryStop:
    """check_record evaluates each side once: no node leaves range to a retry."""

    @staticmethod
    def _certified_per_pass(monkeypatch, identity_id, order):
        """Run check() and return (report, certified order of every pass)."""
        record = next(r for r in registry() if r.id == identity_id)
        sides = []
        original = verify.evaluate

        def counting(expr, request):
            value = original(expr, request)
            if expr is record.lhs or expr is record.rhs:
                sides.append(value.order)
            return value

        monkeypatch.setattr(verify, "evaluate", counting)
        report = check(identity_id, order)
        return report, [min(sides[i : i + 2]) for i in range(0, len(sides), 2)]

    @pytest.mark.parametrize("order", [50, 200, 500])
    @pytest.mark.parametrize("identity_id", ["RAMANUJAN", "DECOMP-1.4"])
    def test_negative_leads_cost_no_pass(self, monkeypatch, identity_id, order):
        report, certified = self._certified_per_pass(monkeypatch, identity_id, order)
        assert len(certified) == 1
        assert certified[0] >= order
        assert report.status is Status.PASS
        assert report.order_checked == order

    @pytest.mark.parametrize("order", [500, 600, 1000])
    @pytest.mark.parametrize("identity_id", ["SPECIALIZE-L", "SPECIALIZE-R"])
    def test_specialize_window_costs_no_pass(self, monkeypatch, identity_id, order):
        # specialize asks for its window edge's cost and widens the +-25
        # window once the order needs more layers
        report, certified = self._certified_per_pass(monkeypatch, identity_id, order)
        assert len(certified) == 1
        assert certified[0] >= order
        assert report.status is Status.PASS
        assert report.order_checked == order

    @pytest.mark.parametrize("identity_id", ["SPECIALIZE-L", "SPECIALIZE-R"])
    def test_specialize_probe_bumps_sibling_by_its_lead(self, identity_id):
        # the order-0 probe sees the exact lead q^(-3/2), not the window edge's -75/2
        record = next(r for r in registry() if r.id == identity_id)
        assert isinstance(record.lhs.factors[1], Specialize)
        assert verify._negative_lead(record.lhs.factors[1]) == F(-3, 2)


class TestProductChains:
    """A product probes each factor's negative lead once per subtree, so an
    n-factor product costs O(n^2) evaluations, not about 2^(n+1)."""

    @pytest.mark.parametrize("nest", ["left", "right"])
    @pytest.mark.parametrize("n", [16, 32])
    def test_evaluations_quadratic_in_factors(self, monkeypatch, n, nest):
        factors = [("chi:2,5,1,1", "chi:2,5,1,2")[i % 2] for i in range(n)]
        text = " * ".join(factors)  # the grammar nests a chain to the left
        if nest == "right":
            text = factors[-1]
            for name in reversed(factors[:-1]):
                text = f"{name} * ({text})"
        expr = parse_expression(text)
        verify._negative_lead.cache_clear()
        calls = 0
        original = verify.evaluate

        def counting(node, order):
            nonlocal calls
            calls += 1
            if calls > 2 * n * n:  # fail fast instead of running exponentially long
                raise AssertionError(f"more than {2 * n * n} evaluations")
            return original(node, order)

        monkeypatch.setattr(verify, "evaluate", counting)
        assert verify.evaluate(expr, 10).order >= 10


class TestSums:
    def test_each_distinct_term_is_evaluated_once(self, monkeypatch):
        # a sum adds each distinct term once, times the sum of its signs
        expr = parse_expression(" + ".join(["rr:1"] * 50) + " - rr:2 + rr:2")
        names = []
        original = verify.evaluate

        def counting(node, order):
            if isinstance(node, Name):
                names.append(node.name)
            return original(node, order)

        monkeypatch.setattr(verify, "evaluate", counting)
        value = verify.evaluate(expr, 10)
        assert sorted(names) == ["rr:1", "rr:2"]
        assert value.order == 10
        assert compare(value, scale(named_series("rr:1", 10), 50), 10) is None

    def test_perturbed_decomposition_fails_where_the_terms_added_alone_do(self):
        # a third term on the basic product shares it with the other two, so
        # the sum multiplies it once; the mismatch is the one the terms give
        # evaluated alone and added
        base = next(r for r in registry() if r.id == "DECOMP-1.4")
        rhs = Sum((*base.rhs.terms, (1, parse_expression("mono(1,5) * a22:basic"))))
        assert verify._shared_factors_out(dict((term, sign) for sign, term in rhs.terms)) is not None
        report = check_record(IdentityRecord("DECOMP-1.4-BROKEN", base.lhs, rhs, F(50)), 50)
        distributed = verify._combine([(evaluate(term, 50), sign) for sign, term in rhs.terms])
        found = compare(evaluate(base.lhs, 50), distributed, 50)
        assert report.status is Status.FAIL
        assert found.exponent == 5 - F(1, 72)
        assert (report.mismatch.exponent, report.mismatch.lhs, report.mismatch.rhs) == (
            found.exponent,
            found.lhs,
            found.rhs,
        )

    def test_shared_two_variable_factor_is_still_refused(self, capsys, tmp_path):
        path = tmp_path / "bv.registry"
        path.write_text("BV | 20 | qlhs(-2,2) * rr:1 + qlhs(-2,2) * rr:2 | mono(0,0)\n")
        code = cli.main(["verify-all", "--registry", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: BV: products of two-variable series are not supported\n"


class TestDiscover:
    def test_min1_relation(self):
        series = [named_series(n, F(30)) for n in ("chi:5,6,1,2", "chi:5,6,1,4", "chi:2,5,1,1@q^1/2")]
        relations = discover(series, 30)
        assert len(relations) == 1
        assert relations[0].coefficients == (F(1), F(1), F(-1))

    def test_ten_characters_independent(self):
        series = [minimal_char(CharLabel(5, 6, m, n), F(15)) for m in (1, 2) for n in range(1, 6)]
        assert discover(series, 15) == []

    def test_six_basis_functions_full_rank(self):
        basis = _basis_functions(F(30))
        assert discover(basis, 30) == []

    def test_traces_against_basis_nullspace_dimension_six(self):
        order = F(30)
        columns = _six_traces(order) + _basis_functions(order)
        relations = discover(columns, 30)
        assert len(relations) == 6
        for relation in relations:
            _assert_relation_sound(relation, columns, order)

    def test_relation_normalization(self):
        rel = Relation((F(0), F(-2), F(4)))
        assert rel.coefficients == (F(0), F(1), F(-2))

    def test_all_zero_relation_rejected(self):
        with pytest.raises(ValueError):
            Relation((F(0), F(0)))

    def test_insufficient_rows(self):
        series = [minimal_char(CharLabel(2, 5, 1, 1), F(11, 60) + 4) for _ in range(3)]
        with pytest.raises(InsufficientRowsError):
            discover(series, F(11, 60) + 4)

    def test_sampling_beyond_certification_rejected(self):
        with pytest.raises(InsufficientOrderError):
            discover([zero(F(5)), zero(F(5))], 6)

    def test_rational_coefficients_exact(self):
        a = minimal_char(CharLabel(2, 5, 1, 1), F(25))
        combo = scale(a, F(3, 7))
        relations = discover([a, combo], 25)
        assert relations == [Relation((F(1), F(-7, 3)))]


# (A, B): A square and nonsingular, so diag(A, B) spends its first pivots on
# A's rows and leaves B's rows in their order for B's columns.
_BLOCKS = [
    ([[2, 1], [1, 3]], [[0, 4, 6], [6, 3, 0], [2, 2, 2], [4, 5, 6], [0, 0, 3]]),
    ([[3]], [[2, 4], [1, 2], [3, 6], [5, 1]]),
    ([[4, 0, 2], [6, 9, 0], [0, 5, 10]], [[0, 0], [6, 4], [9, 8], [0, 8]]),
]


def _diag(a, b):
    return [row + [0] * len(b[0]) for row in a] + [[0] * len(a[0]) + row for row in b]


class TestEchelon:
    def test_row_with_zero_in_pivot_column_unchanged(self):
        matrix = [[2, 0], [0, 3]]
        assert verify._echelon(matrix, 2) == ([[2, 0], [0, 3]], [0, 1])
        assert matrix == [[2, 0], [0, 3]]

    @pytest.mark.parametrize("a, b", _BLOCKS)
    def test_block_diagonal_eliminates_each_block_alone(self, a, b):
        width = len(a[0])
        echelon, pivots = verify._echelon(_diag(a, b), width + len(b[0]))
        alone, alone_pivots = verify._echelon(b, len(b[0]))
        assert pivots == list(range(width)) + [width + p for p in alone_pivots]
        assert [row[width:] for row in echelon] == [[0] * len(b[0])] * width + alone

    @pytest.mark.parametrize("matrix", [_diag(a, b) for a, b in _BLOCKS] + [b for _, b in _BLOCKS])
    def test_changed_rows_are_primitive(self, matrix):
        echelon, _ = verify._echelon(matrix, len(matrix[0]))
        changed = [row for row in echelon if row not in matrix]
        assert changed
        for row in changed:
            assert gcd(*row) == 1


# The graded traces under the order-two automorphism: the twisted pairs at
# h = 1/40 and 1/8 for epsilon 0 and 1, and the untwisted-sector traces of
# W0 and W2/5.
SIX_TRACES = (
    "chi:5,6,2,2 + chi:5,6,2,4",
    "chi:5,6,2,2 - chi:5,6,2,4",
    "chi:5,6,1,2 + chi:5,6,1,4",
    "chi:5,6,1,2 - chi:5,6,1,4",
    "chi:5,6,2,1 - chi:5,6,2,5",
    "chi:5,6,1,1 - chi:5,6,1,5",
)


def _six_traces(order):
    return [evaluate(parse_expression(text), order) for text in SIX_TRACES]


def _basis_functions(order):
    chi11 = minimal_char(CharLabel(2, 5, 1, 1), 2 * order)
    chi12 = minimal_char(CharLabel(2, 5, 1, 2), 2 * order)
    small11 = minimal_char(CharLabel(2, 5, 1, 1), order / 2)
    small12 = minimal_char(CharLabel(2, 5, 1, 2), order / 2)
    return [
        substitute(small11, 2),
        substitute(small12, 2),
        substitute(chi11, F(1, 2)),
        substitute(chi12, F(1, 2)),
        substitute_signed(chi11, F(1, 2)),
        substitute_signed(chi12, F(1, 2)),
    ]


def _assert_relation_sound(relation, columns, order):
    acc = zero(order)
    for coeff, series in zip(relation.coefficients, columns):
        if coeff:
            acc = acc + scale(series, coeff)
    assert acc.is_zero


class TestExpressionGrammar:
    def test_precedence(self):
        expr = parse_expression("rr:1 + rr:2 * rr:1")
        assert expr == Sum(((1, Name("rr:1")), (1, Product((Name("rr:2"), Name("rr:1"))))))

    def test_parentheses(self):
        expr = parse_expression("(rr:1 + rr:2) * rr:1")
        assert expr == Product((Sum(((1, Name("rr:1")), (1, Name("rr:2")))), Name("rr:1")))

    def test_sub_function(self):
        expr = parse_expression("sub(chi:2,5,1,1, 1/2)")
        assert expr == Subst(Name("chi:2,5,1,1"), F(1, 2))

    def test_subsigned_equals_suffix(self):
        via_func = evaluate(parse_expression("subsigned(chi:2,5,1,2, 1/2)"), F(10))
        via_name = evaluate(parse_expression("chi:2,5,1,2@-q^1/2"), F(10))
        assert via_func == via_name

    def test_mono_negative_arguments(self):
        expr = parse_expression("mono(-3/2, -1/6)")
        assert expr == Mono(F(-3, 2), F(-1, 6))

    def test_difference_chain_left_associative(self):
        # one flat chain, each sign applied to its own term, read left to right
        expr = parse_expression("rr:1 - rr:2 - fkw")
        assert expr == Sum(((1, Name("rr:1")), (-1, Name("rr:2")), (-1, Name("fkw"))))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "rr:1 +",
            "sub(rr:1)",
            "mono(1)",
            "rr:1 rr:2",
            "inv rr:1",
            "chi:2,5",
            "sub(rr:1,0)",
            "subsigned(rr:1,0)",
            "sub(rr:1,-1/2)",
            "sub(rr:1,1/0)",
            "mono(1,1/0)",
            "rr:1@q^0",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_expression(bad)


class TestRegistryText:
    def test_round_trip_records(self):
        text = """
        # comment line
        A | 10 | rr:1 | chi:2,5,1,1
        B | 7/2 | mono(1,0) + mono(1,1) | mono(1,0) + mono(1,1)
        """
        records = parse_registry_text(text)
        assert [r.id for r in records] == ["A", "B"]
        assert records[1].default_order == F(7, 2)
        assert check_record(records[0], 10).status is Status.PASS
        assert check_record(records[1], F(7, 2)).status is Status.PASS

    def test_bad_column_count(self):
        with pytest.raises(ValueError):
            parse_registry_text("A | 10 | rr:1")

    def test_empty_id(self):
        with pytest.raises(ValueError):
            parse_registry_text(" | 10 | rr:1 | rr:1")

    def test_zero_denominator_order(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_registry_text("A | 1/0 | rr:1 | rr:1")
