"""Identity registry, checker, and exact linear-relation discovery.

Every checkable equation ships as an IdentityRecord holding two expression
trees.  check() evaluates each side once and compares them coefficient by
coefficient below the requested truncation order: every node asks its
children for the range it will lose (see evaluate()), so one pass certifies
that order.  A PASS is never reported beyond the certified order.

discover() finds the exact rational nullspace of the coefficient matrix of a
family of series (rows are exponents in the union of supports, columns are
the series) by fraction-free elimination on primitive, column-scaled integer
rows.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from math import ceil, gcd, lcm, prod
from typing import Optional, Sequence, Union

from . import bivariate as bv
from .characters import CharLabel, InvalidLabelError, UnknownNameError, minimal_char
from .lattice import fkw_character, theta_sum
from .products import ProductFactor, expand_product
from .series import (
    EmptySeriesError,
    InsufficientOrderError,
    Mismatch,
    PuiseuxSeries,
    Rational,
    SeriesError,
    _combine,
    _frac,
    _parse_frac,
    _times,
    compare,
    invert,
    monomial,
    mul,
    substitute,
    substitute_signed,
    truncate,
)

__all__ = [
    "Expr",
    "Name",
    "Sum",
    "Product",
    "Inv",
    "Subst",
    "SubstSigned",
    "Mono",
    "ProductExpr",
    "ThetaExpr",
    "QuintupleLHS",
    "QuintupleRHS",
    "BivariateThetaExpr",
    "Specialize",
    "IdentityRecord",
    "Status",
    "VerificationReport",
    "Relation",
    "UnknownIdentityError",
    "InsufficientRowsError",
    "evaluate",
    "registry",
    "check",
    "check_record",
    "discover",
    "parse_expression",
    "parse_name",
    "parse_registry_text",
    "load_registry",
]


class UnknownIdentityError(KeyError):
    """No registry record with the requested id."""


class InsufficientRowsError(ValueError):
    """discover() needs more usable coefficient rows than it was given."""


class EvaluationError(ValueError):
    """An expression tree combines values of incompatible kinds."""


# --------------------------------------------------------------------------
# Expression trees
# --------------------------------------------------------------------------


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Name(Expr):
    name: str


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple[tuple[int, Expr], ...]  # (sign +-1, term)


@dataclass(frozen=True)
class Product(Expr):
    factors: tuple[Expr, ...]


@dataclass(frozen=True)
class Inv(Expr):
    child: Expr


@dataclass(frozen=True)
class Subst(Expr):
    child: Expr
    ratio: Fraction


@dataclass(frozen=True)
class SubstSigned(Expr):
    child: Expr
    ratio: Fraction


@dataclass(frozen=True)
class Mono(Expr):
    coefficient: Fraction
    exponent: Fraction


@dataclass(frozen=True)
class ProductExpr(Expr):
    factors: tuple[ProductFactor, ...]


@dataclass(frozen=True)
class ThetaExpr(Expr):
    """theta_sum's sign * q^((quad*m^2 + lin*m + const)/grid) over m in Z and
    the branches (lin, const, sign), all integers."""

    grid: int
    quad: int
    branches: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class QuintupleLHS(Expr):
    zmin: int
    zmax: int


@dataclass(frozen=True)
class QuintupleRHS(Expr):
    zmin: int
    zmax: int


@dataclass(frozen=True)
class BivariateThetaExpr(Expr):
    branches: tuple[tuple[int, bv.FloorBranch], ...]  # (sign +-1, branch)
    zmin: int
    zmax: int


@dataclass(frozen=True)
class Specialize(Expr):
    child: Expr
    q_rescale: Fraction
    z_as_q_power: Fraction


Value = Union[PuiseuxSeries, bv.BivariateSeries]


def evaluate(expr: Expr, order: Rational) -> Value:
    """Evaluate an expression tree, certified to at least `order`.

    Every node asks its children for the range it will lose.  A name asks
    its prelude definition for o; chi:s,t,m,n and fkw compute o directly.  A
    sum asks each distinct term for o once and adds them, each times the sum
    of its signs, in one n-way combine.

    A product first opens, in place, its nested products and the names the
    prelude defines as products, and folds all its monomials into one factor
    placed last.  It probes each factor of that flat list once for its exact
    lead l_i = min(lead(factor i), 0), asks factor i for
    max(o + ceil(-(sum of l_j over j != i)), 0) and multiplies left to
    right.  Each value leads at or above l_i (an empty one, certified to at
    least 0, is bounded by 0) and is certified to at least
    o - (sum of l_j over j != i).  By induction on k, through mul's bound
    min(O_a + lead(b), O_b + lead(a)), the product P_k of the first k
    factors leads at or above L_k = l_1 + ... + l_k and is certified to at
    least o - (l_(k+1) + ... + l_n) and to L_k, which bounds the lead of an
    empty P_k; so P_n reaches o.  Requests stay on the lattice o + k that
    the memos share, and the flat list asks every factor the same whatever
    the nesting: a product that recurs, as the basic A2(2) product does in
    DECOMP-1.4, is asked for one order, and two equal factors meet in mul
    as equal operands.  When a probe raised, the product asks once more
    with the leads the factors showed.

    An inversion asks for max(o, 1), to see a lead h below 1
    (EmptySeriesError if it shows no term), then for o + 2h.  A
    specialization widens the window of every two-variable leaf under it,
    through sums, to the smallest symmetric one (never narrower) whose
    excluded layers reach o, by the floor of an order-0 probe, and asks for
    (o - edge*w)/r.  Every two-variable leaf carries a floor and a sum keeps
    the union of its terms' branches, each quadratic in m with a positive
    leading coefficient, so some window reaches o.
    Sums and products loop over their chains; only nesting recurses.
    """
    o = _frac(order)
    if isinstance(expr, Name):
        definition = _PRELUDE.get(expr.name)
        if definition is not None:
            return evaluate(definition, o)
        return fkw_character(o) if expr.name == "fkw" else minimal_char(_label(expr.name), o)
    if isinstance(expr, Sum):
        counts: dict[Expr, int] = {}
        for sign, term in expr.terms:
            counts[term] = counts.get(term, 0) + sign
        parts = [(evaluate(term, o), count) for term, count in counts.items()]
        kinds = {type(value) for value, _ in parts}
        if len(kinds) > 1:
            raise EvaluationError("cannot mix one- and two-variable series in a sum")
        return _combine(parts) if PuiseuxSeries in kinds else bv._combine(parts)
    if isinstance(expr, Product):
        factors = _flat_factors(expr.factors)
        values = _factor_values(factors, [_negative_lead(factor) for factor in factors], o)
        product = reduce(mul, values)
        if product.order < o:  # a probe raised; the factors now show their leads
            product = reduce(mul, _factor_values(factors, [_lead(v) for v in values], o))
        return product
    if isinstance(expr, Inv):
        request = max(o, 1)
        child = evaluate(expr.child, request)
        if not isinstance(child, PuiseuxSeries):
            raise EvaluationError("cannot invert a two-variable series")
        if not child.exps:
            raise EmptySeriesError(f"cannot invert: no term found below q^{request}")
        if child.order < o + 2 * child.leading_exponent:
            child = evaluate(expr.child, o + 2 * child.leading_exponent)
        return invert(child)
    if isinstance(expr, Subst):
        child = evaluate(expr.child, o / expr.ratio)
        return substitute(child, expr.ratio)
    if isinstance(expr, SubstSigned):
        child = evaluate(expr.child, o / expr.ratio)
        return substitute_signed(child, expr.ratio)
    if isinstance(expr, Mono):
        return monomial(expr.coefficient, expr.exponent, expr.exponent.denominator, o)
    if isinstance(expr, ProductExpr):
        return expand_product(expr.factors, o)
    if isinstance(expr, ThetaExpr):
        return theta_sum(expr.grid, expr.quad, expr.branches, o)
    if isinstance(expr, QuintupleLHS):
        return bv.quintuple_lhs(o, (expr.zmin, expr.zmax))
    if isinstance(expr, QuintupleRHS):
        return bv.quintuple_rhs(o, (expr.zmin, expr.zmax))
    if isinstance(expr, BivariateThetaExpr):
        return bv.bivariate_theta(expr.branches, o, (expr.zmin, expr.zmax))
    if isinstance(expr, Specialize):
        r, w = expr.q_rescale, expr.z_as_q_power
        probe = evaluate(expr.child, 0)
        if not isinstance(probe, bv.BivariateSeries):
            raise EvaluationError("specialize needs a two-variable series")
        # widths up to min(-zmin, zmax) leave the probe's own window as it is
        zmin, zmax, width = probe.zmin, probe.zmax, max(0, min(-probe.zmin, probe.zmax))
        while (bound := bv._excluded_floor(probe.floor, zmin, zmax, r, w)) is not None and bound < o:
            width += 1
            zmin, zmax = min(probe.zmin, -width), max(probe.zmax, width)
        edge = zmin if w >= 0 else zmax
        return bv.specialize(evaluate(_widened(expr.child, zmin, zmax), (o - edge * w) / r), r, w)
    raise EvaluationError(f"unknown expression node {expr!r}")


def _label(name: str) -> CharLabel:
    """The label of a name chi:s,t,m,n, which the grammar reads with any four
    numbers; UnknownNameError when they are out of range."""
    try:
        return CharLabel(*(int(x) for x in name[4:].split(",")))
    except InvalidLabelError as exc:
        raise UnknownNameError(str(exc)) from exc


def _flat_factors(factors: Sequence[Expr]) -> list[Expr]:
    """The factors of a product with its nested products, and the names the
    prelude defines as products, opened in place, left to right, and its
    monomials folded into one factor placed last."""
    flat: list[Expr] = []
    monos: list[Mono] = []
    stack = list(reversed(factors))
    while stack:
        factor = stack.pop()
        if isinstance(factor, Name):
            factor = _PRELUDE.get(factor.name, factor)
        if isinstance(factor, Product):
            stack.extend(reversed(factor.factors))
        elif isinstance(factor, Mono):
            monos.append(factor)
        else:
            flat.append(factor)
    if monos:
        flat.append(Mono(prod(m.coefficient for m in monos), sum(m.exponent for m in monos)))
    return flat


def _factor_values(factors: Sequence[Expr], leads: Sequence[Fraction], o: Fraction) -> list[PuiseuxSeries]:
    """Each factor evaluated to max(o + ceil(-(the other factors' leads)), 0)."""
    total = sum(leads)
    values = [evaluate(factor, max(o + ceil(lead - total), 0)) for factor, lead in zip(factors, leads)]
    if not all(isinstance(value, PuiseuxSeries) for value in values):
        raise EvaluationError("products of two-variable series are not supported")
    return values


def _widened(expr: Expr, zmin: int, zmax: int) -> Expr:
    """expr with the window of every two-variable leaf under its sums
    stretched to cover [zmin, zmax], never narrowed."""
    if isinstance(expr, Sum):
        return Sum(tuple((sign, _widened(term, zmin, zmax)) for sign, term in expr.terms))
    if isinstance(expr, (QuintupleLHS, QuintupleRHS, BivariateThetaExpr)):
        return replace(expr, zmin=min(expr.zmin, zmin), zmax=max(expr.zmax, zmax))
    return expr


@lru_cache(maxsize=1024)
def _negative_lead(expr: Expr) -> Fraction:
    """min(lead(expr), 0), exact, from a probe at order 0.

    The probe is certified to at least 0, so it holds every negative
    exponent.  A probe that raises gives 0; the product then asks again, or
    the full evaluation raises the real error.  Products are flat, so no
    factor probed is itself a product; one under a factor's sum or inversion
    probes its own factors, and this cache probes each subtree once.
    """
    try:
        return _lead(evaluate(expr, 0))
    except SeriesError:
        return Fraction(0)


def _lead(value: Value) -> Fraction:
    """A one-variable value's leading exponent when negative, else 0."""
    one_variable = isinstance(value, PuiseuxSeries) and value.exps
    return min(Fraction(0), value.leading_exponent) if one_variable else Fraction(0)


# --------------------------------------------------------------------------
# Records, reports, checking
# --------------------------------------------------------------------------


class Status(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INSUFFICIENT_ORDER = "INSUFFICIENT_ORDER"


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    lhs: Expr
    rhs: Expr
    default_order: Fraction
    description: str = ""


@dataclass(frozen=True)
class VerificationReport:
    id: str
    status: Status
    order_checked: Fraction
    mismatch: Optional[Mismatch]
    elapsed_ms: int

    def __post_init__(self) -> None:
        if self.status is Status.FAIL and self.mismatch is None:
            raise ValueError("FAIL reports must carry the mismatch")


def check_record(record: IdentityRecord, order: Optional[Rational] = None) -> VerificationReport:
    """Evaluate each side once and compare below min(order, certified orders).

    evaluate() certifies every request, so one pass reaches the target; a
    side certified below it gives INSUFFICIENT_ORDER, never PASS.
    """
    target = _frac(order) if order is not None else record.default_order
    started = time.perf_counter()
    lhs = evaluate(record.lhs, target)
    rhs = evaluate(record.rhs, target)
    checked = min(target, lhs.order, rhs.order)
    if isinstance(lhs, PuiseuxSeries) != isinstance(rhs, PuiseuxSeries):
        raise EvaluationError(f"record {record.id} compares incompatible kinds")
    if isinstance(lhs, PuiseuxSeries):
        mismatch = compare(lhs, rhs, checked)
    else:
        mismatch = bv.compare_bivariate(lhs, rhs, checked)
    elapsed = int((time.perf_counter() - started) * 1000)
    if mismatch is not None:
        return VerificationReport(record.id, Status.FAIL, checked, mismatch, elapsed)
    if checked < target:
        return VerificationReport(record.id, Status.INSUFFICIENT_ORDER, checked, None, elapsed)
    return VerificationReport(record.id, Status.PASS, target, None, elapsed)


def check(
    identity_id: str,
    order: Optional[Rational] = None,
    records: Optional[Sequence[IdentityRecord]] = None,
) -> VerificationReport:
    table = registry() if records is None else records
    for record in table:
        if record.id == identity_id:
            return check_record(record, order)
    raise UnknownIdentityError(identity_id)


# --------------------------------------------------------------------------
# The built-in registry
# --------------------------------------------------------------------------

# Every built-in record, in the line format the --registry override accepts.
_BUILTIN_TEXT = """
RR-1     | 50 | chi:2,5,1,1 | rr:1
RR-2     | 50 | chi:2,5,1,2 | rr:2
MIN-1    | 50 | chi:5,6,1,2 + chi:5,6,1,4 | chi:2,5,1,1@q^1/2
MIN-2    | 50 | chi:5,6,2,2 + chi:5,6,2,4 | chi:2,5,1,2@q^1/2
MIN-3    | 50 | chi:5,6,2,1 - chi:5,6,2,5 | chi:2,5,1,1@q^2
MIN-4    | 50 | chi:5,6,1,1 - chi:5,6,1,5 | chi:2,5,1,2@q^2
FKW-50   | 50 | fkw | chi:5,6,1,1 + chi:5,6,1,5
FKW-REMARK | 50 | fkw | w:0
RAMANUJAN  | 50 | a22:basic | chi:2,5,1,2@q^1/3 * chi:2,5,1,2@q^1/2 + chi:2,5,1,1@q^1/3 * chi:2,5,1,1@q^1/2
DECOMP-1.4 | 50 | a22:basic * a22:basic | a22:2L1 * chi:2,5,1,2@q^1/2 + mono(1,-1/6) * a22:L0 * chi:2,5,1,1@q^1/2
SIGNED-1/2-40 | 50 | chi:5,6,2,2 - chi:5,6,2,4 | chi:2,5,1,2@-q^1/2
SIGNED-1/2-8  | 50 | chi:5,6,1,2 - chi:5,6,1,4 | chi:2,5,1,1@-q^1/2
QPI     | 50 | qlhs(-25,25) | qrhs(-25,25)
# WANTED's product: (q)_inf divided by the product of (1-q^((5n+2)/2)) and (1-q^((5n+3)/2))
WANTED  | 50 | theta(30, -4,0,1, 16,2,-1, -14,3/2,1, 26,11/2,-1) | prod(1,1,1,1, 1,1,5/2,-1, 1,3/2,5/2,-1)
WANTED3 | 50 | qlhs(-25,25) | btheta(-25,25, 1,12,2,0,6,1, -1,12,14,4,6,4, 1,12,-2,0,6,0, -1,12,10,2,6,3)
# (1+q^(3/2)) prod (1-q^(5n))(1-q^(10n-8))(1-q^(10n-2))(1+q^(5n-3/2))(1+q^(5n+3/2)),
# with the lone (1+q^(3/2)) folded into the (1+q^(5n+3/2)) progression
EASY    | 50 | prod(-1,3/2,5,1, 1,5,5,1, 1,2,10,1, 1,8,10,1, -1,7/2,5,1) | prod(1,1,1,1, 1,1,5/2,-1, 1,3/2,5/2,-1)
SPECIALIZE-L | 50 | mono(1,3/2) * specialize(qlhs(-25,25), 5/2, -3/2) | theta(30, -4,0,1, 16,2,-1, -14,3/2,1, 26,11/2,-1)
SPECIALIZE-R | 50 | mono(1,3/2) * specialize(qrhs(-25,25), 5/2, -3/2) | prod(-1,3/2,5,1, 1,5,5,1, 1,2,10,1, 1,8,10,1, -1,7/2,5,1)
APPENDIX-DISPLAY | 50 | mono(1,11/120) * theta(30, -4,0,1, 16,2,-1, -14,3/2,1, 26,11/2,-1) * inv(prod(1,1,1,1)) | chi:5,6,1,2 + chi:5,6,1,4
"""

_DESCRIPTIONS = {
    "RR-1": "first Rogers-Ramanujan series: (2,5) vacuum character equals the {2,3} mod 5 product",
    "RR-2": "second Rogers-Ramanujan series: (2,5) character equals the {1,4} mod 5 product",
    "MIN-1": "sum of (5,6) characters at h=1/8,13/8 equals the first (2,5) character at sqrt q",
    "MIN-2": "sum of (5,6) characters at h=1/40,21/40 equals the second (2,5) character at sqrt q",
    "MIN-3": "difference of (5,6) characters at h=2/5,7/5 equals the first (2,5) character at q squared",
    "MIN-4": "difference of (5,6) characters at h=0,3 equals the second (2,5) character at q squared",
    "FKW-50": "lattice-sum vacuum character equals the h=0 plus h=3 (5,6) characters",
    "FKW-REMARK": "lattice-sum vacuum character equals the vacuum W-module character",
    "RAMANUJAN": "sixth-root product character as a bilinear combination of rescaled (2,5) characters",
    "DECOMP-1.4": "square of the basic twisted character against the level-two decomposition, "
    "with the second summand renormalized by q^(-1/6)",
    "QPI": "quintuple product identity, series side against product side",
    "WANTED": "four-branch theta sum equals the Euler function over the half-integer {2,3} mod 5 product",
    "WANTED3": "even/odd reindexing of the quintuple series side as four sums in z^(6m+r)",
    "EASY": "specialized quintuple product side rewritten as the Euler function over a product",
    "SPECIALIZE-L": "q->q^(5/2), z->q^(-3/2) specialization of the quintuple series side, times q^(3/2)",
    "SPECIALIZE-R": "q->q^(5/2), z->q^(-3/2) specialization of the quintuple product side, times q^(3/2)",
    "APPENDIX-DISPLAY": "four-branch theta sum with prefactor over the Euler function equals two (5,6) characters",
    "SIGNED-1/2-40": "signed trace at h=1/40 equals the signed sqrt-q substitution of the second (2,5) character",
    "SIGNED-1/2-8": "signed trace at h=1/8 equals the signed sqrt-q substitution of the first (2,5) character",
}

@lru_cache(maxsize=1)
def registry() -> tuple[IdentityRecord, ...]:
    """The built-in identity table, parsed from _BUILTIN_TEXT; ids and order
    are stable across runs."""
    return tuple(replace(r, description=_DESCRIPTIONS[r.id]) for r in parse_registry_text(_BUILTIN_TEXT))


# --------------------------------------------------------------------------
# Relation discovery
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Relation:
    """Nullspace vector: sum of coefficients[i] * series[i] vanishes mod the order."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        lead = next((c for c in self.coefficients if c != 0), None)
        if lead is None:
            raise ValueError("a relation must have a nonzero coefficient")
        if lead != 1:
            object.__setattr__(
                self, "coefficients", tuple(c / lead for c in self.coefficients)
            )


def discover(series: Sequence[PuiseuxSeries], order: Rational) -> list[Relation]:
    """Basis of exact rational linear relations among the series, below `order`.

    Rows are the exponents present in any of the series below the order;
    missing coefficients are zero.  The matrix is built on integers: column j
    holds the coefficients of series j times their common denominator den_j,
    and rows are keyed by exponent numerators over the lcm of the gradings.
    A nullspace vector y of that matrix gives the relation x_j = y_j * den_j.
    The rows fall into the classes of their exponents mod 1, k mod the grid,
    and a series has terms in few of them.  Each class is eliminated on its
    own, over only the columns present in it; _echelon() then runs once more
    on the pivot rows of every class, set in full width.  Those rows span the
    row space of the whole matrix, so the pivot columns and the
    back-substituted relations are those of eliminating it whole.
    An empty list means the sampled rows have full column rank.  Evidence is
    truncation-level only: a relation found at order O is not a proven
    identity.
    """
    o = _frac(order)
    cols = len(series)
    if cols == 0:
        return []
    for s in series:
        if s.order < o:
            raise InsufficientOrderError(
                f"series certified to {s.order} cannot be sampled to {o}"
            )
    cut = [truncate(s, o) for s in series]
    grid = lcm(*(s.grading for s in cut))
    entries: dict[int, list[tuple[int, int]]] = {}  # exponent -> (column, numerator)
    for j, s in enumerate(cut):
        for k, c in zip(_times(s.exps, grid // s.grading), s.nums):
            entries.setdefault(k, []).append((j, c))
    if len(entries) < cols + 8:
        raise InsufficientRowsError(
            f"need at least {cols + 8} coefficient rows, have {len(entries)}"
        )
    classes: dict[int, list[int]] = {}  # k mod grid -> its exponents
    for k in sorted(entries):
        classes.setdefault(k % grid, []).append(k)
    stacked = []
    for keys in classes.values():
        present = sorted({j for k in keys for j, _ in entries[k]})
        local = {j: i for i, j in enumerate(present)}
        matrix = [[0] * len(present) for _ in keys]
        for row, k in zip(matrix, keys):
            for j, c in entries[k]:
                row[local[j]] = c
        for row in _echelon(matrix, len(present))[0]:
            full = [0] * cols
            for j, x in zip(present, row):
                full[j] = x
            stacked.append(full)
    echelon, pivot_cols = _echelon(stacked, cols)
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    relations = []
    for f in free_cols:
        y = [Fraction(0)] * cols
        y[f] = Fraction(1)
        for i in range(len(pivot_cols) - 1, -1, -1):
            p = pivot_cols[i]
            acc = Fraction(0)
            for c in range(p + 1, cols):
                if echelon[i][c]:
                    acc += echelon[i][c] * y[c]
            y[p] = -acc / echelon[i][p]
        relations.append(Relation(tuple(v * s.den for v, s in zip(y, cut))))
    return relations


def _echelon(matrix: list[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
    """Forward elimination on primitive integer rows; returns pivot rows and pivot columns.

    discover() calls it on each exponent class's block and once more on the
    blocks' pivot rows together.

    A row with a nonzero entry in the pivot column becomes lead*row -
    factor*pivot_row from that column on, divided by its gcd: a nonzero multiple
    of the row Gaussian elimination gives.  Every other row is left as it is.
    """
    rows = [row[:] for row in matrix]
    n = len(rows)
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        tail = rows[r][c:]
        for row in rows[r + 1 :]:
            if factor := row[c]:
                new = [lead * x - factor * y for x, y in zip(row[c:], tail)]
                g = gcd(*new)
                row[c:] = [x // g for x in new] if g > 1 else new
        pivot_cols.append(c)
        r += 1
        if r == cols:
            break
    return rows[: len(pivot_cols)], pivot_cols


# --------------------------------------------------------------------------
# Registry text format
# --------------------------------------------------------------------------

# Every name but chi:s,t,m,n and fkw, defined in this grammar; evaluate()
# resolves a Name through these definitions.
_PRELUDE_TEXT = """
rr:1      = mono(1,11/60) * prod(1,2,5,-1, 1,3,5,-1)
rr:2      = mono(1,-1/60) * prod(1,1,5,-1, 1,4,5,-1)
a22:basic = mono(1,-1/72) * prod(1,1/6,1,-1, 1,5/6,1,-1)
a22:2L1   = a22:basic * chi:2,5,1,2@q^1/3
a22:L0    = mono(1,1/6) * a22:basic * chi:2,5,1,1@q^1/3
w:0       = chi:5,6,1,1 + chi:5,6,1,5
w:2/5     = chi:5,6,2,1 + chi:5,6,2,5
w:tau1/40 = chi:5,6,2,2 + chi:5,6,2,4
w:tau1/8  = chi:5,6,1,2 + chi:5,6,1,4
"""
_DEFINITIONS = [[part.strip() for part in line.split("=")] for line in _PRELUDE_TEXT.strip().splitlines()]
# A name, then an optional suffix @q^r or @-q^r, r a positive integer or p/q.
_NAME_RE = re.compile(
    rf"(?P<base>chi:\d+,\d+,\d+,\d+|fkw|{'|'.join(re.escape(name) for name, _ in _DEFINITIONS)})"
    r"(?:@(?P<signed>-?)q\^(?P<power>0*[1-9]\d*(?:/0*[1-9]\d*)?))?"
)
_NUMBER = r"-?\d+(?:/\d+)?"
# form: (usage, leading expressions, numbers, numbers per repeated group)
_FORMS = {
    "inv": ("inv(e)", 1, 0, 0),
    "sub": ("sub(e, r)", 1, 1, 0),
    "subsigned": ("subsigned(e, r)", 1, 1, 0),
    "mono": ("mono(c, e)", 0, 2, 0),
    "prod": ("prod(s,a,d,p, ...)", 0, 0, 4),
    "theta": ("theta(A, B,C,s, ...)", 0, 1, 3),
    "qlhs": ("qlhs(zmin, zmax)", 0, 2, 0),
    "qrhs": ("qrhs(zmin, zmax)", 0, 2, 0),
    "btheta": ("btheta(zmin, zmax, s,A,B,C,E,F, ...)", 0, 2, 6),
    "specialize": ("specialize(e, r, w)", 1, 2, 0),
}
# One match per token, a comma-separated run of numbers being one token;
# every character but whitespace falls in some token, if only in "bad".
_TOKEN_RE = re.compile(
    rf"(?P<func>{'|'.join(_FORMS)})\s*\(|(?P<name>{_NAME_RE.pattern})"
    rf"|(?P<numbers>{_NUMBER}(?:\s*,\s*{_NUMBER})*)|(?P<punct>[-+*(),])|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = [(m.lastgroup, m.group(m.lastgroup)) for m in _TOKEN_RE.finditer(text)]
    for kind, value in tokens:
        if kind == "bad":
            raise ValueError(f"unexpected character {value!r} in expression: {text!r}")
    return tokens


def _int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ValueError(f"{what} must be an integer, got {x}")
    return x.numerator


def _sign(x: Fraction) -> int:
    if x not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {x}")
    return x.numerator


def _window(zmin: Fraction, zmax: Fraction) -> tuple[int, int]:
    window = _int(zmin, "window"), _int(zmax, "window")
    if zmin > zmax:
        raise ValueError(f"empty z-window [{zmin}, {zmax}]")
    return window


def _build(form: str, child: Optional[Expr], nums: list[Fraction]) -> Expr:
    """The node of a function form whose arguments have the form's shape;
    zip(*[iter(nums)] * k) reads the numbers in groups of k."""
    if form in ("sub", "subsigned", "specialize") and nums[0] <= 0:
        raise ValueError(f"{form} ratio must be positive, got {nums[0]}")
    if form == "inv":
        return Inv(child)
    if form in ("sub", "subsigned"):
        return (Subst if form == "sub" else SubstSigned)(child, nums[0])
    if form == "mono":
        return Mono(*nums)
    if form == "prod":
        factors = (ProductFactor(_sign(s), a, d, _int(p, "power")) for s, a, d, p in zip(*[iter(nums)] * 4))
        return ProductExpr(tuple(factors))
    if form == "theta":
        # A, then (B, C, s) groups: A, B and C move to the grid of their lcm
        signs = [_sign(s) for s in nums[3::3]]
        if nums[0] <= 0:
            raise ValueError("quadratic coefficient must be positive for convergence")
        grid = lcm(*(x.denominator for x in nums))
        quad, *rest = (x.numerator * (grid // x.denominator) for x in nums)
        return ThetaExpr(grid, quad, tuple(zip(rest[0::3], rest[1::3], signs)))
    if form in ("qlhs", "qrhs"):
        return (QuintupleLHS if form == "qlhs" else QuintupleRHS)(*_window(*nums))
    if form == "btheta":
        shapes = zip(*[iter(nums[2:])] * 6)
        branches = tuple(
            (_sign(s), bv.FloorBranch(a, b, c, _int(e, "z-step"), _int(f, "z-offset"))) for s, a, b, c, e, f in shapes
        )
        return BivariateThetaExpr(branches, *_window(*nums[:2]))
    return Specialize(child, *nums)


class _ExprParser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def parse(self) -> Expr:
        expr = self._expr()
        if self.pos != len(self.tokens):
            raise ValueError(f"trailing tokens after expression: {self.tokens[self.pos:]}")
        return expr

    def _peek(self) -> Optional[tuple[str, str]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self, punct: str) -> None:
        if (tok := self._peek()) != ("punct", punct):
            raise ValueError(f"expected {punct!r}, got {tok}")
        self.pos += 1

    def _expr(self) -> Expr:
        terms = [(1, self._term())]
        while (tok := self._peek()) in (("punct", "+"), ("punct", "-")):
            self.pos += 1
            terms.append((1 if tok[1] == "+" else -1, self._term()))
        return terms[0][1] if len(terms) == 1 else Sum(tuple(terms))

    def _term(self) -> Expr:
        factors = [self._factor()]
        while self._peek() == ("punct", "*"):
            self.pos += 1
            factors.append(self._factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def _factor(self) -> Expr:
        tok = self._peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        kind, value = tok
        if kind == "name":
            return parse_name(value)
        if kind == "func":
            return self._call(value)
        if tok == ("punct", "("):
            inner = self._expr()
            self._take(")")
            return inner
        raise ValueError(f"unexpected token {tok} in expression")

    def _call(self, form: str) -> Expr:
        """The one argument reader of every function form, after its opening
        parenthesis: expressions and runs of numbers up to the closing one."""
        args: list[Union[Expr, Fraction]] = []
        while self._peek() != ("punct", ")"):
            if args:
                self._take(",")
            tok = self._peek()
            if tok is not None and tok[0] == "numbers":
                self.pos += 1
                args.extend(_parse_frac(x) for x in tok[1].split(","))
            else:
                args.append(self._expr())
        self.pos += 1
        usage, children, fixed, group = _FORMS[form]
        numbers = args[children:]
        count = len(numbers) - fixed
        kinds = [isinstance(a, Expr) for a in args]
        if kinds != [True] * children + [False] * len(numbers) or count < 0 or (count % group if group else count):
            raise ValueError(f"expected {usage}, got {len(args)} arguments to {form}")
        return _build(form, args[0] if children else None, numbers)


def parse_name(text: str) -> Optional[Expr]:
    """The node of one name: Name, or with a suffix @q^r (@-q^r) Subst
    (SubstSigned) of the base Name by r; None for any other text."""
    m = _NAME_RE.fullmatch(text)
    if m is None:
        return None
    base = Name(m.group("base"))
    if m.group("power") is None:
        return base
    return (SubstSigned if m.group("signed") else Subst)(base, Fraction(m.group("power")))


def parse_expression(text: str) -> Expr:
    """Parse the line grammar: names, e+e, e-e, e*e, parentheses and the
    function forms of _FORMS.  A chain of + and - is one flat Sum, a chain
    of * one flat Product; * binds tighter.  A form with the wrong count or
    kind of arguments, a sign other than +-1, a non-integer power, window or
    z-step, a power 0, an empty window, A <= 0, E <= 0 or a ratio r <= 0
    raises ValueError here, before anything is evaluated."""
    return _ExprParser(text).parse()


def parse_registry_text(text: str) -> list[IdentityRecord]:
    """Parse `id | order | lhs | rhs` lines; blank lines and # comments skipped."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 'id | order | lhs | rhs', got {raw!r}")
        rec_id, order_text, lhs_text, rhs_text = parts
        if not rec_id:
            raise ValueError(f"line {lineno}: empty identity id")
        try:
            order = Fraction(order_text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: bad order {order_text!r}") from None
        try:
            lhs, rhs = parse_expression(lhs_text), parse_expression(rhs_text)
        except (RecursionError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        records.append(IdentityRecord(rec_id, lhs, rhs, order))
    return records


_PRELUDE = {name: parse_expression(text) for name, text in _DEFINITIONS}


def load_registry(path: str) -> tuple[IdentityRecord, ...]:
    with open(path, "r", encoding="utf-8") as fh:
        return tuple(parse_registry_text(fh.read()))
