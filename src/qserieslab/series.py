"""Exact truncated Puiseux series in q.

A series is a finite list of (exponent, coefficient) pairs with rational
exponents on the grid (1/D)*Z, exact rational coefficients, and an exclusive
truncation order O: every coefficient at an exponent below O is exact, and
nothing is claimed at or above O.  Exponents may be negative.  All values are
immutable; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Mapping, Optional, Union

Rational = Union[Fraction, int, str]

__all__ = [
    "PuiseuxSeries",
    "Mismatch",
    "SeriesError",
    "GradingError",
    "EmptySeriesError",
    "InsufficientOrderError",
    "FormatError",
    "monomial",
    "zero",
    "add",
    "sub",
    "scale",
    "mul",
    "invert",
    "substitute",
    "substitute_signed",
    "compare",
    "truncate",
    "to_text",
    "from_text",
]


class SeriesError(Exception):
    """Base class for series arithmetic errors."""


class GradingError(SeriesError):
    """An exponent does not lie on the (1/D)*Z grid, or steps are not integral."""


class EmptySeriesError(SeriesError):
    """An operation that needs a leading term was applied to the zero series."""


class InsufficientOrderError(SeriesError):
    """A comparison or truncation was requested beyond the certified order."""


class FormatError(SeriesError):
    """Malformed text in the series serialization format."""


def _frac(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class Mismatch:
    """First disagreeing coefficient found by compare()."""

    exponent: Fraction
    lhs: Fraction
    rhs: Fraction
    z_exponent: Optional[int] = None


@dataclass(frozen=True)
class PuiseuxSeries:
    grading: int
    order: Fraction
    terms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if self.grading < 1:
            raise GradingError(f"grading denominator must be positive, got {self.grading}")
        prev = None
        for e, c in self.terms:
            if (e * self.grading).denominator != 1:
                raise GradingError(f"exponent {e} not on the (1/{self.grading})Z grid")
            if c == 0:
                raise ValueError(f"zero coefficient stored at exponent {e}")
            if e >= self.order:
                raise ValueError(f"term at {e} at or beyond truncation order {self.order}")
            if prev is not None and e <= prev:
                raise ValueError("exponents must be strictly increasing")
            prev = e

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def leading_exponent(self) -> Fraction:
        if not self.terms:
            raise EmptySeriesError("zero series has no leading exponent")
        return self.terms[0][0]

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise EmptySeriesError("zero series has no leading coefficient")
        return self.terms[0][1]

    @cached_property
    def _lookup(self) -> dict[Fraction, Fraction]:
        return dict(self.terms)

    def coefficient(self, exponent: Rational) -> Fraction:
        """Coefficient at the given exponent; raises beyond the truncation order."""
        e = _frac(exponent)
        if e >= self.order:
            raise InsufficientOrderError(f"exponent {e} is beyond the truncation order {self.order}")
        return self._lookup.get(e, Fraction(0))

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return sub(self, other)

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return mul(self, other)

    def __neg__(self) -> "PuiseuxSeries":
        return scale(self, -1)

    def __str__(self) -> str:
        return to_text(self)


def _build(mapping: Mapping[Fraction, Fraction], order: Fraction) -> PuiseuxSeries:
    """Canonicalize a sparse exponent->coefficient mapping into a series.

    Drops zeros and anything at or beyond the order; the grading denominator is
    reduced to the lcm of the surviving exponent denominators.
    """
    items = sorted((e, c) for e, c in mapping.items() if c != 0 and e < order)
    grading = 1
    for e, _ in items:
        grading = lcm(grading, e.denominator)
    return PuiseuxSeries(grading, order, tuple(items))


def zero(order: Rational, grading: int = 1) -> PuiseuxSeries:
    return PuiseuxSeries(grading, _frac(order), ())


def monomial(coefficient: Rational, exponent: Rational, grading: int, order: Rational) -> PuiseuxSeries:
    """The series c*q^e on the (1/grading)Z grid, empty if e >= order or c = 0."""
    c, e, o = _frac(coefficient), _frac(exponent), _frac(order)
    if (e * grading).denominator != 1:
        raise GradingError(f"exponent {e} not on the (1/{grading})Z grid")
    if c == 0 or e >= o:
        return PuiseuxSeries(grading, o, ())
    return PuiseuxSeries(grading, o, ((e, c),))


def truncate(a: PuiseuxSeries, order: Rational) -> PuiseuxSeries:
    """Lower the truncation order; raising it would claim unearned exactness."""
    o = _frac(order)
    if o > a.order:
        raise InsufficientOrderError(f"cannot extend order {a.order} to {o}")
    return _build(dict(a.terms), o)


def add(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    out: dict[Fraction, Fraction] = dict(a.terms)
    for e, c in b.terms:
        s = out.get(e)
        out[e] = c if s is None else s + c
    return _build(out, min(a.order, b.order))


def sub(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    out: dict[Fraction, Fraction] = dict(a.terms)
    for e, c in b.terms:
        s = out.get(e)
        out[e] = -c if s is None else s - c
    return _build(out, min(a.order, b.order))


def scale(a: PuiseuxSeries, c: Rational) -> PuiseuxSeries:
    f = _frac(c)
    if f == 0:
        return PuiseuxSeries(1, a.order, ())
    return PuiseuxSeries(a.grading, a.order, tuple((e, f * v) for e, v in a.terms))


def _lead_or_zero(a: PuiseuxSeries) -> Fraction:
    return a.terms[0][0] if a.terms else Fraction(0)


# Above this many coefficient pair products, mul switches from the direct
# dictionary accumulation to Kronecker substitution on packed big integers.
_NAIVE_LIMIT = 20_000


def mul(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """Cauchy product, exact below min(O_a + lead(b), O_b + lead(a)).

    The bound uses leading exponents so that series with negative prefactors
    keep their full provably-exact range (lead taken as 0 for a zero operand).
    """
    order = min(a.order + _lead_or_zero(b), b.order + _lead_or_zero(a))
    if not a.terms or not b.terms:
        return PuiseuxSeries(1, order, ())
    # Terms that cannot influence exponents below the result order are pruned.
    ta = [(e, c) for e, c in a.terms if e + b.terms[0][0] < order]
    tb = [(e, c) for e, c in b.terms if e + a.terms[0][0] < order]
    if not ta or not tb:
        return PuiseuxSeries(1, order, ())
    if len(ta) * len(tb) <= _NAIVE_LIMIT:
        out: dict[Fraction, Fraction] = {}
        for ea, ca in ta:
            for eb, cb in tb:
                e = ea + eb
                if e < order:
                    s = out.get(e)
                    out[e] = ca * cb if s is None else s + ca * cb
        return _build(out, order)
    return _build(_kronecker_mul(ta, tb, order), order)


def _gcd_frac(a: Fraction, b: Fraction) -> Fraction:
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    return Fraction(gcd(a.numerator * b.denominator, b.numerator * a.denominator), a.denominator * b.denominator)


def _stride(terms: list[tuple[Fraction, Fraction]]) -> Fraction:
    """gcd of exponent offsets from the leading exponent (0 for a monomial)."""
    base = terms[0][0]
    g = Fraction(0)
    for e, _ in terms[1:]:
        g = _gcd_frac(g, e - base)
    return g


def _kronecker_mul(
    ta: list[tuple[Fraction, Fraction]],
    tb: list[tuple[Fraction, Fraction]],
    order: Fraction,
) -> dict[Fraction, Fraction]:
    """Sparse product via packed big-integer multiplication.

    Both operands are laid out densely on their common exponent stride, scaled
    to integer coefficients, packed as little-endian fixed-width digits, and
    multiplied with Python's native big-int arithmetic.  Signs are handled by
    splitting each operand into positive and negative parts.
    """
    ga = _stride(ta)
    gb = _stride(tb)
    g = _gcd_frac(ga, gb)
    base_a, base_b = ta[0][0], tb[0][0]
    if g == 0:
        # Both operands are monomials.
        e = base_a + base_b
        return {e: ta[0][1] * tb[0][1]} if e < order else {}

    den_a = 1
    for _, c in ta:
        den_a = lcm(den_a, c.denominator)
    den_b = 1
    for _, c in tb:
        den_b = lcm(den_b, c.denominator)

    ia = _dense_ints(ta, base_a, g, den_a)
    ib = _dense_ints(tb, base_b, g, den_b)
    bound = max(abs(v) for v in ia) * max(abs(v) for v in ib) * min(len(ia), len(ib)) + 1
    nbytes = (bound.bit_length() + 9) // 8

    def split(vals: list[int]) -> tuple[int, int]:
        pos = _pack([v if v > 0 else 0 for v in vals], nbytes)
        neg = _pack([-v if v < 0 else 0 for v in vals], nbytes)
        return pos, neg

    ap, an = split(ia)
    bp, bn = split(ib)
    count = len(ia) + len(ib) - 1
    acc = [0] * count
    for prod, sign in ((ap * bp, 1), (an * bn, 1), (ap * bn, -1), (an * bp, -1)):
        if prod:
            for i, v in enumerate(_unpack(prod, nbytes, count)):
                if v:
                    acc[i] += sign * v

    scale_back = Fraction(1, den_a * den_b)
    base = base_a + base_b
    out: dict[Fraction, Fraction] = {}
    for i, v in enumerate(acc):
        if v:
            e = base + i * g
            if e < order:
                out[e] = v * scale_back
    return out


def _dense_ints(terms: list[tuple[Fraction, Fraction]], base: Fraction, g: Fraction, den: int) -> list[int]:
    length = int((terms[-1][0] - base) / g) + 1
    vals = [0] * length
    for e, c in terms:
        idx = (e - base) / g
        vals[int(idx)] = c.numerator * (den // c.denominator)
    return vals


def _pack(vals: list[int], nbytes: int) -> int:
    buf = bytearray(len(vals) * nbytes)
    for i, v in enumerate(vals):
        if v:
            buf[i * nbytes : (i + 1) * nbytes] = v.to_bytes(nbytes, "little")
    return int.from_bytes(buf, "little")


def _unpack(n: int, nbytes: int, count: int) -> list[int]:
    data = n.to_bytes(count * nbytes, "little")
    return [int.from_bytes(data[i * nbytes : (i + 1) * nbytes], "little") for i in range(count)]


def invert(a: PuiseuxSeries) -> PuiseuxSeries:
    """Multiplicative inverse: mul(a, invert(a)) = 1 within the attainable order.

    The inverse of q^h*(c0 + ...) leads at -h; perturbing a at order O_a moves
    the inverse at O_a - 2h, so that is the certified order of the result.
    """
    if not a.terms:
        raise EmptySeriesError("cannot invert the zero series")
    h = a.terms[0][0]
    c0 = a.terms[0][1]
    order = a.order - 2 * h
    if len(a.terms) == 1:
        return _build({-h: 1 / c0}, order)
    g = _stride(list(a.terms))
    count = _ceil((order + h) / g)
    coeffs = [Fraction(0)] * (int((a.terms[-1][0] - h) / g) + 1)
    for e, c in a.terms:
        coeffs[int((e - h) / g)] = c
    integral = c0 in (1, -1) and all(c.denominator == 1 for c in coeffs)
    if integral:
        avals = [int(c) for c in coeffs]
        a0 = avals[0]
        inv: list = [a0]  # 1/a0 = a0 for a0 = +-1
        for n in range(1, count):
            s = 0
            for k in range(1, min(n, len(avals) - 1) + 1):
                if avals[k]:
                    s += avals[k] * inv[n - k]
            inv.append(-s * a0)
    else:
        inv = [1 / c0]
        for n in range(1, count):
            s = Fraction(0)
            for k in range(1, min(n, len(coeffs) - 1) + 1):
                if coeffs[k]:
                    s += coeffs[k] * inv[n - k]
            inv.append(-s / c0)
    out = {-h + n * g: Fraction(v) for n, v in enumerate(inv) if v}
    return _build(out, order)


def substitute(a: PuiseuxSeries, r: Rational) -> PuiseuxSeries:
    """Argument rescaling q -> q^r: every exponent is multiplied by r."""
    f = _frac(r)
    if f <= 0:
        raise ValueError(f"substitution exponent must be positive, got {f}")
    return _build({e * f: c for e, c in a.terms}, a.order * f)


def substitute_signed(a: PuiseuxSeries, r: Rational) -> PuiseuxSeries:
    """Signed rescaling: a_n*q^(h+n) maps to a_n*(-1)^n*q^(r*(h+n)).

    Branch convention: the sign acts on the integer offset n from the leading
    exponent, so the leading coefficient keeps its sign.  Requires integer-step
    exponents.
    """
    f = _frac(r)
    if f <= 0:
        raise ValueError(f"substitution exponent must be positive, got {f}")
    if not a.terms:
        return PuiseuxSeries(1, a.order * f, ())
    h = a.terms[0][0]
    out: dict[Fraction, Fraction] = {}
    for e, c in a.terms:
        n = e - h
        if n.denominator != 1:
            raise GradingError(f"exponent step {n} from the leading exponent is not an integer")
        out[e * f] = c if n % 2 == 0 else -c
    return _build(out, a.order * f)


def compare(a: PuiseuxSeries, b: PuiseuxSeries, order: Rational) -> Optional[Mismatch]:
    """Coefficientwise comparison below the given order.

    Returns None when every coefficient below `order` agrees (PASS) and the
    smallest disagreement otherwise.  Comparing beyond either certified order
    raises instead of silently passing.
    """
    o = _frac(order)
    if o > a.order or o > b.order:
        raise InsufficientOrderError(
            f"compare to {o} exceeds certified orders ({a.order}, {b.order})"
        )
    da, db = dict(a.terms), dict(b.terms)
    for e in sorted(set(da) | set(db)):
        if e >= o:
            break
        ca = da.get(e, Fraction(0))
        cb = db.get(e, Fraction(0))
        if ca != cb:
            return Mismatch(e, ca, cb)
    return None


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def to_text(a: PuiseuxSeries) -> str:
    """Serialize: header `D=<int> O=<num>/<den>`, then one `exp coef` line per term."""
    lines = [f"D={a.grading} O={_fmt(a.order)}"]
    lines.extend(f"{_fmt(e)} {_fmt(c)}" for e, c in a.terms)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> PuiseuxSeries:
    """Parse the text format back, bit-exactly."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty series text")
    head = lines[0].split()
    if len(head) != 2 or not head[0].startswith("D=") or not head[1].startswith("O="):
        raise FormatError(f"bad header line: {lines[0]!r}")
    try:
        grading = int(head[0][2:])
        order = _parse_frac(head[1][2:])
    except ValueError as exc:
        raise FormatError(f"bad header line: {lines[0]!r}") from exc
    terms = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad term line: {ln!r}")
        try:
            terms.append((_parse_frac(parts[0]), _parse_frac(parts[1])))
        except ValueError as exc:
            raise FormatError(f"bad term line: {ln!r}") from exc
    return PuiseuxSeries(grading, order, tuple(terms))


def _parse_frac(s: str) -> Fraction:
    """Parse `p` or `p/q` exactly; a zero denominator raises ValueError."""
    if "/" in s:
        num, den = s.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))
