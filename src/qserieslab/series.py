"""Exact truncated Puiseux series in q.

A series is a finite list of (exponent, coefficient) pairs with rational
exponents on the grid (1/D)*Z, exact rational coefficients, and an exclusive
truncation order O: every coefficient at an exponent below O is exact, and
nothing is claimed at or above O.  Exponents may be negative.  All values are
immutable; every operation is a pure function.

Every operation that makes new terms computes their exponent numerators over
one common grid, in ascending order, and hands them to _from_grid, the one
constructor: it drops what lies at or beyond the order and reduces the
grading to the lcm of the exponent denominators.  The certified order is the
operation's own: min(O_a, O_b) for add and sub, O_a + h for the prefactor
shift _shift(a, h) = q^h * a, and the bounds stated on mul and invert.
"""

from __future__ import annotations

import inspect
import threading
from bisect import bisect_left
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Optional, Sequence, Union

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
        d = self.grading
        if d < 1:
            raise GradingError(f"grading denominator must be positive, got {d}")
        # Checked on integers: e = n/den lies on the grid iff den divides d,
        # and its grid numerator n*(d/den) orders the terms.
        top = _ceil(self.order * d)
        prev = None
        for e, c in self.terms:
            den = e.denominator
            if d % den:
                raise GradingError(f"exponent {e} not on the (1/{d})Z grid")
            if not c:
                raise ValueError(f"zero coefficient stored at exponent {e}")
            k = e.numerator * (d // den)
            if k >= top:
                raise ValueError(f"term at {e} at or beyond truncation order {self.order}")
            if prev is not None and k <= prev:
                raise ValueError("exponents must be strictly increasing")
            prev = k

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


def _from_grid(grid: int, exps: Sequence[int], coefs: Sequence[Fraction], order: Fraction) -> PuiseuxSeries:
    """Canonical series from ascending exponent numerators over `grid` and
    their nonzero coefficients.

    Drops the terms at or beyond the order; the grading denominator is reduced
    to grid / gcd(grid, exps), the lcm of the exponent denominators.
    """
    exps = exps[: bisect_left(exps, _ceil(order * grid))]
    terms = tuple(zip([Fraction(e, grid) for e in exps], coefs))
    return PuiseuxSeries(grid // gcd(grid, *exps), order, terms)


_exponent = itemgetter(0)


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
    terms = a.terms[: bisect_left(a.terms, o, key=_exponent)]
    return PuiseuxSeries(lcm(*(e.denominator for e, _ in terms)), o, terms)


_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")

# Keys held by each order-keyed memo before the least recently used goes.
_MEMO_SIZE = 32


def _highest_order_memo(fn: Callable[..., PuiseuxSeries]) -> Callable[..., PuiseuxSeries]:
    """Memoise a function whose `order` argument is a truncation order.

    The key is every other argument.  Each key holds one result, from the
    highest order requested so far.  A request at that order gets it back; a
    request below it gets truncate() of it, but only when the held result
    certified exactly the order it was asked for, so that it is exact on the
    whole of the smaller range.  Anything else is computed afresh.  At most
    _MEMO_SIZE keys are held, the least recently used evicted first.
    cache_info() and cache_clear() behave as for functools.lru_cache.
    """
    signature = inspect.signature(fn)
    held: OrderedDict = OrderedDict()  # key -> (requested order, result)
    lock = threading.Lock()  # guards `held` and the counts, not the call
    hits = misses = 0

    @wraps(fn)
    def memo(*args, **kwargs):
        nonlocal hits, misses
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        order = _frac(bound.arguments.pop("order"))
        key = tuple(bound.arguments.items())
        with lock:
            request, result = held.get(key, (None, None))
            exact = request is not None and result.order == request
            served = order == request or (exact and order < request)
            if served:
                held.move_to_end(key)
                hits += 1
            else:
                misses += 1
        if served:
            return result if order == request else truncate(result, order)
        result = fn(*args, **kwargs)
        with lock:
            entry = held.get(key)
            if entry is None or order > entry[0]:
                held[key] = (order, result)
                held.move_to_end(key)
                if len(held) > _MEMO_SIZE:
                    held.popitem(last=False)
        return result

    def cache_info() -> _CacheInfo:
        return _CacheInfo(hits, misses, _MEMO_SIZE, len(held))

    def cache_clear() -> None:
        nonlocal hits, misses
        with lock:
            held.clear()
            hits = misses = 0

    memo.cache_info = cache_info
    memo.cache_clear = cache_clear
    return memo


def add(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    return _combine(a, b, 1)


def sub(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    return _combine(a, b, -1)


def _combine(a: PuiseuxSeries, b: PuiseuxSeries, sign: int) -> PuiseuxSeries:
    """a + sign*b, exact below min(O_a, O_b), summed on the exponent
    numerators over lcm(D_a, D_b)."""
    grid = lcm(a.grading, b.grading)
    out = dict(zip(_grid_numerators(a.terms, grid), (c for _, c in a.terms)))
    for k, c in zip(_grid_numerators(b.terms, grid), (c if sign > 0 else -c for _, c in b.terms)):
        s = out.get(k)
        out[k] = c if s is None else s + c
    exps = sorted(k for k, c in out.items() if c)
    return _from_grid(grid, exps, [out[k] for k in exps], min(a.order, b.order))


def _shift(a: PuiseuxSeries, h: Fraction) -> PuiseuxSeries:
    """q^h * a, exact below O_a + h."""
    grid = lcm(a.grading, h.denominator)
    base = h.numerator * (grid // h.denominator)
    exps = [base + k for k in _grid_numerators(a.terms, grid)]
    return _from_grid(grid, exps, [c for _, c in a.terms], a.order + h)


def scale(a: PuiseuxSeries, c: Rational) -> PuiseuxSeries:
    f = _frac(c)
    if f == 0:
        return PuiseuxSeries(1, a.order, ())
    return PuiseuxSeries(a.grading, a.order, tuple((e, f * v) for e, v in a.terms))


def _lead_bound(a: PuiseuxSeries) -> Fraction:
    """Leading exponent of a; for an empty series min(0, O), a lower bound on
    the lead of anything it truncated."""
    return a.terms[0][0] if a.terms else min(Fraction(0), a.order)


# Above this many coefficient pair products, mul switches from the direct
# dictionary accumulation to Kronecker substitution on packed big integers.
_NAIVE_LIMIT = 20_000


def mul(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """Cauchy product, exact below min(O_a + lead(b), O_b + lead(a)).

    The bound uses leading exponents so that series with negative prefactors
    keep their full provably-exact range.  An empty operand's lead is taken
    as min(0, its order): whatever it truncated lies at or above that order,
    so two empty operands certify O_a + O_b when both orders are negative.
    """
    order = min(a.order + _lead_bound(b), b.order + _lead_bound(a))
    if not a.terms or not b.terms:
        return PuiseuxSeries(1, order, ())
    # Terms that cannot influence exponents below the result order are pruned.
    ta = a.terms[: bisect_left(a.terms, order - b.terms[0][0], key=_exponent)]
    tb = b.terms[: bisect_left(b.terms, order - a.terms[0][0], key=_exponent)]
    if not ta or not tb:
        return PuiseuxSeries(1, order, ())
    grid = lcm(a.grading, b.grading)
    if len(ta) * len(tb) > _NAIVE_LIMIT:
        return _kronecker_mul(ta, tb, order, grid)
    ea, ca, den_a = _numerators(ta, grid)
    eb, cb, den_b = _numerators(tb, grid)
    top = _ceil(order * grid)
    out: dict[int, int] = {}
    for x, u in zip(ea, ca):
        for y, v in zip(eb[: bisect_left(eb, top - x)], cb):
            s = out.get(x + y)
            out[x + y] = u * v if s is None else s + u * v
    exps = sorted(e for e, v in out.items() if v)
    den = den_a * den_b
    return _from_grid(grid, exps, [Fraction(out[e], den) for e in exps], order)


def _grid_numerators(terms: Sequence[tuple[Fraction, Fraction]], grid: int) -> list[int]:
    """The exponents' numerators over `grid`, a multiple of each denominator."""
    return [e.numerator * (grid // e.denominator) for e, _ in terms]


def _numerators(terms: Sequence[tuple[Fraction, Fraction]], grid: int) -> tuple[list[int], list[int], int]:
    """Exponent numerators over `grid` and coefficient numerators over their
    common denominator, which is returned third."""
    den = lcm(*(c.denominator for _, c in terms))
    coefs = [c.numerator * (den // c.denominator) for _, c in terms]
    return _grid_numerators(terms, grid), coefs, den


def _kronecker_mul(
    ta: Sequence[tuple[Fraction, Fraction]],
    tb: Sequence[tuple[Fraction, Fraction]],
    order: Fraction,
    grid: int,
) -> PuiseuxSeries:
    """Sparse product via one packed big-integer multiplication.

    Both operands are laid out densely on their common exponent stride, scaled
    to integer coefficients and packed as little-endian signed digits of a
    width that holds every coefficient of the product; Python's native
    big-int product then does the convolution.
    """
    ea, ca, den_a = _numerators(ta, grid)
    eb, cb, den_b = _numerators(tb, grid)
    base_a, base_b = ea[0], eb[0]
    g = gcd(*(e - base_a for e in ea), *(e - base_b for e in eb))
    if g == 0:
        # Both operands are monomials.
        return _from_grid(grid, [base_a + base_b], [Fraction(ca[0] * cb[0], den_a * den_b)], order)
    ia = _dense(ea, ca, g)
    ib = _dense(eb, cb, g)
    bound = max(map(abs, ca)) * max(map(abs, cb)) * min(len(ia), len(ib)) + 1
    nbytes = (bound.bit_length() + 9) // 8
    count = min(len(ia) + len(ib) - 1, _ceil((order * grid - base_a - base_b) / g))
    digits = _unpack(_pack(ia, nbytes) * _pack(ib, nbytes), nbytes, count)
    base = base_a + base_b
    den = den_a * den_b
    nonzero = [i for i, v in enumerate(digits) if v]
    exps = [base + i * g for i in nonzero]
    return _from_grid(grid, exps, [Fraction(digits[i], den) for i in nonzero], order)


def _dense(exps: list[int], coefs: list[int], g: int) -> list[int]:
    base = exps[0]
    vals = [0] * ((exps[-1] - base) // g + 1)
    for e, c in zip(exps, coefs):
        vals[(e - base) // g] = c
    return vals


def _pack(vals: list[int], nbytes: int) -> int:
    """sum(v * 256**(nbytes*i)) for digits v with |v| < 128 * 256**(nbytes - 1)."""
    empty = bytes(nbytes)
    pos = b"".join([v.to_bytes(nbytes, "little") if v > 0 else empty for v in vals])
    neg = b"".join([(-v).to_bytes(nbytes, "little") if v < 0 else empty for v in vals])
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(n: int, nbytes: int, count: int) -> list[int]:
    """The lowest `count` signed digits of n, each below 128 * 256**(nbytes - 1)
    in absolute value: adding that half-width to every digit makes them all
    nonnegative, so they read off the bytes with no borrows."""
    width = nbytes * count
    low = n & ((1 << (8 * width)) - 1)
    half = int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")
    data = (low + half).to_bytes(width + 1, "little")
    offset = 1 << (8 * nbytes - 1)
    return [int.from_bytes(data[i : i + nbytes], "little") - offset for i in range(0, width, nbytes)]


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
    exps = _grid_numerators(a.terms, a.grading)
    if len(exps) == 1:
        return _from_grid(a.grading, [-exps[0]], [1 / c0], order)
    step = gcd(*(x - exps[0] for x in exps))
    count = _ceil((order * a.grading + exps[0]) / step)
    coeffs: list = [Fraction(0)] * ((exps[-1] - exps[0]) // step + 1)
    for x, (_, c) in zip(exps, a.terms):
        coeffs[(x - exps[0]) // step] = c
    if c0 in (1, -1) and all(c.denominator == 1 for c in coeffs):
        coeffs = [c.numerator for c in coeffs]  # stay on ints: 1/c0 = c0
        r0 = coeffs[0]
    else:
        r0 = 1 / c0
    inv = [r0]
    for n in range(1, count):
        s = 0
        for k in range(1, min(n, len(coeffs) - 1) + 1):
            if coeffs[k]:
                s += coeffs[k] * inv[n - k]
        inv.append(-s * r0)
    nonzero = [n for n, v in enumerate(inv) if v]
    inv_exps = [n * step - exps[0] for n in nonzero]
    return _from_grid(a.grading, inv_exps, [Fraction(inv[n]) for n in nonzero], order)


def substitute(a: PuiseuxSeries, r: Rational) -> PuiseuxSeries:
    """Argument rescaling q -> q^r: every exponent is multiplied by r.

    With r > 0 the terms keep their order, so the exponent numerators k over
    the grading D become k * r.numerator over D * r.denominator, with no sort.
    """
    f = _frac(r)
    if f <= 0:
        raise ValueError(f"substitution exponent must be positive, got {f}")
    exps = [k * f.numerator for k in _grid_numerators(a.terms, a.grading)]
    return _from_grid(a.grading * f.denominator, exps, [c for _, c in a.terms], a.order * f)


def substitute_signed(a: PuiseuxSeries, r: Rational) -> PuiseuxSeries:
    """Signed rescaling: a_n*q^(h+n) maps to a_n*(-1)^n*q^(r*(h+n)).

    Branch convention: the sign acts on the integer offset n from the leading
    exponent, so the leading coefficient keeps its sign.  Requires integer-step
    exponents.  The terms keep their order, as in substitute(); the parity of
    n is read off the exponent numerators over the grading.
    """
    f = _frac(r)
    if f <= 0:
        raise ValueError(f"substitution exponent must be positive, got {f}")
    if not a.terms:
        return PuiseuxSeries(1, a.order * f, ())
    d = a.grading
    exps = _grid_numerators(a.terms, d)
    lead = exps[0]
    coefs = []
    for k, (_, c) in zip(exps, a.terms):
        n, rem = divmod(k - lead, d)
        if rem:
            raise GradingError(
                f"exponent step {Fraction(k - lead, d)} from the leading exponent is not an integer"
            )
        coefs.append(-c if n % 2 else c)
    return _from_grid(d * f.denominator, [k * f.numerator for k in exps], coefs, a.order * f)


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
    # Both term lists are sorted with nonzero coefficients, so the merge of
    # their prefixes below o can walk them in step: the first pair that
    # differs in exponent or coefficient holds the smallest disagreement.  A
    # common sentinel at o ends the shorter prefix.
    end = ((o, Fraction(0)),)
    ta = a.terms[: bisect_left(a.terms, o, key=_exponent)] + end
    tb = b.terms[: bisect_left(b.terms, o, key=_exponent)] + end
    for (ea, ca), (eb, cb) in zip(ta, tb):
        if ea != eb:
            return Mismatch(ea, ca, Fraction(0)) if ea < eb else Mismatch(eb, Fraction(0), cb)
        if ca != cb:
            return Mismatch(ea, ca, cb)
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
