"""Exact truncated Puiseux series in q.

A series is a finite list of terms c*q^e with rational exponents on the grid
(1/D)*Z, exact rational coefficients, and an exclusive truncation order O:
every coefficient at an exponent below O is exact, and nothing is claimed at
or above O.  Exponents may be negative.  All values are immutable; every
operation is a pure function.

A series stores integers: the grading D, the ascending exponent numerators
`exps` over D, and the nonzero coefficient numerators `nums` over one
denominator `den` > 0, kept canonical with gcd(den, *nums) = 1; only O is a
Fraction.  Fractions are built at the edge: `terms`, `coefficient`,
`leading_*` and the text format.  Every operation computes its terms on
integers over one common grid, in ascending order, and hands them to
_from_grid, the one internal constructor: it drops what lies at or beyond the
order, reduces the grading to the lcm of the exponent denominators and den to
lowest terms.  The certified order is the operation's own: min(O_a, O_b) for
add and sub, O_a + h for the prefactor shift _shift(a, h) = q^h * a, and the
bounds stated on mul and invert.

mul picks one of four paths from its operands, after pruning the terms that
cannot reach below the product's order.  With na <= nb terms laid out densely
on their common exponent stride in la and lb slots: pairs are summed one by
one when na * nb <= la + lb; a sparse factor of +-1 numerators, such as a
theta sum, adds na shifted copies of the other when na * lb <= (la + lb) * w,
for w the bit length of the other's largest numerator, so that it adds no more
elements than packing would write bits; otherwise the product is one
Kronecker substitution, both operands packed as signed digits into one number
each (equal operands once, the number squared) and multiplied once, as Python
ints, or above _TRANSFORM_BITS as decimals in an exact libmpdec context,
whose number-theoretic transform is faster there.
"""

from __future__ import annotations

import inspect
import operator
import sys
import threading
from bisect import bisect_left
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import accumulate
from math import gcd, lcm
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


@dataclass(frozen=True, init=False)
class PuiseuxSeries:
    """The terms (n/den)*q^(k/grading) for k, n in zip(exps, nums), exact below
    the order; canonical, so equal series have equal fields.  The constructor
    takes ascending (exponent, coefficient) pairs below the order and checks them.
    """

    grading: int
    order: Fraction
    exps: tuple[int, ...]
    nums: tuple[int, ...]
    den: int

    def __init__(self, grading: int, order: Rational, terms: Sequence[tuple[Rational, Rational]]) -> None:
        d = grading
        if d < 1:
            raise GradingError(f"grading denominator must be positive, got {d}")
        o = _frac(order)
        # On integers: e = n/m lies on the grid iff m divides d.
        top = _ceil(o * d)
        exps: list[int] = []
        for e, c in terms:
            m = e.denominator
            if d % m:
                raise GradingError(f"exponent {e} not on the (1/{d})Z grid")
            if not c:
                raise ValueError(f"zero coefficient stored at exponent {e}")
            k = e.numerator * (d // m)
            if k >= top:
                raise ValueError(f"term at {e} at or beyond truncation order {o}")
            if exps and k <= exps[-1]:
                raise ValueError("exponents must be strictly increasing")
            exps.append(k)
        # Over the lcm of the reduced denominators gcd(den, *nums) is already 1.
        coefs = [_frac(c) for _, c in terms]
        den = lcm(*(c.denominator for c in coefs))
        nums = tuple(c.numerator * (den // c.denominator) for c in coefs)
        vars(self).update(grading=d, order=o, exps=tuple(exps), nums=nums, den=den)

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The ascending (exponent, coefficient) pairs, as Fractions."""
        d, den = self.grading, self.den
        return tuple((Fraction(k, d), Fraction(n, den)) for k, n in zip(self.exps, self.nums))

    @property
    def is_zero(self) -> bool:
        return not self.exps

    @property
    def leading_exponent(self) -> Fraction:
        if not self.exps:
            raise EmptySeriesError("zero series has no leading exponent")
        return Fraction(self.exps[0], self.grading)

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.exps:
            raise EmptySeriesError("zero series has no leading coefficient")
        return Fraction(self.nums[0], self.den)

    def coefficient(self, exponent: Rational) -> Fraction:
        """Coefficient at the given exponent; raises beyond the truncation order."""
        e = _frac(exponent)
        if e >= self.order:
            raise InsufficientOrderError(f"exponent {e} is beyond the truncation order {self.order}")
        k = e * self.grading  # an integer exactly when e lies on the grid
        i = bisect_left(self.exps, k)
        return Fraction(self.nums[i], self.den) if self.exps[i : i + 1] == (k,) else Fraction(0)

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


def _from_grid(grid: int, exps: Sequence[int], nums: Sequence[int], den: int, order: Fraction) -> PuiseuxSeries:
    """The series of ascending exponent numerators over `grid` and nonzero
    coefficient numerators over den > 0, with the terms at or beyond the order
    dropped, grid and exps divided by their gcd (the grading is then the lcm
    of the exponent denominators), and den and nums by theirs."""
    n = bisect_left(exps, _ceil(order * grid))
    exps, nums = exps[:n], nums[:n]
    if 0 in nums:
        raise ValueError("zero coefficient stored")
    if any(map(operator.ge, exps, exps[1:])):
        raise ValueError("exponents must be strictly increasing")
    g = gcd(grid, *exps)
    if g > 1:
        grid, exps = grid // g, [k // g for k in exps]
    g = gcd(den, *nums)
    if g > 1:
        den, nums = den // g, [c // g for c in nums]
    s = object.__new__(PuiseuxSeries)
    vars(s).update(grading=grid, order=order, exps=tuple(exps), nums=tuple(nums), den=den)
    return s


def _times(xs: Sequence[int], m: int) -> Sequence[int]:
    """Numerators carried over to a grid or denominator m times as fine."""
    return xs if m == 1 else [x * m for x in xs]


def zero(order: Rational, grading: int = 1) -> PuiseuxSeries:
    return PuiseuxSeries(grading, order, ())


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
    return _from_grid(a.grading, a.exps, a.nums, a.den, o)


_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")

# Keys held by each order-keyed memo before the least recently used goes.
_MEMO_SIZE = 32


def _highest_order_memo(fn: Callable[..., PuiseuxSeries]) -> Callable[..., PuiseuxSeries]:
    """Memoise a function whose `order` argument is a truncation order.

    The key is every other argument.  Each key holds one result, the order
    it was computed at, and the largest order requested for the key so far.
    A request at the computed order gets the result back; a request below it
    gets truncate() of it, but only when the held result certified exactly
    its computed order, so that it is exact on the whole of the smaller
    range.  A request above such a result runs fn at max(order, 2L), L the
    largest earlier request, and gets truncate() of that: a ladder of rising
    requests then costs one run each time the requests double, not one per
    rung.  A grown run that raises MemoryError is retried at the request.
    Anything else is computed afresh at its own order.

    So fn never runs above twice the largest request for its key, and a held
    result's order, and with it its length, is at most twice what its
    callers asked for.  The base is the largest request, not the computed
    order: doubling the computed order would let each growth raise the base
    of the next, so that a request just above 2L runs at 4L, then 8L.  A
    request at twice L or more runs at exactly its order, so a key asked at
    0 by a probe and then at one order, or at orders that each at least
    double the one before, never grows.  At most _MEMO_SIZE keys are held,
    the least recently used evicted first.  cache_info() and cache_clear()
    behave as for functools.lru_cache.
    """
    signature = inspect.signature(fn)
    held: OrderedDict = OrderedDict()  # key -> (computed order, result, largest request)
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
            computed, result, largest = held.get(key, (None, None, None))
            exact = computed is not None and result.order == computed
            served = order == computed or (exact and order < computed)
            if served:
                held.move_to_end(key)
                hits += 1
            else:
                misses += 1
            if computed is not None and order > largest:
                held[key] = (computed, result, order)
        if served:
            return result if order == computed else truncate(result, order)
        run = max(order, 2 * largest) if exact else order
        result = None
        if run > order:
            try:
                result = fn(*bound.args, order=run, **bound.kwargs)
            except MemoryError:  # retried at the request, once the handler has let go of the frames
                run = order
        if result is None:
            result = fn(*args, **kwargs)
        with lock:
            entry = held.get(key)
            if entry is None or run > entry[0]:
                held[key] = (run, result, order if entry is None else max(order, entry[2]))
                held.move_to_end(key)
                if len(held) > _MEMO_SIZE:
                    held.popitem(last=False)
        return result if result.order <= order else truncate(result, order)

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
    return _combine([(a, 1), (b, 1)])


def sub(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    return _combine([(a, 1), (b, -1)])


def _combine(parts: Sequence[tuple[PuiseuxSeries, int]]) -> PuiseuxSeries:
    """The sum of sign*s over one or more (s, sign) parts, exact below the
    least of their orders, summed on the exponent numerators over the lcm of
    the gradings and the coefficient numerators over the lcm of the dens."""
    grid, den = lcm(*(s.grading for s, _ in parts)), lcm(*(s.den for s, _ in parts))
    out: dict[int, int] = {}
    for s, sign in parts:
        for k, c in zip(_times(s.exps, grid // s.grading), _times(s.nums, sign * (den // s.den))):
            out[k] = out.get(k, 0) + c
    exps = sorted(k for k, c in out.items() if c)
    return _from_grid(grid, exps, [out[k] for k in exps], den, min(s.order for s, _ in parts))


def _shift(a: PuiseuxSeries, h: Fraction) -> PuiseuxSeries:
    """q^h * a, exact below O_a + h."""
    grid = lcm(a.grading, h.denominator)
    base = h.numerator * (grid // h.denominator)
    exps = [base + k for k in _times(a.exps, grid // a.grading)]
    return _from_grid(grid, exps, a.nums, a.den, a.order + h)


def scale(a: PuiseuxSeries, c: Rational) -> PuiseuxSeries:
    f = _frac(c)
    if f == 0:
        return zero(a.order)
    return _from_grid(a.grading, a.exps, _times(a.nums, f.numerator), a.den * f.denominator, a.order)


def _lead_bound(a: PuiseuxSeries) -> Fraction:
    """Leading exponent of a; for an empty series min(0, O), a lower bound on
    the lead of anything it truncated."""
    return a.leading_exponent if a.exps else min(Fraction(0), a.order)


# Above this many bits in the packed product, the Kronecker product is one
# libmpdec multiplication in radix 10**w: its number-theoretic transform beats
# CPython's Karatsuba int product there (break-even near 300k bits).
_TRANSFORM_BITS = 400_000

try:  # the C decimal module, libmpdec; decimal itself may be pure Python
    from _decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
except ImportError:
    _LIBMPDEC = None
else:  # every result exact, or Inexact / Rounded raises
    _LIBMPDEC = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])


def mul(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """Cauchy product, exact below min(O_a + lead(b), O_b + lead(a)).

    The bound uses leading exponents so that series with negative prefactors
    keep their full provably-exact range.  An empty operand's lead is taken
    as min(0, its order): whatever it truncated lies at or above that order,
    so two empty operands certify O_a + O_b when both orders are negative.

    The operands pick the kernel.  Terms that cannot reach below the result
    order are pruned first; a one-term operand then shifts and scales the
    other.  Otherwise, laid out densely on their common exponent stride g,
    the operands of na <= nb terms fill la + lb digits, and w is the bit
    length of the larger operand's largest coefficient numerator.
      pairs:   na * nb <= la + lb; each pair product is summed.
      shifted: the na numerators are all +-1 and na * lb <= (la + lb) * w;
               na shifted copies of the larger operand are added
               (_shifted_mul).
      packed:  otherwise, one Kronecker product (_kronecker_mul).
    Pairs make no more products than packing lays out digits, and shifted
    adds no more elements than packing writes bits, its digits being at
    least w bits wide, so neither outgrows packing's linear work.  A
    numerator other than +-1 would add a multiplication to each of its lb
    additions, which packing does at once for every term.
    """
    order = min(a.order + _lead_bound(b), b.order + _lead_bound(a))
    if not a.exps or not b.exps:
        return zero(order)
    grid = lcm(a.grading, b.grading)
    ea, eb = _times(a.exps, grid // a.grading), _times(b.exps, grid // b.grading)
    top = _ceil(order * grid)
    # Terms that cannot reach below the result order are pruned (never a lead).
    na, nb = bisect_left(ea, top - eb[0]), bisect_left(eb, top - ea[0])
    ea, ca, eb, cb = ea[:na], a.nums[:na], eb[:nb], b.nums[:nb]
    if nb < na:  # a is the operand with fewer terms
        ea, ca, eb, cb, na, nb = eb, cb, ea, ca, nb, na
    if na == 1:  # b shifted and scaled
        return _from_grid(grid, [ea[0] + e for e in eb], _times(cb, ca[0]), a.den * b.den, order)
    g = gcd(*(e - ea[0] for e in ea), *(e - eb[0] for e in eb))
    la, lb = (ea[-1] - ea[0]) // g + 1, (eb[-1] - eb[0]) // g + 1
    if na * nb <= la + lb:
        out: dict[int, int] = {}
        for x, u in zip(ea, ca):
            for y, v in zip(eb[: bisect_left(eb, top - x)], cb):
                s = out.get(x + y)
                out[x + y] = u * v if s is None else s + u * v
        exps = sorted(e for e, v in out.items() if v)
        nums = [out[e] for e in exps]
    elif max(map(abs, ca)) == 1 and na * lb <= (la + lb) * max(map(abs, cb)).bit_length():
        exps, nums = _shifted_mul(ea, eb, ca, cb, top, g)
    else:
        exps, nums = _kronecker_mul(ea, eb, ca, cb, top, g)
    return _from_grid(grid, exps, nums, a.den * b.den, order)


def _shifted_mul(
    ea: Sequence[int], eb: Sequence[int], ca: Sequence[int], cb: Sequence[int], top: int, g: int
) -> tuple[list[int], list[int]]:
    """The product's exponent and coefficient numerators below `top`, from
    the operands' on one grid, where every numerator of a is 1 or -1: one
    shifted copy of b's dense layout on g per term of a, added to or
    subtracted from the `count` kept slots as one slice update.  A slice past
    the last kept slot stops there, and map stops with it."""
    ib = _dense(eb, cb, g)
    base = ea[0] + eb[0]
    count = min((ea[-1] - ea[0]) // g + len(ib), -((base - top) // g))
    out = [0] * count
    for e, c in zip(ea, ca):
        i = (e - ea[0]) // g
        j = i + len(ib)
        out[i:j] = map(operator.add if c == 1 else operator.sub, out[i:j], ib)
    return _sparse(out, base, g)


def _kronecker_mul(
    ea: Sequence[int], eb: Sequence[int], ca: Sequence[int], cb: Sequence[int], top: int, g: int
) -> tuple[list[int], list[int]]:
    """The product's exponent and coefficient numerators below `top`, from
    the operands' on one grid, via one packed multiplication.

    Both operands are laid out densely on g, a common stride of their
    exponent offsets, and packed as little-endian signed digits wide enough
    for the `count` kept ones: |c_k| <= sum(|s_i| * max|l_0..l_(count-1-i)|)
    for k < count, s the shorter layout and l the other.  That is at most
    max|s| * max|l| * len(s) and at least every operand numerator.  Digits
    above the cut may overflow and are discarded.  Equal operands are packed
    once and the number squared.  Up to _TRANSFORM_BITS product bits that
    is Python's int product on digits of whole bytes; above it, libmpdec's
    exact transform product on digits of w decimal places (_transform_mul),
    unless decimal is pure Python or a digit could not pass through str.
    """
    ia = _dense(ea, ca, g)
    ib = ia if ca == cb and ea == eb else _dense(eb, cb, g)
    size = len(ia) + len(ib) - 1
    base = ea[0] + eb[0]
    count = min(size, -((base - top) // g))
    short, long = sorted((ia, ib), key=len)
    peak = list(accumulate(map(abs, long[:count]), max))
    peak += peak[-1:] * (count - len(peak))
    bound = sum(map(operator.mul, map(abs, short[:count]), reversed(peak))) + 1
    bits = bound.bit_length()
    w = -(-bits * 30103 // 100_000) + 1  # 10**(w-1) >= 2**bits > bound, as 0.30103 > log10(2)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit (none before 3.10.7)
    if _LIBMPDEC is not None and size * bits > _TRANSFORM_BITS and not 0 < limit < w:
        digits = _transform_mul(ia, ib, w, count)
    else:
        nbytes = (bits + 9) // 8
        pa = _pack(ia, nbytes)
        digits = _unpack(pa * (pa if ib is ia else _pack(ib, nbytes)), nbytes, count)
    return _sparse(digits, base, g)


def _transform_mul(ia: list[int], ib: list[int], w: int, count: int) -> list[int]:
    """The lowest `count` digits of the product of the digit lists ia and ib
    in radix 10**w, each below half = 5 * 10**(w-1) in absolute value (those
    above may be of any size), through one libmpdec multiplication in the
    exact context; ia is packed once when ib is ia.

    A negative product is lifted by a power of ten above both it and the
    n = count * w kept places, which leaves those places alone.  Adding half
    to each kept digit then makes them all nonnegative with no borrows, as
    in _unpack, so they are read off the end of the decimal string.
    """
    pa = _decimal_pack(ia, w)
    total = _LIBMPDEC.multiply(pa, pa if ib is ia else _decimal_pack(ib, w))
    del pa
    n = count * w
    if total < 0:
        total = _LIBMPDEC.add(total, Decimal((0, (1,), max(total.adjusted() + 1, n))))
    total = _LIBMPDEC.add(total, Decimal(("5" + "0" * (w - 1)) * count))
    low = str(total)[-n:].zfill(n)
    del total
    half = 5 * 10 ** (w - 1)
    return [int(low[j - w : j]) - half for j in range(n, 0, -w)]


def _decimal_pack(vals: list[int], w: int) -> Decimal:
    """sum(v * 10**(w*i)) for digits v of fewer than w decimal places."""
    zeros = "0" * w
    pos = Decimal("".join([str(v).zfill(w) if v > 0 else zeros for v in reversed(vals)]))
    if min(vals) >= 0:
        return pos
    neg = Decimal("".join([str(-v).zfill(w) if v < 0 else zeros for v in reversed(vals)]))
    return _LIBMPDEC.subtract(pos, neg)


def _dense(exps: Sequence[int], coefs: Sequence[int], g: int) -> list[int]:
    base = exps[0]
    vals = [0] * ((exps[-1] - base) // g + 1)
    for e, c in zip(exps, coefs):
        vals[(e - base) // g] = c
    return vals


def _sparse(vals: list[int], base: int, g: int) -> tuple[list[int], list[int]]:
    """The exponent and coefficient numerators of the nonzero slots of a dense
    layout that starts at `base` with stride g."""
    nonzero = [i for i, v in enumerate(vals) if v]
    return [base + i * g for i in nonzero], [vals[i] for i in nonzero]


def _pack(vals: list[int], nbytes: int) -> int:
    """sum(v * 256**(nbytes*i)) for digits v with |v| < 128 * 256**(nbytes - 1)."""
    empty = bytes(nbytes)
    pos = b"".join([v.to_bytes(nbytes, "little") if v > 0 else empty for v in vals])
    neg = b"".join([(-v).to_bytes(nbytes, "little") if v < 0 else empty for v in vals])
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(n: int, nbytes: int, count: int) -> list[int]:
    """The lowest `count` signed digits of n, each below half =
    128 * 256**(nbytes - 1) in absolute value, masked off as n modulo
    256**(nbytes * count) whatever n's sign and higher digits: adding half to
    every digit makes them all nonnegative, so they read off with no borrows."""
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
    On integers, with a = q^h * (u/den) * sum_k n_k q^(k*step), u = ±1 and
    n_0 > 0, the inverse's k-th coefficient is u * den * J_k / n_0^(k+1), where
    J_0 = 1 and J_k = -sum_(i>=1) n_i * n_0^(i-1) * J_(k-i), summed over the
    nonzero weights n_i * n_0^(i-1) only.
    """
    if not a.exps:
        raise EmptySeriesError("cannot invert the zero series")
    d, exps, u = a.grading, a.exps, 1 if a.nums[0] > 0 else -1
    n0 = abs(a.nums[0])
    order = a.order - 2 * Fraction(exps[0], d)
    if len(exps) == 1:
        return _from_grid(d, [-exps[0]], [u * a.den], n0, order)
    step = gcd(*(x - exps[0] for x in exps))
    count = _ceil((order * d + exps[0]) / step)
    weights = []  # (i, n_i * n_0^(i-1)) for the nonzero n_i, 0 < i < count
    for x, c in zip(exps[1:], a.nums[1:]):
        i = (x - exps[0]) // step
        if i >= count:
            break
        weights.append((i, u * c * n0 ** (i - 1)))
    inv = [1]
    for n in range(1, count):
        s = 0
        for k, w in weights:
            if k > n:
                break
            s += w * inv[n - k]
        inv.append(-s)
    nonzero = [n for n, j in enumerate(inv) if j]
    nums = [u * a.den * inv[n] * n0 ** (count - 1 - n) for n in nonzero]  # over n0^count
    return _from_grid(d, [n * step - exps[0] for n in nonzero], nums, n0**count, order)


def substitute(a: PuiseuxSeries, r: Rational) -> PuiseuxSeries:
    """Argument rescaling q -> q^r: every exponent is multiplied by r.

    With r > 0 the terms keep their order, so the exponent numerators k over
    the grading D become k * r.numerator over D * r.denominator, with no sort.
    """
    f = _frac(r)
    if f <= 0:
        raise ValueError(f"substitution exponent must be positive, got {f}")
    return _from_grid(a.grading * f.denominator, _times(a.exps, f.numerator), a.nums, a.den, a.order * f)


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
    d, lead, nums = a.grading, a.exps[0] if a.exps else 0, []
    for k, c in zip(a.exps, a.nums):
        n, rem = divmod(k - lead, d)
        if rem:
            raise GradingError(
                f"exponent step {Fraction(k - lead, d)} from the leading exponent is not an integer"
            )
        nums.append(-c if n % 2 else c)
    return _from_grid(d * f.denominator, _times(a.exps, f.numerator), nums, a.den, a.order * f)


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
    grid, den = lcm(a.grading, b.grading), lcm(a.den, b.den)
    top = _ceil(o * grid)
    ea, eb = _times(a.exps, grid // a.grading), _times(b.exps, grid // b.grading)
    na, nb = bisect_left(ea, top), bisect_left(eb, top)
    ca, cb = _times(a.nums[:na], den // a.den), _times(b.nums[:nb], den // b.den)
    # Both prefixes below o ascend with nonzero coefficients, so the first pair
    # that differs holds the smallest disagreement; a sentinel at o ends each.
    for ka, kb, x, y in zip([*ea[:na], top], [*eb[:nb], top], [*ca, 0], [*cb, 0]):
        if (ka, x) != (kb, y):
            k = min(ka, kb)
            lhs, rhs = (x if ka == k else 0), (y if kb == k else 0)
            return Mismatch(Fraction(k, grid), Fraction(lhs, den), Fraction(rhs, den))
    return None


def to_text(a: PuiseuxSeries) -> str:
    """Serialize: header `D=<int> O=<num>/<den>`, then one `exp coef` line per term.

    Every fraction is written in lowest terms from the integers.  As
    gcd(k, D) = gcd(k mod D, D), the exponents take one gcd per residue mod D
    that occurs, never a table of all D; over den = 1 the coefficients take
    none.
    """
    d, den = a.grading, a.den
    lines = [f"D={d} O={a.order.numerator}/{a.order.denominator}\n"]
    reduced: dict[int, tuple[int, str]] = {}  # k mod D -> (gcd, "/<D // gcd> ")
    for k, n in zip(a.exps, a.nums):
        r = k % d
        hit = reduced.get(r)
        if hit is None:
            g = gcd(r, d)
            hit = reduced[r] = (g, f"/{d // g} ")
        if den == 1:
            lines.append(f"{k // hit[0]}{hit[1]}{n}/1\n")
        else:
            g = gcd(n, den)
            lines.append(f"{k // hit[0]}{hit[1]}{n // g}/{den // g}\n")
    return "".join(lines)


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
