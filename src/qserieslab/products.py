"""Expansion of declaratively specified infinite products.

A product is a finite tuple of arithmetic-progression factor families
(1 - s*q^(a+d*n))^p for n = 0, 1, 2, ...; the registry grammar spells a
monomial prefactor as mono(c,e) * prod(...).  With x the common root of
every exponent and z = s*x^a, Q = x^d, a family is (z; Q)_inf^p, and each
power of it is applied as one q-binomial sum
(Andrews, The Theory of Partitions, ch. 2):

    Euler:   (z; Q)_inf   = sum_n (-z)^n Q^(n(n-1)/2) / (Q; Q)_n
    Cauchy:  1/(z; Q)_inf = sum_n z^n Q^(n(n-1)) / ((Q; Q)_n (z; Q)_n)

The n-th term leads at x^E_n, E_n = n*a + d*n(n-1)/2 for Euler's sum and
n*a + d*n(n-1) for Cauchy's.  Below a cutoff of N grid steps only the terms
with E_n < N contribute, O(sqrt(N)) of them, each a power series in x with
integer coefficients, so expansions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import lcm
from operator import add, lshift, sub

from .series import PuiseuxSeries, Rational, _ceil, _frac, _from_grid, _highest_order_memo, _sparse

__all__ = ["ProductFactor", "expand_product", "euler_phi"]


@dataclass(frozen=True)
class ProductFactor:
    """One progression: the n-th instance reads (1 - sign*q^(start + step*n)).

    sign +1 gives (1 - q^e) factors, -1 gives (1 + q^e).  A negative power
    means the reciprocal progression.
    """

    sign: int
    start: Fraction
    step: Fraction
    power: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", _frac(self.start))
        object.__setattr__(self, "step", _frac(self.step))
        if self.sign not in (1, -1):
            raise ValueError(f"factor sign must be +1 or -1, got {self.sign}")
        if self.start <= 0 or self.step <= 0:
            raise ValueError("factor start and step must be positive")
        if not isinstance(self.power, int):
            raise ValueError(f"factor power must be an integer, got {self.power!r}")
        if self.power == 0:
            raise ValueError("factor power must be nonzero")


@_highest_order_memo
def expand_product(factors: tuple[ProductFactor, ...], order: Rational) -> PuiseuxSeries:
    """Exact expansion of the product of the factor families mod q^order.

    A family whose start reaches the order, the cutoff, is skipped: each of
    its instances is 1 below it.  Every other family, on the grid x of the
    active exponents with z = s*x^a and Q = x^d, multiplies the dense
    coefficient list f once per unit of |power| by Euler's sum
    (z; Q)_inf = sum_n (-z)^n Q^(n(n-1)/2) / (Q; Q)_n when power > 0, or by
    Cauchy's sum 1/(z; Q)_inf = sum_n z^n Q^(n(n-1)) / ((Q; Q)_n (z; Q)_n)
    when power < 0, in Horner form, deepest level first:

        f * sum_n T_n = f + r_1 (f + r_2 (f + ... + r_L f)),  r_n = T_n / T_(n-1)

    T_n leads at x^E_n, E_n = n*a + d*n(n-1)/2 (Euler) or n*a + d*n(n-1)
    (Cauchy), so L, the last n with E_n below the cutoff, is about the square
    root of the cutoff in grid steps, and level n is kept only below
    cutoff - E_n, since the r's applied outside it shift it up by E_n.  r_n
    is a monomial over (1 - Q^n), times 1/(1 - z Q^(n-1)) for Cauchy's sum;
    each division by (1 - s*x^m) is a running sum along stride m.  Every step
    is integer arithmetic on power series cut at the cutoff, and the terms
    past L lead at or above it, so the result is exact below `order`, the
    order it certifies.
    """
    o = _frac(order)
    if o <= 0:
        return PuiseuxSeries(1, o, ())

    grid = _grid(factors, o)
    size = _ceil(o * grid)
    coeffs = [0] * size
    coeffs[0] = 1
    for fac in factors:
        if fac.start >= o:
            continue
        for _ in range(abs(fac.power)):
            coeffs = _times_family(coeffs, fac.sign, int(fac.start * grid), int(fac.step * grid), fac.power > 0)
    exps, nums = _sparse(coeffs, 0, 1)
    return _from_grid(grid, exps, nums, 1, o)


def _times_family(f: list[int], s: int, a: int, d: int, euler: bool, shift: int = 0) -> list[int]:
    """f * (s*x^a; x^d)_inf below len(f) by Euler's sum, or f / (s*x^a; x^d)_inf
    by Cauchy's sum, as in expand_product; a copy of f when a >= len(f).

    A nonzero shift (Euler's sum only) reads each entry of f as P(2^w), P a
    polynomial in a second variable y, and applies (s*2^shift*x^a; x^d)_inf,
    2^shift standing for a power of y: every merge takes the inner level
    times 2^shift.  That is exact, since every step is +, -, *2^k or a
    running sum and y -> 2^w is a ring map.  A negative shift is never made
    as a shift right: each merge instead lifts the f side by -shift bits more
    than the last, so the result is the product times 2^(-shift*L), with
    L = _levels(len(f), a, d)[0] the number of Horner levels.
    """
    size = len(f)
    k = 1 if euler else 2  # E_n - E_(n-1) = a + k*d*(n-1)
    levels, top = _levels(size, a, k * d)
    # r_n's sign: -s for Euler's sum, s for Cauchy's
    op = add if (s == 1) != euler else sub
    h = f[: size - top]
    lift = 0
    for n in range(levels, 0, -1):
        _divide(h, d * n, 1)
        if not euler:
            _divide(h, a + d * (n - 1), s)
        gap = a + k * d * (n - 1)
        top -= gap
        inner = h
        if shift < 0:
            lift -= shift
            h = list(map(lshift, f[:gap], repeat(lift)))
            h.extend(map(op, map(lshift, islice(f, gap, size - top), repeat(lift)), inner))
        else:
            h = f[:gap]
            h.extend(map(op, islice(f, gap, size - top), map(lshift, inner, repeat(shift)) if shift else inner))
    return h


def _levels(size: int, a: int, step: int) -> tuple[int, int]:
    """(L, E_L): the last n with E_n = n*a + step*n(n-1)/2 below size, and E_L."""
    levels = top = 0
    while top + a + step * levels < size:
        top += a + step * levels
        levels += 1
    return levels, top


def _divide(h: list[int], m: int, s: int) -> None:
    """h <- h / (1 - s*x^m) below len(h), in place."""
    if s == -1:
        # 1/(1 + x^m) = (1 - x^m) / (1 - x^(2m))
        h[m:] = map(sub, islice(h, m, None), h)
        m *= 2
    if m * m < len(h):
        # few long strides: one running sum per residue class
        for r in range(m):
            h[r::m] = accumulate(h[r::m])
    else:
        # many short strides: one block at a time, each reading the updated block below
        for i in range(m, len(h), m):
            h[i : i + m] = map(add, h[i : i + m], h[i - m : i])


def _grid(factors: tuple[ProductFactor, ...], cutoff: Fraction) -> int:
    """Common denominator of every factor exponent active below the cutoff."""
    d = 1
    for fac in factors:
        if fac.start < cutoff:
            d = lcm(d, fac.start.denominator, fac.step.denominator)
    return d


@_highest_order_memo
def euler_phi(order: Rational) -> PuiseuxSeries:
    """The Euler function: the product of (1 - q^i) over i >= 1."""
    return expand_product((ProductFactor(1, Fraction(1), Fraction(1)),), order)
