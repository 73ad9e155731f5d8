"""Expansion of declaratively specified infinite products.

A product is a finite list of arithmetic-progression factor families
(1 - s*q^(a+d*n))^p for n = 0, 1, 2, ... together with a monomial prefactor.
Because a > 0 and d > 0, only finitely many factor instances differ from 1
below any truncation order, so expansions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add, sub

from .series import PuiseuxSeries, Rational, _ceil, _frac, _from_grid, _highest_order_memo

__all__ = ["ProductFactor", "ProductSpec", "expand_product", "euler_phi"]


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
        if self.power == 0:
            raise ValueError("factor power must be nonzero")


@dataclass(frozen=True)
class ProductSpec:
    factors: tuple[ProductFactor, ...] = ()
    prefactor_exponent: Fraction = field(default=Fraction(0))
    prefactor_coefficient: Fraction = field(default=Fraction(1))

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "prefactor_exponent", _frac(self.prefactor_exponent))
        object.__setattr__(self, "prefactor_coefficient", _frac(self.prefactor_coefficient))


@_highest_order_memo
def expand_product(spec: ProductSpec, order: Rational) -> PuiseuxSeries:
    """Exact expansion of the product mod q^order.

    A factor instance is skipped exactly when its lowest exponent reaches
    order - prefactor_exponent; skipped factors are 1 on the retained range.
    Reciprocal factors are expanded as geometric series (running prefix sums
    along a stride) rather than by long division at the end.
    """
    o = _frac(order)
    cutoff = o - spec.prefactor_exponent
    if spec.prefactor_coefficient == 0 or cutoff <= 0:
        return PuiseuxSeries(1, o, ())

    grid = _grid(spec, cutoff)
    size = _ceil(cutoff * grid)
    coeffs = [0] * size
    coeffs[0] = 1
    for fac in spec.factors:
        if fac.start >= cutoff:
            continue
        for stride in range(int(fac.start * grid), size, int(fac.step * grid)):
            for _ in range(abs(fac.power)):
                if fac.power > 0:
                    # multiply by (1 - s*q^e): subtract the shifted copy
                    op = sub if fac.sign == 1 else add
                    coeffs[stride:] = map(op, coeffs[stride:], coeffs[: size - stride])
                else:
                    # multiply by sum_j (s*q^e)^j: prefix sums along the stride,
                    # one block at a time, each reading the updated block below
                    op = add if fac.sign == 1 else sub
                    for i in range(stride, size, stride):
                        coeffs[i : i + stride] = map(op, coeffs[i : i + stride], coeffs[i - stride : i])
    pe = spec.prefactor_exponent
    out_grid = lcm(grid, pe.denominator)
    base = pe.numerator * (out_grid // pe.denominator)
    unit = out_grid // grid
    num, den = spec.prefactor_coefficient.numerator, spec.prefactor_coefficient.denominator
    nonzero = [i for i, c in enumerate(coeffs) if c]
    exps = [base + i * unit for i in nonzero]
    return _from_grid(out_grid, exps, [coeffs[i] * num for i in nonzero], den, o)


def _grid(spec: ProductSpec, cutoff: Fraction) -> int:
    """Common denominator of every factor exponent active below the cutoff."""
    d = 1
    for fac in spec.factors:
        if fac.start < cutoff:
            d = lcm(d, fac.start.denominator, fac.step.denominator)
    return d


@_highest_order_memo
def euler_phi(order: Rational) -> PuiseuxSeries:
    """The Euler function: the product of (1 - q^i) over i >= 1."""
    return expand_product(ProductSpec((ProductFactor(1, Fraction(1), Fraction(1)),)), order)
