"""Z-indexed theta sums on an integer grid, and the lattice-sum vacuum
character of the affine W-algebra at central charge 4/5.

A theta sum is the sum over m in Z and its branches (lin, const, sign) of
sign * q^((quad*m^2 + lin*m + const)/grid), every number an integer.  The
lattice-sum character is one such sum over the six Weyl images of rho in the
A2 root lattice, whose form gives each simple root squared length 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Sequence

from .products import ProductFactor, expand_product
from .series import PuiseuxSeries, Rational, _ceil, _frac, _from_grid, _highest_order_memo, _shift, mul

__all__ = ["fkw_character", "theta_sum"]


# (w(rho), sign w) for the six elements w of the A2 Weyl group: w(rho) in the
# simple-root basis, rho = alpha1 + alpha2, and sign w = det w.
_RHO_IMAGES = (((1, 1), 1), ((0, 1), -1), ((1, 0), -1), ((-1, 0), 1), ((0, -1), 1), ((-1, -1), -1))

# 1/(q)_inf^2 as a product of squared reciprocal factors 1/(1 - q^i)^2, i >= 1.
_RECIPROCAL_PHI_SQUARED = (ProductFactor(1, Fraction(1), Fraction(1), -2),)


@_highest_order_memo
def fkw_character(order: Rational) -> PuiseuxSeries:
    """Lattice-sum vacuum character of the simple affine W-algebra at c = 4/5.

    q^(-1/12) * (q)_inf^(-2) * sum over (m, n) in Z^2 and the Weyl group of
    sign(w) * q^(|5w(rho) + 20n*alpha1 + 20m*alpha2 - 4rho|^2 / 40), where
    |x*alpha1 + y*alpha2|^2 = 2(x^2 - xy + y^2).

    With (sx, sy) = 5w(rho) - 4rho and vx = sx + 20n, the exponent for fixed
    (w, n) is the quadratic 20m^2 + (2sy - vx)m + (vx^2 - vx*sy + sy^2)/20 in
    m, so each (w, n) is one branch of a single theta_sum over m on the grid
    20, which is exact in m.  The only bound is the n-window, from
    |20n*alpha1 + 20m*alpha2| >= 20|n| and |5w(rho)-4rho| < 13.
    """
    o = _frac(order)
    prefactor = Fraction(-1, 12)
    oshift = o - prefactor
    if oshift <= 0:
        return PuiseuxSeries(1, o, ())
    bound = (isqrt(_ceil(40 * (oshift + 2))) + 33) // 20 + 1
    branches = []
    for (x, y), sign in _RHO_IMAGES:
        sx, sy = 5 * x - 4, 5 * y - 4
        for n in range(-bound, bound + 1):
            vx = sx + 20 * n
            branches.append((20 * (2 * sy - vx), vx * vx - vx * sy + sy * sy, sign))
    theta = theta_sum(20, 400, branches, oshift)
    return _shift(mul(theta, expand_product(_RECIPROCAL_PHI_SQUARED, oshift)), prefactor)


def theta_sum(grid: int, quad: int, branches: Sequence[tuple[int, int, int]], order: Rational) -> PuiseuxSeries:
    """Exact expansion mod q^order of the sum over m in Z and the branches
    (lin, const, sign) of sign * q^((quad*m^2 + lin*m + const)/grid).

    grid and quad must be positive: only then does every branch grow in |m|.
    """
    if grid <= 0 or quad <= 0:
        raise ValueError("quadratic coefficient must be positive for convergence")
    o = _frac(order)
    # Past every branch vertex the exponent grows in |m|; stop once a whole
    # ring lands at or above the order from there on.
    vertex = -(-max((abs(lin) for lin, _, _ in branches), default=0) // (2 * quad)) + 1
    top = _ceil(o * grid)
    acc: dict[int, int] = {}

    def emit(m: int) -> bool:
        hit = False
        for lin, const, sign in branches:
            e = quad * m * m + lin * m + const
            if e < top:
                hit = True
                acc[e] = acc.get(e, 0) + sign
        return hit

    emit(0)
    m = 1
    while emit(m) | emit(-m) or m <= vertex:
        m += 1
    exps = sorted(e for e, c in acc.items() if c)
    return _from_grid(grid, exps, [acc[e] for e in exps], 1, o)
