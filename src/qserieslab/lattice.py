"""Rank-two root lattice geometry and Z-indexed theta sums.

The bilinear form is normalized so each simple root has squared length 2
(Gram matrix [[2,-1],[-1,2]]).  The six-element Weyl group acts by integer
matrices in the simple-root basis; signs are determinants.  On top of this
sit the lattice-sum vacuum character of the affine W-algebra at central
charge 4/5 and a generic quadratic-exponent theta sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from .products import ProductFactor, ProductSpec, expand_product
from .series import PuiseuxSeries, Rational, _ceil, _frac, _from_grid, _highest_order_memo, _shift, mul

__all__ = [
    "RootVector",
    "WeylElement",
    "ThetaBranch",
    "ThetaSumSpec",
    "ALPHA1",
    "ALPHA2",
    "RHO",
    "gram",
    "weyl_group",
    "fkw_character",
    "theta_sum",
]


@dataclass(frozen=True)
class RootVector:
    """Coordinates (x1, x2) meaning x1*alpha1 + x2*alpha2."""

    x1: Fraction
    x2: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x1", _frac(self.x1))
        object.__setattr__(self, "x2", _frac(self.x2))

    def __add__(self, other: "RootVector") -> "RootVector":
        return RootVector(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "RootVector") -> "RootVector":
        return RootVector(self.x1 - other.x1, self.x2 - other.x2)

    def scaled(self, c: Rational) -> "RootVector":
        f = _frac(c)
        return RootVector(f * self.x1, f * self.x2)


ALPHA1 = RootVector(Fraction(1), Fraction(0))
ALPHA2 = RootVector(Fraction(0), Fraction(1))
RHO = RootVector(Fraction(1), Fraction(1))

_GRAM = ((2, -1), (-1, 2))


def gram(u: RootVector, v: RootVector) -> Fraction:
    """The invariant form <u,v> with |alpha|^2 = 2 on simple roots."""
    return 2 * u.x1 * v.x1 - u.x1 * v.x2 - u.x2 * v.x1 + 2 * u.x2 * v.x2


@dataclass(frozen=True)
class WeylElement:
    """Integer matrix in the root basis (columns are images of the roots)."""

    matrix: tuple[tuple[int, int], tuple[int, int]]
    sign: int

    def __post_init__(self) -> None:
        m = self.matrix
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if self.sign != det or det not in (1, -1):
            raise ValueError(f"sign {self.sign} does not match determinant {det}")
        if not self._preserves_gram():
            raise ValueError(f"matrix {m} does not preserve the invariant form")

    def _preserves_gram(self) -> bool:
        basis = (ALPHA1, ALPHA2)
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                if gram(self.apply(u), self.apply(v)) != _GRAM[i][j]:
                    return False
        return True

    def apply(self, v: RootVector) -> RootVector:
        m = self.matrix
        return RootVector(m[0][0] * v.x1 + m[0][1] * v.x2, m[1][0] * v.x1 + m[1][1] * v.x2)

    def compose(self, other: "WeylElement") -> "WeylElement":
        a, b = self.matrix, other.matrix
        prod = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
        )
        return WeylElement(prod, self.sign * other.sign)  # type: ignore[arg-type]


_IDENTITY = WeylElement(((1, 0), (0, 1)), 1)
_S1 = WeylElement(((-1, 1), (0, 1)), -1)
_S2 = WeylElement(((1, 0), (1, -1)), -1)


@lru_cache(maxsize=1)
def weyl_group() -> tuple[WeylElement, ...]:
    """The six elements: identity, both simple reflections, the two rotations,
    and the longest element, with signs by word-length parity."""
    return (
        _IDENTITY,
        _S1,
        _S2,
        _S1.compose(_S2),
        _S2.compose(_S1),
        _S1.compose(_S2).compose(_S1),
    )


# 1/(q)_inf^2 as a product of squared reciprocal factors 1/(1 - q^i)^2, i >= 1.
_RECIPROCAL_PHI_SQUARED = ProductSpec((ProductFactor(1, Fraction(1), Fraction(1), -2),))


@_highest_order_memo
def fkw_character(order: Rational) -> PuiseuxSeries:
    """Lattice-sum vacuum character of the simple affine W-algebra at c = 4/5.

    q^(-1/12) * (q)_inf^(-2) * sum over (m, n) in Z^2 and the Weyl group of
    sign(w) * q^(|5w(rho) + 20n*alpha1 + 20m*alpha2 - 4rho|^2 / 40).

    With (sx, sy) = 5w(rho) - 4rho and vx = sx + 20n, the exponent for fixed
    (w, n) is the quadratic 20m^2 + (2sy - vx)m + (vx^2 - vx*sy + sy^2)/20 in
    m, so each (w, n) is one branch of a single theta_sum over m, which is
    exact in m.  The only bound is the n-window, from |20n*alpha1 + 20m*alpha2|
    >= 20|n| and |5w(rho)-4rho| < 13.
    """
    o = _frac(order)
    prefactor = Fraction(-1, 12)
    oshift = o - prefactor
    if oshift <= 0:
        return PuiseuxSeries(1, o, ())
    bound = (isqrt(_ceil(40 * (oshift + 2))) + 33) // 20 + 1
    branches = []
    for w in weyl_group():
        (a, b), (c, d) = w.matrix  # w(rho) = (a + b, c + d), as rho = (1, 1)
        sx, sy = 5 * (a + b) - 4, 5 * (c + d) - 4
        for n in range(-bound, bound + 1):
            vx = sx + 20 * n
            branches.append(ThetaBranch(2 * sy - vx, Fraction(vx * vx - vx * sy + sy * sy, 20), w.sign))
    theta = theta_sum(ThetaSumSpec(Fraction(20), tuple(branches)), oshift)
    return _shift(mul(theta, expand_product(_RECIPROCAL_PHI_SQUARED, oshift)), prefactor)


@dataclass(frozen=True)
class ThetaBranch:
    """One branch sigma * q^(A*m^2 + B*m + C) of a theta sum (A lives on ThetaSumSpec)."""

    linear: Fraction
    constant: Fraction
    sign: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "linear", _frac(self.linear))
        object.__setattr__(self, "constant", _frac(self.constant))
        if self.sign not in (1, -1):
            raise ValueError(f"branch sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class ThetaSumSpec:
    """Sum over m in Z of sum_i sigma_i * q^(A*m^2 + B_i*m + C_i), with A > 0."""

    quadratic: Fraction
    branches: tuple[ThetaBranch, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "quadratic", _frac(self.quadratic))
        object.__setattr__(self, "branches", tuple(self.branches))
        if self.quadratic <= 0:
            raise ValueError("quadratic coefficient must be positive for convergence")


def theta_sum(spec: ThetaSumSpec, order: Rational) -> PuiseuxSeries:
    """Exact expansion of the theta sum mod q^order."""
    o = _frac(order)
    a = spec.quadratic
    # Every exponent A*m^2 + B*m + C is an integer numerator over the grid.
    grid = lcm(a.denominator, *(x.denominator for br in spec.branches for x in (br.linear, br.constant)))

    def on_grid(x: Fraction) -> int:
        return x.numerator * (grid // x.denominator)

    quad = on_grid(a)
    terms = [(on_grid(br.linear), on_grid(br.constant), br.sign) for br in spec.branches]
    # Past every branch vertex the exponent grows in |m|; stop once a whole
    # ring lands at or above the order from there on.
    vertex = -(-max((abs(lin) for lin, _, _ in terms), default=0) // (2 * quad)) + 1
    top = _ceil(o * grid)
    acc: dict[int, int] = {}

    def emit(m: int) -> bool:
        hit = False
        for lin, const, sign in terms:
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
