"""Irreducible highest-weight characters of the (s,t) minimal series.

Covers the alternating-sum character (a two-branch integer theta sum over
(q)_inf), its central charge and conformal weights, and named_series(),
which expands any character by its name.  The names other than chi:s,t,m,n
and fkw (the Rogers-Ramanujan products, the twisted A2(2) characters and the
W-module characters) are definitions in the registry grammar, the prelude in
verify.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import lattice
from .products import ProductFactor, expand_product
from .series import PuiseuxSeries, Rational, _frac, _highest_order_memo, _shift, mul, truncate

__all__ = [
    "CharLabel",
    "InvalidLabelError",
    "UnknownNameError",
    "central_charge",
    "conformal_weight",
    "minimal_char",
    "lowest_weight_from_char",
    "named_series",
]


class InvalidLabelError(ValueError):
    """A character label outside the allowed (s,t,m,n) ranges."""


class UnknownNameError(ValueError):
    """A character name string that the CLI grammar does not recognize."""


@dataclass(frozen=True)
class CharLabel:
    """Minimal-series label: s,t >= 2 coprime, 1 <= m < s, 1 <= n < t."""

    s: int
    t: int
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.s < 2 or self.t < 2:
            raise InvalidLabelError(f"need s,t >= 2, got ({self.s},{self.t})")
        if gcd(self.s, self.t) != 1:
            raise InvalidLabelError(f"s and t must be coprime, got ({self.s},{self.t})")
        if not 1 <= self.m < self.s:
            raise InvalidLabelError(f"need 1 <= m < s, got m={self.m}, s={self.s}")
        if not 1 <= self.n < self.t:
            raise InvalidLabelError(f"need 1 <= n < t, got n={self.n}, t={self.t}")


def central_charge(s: int, t: int) -> Fraction:
    """c = 1 - 6(s-t)^2/(st) for a valid coprime pair s,t >= 2."""
    if s < 2 or t < 2 or gcd(s, t) != 1:
        raise InvalidLabelError(f"invalid central charge parameters ({s},{t})")
    return 1 - Fraction(6 * (s - t) ** 2, s * t)


def conformal_weight(label: CharLabel) -> Fraction:
    """h = ((mt-ns)^2 - (s-t)^2) / (4st)."""
    s, t, m, n = label.s, label.t, label.m, label.n
    return Fraction((m * t - n * s) ** 2 - (s - t) ** 2, 4 * s * t)


def minimal_char(label: CharLabel, order: Rational) -> PuiseuxSeries:
    """Normalized character q^(h - c/24) / (q)_inf * alternating k-sum.

    The k-sum runs over q^(st*k^2) * (q^(k(mt-ns)) - q^((mt+ns)k + mn)),
    that is theta_sum(1, st, ((mt-ns, 0, +1), (mt+ns, mn, -1))), and
    1/(q)_inf is the reciprocal product.
    """
    return _minimal_char(label.s, label.t, label.m, label.n, _frac(order))


# 1/(q)_inf as a product of reciprocal factors 1/(1 - q^i), i >= 1.
_RECIPROCAL_PHI = (ProductFactor(1, Fraction(1), Fraction(1), -1),)


@_highest_order_memo
def _minimal_char(s: int, t: int, m: int, n: int, order: Fraction) -> PuiseuxSeries:
    c = central_charge(s, t)
    h = conformal_weight(CharLabel(s, t, m, n))
    prefactor = h - c / 24
    oshift = order - prefactor
    if oshift <= 0:
        return PuiseuxSeries(1, order, ())
    theta = lattice.theta_sum(1, s * t, ((m * t - n * s, 0, 1), (m * t + n * s, m * n, -1)), oshift)
    return _shift(mul(theta, expand_product(_RECIPROCAL_PHI, oshift)), prefactor)


def lowest_weight_from_char(f: PuiseuxSeries, c: Rational) -> Fraction:
    """Recover the lowest conformal weight: leading exponent plus c/24."""
    return f.leading_exponent + _frac(c) / 24


def named_series(name: str, order: Rational) -> PuiseuxSeries:
    """Expand a character by its CLI name, cut at the order.

    Accepted: chi:s,t,m,n, fkw and every name of the prelude (rr:1, rr:2,
    a22:basic|2L1|L0, w:0|2/5|tau1/40|tau1/8), each optionally rescaled with
    a suffix @q^r (substitute) or @-q^r (signed substitute), r a positive
    integer or p/q.  Any other text, or a chi label outside its ranges,
    raises UnknownNameError.
    """
    from .verify import evaluate, parse_name  # verify imports this module

    expr = parse_name(name.strip())
    if expr is None:
        raise UnknownNameError(f"unrecognized character name: {name!r}")
    value = evaluate(expr, order)
    return truncate(value, order) if value.order > order else value
