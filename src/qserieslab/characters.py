"""Irreducible highest-weight characters and their twisted graded traces.

Covers the alternating-sum character of the (s,t) minimal series, the two
Rogers-Ramanujan product forms, the three twisted affine characters built on
the sixth-root grading, the W-module characters at central charge 4/5, and
the signed trace combinations used for the modular-invariance basis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from . import lattice
from .products import ProductFactor, ProductSpec, expand_product
from .series import (
    PuiseuxSeries,
    Rational,
    _combine,
    _frac,
    _highest_order_memo,
    _shift,
    mul,
    substitute,
    substitute_signed,
    truncate,
    zero,
)

__all__ = [
    "CharLabel",
    "WModule",
    "A22Module",
    "InvalidLabelError",
    "UnknownNameError",
    "central_charge",
    "conformal_weight",
    "minimal_char",
    "rr_product",
    "a22_char",
    "w_char",
    "twisted_trace",
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


class WModule(Enum):
    W0 = "0"
    W2_5 = "2/5"
    W2_5_PLUS = "2/5+"
    W2_5_MINUS = "2/5-"
    W1_15_PLUS = "1/15+"
    W1_15_MINUS = "1/15-"
    WTAU_1_40 = "tau1/40"
    WTAU_1_8 = "tau1/8"


class A22Module(Enum):
    BASIC_LAMBDA1 = "basic"
    TWO_LAMBDA1 = "2L1"
    LAMBDA0 = "L0"


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
    that is theta_sum(ThetaSumSpec(st, (ThetaBranch(mt-ns, 0, +1),
    ThetaBranch(mt+ns, mn, -1)))), and 1/(q)_inf is the reciprocal product.
    """
    return _minimal_char(label.s, label.t, label.m, label.n, _frac(order))


# 1/(q)_inf as a product of reciprocal factors 1/(1 - q^i), i >= 1.
_RECIPROCAL_PHI = ProductSpec((ProductFactor(1, Fraction(1), Fraction(1), -1),))


@_highest_order_memo
def _minimal_char(s: int, t: int, m: int, n: int, order: Fraction) -> PuiseuxSeries:
    c = central_charge(s, t)
    h = conformal_weight(CharLabel(s, t, m, n))
    prefactor = h - c / 24
    oshift = order - prefactor
    if oshift <= 0:
        return PuiseuxSeries(1, order, ())
    spec = lattice.ThetaSumSpec(
        s * t,
        (lattice.ThetaBranch(m * t - n * s, 0, 1), lattice.ThetaBranch(m * t + n * s, m * n, -1)),
    )
    return _shift(mul(lattice.theta_sum(spec, oshift), expand_product(_RECIPROCAL_PHI, oshift)), prefactor)


_RR_SPECS = {
    1: ProductSpec(
        (
            ProductFactor(1, Fraction(2), Fraction(5), -1),
            ProductFactor(1, Fraction(3), Fraction(5), -1),
        ),
        Fraction(11, 60),
    ),
    2: ProductSpec(
        (
            ProductFactor(1, Fraction(1), Fraction(5), -1),
            ProductFactor(1, Fraction(4), Fraction(5), -1),
        ),
        Fraction(-1, 60),
    ),
}


def rr_product(variant: int, order: Rational) -> PuiseuxSeries:
    """Rogers-Ramanujan products: variant 1 over residues {2,3} mod 5 with
    prefactor q^(11/60), variant 2 over {1,4} mod 5 with q^(-1/60)."""
    if variant not in _RR_SPECS:
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    return expand_product(_RR_SPECS[variant], order)


_A22_BASIC = ProductSpec(
    (
        ProductFactor(1, Fraction(1, 6), Fraction(1), -1),
        ProductFactor(1, Fraction(5, 6), Fraction(1), -1),
    ),
    Fraction(-1, 72),
)


@_highest_order_memo
def a22_char(module: A22Module, order: Rational) -> PuiseuxSeries:
    """Twisted characters on the sixth-root grading.

    The basic level-one module is a pure product with prefactor q^(-1/72); the
    two level-two modules carry an extra (2,5) character at q^(1/3), and the
    Lambda_0 module an additional q^(1/6).
    """
    o = _frac(order)
    # asked for max(o, 0) + 1, both factors lead just below 0: the product
    # reaches o; every module reads the basic product at this one cushion
    cushion = max(o, 0) + 1
    basic = expand_product(_A22_BASIC, cushion)
    if module is A22Module.BASIC_LAMBDA1:
        return truncate(basic, o)
    if module is A22Module.TWO_LAMBDA1:
        factor = substitute(_minimal_char(2, 5, 1, 2, 3 * cushion), Fraction(1, 3))
        return truncate(mul(basic, factor), o)
    if module is A22Module.LAMBDA0:
        factor = substitute(_minimal_char(2, 5, 1, 1, 3 * cushion), Fraction(1, 3))
        return truncate(_shift(mul(basic, factor), Fraction(1, 6)), o)
    raise ValueError(f"unknown module {module!r}")


_W_DECOMP: dict[WModule, tuple[tuple[int, int, int], ...]] = {
    # (sign, m, n) combinations of chi_{5,6}^{m,n}
    WModule.W0: ((1, 1, 1), (1, 1, 5)),
    WModule.W2_5: ((1, 2, 1), (1, 2, 5)),
    WModule.W2_5_PLUS: ((1, 1, 3),),
    WModule.W2_5_MINUS: ((1, 1, 3),),
    WModule.W1_15_PLUS: ((1, 2, 3),),
    WModule.W1_15_MINUS: ((1, 2, 3),),
    WModule.WTAU_1_40: ((1, 2, 2), (1, 2, 4)),
    WModule.WTAU_1_8: ((1, 1, 2), (1, 1, 4)),
}


def w_char(module: WModule, order: Rational) -> PuiseuxSeries:
    """W-module characters as sums of (5,6) minimal characters.

    The plus/minus pairs at h = 2/3 and h = 1/15 share one character; the
    distinction is representation-theoretic, not visible at series level.
    """
    return _signed_combo(_W_DECOMP[module], _frac(order))


_TWISTED: dict[WModule, tuple[tuple[int, int], tuple[int, int]]] = {
    # label -> (first (m,n), second (m,n)); second enters with sign (-1)^epsilon
    WModule.WTAU_1_40: ((2, 2), (2, 4)),
    WModule.WTAU_1_8: ((1, 2), (1, 4)),
}

_UNTWISTED_TRACE: dict[WModule, tuple[tuple[int, int, int], ...]] = {
    WModule.W0: ((1, 2, 1), (-1, 2, 5)),
    WModule.W2_5: ((1, 1, 1), (-1, 1, 5)),
}


def twisted_trace(module: WModule, epsilon: int, order: Rational) -> PuiseuxSeries:
    """Graded traces weighted by the order-two automorphism.

    For the two twisted modules the trace is chi^(m,n) +- chi^(m,n') with the
    sign (-1)^epsilon; for W0 and W2/5 only the untwisted-sector trace exists
    and epsilon is ignored.
    """
    o = _frac(order)
    if module in _TWISTED:
        if epsilon not in (0, 1):
            raise ValueError(f"epsilon must be 0 or 1, got {epsilon}")
        (m1, n1), (m2, n2) = _TWISTED[module]
        sign = 1 if epsilon == 0 else -1
        return _signed_combo(((1, m1, n1), (sign, m2, n2)), o)
    if module in _UNTWISTED_TRACE:
        return _signed_combo(_UNTWISTED_TRACE[module], o)
    raise ValueError(f"module {module.value!r} has no defined twisted trace")


def _signed_combo(parts: tuple[tuple[int, int, int], ...], order: Fraction) -> PuiseuxSeries:
    return _combine([(zero(order), 1)] + [(_minimal_char(5, 6, m, n, order), sign) for sign, m, n in parts])


def lowest_weight_from_char(f: PuiseuxSeries, c: Rational) -> Fraction:
    """Recover the lowest conformal weight: leading exponent plus c/24."""
    return f.leading_exponent + _frac(c) / 24


_NAME_RE = re.compile(
    r"(?P<base>chi:\d+,\d+,\d+,\d+|rr:[12]|a22:(?:basic|2L1|L0)"
    r"|w:(?:tau1/40|tau1/8|2/5|0)|fkw)"
    r"(?:@(?P<signed>-?)q\^(?P<power>0*[1-9]\d*(?:/0*[1-9]\d*)?))?"
)


def named_series(name: str, order: Rational) -> PuiseuxSeries:
    """Expand a character by its CLI name.

    Accepted: chi:s,t,m,n, rr:1, rr:2, a22:basic|2L1|L0, w:0|2/5|tau1/40|tau1/8
    and fkw, each optionally rescaled with a suffix @q^r (substitute) or @-q^r
    (signed substitute), r a positive integer or p/q.
    """
    o = _frac(order)
    m = _NAME_RE.fullmatch(name.strip())
    if m is None:
        raise UnknownNameError(f"unrecognized character name: {name!r}")
    ratio = Fraction(m.group("power")) if m.group("power") else None
    base_order = o if ratio is None else o / ratio
    base = _base_series(m.group("base"), base_order)
    if ratio is None:
        return base
    if m.group("signed"):
        return substitute_signed(base, ratio)
    return substitute(base, ratio)


def _base_series(base: str, order: Fraction) -> PuiseuxSeries:
    kind, _, rest = base.partition(":")
    if kind == "chi":
        s, t, m, n = (int(x) for x in rest.split(","))
        try:
            label = CharLabel(s, t, m, n)
        except InvalidLabelError as exc:
            raise UnknownNameError(str(exc)) from exc
        return minimal_char(label, order)
    if kind == "rr":
        return rr_product(int(rest), order)
    if kind == "a22":
        return a22_char(A22Module(rest), order)
    if kind == "w":
        return w_char(WModule(rest), order)
    return lattice.fkw_character(order)
