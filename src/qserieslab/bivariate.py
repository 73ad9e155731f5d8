"""Laurent series in z with exact q-series coefficients.

Just enough bivariate machinery to state the quintuple product identity, its
even/odd reindexing, and the substitution step that turns it into a single-
variable theta/product identity: a window of z-layers, each an exact
PuiseuxSeries sharing one q-truncation order.

Layers outside the window are in general unknown (clipped).  To let
`specialize` certify a truncation order anyway, a series may carry quadratic
floor metadata: for layers z^(M*m + r) every q-exponent is at least
A*m^2 + B*m + C, and layers matching no residue are identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Mapping, Optional, Sequence

from .products import _times_family
from .series import (
    InsufficientOrderError,
    Mismatch,
    PuiseuxSeries,
    Rational,
    SeriesError,
    _ceil,
    _combine as _combine_series,
    _frac,
    _from_grid,
    _shift,
    compare,
    monomial,
    substitute,
    truncate,
    zero,
)

__all__ = [
    "BivariateSeries",
    "LayerFloorBranch",
    "LayerFloor",
    "COMPLETE_SUPPORT",
    "QUINTUPLE_FLOOR",
    "InsufficientWindowError",
    "bivariate_from_layers",
    "quintuple_lhs",
    "quintuple_rhs",
    "bivariate_theta",
    "add_bivariate",
    "sub_bivariate",
    "compare_bivariate",
    "specialize",
]


class InsufficientWindowError(SeriesError):
    """The z-window cannot certify any truncation order under specialize."""


@dataclass(frozen=True)
class LayerFloorBranch:
    residue: int
    quad: Fraction
    lin: Fraction
    const: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "quad", _frac(self.quad))
        object.__setattr__(self, "lin", _frac(self.lin))
        object.__setattr__(self, "const", _frac(self.const))
        if self.quad <= 0:
            raise ValueError("floor quadratic coefficient must be positive")


@dataclass(frozen=True)
class LayerFloor:
    modulus: int
    branches: tuple[LayerFloorBranch, ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("floor modulus must be positive")
        for br in self.branches:
            if not 0 <= br.residue < self.modulus:
                raise ValueError(f"residue {br.residue} outside [0, {self.modulus})")


# No mass at all outside the stored window.
COMPLETE_SUPPORT = LayerFloor(1, ())

# The quintuple identity lives on layers z^(3m) and z^(3m+1) with minimal
# q-exponents 3m^2 - m and 3m^2 + m.
QUINTUPLE_FLOOR = LayerFloor(
    3,
    (
        LayerFloorBranch(0, Fraction(3), Fraction(-1), Fraction(0)),
        LayerFloorBranch(1, Fraction(3), Fraction(1), Fraction(0)),
    ),
)


@dataclass(frozen=True)
class BivariateSeries:
    zmin: int
    zmax: int
    order: Fraction
    layers: tuple[tuple[int, PuiseuxSeries], ...]
    floor: Optional[LayerFloor] = None

    def __post_init__(self) -> None:
        if self.zmin > self.zmax:
            raise ValueError(f"empty z-window [{self.zmin}, {self.zmax}]")
        prev = None
        for k, layer in self.layers:
            if not self.zmin <= k <= self.zmax:
                raise ValueError(f"layer z^{k} outside window [{self.zmin}, {self.zmax}]")
            if prev is not None and k <= prev:
                raise ValueError("z-exponents must be strictly increasing")
            if layer.order != self.order:
                raise ValueError("all layers must share the common truncation order")
            prev = k

    def layer(self, k: int) -> PuiseuxSeries:
        for kk, layer in self.layers:
            if kk == k:
                return layer
        return zero(self.order)


def bivariate_from_layers(
    layers: Mapping[int, PuiseuxSeries],
    window: tuple[int, int],
    order: Rational,
    floor: Optional[LayerFloor] = None,
) -> BivariateSeries:
    o = _frac(order)
    zmin, zmax = window
    packed = []
    for k in sorted(layers):
        if not zmin <= k <= zmax:
            raise ValueError(f"layer z^{k} outside window [{zmin}, {zmax}]")
        ser = layers[k]
        if ser.order != o:
            ser = truncate(ser, o)
        if not ser.is_zero:
            packed.append((k, ser))
    return BivariateSeries(zmin, zmax, o, tuple(packed), floor)


def quintuple_lhs(q_order: Rational, window: tuple[int, int]) -> BivariateSeries:
    """Series side of the quintuple product identity.

    sum over m of (-1)^m q^(3m^2+m) z^(3m+1) + (-1)^m q^(3m^2-m) z^(3m):
    each window layer holds at most one monomial.
    """
    o = _frac(q_order)
    zmin, zmax = window
    layers: dict[int, PuiseuxSeries] = {}
    for k in range(zmin, zmax + 1):
        if k % 3 == 0:
            m = k // 3
            exponent = 3 * m * m - m
        elif k % 3 == 1:
            m = (k - 1) // 3
            exponent = 3 * m * m + m
        else:
            continue
        layers[k] = monomial(1 if m % 2 == 0 else -1, exponent, 1, o)
    return bivariate_from_layers(layers, window, o, QUINTUPLE_FLOOR)


def quintuple_rhs(q_order: Rational, window: tuple[int, int]) -> BivariateSeries:
    """Product side of the quintuple product identity.

    (1+z) * prod over n >= 1 of (1-q^(2n)) (1-q^(4n-2)z^2) (1-q^(4n-2)z^-2)
    (1+q^(2n)z) (1+q^(2n)z^-1), in Q = q^2 (every q-exponent is even) below
    Q^half, half = ceil(ceil(order)/2).  Kronecker substitution Q -> x^W,
    z -> x sends Q^E z^k to x^(EW+k) and each of the five progressions to one
    factor family in x, which products._times_family applies by Euler's sum
    to one dense list f, starting from 1 + z = 1 + x.

    Bound on |k|: a term q^e z^k takes 1 or z from the prefactor and i net
    factors z^(+-2) of one sign, costing at least 2 + 6 + ... + (4i-2) = 2i^2,
    and j net factors z^(+-1), costing at least 2 + 4 + ... + 2j = j(j+1); so
    |k| <= 1 + 2i + j with 2i^2 + j(j+1) <= e.  K is the largest such |k|
    over e <= top, top = 2*half (not ceil(order)), and W = 2K + 1.

    Decoding: f is kept below L = half*W - K.  A term with E < half has
    |k| <= K, so it lands below L, and since W > 2K, x^(EW+k) is the E-th
    entry of layer k's stride-W slice of f and of no other term's: the
    coefficient of q^(2E).  A term with E = half + t lands at or above L: at
    t = 0 because e = top gives k >= -K; past it, e = top + 2t and dropping a
    net factor lowers 2i^2 + j(j+1) by at least 2 and 2i + j by at most 2, so
    |k| <= K + 2t and EW + k >= L + (2K-1)t.  The layers are exact below the
    order, which they certify; the result is clipped to the window, and its
    floor metadata is the identity's layer support.
    """
    o = _frac(q_order)
    half = -(-_ceil(o) // 2)
    if half <= 0:
        return bivariate_from_layers({}, window, o, QUINTUPLE_FLOOR)
    K = 1 + max(2 * i + (isqrt(8 * (half - i * i) + 1) - 1) // 2 for i in range(isqrt(half) + 1))
    W = 2 * K + 1
    f = [1, 1] + [0] * (half * W - K - 2)
    # (1 - s*Q^(e + step*n)*z^dz) for n >= 0, as (1 - s*x^(eW + dz + step*W*n))
    for s, e, dz, step in ((1, 1, 0, 1), (-1, 1, 1, 1), (-1, 1, -1, 1), (1, 1, 2, 2), (1, 1, -2, 2)):
        f = _times_family(f, s, e * W + dz, step * W, True)
    zmin, zmax = window
    layers = {}
    for k in range(max(zmin, -K), min(zmax, K) + 1):
        column = f[k % W :: W]  # E = 0, 1, ... for k >= 0 and E = 1, 2, ... for k < 0
        exps = [2 * e for e, c in enumerate(column, -(k // W)) if c]
        layers[k] = _from_grid(1, exps, [c for c in column if c], 1, o)
    return bivariate_from_layers(layers, window, o, QUINTUPLE_FLOOR)


def bivariate_theta(
    branches: Iterable[tuple[int, Rational, Rational, Rational, int, int]],
    q_order: Rational,
    window: tuple[int, int],
) -> BivariateSeries:
    """Z-indexed sums with a z-power linear in the index:

    sum over m of sigma * q^(A m^2 + B m + C) * z^(E m + F)
    for each branch (sigma, A, B, C, E, F) with A > 0 and E > 0.

    When the branches share one z-step E and hit distinct residues mod E, the
    exact per-layer floor is attached automatically.
    """
    o = _frac(q_order)
    zmin, zmax = window
    spread = max(abs(zmin), abs(zmax))
    terms: dict[int, list[tuple[PuiseuxSeries, int]]] = {}
    normalized = []
    for sigma, a, b, c, e_step, f_off in branches:
        a, b, c = _frac(a), _frac(b), _frac(c)
        if a <= 0 or e_step <= 0:
            raise ValueError("need positive quadratic coefficient and z-step")
        normalized.append((sigma, a, b, c, e_step, f_off))
        m_max = (spread + abs(f_off)) // e_step + 1
        for m in range(-m_max, m_max + 1):
            k = e_step * m + f_off
            if not zmin <= k <= zmax:
                continue
            exponent = a * m * m + b * m + c
            terms.setdefault(k, []).append((monomial(sigma, exponent, exponent.denominator, o), 1))
    layers = {k: _combine_series(parts) for k, parts in terms.items()}
    return bivariate_from_layers(layers, window, o, _theta_floor(normalized))


def _theta_floor(branches: list) -> Optional[LayerFloor]:
    steps = {e for _, _, _, _, e, _ in branches}
    if len(steps) != 1:
        return None
    step = steps.pop()
    seen: dict[int, LayerFloorBranch] = {}
    for _, a, b, c, _, f_off in branches:
        res = f_off % step
        shift = (f_off - res) // step  # k = step*m + f = step*(m + shift) + res
        floor_branch = LayerFloorBranch(res, a, b - 2 * a * shift, a * shift * shift - b * shift + c)
        if res in seen:
            prev = seen[res]
            # two branches on one residue must give the same floor; else attach none
            if (prev.quad, prev.lin, prev.const) != (
                floor_branch.quad,
                floor_branch.lin,
                floor_branch.const,
            ):
                return None
        seen[res] = floor_branch
    return LayerFloor(step, tuple(seen[r] for r in sorted(seen)))


def add_bivariate(a: BivariateSeries, b: BivariateSeries) -> BivariateSeries:
    return _combine([(a, 1), (b, 1)])


def sub_bivariate(a: BivariateSeries, b: BivariateSeries) -> BivariateSeries:
    return _combine([(a, 1), (b, -1)])


def _combine(parts: Sequence[tuple[BivariateSeries, int]]) -> BivariateSeries:
    """The sum of sign*b over one or more (b, sign) parts on one z-window,
    each layer one series._combine of the parts that hold it, certified to
    the least of their orders; the floor survives only when all agree."""
    first = parts[0][0]
    if any((b.zmin, b.zmax) != (first.zmin, first.zmax) for b, _ in parts):
        raise ValueError("bivariate addition requires identical z-windows")
    by_layer: dict[int, list[tuple[PuiseuxSeries, int]]] = {}
    for b, sign in parts:
        for k, layer in b.layers:
            by_layer.setdefault(k, []).append((layer, sign))
    layers = {k: _combine_series(layer_parts) for k, layer_parts in by_layer.items()}
    floor = first.floor if all(b.floor == first.floor for b, _ in parts) else None
    return bivariate_from_layers(layers, (first.zmin, first.zmax), min(b.order for b, _ in parts), floor)


def compare_bivariate(a: BivariateSeries, b: BivariateSeries, order: Rational) -> Optional[Mismatch]:
    """Layerwise comparison on the overlap of the two windows, below `order`.

    Returns the first mismatch scanning z ascending, each layer by ascending
    q-exponent; None when everything certified agrees.
    """
    o = _frac(order)
    if o > a.order or o > b.order:
        raise InsufficientOrderError(
            f"compare to {o} exceeds certified orders ({a.order}, {b.order})"
        )
    for k in range(max(a.zmin, b.zmin), min(a.zmax, b.zmax) + 1):
        found = compare(a.layer(k), b.layer(k), o)
        if found is not None:
            return Mismatch(found.exponent, found.lhs, found.rhs, z_exponent=k)
    return None


def specialize(
    b: BivariateSeries,
    q_rescale: Rational,
    z_as_q_power: Rational,
) -> PuiseuxSeries:
    """Substitute q -> q^r and z -> q^w, collapsing layers into one series.

    The certified order is the tighter of two bounds: every included layer is
    exact only below r*O + k*w, and layers excluded by the window could
    contribute exponents as low as _excluded_floor allows.  Without floor
    metadata no order can be certified and the call fails.  A caller that
    needs order o picks the window with that same bound and evaluates the
    layers to (o - edge*w)/r (see verify.evaluate).
    """
    r = _frac(q_rescale)
    w = _frac(z_as_q_power)
    excluded = _excluded_floor(b.floor, b.zmin, b.zmax, r, w)
    edge = b.zmin if w >= 0 else b.zmax
    certified = r * b.order + edge * w
    if excluded is not None:
        certified = min(certified, excluded)
    shifted = [(_shift(substitute(layer, r), k * w), 1) for k, layer in b.layers]
    return _combine_series([(zero(certified), 1), *shifted])


def _excluded_floor(
    floor: Optional[LayerFloor], zmin: int, zmax: int, r: Fraction, w: Fraction
) -> Optional[Fraction]:
    """Lowest exponent, after q -> q^r and z -> q^w, of layers outside [zmin, zmax].

    None when the floor admits no such layers; InsufficientWindowError without
    a floor.  r must be positive: only then does the bound grow with the window.
    """
    if r <= 0:
        raise ValueError(f"q rescale must be positive, got {r}")
    if floor is None:
        raise InsufficientWindowError(
            "layers outside the z-window are unbounded; cannot certify any order"
        )
    mod = floor.modulus
    best: Optional[Fraction] = None
    for br in floor.branches:
        quad = r * br.quad
        lin = r * br.lin + w * mod
        const = r * br.const + w * br.residue

        def value(m: int) -> Fraction:
            return quad * m * m + lin * m + const

        hi_start = (zmax - br.residue) // mod + 1
        lo_end = -((br.residue - zmin) // mod) - 1
        vertex = -lin / (2 * quad)
        for candidate in _ray_minima(vertex, hi_start, lo_end):
            v = value(candidate)
            if best is None or v < best:
                best = v
    return best


def _ray_minima(vertex: Fraction, hi_start: int, lo_end: int) -> list[int]:
    """Integer minimizer candidates on the rays m >= hi_start and m <= lo_end."""
    out = [hi_start, lo_end]
    floor_v = vertex.numerator // vertex.denominator
    for m in (floor_v, floor_v + 1):
        if m >= hi_start:
            out.append(m)
        if m <= lo_end:
            out.append(m)
    return out
