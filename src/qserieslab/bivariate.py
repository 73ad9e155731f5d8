"""Laurent series in z with exact q-series coefficients.

Just enough bivariate machinery to state the quintuple product identity, its
even/odd reindexing, and the substitution step that turns it into a single-
variable theta/product identity: a window of z-layers, each an exact
PuiseuxSeries sharing one q-truncation order.

Layers outside the window are in general unknown (clipped).  To let
`specialize` certify a truncation order anyway, a series may carry a floor:
a tuple of FloorBranch(A, B, C, E, F), the same quadratic shape as a
bivariate_theta branch.  Every term on a layer z^k has q-exponent at least
A*m^2 + B*m + C for some branch with k = E*m + F, and layers that no branch
hits are identically zero; () is complete support and None an unknown floor.
Every constructor here attaches one, and sums keep the union of their
parts' branches, so only a series built with floor=None has none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .products import _levels, _times_family
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
    _unpack,
    compare,
    monomial,
    substitute,
    truncate,
    zero,
)

__all__ = [
    "BivariateSeries",
    "FloorBranch",
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
class FloorBranch:
    """Every term on layer z^(step*m + offset) has q-exponent at least
    quad*m^2 + lin*m + const; where several branches of a floor hit one
    layer, at least the least of their bounds."""

    quad: Fraction
    lin: Fraction
    const: Fraction
    step: int
    offset: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "quad", _frac(self.quad))
        object.__setattr__(self, "lin", _frac(self.lin))
        object.__setattr__(self, "const", _frac(self.const))
        if self.quad <= 0 or self.step <= 0:
            raise ValueError("need positive quadratic coefficient and z-step")


# A floor: a tuple of branches, or None when nothing is known.
Floor = Optional[tuple[FloorBranch, ...]]

# No mass at all outside the stored window.
COMPLETE_SUPPORT: Floor = ()

# The quintuple identity lives on layers z^(3m) and z^(3m+1) with minimal
# q-exponents 3m^2 - m and 3m^2 + m.
QUINTUPLE_FLOOR: Floor = (FloorBranch(3, -1, 0, 3, 0), FloorBranch(3, 1, 0, 3, 1))


@dataclass(frozen=True)
class BivariateSeries:
    zmin: int
    zmax: int
    order: Fraction
    layers: tuple[tuple[int, PuiseuxSeries], ...]
    floor: Floor = None

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
    floor: Floor = None,
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
        layers[k] = _from_grid(1, (exponent,), (1 if m % 2 == 0 else -1,), 1, o)
    return bivariate_from_layers(layers, window, o, QUINTUPLE_FLOOR)


def quintuple_rhs(q_order: Rational, window: tuple[int, int]) -> BivariateSeries:
    """Product side of the quintuple product identity.

    (1+z) * prod over n >= 1 of (1-q^(2n)) (1-q^(4n-2)z^2) (1-q^(4n-2)z^-2)
    (1+q^(2n)z) (1+q^(2n)z^-1), in Q = q^2 (every q-exponent is even) below
    Q^half, half = ceil(ceil(order)/2).  The product is laid out as half
    integer rows: row E is P_E(2^w), P_E the Laurent polynomial in z that is
    the coefficient of Q^E, times 2^(w*lift) so that no power of z is
    negative.  Row 0 starts as 1 + 2^w, and each of the five progressions,
    such as (1 + Q^n z), is one family (s*z^dz*Q^e; Q^step)_inf that
    products._times_family applies over the rows by Euler's sum with an
    in-row shift of dz*w bits; a family with dz < 0 raises the lift by
    -dz times its number of Horner levels.

    Exactness: z -> 2^w is a ring map Z[z] -> Z and the kernel uses only +,
    -, *2^k and running sums, so each row is exactly 2^(w*lift) P_E(2^w),
    whatever its digits do on the way.  Its coefficients c_(E,k) are read
    back as its balanced base-2^w digits, which they are when every
    |c_(E,k)| < 2^(w-1).  Taking every sign positive and z = 1 gives the
    majorant M = 2 * prod (1+Q^n)^3 (1+Q^(2n-1))^2, whose coefficient M_E is
    at least the sum over k of |c_(E,k)|; w is the least multiple of 8 with
    2^(w-1) > max M_E below Q^half (_digit_width).  The layers are exact
    below the order, which they certify; the result is clipped to the
    window, and its floor metadata is the identity's layer support.
    """
    o = _frac(q_order)
    half = -(-_ceil(o) // 2)
    if half <= 0:
        return bivariate_from_layers({}, window, o, QUINTUPLE_FLOOR)
    w = _digit_width(half)
    rows = [1 + (1 << w)] + [0] * (half - 1)
    lift = 0
    for s, e, dz, step in _QUINTUPLE_FAMILIES:
        rows = _times_family(rows, s, e, step, True, dz * w)
        if dz < 0:
            lift -= dz * _levels(half, e, step)[0]
    # digit j of a row holds layer z^(j - lift); only the window's are read
    zmin, zmax = window
    lo = max(zmin + lift, 0)
    count = max(zmax + lift + 1 - lo, 0)
    columns = _window_digits(rows, w, lo, count)
    layers = {lo - lift + i: _from_grid(1, exps, nums, 1, o) for i, (exps, nums) in enumerate(columns) if exps}
    return bivariate_from_layers(layers, window, o, QUINTUPLE_FLOOR)


# (1 - s*Q^(e + step*n)*z^dz) for n >= 0, the quintuple product's five progressions
_QUINTUPLE_FAMILIES = ((1, 1, 0, 1), (-1, 1, 1, 1), (1, 1, 2, 2), (-1, 1, -1, 1), (1, 1, -2, 2))


def _window_digits(rows: Sequence[int], w: int, lo: int, count: int) -> list[tuple[list[int], list[int]]]:
    """Digits lo to lo + count - 1 of the rows in balanced base 2^w, every
    digit below 2^(w-1) in size: for digit lo + i, the q-exponents 2E of the
    rows E where it is nonzero and the digits there, ascending.

    The digits below lo sum to less than 2^(w*lo - 1) in size, so rounding
    row / 2^(w*lo) to the nearest integer drops them exactly, leaving x.  The
    window's digits c_k of x sum to S = sum c_k 2^(w*k) with |S| below
    2^(w*count - 1), so x = S modulo 2^(w*count) is 0 only when every c_k is:
    such a row is skipped, and series._unpack reads the others."""
    columns: list[tuple[list[int], list[int]]] = [([], []) for _ in range(count)]
    shift = w * lo
    rounding = 1 << shift >> 1
    mask = (1 << w * count) - 1
    for e, row in enumerate(rows):
        x = (row + rounding) >> shift
        if x & mask:
            for (exps, nums), c in zip(columns, _unpack(x, w // 8, count)):
                if c:
                    exps.append(2 * e)
                    nums.append(c)
    return columns


def _digit_width(half: int) -> int:
    """The least multiple of 8, w, with 2^(w-1) above every coefficient of
    the majorant M = 2 * prod over n >= 1 of (1+Q^n)^3 (1+Q^(2n-1))^2 below
    Q^half: the quintuple product with every sign positive at z = 1."""
    majorant = [2] + [0] * (half - 1)
    for _, e, _, step in _QUINTUPLE_FAMILIES:
        majorant = _times_family(majorant, -1, e, step, True)
    return 8 * ((max(majorant).bit_length() + 8) // 8)


def bivariate_theta(
    branches: Iterable[tuple[int, FloorBranch]],
    q_order: Rational,
    window: tuple[int, int],
) -> BivariateSeries:
    """Z-indexed sums with a z-power linear in the index:

    sum over m of sigma * q^(A m^2 + B m + C) * z^(E m + F)
    for each pair (sigma, FloorBranch(A, B, C, E, F)), A > 0 and E > 0.

    Each branch is its own floor branch, so the floor is exact on every layer
    a single branch hits and a lower bound where several meet.
    """
    o = _frac(q_order)
    zmin, zmax = window
    spread = max(abs(zmin), abs(zmax))
    terms: dict[int, list[tuple[PuiseuxSeries, int]]] = {}
    floor: dict[FloorBranch, None] = {}
    for sigma, br in branches:
        floor[br] = None
        m_max = (spread + abs(br.offset)) // br.step + 1
        for m in range(-m_max, m_max + 1):
            k = br.step * m + br.offset
            if not zmin <= k <= zmax:
                continue
            exponent = br.quad * m * m + br.lin * m + br.const
            terms.setdefault(k, []).append((monomial(sigma, exponent, exponent.denominator, o), 1))
    layers = {k: _combine_series(parts) for k, parts in terms.items()}
    return bivariate_from_layers(layers, window, o, tuple(floor))


def add_bivariate(a: BivariateSeries, b: BivariateSeries) -> BivariateSeries:
    return _combine([(a, 1), (b, 1)])


def sub_bivariate(a: BivariateSeries, b: BivariateSeries) -> BivariateSeries:
    return _combine([(a, 1), (b, -1)])


def _combine(parts: Sequence[tuple[BivariateSeries, int]]) -> BivariateSeries:
    """The sum of sign*b over one or more (b, sign) parts on one z-window,
    each layer one series._combine of the parts that hold it, certified to
    the least of their orders.  A term of the sum is a term of some part, so
    the union of the parts' floor branches bounds it; the floor is unknown
    only when some part's is."""
    first = parts[0][0]
    if any((b.zmin, b.zmax) != (first.zmin, first.zmax) for b, _ in parts):
        raise ValueError("bivariate addition requires identical z-windows")
    by_layer: dict[int, list[tuple[PuiseuxSeries, int]]] = {}
    for b, sign in parts:
        for k, layer in b.layers:
            by_layer.setdefault(k, []).append((layer, sign))
    layers = {k: _combine_series(layer_parts) for k, layer_parts in by_layer.items()}
    floors = [b.floor for b, _ in parts]
    floor = None if None in floors else tuple(dict.fromkeys(br for f in floors for br in f))
    return bivariate_from_layers(layers, (first.zmin, first.zmax), min(b.order for b, _ in parts), floor)


def compare_bivariate(a: BivariateSeries, b: BivariateSeries, order: Rational) -> Optional[Mismatch]:
    """Layerwise comparison on one z-window, below `order`.

    Returns the first mismatch scanning z ascending, each layer by ascending
    q-exponent; None when everything certified agrees.  Two different
    windows raise ValueError, as for addition: layers outside either one
    are unknown, so no comparison could stand for the whole series.
    """
    o = _frac(order)
    if (a.zmin, a.zmax) != (b.zmin, b.zmax):
        raise ValueError(
            f"bivariate comparison requires identical z-windows, got [{a.zmin}, {a.zmax}] and [{b.zmin}, {b.zmax}]"
        )
    if o > a.order or o > b.order:
        raise InsufficientOrderError(
            f"compare to {o} exceeds certified orders ({a.order}, {b.order})"
        )
    layers_a, layers_b = dict(a.layers), dict(b.layers)
    zero_a, zero_b = zero(a.order), zero(b.order)
    for k in range(a.zmin, a.zmax + 1):
        found = compare(layers_a.get(k, zero_a), layers_b.get(k, zero_b), o)
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
    contribute exponents as low as _excluded_floor allows.  A floor of None
    certifies nothing and raises InsufficientWindowError.  A caller that
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


def _excluded_floor(floor: Floor, zmin: int, zmax: int, r: Fraction, w: Fraction) -> Optional[Fraction]:
    """Lowest exponent, after q -> q^r and z -> q^w, of layers outside [zmin, zmax].

    None when the floor admits no such layers; InsufficientWindowError without
    a floor.  r must be positive: only then does the bound grow with the window.
    A branch's layer z^(E*m + F) lies above the window for m >= hi and below
    it for m <= lo, and its floor there is the convex quad*m^2 + lin*m + const,
    least on each ray at the integer next to the vertex or at the ray's end.
    """
    if r <= 0:
        raise ValueError(f"q rescale must be positive, got {r}")
    if floor is None:
        raise InsufficientWindowError(
            "layers outside the z-window are unbounded; cannot certify any order"
        )
    best: Optional[Fraction] = None
    for br in floor:
        quad = r * br.quad
        lin = r * br.lin + w * br.step
        const = r * br.const + w * br.offset
        hi = (zmax - br.offset) // br.step + 1
        lo = -((br.offset - zmin) // br.step) - 1
        vertex = -lin // (2 * quad)
        for m in (max(hi, vertex), max(hi, vertex + 1), min(lo, vertex), min(lo, vertex + 1)):
            v = quad * m * m + lin * m + const
            if best is None or v < best:
                best = v
    return best
