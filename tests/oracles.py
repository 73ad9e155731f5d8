"""Independent reference implementations used to freeze expected values.

Everything here is deliberately brute force and shares no code path with the
package beyond its two value types: plain dict/list arithmetic, direct
enumeration, partition counting by dynamic programming.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, lcm

from qserieslab import BivariateSeries, PuiseuxSeries


def canonical_series(mapping: dict[Fraction, Fraction], order: Fraction) -> PuiseuxSeries:
    """The series of a sparse exponent->coefficient mapping: zeros and
    anything at or beyond the order dropped, the rest sorted, the grading
    the lcm of the surviving exponent denominators.  Only the value type
    comes from the package."""
    items = sorted((e, c) for e, c in mapping.items() if c != 0 and e < order)
    grading = 1
    for e, _ in items:
        grading = lcm(grading, e.denominator)
    return PuiseuxSeries(grading, order, tuple(items))


def fmt_text(a: PuiseuxSeries) -> str:
    """The text format with every fraction reduced by its own gcd: header
    `D=<int> O=<num>/<den>`, then one `exp coef` line per term."""

    def fmt(num: int, den: int) -> str:
        g = gcd(num, den)
        return f"{num // g}/{den // g}"

    lines = [f"D={a.grading} O={fmt(a.order.numerator, a.order.denominator)}"]
    lines.extend(f"{fmt(k, a.grading)} {fmt(n, a.den)}" for k, n in zip(a.exps, a.nums))
    return "\n".join(lines) + "\n"


def dense_invert(a: PuiseuxSeries) -> PuiseuxSeries:
    """The inverse by the dense recurrence, certified to O_a - 2h: with
    a = q^h * (u/den) * sum_k n_k q^(k*step), u = +-1 and n_0 > 0, the k-th
    coefficient is u * den * J_k / n_0^(k+1), where J_0 = 1 and
    J_k = -sum_(i>=1) w_i * J_(k-i) over the weights w_i = n_i * n_0^(i-1),
    every w_i checked for every k."""
    d, exps, nums = a.grading, a.exps, a.nums
    u, n0 = (1 if nums[0] > 0 else -1), abs(nums[0])
    order = a.order - 2 * Fraction(exps[0], d)
    step = gcd(*(x - exps[0] for x in exps)) or 1  # 0 for a monomial
    count = ceil((order * d + exps[0]) / step)
    coeffs = [0] * ((exps[-1] - exps[0]) // step + 1)
    for x, c in zip(exps, nums):
        coeffs[(x - exps[0]) // step] = u * c
    weights = [c * n0 ** (i - 1) if i else 0 for i, c in enumerate(coeffs[:count])]
    inv = [1]
    for n in range(1, count):
        s = 0
        for k in range(1, min(n, len(weights) - 1) + 1):
            if weights[k]:
                s += weights[k] * inv[n - k]
        inv.append(-s)
    terms = {Fraction(n * step - exps[0], d): Fraction(u * a.den * j, n0 ** (n + 1)) for n, j in enumerate(inv) if j}
    return canonical_series(terms, order)


def dict_combine(a, b, sign: int) -> PuiseuxSeries:
    """a + sign*b as the union of two {exponent: coefficient} dicts, certified
    to the smaller order."""
    out = dict(a.terms)
    for e, c in b.terms:
        out[e] = out.get(e, Fraction(0)) + sign * c
    return canonical_series(out, min(a.order, b.order))


def dict_combine_bivariate(a, b, sign: int) -> BivariateSeries:
    """Layerwise dict_combine over the z-exponents of either operand; empty
    layers are dropped.  Every term of the sum is a term of a or of b, so the
    floor is the union of both floors' branches, first seen first and each
    kept once, and unknown (None) when either is."""
    la, lb = dict(a.layers), dict(b.layers)
    order = min(a.order, b.order)
    empty = PuiseuxSeries(1, order, ())
    layers = []
    for k in sorted(la.keys() | lb.keys()):
        ser = dict_combine(la.get(k, empty), lb.get(k, empty), sign)
        if ser.terms:
            layers.append((k, ser))
    floor = None
    if a.floor is not None and b.floor is not None:
        kept: list = []
        for br in a.floor + b.floor:
            if br not in kept:
                kept.append(br)
        floor = tuple(kept)
    return BivariateSeries(a.zmin, a.zmax, order, tuple(layers), floor)


def theta_enumeration(quadratic: Fraction, branches, order: Fraction) -> dict[Fraction, Fraction]:
    """sum over m and the branches (B, C, sign) of sign * q^(A m^2 + B m + C)
    below the order, on a dict.  A m^2 + B m + C >= m (A m - |B|) - |C|, so
    every |m| > (|B| + |C| + |order| + 1) / A lands above the order."""
    out: dict[Fraction, Fraction] = {}
    for linear, constant, sign in branches:
        reach = ceil((abs(linear) + abs(constant) + abs(order) + 1) / quadratic)
        for m in range(-reach, reach + 1):
            e = quadratic * m * m + linear * m + constant
            if e < order:
                out[e] = out.get(e, Fraction(0)) + sign
    return out


def dict_specialize(layers, r: Fraction, w: Fraction, order: Fraction) -> dict[Fraction, Fraction]:
    """sum over layers z^k of c * q^(r*e + k*w) below the order, on a dict."""
    out: dict[Fraction, Fraction] = {}
    for k, ser in layers:
        for e, c in ser.terms:
            x = r * e + k * w
            if x < order:
                out[x] = out.get(x, Fraction(0)) + c
    return out


def excluded_minimum(floor, zmin: int, zmax: int, r: Fraction, w: Fraction):
    """Smallest r*(A m^2 + B m + C) + w*k over each floor branch's layers
    k = E*m + F outside [zmin, zmax], by trying every |m| <= 200, far past
    the vertex of any floor the tests draw; None when the floor has no
    branch."""
    values = [
        r * (br.quad * m * m + br.lin * m + br.const) + w * (br.step * m + br.offset)
        for br in floor
        for m in range(-200, 201)
        if not zmin <= br.step * m + br.offset <= zmax
    ]
    return min(values, default=None)


def partition_counts(parts: list[int], n_max: int) -> list[int]:
    """counts[n] = number of partitions of n into the given parts (with repeats)."""
    counts = [0] * (n_max + 1)
    counts[0] = 1
    for p in sorted(parts):
        for n in range(p, n_max + 1):
            counts[n] += counts[n - p]
    return counts


def residue_parts(modulus: int, residues: tuple[int, ...], n_max: int) -> list[int]:
    parts = [p for p in range(1, n_max + 1) if p % modulus in residues]
    return partition_counts(parts, n_max)


def pentagonal_sum(n_max: int) -> dict[int, int]:
    """sum over k in Z of (-1)^k q^(k(3k-1)/2), coefficients below n_max."""
    out: dict[int, int] = {}
    k = 0
    while True:
        hit = False
        for kk in ((k, -k) if k else (0,)):
            e = kk * (3 * kk - 1) // 2
            if e < n_max:
                out[e] = out.get(e, 0) + (1 if kk % 2 == 0 else -1)
                hit = True
        if not hit and k > 1:
            break
        k += 1
    return {e: c for e, c in out.items() if c}


def dict_mul(a: dict[Fraction, Fraction], b: dict[Fraction, Fraction], top: Fraction) -> dict[Fraction, Fraction]:
    out: dict[Fraction, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < top:
                out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def dict_compare(a, b, order: Fraction):
    """First (exponent, lhs, rhs) below the order where the coefficients of
    two series differ, read through dicts over the sorted union of exponents;
    None when they agree."""
    da, db = dict(a.terms), dict(b.terms)
    for e in sorted(set(da) | set(db)):
        if e < order and da.get(e, 0) != db.get(e, 0):
            return e, da.get(e, 0), db.get(e, 0)
    return None


def dict_substitute(terms, order: Fraction, r: Fraction, signed: bool) -> str:
    """Text format of the series sum c * q^(r*e) below q^(r*order), built on a
    {exponent: coefficient} dict and sorted at the end.  When signed, the
    coefficient at n integer steps above the lowest exponent is multiplied
    by (-1)^n, and a step that is not an integer raises ValueError with the
    message the package gives."""
    coefs = dict(terms)
    lead = min(coefs, default=Fraction(0))
    out: dict[Fraction, Fraction] = {}
    for e, c in coefs.items():
        if signed:
            step = e - lead
            if step.denominator != 1:
                raise ValueError(f"exponent step {step} from the leading exponent is not an integer")
            if step % 2:
                c = -c
        out[e * r] = c
    top = order * r
    items = sorted((e, c) for e, c in out.items() if e < top)
    grading = lcm(*(e.denominator for e, _ in items))
    lines = [f"D={grading} O={top.numerator}/{top.denominator}"]
    lines += [f"{e.numerator}/{e.denominator} {c.numerator}/{c.denominator}" for e, c in items]
    return "\n".join(lines) + "\n"


def fraction_nullspace(columns, order: Fraction) -> list[tuple[Fraction, ...]]:
    """Basis of the rational nullspace of the matrix whose rows are the
    exponents below the order present in any column (a sequence of
    (exponent, coefficient) pairs), by Gauss-Jordan elimination on
    Fractions: one vector per non-pivot column f, with 1 at f and 0 at the
    other non-pivot columns, each divided by its first nonzero entry."""
    lookups = [dict(col) for col in columns]
    cols = len(lookups)
    exponents = sorted({e for d in lookups for e in d if e < order})
    rows = [[d.get(e, Fraction(0)) for d in lookups] for e in exponents]
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        x = [Fraction(0)] * cols
        x[f] = Fraction(1)
        for i, p in enumerate(pivots):
            x[p] = -rows[i][f]
        lead = next(v for v in x if v != 0)
        basis.append(tuple(v / lead for v in x))
    return basis


def product_offsets(
    factors: list[tuple[int, Fraction, Fraction, int]],
    prefactor_exponent: Fraction,
    prefactor_coefficient: Fraction,
    order: Fraction,
) -> dict[Fraction, Fraction]:
    """c * q^p * prod over (sign, start, step, power) and n >= 0 of
    (1 - sign*q^(start + step*n))^power below q^order, multiplied out one
    factor instance at a time on a plain {exponent: coefficient} dict; a
    reciprocal instance is the geometric series sum_j (sign*q^e)^j."""
    top = order - prefactor_exponent
    poly = {Fraction(0): Fraction(1)} if top > 0 and prefactor_coefficient else {}
    for sign, start, step, power in factors:
        e = start
        while e < top:
            if power > 0:
                factor = {Fraction(0): Fraction(1), e: Fraction(-sign)}
            else:
                factor = {j * e: Fraction(sign) ** j for j in range(int(top / e) + 1)}
            for _ in range(abs(power)):
                poly = dict_mul(poly, factor, top)
            e += step
    return {prefactor_exponent + e: prefactor_coefficient * c for e, c in poly.items() if c}


def minimal_char_offsets(s: int, t: int, m: int, n: int, steps: int) -> list[int]:
    """Coefficients of the (s,t,m,n) character at integer offsets 0..steps-1
    above its leading exponent, via the alternating sum over k divided by the
    Euler product (as partition-count convolution)."""
    theta = [0] * steps
    k = 0
    while True:
        hit = False
        for kk in ((k, -k) if k else (0,)):
            e1 = s * t * kk * kk + kk * (m * t - n * s)
            e2 = s * t * kk * kk + (m * t + n * s) * kk + m * n
            if 0 <= e1 < steps:
                theta[e1] += 1
                hit = True
            if 0 <= e2 < steps:
                theta[e2] -= 1
                hit = True
        if not hit and k > max(abs(m * t - n * s), m * t + n * s):
            break
        k += 1
    p = partition_counts(list(range(1, steps)), steps - 1)
    return [sum(theta[j] * p[i - j] for j in range(i + 1)) for i in range(steps)]


# The A2 root lattice in the simple-root basis: Gram matrix with |alpha|^2 = 2.
A2_GRAM = ((2, -1), (-1, 2))


def mat_mul(a, b):
    """The product of two 2x2 integer matrices, as tuples of rows."""
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2))


def transpose(a):
    return tuple(zip(*a))


def det(a) -> int:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def a2_norm(x: int, y: int) -> int:
    """|x*alpha1 + y*alpha2|^2 = 2(x^2 - xy + y^2), from A2_GRAM."""
    return A2_GRAM[0][0] * x * x + 2 * A2_GRAM[0][1] * x * y + A2_GRAM[1][1] * y * y


def a2_reflection(i: int):
    """s_i(v) = v - <v, alpha_i> alpha_i: column j is s_i(alpha_j)."""
    return tuple(tuple(int(r == j) - A2_GRAM[i][j] * int(r == i) for j in range(2)) for r in range(2))


def a2_weyl_group() -> frozenset:
    """The Weyl group of A2: the closure of {identity} under right
    multiplication by the two simple reflections."""
    identity = ((1, 0), (0, 1))
    group, frontier = {identity}, [identity]
    while frontier:
        g = frontier.pop()
        for i in range(2):
            h = mat_mul(g, a2_reflection(i))
            if h not in group:
                group.add(h)
                frontier.append(h)
    return frozenset(group)


def rho_image(w) -> tuple[int, int]:
    """w(rho) for the matrix of w, rho = alpha1 + alpha2."""
    return (w[0][0] + w[0][1], w[1][0] + w[1][1])


# The six Weyl images w(rho) of rho = alpha1 + alpha2 in the simple-root basis
# (the six roots of A2), with sign(w) = det w.
_A2_RHO_IMAGES = tuple(sorted((rho_image(w), det(w)) for w in a2_weyl_group()))


def fkw_offsets(steps: int) -> list[int]:
    """Coefficients of the lattice-sum character at integer offsets
    0..steps-1 above its leading exponent -1/30: sign(w) q^(|v|^2/40) summed
    over v = 5w(rho) - 4rho + 20n*alpha1 + 20m*alpha2 by a plain double loop
    over (m, n), then divided by (q)_inf^2 as a convolution with two-colour
    partition counts.  |x*alpha1 + y*alpha2|^2 = 2(x^2 - xy + y^2)."""
    theta = [0] * steps
    r = steps + 2  # |x| >= 20|n| - 9, so |n| > steps lands far above the range
    for (a, b), sign in _A2_RHO_IMAGES:
        for n in range(-r, r + 1):
            for m in range(-r, r + 1):
                x, y = 5 * a - 4 + 20 * n, 5 * b - 4 + 20 * m
                k, rem = divmod(a2_norm(x, y) - 2, 40)
                assert rem == 0, "every exponent sits an integer above 1/20"
                if k < steps:
                    theta[k] += sign
    p = partition_counts(list(range(1, steps)) * 2, steps - 1)
    return [sum(theta[j] * p[i - j] for j in range(i + 1)) for i in range(steps)]


def family_product(
    poly: dict[tuple[int, int], int], families, top
) -> dict[tuple[int, int], int]:
    """poly * prod over (s, e, dz, step) in families and n >= 0 of
    (1 - s * Q^(e + step*n) * z^dz) below Q^top, multiplied out one factor
    instance at a time on a {(Q-exponent, z-exponent): coefficient} dict."""
    out = {key: c for key, c in poly.items() if key[0] < top and c}
    for s, e, dz, step in families:
        dq = e
        while dq < top:
            grown = dict(out)
            for (q, z), c in out.items():
                if q + dq < top:
                    grown[(q + dq, z + dz)] = grown.get((q + dq, z + dz), 0) - s * c
            out = {key: c for key, c in grown.items() if c}
            dq += step
    return out


@lru_cache(maxsize=None)
def _quintuple_product(order: Fraction) -> tuple[tuple[tuple[int, int], int], ...]:
    # (q-exponent, z-exponent) -> coefficient; the factors (1 - s q^(e + step*n) z^dz)
    # are (1-q^(2n)), (1+q^(2n)z), (1+q^(2n)/z), (1-q^(4n-2)z^2) and (1-q^(4n-2)/z^2)
    families = ((1, 2, 0, 2), (-1, 2, 1, 2), (-1, 2, -1, 2), (1, 2, 2, 4), (1, 2, -2, 4))
    return tuple(family_product({(0, 0): 1, (0, 1): 1}, families, order).items())


def quintuple_product_layers(order: Fraction, window: tuple[int, int]) -> dict[int, dict[int, int]]:
    """Layers z^k, k in the window, of the quintuple product below q^order:
    (1+z) * prod over n >= 1 of (1-q^(2n)) (1+q^(2n)z) (1+q^(2n)/z)
    (1-q^(4n-2)z^2) (1-q^(4n-2)/z^2), multiplied out one factor instance at
    a time by family_product."""
    zmin, zmax = window
    layers: dict[int, dict[int, int]] = {}
    for (e, z), c in _quintuple_product(Fraction(order)):
        if zmin <= z <= zmax:
            layers.setdefault(z, {})[e] = c
    return layers
