"""The avalanche-size distribution over all plane trees with n edges.

Three independent routes compute the same polynomial: exhaustive
enumeration, a convolution recurrence, and the closed formula over
strictly increasing exponent sequences, summed by a dynamic programme
over the last part of the sequence (O(n^2) additions of coefficient
lists rather than one term per subset of 1..n). On top of those:
exact rational mean and variance, floating asymptotic ratios, a
truncated-series identity check, and the renormalized curve.

The recurrence and the series check run on packed integers (Kronecker
substitution; D. Harvey, arXiv:0712.4046). A polynomial sum c_e q^e is
stored as the int sum c_e 2^(W e): each coefficient owns a field of W
bits, W a multiple of 8, so adding and scaling polynomials becomes
big-int arithmetic done in C, and `int.to_bytes` plus byte slices read
the coefficients back. The packing is exact as long as no field
overflows into the next one:

* The recurrence table for sizes up to n uses W >= bitlen(n C_n) + 1.
  Its coefficients are nonnegative and every one of them, and every
  partial sum of one, is at most n C_n, so no carry crosses a field.
* The series check packs the polynomials it is given, which may have
  any signs and sizes, with W one bit wider than a bound on every field
  of the difference it tests. A packed int with fields of absolute value
  below 2^(W-1) is zero only if every field is, so the test is exact.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction

from .polyalg import Poly, catalan
from .tree import avalanche_poly, enumerate_trees

__all__ = [
    "DistributionRecord",
    "MomentReport",
    "CurvePoint",
    "EnumerationCapExceeded",
    "DEFAULT_ENUM_CAP",
    "distribution_by_enumeration",
    "distribution_by_recurrence",
    "distribution_by_closed_form",
    "recurrence_polys",
    "closed_coefficient",
    "first_moment_total",
    "mean_exact",
    "variance_exact",
    "moment_report",
    "functional_equation_mismatch",
    "verify_functional_equation",
    "normalized_curve",
    "curve_csv_lines",
]

# Measured on a 2-vCPU x86 VM (Python 3.11): `dist --n 13 --method enum`
# takes 14.5 s and 16 MB peak RSS; n = 12 takes 3.7 s.
DEFAULT_ENUM_CAP = 13

# Fixed high-precision constants for ratio rendering.
SQRT_PI = Decimal("1.77245385090551602729816748334114518279754945612238712821381")
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")

_RATIO_PRECISION = 50


class EnumerationCapExceeded(ValueError):
    """Raised when a request would enumerate more trees than the cap allows."""


class DistributionRecord(namedtuple("DistributionRecord", "n poly method")):
    """Immutable (n, poly, method); method is "enumeration", "recurrence"
    or "closed"."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"n": self.n, "method": self.method, "poly": self.poly.to_pairs()}


class MomentReport(namedtuple("MomentReport", "n mean variance mean_ratio variance_ratio")):
    """Immutable exact moments (Fractions) and their asymptotic ratios
    (floats): mean_ratio = mean / ((sqrt(pi)/4) n^{3/2}) and
    variance_ratio = variance / n^3."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "mean": str(self.mean), "variance": str(self.variance)}


# One curve point (i/n, p_i/C_n), immutable.
CurvePoint = namedtuple("CurvePoint", "x y")


# ---------------------------------------------------------------------------
#  The distribution, three ways
# ---------------------------------------------------------------------------


def distribution_by_enumeration(n: int) -> DistributionRecord:
    """Fold the avalanche polynomial over every tree with n edges;
    n above DEFAULT_ENUM_CAP raises EnumerationCapExceeded."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > DEFAULT_ENUM_CAP:
        raise EnumerationCapExceeded(
            f"n={n} exceeds the enumeration cap {DEFAULT_ENUM_CAP} "
            f"(catalan({n}) = {catalan(n)} trees)"
        )
    acc: dict[int, int] = {}
    for t in enumerate_trees(n):
        for e, c in avalanche_poly(t).items():
            acc[e] = acc.get(e, 0) + c
    return DistributionRecord(n, Poly(acc), "enumeration")


def _recurrence_rows(n: int) -> tuple[int, list[int]]:
    """Field width W/8 and the packed rows (format in `recurrence_polys`)
    for sizes 0..n. Since C(t)(1 - t C(t)) = 1, the series identity
    reduces to the single sum

        A_m = q sum_{k<m} C_{m-k} q^k (C_k + A_k),

    one small-by-big multiply, shift and add per k.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    cat = [catalan(k) for k in range(n + 1)]
    width = (n * cat[n]).bit_length() // 8 + 1
    w = 8 * width
    rows = [1]
    for m in range(1, n + 1):
        acc = cat[m]
        for k in range(m):
            acc += (cat[m - k] * rows[k]) << (w * (k + 1))
        rows.append(acc)
    return width, rows


def _unpack(row: int, width: int) -> Poly:
    """A_k from packed row k: one `to_bytes`, one slice per field, field 0
    (C_k) skipped."""
    fields = -(-row.bit_length() // (8 * width))
    data = row.to_bytes(fields * width, "little")
    return Poly(
        (e, int.from_bytes(data[e * width:(e + 1) * width], "little"))
        for e in range(1, fields)
    )


def recurrence_polys(n: int) -> list[Poly]:
    """Distribution polynomials for sizes 0..n via the convolution
    recurrence, unpacked from a table of packed rows. Nothing is kept
    between calls and each call builds the whole table, which holds
    every size up to n; a caller that needs many sizes calls
    `recurrence_polys(N)` once for the largest N, not once per size.

    Row k is the int sum_e B_k[e] 2^(W e) with B_k = C_k + A_k: A_k has no
    constant term, so field 0 holds C_k and fields 1.. hold A_k. W is a
    multiple of 8 and at least bitlen(n C_n) + 1. Fields are nonnegative,
    and each of them, like every partial sum the recurrence forms in it,
    is at most n C_n: no carry crosses a field.
    """
    width, rows = _recurrence_rows(n)
    return [_unpack(rows[k], width) for k in range(n + 1)]


def distribution_by_recurrence(n: int) -> DistributionRecord:
    """The size-n polynomial from the packed table; unpacks row n only."""
    width, rows = _recurrence_rows(n)
    return DistributionRecord(n, _unpack(rows[n], width), "recurrence")


def _closed_form_coefficients(n: int) -> list[int]:
    """Coefficients 0..n(n+1)/2 of the size-n distribution by the closed
    formula: the sum over strictly increasing sequences
    p_1 < ... < p_k <= n of

        q^(p_1 + ... + p_k) C_{p_1-1} prod_{i>1} C_{p_i - p_{i-1}} C_{n-p_k+1},

    with the terms grouped by their last part. F_p, the sum of
    q^(sum) C_{p_1-1} prod C_{p_i - p_{i-1}} over the sequences ending at
    p, does not depend on n and satisfies

        F_p = q^p (C_{p-1} + sum_{l<p} C_{p-l} F_l),
        A_n = sum_{p=1..n} C_{n-p+1} F_p.

    g[p] holds the dense coefficients of F_p / q^p, of degree p(p-1)/2.
    That is O(n^2) scaled additions of coefficient lists, O(n^4) integer
    operations, and no use of the recurrence.
    """
    cat = [catalan(k) for k in range(n + 1)]
    g: list[list[int]] = [[]]
    total = [0] * (n * (n + 1) // 2 + 1)
    for p in range(1, n + 1):
        acc = [0] * (p * (p - 1) // 2 + 1)
        acc[0] = cat[p - 1]
        for l in range(1, p):
            c = cat[p - l]
            for e, v in enumerate(g[l], l):
                acc[e] += c * v
        g.append(acc)
        c = cat[n - p + 1]
        for e, v in enumerate(acc, p):
            total[e] += c * v
    return total


def closed_coefficient(n: int, v: int) -> int:
    """Coefficient of q^v in the size-n distribution by the closed
    formula (see `_closed_form_coefficients`): the sum over strictly
    increasing positive sequences p_1 < ... < p_k <= n with sum v of
    C_{p_1-1} * prod C_{p_i - p_{i-1}} * C_{n - p_k + 1}.

    Out-of-range v yields 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if v < 1 or v > n * (n + 1) // 2:
        return 0
    return _closed_form_coefficients(n)[v]


def distribution_by_closed_form(n: int) -> DistributionRecord:
    """The whole polynomial by the closed formula, in O(n^2) scaled
    additions of coefficient lists (see `_closed_form_coefficients`)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return DistributionRecord(n, Poly(enumerate(_closed_form_coefficients(n))), "closed")


# ---------------------------------------------------------------------------
#  Exact moments and asymptotics
# ---------------------------------------------------------------------------


def first_moment_total(n: int) -> int:
    """Total avalanche mass sum_m m*a_m at size n:
    4^{n-1}(n+2) - (2n^2+n-1) C_{n-1}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 4 ** (n - 1) * (n + 2) - (2 * n * n + n - 1) * catalan(n - 1)


def mean_exact(n: int) -> Fraction:
    """Mean avalanche size over all trees with n edges, exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(first_moment_total(n), n * catalan(n))


def variance_exact(n: int) -> Fraction:
    """Exact variance from the closed form.

    The printed source form carries a duplicated -1/(2n) term; with both
    copies the n=2 value disagrees with the brute-force second moment
    (7/16 vs 11/16), so a single -1/(2n) is used here. The test suite
    pins this choice against the enumeration oracle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cn = catalan(n)
    base = (
        Fraction(4, 15) * n**3
        + Fraction(73, 60) * n**2
        + Fraction(26, 15) * n
        + Fraction(8, 15)
        - Fraction(1, 2 * n)
        - Fraction(1, 4 * n * n)
    )
    big = Fraction(
        16 ** (n - 1) * (n**4 + 6 * n**3 + 13 * n**2 + 12 * n + 4),
        n**2 * (n + 1) ** 2 * cn**2,
    )
    small = Fraction(
        4 ** (n - 1) * (n**3 + 4 * n**2 + 5 * n + 2),
        n**2 * (n + 1) * cn,
    )
    return base - big + small


def moment_report(n: int) -> MomentReport:
    """Exact moments plus asymptotic ratios rendered through 50-digit
    decimal division (the ratios are floats, correctly rounded)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    mean = mean_exact(n)
    variance = variance_exact(n)
    with localcontext() as ctx:
        ctx.prec = _RATIO_PRECISION
        mean_dec = Decimal(mean.numerator) / Decimal(mean.denominator)
        scale = SQRT_PI / 4 * Decimal(n**3).sqrt()
        mean_ratio = float(mean_dec / scale)
        var_dec = Decimal(variance.numerator) / Decimal(variance.denominator)
        variance_ratio = float(var_dec / Decimal(n**3))
    return MomentReport(n, mean, variance, mean_ratio, variance_ratio)


# ---------------------------------------------------------------------------
#  Series identity
# ---------------------------------------------------------------------------


def _pack(poly: Poly, width: int) -> int:
    """sum_e c_e 2^(8 width e) for integer coefficients of any sign: the
    positive and the negative parts go through bytes separately."""
    size = (poly.degree() + 1) * width
    pos, neg = bytearray(size), bytearray(size)
    for e, c in poly.items():
        (pos if c > 0 else neg)[e * width:(e + 1) * width] = abs(c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def functional_equation_mismatch(order: int, polys=None) -> int | None:
    """First t-order where the radical-free series identity

        A(t,q) (1 - t C(t)) = q t C(t) (C(qt) + A(qt, q))

    fails, or None if it holds through `order`. `polys` overrides the
    distribution polynomials (for sensitivity checks).

    Order p of the identity, with the A-term moved right, reads
    A_p = sum_{j<p} C_{p-1-j} (q^(j+1) (C_j + A_j) + A_j): the three-part
    sum, not the single sum the recurrence is built from. Both sides are
    compared as packed ints whose width comes from the absolute
    coefficient sums of `polys`, so the test is exact for any input."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if polys is None:
        polys = recurrence_polys(order)
    polys = polys[: order + 1]
    if len(polys) != order + 1:
        raise ValueError(f"order {order} needs {order + 1} polynomials, got {len(polys)}")
    cat = [catalan(k) for k in range(order + 1)]
    mass = [sum(abs(c) for _, c in poly.items()) for poly in polys]
    bound = max(
        mass[p] + sum(cat[p - 1 - j] * (cat[j] + 2 * mass[j]) for j in range(p))
        for p in range(order + 1)
    )
    width = bound.bit_length() // 8 + 1
    w = 8 * width
    a = [_pack(poly, width) for poly in polys]
    terms = [((cat[j] + a[j]) << (w * (j + 1))) + a[j] for j in range(order)]
    for p in range(order + 1):
        if a[p] != sum(cat[p - 1 - j] * terms[j] for j in range(p)):
            return p
    return None


def verify_functional_equation(order: int) -> bool:
    return functional_equation_mismatch(order) is None


# ---------------------------------------------------------------------------
#  Renormalized curve
# ---------------------------------------------------------------------------


def normalized_curve(n: int) -> list[CurvePoint]:
    """Points (i/n, p_i/C_n), one per nonzero coefficient, x ascending;
    y = 1 at i = 1 since p_1 = C_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    poly = distribution_by_recurrence(n).poly
    cn = catalan(n)
    return [CurvePoint(i / n, float(Fraction(c, cn))) for i, c in poly.terms()]


def format_float(v: float, precision: int) -> str:
    """Decimal text with `precision` significant digits, always keeping
    a decimal point (gnuplot- and spreadsheet-friendly)."""
    s = f"{v:.{precision}g}"
    if "e" not in s and "." not in s:
        s += ".0"
    return s


def curve_csv_lines(points: list[CurvePoint], precision: int = 12) -> list[str]:
    lines = ["x,y"]
    for pt in points:
        lines.append(
            f"{format_float(pt.x, precision)},{format_float(pt.y, precision)}"
        )
    return lines
