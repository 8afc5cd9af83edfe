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
  Row k is stored shifted, as q^(k+1) (C_k + A_k), the form in which
  every later row uses it, so each row is shifted once.
* The series check compares two packed sides. Polynomials it is given,
  which may have any signs and sizes, are packed with W one bit wider
  than a bound on every field of the difference: a packed int with
  fields of absolute value below 2^(W-1) is zero only if every field is,
  so the test is exact. By default it reads the table's rows instead,
  moved to fields that start at q^1, at the table's W or wider if that
  cannot hold order C_order; why no bound on the rows' fields is needed
  there is in `functional_equation_mismatch`.
* The enumeration folds each tree's own polynomial up from its subtrees,
  P_T = sum over the root's children c of q^|c| (1 + P_c), with the
  recurrence's W for size n. Field e of P_T counts the non-root
  vertices of T labeled e, at most n of them. Every value the fold
  forms is a part of P_T shifted down by the label of the vertex it
  belongs to, and all terms are nonnegative, so its fields are at most
  n too. The sum over the C_n trees has every field at most n C_n, so
  no carry crosses a field.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from operator import itemgetter

from .polyalg import Poly, catalan
from .tree import enumerate_trees

__all__ = [
    "MomentReport",
    "CurvePoint",
    "EnumerationCapExceeded",
    "DEFAULT_ENUM_CAP",
    "distribution_by_enumeration",
    "distribution_by_recurrence",
    "distribution_by_closed_form",
    "recurrence_polys",
    "first_moment_total",
    "mean_exact",
    "variance_exact",
    "moment_report",
    "functional_equation_mismatch",
    "normalized_curve",
    "curve_csv_lines",
]

# Measured on a 2-vCPU x86 VM (Python 3.11): `dist --n 13 --method enum`
# takes 1.7-1.8 s and 15 MB peak RSS; n = 12 takes 0.4-0.6 s.
DEFAULT_ENUM_CAP = 13

# sqrt(pi) for ratio rendering, as text: `decimal` and `fractions` are
# imported inside the moment functions, so other commands do not load them
SQRT_PI = "1.77245385090551602729816748334114518279754945612238712821381"

_RATIO_PRECISION = 50


class EnumerationCapExceeded(ValueError):
    """Raised when a request would enumerate more trees than the cap allows."""


# Exact moments (Fractions) and their asymptotic ratios (floats), immutable:
# mean_ratio = mean / ((sqrt(pi)/4) n^{3/2}) and variance_ratio = variance / n^3.
MomentReport = namedtuple("MomentReport", "n mean variance mean_ratio variance_ratio")

# One curve point (i/n, p_i/C_n), immutable.
CurvePoint = namedtuple("CurvePoint", "x y")


# ---------------------------------------------------------------------------
#  The distribution, three ways
# ---------------------------------------------------------------------------


def _field_bytes(n: int) -> int:
    """Bytes per packed field for sizes up to n: the least multiple of 8
    bits that is at least bitlen(n C_n) + 1 (see the module docstring)."""
    return (n * catalan(n)).bit_length() // 8 + 1


def distribution_by_enumeration(n: int) -> Poly:
    """Sum the avalanche polynomial over every tree with n edges, each
    labeled by its subtree sizes as `enumerate_trees` builds it, packed
    (see the module docstring); n above DEFAULT_ENUM_CAP raises
    EnumerationCapExceeded."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > DEFAULT_ENUM_CAP:
        # refuse before computing anything: C_n alone takes seconds and
        # gigabytes for n in the hundreds of thousands
        raise EnumerationCapExceeded(f"n={n} exceeds the enumeration cap {DEFAULT_ENUM_CAP}")
    width = _field_bytes(n)
    w = 8 * width

    def add(acc, child):  # a closed child c adds q^|c| (1 + P_c)
        size, p = child
        return acc[0] + size, acc[1] + ((1 + p) << (w * size))

    # each tree's fold is (vertex count, packed P_T); see the module docstring
    total = sum(enumerate_trees(n, ((1, 0), add, itemgetter(1))))
    return _unpack(total, width, 1)


def _recurrence_rows(n: int) -> tuple[int, Iterator[int]]:
    """Field width W/8 and an iterator over the packed rows D_0..D_n
    (format in `recurrence_polys`). Since C(t)(1 - t C(t)) = 1, the
    series identity reduces to the single sum

        A_m = q sum_{k<m} C_{m-k} q^k (C_k + A_k) = sum_{k<m} C_{m-k} D_k,

    one small-by-big multiply and add per k, pushed into the pending sum
    of row m as soon as D_k is made, so no finished row is kept. The
    finished row C_m + A_m is shifted once, into D_m.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    width = _field_bytes(n)
    return width, _push_rows(n, 8 * width)


def _push_rows(n: int, w: int) -> Iterator[int]:
    cat = [catalan(k) for k in range(n + 1)]
    pending = [0] * (n + 1)  # pending[m] = sum of C_{m-k} D_k over the rows k made
    for m in range(n + 1):
        row = (pending[m] + cat[m]) << (w * (m + 1))
        pending[m] = 0
        for j in range(1, n - m + 1):
            pending[m + j] += cat[j] * row
        yield row


def _unpack(row: int, width: int, skip: int) -> Poly:
    """The polynomial whose q^e coefficient is field e + skip - 1 of `row`:
    one `to_bytes`, one slice per field, the low `skip` fields dropped.
    For recurrence row k, skip = k + 2 drops the empty fields and C_k."""
    fields = -(-row.bit_length() // (8 * width))
    data = row.to_bytes(fields * width, "little")
    return Poly(
        (e - skip + 1, int.from_bytes(data[e * width:(e + 1) * width], "little"))
        for e in range(skip, fields)
    )


def recurrence_polys(n: int) -> list[Poly]:
    """Distribution polynomials for sizes 0..n via the convolution
    recurrence, unpacked from a table of packed rows. Nothing is kept
    between calls and each call builds the whole table, which holds
    every size up to n; a caller that needs many sizes calls
    `recurrence_polys(N)` once for the largest N, not once per size.

    Row k is D_k = q^(k+1) B_k packed, the int sum_e B_k[e] 2^(W (e+k+1))
    with B_k = C_k + A_k: A_k has no constant term, so fields 0..k are
    empty, field k+1 holds C_k and fields k+2.. hold A_k. It is stored
    shifted because every later row adds C_{m-k} D_k. W is a multiple of
    8 and at least bitlen(n C_n) + 1. Fields are nonnegative, and each of
    them, like every partial sum the recurrence forms in it, is at most
    n C_n: no carry crosses a field. `functional_equation_mismatch` reads
    the same rows without unpacking them.
    """
    width, rows = _recurrence_rows(n)
    return [_unpack(row, width, k + 2) for k, row in enumerate(rows)]


def distribution_by_recurrence(n: int) -> Poly:
    """The size-n polynomial from the packed rows; keeps and unpacks row n only."""
    width, rows = _recurrence_rows(n)
    for row in rows:
        pass
    return _unpack(row, width, n + 2)


def distribution_by_closed_form(n: int) -> Poly:
    """The size-n polynomial by the closed formula: the sum over strictly
    increasing sequences p_1 < ... < p_k <= n of

        q^(p_1 + ... + p_k) C_{p_1-1} prod_{i>1} C_{p_i - p_{i-1}} C_{n-p_k+1},

    with the terms grouped by their last part. F_p, the sum of
    q^(sum) C_{p_1-1} prod C_{p_i - p_{i-1}} over the sequences ending at
    p, does not depend on n and satisfies

        F_p = q^p (C_{p-1} + sum_{l<p} C_{p-l} F_l),
        A_n = sum_{p=1..n} C_{n-p+1} F_p.

    g[p] holds the dense coefficients of F_p / q^p, of degree p(p-1)/2.
    That is O(n^2) scaled additions of coefficient lists, O(n^4) integer
    operations. F_p is the recurrence's row D_{p-1} (ROADMAP direction 5)
    on dense lists instead of packed ints, so agreeing with the
    recurrence checks the packing, not the mathematics.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
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
    return Poly(enumerate(total))


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
    from fractions import Fraction

    if n < 1:
        raise ValueError("n must be >= 1")
    # C_n before C_{n-1}: asked for next, C_n would double the memo
    cn = catalan(n)
    return Fraction(first_moment_total(n), n * cn)


def variance_exact(n: int) -> Fraction:
    """Exact variance from the closed form.

    The printed source form carries a duplicated -1/(2n) term; with both
    copies the n=2 value disagrees with the brute-force second moment
    (7/16 vs 11/16), so a single -1/(2n) is used here. The test suite
    pins this choice against the enumeration oracle.
    """
    from fractions import Fraction

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
    from decimal import Decimal, localcontext

    if n < 1:
        raise ValueError("n must be >= 1")
    mean = mean_exact(n)
    variance = variance_exact(n)
    with localcontext() as ctx:
        ctx.prec = _RATIO_PRECISION
        mean_dec = Decimal(mean.numerator) / Decimal(mean.denominator)
        scale = Decimal(SQRT_PI) / 4 * Decimal(n**3).sqrt()
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


def _restride(row: int, width: int, new_width: int, skip: int) -> int:
    """The fields of `row` >= 0 (`width` bytes each) from field `skip` on,
    moved to fields 1, 2, ... of `new_width` >= `width` bytes: the
    exponents `_unpack` gives them. At a new width, through the polynomial
    `_unpack` reads: the recurrence table already has the check's width,
    so only a narrower table passed in its place comes this way."""
    if new_width == width:
        return (row >> (8 * width * skip)) << (8 * width)
    return _pack(_unpack(row, width, skip), new_width)


def functional_equation_mismatch(order: int, polys=None) -> int | None:
    """First t-order where the radical-free series identity

        A(t,q) (1 - t C(t)) = q t C(t) (C(qt) + A(qt, q))

    fails, or None if it holds through `order`. `polys` overrides the
    distribution polynomials (for sensitivity checks).

    Order p of the identity, with the A-term moved right, reads
    A_p = sum_{j<p} C_{p-1-j} (q^(j+1) (C_j + A_j) + A_j): the three-part
    sum, not the single sum the recurrence is built from. Both sides are
    compared as packed ints, so that the test is exact for any input:

    * `polys` are packed at a width that comes from their absolute
      coefficient sums, which bounds every field of both sides.
    * By default the A_k are read from the recurrence table's packed
      rows with no polynomial built: each row is moved to fields that
      start at q^1 (`_restride`) and released. Fields are W bits wide,
      W the table's width or wider if 2^W <= order C_order, so the rows'
      fields are nonnegative and below 2^W. At the first order p whose
      row is not the true A_p, every earlier row is, so the right side
      is the true A_p packed, with fields at most p C_p < 2^W; two packed
      ints with all fields in [0, 2^W) are equal only if every field is.
      So the check finds p with no bound on the table's fields. The
      table's width alone would not do: a table too narrow for its
      coefficients, whose rows are the true A_k evaluated at q = 2^W
      with carries, satisfies the identity at q = 2^W."""
    if order < 1:
        raise ValueError("order must be >= 1")
    cat = [catalan(k) for k in range(order + 1)]
    if polys is None:
        table_width, rows = _recurrence_rows(order)
        width = max(table_width, _field_bytes(order))
        a = (_restride(row, table_width, width, k + 2) for k, row in enumerate(rows))
    else:
        polys = polys[: order + 1]
        if len(polys) != order + 1:
            raise ValueError(f"order {order} needs {order + 1} polynomials, got {len(polys)}")
        mass = [sum(abs(c) for _, c in poly.items()) for poly in polys]
        bound = max(
            mass[p] + sum(cat[p - 1 - j] * (cat[j] + 2 * mass[j]) for j in range(p))
            for p in range(order + 1)
        )
        width = bound.bit_length() // 8 + 1
        a = [_pack(poly, width) for poly in polys]
    w = 8 * width
    # order p reads A_p and the terms of the rows before it, so each A_j is
    # kept only as its term q^(j+1) (C_j + A_j) + A_j
    terms = []
    for p, a_p in enumerate(a):
        if a_p != sum(cat[p - 1 - j] * term for j, term in enumerate(terms)):
            return p
        terms.append(((cat[p] + a_p) << (w * (p + 1))) + a_p)
    return None


# ---------------------------------------------------------------------------
#  Renormalized curve
# ---------------------------------------------------------------------------


def normalized_curve(n: int) -> list[CurvePoint]:
    """Points (i/n, p_i/C_n), one per nonzero coefficient, x ascending;
    y = 1 at i = 1 since p_1 = C_n. Int true division rounds the exact
    quotient correctly, as float(Fraction(p_i, C_n)) does."""
    if n < 1:
        raise ValueError("n must be >= 1")
    poly = distribution_by_recurrence(n)
    cn = catalan(n)
    return [CurvePoint(i / n, c / cn) for i, c in poly.terms()]


# No double has more significant digits (the largest subnormal has 767);
# "g" prints the same text at any higher precision, after a buffer that big
MAX_DOUBLE_DIGITS = 767


def format_float(v: float, precision: int) -> str:
    """Decimal text with `precision` significant digits, always keeping
    a decimal point (gnuplot- and spreadsheet-friendly)."""
    s = f"{v:.{min(precision, MAX_DOUBLE_DIGITS)}g}"
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
