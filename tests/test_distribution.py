"""Distribution polynomials, moments, asymptotics, series identity, curve."""

import functools
import itertools
import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from avpoly import distribution, polyalg
from avpoly.distribution import (
    CurvePoint,
    EnumerationCapExceeded,
    MomentReport,
    curve_csv_lines,
    distribution_by_closed_form,
    distribution_by_enumeration,
    distribution_by_recurrence,
    first_moment_total,
    format_float,
    functional_equation_mismatch,
    mean_exact,
    moment_report,
    normalized_curve,
    recurrence_polys,
    variance_exact,
)
from avpoly.polyalg import Poly, catalan
from avpoly.tree import avalanche_poly, enumerate_trees

A1 = Poly([(1, 1)])
A2 = Poly([(1, 2), (2, 1), (3, 1)])
A3 = Poly([(1, 5), (2, 2), (3, 4), (4, 2), (5, 1), (6, 1)])


# ---------------------------------------------------------------------------
#  The three methods
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "method",
    [distribution_by_enumeration, distribution_by_recurrence, distribution_by_closed_form],
)
def test_small_golden_values(method):
    assert method(1) == A1
    assert method(2) == A2
    assert method(3) == A3


def test_zero_size():
    assert distribution_by_enumeration(0) == Poly()
    assert distribution_by_recurrence(0) == Poly()


def test_cross_equivalence_small():
    for n in range(1, 9):
        a = distribution_by_enumeration(n)
        assert a == distribution_by_recurrence(n)
        assert a == distribution_by_closed_form(n)


def test_packed_enumeration_matches_summed_tree_polys():
    # test-local oracle: the polynomial of every enumerated PlaneTree, summed
    for n in range(10):
        total = Poly()
        for t in enumerate_trees(n):
            total = total + avalanche_poly(t)
        assert distribution_by_enumeration(n) == total


def test_enumeration_cap_refusal():
    with pytest.raises(EnumerationCapExceeded):
        distribution_by_enumeration(14)


def test_closed_coefficient_examples():
    for n in (3, 7, 20):
        closed = distribution_by_closed_form(n)
        assert closed.coeff(1) == catalan(n)
        assert closed.coeff(2) == catalan(n - 1)
    assert distribution_by_closed_form(3).coeff(3) == 4
    # out of range is 0, not an error
    closed = distribution_by_closed_form(5)
    assert closed.coeff(0) == closed.coeff(16) == 0
    with pytest.raises(ValueError):
        distribution_by_closed_form(0)


def closed_formula_by_subsets(n: int) -> dict[int, int]:
    """Reference: the closed formula term by term, one strictly increasing
    sequence p_1 < ... < p_k <= n per nonempty subset of 1..n."""
    coeffs: dict[int, int] = {}
    for k in range(1, n + 1):
        for parts in itertools.combinations(range(1, n + 1), k):
            term = catalan(parts[0] - 1) * catalan(n - parts[-1] + 1)
            for prev, cur in zip(parts, parts[1:]):
                term *= catalan(cur - prev)
            coeffs[sum(parts)] = coeffs.get(sum(parts), 0) + term
    return coeffs


def test_closed_coefficient_matches_subset_sum():
    for n in range(1, 13):
        oracle = closed_formula_by_subsets(n)
        closed = distribution_by_closed_form(n)
        for v in range(-1, n * (n + 1) // 2 + 2):
            assert closed.coeff(v) == oracle.get(v, 0), (n, v)


def test_closed_form_matches_recurrence():
    for n in range(1, 61):
        assert distribution_by_closed_form(n) == distribution_by_recurrence(n), n


@functools.cache
def three_part_oracle(n: int) -> list[Poly]:
    """Reference: the series identity's three-part convolution on dicts,
    A_{p+1} = sum_k C_k C_{p-k} q^{k+1} + C_{p-k} q^{k+1} A_k + C_k A_{p-k}."""
    table: list[dict] = [{}]
    for p in range(n):
        acc: dict[int, int] = {}
        for k in range(p + 1):
            ck, cpk = catalan(k), catalan(p - k)
            acc[k + 1] = acc.get(k + 1, 0) + ck * cpk
            for e, c in table[k].items():
                acc[e + k + 1] = acc.get(e + k + 1, 0) + cpk * c
            for e, c in table[p - k].items():
                acc[e] = acc.get(e, 0) + ck * c
        table.append(acc)
    return [Poly(row) for row in table]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_recurrence_matches_three_part_oracle(first, second):
    # each call builds its table at the field width of its own size
    assert recurrence_polys(first) == three_part_oracle(40)[: first + 1]
    assert distribution_by_recurrence(second) == three_part_oracle(40)[second]
    assert recurrence_polys(second) == three_part_oracle(40)[: second + 1]


def test_recurrence_cache_under_threads():
    # more threads than cores build tables of different sizes at once
    sizes = [5, 40, 17, 33, 2, 40, 25, 11]
    results: list = [None] * len(sizes)

    def work(i, n):
        results[i] = distribution_by_recurrence(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i, n)) for i, n in enumerate(sizes)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [three_part_oracle(40)[n] for n in sizes]


def test_recurrence_rejects_negative_size():
    with pytest.raises(ValueError):
        recurrence_polys(-1)
    with pytest.raises(ValueError):
        distribution_by_recurrence(-1)


def test_record_constructors_and_immutability():
    report = moment_report(2)
    assert report == MomentReport(
        2, Fraction(7, 4), Fraction(11, 16), report.mean_ratio, variance_ratio=report.variance_ratio
    )
    point = CurvePoint(x=0.5, y=1.0)
    assert normalized_curve(2)[0] == point
    for record, attr in ((report, "mean"), (point, "x")):
        with pytest.raises(AttributeError):
            setattr(record, attr, 0)


# ---------------------------------------------------------------------------
#  Invariants of the distribution
# ---------------------------------------------------------------------------


def test_mass_edge_and_degree_invariants():
    polys = recurrence_polys(25)
    for n in range(1, 26):
        a = polys[n]
        assert a.moment(0) == n * catalan(n)
        assert a.coeff(1) == catalan(n)
        if n >= 2:
            assert a.coeff(2) == catalan(n - 1)
        top = n * (n + 1) // 2
        assert a.degree() == top
        assert a.coeff(top) == 1


def test_peak_lower_bound():
    polys = recurrence_polys(16)
    for n in range(10, 17):
        for x in range(1, 5):
            v = x * n - x * (x - 1) // 2
            assert polys[n].coeff(v) >= catalan(n - x), (n, x)


# ---------------------------------------------------------------------------
#  Moments
# ---------------------------------------------------------------------------


def test_first_moment_total_small():
    assert first_moment_total(1) == 1
    assert first_moment_total(2) == 7
    assert first_moment_total(3) == 40


def test_mean_examples():
    assert mean_exact(1) == 1
    assert mean_exact(2) == Fraction(7, 4)
    assert mean_exact(3) == Fraction(8, 3)


def test_variance_examples():
    assert variance_exact(1) == 0
    assert variance_exact(2) == Fraction(11, 16)
    assert variance_exact(3) == Fraction(106, 45)


def test_moments_match_brute_oracle():
    polys = recurrence_polys(25)
    for n in range(1, 26):
        a = polys[n]
        mass = n * catalan(n)
        assert first_moment_total(n) == a.moment(1)
        assert mean_exact(n) == Fraction(a.moment(1), mass)
        second = Fraction(a.moment(2), mass)
        assert variance_exact(n) == second - mean_exact(n) ** 2


def test_moment_report_values():
    r = moment_report(2)
    assert r.mean == Fraction(7, 4)
    assert r.variance == Fraction(11, 16)
    expected = 1.75 / (math.sqrt(math.pi) / 4 * 2**1.5)
    assert abs(r.mean_ratio - expected) < 1e-12
    assert abs(r.mean_ratio - 1.3963) < 5e-4
    assert r.variance_ratio == pytest.approx(11 / 16 / 8)
    with pytest.raises(ValueError):
        moment_report(0)


def test_moment_report_grows_the_catalan_memo_only_to_n(monkeypatch):
    # an extension asked for just past the memo doubles it; `moments` asks
    # for C_n first, so it holds C_0..C_n at the end, as one call would
    monkeypatch.setattr(polyalg, "_catalan_table", [1])
    moment_report(300)
    assert len(polyalg._catalan_table) == 301


def test_moment_report_precision_against_float_path():
    # 50-digit decimal rendering agrees with double arithmetic where the
    # latter is still exact enough
    for n in (5, 30, 100):
        r = moment_report(n)
        m = mean_exact(n)
        crude = (m.numerator / m.denominator) / (math.sqrt(math.pi) / 4 * n**1.5)
        assert abs(r.mean_ratio / crude - 1) < 1e-10


def test_moments_match_taylor_recurrence():
    # T_r[f] = f^(r)(1)/r!. With B_k = C_k + A_k, the recurrence
    # A_m = sum_{k<m} C_{m-k} q^(k+1) B_k gives, at q = 1,
    #   T_r[A_m] = sum_{k<m} C_{m-k} sum_{j<=r} binom(k+1, j) T_{r-j}[B_k],
    # with T_0[B_k] = (k+1) C_k: no polynomial is built and no closed
    # moment formula is used, so it checks those formulas up to n = 300
    size = 300
    cat = [catalan(k) for k in range(size + 1)]
    taylor = [[(k + 1) * cat[k] for k in range(size + 1)], [0] * (size + 1), [0] * (size + 1)]
    shifted = [[0] * (size + 1) for _ in range(3)]  # T_r[q^(k+1) B_k]
    for m in range(size + 1):
        if m:
            assert sum(cat[m - k] * shifted[0][k] for k in range(m)) == m * cat[m]
            for r in (1, 2):
                taylor[r][m] = sum(cat[m - k] * shifted[r][k] for k in range(m))
        for r in range(3):
            shifted[r][m] = sum(math.comb(m + 1, j) * taylor[r - j][m] for j in range(r + 1))
    for n in range(1, size + 1):
        mass = n * cat[n]
        first = taylor[1][n]  # sum_e e a_e
        second = 2 * taylor[2][n] + first  # sum_e e^2 a_e
        assert first_moment_total(n) == first, n
        assert mean_exact(n) == Fraction(first, mass), n
        assert variance_exact(n) == Fraction(second, mass) - Fraction(first, mass) ** 2, n


def test_recurrence_table_moments_match_closed_forms_at_120():
    # the packed recurrence table at the largest benchmarked size against
    # the paper's closed forms: mass n C_n, first moment, variance
    n = 120
    a = distribution_by_recurrence(n)
    mass = n * catalan(n)
    assert a.moment(0) == mass
    assert a.moment(1) == first_moment_total(n)
    assert variance_exact(n) == Fraction(a.moment(2), mass) - Fraction(a.moment(1), mass) ** 2


def test_mean_closed_form_identity():
    # 4^{n-1}(n+2)/(n C_n) - (n+1)^2/(2n) reproduces the mass quotient
    for n in range(1, 30):
        alt = Fraction(4 ** (n - 1) * (n + 2), n * catalan(n)) - Fraction(
            (n + 1) ** 2, 2 * n
        )
        assert mean_exact(n) == alt


# ---------------------------------------------------------------------------
#  Series identity
# ---------------------------------------------------------------------------


def test_functional_equation_holds():
    assert functional_equation_mismatch(1) is None
    assert functional_equation_mismatch(2) is None
    assert functional_equation_mismatch(20) is None
    assert functional_equation_mismatch(12) is None


def test_functional_equation_holds_for_closed_form_and_enumeration():
    # the recurrence is derived from the identity itself; these two are not
    closed = [Poly()] + [distribution_by_closed_form(n) for n in range(1, 19)]
    assert functional_equation_mismatch(18, closed) is None
    enumerated = [distribution_by_enumeration(n) for n in range(11)]
    assert functional_equation_mismatch(10, enumerated) is None


def test_functional_equation_detects_corruption():
    polys = list(recurrence_polys(8))
    polys[2] = polys[2] + Poly([(1, 1)])
    assert functional_equation_mismatch(8, polys) == 2


@pytest.mark.parametrize(
    "corruption",
    [
        Poly([(1, -1)]),
        Poly([(1, -10)]),  # q^1 coefficient C_3 = 5 becomes -5: same magnitude
        Poly([(7, -1)]),  # a negative term above the degree
        Poly([(2, 1 << 4096)]),  # far wider than bitlen(n C_n)
    ],
)
def test_functional_equation_detects_signed_and_wide_corruption(corruption):
    polys = list(recurrence_polys(8))
    polys[3] = polys[3] + corruption
    assert functional_equation_mismatch(8, polys) == 3


def test_functional_equation_detects_carry_aliased_corruption():
    # +2^w at q^2 and -1 at q^3 pack to an unchanged int when fields are
    # w bits wide; the check must see the change at every byte width
    base = list(recurrence_polys(8))
    for w in range(8, 520, 8):
        polys = list(base)
        polys[3] = polys[3] + Poly([(2, 1 << w), (3, -1)])
        assert functional_equation_mismatch(8, polys) == 3, w


def test_packed_series_check_matches_the_polynomial_override():
    # re-strided table rows, at the table's width and wider, must equal the
    # polynomials packed at that width, and both check paths must agree
    polys = recurrence_polys(40)
    for k in range(1, 41):
        width, rows = distribution._recurrence_rows(k)
        rows = list(rows)
        for new_width in (width, width + 3):
            assert [distribution._restride(row, width, new_width, j + 2) for j, row in enumerate(rows)] == [
                distribution._pack(poly, new_width) for poly in polys[: k + 1]
            ], (k, new_width)
        assert functional_equation_mismatch(k) == functional_equation_mismatch(k, polys) is None


def _add_one(row, w, pos):
    return row + (1 << pos)


def _set_all_ones(row, w, pos):
    field = (row >> pos) & ((1 << w) - 1)
    return row + ((((1 << w) - 1) - field) << pos)


def _move_one_up(row, w, pos):
    # keeps the row's coefficient sum: the identity at q = 1 still holds
    assert (row >> pos) & ((1 << w) - 1) >= 1
    return row - (1 << pos) + (1 << (pos + w))


@pytest.mark.parametrize("corrupt", [_add_one, _set_all_ones, _move_one_up])
@pytest.mark.parametrize("row, e", [(1, 1), (5, 1), (5, 15), (12, 40), (12, 78), (16, 136)])
def test_packed_series_check_detects_a_corrupted_table_row(monkeypatch, corrupt, row, e):
    # corrupt [q^e] A_row in the packed table the default path reads
    real = distribution._recurrence_rows

    def corrupted(n):
        width, rows = real(n)
        rows = list(rows)
        w = 8 * width
        rows[row] = corrupt(rows[row], w, w * (row + 1 + e))  # D_k holds A_k[e] in field k+1+e
        return width, rows

    monkeypatch.setattr(distribution, "_recurrence_rows", corrupted)
    width, rows = corrupted(16)
    unpacked = [distribution._unpack(r, width, k + 2) for k, r in enumerate(rows)]
    assert functional_equation_mismatch(16, unpacked) == row
    assert functional_equation_mismatch(16) == row


def test_packed_series_check_reads_coefficients_not_the_packed_value(monkeypatch):
    # a table with one-byte fields whose rows hold each true A_k evaluated
    # at q = 2^8, carries included, and the low byte of C_k: the identity
    # holds at q = 2^8, so a check run at the table's own width passes,
    # but from k = 7 (C_7 = 429) coefficients above 255 have carried into
    # the next field, and the re-strided rows show it
    polys = recurrence_polys(16)
    rows = [
        (catalan(k) % 256 + sum(c << (8 * e) for e, c in poly.items())) << (8 * (k + 1))
        for k, poly in enumerate(polys)
    ]
    first_bad = next(k for k, row in enumerate(rows) if distribution._unpack(row, 1, k + 2) != polys[k])
    assert first_bad == 7
    monkeypatch.setattr(distribution, "_recurrence_rows", lambda n: (1, rows[: n + 1]))
    assert functional_equation_mismatch(16) == 7


def test_functional_equation_rejects_short_override():
    with pytest.raises(ValueError):
        functional_equation_mismatch(8, recurrence_polys(5))


def test_functional_equation_rejects_bad_order():
    with pytest.raises(ValueError):
        functional_equation_mismatch(0)


# ---------------------------------------------------------------------------
#  Renormalized curve
# ---------------------------------------------------------------------------


def test_curve_n2():
    pts = normalized_curve(2)
    assert [(p.x, p.y) for p in pts] == [(0.5, 1.0), (1.0, 0.5), (1.5, 0.5)]


def test_curve_first_point_is_peak():
    for n in (1, 3, 10, 25):
        pts = normalized_curve(n)
        assert pts[0].x == 1 / n
        assert pts[0].y == 1.0
        assert all(p.y <= 1.0 for p in pts)
        assert all(p1.x < p2.x for p1, p2 in zip(pts, pts[1:]))
        assert pts[-1].x == (n + 1) / 2


def test_curve_points_equal_the_exact_quotient_rounded(monkeypatch):
    # y = p_i / C_n by int true division must equal the correctly rounded
    # Fraction at every point; one table serves every n to keep this fast
    table = recurrence_polys(100)
    monkeypatch.setattr(
        distribution, "distribution_by_recurrence",
        lambda n: table[n],
    )
    for n in range(1, 101):
        cn = catalan(n)
        expected = [(i / n, float(Fraction(c, cn))) for i, c in table[n].terms()]
        assert [(p.x, p.y) for p in normalized_curve(n)] == expected, n


def test_curve_csv_lines():
    lines = curve_csv_lines(normalized_curve(2))
    assert lines == ["x,y", "0.5,1.0", "1.0,0.5", "1.5,0.5"]


def test_format_float():
    assert format_float(1.0, 12) == "1.0"
    assert format_float(0.5, 12) == "0.5"
    assert format_float(2 / 3, 5) == "0.66667"
    assert format_float(1.23e-7, 6) == "1.23e-07"


# the least positive double, the largest subnormal (767 significant
# digits), the largest double and two common values
@pytest.mark.parametrize(
    "v", [5e-324, sys.float_info.min - 5e-324, sys.float_info.max, 0.1, 1 / 3]
)
def test_format_float_above_the_digits_of_a_double_prints_the_same(v):
    assert f"{v:.767g}" == f"{v:.{10**5}g}"
    assert format_float(v, 767) == format_float(v, 10**5)
