"""Exact arithmetic kernel: Catalan numbers, polynomials, series."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from avpoly import polyalg
from avpoly.polyalg import Poly, Series, catalan


def catalan_by_convolution(upto):
    """Independent oracle: C_0 = 1, C_{k+1} = sum_i C_i C_{k-i}."""
    table = [1]
    for k in range(upto):
        table.append(sum(table[i] * table[k - i] for i in range(k + 1)))
    return table


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(12) == 208012  # frozen from the convolution oracle


def test_catalan_against_convolution_oracle():
    oracle = catalan_by_convolution(100)
    assert [catalan(k) for k in range(101)] == oracle


def test_catalan_convolution_identity():
    for k in range(100):
        assert catalan(k + 1) == sum(
            catalan(i) * catalan(k - i) for i in range(k + 1)
        )


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        catalan(-1)


def test_catalan_in_order_calls_rebind_the_memo_log_times(monkeypatch):
    # each extension copies the memo; growing it only to the k asked for
    # copied it once per call, 0..19999 in 3.1 s against 0.17 s for the
    # largest k first
    monkeypatch.setattr(polyalg, "_catalan_table", [1])
    n = 5000
    table, rebinds = polyalg._catalan_table, 0
    values = []
    for k in range(n):
        values.append(catalan(k))
        if polyalg._catalan_table is not table:
            table, rebinds = polyalg._catalan_table, rebinds + 1
    assert rebinds <= n.bit_length()
    assert values[0] == 1
    # C_{k+1} = C_k * 2(2k+1)/(k+2)
    assert all(values[k + 1] * (k + 2) == values[k] * 2 * (2 * k + 1) for k in range(n - 1))


# ---------------------------------------------------------------------------
#  Poly
# ---------------------------------------------------------------------------

polys = st.dictionaries(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=10**6),
    max_size=8,
).map(Poly)


def test_poly_add_examples():
    q = Poly([(1, 1)])
    assert q + q == Poly([(1, 2)])
    a = Poly([(1, 2), (2, 1)])
    b = Poly([(2, 1), (3, 1)])
    assert a + b == Poly([(1, 2), (2, 2), (3, 1)])
    assert a + Poly() == a


def test_poly_moment_examples():
    p = Poly([(1, 2), (2, 1), (3, 1)])
    assert p.moment(0) == 4
    assert p.moment(1) == 7  # 2*1 + 1*2 + 1*3 by hand
    assert p.moment(2) == 15  # 2*1 + 4 + 9 by hand


def test_poly_canonical_equality():
    assert Poly([(2, 1), (1, 3)]) == Poly([(1, 3), (2, 1)])
    assert Poly([(1, 1), (1, -1)]) == Poly()
    assert hash(Poly([(2, 1), (1, 3)])) == hash(Poly([(1, 3), (2, 1)]))
    assert not Poly()
    assert Poly([(0, 1)])


def test_poly_rejects_negative_exponent():
    with pytest.raises(ValueError):
        Poly([(-1, 2)])


def test_poly_text_forms():
    assert Poly().to_text() == "0"
    p = Poly([(1, 5), (2, 2)])
    assert p.to_text() == "5*q^1 + 2*q^2"
    assert Poly([(5, 1), (6, 2)]).to_text() == "q^5 + 2*q^6"
    assert Poly.from_text("5*q^1 + 2*q^2") == p
    assert Poly.from_text("q") == Poly([(1, 1)])
    assert Poly.from_text("3") == Poly([(0, 3)])
    assert Poly.from_text("0") == Poly()
    assert repr(p) == "Poly('5*q^1 + 2*q^2')"
    with pytest.raises(ValueError):
        Poly.from_text("2*")
    with pytest.raises(ValueError):
        Poly.from_text("q^")
    with pytest.raises(ValueError, match=r"^empty term in polynomial 'q \+ \+ q\^2'$"):
        Poly.from_text("q + + q^2")


def test_poly_pairs_form():
    p = Poly([(1, 5), (12, 10**40)])
    pairs = p.to_pairs()
    assert pairs == [[1, "5"], [12, str(10**40)]]
    assert Poly.from_pairs(pairs) == p


@pytest.mark.parametrize("pairs", ["[[1, 2]]", {"1": 2}, None])
def test_poly_from_pairs_rejects_a_non_list(pairs):
    message = f"expected a list of [exponent, coefficient] pairs, got {pairs!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Poly.from_pairs(pairs)


@given(polys)
def test_poly_text_roundtrip(p):
    assert Poly.from_text(p.to_text()) == p
    assert Poly.from_pairs(p.to_pairs()) == p


@given(polys, polys)
def test_poly_add_commutative(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_poly_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


def test_poly_mul_cancels_a_term_inside_one_product():
    # (1 + q)(1 - q): the two q^1 products cancel, and no zero is stored
    product = Poly([(0, 1), (1, 1)]) * Poly([(0, 1), (1, -1)])
    assert product == Poly([(0, 1), (2, -1)])
    assert 1 not in dict(product.items())


def test_poly_times_an_int_is_a_type_error():
    with pytest.raises(TypeError):
        Poly([(1, 2)]) * 3


# small exponents and signed coefficients, so sums and products cancel terms
signed_dicts = st.dictionaries(st.integers(0, 12), st.integers(-3, 3), max_size=8)


@given(signed_dicts, signed_dicts)
def test_poly_arithmetic_matches_a_dict_oracle(a, b):
    total, product = {}, {}
    for e, c in [*a.items(), *b.items()]:
        total[e] = total.get(e, 0) + c
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    assert dict((Poly(a) + Poly(b)).items()) == {e: c for e, c in total.items() if c}
    assert dict((Poly(a) * Poly(b)).items()) == {e: c for e, c in product.items() if c}
    assert not Poly(a) + Poly({e: -c for e, c in a.items()})


@given(polys, polys)
def test_poly_mul_matches_shift_on_monomials(a, b):
    assert a * b == b * a
    # multiplying by q^k adds k to every exponent
    for k in (0, 1, 3):
        assert a * Poly([(k, 1)]) == Poly({e + k: c for e, c in a.items()})


# ---------------------------------------------------------------------------
#  Series
# ---------------------------------------------------------------------------


def series_of(order, *texts):
    return Series(order, [Poly.from_text(t) for t in texts])


def test_series_mul_examples():
    one_plus_t = series_of(2, "1", "1", "0")
    one_minus_t = Series(2, [Poly([(0, 1)]), Poly([(0, -1)]), Poly()])
    assert one_plus_t * one_minus_t == Series(
        2, [Poly([(0, 1)]), Poly(), Poly([(0, -1)])]
    )
    qt = series_of(2, "0", "q", "0")
    assert qt * qt == series_of(2, "0", "0", "q^2")


def test_series_catalan_square():
    # C(t)^2 = (C(t)-1)/t termwise: coefficients C_1, C_2, C_3
    c2 = series_of(2, "1", "1", "2")
    assert c2 * c2 == series_of(2, "1", "2", "5")


def test_series_order_mismatch():
    with pytest.raises(ValueError):
        series_of(2, "1", "1", "2") * series_of(3, "1", "1", "2", "5")


small_series = st.lists(polys, min_size=4, max_size=4).map(lambda cs: Series(3, cs))


@given(small_series, small_series, small_series)
def test_series_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
#  Rationals (fractions.Fraction carries the exact-rational contract)
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=1, max_value=10**30),
)
def test_fraction_string_roundtrip(num, den):
    f = Fraction(num, den)
    assert Fraction(str(f)) == f
    assert f.denominator > 0
