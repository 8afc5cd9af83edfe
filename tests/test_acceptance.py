"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

from avpoly.distribution import (
    distribution_by_closed_form,
    distribution_by_enumeration,
    distribution_by_recurrence,
    functional_equation_mismatch,
    mean_exact,
    moment_report,
    recurrence_polys,
    variance_exact,
)
from avpoly.inverse import (
    ThreePartitionInstance,
    build_reduction_tree,
    extract_partition,
    reduction_poly,
    scaled_reduction_poly,
    solve_general,
    solve_height2,
)
from avpoly.polyalg import Poly, catalan
from avpoly.tree import PlaneTree, avalanche_poly, parse_tree

FIG1 = "((((()))())((())(())(())())((())()()()))"
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def report(num: int, ok: bool, started: float, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status}  ({time.time() - started:.1f}s)  {detail}")
    return ok


def test_criterion_1_golden_values():
    t0 = time.time()
    fig1 = avalanche_poly(parse_tree(FIG1)) == Poly(
        [(5, 1), (6, 2), (7, 3), (8, 3), (9, 2), (10, 4), (11, 4)]
    )
    rows = recurrence_polys(3)
    table = (
        rows[1] == Poly([(1, 1)])
        and rows[2] == Poly([(1, 2), (2, 1), (3, 1)])
        and rows[3] == Poly([(1, 5), (2, 2), (3, 4), (4, 2), (5, 1), (6, 1)])
    )
    ok = fig1 and table and (time.time() - t0) < 1.0
    assert report(1, ok, t0, "golden polynomial values")


def test_criterion_2_method_triple_equivalence():
    t0 = time.time()
    ok = True
    for n in range(14):  # up to the enumeration cap, where W is tightest
        enum = distribution_by_enumeration(n)
        ok = ok and enum == distribution_by_recurrence(n) == distribution_by_closed_form(n)
    assert report(2, ok, t0, "three methods agree exactly for n <= 13")


def test_criterion_3_edge_coefficients():
    t0 = time.time()
    polys = recurrence_polys(40)
    ok = True
    for n in range(2, 41):
        closed = distribution_by_closed_form(n)
        ok = ok and polys[n].coeff(1) == catalan(n) == closed.coeff(1)
        ok = ok and polys[n].coeff(2) == catalan(n - 1) == closed.coeff(2)
    assert report(3, ok, t0, "[q]A_n = C_n and [q^2]A_n = C_{n-1} for n <= 40")


def test_criterion_4_moments_vs_oracle():
    t0 = time.time()
    polys = recurrence_polys(40)
    ok = (
        variance_exact(1) == 0
        and variance_exact(2) == Fraction(11, 16)
        and variance_exact(3) == Fraction(106, 45)
    )
    for n in range(1, 41):
        a = polys[n]
        mass = n * catalan(n)
        mean = Fraction(a.moment(1), mass)
        var = Fraction(a.moment(2), mass) - mean * mean
        ok = ok and mean_exact(n) == mean and variance_exact(n) == var
    assert report(4, ok, t0, "closed moments equal brute moments for n <= 40")


def test_criterion_5_mean_asymptotics():
    t0 = time.time()
    ratio = moment_report(2000).mean_ratio
    ok = 0.95 <= ratio <= 1.05
    assert report(5, ok, t0, f"mean ratio at n=2000: {ratio:.6f} in [0.95, 1.05]")


def test_criterion_6_variance_asymptotics():
    t0 = time.time()
    ratio = moment_report(2000).variance_ratio
    with localcontext() as ctx:
        ctx.prec = 50
        limit = float(Decimal(4) / Decimal(15) - PI / 16)
    ok = abs(ratio / limit - 1) <= 0.05
    assert report(
        6, ok, t0, f"variance ratio at n=2000: {ratio:.6f} vs limit {limit:.6f}"
    )


def test_criterion_7_functional_equation():
    t0 = time.time()
    ok = functional_equation_mismatch(25) is None
    assert report(7, ok, t0, "series identity holds exactly to order 25")


def test_criterion_8_height2_property():
    t0 = time.time()
    rng = random.Random(20260809)
    ok = True
    for _ in range(10_000):
        k = rng.randint(1, 7)
        sizes = [rng.randint(2, 12)] + [rng.randint(1, 12) for _ in range(k - 1)]
        tree = PlaneTree(
            PlaneTree(PlaneTree() for _ in range(s - 1)) for s in sorted(sizes)
        )
        poly = avalanche_poly(tree)
        r = solve_height2(poly)
        ok = ok and r.status == "found" and r.trees == [tree.encode()]
        # decrement one leaf-level coefficient: never realizable
        s = rng.choice([s for s in sizes if s > 1])
        damaged = poly + Poly([(s + 1, -1)])
        ok = ok and solve_height2(damaged).status == "no_tree"
        if not ok:
            break
    assert report(8, ok, t0, "10^4 random height-2 round-trips plus NO cases")


def test_criterion_9_reduction():
    t0 = time.time()
    inst = ThreePartitionInstance(n=1, C=26, a=(7, 9, 10), lam=4)
    tree = build_reduction_tree(inst, [[1, 2, 3]])
    ok = extract_partition(tree, inst) == [[1, 2, 3]]

    found = solve_general(reduction_poly(inst))
    ok = ok and found.status == "found" and len(found.trees) >= 1
    for enc in found.trees:
        groups = extract_partition(parse_tree(enc), inst)
        ok = ok and all(sum(inst.a[i - 1] for i in g) == inst.C for g in groups)

    # sum(a) != n*C here, so the polynomial comes straight from the formula
    unsat = solve_general(scaled_reduction_poly(2, 12, (4, 4, 4, 5, 5, 5), 7))
    ok = ok and unsat.status == "no_tree"
    assert report(9, ok, t0, "build/extract round-trip, search, unsatisfiable NO")


def test_criterion_10_peak_bound():
    t0 = time.time()
    n = 60
    a = recurrence_polys(n)[n]
    ok = True
    for x in (1, 2, 3, 4):
        v = x * n - x * (x - 1) // 2
        ok = ok and a.coeff(v) >= catalan(n - x)
    assert report(10, ok, t0, "peak coefficients of A_60 at x = 1..4")
