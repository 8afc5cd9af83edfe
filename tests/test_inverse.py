"""Inverse problem: height-2 greedy, general search, 3-partition reduction."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from itertools import combinations_with_replacement, count
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import avpoly
from avpoly.inverse import (
    ExtractionError,
    InstanceValidationError,
    InverseResult,
    PartitionError,
    ThreePartitionInstance,
    build_reduction_tree,
    extract_partition,
    reduction_poly,
    solve_general,
    solve_height2,
)
from avpoly.polyalg import Poly
from avpoly.tree import PlaneTree, avalanche_poly, enumerate_trees, parse_tree
from memory import peak_bytes
from oracles import preorder_labels


def height(t: PlaneTree) -> int:
    best = 0
    stack = [(t, 0)]
    while stack:
        node, d = stack.pop()
        best = max(best, d)
        stack.extend((c, d + 1) for c in node.children)
    return best


def height2_tree(sizes):
    """Canonical height <= 2 tree with root-child subtree sizes `sizes`."""
    return PlaneTree(
        PlaneTree(PlaneTree() for _ in range(s - 1)) for s in sorted(sizes)
    )


def height2_poly(sizes):
    return Poly(
        [(s, 1) for s in sizes] + [(s + 1, s - 1) for s in sizes if s > 1]
    )


# ---------------------------------------------------------------------------
#  solve_height2
# ---------------------------------------------------------------------------


def test_height2_star():
    r = solve_height2(Poly([(1, 3)]))
    assert r.status == "found"
    assert r.trees == ["(()()())"]


def test_height2_single_branch():
    r = solve_height2(Poly([(3, 1), (4, 2)]))
    assert r.status == "found"
    assert r.trees == ["((()()))"]


def test_height2_no_tree():
    r = solve_height2(Poly([(3, 1), (4, 1)]))
    assert r.status == "no_tree"
    assert r.trees == []


def test_height2_leaf_plus_branch():
    poly = Poly([(1, 1), (3, 1), (4, 2)])
    r = solve_height2(poly)
    assert r.status == "found"
    assert label_counts(r.trees[0]) == dict(poly.terms())


def label_counts(enc):
    """Label -> number of non-root vertices with it, read off the encoding
    by the oracle, not by the `avalanche_poly` the solvers check with."""
    return Counter(preorder_labels(enc)[1:])


def test_height2_zero_polynomial_gives_single_vertex():
    r = solve_height2(Poly())
    assert r.status == "found"
    assert r.trees == ["()"]


def test_height2_exponent_zero_impossible():
    assert solve_height2(Poly([(0, 1), (1, 1)])).status == "no_tree"


def test_height2_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        solve_height2(Poly([(1, -1), (2, 3)]))


@pytest.mark.parametrize("pairs", [[(1, -1)], [(1, 3), (2, -1)]])
def test_general_rejects_negative_coefficients(pairs):
    with pytest.raises(ValueError, match="^polynomial must have nonnegative coefficients$"):
        solve_general(Poly(pairs))


def test_height2_leftover_cascade():
    # leftover coefficient at j+1 becomes new root children
    sizes = [2, 3, 3]
    r = solve_height2(height2_poly(sizes))
    assert r.status == "found"
    assert r.trees == [height2_tree(sizes).encode()]


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=7))
def test_height2_roundtrip(sizes):
    t = height2_tree(sizes)
    r = solve_height2(avalanche_poly(t))
    assert r.status == "found"
    assert r.trees == [t.encode()]
    assert height(parse_tree(r.trees[0])) <= 2


@given(st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=6))
def test_height2_decremented_leaf_coefficient_fails(sizes):
    poly = height2_poly(sizes)
    leaf_exp = sizes[0] + 1
    damaged = poly + Poly([(leaf_exp, -1)])
    assert solve_height2(damaged).status == "no_tree"


# ---------------------------------------------------------------------------
#  solve_general
# ---------------------------------------------------------------------------


def test_general_path():
    r = solve_general(Poly([(2, 1), (3, 1)]))
    assert r.status == "found"
    assert r.trees == ["((()))"]


def test_general_no_tree():
    assert solve_general(Poly([(1, 2), (2, 1)])).status == "no_tree"


def test_general_zero_polynomial():
    r = solve_general(Poly())
    assert r.status == "found"
    assert r.trees == ["()"]


def test_general_finds_all_distinct_shapes():
    # 2q: two leaves under the root is the only canonical solution
    r = solve_general(Poly([(1, 2)]))
    assert r.trees == ["(()())"]


def test_general_budget_exhaustion():
    p = reduction_poly(ThreePartitionInstance(n=1, C=26, a=(7, 9, 10), lam=4))
    r = solve_general(p, budget=5)
    assert r.status == "budget_exhausted"


def test_general_completeness_small():
    # every polynomial realized by a tree with <= 8 edges is recovered,
    # and only by trees carrying that exact polynomial; both solvers
    # return encodings, and the height-2 greedy's is a canonical one
    for n in range(9):
        by_poly = {}
        for t in enumerate_trees(n):
            by_poly.setdefault(avalanche_poly(t), set()).add(
                canonical(t).encode()
            )
        for poly, canon_encodings in by_poly.items():
            r = solve_general(poly)
            assert r.status == "found"
            assert r.trees == sorted(canon_encodings)
            greedy = solve_height2(poly).trees
            assert set(greedy) <= canon_encodings
            for enc in r.trees + greedy:
                assert type(enc) is str
                assert label_counts(enc) == dict(poly.terms())


def canonical(t: PlaneTree) -> PlaneTree:
    kids = sorted(
        (canonical(c) for c in t.children), key=lambda c: (c.size, c.encode())
    )
    return PlaneTree(kids)


def test_general_results_are_sorted_and_unique():
    encs = solve_general(Poly([(1, 3), (2, 1), (3, 1)])).trees
    assert encs == sorted(set(encs))


def test_general_attempts_pin_the_budget_boundary():
    reduction = reduction_poly(ThreePartitionInstance(n=1, C=26, a=(7, 9, 10), lam=4))
    for poly in (reduction, Poly([(1, 3), (2, 1), (3, 1)])):
        r = solve_general(poly)
        assert r.status == "found"
        assert r.attempts > 0
        done = solve_general(poly, budget=r.attempts)
        assert (done.status, done.trees, done.attempts) == (r.status, r.trees, r.attempts)
        cut = solve_general(poly, budget=r.attempts - 1)
        assert cut.status == "budget_exhausted"
        assert cut.attempts == r.attempts - 1


@pytest.mark.parametrize(
    "N,attempts", [(10, 234), (14, 1441), (18, 9141), (22, 43966), (26, 221845)]
)
def test_general_pins_the_staircase_no_tree_search(N, attempts):
    # q + q^2 + ... + q^N, a hard no-tree family: the pinned counts are the
    # search's exact work, and its budget cut-off falls exactly there
    poly = Poly([(i, 1) for i in range(1, N + 1)])
    for r in (solve_general(poly), solve_general(poly, budget=attempts)):
        assert r == ("no_tree", [], attempts)
    assert solve_general(poly, budget=attempts - 1) == ("budget_exhausted", [], attempts - 1)


def test_general_wide_fan_in_bounded_memory():
    # 10^4 leaves under the root: every choice point shares the root's list
    # of closed children, so memory grows linearly; a copy of the children's
    # encodings per choice point would hold about 10^8 bytes at the peak
    r, peak = peak_bytes(lambda: solve_general(Poly.from_text("10000*q")))
    assert r.status == "found"
    assert r.trees == ["(" + "()" * 10000 + ")"]
    assert peak < 20 * 10**6


def reference_solve_general(poly: Poly, budget: int):
    """The general search as it was before it ran on encodings: it builds
    a PlaneTree for every candidate child and keys children by
    (size, encode()). Returns (status, sorted encodings)."""

    class Exhausted(Exception):
        pass

    avail = dict(poly.items())
    if avail.get(0):
        return "no_tree", []
    total = sum(avail.values())
    attempts = 0

    def forest(mu, room, lo_key):
        nonlocal attempts
        if room == 0:
            yield ()
            return
        start = lo_key[0] if lo_key else 1
        for s in range(start, room + 1):
            lbl = mu + s
            if not avail.get(lbl):
                continue
            attempts += 1
            if attempts > budget:
                raise Exhausted
            avail[lbl] -= 1
            try:
                for kids in forest(lbl, s - 1, None):
                    child = PlaneTree(kids)
                    key = (s, child.encode())
                    if lo_key and key < lo_key:
                        continue
                    for rest in forest(mu, room - s, key):
                        yield (child,) + rest
            finally:
                avail[lbl] += 1

    solutions = []
    try:
        for kids in forest(0, total, None):
            solutions.append(PlaneTree(kids).encode())
    except Exhausted:
        return "budget_exhausted", sorted(solutions)
    return ("found" if solutions else "no_tree"), sorted(solutions)


# No polynomial of a tree with <= 8 edges has two canonical solutions; the
# first three below are the smallest that do (10 and 11 edges). The next
# two have no tree: each is a tree's polynomial with one unit of its top
# coefficient moved one exponent up. The next two are the deepest and the
# widest tree with 6 edges, the path and the fan. The search meets
# sub-searches it has seen before, and replays or charges them, in all
# but those two; in the second to last, 121 placements with no tree,
# 72 of them are charged in 17 skips of up to 29, so many budgets end
# inside a skip. In the last, a 10-edge tree's polynomial found in 107
# placements, a replayed vertex and its parent close at the same stack
# height, so backtracking below it re-enters both records at once.
ORACLE_POLYS = [
    "2*q^5 + 4*q^6 + 2*q^7 + 2*q^8",
    "q^4 + 2*q^7 + 6*q^8 + q^9 + q^10",
    "q^4 + 2*q^7 + 2*q^8 + 3*q^9 + 3*q^10",
    "3*q + q^2 + q^3",
    "2*q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7",
    "q + q^3 + q^4 + q^5 + q^6 + q^7 + q^8 + q^9",
    "2*q + q^6 + q^7 + 2*q^8 + q^9 + q^10",
    "q^6 + q^11 + q^15 + q^18 + q^20 + q^21",
    "6*q",
    "q^11 + 2*q^12 + q^19 + 3*q^20 + 2*q^21 + q^22 + q^23",
    "2*q + q^8 + q^15 + 2*q^16 + q^19 + q^20 + q^21 + q^22",
]


@pytest.mark.parametrize("text", ORACLE_POLYS)
def test_general_matches_tree_building_reference_at_every_budget(text):
    poly = Poly.from_text(text)
    budget = 0
    while True:
        budget += 1
        expected = reference_solve_general(poly, budget)
        r = solve_general(poly, budget)
        assert (r.status, r.trees) == expected
        if expected[0] != "budget_exhausted":
            break
        assert r.attempts == budget
    assert r.attempts == budget  # the smallest budget the reference completes in


def assert_matches_reference_at_every_budget(poly: Poly):
    """solve_general agrees with the reference on status, trees and
    attempts at every budget from 0 up to the one the reference completes
    in."""
    for budget in count():
        expected = reference_solve_general(poly, budget)
        r = solve_general(poly, budget)
        assert (r.status, r.trees) == expected
        assert r.attempts == budget
        if expected[0] != "budget_exhausted":
            return


def tree_from_parents(parents) -> PlaneTree:
    """The plane tree in which vertex v (1-based) is the last child of
    parents[v - 1] < v so far."""
    kids = [[] for _ in range(len(parents) + 1)]
    for v, p in enumerate(parents, start=1):
        kids[p].append(v)
    built = [None] * len(kids)
    for v in reversed(range(len(kids))):  # children have larger numbers
        built[v] = PlaneTree(built[c] for c in kids[v])
    return built[0]


def moved_up(poly: Poly) -> Poly:
    """One unit of the top coefficient moved one exponent up."""
    pairs = dict(poly.items())
    top = max(pairs)
    pairs[top] -= 1
    pairs[top + 1] = 1
    return Poly(pairs)


small_trees = st.integers(0, 11).flatmap(
    lambda n: st.tuples(*(st.integers(0, v - 1) for v in range(1, n + 1)))
).map(tree_from_parents)
tree_polys = small_trees.map(avalanche_poly)


def fan_poly(leaves, sizes):
    """Root leaves next to root children of subtree size s, each a fan of
    s - 1 leaves: the shape of the reduction's branches."""
    return Poly([(1, leaves)] + [(s, 1) for s in sizes] + [(s + 1, s - 1) for s in sizes])


fan_polys = st.builds(fan_poly, st.integers(0, 6), st.lists(st.integers(2, 8), max_size=3))


@settings(max_examples=60, deadline=None)
@given(st.one_of(tree_polys, tree_polys.filter(bool).map(moved_up), fan_polys))
def test_general_matches_reference_on_generated_polys(poly):
    assert_matches_reference_at_every_budget(poly)


def test_general_undoes_part_of_a_run_of_leaves():
    # Under the vertex labeled 4 (room 3) the search places a run of three
    # leaves labeled 5. The child labeled 6 has subtree size 2 and fits
    # only from slot 2 on, so leaves 2 and 3 are undone in one step while
    # leaf 1 stays. That is a dead end: the one solution keeps all three.
    poly = Poly.from_text("q^3 + q^4 + 4*q^5 + q^6")
    assert_matches_reference_at_every_budget(poly)
    assert solve_general(poly).trees == ["(((()))(()()()))"]


@pytest.mark.parametrize(
    "text,attempts",
    [
        # random trees with one unit of the top coefficient moved up,
        # of 37 and 50 edges
        (
            "q^37 + q^73 + q^75 + q^76 + q^106 + q^138 + q^139 + q^168"
            " + 2*q^169 + q^195 + q^196 + q^199 + q^200 + q^201 + q^202"
            " + q^216 + 2*q^217 + q^218 + 2*q^219 + q^221 + q^222 + q^229"
            " + q^230 + q^234 + 2*q^235 + q^236 + q^237 + 2*q^238 + q^239"
            " + q^242 + q^243 + q^244",
            633511,
        ),
        (
            "3*q + q^2 + q^3 + q^45 + q^89 + q^90 + q^131 + q^132 + q^134"
            " + q^136 + q^137 + q^168 + 2*q^169 + q^170 + 2*q^171 + q^173"
            " + q^174 + q^197 + q^225 + q^252 + 6*q^253 + q^255 + 4*q^256"
            " + 4*q^257 + q^258 + q^259 + q^261 + 2*q^262 + q^267 + q^268"
            " + q^271 + q^274 + q^275 + q^276",
            7868535,
        ),
    ],
    ids=["37-edges", "50-edges"],
)
def test_general_charges_repeats_of_failed_sub_searches(text, attempts):
    # the pinned counts are those of the search that descends into every
    # repeat; charging repeats keeps them while skipping the work
    r = solve_general(Poly.from_text(text))
    assert (r.status, r.trees, r.attempts) == ("no_tree", [], attempts)
    cut = solve_general(Poly.from_text(text), budget=attempts - 1)
    assert (cut.status, cut.attempts) == ("budget_exhausted", attempts - 1)


@pytest.mark.parametrize(
    "text,budget,attempts",
    [
        # polynomials of random trees of 45-55 edges, random.Random("mem:k")
        # for k = 0 and 1; nearly all of their placements are made inside
        # repeats of sub-searches that closed, and searching those repeats
        # took 2.6 and 3.0 s
        (
            "6*q^1 + 2*q^2 + 2*q^3 + q^4 + q^7 + q^9 + q^10 + q^40 + q^47"
            " + 2*q^48 + q^51 + q^52 + q^53 + q^54 + q^72 + q^103 + q^105"
            " + q^106 + q^131 + 2*q^132 + q^156 + q^180 + q^181 + q^182"
            " + q^183 + q^200 + 2*q^201 + 2*q^202 + 3*q^203 + q^205 + q^206"
            " + q^210 + q^219 + q^220 + q^221 + q^222 + q^224 + q^225"
            " + q^227 + q^229 + q^230",
            10**7,
            4889441,
        ),
        (
            "q^55 + q^109 + q^111 + q^112 + q^160 + q^164 + q^165 + q^166"
            " + q^167 + q^206 + 2*q^207 + q^208 + q^209 + q^247 + 4*q^248"
            " + q^249 + q^250 + q^281 + q^314 + q^346 + 3*q^347 + 2*q^360"
            " + q^361 + q^363 + 2*q^364 + q^369 + q^372 + q^373 + 5*q^374"
            " + 2*q^375 + q^376 + q^378 + q^379 + 2*q^380 + q^381 + q^386"
            " + q^391 + q^395 + 3*q^396",
            10**8,
            10553737,
        ),
    ],
    ids=["mem-0", "mem-1"],
)
def test_general_replays_the_closings_of_repeated_sub_searches(text, budget, attempts):
    # the pinned counts are those of the search that descends into every
    # repeat; replaying the recorded closings keeps them
    poly = Poly.from_text(text)
    r = solve_general(poly, budget)
    assert (r.status, len(r.trees), r.attempts) == ("found", 1, attempts)
    assert label_counts(r.trees[0]) == dict(poly.terms())
    cut = solve_general(poly, budget=attempts - 1)
    assert (cut.status, cut.attempts) == ("budget_exhausted", attempts - 1)


def test_general_record_of_failed_sub_searches_is_bounded_by_placements():
    # the path of 2000 edges with its deepest label moved up: each vertex on
    # the way back up fails, and its window holds every label below it, so
    # a record of every failure would hold 2 * 10^6 counts for 1999
    # placements
    path = avalanche_poly(parse_tree("(" * 2001 + ")" * 2001))
    r, peak = peak_bytes(lambda: solve_general(moved_up(path)))
    assert (r.status, r.attempts) == ("no_tree", 1999)
    assert peak < 3 * 10**6


def test_general_records_of_a_path_are_bounded_by_placements():
    # the path of 5000 edges: each vertex closes once, into a parent that
    # is still open, and the record of a closing holds the closed subtree,
    # so recording every closing would hold 1.25 * 10^7 vertices for 5000
    # placements
    path = avalanche_poly(parse_tree("(" * 5001 + ")" * 5001))
    r, peak = peak_bytes(lambda: solve_general(path))
    assert (r.status, r.attempts) == ("found", 5000)
    assert r.trees == ["(" * 5001 + ")" * 5001]
    assert peak < 5 * 10**6


def test_general_places_a_run_of_leaves_in_one_step():
    # 5*10^7 leaves under the root are one run, more than the budget: the
    # search stops before placing it, at the count placing leaves one by
    # one would stop at, and holds no state per leaf
    r, peak = peak_bytes(lambda: solve_general(Poly.from_text("50000000*q"), budget=10**6))
    assert (r.status, r.trees, r.attempts) == ("budget_exhausted", [], 10**6)
    assert peak < 10**6


# ---------------------------------------------------------------------------
#  Reduction
# ---------------------------------------------------------------------------

INST = ThreePartitionInstance(n=1, C=26, a=(7, 9, 10), lam=4)


def test_reduction_poly_example():
    p = reduction_poly(INST)
    assert p == Poly(
        [(105, 1), (133, 1), (134, 27), (141, 1), (142, 35), (145, 1), (146, 39)]
    )


def test_reduction_lambda_default():
    inst = ThreePartitionInstance(n=1, C=26, a=(7, 9, 10))
    assert inst.lam == 4


def test_result_and_instance_constructors():
    a, b = InverseResult("no_tree"), InverseResult(status="no_tree")
    assert a == b and (a.trees, a.attempts) == ([], 0)
    assert a.trees is not b.trees  # each result gets a new list
    assert InverseResult("found", trees=["()"], attempts=3).attempts == 3
    with pytest.raises(AttributeError):
        a.status = "found"
    inst = ThreePartitionInstance(1, 26, [7, 9, 10], 5)
    assert (inst.n, inst.C, inst.a, inst.lam) == (1, 26, (7, 9, 10), 5)


def test_reduction_lambda_one_is_unscaled_form():
    n, C, a = 1, 26, (7, 9, 10)
    expected = Poly(
        [(C + 1, n)]
        + [(C + 1 + ai, 1) for ai in a]
        + [(C + ai + 2, ai - 1) for ai in a]
    )
    assert reduction_poly(ThreePartitionInstance(n=1, C=26, a=a, lam=1)) == expected


def test_reduction_merges_like_terms():
    p = reduction_poly(ThreePartitionInstance(2, 12, (4, 4, 4, 4, 4, 4), 7))
    assert p.coeff(7 * 12 + 1 + 7 * 4) == 6


@pytest.mark.parametrize(
    "inst,needle",
    [
        (dict(n=1, C=26, a=(7, 9, 11)), "sum(a)"),
        (dict(n=1, C=26, a=(6, 10, 10)), "C/4 < a_i < C/2"),
        (dict(n=1, C=26, a=(13, 13)), "3n"),
        (dict(n=1, C=26, a=(7, 9, 10), lam=0), "lambda"),
        (dict(n=0, C=26, a=()), "n must be"),
    ],
)
def test_instance_validation_names_constraint(inst, needle):
    # `inst` holds the constructor's keywords: an instance is checked when made
    with pytest.raises(InstanceValidationError, match=None) as exc:
        ThreePartitionInstance(**inst)
    assert needle in str(exc.value)


# Each constraint alone, then instances that break several: the first
# broken, in the order n, len(a), bounds, sum, lambda, is the one named.
# The messages are those `validate_instance` raised before instances were
# checked when made.
@pytest.mark.parametrize(
    "fields, message",
    [
        ((0, 26, ()), "n must be >= 1"),
        ((-1, 26, (7, 9, 10)), "n must be >= 1"),
        ((1, 26, (13, 13)), "a must contain exactly 3n = 3 values, got 2"),
        ((1, 26, (6, 10, 10)), "a[0] = 6 violates C/4 < a_i < C/2 for C = 26"),
        ((1, 26, (7, 13, 6)), "a[1] = 13 violates C/4 < a_i < C/2 for C = 26"),
        ((1, 26, (7, 9, 11)), "sum(a) = 27 must equal n*C = 26"),
        ((1, 26, (7, 9, 10), 0), "lambda must be >= 1"),
        ((1, 26, (7, 9, 10), -3), "lambda must be >= 1"),
        ((0, 26, (1,), 0), "n must be >= 1"),
        ((1, 26, (1, 2), 0), "a must contain exactly 3n = 3 values, got 2"),
        ((1, 26, (7, 9, 1), 0), "a[2] = 1 violates C/4 < a_i < C/2 for C = 26"),
        ((2, 12, (4, 4, 4, 4, 4, 5), 0), "sum(a) = 25 must equal n*C = 24"),
    ],
)
def test_an_instance_is_checked_when_made(fields, message):
    with pytest.raises(InstanceValidationError) as exc:
        ThreePartitionInstance(*fields)
    assert str(exc.value) == message


def test_an_instance_cannot_be_changed_once_made():
    inst = ThreePartitionInstance(n=1, C=26, a=[7, 9, 10])
    assert inst == (1, 26, (7, 9, 10), 4)
    for field in ("n", "C", "a", "lam"):
        with pytest.raises(AttributeError):
            setattr(inst, field, 5)
    with pytest.raises(AttributeError):
        inst.extra = 1
    # a changed copy is made by the constructor, so it is checked too
    with pytest.raises(InstanceValidationError, match="lambda must be >= 1"):
        inst._replace(lam=0)
    with pytest.raises(InstanceValidationError, match="sum"):
        ThreePartitionInstance._make((1, 26, (7, 9, 11), 4))
    assert inst._replace(lam=2) == (1, 26, (7, 9, 10), 2)
    assert not hasattr(avpoly.inverse, "validate_instance")


def test_build_reduction_tree():
    tree = build_reduction_tree(INST, [[1, 2, 3]])
    assert tree.size == 106
    assert avalanche_poly(tree) == reduction_poly(INST)
    # a root child's label is its subtree size
    assert [c.size for c in tree.children] == [INST.lam * INST.C + 1]
    # height-2 vertices carry lam*a_i - 1 leaves
    leaf_counts = sorted(len(g.children) for g in tree.children[0].children)
    assert leaf_counts == [27, 35, 39]


def test_reduction_tree_shares_one_leaf():
    inst = ThreePartitionInstance(n=2, C=12, a=(4, 4, 4, 4, 4, 4), lam=7)
    tree = build_reduction_tree(inst, [[1, 3, 5], [2, 4, 6]])
    leaves = [leaf for group in tree.children for branch in group.children for leaf in branch.children]
    assert len(leaves) == 6 * (7 * 4 - 1)
    assert len({id(leaf) for leaf in leaves}) == 1


def test_build_rejects_bad_partition():
    with pytest.raises(PartitionError):
        build_reduction_tree(INST, [[1, 2]])
    with pytest.raises(PartitionError):
        build_reduction_tree(INST, [[1, 1, 2]])
    bad = ThreePartitionInstance(n=2, C=12, a=(4, 4, 4, 4, 4, 4), lam=7)
    with pytest.raises(PartitionError):
        # triples of (4,4,4,...) values sum to 12 = C only in the first group
        build_reduction_tree(bad, [[1, 2, 3], [4, 5, 5]])
    with pytest.raises(PartitionError, match=r"^index 4 out of range 1\.\.3$"):
        build_reduction_tree(INST, [[1, 2, 4]])
    with pytest.raises(PartitionError, match="^partition does not cover all 3n indices$"):
        build_reduction_tree(bad, [[1, 2, 3]])


def test_extract_roundtrip():
    tree = build_reduction_tree(INST, [[1, 2, 3]])
    assert extract_partition(tree, INST) == [[1, 2, 3]]


@st.composite
def instances_with_a_partition(draw):
    """A valid instance with n in 1..3 and C in 13..40, built from n
    shuffled triples of values strictly between C/4 and C/2 that sum to
    C; lam in {1, 2, 3n + 1}; and a partition p of its indices into
    those triples."""
    n = draw(st.integers(1, 3))
    C = draw(st.integers(13, 40))
    allowed = [v for v in range(1, C) if 4 * v > C and 2 * v < C]
    pairs = [(x, y) for x in allowed for y in allowed if C - x - y in allowed]
    drawn = draw(st.lists(st.sampled_from(pairs), min_size=n, max_size=n))
    values = [v for x, y in drawn for v in (x, y, C - x - y)]
    order = draw(st.permutations(range(3 * n)))  # index i + 1 holds values[order[i]]
    index = {k: i + 1 for i, k in enumerate(order)}
    p = [[index[k] for k in range(3 * t, 3 * t + 3)] for t in range(n)]
    lam = draw(st.sampled_from([1, 2, 3 * n + 1]))
    return ThreePartitionInstance(n, C, [values[k] for k in order], lam), p


@settings(max_examples=100, deadline=None)
@given(instances_with_a_partition())
def test_extract_inverts_build_on_generated_instances(case):
    # each tree has at most 3 * (10 * 40 + 1) + 1 = 1204 vertices
    inst, p = case
    tree = build_reduction_tree(inst, p)
    # the oracle's labels of the built tree count the terms of the formula
    assert label_counts(tree.encode()) == dict(reduction_poly(inst).terms())
    groups = extract_partition(tree, inst)
    assert sorted(i for g in groups for i in g) == list(range(1, 3 * inst.n + 1))
    for g in groups:
        assert len(g) == 3 and g == sorted(g)
        assert sum(inst.a[i - 1] for i in g) == inst.C
    # the k-th root child carries the values of the k-th triple of p
    assert [sorted(inst.a[i - 1] for i in g) for g in groups] == [
        sorted(inst.a[i - 1] for i in t) for t in p
    ]
    if len(set(inst.a)) == 3 * inst.n:
        assert groups == [sorted(t) for t in p]


def test_extract_with_repeated_values():
    inst = ThreePartitionInstance(n=2, C=12, a=(4, 4, 4, 4, 4, 4), lam=7)
    tree = build_reduction_tree(inst, [[1, 3, 5], [2, 4, 6]])
    groups = extract_partition(tree, inst)
    assert sorted(i for g in groups for i in g) == [1, 2, 3, 4, 5, 6]
    for g in groups:
        assert sum(inst.a[i - 1] for i in g) == inst.C


def test_extract_rejects_wrong_tree():
    with pytest.raises(ExtractionError):
        extract_partition(parse_tree("(()())"), INST)
    # right polynomial mass but wrong shape
    with pytest.raises(ExtractionError):
        extract_partition(PlaneTree(PlaneTree() for _ in range(105)), INST)
    # one root child of lam*C+1 = 105 vertices, whose branches carry only leaves
    for sizes, message in [
        ((103, 1), r"^label 208 is not lam\*C\+1\+lam\*a for any value$"),
        ((28, 28, 48), "^no unused instance value 7 for label 133$"),  # a_1 = 7 taken twice
    ]:
        branches = [PlaneTree([PlaneTree()] * (size - 1)) for size in sizes]
        with pytest.raises(ExtractionError, match=message):
            extract_partition(PlaneTree([PlaneTree(branches)]), INST)


def test_extract_reads_subtree_sizes_without_copying_the_tree():
    # 1,600,002 vertices: labeling a copy of this tree peaked at about
    # 245 MB under tracemalloc; reading `size` allocates almost nothing
    inst = ThreePartitionInstance(n=1, C=400000, a=(100001, 133333, 166666), lam=4)
    tree = build_reduction_tree(inst, [[1, 2, 3]])
    assert tree.size == 1_600_002
    groups, peak = peak_bytes(lambda: extract_partition(tree, inst))
    assert groups == [[1, 2, 3]]
    assert peak < 10 * 2**20


def test_extract_rejects_a_branch_with_a_non_leaf_child():
    # two leaves of one branch become one (()): every subtree size and the
    # branch's label stay those of the reduction tree
    tree = build_reduction_tree(INST, [[1, 2, 3]])
    (group,) = tree.children
    first, *rest = group.children
    bad = PlaneTree(list(first.children[2:]) + [PlaneTree([PlaneTree()])])
    assert bad.size == first.size
    with pytest.raises(ExtractionError, match="children, expected"):
        extract_partition(PlaneTree([PlaneTree([bad, *rest])]), INST)


def test_extract_names_the_root_or_branch_of_the_wrong_shape():
    # n = 2, C = 26 and lam = 7: the root needs 2 children, and the branch
    # of a_1 = 7, labeled 183 + 49 = 232, its 48 leaves
    inst = ThreePartitionInstance(n=2, C=26, a=(7, 9, 10, 7, 9, 10))
    g1, g2 = build_reduction_tree(inst, [[1, 2, 3], [4, 5, 6]]).children
    first, *rest = g1.children
    # two leaves of the branch become one (()), which keeps its size
    bad = PlaneTree(list(first.children[2:]) + [PlaneTree([PlaneTree()])])
    for tree, message in [
        (PlaneTree([g1]), "root has 1 children, expected n = 2"),
        (
            PlaneTree([PlaneTree([bad, *rest]), g2]),
            "vertex labeled 232 has 47 children, expected lam*a-1 = 48 leaves",
        ),
    ]:
        with pytest.raises(ExtractionError, match=f"^{re.escape(message)}$"):
            extract_partition(tree, inst)


def test_extract_rejects_a_root_child_of_the_wrong_size():
    # a branch moved from the first group to the second: n root children,
    # every branch a valid one, but the root children have 57 and 113
    # vertices against lam*C+1 = 85
    inst = ThreePartitionInstance(n=2, C=12, a=(4, 4, 4, 4, 4, 4), lam=7)
    g1, g2 = build_reduction_tree(inst, [[1, 2, 3], [4, 5, 6]]).children
    tree = PlaneTree([PlaneTree(g1.children[1:]), PlaneTree(g1.children[:1] + g2.children)])
    with pytest.raises(ExtractionError, match="root child labeled 57"):
        extract_partition(tree, inst)


def test_general_search_solves_reduction_instance():
    p = reduction_poly(INST)
    r = solve_general(p)
    assert r.status == "found"
    assert len(r.trees) >= 1
    for enc in r.trees:
        assert extract_partition(parse_tree(enc), INST) == [[1, 2, 3]]


def test_general_search_rejects_unsatisfiable_instance():
    # the smallest valid instance with no 3-partition: triples of 4s and a 6
    # sum to 12 or 14, never to C = 13
    p = reduction_poly(ThreePartitionInstance(2, 13, (4, 4, 4, 4, 4, 6)))
    r = solve_general(p)
    assert r.status == "no_tree"


def _three_partitions(values, C):
    """Every split of the sorted `values` into triples of sum C, as a
    sorted tuple of value triples, by brute force."""
    if not values:
        return {()}
    first, rest = values[0], values[1:]
    found = set()
    for j in range(len(rest)):
        for k in range(j + 1, len(rest)):
            if first + rest[j] + rest[k] == C:
                others = rest[:j] + rest[j + 1:k] + rest[k + 1:]
                for split in _three_partitions(others, C):
                    found.add(tuple(sorted(((first, rest[j], rest[k]), *split))))
    return found


@pytest.mark.parametrize("n,top", [(1, 40), (2, 24), (3, 20)])
def test_reduction_has_a_tree_exactly_when_a_partition_exists(n, top):
    # every valid instance with sorted values and C <= top, at lam = 1 and
    # lam = 3n + 1: the search completes, and the trees it finds extract
    # to exactly the partitions the brute force finds, so no partition
    # means no tree
    instances = without = 0
    for C in range(1, top + 1):
        allowed = [v for v in range(1, C) if 4 * v > C and 2 * v < C]
        for a in combinations_with_replacement(allowed, 3 * n):
            if sum(a) != n * C:
                continue
            expected = _three_partitions(a, C)
            instances += 1
            without += not expected
            for lam in (1, 3 * n + 1):
                inst = ThreePartitionInstance(n, C, a, lam)
                r = solve_general(reduction_poly(inst))
                assert r.status == ("found" if expected else "no_tree"), (C, a, lam)
                got = {
                    tuple(sorted(tuple(a[i - 1] for i in g) for g in extract_partition(parse_tree(enc), inst)))
                    for enc in r.trees
                }
                assert got == expected, (C, a, lam)
    assert (instances, without) == {1: (156, 0), 2: (105, 26), 3: (86, 22)}[n]


# ---------------------------------------------------------------------------
#  Self-checks
# ---------------------------------------------------------------------------

SELF_CHECK_SCRIPT = """
import avpoly.inverse as inv
from avpoly.polyalg import Poly

inv.avalanche_poly = lambda tree: Poly([(1, 99)])  # a wrong polynomial for every tree
calls = {
    "solve_height2": lambda: inv.solve_height2(Poly.from_text("q^3 + 2*q^4")),
    "solve_general": lambda: inv.solve_general(Poly.from_text("q^2 + q^3")),
    "build_reduction_tree": lambda: inv.build_reduction_tree(
        inv.ThreePartitionInstance(n=1, C=26, a=(7, 9, 10)), [[1, 2, 3]]
    ),
}
for name, call in calls.items():
    try:
        call()
        print(name, "returned")
    except AssertionError:
        print(name, "raised")
"""


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_height2(Poly.from_text("q^3 + 2*q^4")),
        lambda: solve_general(Poly.from_text("q^2 + q^3")),
        lambda: build_reduction_tree(INST, [[1, 2, 3]]),
    ],
    ids=["solve_height2", "solve_general", "build_reduction_tree"],
)
def test_self_checks_refuse_a_tree_of_the_wrong_polynomial(monkeypatch, call):
    monkeypatch.setattr(avpoly.inverse, "avalanche_poly", lambda tree: Poly([(1, 99)]))
    with pytest.raises(AssertionError, match="^built a tree whose polynomial is not "):
        call()


def test_self_checks_survive_python_O():
    # -O strips assert statements; each solver must still refuse a tree
    # whose polynomial is not the one asked for
    src = os.path.dirname(os.path.dirname(avpoly.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SELF_CHECK_SCRIPT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split("\n") == [
        "solve_height2 raised", "solve_general raised", "build_reduction_tree raised", ""
    ]


def test_the_package_holds_nothing_python_O_changes():
    # -O drops assert statements and sets __debug__ to False; with neither
    # in the package, `python -O -m avpoly` prints what `python -m avpoly` does
    found = []
    for path in sorted(Path(avpoly.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
