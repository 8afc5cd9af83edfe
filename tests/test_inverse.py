"""Inverse problem: height-2 greedy, general search, 3-partition reduction."""

import pytest
from hypothesis import given, strategies as st

from avpoly.inverse import (
    ExtractionError,
    InstanceValidationError,
    InverseResult,
    PartitionError,
    ThreePartitionInstance,
    build_reduction_tree,
    extract_partition,
    reduction_poly,
    scaled_reduction_poly,
    solve_general,
    solve_height2,
    validate_instance,
)
from avpoly.polyalg import Poly
from avpoly.tree import PlaneTree, avalanche_poly, enumerate_trees, parse_tree


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
    assert r.trees[0].encode() == "(()()())"


def test_height2_single_branch():
    r = solve_height2(Poly([(3, 1), (4, 2)]))
    assert r.status == "found"
    assert r.trees[0].encode() == "((()()))"


def test_height2_no_tree():
    r = solve_height2(Poly([(3, 1), (4, 1)]))
    assert r.status == "no_tree"
    assert r.trees == []


def test_height2_leaf_plus_branch():
    r = solve_height2(Poly([(1, 1), (3, 1), (4, 2)]))
    assert r.status == "found"
    t = r.trees[0]
    assert sorted(label_multiset(t)) == [1, 3, 4, 4]


def label_multiset(t):
    out = []
    for e, c in avalanche_poly(t).terms():
        out.extend([e] * c)
    return out


def test_height2_zero_polynomial_gives_single_vertex():
    r = solve_height2(Poly())
    assert r.status == "found"
    assert r.trees[0].encode() == "()"


def test_height2_exponent_zero_impossible():
    assert solve_height2(Poly([(0, 1), (1, 1)])).status == "no_tree"


def test_height2_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        solve_height2(Poly([(1, -1), (2, 3)]))


def test_height2_leftover_cascade():
    # leftover coefficient at j+1 becomes new root children
    sizes = [2, 3, 3]
    r = solve_height2(height2_poly(sizes))
    assert r.status == "found"
    assert r.trees[0] == height2_tree(sizes)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=7))
def test_height2_roundtrip(sizes):
    t = height2_tree(sizes)
    r = solve_height2(avalanche_poly(t))
    assert r.status == "found"
    assert r.trees[0].encode() == t.encode()
    assert height(r.trees[0]) <= 2


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
    assert [t.encode() for t in r.trees] == ["((()))"]


def test_general_no_tree():
    assert solve_general(Poly([(1, 2), (2, 1)])).status == "no_tree"


def test_general_zero_polynomial():
    r = solve_general(Poly())
    assert r.status == "found"
    assert r.trees[0].encode() == "()"


def test_general_finds_all_distinct_shapes():
    # 2q: two leaves under the root is the only canonical solution
    r = solve_general(Poly([(1, 2)]))
    assert [t.encode() for t in r.trees] == ["(()())"]


def test_general_budget_exhaustion():
    p = reduction_poly(ThreePartitionInstance(n=1, C=26, a=(7, 9, 10), lam=4))
    r = solve_general(p, budget=5)
    assert r.status == "budget_exhausted"


def test_general_completeness_small():
    # every polynomial realized by a tree with <= 8 edges is recovered,
    # and only by trees carrying that exact polynomial
    for n in range(9):
        by_poly = {}
        for t in enumerate_trees(n):
            by_poly.setdefault(avalanche_poly(t), set()).add(
                canonical(t).encode()
            )
        for poly, canon_encodings in by_poly.items():
            r = solve_general(poly)
            assert r.status == "found"
            found = {t.encode() for t in r.trees}
            assert found == canon_encodings
            for t in r.trees:
                assert avalanche_poly(t) == poly


def canonical(t: PlaneTree) -> PlaneTree:
    kids = sorted(
        (canonical(c) for c in t.children), key=lambda c: (c.size, c.encode())
    )
    return PlaneTree(kids)


def test_general_results_are_sorted_and_unique():
    seen = solve_general(Poly([(1, 3), (2, 1), (3, 1)])).trees
    encs = [t.encode() for t in seen]
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
# first three below are the smallest that do (10 and 11 edges). The last
# two have no tree: each is a tree's polynomial with one unit of its top
# coefficient moved one exponent up.
ORACLE_POLYS = [
    "2*q^5 + 4*q^6 + 2*q^7 + 2*q^8",
    "q^4 + 2*q^7 + 6*q^8 + q^9 + q^10",
    "q^4 + 2*q^7 + 2*q^8 + 3*q^9 + 3*q^10",
    "3*q + q^2 + q^3",
    "2*q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7",
    "q + q^3 + q^4 + q^5 + q^6 + q^7 + q^8 + q^9",
    "2*q + q^6 + q^7 + 2*q^8 + q^9 + q^10",
]


@pytest.mark.parametrize("text", ORACLE_POLYS)
def test_general_matches_tree_building_reference_at_every_budget(text):
    poly = Poly.from_text(text)
    budget = 0
    while True:
        budget += 1
        expected = reference_solve_general(poly, budget)
        r = solve_general(poly, budget)
        assert (r.status, [t.encode() for t in r.trees]) == expected
        if expected[0] != "budget_exhausted":
            break
        assert r.attempts == budget
    assert r.attempts == budget  # the smallest budget the reference completes in


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
    assert InverseResult("found", trees=[PlaneTree()], attempts=3).attempts == 3
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
    assert scaled_reduction_poly(n, C, a, 1) == expected
    assert reduction_poly(ThreePartitionInstance(n=1, C=26, a=a, lam=1)) == expected


def test_reduction_merges_like_terms():
    p = scaled_reduction_poly(2, 12, (4, 4, 4, 4, 4, 4), 7)
    assert p.coeff(7 * 12 + 1 + 7 * 4) == 6


@pytest.mark.parametrize(
    "inst,needle",
    [
        (ThreePartitionInstance(n=1, C=26, a=(7, 9, 11)), "sum(a)"),
        (ThreePartitionInstance(n=1, C=26, a=(6, 10, 10)), "C/4 < a_i < C/2"),
        (ThreePartitionInstance(n=1, C=26, a=(13, 13)), "3n"),
        (ThreePartitionInstance(n=1, C=26, a=(7, 9, 10), lam=0), "lambda"),
        (ThreePartitionInstance(n=0, C=26, a=()), "n must be"),
    ],
)
def test_instance_validation_names_constraint(inst, needle):
    with pytest.raises(InstanceValidationError, match=None) as exc:
        validate_instance(inst)
    assert needle in str(exc.value)


def test_build_reduction_tree():
    tree = build_reduction_tree(INST, [[1, 2, 3]])
    assert tree.size == 106
    assert avalanche_poly(tree) == reduction_poly(INST)
    labeled_children = [INST.lam * INST.C + 1]
    from avpoly.tree import label_tree

    lt = label_tree(tree)
    assert [c.label for c in lt.children] == labeled_children
    # height-2 vertices carry lam*a_i - 1 leaves
    leaf_counts = sorted(len(g.children) for g in lt.children[0].children)
    assert leaf_counts == [27, 35, 39]


def test_build_rejects_bad_partition():
    with pytest.raises(PartitionError):
        build_reduction_tree(INST, [[1, 2]])
    with pytest.raises(PartitionError):
        build_reduction_tree(INST, [[1, 1, 2]])
    bad = ThreePartitionInstance(n=2, C=12, a=(4, 4, 4, 4, 4, 4), lam=7)
    with pytest.raises(PartitionError):
        # triples of (4,4,4,...) values sum to 12 = C only in the first group
        build_reduction_tree(bad, [[1, 2, 3], [4, 5, 5]])


def test_extract_roundtrip():
    tree = build_reduction_tree(INST, [[1, 2, 3]])
    assert extract_partition(tree, INST) == [[1, 2, 3]]


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


def test_general_search_solves_reduction_instance():
    p = reduction_poly(INST)
    r = solve_general(p)
    assert r.status == "found"
    assert len(r.trees) >= 1
    for t in r.trees:
        assert extract_partition(t, INST) == [[1, 2, 3]]


def test_general_search_rejects_unsatisfiable_instance():
    # values violate sum(a) = n*C, so no triple split of equal sum C exists;
    # the polynomial is assembled without instance validation
    p = scaled_reduction_poly(2, 12, (4, 4, 4, 5, 5, 5), 7)
    r = solve_general(p)
    assert r.status == "no_tree"
