"""Plane trees: encoding, labeling, avalanche polynomials, enumeration."""

import inspect
from collections import Counter
from itertools import repeat

import pytest
from hypothesis import given, strategies as st

from avpoly.polyalg import Poly, catalan
from avpoly.tree import (
    PlaneTree,
    TreeParseError,
    avalanche_poly,
    enumerate_trees,
    parse_tree,
)
from memory import peak_bytes
from oracles import dyck_words, preorder_labels

FIG1 = "((((()))())((())(())(())())((())()()()))"
FIG1_POLY = Poly([(5, 1), (6, 2), (7, 3), (8, 3), (9, 2), (10, 4), (11, 4)])

# random nested-tuple shapes converted to trees
tree_shapes = st.recursive(
    st.just(()), lambda kids: st.lists(kids, max_size=4).map(tuple), max_leaves=24
)


def from_shape(shape):
    return PlaneTree(from_shape(s) for s in shape)


def path_tree(vertices):
    t = PlaneTree()
    for _ in range(vertices - 1):
        t = PlaneTree([t])
    return t


# ---------------------------------------------------------------------------
#  Parse / encode
# ---------------------------------------------------------------------------


def test_parse_basics():
    assert parse_tree("()").size == 1
    star = parse_tree("(()())")
    assert len(star.children) == 2
    assert all(c.size == 1 for c in star.children)
    path = parse_tree("((()))")
    assert path.size == 3
    assert len(path.children) == 1


@pytest.mark.parametrize(
    "bad,position",
    [
        ("", 0),
        ("(", 1),
        ("())", 2),
        (")", 0),
        ("(x)", 1),
        ("()()", 2),
        ("(()", 3),
    ],
)
def test_parse_errors_carry_position(bad, position):
    with pytest.raises(TreeParseError) as exc:
        parse_tree(bad)
    assert exc.value.position == position


def test_encode_basics():
    assert PlaneTree().encode() == "()"
    star3 = PlaneTree([PlaneTree(), PlaneTree(), PlaneTree()])
    assert star3.encode() == "(()()())"
    assert parse_tree(FIG1).encode() == FIG1
    assert repr(star3) == "PlaneTree('(()()())')"


@given(tree_shapes)
def test_encode_parse_roundtrip(shape):
    t = from_shape(shape)
    assert parse_tree(t.encode()) == t


def test_deep_path_does_not_recurse():
    deep = "(" * 5000 + ")" * 5000
    t = parse_tree(deep)
    assert t.size == 5000
    assert t.encode() == deep
    assert avalanche_poly(t).degree() == 4999 * 5000 // 2


def test_path_of_1e5_edges_encodes_without_recursion():
    t = path_tree(10**5 + 1)
    assert t.encode() == "(" * (10**5 + 1) + ")" * (10**5 + 1)
    assert avalanche_poly(t).moment(0) == 10**5


# ---------------------------------------------------------------------------
#  Shared subtrees: runs of one child object
# ---------------------------------------------------------------------------


def test_encode_reads_a_run_in_place():
    # a star of 10^6 copies of one leaf: the encoding and its one repeated
    # piece take about 2 MB each; a copy of the root's children would add 8 MB
    star = PlaneTree(repeat(PlaneTree(), 10**6))
    text, peak = peak_bytes(star.encode)
    assert text == "(" + "()" * 10**6 + ")"
    assert peak < 6 * 10**6


def test_parse_shares_one_leaf():
    # every "()" parses to one leaf object: the star of 10^6 leaves holds
    # its children's tuple and the list it is built from, about 8 MB each;
    # a new leaf per "()" took the peak to 64 MB
    text = "(" + "()" * 10**6 + ")"
    star, peak = peak_bytes(lambda: parse_tree(text))
    assert star.size == 10**6 + 1
    assert star.children[0] is star.children[-1]
    assert peak < 20 * 10**6
    leaves, stack = set(), [parse_tree(FIG1)]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if not node.children:
            leaves.add(id(node))
    assert len(leaves) == 1


@st.composite
def shared_trees(draw):
    """A tree built as a DAG: each new node takes runs of 1-4 copies of
    nodes already in the pool, so subtrees are shared within and across
    vertices."""
    pool = [PlaneTree()]
    for _ in range(draw(st.integers(1, 8))):
        kids = []
        for _ in range(draw(st.integers(0, 4))):
            kids += [draw(st.sampled_from(pool))] * draw(st.integers(1, 4))
        node = PlaneTree(kids)
        if node.size <= 2000:
            pool.append(node)
    return pool[-1]


def recursive_encoding(t):
    return "(" + "".join(recursive_encoding(c) for c in t.children) + ")"


@given(shared_trees())
def test_shared_tree_encoding_and_polynomial(t):
    text = t.encode()
    assert text == recursive_encoding(t)
    assert avalanche_poly(t) == Poly(Counter(preorder_labels(text)[1:]))
    parsed = parse_tree(text)  # its leaves form runs of their own
    assert parsed.encode() == text
    assert avalanche_poly(parsed) == avalanche_poly(t)


# ---------------------------------------------------------------------------
#  Avalanche polynomial
# ---------------------------------------------------------------------------


def test_avalanche_fig1():
    assert avalanche_poly(parse_tree(FIG1)) == FIG1_POLY


def test_avalanche_single_vertex_is_zero():
    assert avalanche_poly(PlaneTree()) == Poly()


def test_avalanche_path3():
    assert avalanche_poly(parse_tree("((()))")) == Poly([(2, 1), (3, 1)])


def test_avalanche_mass_counts_nonroot_vertices():
    for t in enumerate_trees(6):
        assert avalanche_poly(t).moment(0) == t.size - 1


@given(tree_shapes, st.randoms(use_true_random=False))
def test_avalanche_invariant_under_child_reordering(shape, rng):
    t = from_shape(shape)

    def shuffled(node):
        kids = [shuffled(c) for c in node.children]
        rng.shuffle(kids)
        return PlaneTree(kids)

    assert avalanche_poly(shuffled(t)) == avalanche_poly(t)


def test_max_label_attained_by_path_only():
    n = 7
    top = n * (n + 1) // 2
    hits = [t for t in enumerate_trees(n) if avalanche_poly(t).coeff(top)]
    assert hits == [path_tree(n + 1)]
    # and no tree exceeds it
    for t in enumerate_trees(n):
        assert avalanche_poly(t).degree() <= top


def test_min_label_one_iff_root_has_leaf_child():
    for t in enumerate_trees(7):
        has_leaf_child = any(c.size == 1 for c in t.children)
        assert (avalanche_poly(t).coeff(1) > 0) == has_leaf_child


# ---------------------------------------------------------------------------
#  Enumeration
# ---------------------------------------------------------------------------


def test_enumerate_smallest_sizes():
    assert [t.encode() for t in enumerate_trees(0)] == ["()"]
    assert [t.encode() for t in enumerate_trees(1)] == ["(())"]
    assert [t.encode() for t in enumerate_trees(2)] == ["((()))", "(()())"]
    assert [t.encode() for t in enumerate_trees(3)] == [
        "(((())))",
        "((()()))",
        "((())())",
        "(()(()))",
        "(()()())",
    ]


def test_enumerate_counts_and_lexicographic_order():
    for n in range(11):
        count = 0
        prev = None
        for t in enumerate_trees(n):
            enc = t.encode()
            if prev is not None:
                assert prev < enc  # strict: distinct and ordered
            prev = enc
            count += 1
        assert count == catalan(n)


def test_dyck_words_basics():
    assert list(dyck_words(0)) == [""]
    assert list(dyck_words(2)) == ["(())", "()()"]
    with pytest.raises(ValueError):
        list(dyck_words(-1))


def test_enumeration_follows_dyck_words():
    for n in range(11):
        assert [t.encode() for t in enumerate_trees(n)] == ["(" + w + ")" for w in dyck_words(n)]


def test_enumerate_trees_is_a_generator_that_rejects_negative_sizes():
    assert inspect.isgeneratorfunction(enumerate_trees)
    with pytest.raises(ValueError):
        list(enumerate_trees(-1))


def test_enumeration_streams_lazily():
    stream = enumerate_trees(30)  # far past any materializable size
    first = next(stream)
    assert first.encode() == "(" * 31 + ")" * 31


def test_enumeration_of_a_deep_path_does_not_recurse():
    # the walk keeps its choice points on a stack, not on the call stack
    first = next(enumerate_trees(2000))
    assert first.size == 2001
    assert first.encode() == "(" * 2001 + ")" * 2001


def test_enumeration_with_an_encoding_fold_follows_dyck_words():
    # a fold of strings, not trees: each vertex collects its children's encodings
    fold = ("", lambda acc, child: f"{acc}({child})", lambda acc: f"({acc})")
    for n in range(10):
        assert list(enumerate_trees(n, fold)) == ["(" + w + ")" for w in dyck_words(n)]


# ---------------------------------------------------------------------------
#  Root-subtree counting identity
# ---------------------------------------------------------------------------


def test_root_block_count_identity():
    # pairs (tree with n edges, root-child position holding a v-vertex
    # path) are counted by catalan(n - v + 1)
    for n in range(2, 9):
        for v in range(1, min(3, n) + 1):
            block = path_tree(v).encode()
            found = 0
            for t in enumerate_trees(n):
                found += sum(1 for c in t.children if c.encode() == block)
            assert found == catalan(n - v + 1), (n, v)
