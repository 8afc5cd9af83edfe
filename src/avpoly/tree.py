"""Rooted plane trees: parenthesis encoding, subtree-size labeling,
avalanche polynomials, and exhaustive enumeration.

A tree is encoded as "(" + child encodings + ")", so the single vertex
is "()" and a root with two leaf children is "(()())". Parsing,
encoding, `avalanche_poly` and `enumerate_trees` are iterative, so
deep path trees do not hit the recursion limit.
Trees are immutable, so code that builds one may use one object for many
children, as the inverse solvers and `parse_tree` (for every leaf) do.
`encode` and `avalanche_poly` treat a run of consecutive children that
are one object as one unit: the subtree is walked once, and each further
copy costs one step (in `encode`, a step of C iterators, for runs of
three or more).
`enumerate_trees` walks the Dyck words with an explicit stack and folds
each tree up from its closed subtrees; the fold builds `PlaneTree`s by
default, and `distribution` passes one that packs label polynomials.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, islice, repeat
from operator import indexOf, is_not

from .polyalg import Poly

__all__ = [
    "PlaneTree",
    "LabeledTree",
    "TreeParseError",
    "parse_tree",
    "avalanche_poly",
    "enumerate_trees",
]


class TreeParseError(ValueError):
    """Malformed tree encoding; `position` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class PlaneTree:
    """Rooted tree with ordered children; immutable after construction.

    `size` is the vertex count of the subtree, computed once on build.
    """

    __slots__ = ("children", "size")

    def __init__(self, children=()):
        self.children = tuple(children)
        self.size = 1 + sum(c.size for c in self.children)

    def encode(self) -> str:
        """The parenthesis encoding. A run of r >= 3 consecutive children
        that are one object is encoded once and the string repeated r
        times, so only one copy of a shared subtree is walked. The walk is
        iterative and reads each vertex's children in place, by index, so
        it copies no children tuple and visits a run's further copies
        only to count them. Encoding a run's child recurses, but runs
        nest at most log3(size) deep, since each level at least triples
        the vertex count."""
        out = ["("]
        kids, j = self.children, 0  # the open vertex's children, next index
        stack = []  # (children, next index) of the open vertices above it
        while True:
            if j < len(kids):
                node = kids[j]
                j += 1
                if j + 1 < len(kids) and kids[j] is node and kids[j + 1] is node:
                    # a run of three or more: repeat one copy. The index of
                    # the first child after it is found by C iterators
                    # rather than a loop step per copy; their set-up costs
                    # more than a run of two walked twice
                    others = map(is_not, islice(kids, j, None), repeat(node))
                    end = j + indexOf(chain(others, (True,)), True)
                    enc = node.encode() if node.children else "()"
                    out.append(enc * (end - j + 1))
                    j = end
                elif node.children:
                    out.append("(")
                    stack.append((kids, j))
                    kids, j = node.children, 0
                else:
                    out.append("()")
            else:
                out.append(")")
                if not stack:
                    return "".join(out)
                kids, j = stack.pop()

    def __eq__(self, other) -> bool:
        return isinstance(other, PlaneTree) and self.encode() == other.encode()

    def __hash__(self) -> int:
        return hash(self.encode())

    def __repr__(self) -> str:
        return f"PlaneTree({self.encode()!r})"


_LEAF = PlaneTree()


def parse_tree(text: str) -> PlaneTree:
    """Parse the parenthesis encoding; inverse of PlaneTree.encode().
    Every leaf of the result is one shared object."""
    if not text:
        raise TreeParseError("empty encoding", 0)
    # the open vertex's children: None outside the root, () before the
    # first one, so opening a vertex allocates nothing until it has a child
    kids = None
    stack = []  # the children of the open vertices above it
    for i, ch in enumerate(text):
        if ch == "(":
            stack.append(kids)
            kids = ()
        elif ch == ")":
            if kids is None:
                raise TreeParseError("unbalanced ')'", i)
            node = PlaneTree(kids) if kids else _LEAF
            kids = stack.pop()
            if kids:
                kids.append(node)
            elif kids is None:
                if i + 1 < len(text):
                    raise TreeParseError("trailing characters after tree", i + 1)
                return node
            else:
                kids = [node]
        else:
            raise TreeParseError(f"unexpected character {ch!r}", i)
    raise TreeParseError("unbalanced '(': tree never closes", len(text))


class LabeledTree:
    """A vertex with its avalanche label and labeled children.

    No command builds one; the benchmark's tracer wraps `preorder_labels`
    and `label_counts` (ROADMAP direction 14).
    """

    __slots__ = ("label", "children")

    def __init__(self, label: int, children=None):
        self.label = label
        self.children: list[LabeledTree] = children if children is not None else []

    def preorder_labels(self) -> list[int]:
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(node.label)
            stack.extend(reversed(node.children))
        return out

    def label_counts(self) -> dict[int, int]:
        """Multiset of non-root labels (the avalanche polynomial's terms)."""
        counts: dict[int, int] = {}
        for lbl in self.preorder_labels()[1:]:
            counts[lbl] = counts.get(lbl, 0) + 1
        return counts

    def __repr__(self) -> str:
        return f"LabeledTree(label={self.label}, children={len(self.children)})"


def avalanche_poly(t: PlaneTree) -> Poly:
    """Coefficient of q^i counts the non-root vertices labeled i.

    A stack entry (node, mu, w) stands for w copies of a vertex labeled
    mu. A run of r consecutive children that are one object c adds w*r
    vertices labeled mu + |c|, and c is walked once, as w*r copies, so
    only one copy of a shared subtree is walked. Leaves are counted but
    not pushed."""
    counts: dict[int, int] = {}
    stack = [(t, 0, 1)]
    while stack:
        node, mu, w = stack.pop()
        prev, r = None, 0
        for child in node.children:
            if child is prev:
                r += 1
                continue
            if r:  # the run of prev ends
                lbl = mu + prev.size
                counts[lbl] = counts.get(lbl, 0) + w * r
                if prev.children:
                    stack.append((prev, lbl, w * r))
            prev, r = child, 1
        if r:  # the last run ends with the loop; a sentinel would copy the tuple
            lbl = mu + prev.size
            counts[lbl] = counts.get(lbl, 0) + w * r
            if prev.children:
                stack.append((prev, lbl, w * r))
    return Poly(counts)


def _add_plane_child(kids: tuple, child: tuple) -> tuple:
    return (*kids, PlaneTree(child))


# The default fold of `enumerate_trees`: a vertex's closed children as a
# tuple of PlaneTrees, each built once and shared by every later tree.
_PLANE_FOLD = ((), _add_plane_child, PlaneTree)


def enumerate_trees(n: int, fold=_PLANE_FOLD) -> Iterator:
    """Every plane tree with n edges exactly once, streamed in
    lexicographic order of its encoding; the total count is catalan(n).

    One loop walks the Dyck words with an explicit undo stack, so the
    depth of a tree is not bounded by the recursion limit.
    Each open vertex on the right spine holds a fold of its closed
    children. `fold` is a triple (empty, add, finish): `empty` is the
    fold of a vertex with no children yet, `add(acc, child)` returns
    `acc` with the closed child's fold `child` appended, and the walk
    yields `finish(root fold)` once per tree. A ')' closes a subtree
    once, and every tree whose encoding continues past it shares the
    result; only the spine still open at the end of a word is folded
    per tree. The default fold yields `PlaneTree`s.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    empty, add, finish = fold
    # The open spine is a linked list (fold, parent) from the innermost
    # vertex out to the root, so a choice point saves it in O(1).
    v = (empty, None)
    opens_left = n
    stack = []  # choice points (spine, opens left) where ')' is still to try
    while True:
        while opens_left:  # '(' first: open a child of the innermost vertex
            stack.append((v, opens_left))
            v = (empty, v)
            opens_left -= 1
        acc, parent = v  # the word ends: close the open spine
        while parent is not None:
            up, parent = parent
            acc = add(up, acc)
        yield finish(acc)
        while stack:  # then ')' at the latest choice point that allows one
            v, opens_left = stack.pop()
            acc, parent = v
            if parent is not None:
                up, parent = parent
                v = (add(up, acc), parent)
                break
        else:
            return
