"""Rooted plane trees: parenthesis encoding, subtree-size labeling,
avalanche polynomials, and exhaustive enumeration.

A tree is encoded as "(" + child encodings + ")", so the single vertex
is "()" and a root with two leaf children is "(()())". Parsing,
encoding, labeling and `avalanche_poly` are iterative, so deep path
trees do not hit the recursion limit. `dyck_words` and
`enumerate_trees` recurse to depth 2n; the enumeration in
`distribution` stops at the fixed cap `DEFAULT_ENUM_CAP` = 13, so that
depth is bounded by about 27 frames, far below the recursion limit.
"""

from __future__ import annotations

from collections.abc import Iterator

from .polyalg import Poly, catalan

__all__ = [
    "PlaneTree",
    "LabeledTree",
    "TreeParseError",
    "parse_tree",
    "label_tree",
    "avalanche_poly",
    "enumerate_trees",
    "dyck_words",
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

    @property
    def edge_count(self) -> int:
        return self.size - 1

    def encode(self) -> str:
        out = []
        stack: list = [self]
        while stack:
            node = stack.pop()
            if node is None:
                out.append(")")
            else:
                out.append("(")
                stack.append(None)
                stack.extend(reversed(node.children))
        return "".join(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, PlaneTree) and self.encode() == other.encode()

    def __hash__(self) -> int:
        return hash(self.encode())

    def __repr__(self) -> str:
        return f"PlaneTree({self.encode()!r})"


def parse_tree(text: str) -> PlaneTree:
    """Parse the parenthesis encoding; inverse of PlaneTree.encode()."""
    if not text:
        raise TreeParseError("empty encoding", 0)
    stack: list[list[PlaneTree]] = []
    root = None
    for i, ch in enumerate(text):
        if root is not None:
            raise TreeParseError("trailing characters after tree", i)
        if ch == "(":
            stack.append([])
        elif ch == ")":
            if not stack:
                raise TreeParseError("unbalanced ')'", i)
            node = PlaneTree(stack.pop())
            if stack:
                stack[-1].append(node)
            else:
                root = node
        else:
            raise TreeParseError(f"unexpected character {ch!r}", i)
    if root is None:
        raise TreeParseError("unbalanced '(': tree never closes", len(text))
    return root


class LabeledTree:
    """A vertex with its avalanche label and labeled children.

    Built by label_tree; treat as read-only.
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


def label_tree(t: PlaneTree) -> LabeledTree:
    """Label the root 0 and each child with its parent's label plus the
    vertex count of the child's maximal subtree."""
    root = LabeledTree(0)
    stack = [(t, root)]
    while stack:
        plane, labeled = stack.pop()
        mu = labeled.label
        for child in plane.children:
            node = LabeledTree(mu + child.size)
            labeled.children.append(node)
            stack.append((child, node))
    return root


def avalanche_poly(t: PlaneTree) -> Poly:
    """Coefficient of q^i counts the non-root vertices labeled i.

    Only children that have children of their own are pushed, so a wide
    fan of leaves costs no stack entries."""
    counts: dict[int, int] = {}
    stack = [(t, 0)]
    while stack:
        node, mu = stack.pop()
        for child in node.children:
            lbl = mu + child.size
            counts[lbl] = counts.get(lbl, 0) + 1
            if child.children:
                stack.append((child, lbl))
    return Poly(counts)


def dyck_words(n: int) -> Iterator[str]:
    """All balanced words of n '(' and n ')' in lexicographic order,
    with '(' < ')'."""
    if n < 0:
        raise ValueError("n must be >= 0")
    buf: list[str] = []

    def rec(opens_left: int, balance: int) -> Iterator[str]:
        if opens_left == 0:
            yield "".join(buf) + ")" * balance
            return
        buf.append("(")
        yield from rec(opens_left - 1, balance + 1)
        buf.pop()
        if balance > 0:
            buf.append(")")
            yield from rec(opens_left, balance - 1)
            buf.pop()

    return rec(n, 0)


def enumerate_trees(n: int) -> Iterator[PlaneTree]:
    """Every plane tree with n edges exactly once, streamed in
    lexicographic order of its encoding; the total count is catalan(n).

    Follows the recursion of `dyck_words` and builds each tree along the
    way: a ')' closes a subtree, which is built once and shared by every
    tree whose encoding continues past it. Only the right spine still
    open at the end of a word is built per tree.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    # closed children of each vertex on the open spine, root first
    spine: list[list[PlaneTree]] = [[]]

    def rec(opens_left: int) -> Iterator[PlaneTree]:
        if opens_left == 0:
            node = PlaneTree(spine[-1])
            for kids in reversed(spine[:-1]):
                node = PlaneTree([*kids, node])
            yield node
            return
        spine.append([])
        yield from rec(opens_left - 1)
        spine.pop()
        if len(spine) > 1:
            kids = spine.pop()
            spine[-1].append(PlaneTree(kids))
            yield from rec(opens_left)
            spine[-1].pop()
            spine.append(kids)

    yield from rec(n)
