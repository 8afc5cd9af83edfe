"""Oracles that read plane trees off their parenthesis encodings alone.

They import nothing from `avpoly`, so a test that checks the package
against them checks it against code the package does not share.
"""


def dyck_words(n):
    """All balanced words of n '(' and n ')' in lexicographic order, with
    '(' < ')': the plain, recursive statement of the order in which
    `enumerate_trees` yields trees, independent of its walk."""
    if n < 0:
        raise ValueError("n must be >= 0")
    buf = []

    def rec(opens_left, balance):
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


def preorder_labels(encoding):
    """The label of each vertex, in the order of the '(' that opens it,
    from two scans of the string: the vertex opened at index i has
    (j - i + 1) / 2 vertices when its ')' is at j, and is labeled its
    parent's label plus that count; the root is labeled 0."""
    size, opens = {}, []
    for j, ch in enumerate(encoding):
        if ch == "(":
            opens.append(j)
        else:
            i = opens.pop()
            size[i] = (j - i + 1) // 2
    labels, open_labels = [], []
    for j, ch in enumerate(encoding):
        if ch == ")":
            open_labels.pop()
            continue
        label = open_labels[-1] + size[j] if open_labels else 0
        open_labels.append(label)
        labels.append(label)
    return labels
