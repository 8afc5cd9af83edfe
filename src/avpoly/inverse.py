"""The inverse problem: from a polynomial back to a tree.

`solve_height2` is the greedy linear reconstruction for trees of height
at most 2. `solve_general` is an exhaustive budgeted backtracking search
over canonical trees (children sorted by subtree size, then encoding);
it is iterative, one loop over an explicit stack of choice points, and
runs on parenthesis encodings. A vertex's leaves come first among its
children, so the search places them as one run, a single step and a
single choice point however many leaves it holds, and undoes a run's
leaves together; it still counts, and visits in the same order, one
placement per leaf. It records the finished sub-search below each
vertex, the subtrees it closed into and the placements made before
each, and a repeat of it replays the record instead of being searched
again. It returns encodings, and builds trees only to check them and
for the closings a replay offers, whose labels it reads from the
subtree's `avalanche_poly`.
The remaining functions build and unpack the 3-partition reduction
instances whose polynomials force a unique solution tree shape.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import chain, repeat

from .polyalg import Poly
from .tree import PlaneTree, avalanche_poly, parse_tree

__all__ = [
    "ThreePartitionInstance",
    "InverseResult",
    "InstanceValidationError",
    "PartitionError",
    "ExtractionError",
    "DEFAULT_BUDGET",
    "solve_height2",
    "solve_general",
    "reduction_poly",
    "build_reduction_tree",
    "extract_partition",
]

DEFAULT_BUDGET = 10**7


class InstanceValidationError(ValueError):
    """A 3-partition instance violates one of its defining constraints."""


class PartitionError(ValueError):
    """A proposed partition is not a valid solution of the instance."""


class ExtractionError(ValueError):
    """A tree does not have the reduction shape (invalid solution tree,
    or the scale factor was too small to force uniqueness)."""


class ThreePartitionInstance(namedtuple("ThreePartitionInstance", "n C a lam")):
    """3n values to split into n triples of equal sum C, with every value
    strictly between C/4 and C/2; `lam` scales the reduction polynomial
    (values and C are multiplied by lam) and defaults to 3n + 1. Checked
    when made: InstanceValidationError names the first broken constraint."""

    __slots__ = ()
    # `_replace` makes its copy with `_make`, which goes through the checks too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n: int, C: int, a, lam: int | None = None):
        inst = super().__new__(cls, n, C, tuple(a), 3 * n + 1 if lam is None else lam)
        if inst.n < 1:
            raise InstanceValidationError("n must be >= 1")
        if len(inst.a) != 3 * inst.n:
            raise InstanceValidationError(
                f"a must contain exactly 3n = {3 * inst.n} values, got {len(inst.a)}"
            )
        for i, ai in enumerate(inst.a):
            # strict bounds C/4 < a_i < C/2, compared in integers
            if not (4 * ai > inst.C and 2 * ai < inst.C):
                raise InstanceValidationError(
                    f"a[{i}] = {ai} violates C/4 < a_i < C/2 for C = {inst.C}"
                )
        if sum(inst.a) != inst.n * inst.C:
            raise InstanceValidationError(
                f"sum(a) = {sum(inst.a)} must equal n*C = {inst.n * inst.C}"
            )
        if inst.lam < 1:
            raise InstanceValidationError("lambda must be >= 1")
        return inst


class InverseResult(namedtuple("InverseResult", "status trees attempts")):
    """Immutable search outcome: status is "found", "no_tree" or
    "budget_exhausted"; trees, the sorted encodings found, defaults to
    a new empty list; attempts counts the placements `solve_general` made."""

    __slots__ = ()

    def __new__(cls, status: str, trees: list[str] | None = None, attempts: int = 0):
        return super().__new__(cls, status, [] if trees is None else trees, attempts)


def _check_poly(tree: PlaneTree, poly: Poly):
    """The solvers' self-check, an explicit raise so that `python -O`,
    which strips assert statements, keeps it."""
    if avalanche_poly(tree) != poly:
        raise AssertionError(f"built a tree whose polynomial is not {poly.to_text():.60}")


# ---------------------------------------------------------------------------
#  Height-2 greedy
# ---------------------------------------------------------------------------


def solve_height2(poly: Poly) -> InverseResult:
    """Reconstruct a height <= 2 tree whose avalanche polynomial is `poly`,
    or report that none exists.

    Greedy over ascending exponents: the first remaining coefficient a_j
    places a_j root children labeled j; for j > 1 each needs j-1 leaf
    children labeled j+1, so the run fails when [q^{j+1}] < a_j (j-1).
    Runs in one pass over the sorted terms plus output construction.
    """
    counts = dict(poly.items())
    if any(c < 0 for c in counts.values()):
        raise ValueError("polynomial must have nonnegative coefficients")
    if counts.get(0):
        return InverseResult("no_tree")  # no non-root vertex can be labeled 0

    # trees are immutable, so one leaf and one branch per size j are shared;
    # the root's children are built from (branch, count) runs, so no list
    # of every child lives beside the root's tuple
    leaf = PlaneTree()
    runs = []
    for j in sorted(counts):
        c = counts[j]
        if not c:
            continue  # fully consumed as leaves of the previous level
        if j > 1:
            need = c * (j - 1)
            if counts.get(j + 1, 0) < need:
                return InverseResult("no_tree")
            counts[j + 1] -= need
        runs.append((PlaneTree(repeat(leaf, j - 1)), c))

    tree = PlaneTree(chain.from_iterable(repeat(b, c) for b, c in runs))
    _check_poly(tree, poly)
    return InverseResult("found", [tree.encode()])


# ---------------------------------------------------------------------------
#  General backtracking search
# ---------------------------------------------------------------------------


class _Exhausted(Exception):
    """The general search ran out of its budget of placements."""


def solve_general(poly: Poly, budget: int = DEFAULT_BUDGET) -> InverseResult:
    """Exhaustively search for every canonical tree whose avalanche
    polynomial is `poly`, within a budget of vertex placement attempts.

    A vertex labeled mu receives children of subtree size s only when the
    label mu+s is still unconsumed; children are generated in
    non-decreasing (size, encoding) order so each plane-tree orbit is
    visited once. The search is iterative: one loop places vertices
    depth first and backtracks through an explicit stack of choice
    points, so neither the depth nor the width of a tree is bounded by
    the interpreter's recursion limit. It runs on parenthesis encodings
    and returns them sorted, parsing each into a `PlaneTree` only to
    check it; a closing a replay offers is parsed for its avalanche
    polynomial, once per (encoding, label index). Returns all solutions
    when the search space closes; `budget_exhausted` reports any trees
    found before the cutoff. `attempts` counts the placements made.

    Leaves are placed in runs. A leaf is the smallest child, so a
    vertex's leaves come first, and a vertex labeled mu places a leaf
    (label mu+1) as long as one is left and it has room: k = min(leaves
    left, room) of them in a row, each one placement. The search places
    such a run in one step and counts k attempts; when fewer than k
    remain in the budget it stops where placing them one by one would
    have stopped, with `attempts == budget`. Undoing the run's last m
    leaves frees m slots of room for the next unplaced label after the
    leaf's, which is the only alternative tried in those slots: slots
    where it does not fit are undone together, without a placement, and
    the undo stops at the last slot where it fits. So the search
    visits the same placements in the same order as one that places
    and undoes every leaf on its own, and `attempts`, the budget cutoff
    and the solutions are the same.

    Finished sub-searches are recorded. A non-leaf child labeled L with
    room r can place only labels in the window (L, L + r(r+1)/2], the
    most a chain of r descendants adds; labels beyond it are only ever
    rejected, all alike, by every vertex inside, and the child places at
    most r vertices, so it cannot tell a count above r from r. So what
    happens below the child depends only on the key (L, r, counts left
    of the labels in the window, each cut to r): the placements made,
    and the subtrees it closes into, in order. Between two closings the
    search runs outside the child and backtracks into it with the counts
    as they were; whether the parent accepts a closing does not change
    what follows below. Each state of the child carries its record in
    progress. A closing adds itself to the record, as the placements
    made below the child since the open or the last re-entry and its
    (size, encoding) key, and leaves a mark on the stack of choice
    points, above those made inside the child: popping the mark is the
    re-entry. When the child is undone for good, its open choice point
    files the record under its key, ending it with one final entry: the
    placements made after the last closing, with no closing. A later
    open with an equal key counts its own placement and replays the
    record an entry at a time: each is charged its placements, and a
    closing then takes the labels it used (its subtree's avalanche
    polynomial, shifted by L) out of the counts and is offered to the
    parent, which accepts or rejects it as it would the searched one;
    backtracking into it puts the labels back and moves on to the next
    entry. The final entry ends the replay; a record that is only that,
    of a child that never closed, is charged and skipped at the open. A
    charge larger than what is left in the budget, of a run, a placement
    or an entry, leaves the search by its one exit with `attempts ==
    budget`, where the search below would have stopped. So `attempts`,
    the budget cutoff and the solutions are those of the search without
    the record. The records hold no more window counts and closed
    vertices than the placements made: a closing that would take them
    past that drops the record of its vertex, and so does a window at
    the end.
    """
    avail = dict(poly.items())
    if any(c < 0 for c in avail.values()):
        raise ValueError("polynomial must have nonnegative coefficients")
    if avail.get(0):
        return InverseResult("no_tree")
    labels = [*sorted(avail), float("inf")]
    # unplaced count of each label, by its index in `labels`; the sentinel
    # counts 1, so a scan for a label still unplaced always stops
    left = [*map(avail.get, labels[:-1]), 1]
    total = sum(avail.values())
    budget = max(budget, 0)
    spare = budget  # placements left in the budget
    found: list[str] = []

    # The open vertex is a tuple (label, room left for descendants, keys
    # of its closed children that are not leaves, parent, record). The
    # keys (size, encoding) form a linked list (key, rest), last child
    # first, so the head is the key a next child must not be below; None
    # before the first. Leaves are not stored: they come first, and a
    # closing vertex's leaves are the vertices its other children leave
    # of its size. Vertices are immutable, so every choice point shares
    # what it saved with the states that follow it. The record, shared by
    # every state of the vertex, is [placements left at the open or the
    # last re-entry, closings or None once dropped, index of its label in
    # `labels`]; a closing is (placements before it, key). The root's
    # record starts dropped, so nothing is filed for it.
    v = (0, total, None, None, [budget, None, -1])
    i = 0  # index in `labels` of the next label to try for v's next child
    # choice points, four shapes:
    # - run: (open vertex before the run, -k) for a run of k leaves; the
    #   leaf label lbl + 1 directly follows lbl in `labels`, so its index
    #   is the vertex's + 1;
    # - open: (open vertex, record of the child placed);
    # - replay: (open vertex, (index of the repeat's label, its filed
    #   record, index of the entry offered, the (label index, count)
    #   pairs of that entry's closing));
    # - re-entry: (None, record) of a vertex that closed.
    stack = []
    push, pop = stack.append, stack.pop
    # Records of finished sub-searches of a child labeled labels[i] with
    # room r: memo[i][r] is (end, caps, records by window). The window
    # holds the counts left of the labels in labels[i + 1:end], those in
    # (labels[i], labels[i] + r(r+1)/2], which hold every label the child
    # can place, each cut to r: the child places at most r vertices, so it
    # cannot tell a count above r from r. `caps` lists the positions in
    # the window of the labels with more than r in all, the only counts
    # that can exceed r. A filed record is the list of its closings
    # followed by one final entry, (placements after the last closing,
    # None).
    memo = [{} for _ in labels]
    below = {}  # (encoding, label index) -> the pairs of a replayed closing
    held = 0  # window counts and closed vertices in the records
    try:
        while True:
            lbl, room, kids, parent, rec = v
            if room:
                while not left[i]:
                    i += 1
                child = labels[i]
                if child <= lbl + room:
                    if child == lbl + 1:  # a run of leaves
                        k = left[i]
                        if k > room:
                            k = room
                        if k > spare:
                            raise _Exhausted
                        spare -= k
                        left[i] -= k
                        push((v, -k))
                        v = (lbl, room - k, kids, parent, rec)
                        continue
                    if not spare:
                        raise _Exhausted
                    spare -= 1
                    r = child - lbl - 1
                    seen = memo[i].get(r)
                    kept = None
                    if seen is not None:
                        end, caps, by_window = seen
                        window = left[i + 1:end]
                        for k in caps:
                            if window[k] > r:
                                window[k] = r
                        kept = by_window.get(tuple(window))
                    if kept is None:
                        left[i] -= 1
                        new = [spare, [], i]
                        push((v, new))
                        v = (child, r, None, v, new)
                        i += 1
                        continue
                    n, key = kept[0]
                    # a repeat that never closed: charge it and skip it
                    # here, as a replay would, without its push and pop
                    # (most lookups)
                    if key is None:
                        if n > spare:
                            raise _Exhausted
                        spare -= n
                        i += 1
                        continue
                    # the undo below offers the first closing
                    left[i] -= 1
                    push((v, (i, kept, -1, ())))
            else:
                parts = []
                while kids:
                    key, kids = kids
                    parts.append(key[1])
                body = "".join(reversed(parts))
                if parent is None:
                    found.append(f"({'()' * (total - len(body) // 2)}{body})")
                else:
                    # close the full vertex into its parent, whose scan for
                    # a next child starts at this vertex's label
                    mu, room, kids, grand, prec = parent
                    size = lbl - mu
                    key = (size, f"({'()' * (size - 1 - len(body) // 2)}{body})")
                    closings = rec[1]
                    if closings is not None:  # add the closing to the record, or drop it
                        if held + size <= budget - spare:
                            held += size
                            closings.append((rec[0] - spare, key))
                            push((None, rec))
                        else:
                            held -= sum(c[1][0] for c in closings)  # its closed vertices
                            rec[1] = None
                    if kids is None or key >= kids[0]:
                        v = (mu, room - size, (key, kids), grand, prec)
                        i = rec[2]
                        continue
            # a dead end or a solution: undo back to the last alternative
            while stack:
                v, i = pop()
                if v is None:  # back inside a vertex that closed
                    i[0] = spare
                    continue
                if i.__class__ is tuple:  # a replayed repeat: its next entry
                    ci, record, j, pairs = i
                    for k, c in pairs:
                        left[k] += c
                    j += 1
                    n, key = record[j]
                    if n > spare:
                        raise _Exhausted
                    spare -= n
                    if key is None:  # the end of the record
                        left[ci] += 1
                        i = ci + 1
                        break
                    pairs = below.get((key[1], ci))
                    if pairs is None:
                        base = labels[ci]
                        pairs = below[key[1], ci] = tuple(
                            (bisect_left(labels, base + e, ci), c)
                            for e, c in avalanche_poly(parse_tree(key[1])).items()
                        )
                    for k, c in pairs:
                        left[k] -= c
                    push((v, (ci, record, j, pairs)))
                    mu, room, kids, grand, prec = v
                    if kids is None or key >= kids[0]:
                        v = (mu, room - key[0], (key, kids), grand, prec)
                        i = ci
                        break
                    continue
                if i.__class__ is list:  # the open: the vertex is undone for good
                    mark, closings, i = i
                    if closings is not None:  # file its record
                        r = labels[i] - v[0] - 1
                        end = bisect_right(labels, labels[i] + r * (r + 1) // 2, i + 1)
                        # the records hold no more than the placements made
                        if held + end - i - 1 <= budget - spare:
                            held += end - i - 1
                            seen = memo[i].get(r)
                            if seen is None:
                                caps = [k for k, lb in enumerate(labels[i + 1:end]) if avail[lb] > r]
                                seen = memo[i][r] = (end, caps, {})
                            # `left` is back as it was at the open
                            window = left[i + 1:end]
                            for k in seen[1]:
                                if window[k] > r:
                                    window[k] = r
                            closings.append((mark - spare, None))
                            seen[2][tuple(window)] = closings
                        else:
                            held -= sum(c[1][0] for c in closings)  # its closed vertices
                    left[i] += 1
                    i += 1
                    break
                # a run of k leaves in slots 1..k of v. Label j, the first
                # one left after the leaf's, fits in slot s when labels[j]
                # <= lbl + room - s + 1: undo the leaves from the last such
                # slot on in one step and place label j there, or the whole
                # run if none
                lbl, room, kids, parent, rec = v
                k = -i
                i = rec[2] + 1
                j = i + 1
                while not left[j]:
                    j += 1
                s = lbl + room + 1 - labels[j]
                if s < 1:
                    left[i] += k
                    continue
                if s > k:
                    s = k
                left[i] += k - s + 1
                if s > 1:  # leaves 1..s-1 stay, as a shorter run
                    push((v, 1 - s))
                    v = (lbl, room - s + 1, kids, parent, rec)
                i = j
                break
            else:
                break
        status = "found" if found else "no_tree"
    except _Exhausted:
        status, spare = "budget_exhausted", 0

    found.sort()
    for enc in found:
        _check_poly(parse_tree(enc), poly)
    return InverseResult(status, found, budget - spare)


# ---------------------------------------------------------------------------
#  3-partition reduction
# ---------------------------------------------------------------------------


def reduction_poly(inst: ThreePartitionInstance) -> Poly:
    """Reduction polynomial of an instance:

        n q^{lam C + 1}
        + sum_i q^{lam C + 1 + lam a_i}
        + sum_i (lam a_i - 1) q^{lam C + lam a_i + 2}

    Like terms merge; lam = 1 gives the unscaled form."""
    n, C, a, lam = inst
    base = lam * C + 1
    pairs = [(base, n)]
    for ai in a:
        w = lam * ai
        pairs.append((base + w, 1))
        pairs.append((base + w + 1, w - 1))
    return Poly(pairs)


def _validate_partition(inst: ThreePartitionInstance, solution):
    seen: set[int] = set()
    for triple in solution:
        for idx in triple:
            if not (1 <= idx <= 3 * inst.n):
                raise PartitionError(f"index {idx} out of range 1..{3 * inst.n}")
            if idx in seen:
                raise PartitionError(f"index {idx} used twice")
            seen.add(idx)
        s = sum(inst.a[i - 1] for i in triple)
        if s != inst.C:
            raise PartitionError(
                f"group {list(triple)} sums to {s}, expected C = {inst.C}"
            )
    if len(seen) != 3 * inst.n:
        raise PartitionError("partition does not cover all 3n indices")


def build_reduction_tree(inst: ThreePartitionInstance, solution) -> PlaneTree:
    """The canonical solution tree: the root has n children (labeled
    lam*C+1); the k-th has one branch per index in the k-th triple, of
    subtree size lam*a_i, carrying lam*a_i - 1 leaves."""
    _validate_partition(inst, solution)
    lam = inst.lam
    leaf = PlaneTree()  # trees are immutable, so every leaf is this one
    groups = []
    for triple in solution:
        branches = []
        for idx in sorted(triple, key=lambda i: (inst.a[i - 1], i)):
            w = lam * inst.a[idx - 1]
            branches.append(PlaneTree(repeat(leaf, w - 1)))
        groups.append(PlaneTree(branches))
    tree = PlaneTree(groups)
    _check_poly(tree, reduction_poly(inst))
    return tree


def extract_partition(tree: PlaneTree, inst: ThreePartitionInstance) -> list[list[int]]:
    """Read a 3-partition solution off a tree whose avalanche polynomial
    equals the instance's reduction polynomial.

    A label is the parent's label plus the subtree size, so the shape is
    read from `size` without labeling a copy of the tree: n root children
    of size (and label) lam*C+1, whose children are branches of size
    lam*a for unused instance values a, each carrying only leaves (it
    does iff it has size - 1 children). So the groups form a partition: a
    root child's branches sum to lam*C, so its values sum to C, which with
    every value strictly between C/4 and C/2 makes them three, and n
    triples of distinct indices cover 1..3n. Structural mismatch raises
    ExtractionError."""
    base = inst.lam * inst.C + 1
    if len(tree.children) != inst.n:
        raise ExtractionError(f"root has {len(tree.children)} children, expected n = {inst.n}")
    unused: dict[int, list[int]] = {}
    for i, ai in enumerate(inst.a, start=1):
        unused.setdefault(ai, []).append(i)

    groups: list[list[int]] = []
    for child in tree.children:
        if child.size != base:
            raise ExtractionError(f"root child labeled {child.size}, expected lam*C+1 = {base}")
        group: list[int] = []
        for node in child.children:
            label = base + node.size
            val, rest = divmod(node.size, inst.lam)
            if rest:
                raise ExtractionError(f"label {label} is not lam*C+1+lam*a for any value")
            if not unused.get(val):
                raise ExtractionError(f"no unused instance value {val} for label {label}")
            if len(node.children) != node.size - 1:
                raise ExtractionError(
                    f"vertex labeled {label} has {len(node.children)} children, "
                    f"expected lam*a-1 = {node.size - 1} leaves"
                )
            group.append(unused[val].pop(0))
        groups.append(sorted(group))
    return groups
