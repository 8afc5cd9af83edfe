"""The inverse problem: from a polynomial back to a tree.

`solve_height2` is the greedy linear reconstruction for trees of height
at most 2. `solve_general` is an exhaustive budgeted backtracking search
over canonical trees (children sorted by subtree size, then encoding);
it runs on parenthesis encodings and builds trees only for solutions.
The remaining functions build and unpack the 3-partition reduction
instances whose polynomials force a unique solution tree shape.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple

from .polyalg import Poly
from .tree import PlaneTree, avalanche_poly, label_tree, parse_tree

__all__ = [
    "ThreePartitionInstance",
    "InverseResult",
    "InstanceValidationError",
    "PartitionError",
    "ExtractionError",
    "DEFAULT_BUDGET",
    "validate_instance",
    "solve_height2",
    "solve_general",
    "scaled_reduction_poly",
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


class ThreePartitionInstance:
    """3n values to split into n triples of equal sum C, with every value
    strictly between C/4 and C/2; `lam` scales the reduction polynomial
    (values and C are multiplied by lam) and defaults to 3n + 1."""

    def __init__(self, n: int, C: int, a, lam: int | None = None):
        self.n = n
        self.C = C
        self.a = tuple(a)
        self.lam = 3 * n + 1 if lam is None else lam


class InverseResult(namedtuple("InverseResult", "status trees attempts")):
    """Immutable search outcome: status is "found", "no_tree" or
    "budget_exhausted"; trees defaults to a new empty list; attempts
    counts the placements `solve_general` made."""

    __slots__ = ()

    def __new__(cls, status: str, trees: list[PlaneTree] | None = None, attempts: int = 0):
        return super().__new__(cls, status, [] if trees is None else trees, attempts)


def validate_instance(inst: ThreePartitionInstance):
    """Raise InstanceValidationError naming the first violated constraint."""
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
    counts = {}
    for e, c in poly.items():
        if c < 0:
            raise ValueError("polynomial must have nonnegative coefficients")
        counts[e] = c
    if counts.get(0):
        return InverseResult("no_tree")  # no non-root vertex can be labeled 0

    # trees are immutable, so one leaf and one branch per size j are shared
    leaf = PlaneTree()
    children: list[PlaneTree] = []
    for j in sorted(counts):
        c = counts[j]
        if c <= 0:
            continue  # fully consumed as leaves of the previous level
        if j > 1:
            need = c * (j - 1)
            if counts.get(j + 1, 0) < need:
                return InverseResult("no_tree")
            counts[j + 1] -= need
        children.extend([PlaneTree([leaf] * (j - 1))] * c)
        counts[j] = 0

    tree = PlaneTree(children)
    assert avalanche_poly(tree) == poly
    return InverseResult("found", [tree])


# ---------------------------------------------------------------------------
#  General backtracking search
# ---------------------------------------------------------------------------


class _BudgetExhausted(Exception):
    pass


def solve_general(poly: Poly, budget: int = DEFAULT_BUDGET) -> InverseResult:
    """Exhaustively search for every canonical tree whose avalanche
    polynomial is `poly`, within a budget of vertex placement attempts.

    A vertex labeled mu receives children of subtree size s only when the
    label mu+s is still unconsumed; children are generated in
    non-decreasing (size, encoding) order so each plane-tree orbit is
    visited once. The search runs on parenthesis encodings and builds a
    `PlaneTree` only for each solution. Returns all solutions when the
    search space closes; `budget_exhausted` reports any trees found
    before the cutoff. `attempts` counts the placements made.
    """
    avail = {}
    for e, c in poly.items():
        if c < 0:
            raise ValueError("polynomial must have nonnegative coefficients")
        avail[e] = c
    if avail.get(0):
        return InverseResult("no_tree")
    labels = sorted(avail)
    n_labels = len(labels)
    total = sum(avail.values())
    attempts = 0

    def forest(mu: int, room: int, lo_key):
        """Yield the concatenated encodings of canonical child sequences
        for a vertex labeled mu that must hold exactly `room` > 0
        descendant vertices, each sequence not below `lo_key`."""
        nonlocal attempts
        i = bisect_left(labels, mu + (lo_key[0] if lo_key else 1))
        last = mu + room
        while i < n_labels and labels[i] <= last:
            lbl = labels[i]
            i += 1
            if not avail[lbl]:
                continue
            if attempts >= budget:
                raise _BudgetExhausted
            attempts += 1
            avail[lbl] -= 1
            s = lbl - mu
            try:
                for kids in forest(lbl, s - 1, None) if s > 1 else ("",):
                    enc = "(" + kids + ")"
                    key = (s, enc)
                    if lo_key and key < lo_key:
                        continue
                    if s == room:
                        yield enc
                    else:
                        for rest in forest(mu, room - s, key):
                            yield enc + rest
            finally:
                avail[lbl] += 1

    found: list[str] = []
    exhausted = False
    try:
        for kids in forest(0, total, None) if total else ("",):
            found.append("(" + kids + ")")
    except _BudgetExhausted:
        exhausted = True

    found.sort()
    solutions = [parse_tree(enc) for enc in found]
    for tree in solutions:
        assert avalanche_poly(tree) == poly
    if exhausted:
        status = "budget_exhausted"
    else:
        status = "found" if solutions else "no_tree"
    return InverseResult(status, solutions, attempts)


# ---------------------------------------------------------------------------
#  3-partition reduction
# ---------------------------------------------------------------------------


def scaled_reduction_poly(n: int, C: int, a, lam: int) -> Poly:
    """The reduction polynomial assembled from raw values (no validation):

        n q^{lam C + 1}
        + sum_i q^{lam C + 1 + lam a_i}
        + sum_i (lam a_i - 1) q^{lam C + lam a_i + 2}

    Like terms merge; lam = 1 gives the unscaled form."""
    base = lam * C + 1
    pairs = [(base, n)]
    for ai in a:
        w = lam * ai
        pairs.append((base + w, 1))
        pairs.append((base + w + 1, w - 1))
    return Poly(pairs)


def reduction_poly(inst: ThreePartitionInstance) -> Poly:
    """Validated reduction polynomial of an instance."""
    validate_instance(inst)
    return scaled_reduction_poly(inst.n, inst.C, inst.a, inst.lam)


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
    validate_instance(inst)
    _validate_partition(inst, solution)
    lam = inst.lam
    groups = []
    for triple in solution:
        branches = []
        for idx in sorted(triple, key=lambda i: (inst.a[i - 1], i)):
            w = lam * inst.a[idx - 1]
            branches.append(PlaneTree(PlaneTree() for _ in range(w - 1)))
        groups.append(PlaneTree(branches))
    tree = PlaneTree(groups)
    assert avalanche_poly(tree) == reduction_poly(inst)
    return tree


def extract_partition(tree: PlaneTree, inst: ThreePartitionInstance) -> list[list[int]]:
    """Read a 3-partition solution off a tree whose avalanche polynomial
    equals the instance's reduction polynomial.

    Checks the full reduction shape while walking: n root children
    labeled lam*C+1, their children labeled lam*C+1+lam*a with the right
    leaf fan-outs, every group of a-values summing to C. Structural
    mismatch raises ExtractionError."""
    validate_instance(inst)
    lam, C, a = inst.lam, inst.C, inst.a
    base = lam * C + 1
    labeled = label_tree(tree)

    if len(labeled.children) != inst.n:
        raise ExtractionError(
            f"root has {len(labeled.children)} children, expected n = {inst.n}"
        )
    unused: dict[int, list[int]] = {}
    for i, ai in enumerate(a, start=1):
        unused.setdefault(ai, []).append(i)

    groups: list[list[int]] = []
    for child in labeled.children:
        if child.label != base:
            raise ExtractionError(
                f"root child labeled {child.label}, expected lam*C+1 = {base}"
            )
        group: list[int] = []
        for node in child.children:
            offset = node.label - base
            if offset <= 0 or offset % lam:
                raise ExtractionError(
                    f"label {node.label} is not lam*C+1+lam*a for any value"
                )
            val = offset // lam
            if not unused.get(val):
                raise ExtractionError(
                    f"no unused instance value {val} for label {node.label}"
                )
            if len(node.children) != lam * val - 1:
                raise ExtractionError(
                    f"vertex labeled {node.label} has {len(node.children)} "
                    f"children, expected lam*a-1 = {lam * val - 1}"
                )
            for leaf in node.children:
                if leaf.children or leaf.label != node.label + 1:
                    raise ExtractionError(
                        f"expected a leaf labeled {node.label + 1} under "
                        f"label {node.label}"
                    )
            group.append(unused[val].pop(0))
        if len(group) != 3:
            raise ExtractionError(f"group has {len(group)} members, expected 3")
        if sum(a[i - 1] for i in group) != C:
            raise ExtractionError(
                f"group {group} values sum to "
                f"{sum(a[i - 1] for i in group)}, expected C = {C}"
            )
        groups.append(sorted(group))
    if any(unused.values()):
        raise ExtractionError("some instance values were never matched")
    return groups
