"""Workload definitions: which `avpoly` jobs each benchmark workload runs.

A workload is a fixed list of *slots*. Each slot holds a few candidate
jobs of nearly equal cost; the seed picks one candidate per slot and
shuffles the order. So every seed gives different inputs (and output
bytes) while the work per run stays nearly constant, and the union of
all candidates -- the *universe* -- is finite, which is what lets
`golden.json` hold the expected exit code and stdout hash of every job
any seed can produce.

The program sees only the generated argv. Jobs run one at a time, each
in a fresh `python -m avpoly` process: the recurrence table and the
Catalan table are module-level caches, so every CLI user rebuilds them
cold, and so does the benchmark.

Workloads, and the layer metrics each one is meant to move
----------------------------------------------------------

``table``
    Recurrence consumers at large n: ``dist --n N`` (JSON or text) and
    ``curve --n N`` with N from 62 to 116, ``moments --n N`` with N in
    60..120 and ``checkfe --order K`` with K in 45..68. The
    `distribution` recurrence, `polyalg.Series` and big-output
    formatting do nearly all the work; `tree` and `inverse` are idle.
    This is where packing the recurrence into integers (Kronecker
    substitution) and a `Series` rewrite should show.

    - polyalg.catalan.calls, polyalg.Poly.mul.{calls,self_s},
      polyalg.Poly.add.{calls,self_s}, polyalg.Series.mul.{calls,self_s}
      -> wall_s (the cost of `checkfe`; near zero on other workloads)
    - distribution.recurrence_polys.self_s -> wall_s, job_s_tail
    - distribution.recurrence_table.{rows,bytes,max_bits} -> peak_rss_mb
    - distribution.series_check.self_s, distribution.curve.self_s,
      distribution.moment_report.self_s -> wall_s
    - cli.self_s, cli.out_bytes -> wall_s (`dist --n 116` prints ~0.4 MB)
    - cli.start_s, cli.parse_s -> setup_s; with 14 jobs in a round of
      about 8 s they are about 12% of wall_s, not under 5%

``crosscheck``
    The paper's three-way check at small n: for each seeded n, ``dist``
    with ``--method enum`` (n <= 11), ``--method closed`` (n <= 20) and
    ``--method rec``; the benchmark checks that the methods agree. Plus
    ``label`` on seeded random trees, one of them a path of about 10^4
    edges, and ``moments`` at small n. Enumeration and the closed-form
    walk dominate; the recurrence is trivial at these n; many jobs are
    short, so interpreter start shows in job_s_p50. `tree` serves as a
    parser and reader. A `table`-side change should not move it.

    - distribution.closed_form.{self_s,catalan_calls} -> job_s_tail, wall_s
    - distribution.enumeration.self_s, tree.enumerate_trees.{trees,self_s},
      tree.parse_tree.{calls,self_s}, tree.avalanche_poly.{calls,self_s},
      tree.label_tree.self_s -> wall_s
    - cli.start_s, cli.parse_s -> setup_s, job_s_p50

``inverse``
    The inverse problem and the 3-partition reduction: seeded valid
    instances with n = 1..3 at the default lambda = 3n+1 and at a small
    lambda, each run through ``reduce --with-partition`` and then
    ``invert --general`` on the polynomial `reduce` prints; perturbed
    polynomials with no tree (exit 1); polynomials of random trees with
    20..40 edges; one search capped by ``--budget`` (exit 4); and
    ``invert --height2`` on a height-2 polynomial of about 3*10^5
    vertices. `inverse` dominates and uses `tree` as a builder
    (`PlaneTree` construction, `encode`). Mixing the found, no_tree and
    budget outcomes makes a pruning change that helps one outcome and
    hurts another show in the per-outcome counters. Instances are chosen
    so that no single job sets wall_s.

    - inverse.solve_general.{self_s,found,no_tree,budget_exhausted,
      trees_built,useful_ratio} -> wall_s, job_s_tail
    - tree.PlaneTree.built, tree.PlaneTree.encode.{calls,self_s} -> wall_s
    - inverse.solve_height2.self_s, inverse.reduction.self_s -> wall_s
    - cli.start_s, cli.parse_s -> setup_s, job_s_p50

Every workload also runs ``moments --n 1`` several times to time
set-up (interpreter start, ``import avpoly.cli``, parser build):
that is setup_s.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("table", "crosscheck", "inverse")

SETUP_ARGS = ("moments", "--n", "1")


@dataclass
class Job:
    """One `python -m avpoly` invocation and what its output must satisfy."""

    kind: str                      # output check: dist, moments, curve, ...
    args: tuple                    # argv after `python -m avpoly`
    params: dict = field(default_factory=dict)  # facts the checks read
    files: tuple = ()              # (name, text) written to the job's cwd
    group: str = ""                # jobs of one group print one polynomial

    @property
    def key(self) -> str:
        """Stable name of the job in golden.json."""
        raw = "\0".join(self.args) + "\0\0" + "\0".join(n + "\0" + t for n, t in self.files)
        return hashlib.sha256(raw.encode()).hexdigest()[:24]

    def describe(self, width: int = 100) -> str:
        text = " ".join(self.args)
        return text if len(text) <= width else text[: width - 3] + "..."


def setup_job() -> Job:
    return Job("moments", SETUP_ARGS, {"n": 1, "format": "json"})


# ---------------------------------------------------------------------------
#  Job builders
# ---------------------------------------------------------------------------


def _dist(n: int, method: str = "rec", fmt: str = "json", group: str = "") -> Job:
    args = ("dist", "--n", str(n))
    if method != "rec":
        args += ("--method", method)
    if fmt != "json":
        args += ("--format", fmt)
    return Job("dist", args, {"n": n, "method": method, "format": fmt}, group=group)


def _moments(n: int, fmt: str = "json") -> Job:
    args = ("moments", "--n", str(n)) + (("--format", fmt) if fmt != "json" else ())
    return Job("moments", args, {"n": n, "format": fmt})


def _curve(n: int, precision: int = 12) -> Job:
    args = ("curve", "--n", str(n)) + (("--precision", str(precision)) if precision != 12 else ())
    return Job("curve", args, {"n": n, "precision": precision})


def _checkfe(order: int) -> Job:
    return Job("checkfe", ("checkfe", "--order", str(order)), {"order": order})


def _label(encoding: str) -> Job:
    return Job("label", ("label", encoding), {"encoding": encoding})


def _pairs_json(poly: dict) -> str:
    """A polynomial in the JSON pair form `avpoly reduce` prints."""
    return json.dumps([[e, str(c)] for e, c in sorted(poly.items())])


def _invert(poly: dict, mode: str = "general", budget: int | None = None) -> Job:
    args = ("invert", _pairs_json(poly), "--" + mode)
    if budget is not None:
        args += ("--budget", str(budget))
    return Job("invert", args, {"poly": poly, "mode": mode})


def _reduce(inst: dict, partition: list, poly: dict) -> Job:
    text = json.dumps(inst, sort_keys=True)
    name = "inst-" + hashlib.sha256(text.encode()).hexdigest()[:12] + ".json"
    args = ("reduce", name, "--with-partition", json.dumps(partition))
    return Job("reduce", args, {"instance": inst, "poly": poly}, files=((name, text),))


# ---------------------------------------------------------------------------
#  Seeded inputs the jobs are built from
# ---------------------------------------------------------------------------


def random_tree(rng: random.Random, edges: int) -> str:
    """Parenthesis encoding of a uniformly random plane tree (cycle lemma
    on a random sequence of `edges` up-steps and `edges + 1` down-steps)."""
    steps = [1] * edges + [-1] * (edges + 1)
    rng.shuffle(steps)
    # rotate to start just after the first minimum of the prefix sums
    low, low_at, height = 0, 0, 0
    for i, s in enumerate(steps):
        height += s
        if height < low:
            low, low_at = height, i + 1
    steps = steps[low_at:] + steps[:low_at]
    return "(" + "".join("(" if s > 0 else ")" for s in steps[:-1]) + ")"


def tree_poly(encoding: str) -> dict:
    """Avalanche polynomial of an encoding as {exponent: count}; the
    benchmark's own labeler, independent of avpoly."""
    size, opens = {}, []
    for j, ch in enumerate(encoding):
        if ch == "(":
            opens.append(j)
        else:
            i = opens.pop()
            size[i] = (j - i + 1) // 2
    counts: dict = {}
    labels: list = []
    for j, ch in enumerate(encoding):
        if ch == ")":
            labels.pop()
            continue
        label = labels[-1] + size[j] if labels else 0
        if labels:
            counts[label] = counts.get(label, 0) + 1
        labels.append(label)
    return counts


def three_partition(rng: random.Random, n: int, C: int) -> tuple[list, list]:
    """A valid instance (values strictly between C/4 and C/2, n triples
    of sum C, shuffled) and its partition as 1-based index triples."""
    values = []
    for _ in range(n):
        while True:
            x = rng.randint(C // 4 + 1, (C - 1) // 2)
            y = rng.randint(C // 4 + 1, (C - 1) // 2)
            z = C - x - y
            if 4 * z > C and 2 * z < C:
                values.append((x, y, z))
                break
    flat = [v for triple in values for v in triple]
    order = list(range(3 * n))
    rng.shuffle(order)
    a = [flat[i] for i in order]
    where = {old: new + 1 for new, old in enumerate(order)}
    partition = [[where[3 * t + k] for k in range(3)] for t in range(n)]
    return a, partition


def reduction_poly(n: int, C: int, a: list, lam: int) -> dict:
    """The reduction polynomial, from the paper's formula:
    n q^{lam C+1} + sum_i q^{lam C+1+lam a_i} + (lam a_i - 1) q^{lam C+lam a_i+2}."""
    base = lam * C + 1
    poly = {base: n}
    for ai in a:
        w = lam * ai
        poly[base + w] = poly.get(base + w, 0) + 1
        poly[base + w + 1] = poly.get(base + w + 1, 0) + w - 1
    return poly


def height2_poly(rng: random.Random, vertices: int) -> dict:
    """Polynomial of a tree of height <= 2 with about `vertices` vertices:
    root children of subtree size j, each with j - 1 leaf children."""
    poly: dict = {}
    total = 0
    while total < vertices:
        j, c = rng.randint(2, 40), rng.randint(1, 500)
        poly[j] = poly.get(j, 0) + c
        poly[j + 1] = poly.get(j + 1, 0) + c * (j - 1)
        total += c * j
    return poly


# ---------------------------------------------------------------------------
#  Slots
# ---------------------------------------------------------------------------

VARIANTS = 4  # candidates per slot built from pool randomness


def _pool(tag: str, k: int) -> random.Random:
    """Seed-independent randomness for the k-th candidate of a slot."""
    return random.Random(f"avpoly-bench:{tag}:{k}")


def _table_slots() -> list:
    # The seed varies output format and precision but not N: the cost
    # grows like N^5, so even N +- 1 would move a job's time by 4-8%.
    def dist(n):
        return [[_dist(n, fmt=fmt)] for fmt in ("json", "text")]

    def curve(n):
        return [[_curve(n, p)] for p in (10, 12, 14)]

    slots = [dist(116), dist(92), curve(84), [[_checkfe(68)]],
             dist(64), dist(68), dist(72), curve(62), curve(76),
             [[_checkfe(45)]], [[_checkfe(55)]]]
    for lo, hi, fmt in ((60, 79, "json"), (80, 99, "text"), (100, 120, "json")):
        slots.append([[_moments(n, fmt)] for n in range(lo, hi + 1)])
    return slots


def _crosscheck_slots() -> list:
    # n varies only where the jobs cost about the same (start-up
    # dominates); from n = 9 up the seed varies the output format only.
    def triples(*ns):
        return [[_dist(n, "enum", group=f"n={n}"), _dist(n, "closed", group=f"n={n}"),
                 _dist(n, "rec", fmt, group=f"n={n}")] for n in ns for fmt in ("json", "text")]

    def pairs(*ns):
        return [[_dist(n, "closed", group=f"n={n}"), _dist(n, "rec", fmt, group=f"n={n}")]
                for n in ns for fmt in ("json", "text")]

    slots = [triples(4, 5, 6), triples(7, 8), triples(9), triples(10), triples(11),
             pairs(12, 13, 14), pairs(15, 16), pairs(18), pairs(20)]
    for tag, lo, hi in (("a", 20, 60), ("b", 20, 60), ("c", 60, 200),
                        ("d", 60, 200), ("e", 200, 1000), ("f", 200, 1000)):
        cands = []
        for k in range(VARIANTS):
            rng = _pool("label-" + tag, k)
            cands.append([_label(random_tree(rng, rng.randint(lo, hi)))])
        slots.append(cands)
    slots.append([[_label("(" * e + ")" * e)] for e in (9990, 10000, 10010)])
    for lo, hi, fmt in ((1, 10, "json"), (1, 10, "text"), (11, 20, "json"), (11, 20, "text")):
        slots.append([[_moments(n, fmt)] for n in range(lo, hi + 1)])
    return slots


# Search costs are heavy-tailed, so for the costly shapes each slot lists
# the pool indices of candidates whose searches take within about 5% of
# each other (0.25-0.9 s each, measured in-process): the seed changes the
# inputs but not the work, and no single job sets wall_s.
REDUCTIONS = (  # (n, C, lambda or None for the default 3n+1, pool indices)
    (1, 26, None, range(4)),
    (1, 40, 2, range(4)),
    (2, 20, None, range(4)),
    (2, 26, None, (4, 5, 7, 8)),
    (2, 26, 2, range(4)),
    (3, 16, None, range(4)),
    (3, 20, None, (3, 5)),
    (3, 20, 3, range(4)),
)
TREES = ((20, 26, range(4)), (26, 32, range(4)), (32, 40, (0, 1, 11, 29)))  # edges
NO_TREES = ((20, 30, range(4)), (30, 40, (5, 24)))
BUDGET_SHAPE = (3, 26)  # (n, C) of searches that exhaust BUDGET
BUDGET = 200_000
BUDGET_PICKS = (1, 2, 3, 4)
HEIGHT2_VERTICES = 300_000
HEIGHT2_PICKS = (0, 1, 3, 5)


def _reduction_pair(rng, n, C, lam):
    a, partition = three_partition(rng, n, C)
    inst = {"n": n, "C": C, "a": a}
    if lam is not None:
        inst["lambda"] = lam
    poly = reduction_poly(n, C, a, lam if lam is not None else 3 * n + 1)
    return [_reduce(inst, partition, poly), _invert(poly)]


def _perturbed(poly: dict) -> dict:
    """Move one unit of the top coefficient one exponent higher."""
    out = dict(poly)
    top = max(out)
    out[top] -= 1
    if not out[top]:
        del out[top]
    out[top + 1] = out.get(top + 1, 0) + 1
    return out


def _inverse_slots() -> list:
    slots = []
    for n, C, lam, picks in REDUCTIONS:
        slots.append([_reduction_pair(_pool(f"reduce-{n}-{C}-{lam}", k), n, C, lam)
                      for k in picks])
    for lo, hi, picks in TREES:
        cands = []
        for k in picks:
            rng = _pool(f"tree-{lo}-{hi}", k)
            cands.append([_invert(tree_poly(random_tree(rng, rng.randint(lo, hi))))])
        slots.append(cands)
    for lo, hi, picks in NO_TREES:
        cands = []
        for k in picks:
            rng = _pool(f"notree-{lo}-{hi}", k)
            poly = _perturbed(tree_poly(random_tree(rng, rng.randint(lo, hi))))
            cands.append([_invert(poly)])
        slots.append(cands)
    n, C = BUDGET_SHAPE
    slots.append([[_invert(reduction_poly(n, C, three_partition(_pool("budget", k), n, C)[0],
                                          3 * n + 1), budget=BUDGET)] for k in BUDGET_PICKS])
    slots.append([[_invert(height2_poly(_pool("height2", k), HEIGHT2_VERTICES), "height2")]
                  for k in HEIGHT2_PICKS])
    return slots


_SLOTS = {"table": _table_slots, "crosscheck": _crosscheck_slots, "inverse": _inverse_slots}


def universe(workload: str) -> list[Job]:
    """Every job any seed can produce for `workload`."""
    return [job for slot in _SLOTS[workload]() for cand in slot for job in cand]


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's job list for `seed`: one candidate per slot, in a
    seeded order. Jobs of one candidate stay in order (reduce before
    invert)."""
    rng = random.Random(f"{workload}:{seed}")
    picked = [rng.choice(slot) for slot in _SLOTS[workload]()]
    rng.shuffle(picked)
    return [job for cand in picked for job in cand]
