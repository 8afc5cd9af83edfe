"""Run one avpoly CLI job under tracing, in a fresh interpreter.

    python perfbench/tracer.py OUT_FILE JOB_ID -- ARGS...

Imports `avpoly`, wraps the public functions of each module (and a few
methods) so that each call records a span (name, start, end, parent)
and hot functions only bump a counter, then calls
`avpoly.cli.main(ARGS)`. Spans and counters stay in memory until the job
ends, then go to OUT_FILE (marshal) for `run.py` to aggregate. Nothing in
the package changes: every layer is timed from outside at its entry
points. Stdout and the exit code are those of the untraced CLI.

The spawning process passes its clock reading at spawn time in
PERFBENCH_T0 (CLOCK_MONOTONIC is system-wide), so `start_s` covers
interpreter start and imports.
"""

from __future__ import annotations

import functools
import inspect
import marshal
import os
import sys
import time

clock = time.monotonic

MODULES = ("polyalg", "tree", "distribution", "inverse", "cli")

# Span names that group several public functions into one layer metric;
# a public function not listed here gets the span "<module>.<function>".
GROUPS = {
    "encode_tree": "tree.PlaneTree.encode",
    "distribution_by_enumeration": "distribution.enumeration",
    "distribution_by_recurrence": "distribution.recurrence_polys",
    "distribution_by_closed_form": "distribution.closed_form",
    "closed_coefficient": "distribution.closed_form",
    "first_moment_total": "distribution.moment_report",
    "mean_exact": "distribution.moment_report",
    "variance_exact": "distribution.moment_report",
    "avalanche_series": "distribution.series_check",
    "functional_equation_mismatch": "distribution.series_check",
    "verify_functional_equation": "distribution.series_check",
    "normalized_curve": "distribution.curve",
    "curve_csv_lines": "distribution.curve",
    "validate_instance": "inverse.reduction",
    "scaled_reduction_poly": "inverse.reduction",
    "reduction_poly": "inverse.reduction",
    "build_reduction_tree": "inverse.reduction",
    "extract_partition": "inverse.reduction",
}

# (module, class, method) -> span name
METHODS = {
    ("polyalg", "Poly", "__mul__"): "polyalg.Poly.mul",
    ("polyalg", "Poly", "__add__"): "polyalg.Poly.add",
    ("polyalg", "Series", "__mul__"): "polyalg.Series.mul",
    ("tree", "PlaneTree", "encode"): "tree.PlaneTree.encode",
    ("tree", "LabeledTree", "preorder_labels"): "tree.label_tree",
    ("tree", "LabeledTree", "label_counts"): "tree.label_tree",
}

# Hot functions: counted, not spanned.
COUNTED = {
    ("polyalg", None, "catalan"): "polyalg.catalan.calls",
    ("polyalg", "Poly", "__init__"): "polyalg.Poly.built",
    ("tree", "PlaneTree", "__init__"): "tree.PlaneTree.built",
}

# span name -> (counter, scoped counter): the counter's growth inside the
# outermost span of that name is added to the scoped counter.
SCOPED = {
    "distribution.closed_form": ("polyalg.catalan.calls", "distribution.closed_form.catalan_calls"),
    "inverse.solve_general": ("tree.PlaneTree.built", "inverse.solve_general.trees_built"),
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children
    cover. `spans` holds (name, start, end, parent index or -1)."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.current = -1
        self.cells: dict[str, list] = {}
        self.table: list = []

    def cell(self, name: str) -> list:
        return self.cells.setdefault(name, [0])

    def counters(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self.cells.items()}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def counted(self, name: str, fn):
        cell = self.cell(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spanned(self, name: str, fn, on_result=None):
        idx, spans = self.name_id(name), self.spans
        counter, scoped = SCOPED.get(name, (None, None))
        source = self.cell(counter) if counter else None
        target = self.cell(scoped) if scoped else None
        depth = [0]

        def enter():
            sid = len(spans)
            spans.append(None)
            parent, self.current = self.current, sid
            depth[0] += 1
            return sid, parent, source[0] if source else 0, clock()

        def leave(sid, parent, before, start):
            spans[sid] = (idx, start, clock(), parent)
            self.current = parent
            depth[0] -= 1
            if source and depth[0] == 0:
                target[0] += source[0] - before

        if inspect.isgeneratorfunction(fn):
            yields = self.cell(name + ".yields")

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(*frame)
                    yields[0] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(*frame)
            if on_result:
                on_result(result)
            return result

        return wrapper

    # -- result hooks -----------------------------------------------------

    def on_search(self, result):
        self.cell("inverse.solve_general." + result.status)[0] += 1
        self.cell("inverse.solve_general.solutions")[0] += len(result.trees)

    def on_table(self, table):
        if len(table) > len(self.table):
            self.table = table

    def table_stats(self) -> dict:
        """Size of the largest recurrence table returned; `bytes` is
        computed as the sum of coefficient bit lengths / 8."""
        bits = [c.bit_length() for poly in self.table for _, c in poly.items()]
        return {"rows": len(self.table), "bytes": sum(bits) / 8, "max_bits": max(bits, default=0)}

    def record(self, job_id: str, start_s: float) -> dict:
        return {"job": job_id, "names": self.names, "spans": self.spans,
                "counters": self.counters(), "start_s": start_s, "table": self.table_stats()}


def _replace(modules, old, new):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install(tracer: Tracer):
    """Wrap every public function of each avpoly module, the methods in
    METHODS and the counted functions; rebind each everywhere avpoly
    holds a reference to it."""
    import avpoly
    import avpoly.cli

    mods = {name: sys.modules["avpoly." + name] for name in MODULES}
    everywhere = [avpoly, *mods.values()]
    hooks = {"solve_general": tracer.on_search, "recurrence_polys": tracer.on_table}
    for (mod, cls, attr), counter in COUNTED.items():
        if cls is None:
            fn = getattr(mods[mod], attr)
            _replace(everywhere, fn, tracer.counted(counter, fn))
        else:
            klass = getattr(mods[mod], cls)
            setattr(klass, attr, tracer.counted(counter, vars(klass)[attr]))
    for mod in ("polyalg", "tree", "distribution", "inverse"):
        for attr in mods[mod].__all__:
            fn = getattr(mods[mod], attr)
            if inspect.isfunction(fn) and not hasattr(fn, "__wrapped__"):
                name = GROUPS.get(attr, f"{mod}.{attr}")
                _replace(everywhere, fn, tracer.spanned(name, fn, hooks.get(attr)))
    for (mod, cls, attr), name in METHODS.items():
        klass = getattr(mods[mod], cls)
        old = vars(klass)[attr]
        _replace([klass], old, tracer.spanned(name, old))  # also Poly.__rmul__
    cli = mods["cli"]
    for attr, fn in list(vars(cli).items()):
        if attr.startswith("cmd_") and inspect.isfunction(fn):
            setattr(cli, attr, tracer.spanned("cli.cmd", fn))
    cli.main = tracer.spanned("cli.main", cli.main)
    return cli


def main(argv: list[str]) -> int:
    out_file, job_id, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT_FILE JOB_ID -- ARGS...")
    import avpoly.cli  # noqa: F401 - the import is part of start-up

    start_s = clock() - float(os.environ.get("PERFBENCH_T0", clock()))
    tracer = Tracer()
    cli = install(tracer)
    try:
        return cli.main(args)
    finally:
        sys.stdout.flush()
        with open(out_file, "wb") as fh:
            marshal.dump(tracer.record(job_id, start_s), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
