"""The avpoly benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload {table,crosscheck,inverse} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`. The seed picks the workload's job list (see workloads.py). Jobs
run one at a time in a closed loop with one client -- no parallel jobs
-- each as a real `python -m avpoly ...` process whose exit code and
stdout are checked against golden.json and against invariants the
benchmark computes itself (checks.py).

--trace 0 (end-to-end): a warm-up job, SETUP_REPS timed runs of
`moments --n 1` (setup_s, their median), then `rounds` repetitions of
the job list, where `rounds` follows from --seconds alone, so a run
always measures the same jobs (a run on a machine slower than SLOW_STOP
stops early, with at least one round). wall_s is the sum over the job
list of each job's median time over the rounds, job_s_p50 the median of
those per-job medians, job_s_tail a high percentile of all job samples.
Also prints peak_rss_mb and fail_frac.

--trace 1 (per layer): one untraced round, then one round in which every
job runs under tracer.py. Prints the per-layer metrics summed over the
traced round, and the tracing overhead (traced minus untraced round
time).

Times are in reference seconds. On a shared virtual machine a CPU's
speed can switch between full and about half speed within a fraction of
a second, and the mix drifts over minutes (measured on a 2-vCPU x86 VM),
which no amount of repetition within a run removes. So before and after
every job the benchmark process times a fixed CPU-bound probe (dict
updates and big-int products, like avpoly's work), and scales the job's
wall time by the mean of the two probe speeds, REF_PROBE_S / probe time:
the time the job would take at the speed where the probe takes
REF_PROBE_S. Raw wall times and the speed factors are printed too and
kept in the results file.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics with their units. The run's context and per-job records go
to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads
from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

# Time of one round of each job list in reference seconds; a run makes
# seconds / ROUND_S rounds, at least one.
ROUND_S = {"table": 8.0, "crosscheck": 6.0, "inverse": 6.0}
SLOW_STOP = 1.6  # start no round that would end after SLOW_STOP * seconds
SETUP_REPS = 15
REF_PROBE_S = 0.0075
PROBE_LOOPS = 40_000
JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # jobs still running then are killed, and fail
TAIL_BEYOND = 10

END_TO_END = {
    "wall_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "polyalg.catalan.calls": "count",
    "polyalg.Poly.mul.calls": "count",
    "polyalg.Poly.mul.self_s": "s",
    "polyalg.Poly.add.calls": "count",
    "polyalg.Poly.add.self_s": "s",
    "polyalg.Series.mul.calls": "count",
    "polyalg.Series.mul.self_s": "s",
    "distribution.recurrence_polys.self_s": "s",
    "distribution.recurrence_table.rows": "count",
    "distribution.recurrence_table.bytes": "bytes",
    "distribution.recurrence_table.max_bits": "bits",
    "distribution.series_check.self_s": "s",
    "distribution.curve.self_s": "s",
    "distribution.moment_report.self_s": "s",
    "distribution.closed_form.self_s": "s",
    "distribution.closed_form.catalan_calls": "count",
    "distribution.enumeration.self_s": "s",
    "tree.enumerate_trees.trees": "count",
    "tree.enumerate_trees.self_s": "s",
    "tree.parse_tree.calls": "count",
    "tree.parse_tree.self_s": "s",
    "tree.avalanche_poly.calls": "count",
    "tree.avalanche_poly.self_s": "s",
    "tree.label_tree.self_s": "s",
    "tree.PlaneTree.built": "count",
    "tree.PlaneTree.encode.calls": "count",
    "tree.PlaneTree.encode.self_s": "s",
    "inverse.solve_general.self_s": "s",
    "inverse.solve_general.found": "count",
    "inverse.solve_general.no_tree": "count",
    "inverse.solve_general.budget_exhausted": "count",
    "inverse.solve_general.trees_built": "count",
    "inverse.solve_general.useful_ratio": "ratio",
    "inverse.solve_height2.self_s": "s",
    "inverse.reduction.self_s": "s",
    "cli.start_s": "s",
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class JobRun:
    code: int | None  # None: killed at its timeout
    out: str
    err: str
    wall: float
    rss_mb: float
    scale: float = 1.0  # machine speed around the job relative to the reference

    @property
    def time(self) -> float:
        """Wall time in reference seconds."""
        return self.wall * self.scale


def speed_probe() -> float:
    """Seconds a fixed mix of dict updates and big-int products takes now."""
    start = time.perf_counter()
    acc: dict = {}
    x = 3 ** 600
    for i in range(PROBE_LOOPS):
        k = i % 89
        acc[k] = acc.get(k, 0) + x * (i + 1)
    return time.perf_counter() - start


def spawn(argv: list[str], cwd: Path, env: dict, timeout: float) -> JobRun:
    """Run one process to completion; time it from spawn to exit and read
    its peak RSS from wait4."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=cwd, env=dict(env, PERFBENCH_T0=repr(start)),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = start + timeout - time.monotonic()
            if left <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in sel.select(timeout=max(left, 0.05)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return JobRun(None if killed else proc.returncode,
                  b"".join(chunks[proc.stdout]).decode("utf-8", "replace"),
                  b"".join(chunks[proc.stderr]).decode("utf-8", "replace"),
                  wall, usage.ru_maxrss / 1024)


class Runner:
    """Runs jobs one at a time from a work directory in the checkout."""

    def __init__(self, deadline: float | None = None):
        self.work = OUT / "work"
        self.traces = OUT / "traces"
        self.work.mkdir(parents=True, exist_ok=True)
        self.traces.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("AVPOLY_ENUM_CAP", None)
        self.deadline = deadline

    def run(self, job: workloads.Job, trace_file: Path | None = None) -> JobRun:
        for name, text in job.files:
            path = self.work / name
            if not path.exists():
                path.write_text(text, encoding="utf-8")
        if trace_file is None:
            argv = [sys.executable, "-m", "avpoly", *job.args]
        else:
            trace_file.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_file), job.key, "--", *job.args]
        timeout = JOB_TIMEOUT_S
        if self.deadline is not None:
            timeout = max(1.0, min(timeout, self.deadline - time.monotonic()))
        return spawn(argv, self.work, self.env, timeout)

    def trace_file(self, i: int) -> Path:
        return self.traces / f"job-{i}.marshal"

    def batch(self, jobs, traced: bool = False) -> list[JobRun]:
        """Run jobs one after another, each between two speed probes."""
        runs = []
        before = speed_probe()
        for i, job in enumerate(jobs):
            r = self.run(job, self.trace_file(i) if traced else None)
            after = speed_probe()
            r.scale = REF_PROBE_S * (1 / before + 1 / after) / 2
            before = after
            runs.append(r)
        return runs


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def verify(jobs, runs, golden) -> list:
    """Reason each job failed, or None."""
    reasons = [checks.check_output(job, r.code, r.out, golden.get(job.key))
               for job, r in zip(jobs, runs)]
    grouped = checks.check_groups(jobs, [r.out for r in runs], [r is not None for r in reasons])
    return [r or ("methods disagree" if bad else None) for r, bad in zip(reasons, grouped)]


def tail(samples: list[float], planned: int) -> tuple[float, float]:
    """Value at the highest percentile that leaves TAIL_BEYOND of the
    `planned` samples above it, and that percentile. The percentile
    depends only on the planned count, so a run cut short reports the
    same percentile of fewer samples."""
    pct = 100.0 * max(planned - TAIL_BEYOND, 1) / planned
    ordered = sorted(samples)
    rank = max(math.ceil(pct / 100 * len(ordered) - 1e-9), 1)
    return ordered[rank - 1], pct


def layer_metrics(jobs, runs, files) -> dict:
    """Per-layer metrics summed over one traced round; times in reference
    seconds, scaled per job like the end-to-end times."""
    self_s: dict = defaultdict(float)
    calls: Counter = Counter()
    counters: Counter = Counter()
    table = {"rows": 0, "bytes": 0.0, "max_bits": 0}
    start_s = 0.0
    for trace_file, r in zip(files, runs):
        if not trace_file.exists():  # the job was killed; verify() counts it failed
            continue
        with open(trace_file, "rb") as fh:
            rec = marshal.load(fh)
        names = rec["names"]
        for (idx, *_), own in zip(rec["spans"], self_times(rec["spans"])):
            self_s[names[idx]] += own * r.scale
            calls[names[idx]] += 1
        counters.update(rec["counters"])
        start_s += rec["start_s"] * r.scale
        for k in table:  # the largest table any one job built
            table[k] = max(table[k], rec["table"][k])
    m = {
        "polyalg.catalan.calls": counters["polyalg.catalan.calls"],
        "tree.enumerate_trees.trees": counters["tree.enumerate_trees.yields"],
        "tree.PlaneTree.built": counters["tree.PlaneTree.built"],
        "distribution.closed_form.catalan_calls": counters["distribution.closed_form.catalan_calls"],
        "cli.start_s": start_s,
        "cli.parse_s": self_s["cli.main"],
        "cli.self_s": self_s["cli.cmd"],
        "cli.out_bytes": sum(len(r.out.encode()) for r in runs),
    }
    for name in ("polyalg.Poly.mul", "polyalg.Poly.add", "polyalg.Series.mul",
                 "tree.parse_tree", "tree.avalanche_poly", "tree.PlaneTree.encode"):
        m[name + ".calls"] = calls[name]
    for metric in PER_LAYER:
        if metric.endswith(".self_s") and metric not in m:
            m[metric] = self_s[metric.removesuffix(".self_s")]
    for k, v in table.items():
        m["distribution.recurrence_table." + k] = v
    for k in ("found", "no_tree", "budget_exhausted", "trees_built"):
        m["inverse.solve_general." + k] = counters["inverse.solve_general." + k]
    built = counters["inverse.solve_general.trees_built"]
    m["inverse.solve_general.useful_ratio"] = (
        counters["inverse.solve_general.solutions"] / built if built else 0.0)
    enum_trees = sum(checks.catalan(j.params["n"]) for j in jobs
                     if j.kind == "dist" and j.params["method"] == "enum")
    consistent = m["tree.enumerate_trees.trees"] == enum_trees
    full = {name: {"self_s": self_s[name], "calls": calls[name]} for name in sorted(calls)}
    return m, consistent, {"spans": full, "counters": dict(sorted(counters.items()))}


def context(args, extra: dict) -> dict:
    def commit():
        head = ROOT / ".git" / "HEAD"
        if not head.is_file():
            return "unknown (not a git checkout)"
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        if ref.startswith("ref: "):
            return ref_file.read_text().strip() if ref_file.is_file() else "unknown (packed ref)"
        return ref

    source = hashlib.sha256()
    for path in sorted((SRC / "avpoly").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "reference_probe_s": REF_PROBE_S, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "commit": commit(), "source_sha256": source.hexdigest(), **extra,
    }


def end_to_end(args, runner, jobs):
    planned = max(1, round(args.seconds / ROUND_S[args.workload]))
    setup = workloads.setup_job()
    all_jobs, all_runs = [setup], [runner.run(setup)]  # warm-up: byte-compile, fill caches
    probes = runner.batch([setup] * SETUP_REPS)
    all_jobs += [setup] * SETUP_REPS
    all_runs += probes
    started = time.monotonic()
    rounds: list[list[JobRun]] = []
    while len(rounds) < planned:
        elapsed = time.monotonic() - started
        if rounds and elapsed * (len(rounds) + 1) / len(rounds) > SLOW_STOP * args.seconds:
            break
        rounds.append(runner.batch(jobs))
        all_jobs += jobs
        all_runs += rounds[-1]
    runs = [r for rnd in rounds for r in rnd]
    samples = [r.time for r in runs]
    per_job = [statistics.median(times) for times in zip(*([r.time for r in rnd] for rnd in rounds))]
    tail_s, tail_pct = tail(samples, planned * len(jobs))
    metrics = {
        "wall_s": sum(per_job),
        "job_s_p50": statistics.median(per_job),
        "job_s_tail": tail_s,
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "setup_s": statistics.median(r.time for r in probes),
    }
    raw_wall = sum(statistics.median(times) for times in zip(*([r.wall for r in rnd] for rnd in rounds)))
    speed = statistics.median(r.scale for r in all_runs[1:])
    notes = {
        "wall_s": f"sum over {len(jobs)} jobs of each job's median over {len(rounds)} rounds; "
                  f"raw {raw_wall:.3f} s",
        "job_s_p50": f"median over {len(jobs)} jobs of each job's median",
        "job_s_tail": f"p{tail_pct:.1f} of {len(samples)} job samples ({TAIL_BEYOND} beyond)",
        "peak_rss_mb": "largest max-RSS of one job process",
        "setup_s": f"median of {SETUP_REPS} runs of `{' '.join(workloads.SETUP_ARGS)}`; "
                   f"raw {statistics.median(r.wall for r in probes):.4f} s",
    }
    extra = {"rounds": len(rounds), "planned_rounds": planned, "jobs_per_round": len(jobs),
             "tail_percentile": tail_pct, "tail_samples": len(samples),
             "raw_wall_s": raw_wall, "speed_factor_median": speed}
    return metrics, END_TO_END, notes, all_jobs, all_runs, extra, True


def traced(args, runner, jobs):
    plain_runs = runner.batch(jobs)
    runs = runner.batch(jobs, traced=True)
    files = [runner.trace_file(i) for i in range(len(jobs))]
    metrics, consistent, detail = layer_metrics(jobs, runs, files)
    wall, untraced_wall = sum(r.time for r in runs), sum(r.time for r in plain_runs)
    metrics.update({"trace.wall_s": wall, "trace.untraced_wall_s": untraced_wall,
                    "trace.overhead_s": wall - untraced_wall})
    notes = {"trace.overhead_s": f"{(wall - untraced_wall) / untraced_wall:+.0%} of the untraced round"}
    if not consistent:
        print("error: tree.enumerate_trees.trees differs from the sum of C_n over enum jobs",
              file=sys.stderr)
    extra = {"layers": detail, "speed_factor_median": statistics.median(r.scale for r in plain_runs + runs)}
    return metrics, PER_LAYER, notes, jobs + jobs, plain_runs + runs, extra, consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "avpoly" / "cli.py").is_file():
        print(f"perfbench: no avpoly source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    golden = load_golden()
    jobs = workloads.jobs_for(args.workload, args.seed)
    runner = Runner(deadline=time.monotonic() + RUN_LIMIT_S)
    mode = traced if args.trace else end_to_end
    metrics, units, notes, all_jobs, all_runs, extra, consistent = mode(args, runner, jobs)

    reasons = verify(all_jobs, all_runs, golden)
    failed = sum(r is not None for r in reasons)
    ctx = context(args, {"units": units, **{k: v for k, v in extra.items() if k != "layers"}})
    print(f"avpoly benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print("context: " + json.dumps(ctx))
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"  {name:<42} {metrics[name]:>14.6g} {unit:<6} {note}")
    if not args.trace:
        print(f"  {'fail_frac':<42} {failed / len(all_runs):>14.6g} {'ratio':<6} "
              f"{failed} of {len(all_runs)} jobs failed (exit code, output check or timeout)")
    seen = set()
    for job, reason in zip(all_jobs, reasons):
        if reason and job.key not in seen:
            seen.add(job.key)
            print(f"  FAILED {job.describe()}: {reason}")

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result_file = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "context": ctx,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "failed": failed, "attempted": len(all_runs),
        "jobs": [{"argv": j.describe(), "exit": r.code, "wall_s": r.wall, "scale": r.scale,
                  "rss_mb": r.rss_mb, "failure": reason} for j, r, reason in zip(all_jobs, all_runs, reasons)],
        **({"layers": extra["layers"]} if "layers" in extra else {}),
    }, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": len(all_runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
