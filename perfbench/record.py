"""Record golden.json: the exit code and stdout hash of every job any seed
can generate, run against the code in this checkout.

    python3 perfbench/record.py [WORKLOAD ...]

Run it only on a commit whose outputs are known good: the benchmark then
fails every job whose output changes. Each recorded output must also pass
the benchmark's own invariant checks, or nothing is written. Prints each
job's wall time, so the cost of every slot's candidates can be compared.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import run
import workloads


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    golden = run.load_golden() if argv and run.GOLDEN.exists() else {}
    runner = run.Runner()
    bad = 0
    for name in names:
        jobs = workloads.universe(name) + [workloads.setup_job()]
        runs = []
        for job in jobs:
            r = runner.run(job)
            runs.append(r)
            golden[job.key] = {"exit": r.code, "stdout_sha256": hashlib.sha256(r.out.encode()).hexdigest(),
                               "argv": job.describe()}
            print(f"{name:<10} {r.wall:7.3f}s exit={r.code} {job.describe(80)}", flush=True)
        for job, reason in zip(jobs, run.verify(jobs, runs, golden)):
            if reason:
                bad += 1
                print(f"INVARIANT FAILED {job.describe()}: {reason}", file=sys.stderr)
    if bad:
        return 1
    ctx = {"python": run.platform.python_version(), "recorded": time.strftime("%Y-%m-%d")}
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"recorded_with": ctx, "jobs": dict(sorted(golden.items()))}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
