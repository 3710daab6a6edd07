"""Record the benchmark for one change: python3 tools/record_bench.py <pr-number>

Runs perfbench/run.py with --trace 0 on each workload that BENCHMARK.json
declares, at a fixed seed, for its run_seconds, one workload after another.
Writes BENCH_<pr-number>.json at the repository root: each workload's result
line, the git revision the tree was checked out at, the Python version and
the CPU count.  Exits 1 if any workload answered wrongly or failed a query.
Exits 2, before any workload runs, if src, perfbench, tools or BENCHMARK.json
differ from the checked-out revision, since the record would name a revision
other than the code it measured.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
MEASURED = ("src", "perfbench", "tools", "BENCHMARK.json")


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    pr = int(argv[0])
    changed = subprocess.run(
        ["git", "status", "--porcelain", "--", *MEASURED],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    if changed:
        print(f"refusing to record: uncommitted changes in the measured code\n{changed}",
              file=sys.stderr, end="")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        workloads[workload] = json.loads(done.stdout.splitlines()[-1])
        print(f"{workload}: {json.dumps(workloads[workload])}")
    record = {
        "pr": pr,
        "git_head": subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "run_seconds": seconds,
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{pr}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    ok = all(r["correct"] is True and r["failed"] == 0 for r in workloads.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
