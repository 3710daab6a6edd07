"""logicrel benchmark: seeded workloads driven through logicrel.cli.run().

    python3 perfbench/run.py --workload corpus4 --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop with one client: the next query is sent
only after run() has returned the previous one.  Every answer (exit code and
stdout) is compared with the benchmark's own reference (reference.py), which
is computed before timing starts.

--trace 0 measures the end-to-end metrics for --seconds; set-up times, and
run() times on workloads marked `scaled`, are stated at a fixed reference
speed of the host (speed.py).  --trace 1 runs an untraced pass for half of
--seconds, then replays exactly the same queries with every public logicrel
entry point wrapped (spans.py), and reports the per-layer metrics and the
tracing overhead.  The raw spans of the traced pass
are written, after it ends, to .perfbench/spans-<workload>-<seed>.tsv.gz.  The
last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}; lines before it are human-readable detail.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import expected_run
from spans import Tracer
from speed import SpeedProbe
from workloads import WORKLOADS, Query

ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES = 11
# Candidate tail percentiles, in tenths of a percent; the highest one with at
# least ten samples beyond it is reported, or the maximum below 100 samples.
TAIL_PERMILLE = (999, 990, 900)
VERDICT_FUNCTIONS = (
    "equivalence.equivalent",
    "equivalence.entails",
    "equivalence.is_tautology",
    "equivalence.is_contradiction",
)


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)  # run() time, without the speed probe's
    intervals: list[tuple[float, float]] = field(default_factory=list)  # (start, end) of each run()
    forms: list[tuple[str, ...]] = field(default_factory=list)  # form_of() each run()
    answers: list[int] = field(default_factory=list)  # correct answers of each run()
    answered: int = 0  # correct answers
    attempted: int = 0
    failed: int = 0

    def scaled(self, probe: SpeedProbe) -> list[float]:
        """Latencies stated at the probe's reference speed."""
        return [lat * probe.scale(t0, t1) for lat, (t0, t1) in zip(self.latencies, self.intervals)]

    def queries_per_s(self, latencies: list[float]) -> float:
        """Correct answers per second of a mix that runs each form once.

        Weighing forms by how often they ran would make the figure depend on
        where the deadline fell: wide20 answers only about ten queries in 30 s.
        """
        by_form: dict[tuple[str, ...], list[float]] = {}
        for form, answers, lat in zip(self.forms, self.answers, latencies):
            calls, answered, busy = by_form.setdefault(form, [0, 0, 0.0])
            by_form[form] = [calls + 1, answered + answers, busy + lat]
        return (sum(answered / calls for calls, answered, _ in by_form.values())
                / sum(busy / calls for calls, _, busy in by_form.values()))


def form_of(q: Query) -> tuple[str, ...]:
    """The command and its flags: queries of one form differ only in their formulas."""
    return (q.argv[0], *(a for a in q.argv[1:] if a.startswith("-")))


def _load_program():
    """Import logicrel from this checkout's src/, or explain why not."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import logicrel
        import logicrel.cli
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import logicrel from {src}: {e}")
    if src not in Path(logicrel.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported logicrel from {logicrel.__file__}, not from {src}")
    return logicrel.__version__, logicrel.cli


# `cli.run` is looked up at each call, so that the traced pass reaches the wrapper.
def _call(cli, q: Query):
    stdin = io.StringIO(q.stdin) if q.stdin is not None else None
    return cli.run(list(q.argv), stdin)


def _report_mismatch(q: Query, want, got) -> None:
    print(
        f"perfbench: wrong answer for {' '.join(q.argv)[:200]!r}: "
        f"want code {want[0]} stdout {want[1][:200]!r}, got code {got[0]} stdout {got[1][:200]!r}",
        file=sys.stderr,
    )


def measure(cli, queries, expected, seconds: float | None = None, count: int | None = None,
            probe: SpeedProbe | None = None) -> PassResult:
    """Closed loop over the cycled pool, until `seconds` have passed or `count` queries were sent.

    With an active `probe`, the probe's own time inside each run() is left out of its latency.
    """
    res = PassResult()
    deadline = perf_counter() + seconds if seconds is not None else None
    i = 0
    while count is None or i < count:
        q, want = queries[i % len(queries)], expected[i % len(queries)]
        stdin = io.StringIO(q.stdin) if q.stdin is not None else None
        probe_s = probe.spent if probe else 0.0
        t0 = perf_counter()
        try:
            code, out, _ = cli.run(list(q.argv), stdin)
        except Exception:  # the loop must go on; the failure is reported and counted
            t1 = perf_counter()
            traceback.print_exc(limit=3)
            ok = False
        else:
            t1 = perf_counter()
            ok = (code, out) == want
            if not ok:
                _report_mismatch(q, want, (code, out))
        i += 1
        res.latencies.append(t1 - t0 - ((probe.spent if probe else 0.0) - probe_s))
        res.intervals.append((t0, t1))
        res.forms.append(form_of(q))
        res.answers.append(ok * q.weight)
        res.attempted += q.weight
        res.failed += 0 if ok else q.weight
        res.answered += ok * q.weight
        if deadline is not None and t1 >= deadline:
            break
    return res


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest candidate percentile with >= 10 samples beyond it, else the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERMILLE:
        rank = -(-p * n // 1000)  # nearest rank: ceil(p/1000 * n)
        if n - rank >= 10:
            return p / 10, ordered[rank - 1]
    return 100.0, ordered[-1]


def setup_seconds(warmup: tuple[Query, ...]) -> tuple[list[float], list[float]]:
    """Fresh-interpreter import of logicrel.cli plus the warm-up pass, in sequential child processes.

    Returns the raw times and the same times at the reference speed.
    """
    payload = json.dumps([[list(q.argv), q.stdin] for q in warmup])
    times, intervals = [], []
    with SpeedProbe() as probe:
        for _ in range(SETUP_PROBES):
            t0 = perf_counter()
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "setup_probe.py")],
                input=payload, capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
            )
            intervals.append((t0, perf_counter()))
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times, [t * probe.scale(*interval) for t, interval in zip(times, intervals)]


def deep_probes(cli, deep: tuple[Query, ...], version: str) -> tuple[int, bool]:
    """Inputs nested past Python's recursion limit: (RecursionErrors raised, all answers acceptable).

    A RecursionError, a limit error (exit 3, empty stdout) or the reference
    answer are acceptable; anything else is a wrong answer.
    """
    recursion_errors, ok = 0, True
    for q in deep:
        want = expected_run(list(q.argv), q.stdin, version)
        try:
            code, out, _ = _call(cli, q)
        except RecursionError:
            recursion_errors += 1
            continue
        if (code, out) != want and not (code == 3 and out == ""):
            _report_mismatch(q, want, (code, out))
            ok = False
    return recursion_errors, ok


def _per_query(value: float, answered: float) -> float:
    return value / answered if answered else 0.0


def layer_metrics(summary: dict, answered: float, overhead: float, recursion_errors: int) -> dict:
    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    parse_total = get("parser.parse", "total_s")
    per_query = {
        "parser.parse.calls": ("calls/query", get("parser.parse", "calls")),
        "parser.parse.self_s": ("s/query", get("parser.parse", "self_s")),
        "formula.letters.calls": ("calls/query", get("formula.letters", "calls")),
        "formula.letters.self_s": ("s/query", get("formula.letters", "self_s")),
        "formula.universe_of.self_s": ("s/query", get("formula.Universe.of", "self_s")),
        "limits.max_letters.calls": ("calls/query", get("limits.max_letters", "calls")),
        "semantics.truth_table.calls": ("calls/query", get("semantics.truth_table", "calls")),
        "semantics.truth_table.self_s": ("s/query", get("semantics.truth_table", "self_s")),
        "semantics.truth_table.rows": ("rows/query", get("semantics.truth_table", "rows")),
        "semantics.eliminate_implications.calls": ("calls/query", get("semantics.eliminate_implications", "calls")),
        "semantics.eliminate_implications.self_s": ("s/query", get("semantics.eliminate_implications", "self_s")),
        "equivalence.verdicts.self_s": ("s/query", sum(get(name, "self_s") for name in VERDICT_FUNCTIONS)),
        "relation.criteria_report.self_s": ("s/query", get("relation.criteria_report", "self_s")),
        "relation.classify_relation.self_s": ("s/query", get("relation.classify_relation", "self_s")),
        "cli.run.self_s": ("s/query", get("cli.run", "self_s")),
        "cli.build_parser.self_s": ("s/query", get("cli.build_parser", "self_s")),
        "cli.build_parser.calls": ("calls/query", get("cli.build_parser", "calls")),
        "cli.stdout_bytes": ("bytes/query", get("cli.run", "stdout_bytes")),
    }
    metrics = {name: {"value": _per_query(v, answered), "unit": unit} for name, (unit, v) in per_query.items()}
    metrics["parser.parse.chars_per_s"] = {
        "value": get("parser.parse", "chars") / parse_total if parse_total else 0.0, "unit": "chars/s"}
    metrics["semantics.tables_per_query"] = {
        "value": _per_query(get("semantics.truth_table", "calls"), answered), "unit": "tables/query"}
    metrics["trace.overhead_share"] = {"value": overhead, "unit": "ratio"}
    metrics["cli.run.recursion_errors"] = {"value": recursion_errors, "unit": "count"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    version, cli = _load_program()
    workload = WORKLOADS[args.workload](args.seed)
    expected = [expected_run(list(q.argv), q.stdin, version) for q in workload.queries]
    correct = True

    setup_raw, setup = setup_seconds(workload.warmup)
    for q in workload.warmup:
        got = _call(cli, q)[:2]
        want = expected_run(list(q.argv), q.stdin, version)
        if got != want:
            _report_mismatch(q, want, got)
            correct = False
    recursion_errors, deep_ok = deep_probes(cli, workload.deep, version)
    correct = correct and deep_ok
    print(f"{workload.name} seed {args.seed}: pool of {len(workload.queries)} queries; "
          f"deep probes: {recursion_errors} of {len(workload.deep)} raised RecursionError")
    # The input pool and expected answers stay alive for the whole run.  Frozen,
    # they are not scanned by the collections that run() sets off, which then
    # cost what they would in a CLI process holding only its own objects.
    gc.collect()
    gc.freeze()

    if args.trace == 0:
        if workload.scaled:
            with SpeedProbe() as probe:
                res = measure(cli, workload.queries, expected, seconds=args.seconds, probe=probe)
            latencies = res.scaled(probe)
            print(f"{len(probe.took)} speed samples, kernel median {statistics.median(probe.took) * 1e3:.4f} ms")
        else:
            res = measure(cli, workload.queries, expected, seconds=args.seconds)
            latencies = res.latencies
            print("run() times not scaled on this workload")
        tail_p, tail_s = tail(latencies)
        print(f"{len(latencies)} run() calls; latency_tail_ms is p{tail_p:g} of {len(latencies)} samples")
        print(f"raw, not scaled: queries_per_s {res.queries_per_s(res.latencies):.6g}, "
              f"latency_p50_ms {statistics.median(res.latencies) * 1e3:.6g}, "
              f"latency_tail_ms {tail(res.latencies)[1] * 1e3:.6g}, setup_s {statistics.median(setup_raw):.6g}")
        print(f"setup probes at reference speed (s): {' '.join(f'{t:.4f}' for t in setup)}")
        metrics = {
            "queries_per_s": {"value": res.queries_per_s(latencies), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        attempted, failed = res.attempted, res.failed
    else:
        plain = measure(cli, workload.queries, expected, seconds=args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(cli, workload.queries, expected, count=len(plain.latencies))
        finally:
            tracer.uninstall()
        summary = tracer.summarize()
        spans_dir = ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"spans-{workload.name}-{args.seed}.tsv.gz")
        query_s = sum(traced.latencies)
        overhead = 1 - sum(plain.latencies) / query_s
        print(f"traced {len(traced.latencies)} run() calls, {len(tracer.start)} spans; self time per function:")
        for name, s in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
            if s["calls"]:
                print(f"  {name:36s} calls {s['calls']:8d}  self {s['self_s']:10.4f} s  "
                      f"{100 * s['self_s'] / query_s:6.2f}% of query time")
        metrics = layer_metrics(summary, traced.answered, overhead, recursion_errors)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed

    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
