"""Every committed BENCH_<pr>.json (written by tools/record_bench.py) is whole and correct."""

import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = {w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]}


def test_bench_records_are_complete_and_correct():
    paths = sorted(REPO.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert path.name == f"BENCH_{record['pr']}.json"
        assert len(record["git_head"]) == 40 and int(record["git_head"], 16) >= 0, path.name
        assert record["python"] and record["cpu_count"] >= 1, path.name
        assert set(record["workloads"]) == WORKLOADS, path.name
        for name, result in record["workloads"].items():
            assert (result["correct"], result["failed"]) == (True, 0), (path.name, name)
            assert result["metrics"]["queries_per_s"]["value"] > 0, (path.name, name)
