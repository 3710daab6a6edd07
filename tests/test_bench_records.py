"""Every committed BENCH_<pr>.json (written by tools/record_bench.py) is whole and correct,
and the recorder refuses to measure code that differs from the revision it names."""

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

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


class _BenchmarkStarted(Exception):
    pass


def _record_bench(monkeypatch, status: str):
    """tools/record_bench.py with subprocess.run faked: git status prints `status`,
    and any other command, a benchmark run, raises _BenchmarkStarted."""
    spec = importlib.util.spec_from_file_location("record_bench", REPO / "tools" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []

    def run(argv, **kwargs):
        calls.append(argv)
        if argv[:2] == ["git", "status"]:
            return subprocess.CompletedProcess(argv, 0, stdout=status, stderr="")
        raise _BenchmarkStarted(argv)

    monkeypatch.setattr(module, "subprocess", SimpleNamespace(run=run))
    return module, calls


def test_record_bench_refuses_uncommitted_measured_code(monkeypatch, capsys):
    record_bench, calls = _record_bench(monkeypatch, " M src/logicrel/parser.py\n?? tools/new.py\n")
    assert record_bench.main(["11"]) == 2
    assert calls == [["git", "status", "--porcelain", "--", "src", "perfbench", "tools", "BENCHMARK.json"]]
    err = capsys.readouterr().err
    assert "src/logicrel/parser.py" in err and "tools/new.py" in err


def test_record_bench_runs_the_workloads_on_committed_code(monkeypatch):
    record_bench, calls = _record_bench(monkeypatch, "")
    with pytest.raises(_BenchmarkStarted) as started:
        record_bench.main(["11"])
    assert "perfbench/run.py" in started.value.args[0] and len(calls) == 2
