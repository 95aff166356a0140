"""scripts/bench.py keeps the pairs it has run when a later run fails."""

import importlib.util
import json
import types
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_failed_run_keeps_completed_pairs(tmp_path, monkeypatch):
    bench = load_bench()
    names = [m["name"] for m in json.loads(
        (SCRIPT.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        if len(calls) == 3:  # the first run of the second pair
            raise bench.RunFailed(["perfbench/run.py"], -14, "killed")
        return {"correct": True, "failed": 0, "env": None,
                "metrics": dict.fromkeys(names, float(len(calls)))}

    # no checkout is exported: the fake runs never read it
    monkeypatch.setattr(bench, "run", fake_run)
    monkeypatch.setattr(bench.subprocess, "run",
                        lambda *a, **k: types.SimpleNamespace(stdout=b""))
    out = tmp_path / "bench.json"
    status = bench.main(["--workload", "lie-exact", "--pairs", "3",
                         "--seed", "7", "--rev", "HEAD", "--out", str(out)])
    assert status == 1 and len(calls) == 3
    report = json.loads(out.read_text())["lie-exact"]
    assert [(r["seed"], r["side"]) for r in report["runs"]] == [
        (7, "parent"), (7, "change")]
    assert report["failure"]["exit"] == -14
    assert report["failure"]["command"] == ["perfbench/run.py"]
    assert (report["failure"]["seed"], report["failure"]["side"]) == (
        8, "change")
    assert report["summary"]["wall_s"]["pairs"] == 1
