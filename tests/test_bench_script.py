"""scripts/bench.py keeps the pairs it has run when a later run fails,
runs both sides from exports, not from the working tree itself, and removes
the exports when stopped by SIGTERM."""

import importlib.util
import json
import os
import signal
import subprocess
import types
from pathlib import Path

import pytest

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
    # each side runs in an export of its own
    assert calls[0][0] != calls[1][0]
    assert bench.ROOT not in (calls[0][0], calls[1][0])
    report = json.loads(out.read_text())["lie-exact"]
    assert [(r["seed"], r["side"]) for r in report["runs"]] == [
        (7, "parent"), (7, "change")]
    assert report["failure"]["exit"] == -14
    assert report["failure"]["command"] == ["perfbench/run.py"]
    assert (report["failure"]["seed"], report["failure"]["side"]) == (
        8, "change")
    assert report["summary"]["wall_s"]["pairs"] == 1


def test_sigterm_removes_both_exports(tmp_path, monkeypatch):
    bench = load_bench()
    seen = []

    def fake_run(checkout, workload, seed, seconds):
        seen.append(checkout)
        assert checkout.is_dir()
        os.kill(os.getpid(), signal.SIGTERM)
        raise AssertionError("SIGTERM did not stop the comparison")

    monkeypatch.setattr(bench, "run", fake_run)
    monkeypatch.setattr(bench.subprocess, "run",
                        lambda *a, **k: types.SimpleNamespace(stdout=b""))
    before = signal.getsignal(signal.SIGTERM)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as stopped:
        bench.main(["--workload", "lie-exact", "--pairs", "2", "--seed", "7",
                    "--rev", "HEAD", "--out", str(out)])
    assert stopped.value.code == 128 + signal.SIGTERM
    [parent] = seen
    assert parent.name == "parent"
    assert not parent.parent.exists()  # the temporary directory is gone
    assert not out.exists()
    assert signal.getsignal(signal.SIGTERM) is before


def test_export_worktree_copies_tracked_and_unignored_files(tmp_path):
    bench = load_bench()
    repo = tmp_path / "repo"
    (repo / "sub").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", *args], cwd=repo, check=True,
                       capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "tracked.py").write_text("staged")
    (repo / "gone.py").write_text("deleted after staging")
    git("add", ".gitignore", "tracked.py", "gone.py")
    (repo / "tracked.py").write_text("edited")
    (repo / "gone.py").unlink()
    (repo / "sub" / "new.py").write_text("untracked")
    (repo / "run.log").write_text("ignored")
    dest = tmp_path / "dest"
    dest.mkdir()
    bench.export_worktree(repo, dest)
    files = sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*")
                   if p.is_file())
    assert files == [".gitignore", "sub/new.py", "tracked.py"]
    assert (dest / "tracked.py").read_text() == "edited"
