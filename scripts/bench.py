#!/usr/bin/env python3
"""Compare the end-to-end benchmark of two checkouts in alternating pairs.

    python3 scripts/bench.py --workload stream-distinct --pairs 10 \\
        --seed 9601 --rev HEAD~1 --out BENCH_6.json

Runs the benchmark of BENCHMARK.json (perfbench/run.py, unchanged) for its
run_seconds on the parent revision REV, exported with `git archive` into a
temporary directory, and on this working tree, exported as well (its
tracked files and its untracked files that git does not ignore), so that
both sides start from fresh directories; one run after the other with the
same seed; the side that runs first alternates from pair to pair, and
every pair has a seed of its own (seed, seed + 1, ...).  The output file keeps the runs of every workload
benchmarked into it so far: per run its seed, side, correctness and
metrics, and per metric the median and quartiles of each side, the number
of pairs the working tree won, the distance between the medians and the
parent's interquartile range.  When a run fails, the pairs done so far are
written, with the failing command and its exit status under that
workload's "failure", and the script exits 1; nothing is retried.  When
stopped by SIGTERM, it kills the running benchmark, removes both exports
and exits 143 without writing the output file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class RunFailed(Exception):
    """A benchmark run that exited nonzero or printed nothing."""

    def __init__(self, cmd: list, returncode: int, stderr: str):
        super().__init__(f"{' '.join(cmd)} failed ({returncode}):\n{stderr}")
        self.cmd, self.returncode, self.stderr = cmd, returncode, stderr


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(cmd, proc.returncode, proc.stderr)
    out = json.loads(lines[-1])
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), None)
    return {"correct": out["correct"], "failed": out["failed"], "env": env,
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def export_worktree(root: Path, dest: Path) -> None:
    """Copy the working tree of the git checkout `root` into `dest`: the
    tracked files that exist and the untracked files git does not ignore."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, check=True).stdout
    for name in dict.fromkeys(listed.decode().split("\0")):
        src = root / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def summarize(runs: list, better: dict) -> dict:
    """Medians, quartiles and wins per metric over the pairs of runs."""
    pairs = {}
    for r in runs:
        pairs.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
    pairs = [p for p in pairs.values() if len(p) == 2]
    if not pairs:
        return {}
    out = {}
    for name, direction in better.items():
        sides = {s: [p[s][name] for p in pairs] for s in ("parent", "change")}
        stats = {}
        for side, values in sides.items():
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
                if len(values) > 1 else values * 3
            stats[side] = {"median": med, "q1": q1, "q3": q3}
        sign = -1 if direction == "lower" else 1
        stats["wins"] = sum(sign * (c - p) > 0
                            for p, c in zip(sides["parent"], sides["change"]))
        stats["pairs"] = len(pairs)
        stats["median_change"] = stats["change"]["median"] - stats["parent"]["median"]
        stats["parent_iqr"] = stats["parent"]["q3"] - stats["parent"]["q1"]
        out[name] = stats
    return out


def stop(signum, frame):
    """Turn SIGTERM into SystemExit, so that `subprocess.run` kills its
    child and `TemporaryDirectory` removes the exports on the way out."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rev", required=True,
                    help="git revision to export as the parent")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    report = json.loads(args.out.read_text()) if args.out.exists() else {}

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        runs, failure = compare(args, seconds)
    finally:
        signal.signal(signal.SIGTERM, previous)

    report[args.workload] = {"seconds": seconds, "runs": runs,
                             "summary": summarize(runs, better)}
    if failure:
        report[args.workload]["failure"] = failure
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failure else 0


def compare(args, seconds: float) -> tuple:
    """The runs of every pair on fresh exports of both sides, and the
    failure that ended them early, or None."""
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for path in sides.values():
            path.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", sides["parent"]], input=archive,
                       check=True)
        export_worktree(ROOT, sides["change"])
        runs, failure = [], None
        try:
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    r = run(sides[side], args.workload, seed, seconds)
                    runs.append({"pair": i, "seed": seed, "side": side, **r})
                    print(f"{args.workload} pair {i} seed {seed} {side}: "
                          f"wall_s {r['metrics']['wall_s']:.4f} "
                          f"correct {r['correct']}", file=sys.stderr)
        except RunFailed as err:
            print(err, file=sys.stderr)
            failure = {"pair": i, "seed": seed, "side": side,
                       "command": err.cmd, "exit": err.returncode,
                       "stderr": err.stderr}
    return runs, failure


if __name__ == "__main__":
    sys.exit(main())
