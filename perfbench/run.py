"""The odegeom benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the engine is imported from its ``src``.
Every pass and the stream run in child processes (perfbench/worker.py); this
process only starts them one at a time, waits for each, checks verdicts and
aggregates.  Workloads:

* catalog-symbolic: the 25 non-Lie catalog entries, one ``run_entry`` each,
  in a fresh interpreter per pass (the process-wide expression caches start
  cold, as for one CLI call).  Work: expression construction, exterior and
  curvature assembly, zero-test evaluation; the exact Lie layer is idle.
* lie-exact: the 5 Lie catalog entries, a fresh interpreter per pass.  All
  the work is exact Q(sqrt 3) algebra, which imports nothing from ``expr``,
  so a symbolic optimisation should change nothing here.
* stream-distinct: one long-lived process fed distinct defining functions
  from three families with closed-form verdicts (see stream.py); one formula
  in four repeats an earlier one, so the caches see inserts and reads.  A
  pass is 192 formulas, and later passes continue the stream.

Every time is scaled to a reference host (calib.py): calibration units
that share no code with the engine are timed every quarter second, inside
operations as well as between them, and each stretch of an operation is
divided by how much slower than on the reference host the units on either
side of it ran, so the host's drifting speed cancels out; the time spent on
units is left out.  The unscaled wall time and the host's slowness are
printed on a '#' line.

An operation's time is its median over the run's untraced passes that ran
it (a catalog entry runs once per pass, a stream formula once);
``verdict_p50_s`` and ``verdict_p90_s`` are interpolated quantiles of these
times, and ``wall_s`` is the median pass.

Every verdict is checked against the catalog's expectations or the
closed-form oracles of stream.py.  A run is correct only if no verdict is
wrong, no operation raises an error other than the BoxError that
``stream.may_fail`` predicts, and every catalog pass started cold.

The last line of output is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics from passes run
under the tracer, alternating with untraced ones to give the tracing
overhead.  Lines before it, starting with '#', record the machine
and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

import stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog-symbolic", "lie-exact", "stream-distinct")
# extra set-up-only processes per run, so set-up time is a median
SETUP_PROBES = 3
# no child may run past this many seconds after the start of the run
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def quantile(values, p):
    """Linearly interpolated quantile (the 'inclusive' method): catalog
    entry times have gaps between them, where a nearest-rank percentile
    jumps from one entry to the next when two swap places."""
    ordered = sorted(values)
    pos = p * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def median(values):
    return statistics.median(values) if values else 0.0


def stop_group(proc):
    """Kill the process group led by proc and wait until none of it is
    left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = perf_counter() + 5.0
    while perf_counter() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        sleep(0.05)


class Runner:
    def __init__(self, args):
        self.args = args
        self.t_start = perf_counter()
        # a fixed hash seed keeps set and dict orders, and so the work done,
        # the same from one process to the next
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")
        self.env.pop("ODEGEOM_CONFIG", None)

    def elapsed(self):
        return perf_counter() - self.t_start

    def worker(self, mode, trace=0, seconds=0.0) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--mode", mode, "--trace", str(trace), "--seconds", f"{seconds:.3f}"]
        # the worker and its calibration process form a process group of
        # their own, so a worker out of time is stopped with its child
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired as exc:
            stop_group(proc)
            raise BenchError(f"worker ran out of time: {' '.join(cmd)}") from exc
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"worker failed ({proc.returncode}): {' '.join(cmd)}\n"
                             f"{err}")
        return json.loads(out.strip().splitlines()[-1])

    def passes(self) -> list:
        """Cold passes, each in a fresh process, while the next one is
        expected to end within the time budget (two at least when traced,
        untraced and traced in turn)."""
        out = []
        longest = 0.0
        while True:
            traced = self.args.trace and len(out) % 2 == 1
            t0 = perf_counter()
            out.append(self.worker("pass", trace=int(traced)))
            longest = max(longest, perf_counter() - t0)
            if self.args.trace and len(out) < 2:
                continue
            if self.elapsed() + longest > self.args.seconds:
                return out


def summarize(args, entry_ids, setups, passes, rss, not_cold):
    """The result object, plus lines of context printed before it."""
    notes = {}
    if not_cold:
        notes["not cold"] = [f"{p['intern_at_start']} interned nodes at the "
                             f"start, {p['intern_at_import']} after import"
                             for p in not_cold]
    ops = [(op, p["layers"] is not None) for p in passes for op in p["ops"]]
    walls = [p["wall_s"] for p in passes if p["layers"] is None]
    traced_walls = [p["wall_s"] for p in passes if p["layers"] is not None]
    layers = [p["layers"] for p in passes if p["layers"] is not None]
    attempted = len(ops)
    failed = [op for op, _ in ops if op[2] != "ok"]
    # a wrong verdict, or an error the oracles do not predict, makes the
    # run incorrect; every failure counts in pass_ratio
    unexpected = [op for op in failed if not expected_failure(op)]
    if unexpected:
        notes["unexpected"] = [f"{op[0]}: {op[2]}" for op in unexpected[:5]]
    # an operation's time is its median over the untraced passes that ran it
    op_s = {}
    for op, traced in ops:
        if not traced:
            op_s.setdefault(op[0], []).append(op[1])
    plain = [median(v) for v in op_s.values()]
    notes["samples"] = {"setup": len(setups), "passes": len(walls),
                        "traced_passes": len(traced_walls),
                        "verdicts": sum(map(len, op_s.values())),
                        "operations": len(plain)}
    notes["unscaled"] = {
        "host_slowness": median([p["slowness"] for p in passes]),
        "wall_s": median([p["raw_wall_s"] for p in passes if p["layers"] is None])}
    if failed:
        kinds = {}
        for op in failed:
            kinds.setdefault(op[2].split(":")[0], []).append(op[0])
        notes["failed"] = {k: f"{len(v)}, e.g. {v[:3]}" for k, v in kinds.items()}

    if args.trace:
        metrics = {k: (median([m[k] for m in layers]), unit_of(k))
                   for k in layers[0]}
        for entry_id in entry_ids:
            metrics[f"catalog.entry.{entry_id}.s"] = \
                (median(op_s.get(entry_id, [])), "s")
        metrics["trace.overhead_s"] = (median(traced_walls) - median(walls), "s")
    else:
        metrics = {
            "setup_s": (median(setups), "s"),
            "wall_s": (median(walls), "s"),
            "verdict_p50_s": (quantile(plain, 0.5), "s"),
            "verdict_p90_s": (quantile(plain, 0.9), "s"),
            "pass_ratio": ((attempted - len(failed)) / attempted, "ratio"),
            "peak_rss_mb": (rss, "MB"),
        }
    result = {"correct": not unexpected and not not_cold, "attempted": attempted,
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return notes, result


def expected_failure(op) -> bool:
    """A BoxError on a formula the oracles flag (stream.may_fail)."""
    return op[3] and op[2].startswith("BoxError:")


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="odegeom benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "odegeom" / "__init__.py").is_file():
        print(f"no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    entries = {e["id"]: e for e in
               json.loads((HERE / "catalog_entries.json").read_text())["entries"]}
    problems = stream.self_check(entries)
    if problems:
        print("closed-form oracles disagree with the catalog:\n  "
              + "\n  ".join(problems), file=sys.stderr)
        return 1

    runner = Runner(args)
    try:
        probes = [runner.worker("setup") for _ in range(SETUP_PROBES)]
        if args.workload == "stream-distinct":
            out = runner.worker("stream", trace=args.trace,
                                seconds=args.seconds - runner.elapsed())
            passes, rss, not_cold = out["passes"], out["rss_mb"], []
            setups = [out["setup_s"]]
        else:
            passes = runner.passes()
            rss = median([p["rss_mb"] for p in passes])
            not_cold = [p for p in passes if not p["cold"]]
            setups = [p["setup_s"] for p in passes]
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    setups += [p["setup_s"] for p in probes]
    notes, result = summarize(args, list(entries), setups, passes, rss, not_cold)
    env = {"python": platform.python_version(),
           "mpmath_backend": probes[0]["backend"],
           "nproc": len(os.sched_getaffinity(0))}
    print("# env " + json.dumps(env))
    for key, value in notes.items():
        print(f"# {key} " + json.dumps(value))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
