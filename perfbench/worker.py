"""One benchmark process.

Imports the engine from the checkout's ``src``, builds the inputs of one
workload from the seed (that is the set-up), then runs either one timed pass
of a catalog workload or the distinct-formula stream, and prints one JSON
object with its timings and verdicts as the last line of standard output.
Every time it reports is scaled to the reference host of calib.py by
calibration units run every quarter second; the unscaled pass time is
reported beside it as ``raw_wall_s``.

    PYTHONPATH=src python3 perfbench/worker.py --workload catalog-symbolic --seed 3 --mode pass
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import calib
import stream
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# seconds between two calibration probes
PROBE_EVERY_S = 0.25
# calibration units that scale the set-up time, which is over before the
# timer starts
SETUP_UNITS = 6


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def catalog_entries(workload: str) -> list:
    data = json.loads((HERE / "catalog_entries.json").read_text())["entries"]
    lie = workload == "lie-exact"
    return [e for e in data if (e["kind"] == "lie") == lie]


def same_verdict(want, have) -> bool:
    """The comparison rule of a catalog expectation."""
    if isinstance(want, list):
        return isinstance(have, (list, tuple)) and list(have) == want
    if isinstance(want, float):
        return isinstance(have, (int, float)) and abs(float(have) - want) <= 1e-9
    return have == want


class Engine:
    """The engine modules, imported from the checkout and nowhere else."""

    def __init__(self):
        import odegeom
        origin = Path(odegeom.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise SystemExit(f"odegeom imported from {origin}, not from {SRC}")
        import mpmath
        from odegeom import (catalog, curvature, expr, exterior, liealg,
                             monge, ode2, ode3, zerotest)
        from odegeom.config import RunConfig
        self.catalog, self.curvature, self.expr = catalog, curvature, expr
        self.exterior, self.liealg, self.monge = exterior, liealg, monge
        self.ode2, self.ode3, self.zerotest = ode2, ode3, zerotest
        self.RunConfig = RunConfig
        self.backend = mpmath.libmp.BACKEND


def timed(clock, fn, *args):
    """Start and end on the clock, and the outcome: 'ok', 'wrong' or the
    error raised."""
    t0 = clock()
    try:
        status = "ok" if fn(*args) else "wrong"
    except Exception as exc:  # a raised error is a failed operation
        status = f"{type(exc).__name__}: {exc}"
    return t0, clock(), status


def check_entry(eng: Engine, entry, cfg) -> bool:
    got = eng.catalog.run_entry(entry, cfg)["checks"]
    return all(key in got and same_verdict(want, got[key]["got"])
               for key, want in entry.data["expect"].items())


def check_formula(eng: Engine, op: dict) -> bool:
    ex, DomainBox = eng.expr, eng.zerotest.DomainBox
    cfg = eng.RunConfig(seed=op["seed"])
    family = op["family"]
    bx = DomainBox(stream.box(family, op["k"]))
    if family == "ode3":
        F = ex.parse(op["text"], allowed=set(eng.exterior.J2_3RD.coords))
        got = eng.ode3.classify3(eng.ode3.third_order(F, bx), cfg).verdict
    elif family == "ode2":
        Q = ex.parse(op["text"], allowed={"x", "y", "p"})
        rep = eng.ode2.fefferman_flatness_check(eng.ode2.second_order(Q, bx), cfg)
        flat = {rep.checks[n].is_zero for n in ("w1", "w2", "weyl")}
        got = flat.pop() if len(flat) == 1 else "w1, w2 and Weyl disagree"
    else:
        F = ex.parse(op["text"], allowed={"q"})
        got = eng.zerotest.is_zero(eng.monge.example6_a5(F), bx, cfg).is_zero
    return got == op["expect"]


def scaled_pass(scaler, spans, layers) -> dict:
    """A pass's operations and layer metrics, times scaled to the reference
    host.  A span is (label, start, end, status, may_fail); an operation is
    [label, seconds, status, may_fail, unscaled seconds]."""
    ops = [[label, scaler.scaled(t0, t1), status, may_fail, t1 - t0]
           for label, t0, t1, status, may_fail in spans]
    wall = sum(op[1] for op in ops)
    slowness = sum(op[4] for op in ops) / wall
    if layers is not None:
        layers = {k: v / slowness if k.endswith("_s") else v
                  for k, v in layers.items()}
    return {"wall_s": wall, "raw_wall_s": wall * slowness,
            "slowness": slowness, "ops": ops, "layers": layers}


def run_pass(eng, args, inputs, intern_at_import, calibrator) -> dict:
    entries, cfg = inputs
    intern_at_start = len(eng.expr._intern)
    spans = []
    with calib.Scaler(calibrator, PROBE_EVERY_S) as scaler:
        tracer = Tracer(eng, scaler.now) if args.trace else None
        if tracer:
            tracer.install()
        for entry in entries:
            spans.append((entry.id, *timed(scaler.now, check_entry, eng, entry, cfg),
                          False))
        if tracer:
            tracer.uninstall()
    out = scaled_pass(scaler, spans, tracer.metrics() if tracer else None)
    out.update({"rss_mb": rss_mb(),
                "cold": intern_at_start == intern_at_import,
                "intern_at_import": intern_at_import,
                "intern_at_start": intern_at_start})
    return out


def run_stream(eng, args, passes, t_start, calibrator) -> dict:
    """Passes of the stream, one after another in this one process, while
    the next is expected to end within the time budget (two at least when
    traced, untraced and traced in turn).  Peak RSS is read after the first
    pass, so it always covers the same work."""
    done = []  # (spans, layer metrics) of each pass
    rss = 0.0
    longest = 0.0
    with calib.Scaler(calibrator, PROBE_EVERY_S) as scaler:
        tracer = Tracer(eng, scaler.now) if args.trace else None
        for i, ops in enumerate(passes):
            if i >= (2 if tracer else 1) \
                    and perf_counter() - t_start + longest > args.seconds:
                break
            traced = bool(tracer) and i % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            spans = []
            t0 = perf_counter()
            for op in ops:
                label = f"{op['family']} c={op['c']} k={op['k']} seed={op['seed']}" \
                    + (" (repeat)" if op["repeat"] else "")
                spans.append((label, *timed(scaler.now, check_formula, eng, op),
                              op["may_fail"]))
            longest = max(longest, perf_counter() - t0)
            if traced:
                tracer.uninstall()
            done.append((spans, tracer.metrics() if traced else None))
            if i == 0:
                rss = rss_mb()
    return {"passes": [scaled_pass(scaler, *d) for d in done], "rss_mb": rss}


def build_inputs(eng: Engine, workload: str, seed: int):
    if workload == "stream-distinct":
        return stream.generate(seed)
    # the Lie checks do not sample, so the seed changes nothing there; the
    # entries keep the catalog order, because the order alone moves their times
    entries = [eng.catalog.CatalogEntry(e["id"], e["kind"], e)
               for e in catalog_entries(workload)]
    return entries, eng.RunConfig(seed=seed)


def main(argv=None) -> int:
    t_start = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("catalog-symbolic", "lie-exact", "stream-distinct"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "stream"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="time budget of the stream")
    args = ap.parse_args(argv)

    # this process and the calibration process share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    eng = Engine()
    intern_at_import = len(eng.expr._intern)
    inputs = build_inputs(eng, args.workload, args.seed)
    setup = perf_counter() - t_start
    with calib.Calibrator() as calibrator:
        units = calibrator.probe(SETUP_UNITS)
        result = {"setup_s": setup / calib.slowness(units), "backend": eng.backend}
        if args.mode == "pass":
            result.update(run_pass(eng, args, inputs, intern_at_import, calibrator))
        elif args.mode == "stream":
            result.update(run_stream(eng, args, inputs, t_start, calibrator))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
