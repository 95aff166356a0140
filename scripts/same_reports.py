#!/usr/bin/env python3
"""Check that a revision and this working tree give the same paper reports.

    python3 scripts/same_reports.py --rev HEAD

Exports REV with `git archive` into a temporary directory (as bench.py
does) and runs `python -m odegeom.cli verify paper --json --seed N`, for
N = 0, 1, 2, in that export and in this working tree, each on its own
`src`.  Timings (every `seconds` and `elapsed_seconds` key) are dropped and
the rest of the two reports, with the exit status, must be equal.

The catalog holds few formulas of each family, so the script then runs the
checks of every formula of the first pass of the stream-distinct workload
(perfbench/stream.py, seed 777) in both trees, as perfbench/worker.py calls
them: per formula, every check's verdict fields, or the class of the error
raised, must be equal.  Exits 0 when everything is, and 1 naming the first
seed or formula and JSON path where the two trees differ.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)
TIMINGS = frozenset({"seconds", "elapsed_seconds"})
STREAM_SEED = 777

# run in a checkout on its own src: reads the stream's operations as JSON on
# stdin and prints one record per operation, its checks' verdicts or the
# class of the error the checks raised
STREAM_CHECKS = """
import json, sys
from odegeom import expr as ex, monge, ode2, ode3
from odegeom.config import RunConfig
from odegeom.exterior import J2_3RD
from odegeom.zerotest import DomainBox, is_zero

def checks(op, bx, cfg):
    if op["family"] == "ode3":
        F = ex.parse(op["text"], allowed=set(J2_3RD.coords))
        return ode3.classify3(ode3.third_order(F, bx), cfg).checks
    if op["family"] == "ode2":
        Q = ex.parse(op["text"], allowed={"x", "y", "p"})
        return ode2.fefferman_flatness_check(ode2.second_order(Q, bx),
                                             cfg).checks
    F = ex.parse(op["text"], allowed={"q"})
    return {"a5": is_zero(monge.example6_a5(F), bx, cfg)}

out = []
for op in json.load(sys.stdin):
    bx = DomainBox({n: tuple(r) for n, r in op["box"].items()})
    try:
        got = checks(op, bx, RunConfig(seed=op["seed"]))
        rec = {"checks": {k: v.to_json() for k, v in got.items()}}
    except Exception as exc:
        rec = {"error": type(exc).__name__}
    out.append({"text": op["text"], **rec})
print(json.dumps(out))
"""


def report(checkout: Path, seed: int):
    """The timing-free JSON report of `verify paper` in `checkout`, with
    the exit status."""
    cmd = [sys.executable, "-m", "odegeom.cli", "verify", "paper", "--json",
           "--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    try:
        out = json.loads(proc.stdout)
    except json.JSONDecodeError:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} printed no JSON "
                         f"({proc.returncode}):\n{proc.stderr}") from None
    return {"report": without_timings(out), "exit": proc.returncode}


def without_timings(v):
    if isinstance(v, dict):
        return {k: without_timings(x) for k, x in v.items()
                if k not in TIMINGS}
    if isinstance(v, list):
        return [without_timings(x) for x in v]
    return v


def stream_operations() -> list:
    """The operations of the stream's first pass under STREAM_SEED, with
    the sampling box of each."""
    spec = importlib.util.spec_from_file_location(
        "stream", ROOT / "perfbench" / "stream.py")
    stream = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stream)
    return [{"family": op["family"], "text": op["text"], "seed": op["seed"],
             "box": stream.box(op["family"], op["k"])}
            for op in stream.generate(STREAM_SEED, passes=1)[0]]


def stream_records(checkout: Path, ops: list) -> list:
    """One record per operation: its text and its checks' verdicts, or the
    class of the error raised, as `checkout` computes them."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", STREAM_CHECKS], cwd=checkout,
                          env=env, input=json.dumps(ops), capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the stream checks failed in {checkout} "
                         f"({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def stream_difference(a: list, b: list):
    """The first formula whose record differs between the record lists a
    and b, with the JSON path in its record, or None."""
    for x, y in zip(a, b):
        diff = first_difference(x, y)
        if diff:
            return f"{x['text']} at {diff}"
    return None if len(a) == len(b) else "the number of formulas"


def first_difference(a, b, path="$"):
    """The JSON path of the first place where a and b differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in list(a) + [k for k in b if k not in a]:
            if k not in a or k not in b:
                return f"{path}.{k}"
            diff = first_difference(a[k], b[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    # as printed, so that 1 and 1.0 differ and NaN equals NaN
    return None if json.dumps(a) == json.dumps(b) else path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", required=True,
                    help="git revision to export and compare against")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        for seed in SEEDS:
            diff = first_difference(report(Path(tmp), seed),
                                    report(ROOT, seed))
            if diff:
                print(f"seed {seed}: {args.rev} and the working tree differ "
                      f"at {diff}")
                return 1
            print(f"seed {seed}: same report")
        ops = stream_operations()
        diff = stream_difference(stream_records(Path(tmp), ops),
                                 stream_records(ROOT, ops))
        if diff:
            print(f"stream seed {STREAM_SEED}, first pass: {args.rev} and "
                  f"the working tree differ for {diff}")
            return 1
        print(f"stream seed {STREAM_SEED}, first pass: same verdicts for "
              f"{len(ops)} formulas")
    return 0


if __name__ == "__main__":
    sys.exit(main())
