#!/usr/bin/env python3
"""Check that a revision and this working tree give the same paper reports.

    python3 scripts/same_reports.py --rev HEAD

Exports REV with `git archive` into a temporary directory (as bench.py
does) and runs `python -m odegeom.cli verify paper --json --seed N`, for
N = 0, 1, 2, in that export and in this working tree, each on its own
`src`.  Timings (every `seconds` and `elapsed_seconds` key) are dropped and
the rest of the two reports, with the exit status, must be equal.  Exits 0
when they are for every seed, and 1 naming the first seed and JSON path
where they differ.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)
TIMINGS = frozenset({"seconds", "elapsed_seconds"})


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
