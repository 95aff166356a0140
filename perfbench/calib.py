"""Host-speed calibration.

The benchmark runs on shared hosts whose CPU speed drifts by tens of percent
from one second to the next.  A fixed piece of pure-Python work that shares
no code with the engine is timed between the engine's operations: a
hash-consed tree of sums and products folded with Fraction and float
arithmetic, and pointer chasing and dict lookups over a heap of tens of MB,
the kinds of work the engine spends its time on.  Its time relative to
REFERENCE_UNIT_S, the time one unit takes on the reference host (a shared
2 GHz x86-64 vCPU under CPython 3.11), is the host's slowness at that
moment; dividing an operation's time by the slowness of the units around it
gives the time the operation would take on the reference host.  A change to
the engine changes the operation's time and never the units', so it shows
in full.

The units run in a process of their own (``Calibrator``), pinned with the
engine's process to one CPU and asked for units only while the engine's
process waits, so their heap adds nothing to the engine's memory and the
engine's heap and garbage collector do not slow them.  ``Scaler`` asks for
them every fraction of a second, from a timer signal, so that long
operations are scaled by the host's speed during them and not at their
ends alone.

    python3 perfbench/calib.py       # print the time of a few units
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# seconds one unit takes on the reference host
REFERENCE_UNIT_S = 0.02
# units timed between two operations
UNITS_PER_PROBE = 2
HEAP_NODES = 150_000
CHASE_STEPS = 4_000


def _tree_work() -> Fraction:
    """Build and fold a hash-consed tree of sums and products with rational
    coefficients, then evaluate it at a float."""
    table: dict = {}

    def node(*key):
        got = table.get(key)
        if got is None:
            got = table[key] = key
        return got

    level = [node("x", Fraction(i % 7 + 1, i % 5 + 2)) for i in range(40)]
    acc = Fraction(0)
    for depth in range(6):
        level = [node("+" if (i + depth) % 2 else "*",
                      level[i], level[(i * 7 + depth) % len(level)])
                 for i in range(len(level))]
        for n in level[::9]:
            acc += _coef(n, {}) % 7
    value = sum(_evaluate(n, 1.25, {}) for n in level)
    return acc + Fraction(len(table)) + Fraction(int(value) % 11)


def _coef(n, memo) -> Fraction:
    got = memo.get(id(n))
    if got is None:
        if n[0] == "x":
            got = n[1]
        elif n[0] == "+":
            got = _coef(n[1], memo) + _coef(n[2], memo)
        else:
            got = _coef(n[1], memo) * _coef(n[2], memo)
        memo[id(n)] = got
    return got


def _evaluate(n, x, memo) -> float:
    got = memo.get(id(n))
    if got is None:
        if n[0] == "x":
            got = float(n[1]) * x
        elif n[0] == "+":
            got = _evaluate(n[1], x, memo) + _evaluate(n[2], x, memo)
        else:
            got = (_evaluate(n[1], x, memo) * _evaluate(n[2], x, memo)) % 97.0
        memo[id(n)] = got
    return got


class Heap:
    """Tens of MB of small objects, walked in an order that defeats the
    caches."""

    def __init__(self, nodes: int = HEAP_NODES):
        rng = random.Random(0)
        order = list(range(nodes))
        rng.shuffle(order)
        self.nodes = [(order[i], i % 1013, ("k", i)) for i in range(nodes)]
        self.table = {n[2]: i for i, n in enumerate(self.nodes)}
        self.keys = [("k", rng.randrange(nodes)) for _ in range(CHASE_STEPS)]

    def work(self) -> int:
        nodes, table = self.nodes, self.table
        i = acc = 0
        for _ in range(CHASE_STEPS):
            n = nodes[i]
            acc += n[1]
            i = n[0]
        for k in self.keys:
            acc += table[k]
        return acc


def units(heap: Heap, count: int) -> list:
    """Seconds taken by each of `count` units, run now."""
    out = []
    for _ in range(count):
        t0 = perf_counter()
        _tree_work()
        heap.work()
        out.append(perf_counter() - t0)
    return out


def slowness(unit_times) -> float:
    """How many times slower than the reference host the units ran."""
    return statistics.median(unit_times) / REFERENCE_UNIT_S


def serve():
    """Answer each line read (a number of units) with their times."""
    heap = Heap()
    units(heap, 2)
    print("ready", flush=True)
    for line in sys.stdin:
        print(json.dumps(units(heap, int(line))), flush=True)


class Calibrator:
    """A unit-running process of its own; use it in a ``with`` block, which
    stops it and waits for it on every way out."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError("calibration process did not start")
        return self

    def probe(self, count: int = UNITS_PER_PROBE) -> list:
        self.proc.stdin.write(f"{count}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except Exception:
            self.proc.kill()
            self.proc.wait()


class Scaler:
    """A clock for the engine's process that leaves out calibration and
    scales what it measures to the reference host.

    In a ``with`` block, units are probed at its start and end and, from a
    timer signal, every `every_s` seconds in between, inside operations as
    well as between them, so an operation of any length is scaled by the
    host's speed while it ran.  ``now`` is the time spent outside probes;
    ``scaled(t0, t1)`` divides each part of [t0, t1] between two probes by
    the slowness of the units of those two probes.
    """

    def __init__(self, calibrator: Calibrator, every_s: float):
        self.calibrator = calibrator
        self.every_s = every_s
        self.paused = 0.0  # seconds spent in probes
        self.marks = []  # (now at the probe, its unit times)
        self._busy = False
        self._handler = None

    def now(self) -> float:
        while True:
            paused = self.paused
            t = perf_counter()
            if paused == self.paused:  # no probe ran in between
                return t - paused

    def _probe(self):
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        t0 = perf_counter()
        units = self.calibrator.probe()
        self.marks.append((t0 - self.paused, units))
        self.paused += perf_counter() - t0
        self._busy = False

    def _on_timer(self, signum, frame):
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.every_s)

    def __enter__(self):
        self._probe()
        self._handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.every_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._probe()

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds between the ``now`` readings t0 and t1, on the reference
        host."""
        total = 0.0
        for (a, ua), (b, ub) in zip(self.marks, self.marks[1:]):
            if b > t0 and a < t1:
                total += (min(b, t1) - max(a, t0)) / slowness(ua + ub)
        return total


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        serve()
    else:
        with Calibrator() as cal:
            times = cal.probe(25)
        print(f"unit median {statistics.median(times) * 1e3:.2f} ms, "
              f"min {min(times) * 1e3:.2f} ms, max {max(times) * 1e3:.2f} ms, "
              f"slowness {slowness(times):.3f}")
