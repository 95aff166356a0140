"""Randomized zero-testing of expressions over sampling boxes.

An expression is declared identically zero on a box when, at every sampled
point, |value| <= tol * (1 + S) where S is the term-magnitude scale: the sum
of the absolute values of the expression's top-level additive terms at that
point.  The scale makes the test relative for large cancellations while
staying absolute near zero.  Sampling is seed-deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import mpmath
from mpmath.libmp import (fone, from_int, fzero, mpf_abs, mpf_add, mpf_div,
                          mpf_gt, mpf_le)

from .config import RunConfig
from . import expr as ex


class BoxError(Exception):
    pass


@dataclass(frozen=True)
class DomainBox:
    """Per-symbol closed sampling intervals plus guard expressions.

    Guards keep samples away from singular loci that are not expressible as
    a per-symbol interval: a positive guard requires expr > margin, a nonzero
    guard requires |expr| > margin.  Violating points are resampled; the box
    is unusable when more than half of the attempted points fail.
    """

    intervals: dict
    positive_guards: tuple = ()
    nonzero_guards: tuple = ()

    def __post_init__(self):
        for name, (lo, hi) in self.intervals.items():
            if not lo <= hi:
                raise BoxError(f"empty interval for {name!r}")
        for g, margin in self.positive_guards + self.nonzero_guards:
            if not margin > 0:
                raise BoxError("guard margins must be strictly positive")

    def with_symbols(self, **ranges) -> "DomainBox":
        merged = dict(self.intervals)
        merged.update(ranges)
        return DomainBox(merged, self.positive_guards, self.nonzero_guards)

    def with_positive_guard(self, guard: ex.Expression, margin: float = 1e-3):
        return DomainBox(self.intervals,
                         self.positive_guards + ((guard, margin),),
                         self.nonzero_guards)

    def with_nonzero_guard(self, guard: ex.Expression, margin: float = 1e-3):
        return DomainBox(self.intervals, self.positive_guards,
                         self.nonzero_guards + ((guard, margin),))

    def sample(self, rng: random.Random) -> dict:
        return {name: rng.uniform(lo, hi)
                for name, (lo, hi) in sorted(self.intervals.items())}

    def guards(self) -> list:
        """The guard expressions, positive guards first."""
        return [g for g, _ in self.positive_guards + self.nonzero_guards]

    def clears(self, values) -> bool:
        """Whether raw mpf guard values, in `guards` order, clear their
        margins at the current mpmath precision."""
        prec, rnd = mpmath.mp._prec_rounding
        npos = len(self.positive_guards)
        raw = mpmath.mpf.mpf_convert_rhs  # what `mpf <= margin` compares to
        for (_, margin), v in zip(self.positive_guards, values):
            if mpf_le(v, raw(margin)):
                return False
        for (_, margin), v in zip(self.nonzero_guards, values[npos:]):
            if mpf_le(mpf_abs(v, prec, rnd), raw(margin)):
                return False
        return True

    def admits(self, point: dict) -> bool:
        return self.clears(next(ex.Tape(self.guards()).run(point)))


def box(**ranges) -> DomainBox:
    return DomainBox(dict(ranges))


def unit_box(names, lo=-1.0, hi=1.0) -> DomainBox:
    return DomainBox({n: (lo, hi) for n in names})


def default_intervals(names, positive_guards) -> dict:
    """Sampling intervals for a caller that gave none: (0.5, 2.0) for a
    symbol that a positive guard needs positive as a bare symbol, so that
    no sample is rejected for it, and (-1, 1) for every other symbol."""
    positive = {ex.name_of(g) for g, _ in positive_guards
                if g.kind in (ex.SYM, ex.FAM)}
    return {n: (0.5, 2.0) if n in positive else (-1.0, 1.0)
            for n in sorted(names)}


def auto_guards(e: ex.Expression, margin: float = 1e-3):
    """Infer guards from the tree: bases of non-integer powers and log
    arguments must stay positive, denominators must stay away from zero."""
    positive, nonzero = [], []
    seen = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        if n.kind == ex.DIV:
            den = n.args[1]
            if den.kind != ex.NUM:
                nonzero.append((den, margin))
        elif n.kind == ex.POW:
            base, xp = n.args
            if base.kind != ex.NUM:
                if not ex.is_integer_literal(xp):
                    positive.append((base, margin))
                elif xp.payload < 0:
                    nonzero.append((base, margin))
        elif n.kind == ex.FUNC and n.payload == "log":
            positive.append((n.args[0], margin))
        stack.extend(n.args)
    return tuple(positive), tuple(nonzero)


def auto_box(e: ex.Expression, ranges=None, default=(-1.0, 1.0),
             margin: float = 1e-3) -> DomainBox:
    names = sorted(ex.free_symbols(e))
    intervals = {n: default for n in names}
    if ranges:
        intervals.update(ranges)
    positive, nonzero = auto_guards(e, margin)
    return DomainBox(intervals, positive, nonzero)


@dataclass
class ZeroTestVerdict:
    """Outcome of a zero test.  `method` is "sampled" when points were
    evaluated (`attempts` drawn, `rejected` of them failing a guard or an
    evaluation) and "structural" when the expression is a literal zero and
    nothing was sampled."""
    is_zero: bool
    samples: int
    seed: int
    tol: float
    max_ratio: float
    scale: float
    witness_point: dict | None = None
    witness_value: float | None = None
    label: str = ""
    attempts: int = 0
    rejected: int = 0
    method: str = "sampled"

    def to_json(self):
        return {
            "is_zero": self.is_zero,
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "max_ratio": self.max_ratio,
            "scale": self.scale,
            "witness_point": self.witness_point,
            "witness_value": self.witness_value,
            "label": self.label,
            "attempts": self.attempts,
            "rejected": self.rejected,
            "method": self.method,
        }


def structural_zero(cfg: RunConfig) -> ZeroTestVerdict:
    """The verdict on an expression that is a literal zero: nothing sampled."""
    return ZeroTestVerdict(True, 0, cfg.seed, cfg.tol, 0.0, 0.0,
                           method="structural")


def is_zero_many(named: dict, box: DomainBox, cfg: RunConfig | None = None) -> dict:
    """Zero-test several expressions over one shared set of sample points.

    One tape is compiled for the call: the box guards first, then every
    expression and every top-level additive term of each (the terms give
    the scale).  Expressions typically share large sub-DAGs (tensor
    components), so each node is evaluated once per point.  A point where a
    guard fails skips the rest of the tape; it and points where any
    expression raises a domain error are resampled, and more than half of
    the attempts failing makes the box unusable.
    """
    cfg = cfg or RunConfig()
    names = list(named)
    exprs = [named[n] for n in names]
    terms = [e.args if e.kind == ex.ADD else (e,) for e in exprs]
    tape = ex.Tape(box.guards(), exprs + [t for ts in terms for t in ts])
    worst = {n: (from_int(-1), None, None, None) for n in names}
    rng = random.Random(cfg.seed)
    accepted = 0
    attempts = 0
    failures = 0
    max_attempts = max(4 * cfg.samples, cfg.samples + 20)
    with mpmath.workdps(cfg.dps):
        prec, rnd = mpmath.mp._prec_rounding
        while accepted < cfg.samples:
            if attempts >= max_attempts or (
                    failures > attempts / 2 and attempts >= cfg.samples):
                raise BoxError(
                    f"sampling box unusable: {failures}/{attempts} attempted "
                    f"points failed")
            attempts += 1
            pt = box.sample(rng)
            groups = tape.run(pt)
            try:
                if not box.clears(next(groups)):
                    failures += 1
                    continue
                vals = next(groups)
            except ex.EvalError:
                failures += 1
                continue
            accepted += 1
            pos = len(exprs)
            for n, v, ts in zip(names, vals, terms):
                # the scale sums |term| from zero in the order mpf(0) += abs(t)
                # would, so it rounds the same way
                s = fzero
                for t in vals[pos:pos + len(ts)]:
                    s = mpf_add(s, mpf_abs(t, prec, rnd), prec, rnd)
                pos += len(ts)
                ratio = mpf_div(mpf_abs(v, prec, rnd), mpf_add(s, fone, prec, rnd),
                                prec, rnd)
                if mpf_gt(ratio, worst[n][0]):
                    worst[n] = (ratio, pt, v, s)
    make = mpmath.mp.make_mpf
    out = {}
    for n in names:
        ratio, pt, v, s = worst[n]
        ratio = make(ratio)
        zero = ratio <= cfg.tol
        out[n] = ZeroTestVerdict(
            is_zero=zero,
            samples=cfg.samples,
            seed=cfg.seed,
            tol=cfg.tol,
            max_ratio=float(ratio),
            scale=float(make(s)),
            witness_point=None if zero else dict(pt),
            witness_value=None if zero else float(make(v)),
            label=n,
            attempts=attempts,
            rejected=failures,
        )
    return out


def is_zero(e: ex.Expression, box: DomainBox,
            cfg: RunConfig | None = None, **overrides) -> ZeroTestVerdict:
    cfg = (cfg or RunConfig())
    if overrides:
        cfg = cfg.with_(**overrides)
    if e.is_zero_literal:
        return structural_zero(cfg)
    return is_zero_many({"expr": e}, box, cfg)["expr"]


def combined_verdict(verdicts: dict) -> ZeroTestVerdict:
    """All-zero verdict across components; carries the worst witness."""
    worst = max(verdicts.values(), key=lambda v: v.max_ratio)
    all_zero = all(v.is_zero for v in verdicts.values())
    return ZeroTestVerdict(
        is_zero=all_zero,
        samples=worst.samples,
        seed=worst.seed,
        tol=worst.tol,
        max_ratio=worst.max_ratio,
        scale=worst.scale,
        witness_point=worst.witness_point,
        witness_value=worst.witness_value,
        label=worst.label,
        attempts=worst.attempts,
        rejected=worst.rejected,
        method=worst.method,
    )
