"""Randomized zero-testing of expressions over sampling boxes.

An expression built from + - * /, integer powers, int or Fraction
constants, fractional powers of bare symbols, odd roots of positive
monomials and half-integer powers of positive compound or constant bases
is first tested exactly: it is an exact zero when it vanishes modulo a
random prime at two independent points, in every coordinate over the
square roots it adjoins.  A power m/r with r odd of c q1^a1 ... qn^an (c a
positive int or Fraction, each qi a bare symbol) is distributed over the
factors, and c^(m/r) is taken as c^(m u) with u r = 1 mod (P - 1); the
prime P of such a call is the first of the seed's sequence with
gcd(r, P - 1) = 1, where that is the only r-th root of c^m.  An
expression that does not is sampled: it is declared identically zero on the
box when, at every sampled point, |value| <= tol * (1 + S) where S is the
term-magnitude scale: the sum of the absolute values of the expression's
top-level additive terms at that point.  The scale makes the test relative
for large cancellations while staying absolute near zero.  Both tests are
seed-deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import asdict, dataclass, replace

import mpmath
from mpmath.libmp import (fone, from_float, from_int, fzero, mpf_abs, mpf_add,
                          mpf_div, mpf_gt, mpf_le)

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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise BoxError(f"non-finite bound for {name!r}")
            if not lo <= hi:
                raise BoxError(f"empty interval for {name!r}")
        for g, margin in self.positive_guards + self.nonzero_guards:
            if not margin > 0:
                raise BoxError("guard margins must be strictly positive")

    def with_symbols(self, **ranges) -> "DomainBox":
        merged = dict(self.intervals)
        merged.update(ranges)
        return DomainBox(merged, self.positive_guards, self.nonzero_guards)

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


def equation_box(e: ex.Expression, names, box: DomainBox | None = None,
                 margin: float = 1e-3) -> DomainBox:
    """The sampling box of a defining function e on a chart with coordinates
    `names`: `box`, or when none is given `default_intervals` over the
    chart's symbols and e's, with e's `auto_guards` added to its guards."""
    pos, nz = auto_guards(e, margin)
    if box is None:
        box = DomainBox(default_intervals(ex.free_symbols(e) | set(names), pos))
    return DomainBox(box.intervals, box.positive_guards + pos,
                     box.nonzero_guards + nz)


@dataclass
class ZeroTestVerdict:
    """Outcome of a zero test.  `method` says how it was decided:
    "structural" when the expression is a literal zero and nothing was
    evaluated, "exact" when it vanished modulo a random prime at `samples`
    = 2 independent points, and "sampled" when floating points were
    evaluated.  `error_bound` bounds the chance, over the seeds, that a
    nonzero expression passes the exact test given that the seed's prime
    divides no coefficient of its numerator.  `attempts` counts the
    floating points attempted, drawn or counted when no guard could reject
    them, and `rejected` those that failed a guard or an evaluation.
    `max_ratio` and the witness of a sampled verdict are those of its
    worst point evaluated: every point, unless the call's every
    expression had a ratio above max(tol, HEADROOM_RATIO), after which the
    expressions are evaluated no more; a ratio below HEADROOM_RATIO is
    therefore the worst of every point."""
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
    error_bound: float | None = None

    def to_json(self):
        """The fields by name, in declaration order."""
        return asdict(self)


def structural_zero(cfg: RunConfig, label: str = "") -> ZeroTestVerdict:
    """The verdict on an expression that is a literal zero: nothing sampled."""
    return ZeroTestVerdict(True, 0, cfg.seed, cfg.tol, 0.0, 0.0, label=label,
                           method="structural")


# ---------------------------------------------------------------------------
# the exact test: evaluation modulo a random prime (Schwartz 1980; Zippel
# 1979).  A nonzero rational function whose numerator has degree at most D
# and stays nonzero modulo p vanishes at a uniform point of F_p^n with
# probability at most D/p, so at two independent points with probability at
# most (D/p)^2.  That p divides every coefficient of the numerator is left
# out of the bound: p is drawn from the seed among ~2^54 primes, so a
# literal coefficient cannot be aimed at it.

# the prime is drawn from [2^60, 2^61)
PRIME_BITS = 61
# a root with a larger degree bound is sampled: its (D/p)^2 could pass 2^-40
DEGREE_CAP = 2 ** 40
# Miller-Rabin with these seven bases (Sinclair 2011) is deterministic below
# 2^64; the odd primes below 200 sieve out most candidates first
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_SMALL_PRIMES = math.prod(n for n in range(3, 200, 2)
                          if all(n % k for k in range(3, n, 2)))


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64."""
    if n < 3 or n % 2 == 0:
        return n == 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=64)
def _prime(seed: int, odd: int = 1) -> int:
    """The modulus of the exact test under `seed`: the first prime P among
    numbers drawn uniformly from [2^(PRIME_BITS-1), 2^PRIME_BITS) and made
    odd with gcd(odd, P - 1) = 1, so that every r dividing `odd` has one
    r-th root of each residue in F_P."""
    rng = random.Random(f"modulus:{seed}")
    while True:
        n = rng.randrange(2 ** (PRIME_BITS - 1), 2 ** PRIME_BITS) | 1
        if math.gcd(n, _SMALL_PRIMES) == 1 and \
                math.gcd(odd, n - 1) == 1 and _is_prime(n):
            return n


def _points(names, P: int, seed: int):
    """The exact test's points under `seed`: each symbol uniform in [0, P)."""
    rng = random.Random(f"points:{seed}")
    while True:
        yield {n: rng.randrange(P) for n in names}


def _exact_zeros(tape: ex.Tape, count: int, box: DomainBox,
                 seed: int) -> dict | None:
    """Of the first `count` roots of the tape's root group, those that
    vanish modulo the call's prime at two independent points, with their
    error bounds (D/P)^2, by index.  The prime is `_prime` of the seed and
    of the odd roots of constants the tape takes.  A root that carries
    adjoined square roots vanishes when every ring coordinate does.  The
    second point runs only the instructions of the roots that vanished at
    the first, so a division by zero there counts only on their way (one
    that only a nonzero root needs, with chance about D/p, no longer
    does).  A root
    whose degree bound passes DEGREE_CAP is no candidate, and is left to
    the sampled path.  None sends the whole call to the sampled path: the
    roots hold an operation the modular tape cannot take or a symbol the
    box does not sample, a symbol under a fractional power, bare or in a
    monomial base, may be negative on the box, a base under a fractional
    power is neither a positive monomial under an odd root nor a positive
    guard or constant under a half-integer power, a second point hits a
    zero divisor, or no candidate vanishes at both points."""
    # the guard group comes first, positive guards first: a base that is a
    # positive guard, by node identity, has that guard's slot
    mod = tape.modular(1, set(tape.outs[0][:len(box.positive_guards)]))
    if mod is None:
        return None
    names = sorted({n for _, n, _ in mod.syms})
    if not box.intervals.keys() >= set(names):
        return None
    # q = t^r, and q^a in a monomial base, stand for the real roots only
    # where q > 0; elsewhere the sampled test meets a domain error
    positive = {ex.name_of(g) for g, _ in box.positive_guards
                if g.kind in (ex.SYM, ex.FAM)}
    if any(n not in positive and not box.intervals[n][0] > 0
           for n in mod.rooted):
        return None
    P = _prime(seed, mod.odd)
    points = _points(names, P, seed)
    zeros = [i for i in range(count) if mod.degrees[i] <= DEGREE_CAP]
    runs, divisions_by_zero = 0, 0
    while runs < 2:
        try:
            values = mod.run(P, next(points),
                             zeros if len(zeros) < count else None)
        except ex.DomainError:
            divisions_by_zero += 1
            if divisions_by_zero > 1:
                return None
            continue
        zeros = [i for i, v in zip(zeros, values) if v == 0]
        if not zeros:
            return None
        runs += 1
    return {i: (mod.degrees[i] / P) ** 2 for i in zeros}


# ---------------------------------------------------------------------------
# the sampled test

# once every expression of a call has a ratio above max(tol, HEADROOM_RATIO)
# at some point, the sampled test evaluates them no more (is_zero_many); a
# ratio below it is thus the worst of every point, which the catalog's
# headroom rule reads
HEADROOM_RATIO = 1e-6


def _tape(named: dict, box: DomainBox):
    """The tape of a sampled test and the top-level additive terms of each
    expression: the box guards first, then every expression and every term
    (the terms give the scale)."""
    exprs = list(named.values())
    terms = [e.args if e.kind == ex.ADD else (e,) for e in exprs]
    return ex.Tape(box.guards(), exprs + [t for ts in terms for t in ts]), terms


def _rejects_none(tape: ex.Tape, box: DomainBox) -> bool:
    """Whether no point can fail the tape's guard group at the current
    mpmath precision: the box samples every symbol of the tape, so none is
    unbound, and every guard is a bare symbol whose interval is finite and
    starts above the guard's margin.  `rng.uniform(lo, hi)` adds a
    nonnegative float to lo, so it never returns below lo, and at 53 bits
    or more the float binds exactly."""
    if mpmath.mp.prec < 53 or \
            not box.intervals.keys() >= {n for _, n in tape.syms}:
        return False
    for g, margin in box.positive_guards + box.nonzero_guards:
        if g.kind not in (ex.SYM, ex.FAM):
            return False
        lo, hi = box.intervals[ex.name_of(g)]
        if not (float(lo) > margin and math.isfinite(hi)):
            return False
    return True


def _draw(tape: ex.Tape, box: DomainBox, cfg: RunConfig, accept=None):
    """Draw the sampled test's points at the current mpmath precision until
    `cfg.samples` are accepted, calling accept(point, values of the tape's
    root group) at each until it returns True; after that, and without
    `accept`, only the guard group runs, and when no point can fail it
    (`_rejects_none`, decided once per call) the remaining points are
    counted as accepted without being drawn, through the same exit checks.
    Returns the number of points attempted and the number rejected."""
    rng = random.Random(cfg.seed)
    accepted = attempts = failures = 0
    max_attempts = max(4 * cfg.samples, cfg.samples + 20)
    counted = _rejects_none(tape, box)
    while accepted < cfg.samples:
        if attempts >= max_attempts or (
                failures > attempts / 2 and attempts >= cfg.samples):
            raise BoxError(
                f"sampling box unusable: {failures}/{attempts} attempted "
                f"points failed")
        attempts += 1
        if counted and not accept:
            accepted += 1
            continue
        pt = box.sample(rng)
        groups = tape.run(pt)
        try:
            if not box.clears(next(groups)):
                failures += 1
                continue
            vals = next(groups) if accept else None
        except ex.EvalError:
            failures += 1
            continue
        accepted += 1
        if accept and accept(pt, vals):
            accept = None
    return attempts, failures


def _sampled(named: dict, box: DomainBox, cfg: RunConfig, compiled=None) -> dict:
    """The sampled zero test of every expression, over one shared set of
    points; `compiled` is a `_tape` whose root group holds `named` and
    their terms when the caller has it."""
    names = list(named)
    tape, terms = compiled or _tape(named, box)
    worst = {n: (from_int(-1), None, None, None) for n in names}
    clear = from_float(max(cfg.tol, HEADROOM_RATIO))

    def score(pt, vals):
        """Record the point's ratios; True once every expression has a
        witness above `clear`, which no later point can overturn."""
        pos = len(names)
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
        return all(mpf_gt(w[0], clear) for w in worst.values())

    with mpmath.workdps(cfg.dps):
        prec, rnd = mpmath.mp._prec_rounding
        attempts, failures = _draw(tape, box, cfg, score)
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


def is_zero_many(named: dict, box: DomainBox, cfg: RunConfig | None = None) -> dict:
    """Zero-test several expressions over one box.

    An expression that is a literal zero is a structural zero: it is left
    out of the tape, and a call of nothing else draws no points.  One tape
    is compiled for the others: the box guards first, then every
    expression and every top-level additive term of each (the terms give
    the scale).  Expressions typically share large sub-DAGs (tensor
    components), so each node is evaluated once per point.

    The exact test runs first.  An expression that vanishes modulo the
    call's prime at two independent points is an exact zero.  The other
    expressions are sampled on the call's tape, cut to the guards, those
    expressions and their terms (`Tape.only`); when every expression is an
    exact zero, the sampled test's points are still drawn with only the
    guards evaluated, or counted without being drawn when no guard can
    reject one (`_rejects_none`).  Either pass gives the exact zeros their
    `attempts` and `rejected`, and a box it cannot use raises BoxError.  At
    a sample point a failing guard skips the rest of the tape; it and
    points where any sampled expression raises a domain error are
    resampled, and more than half of the attempts failing makes the box
    unusable.

    A point whose ratio passes tol proves an expression nonzero.  Once
    every sampled expression has a ratio above max(tol, HEADROOM_RATIO),
    the remaining points run only the guards, or are counted when no guard
    can reject one, until `cfg.samples` are accepted as before: no
    verdict, `attempts` or `rejected` changes, but a nonzero verdict's
    `max_ratio` and witness come from the points evaluated, and a domain
    error that an expression would have raised after its witness is not
    counted.
    """
    cfg = cfg or RunConfig()
    live = {n: e for n, e in named.items() if not e.is_zero_literal}
    out = _tested(live, box, cfg) if live else {}
    return {n: out[n] if n in out else structural_zero(cfg, n) for n in named}


def _tested(named: dict, box: DomainBox, cfg: RunConfig) -> dict:
    """`is_zero_many` of expressions none of which is a literal zero."""
    tape, terms = _tape(named, box)
    exact = _exact_zeros(tape, len(named), box, cfg.seed)
    if not exact:
        return _sampled(named, box, cfg, (tape, terms))
    names = list(named)
    left = [i for i in range(len(names)) if i not in exact]
    if left:
        # the root group holds the expressions, then the terms of each
        ends = list(itertools.accumulate(map(len, terms), initial=len(names)))
        keep = left + [k for i in left for k in range(ends[i], ends[i + 1])]
        rest = _sampled({names[i]: named[names[i]] for i in left}, box, cfg,
                        (tape.only(1, keep), [terms[i] for i in left]))
        some = next(iter(rest.values()))
        attempts, rejected = some.attempts, some.rejected
    else:
        with mpmath.workdps(cfg.dps):
            attempts, rejected = _draw(tape, box, cfg)
    out = {}
    for i, n in enumerate(names):
        if i in exact:
            out[n] = ZeroTestVerdict(
                True, 2, cfg.seed, cfg.tol, 0.0, 0.0, label=n,
                attempts=attempts, rejected=rejected, method="exact",
                error_bound=exact[i])
        else:
            out[n] = rest[n]
    return out


def is_zero(e: ex.Expression, box: DomainBox,
            cfg: RunConfig | None = None, **overrides) -> ZeroTestVerdict:
    cfg = (cfg or RunConfig())
    if overrides:
        cfg = cfg.with_(**overrides)
    if e.is_zero_literal:
        return structural_zero(cfg)
    return is_zero_many({"expr": e}, box, cfg)["expr"]


# the order of strength of the methods
_STRENGTH = {"sampled": 0, "exact": 1, "structural": 2}


def combined_verdict(verdicts: dict, cfg: RunConfig) -> ZeroTestVerdict:
    """All-zero verdict across components, carrying the worst one: the
    largest ratio, and among equal ratios the weakest method.  Exact and
    structural verdicts have ratio 0, so the worst one's method is the
    weakest of all; when that is "exact" no component was sampled, and the
    error bound is the sum of the components' bounds.  No components at
    all is a structural zero under `cfg`."""
    if not verdicts:
        return structural_zero(cfg)
    worst = max(verdicts.values(),
                key=lambda v: (v.max_ratio, -_STRENGTH[v.method]))
    bound = sum(v.error_bound or 0.0 for v in verdicts.values()) \
        if worst.method == "exact" else None
    return replace(worst, is_zero=all(v.is_zero for v in verdicts.values()),
                   error_bound=bound)
