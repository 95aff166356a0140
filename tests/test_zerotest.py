"""The exact zero test: evaluation modulo a random prime, and how it hands
over to the sampled test; where the sampled test stops evaluating."""

import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from odegeom import expr as ex
from odegeom import exterior, monge, ode2, ode3, zerotest
from odegeom.catalog import load_catalog, run_entry, verify_catalog
from odegeom.config import RunConfig
from odegeom.zerotest import (BoxError, DomainBox, ZeroTestVerdict,
                              combined_verdict, equation_box, is_zero,
                              is_zero_many)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import stream  # noqa: E402
import worker  # noqa: E402

Q_BOX = {"q": (0.5, 2.0)}


def auto_box(e, ranges=None, default=(-1.0, 1.0)):
    """The box of e: `default` for each of its symbols, `ranges` over that,
    and the guards `equation_box` infers from e."""
    intervals = dict.fromkeys(sorted(ex.free_symbols(e)), default)
    intervals.update(ranges or {})
    return equation_box(e, (), DomainBox(intervals))


def verdict(text, ranges=Q_BOX, seed=0):
    e = ex.parse(text)
    return is_zero(e, auto_box(e, ranges), RunConfig(seed=seed))


def test_identity_is_exact_and_a_changed_coefficient_is_not():
    v = verdict("(x + y)^3/(x - y) - (x^3 + 3*x^2*y + 3*x*y^2 + y^3)/(x - y)",
                {"x": (1.5, 2.0), "y": (-1.0, 1.0)})
    assert (v.is_zero, v.method, v.samples, v.max_ratio) == (True, "exact", 2, 0.0)
    assert v.witness_point is None and 0 < v.error_bound < 1e-30
    v = verdict("(x + y)^3/(x - y) - (x^3 + 3*x^2*y + 4*x*y^2 + y^3)/(x - y)",
                {"x": (1.5, 2.0), "y": (-1.0, 1.0)})
    assert (v.is_zero, v.method, v.error_bound) == (False, "sampled", None)
    assert v.witness_point is not None and v.max_ratio > 1e-3


@pytest.mark.parametrize("seed", range(5))
def test_tiny_nonzero_term_is_a_sampled_zero_never_exact(seed):
    # 10^-40 q is nonzero modulo p, so the exact test cannot decide it, and
    # it is far below the tolerance of the sampled test
    v = verdict("(q + 1)^2 - q^2 - 2*q - 1 + q/10^40", seed=seed)
    assert (v.is_zero, v.method) == (True, "sampled")
    assert 0 < v.max_ratio < 1e-30


def test_bare_symbol_roots():
    v = verdict("q^(3/2) - q*q^(1/2)")
    assert (v.is_zero, v.method) == (True, "exact")
    v = verdict("q^(3/2) + q*q^(1/2)")
    assert (v.is_zero, v.method) == (False, "sampled")
    # q = t^6 serves q^(1/2) and q^(2/3) at once
    v = verdict("q^(1/2)*q^(2/3) - q^(7/6) + (q^(1/3))^3 - q")
    assert (v.is_zero, v.method) == (True, "exact")
    # a bare symbol's odd root needs no condition on the prime
    assert ex.Tape([ex.parse("q^(1/3)*q^(2/3) - q")]).modular(0).odd == 1


def test_compound_base_root_defers_to_sampling():
    v = verdict("(q^2)^(1/2) - q")
    assert (v.is_zero, v.method) == (True, "sampled")
    assert v.samples == 20


@pytest.mark.parametrize("seed", range(10))
def test_prime_sized_literal_is_nonzero(seed):
    # a fixed modulus equal to this literal would make it an exact zero
    v = verdict("2305843009213691579*q", seed=seed)
    assert (v.is_zero, v.method) == (False, "sampled")


def test_one_vanishing_point_is_not_enough():
    seed = 7
    P = zerotest._prime(seed)
    first, second = (pt["q"] for pt, _ in zip(zerotest._points(["q"], P, seed),
                                               range(2)))
    # zero at the first point modulo p, not at the second
    v = verdict(f"q - {first}", seed=seed)
    assert (v.is_zero, v.method) == (False, "sampled")
    # a numerator that is zero everywhere over a denominator that vanishes
    # at the first point: that point is redrawn, and the zero is exact ...
    v = verdict(f"(q - q)/(q - {first})", seed=seed)
    assert (v.is_zero, v.method) == (True, "exact")
    # ... but a second point where it vanishes sends the call to sampling
    v = verdict(f"(q - q)/((q - {first})*(q - {second}))", seed=seed)
    assert (v.is_zero, v.method) == (True, "sampled")


def test_box_refuses_a_non_finite_bound():
    # a sample of an infinite interval is not a number mpmath can take, so
    # the box is refused when it is made, as an empty interval is
    for lo, hi in ((-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0),
                   (-math.inf, math.inf)):
        with pytest.raises(BoxError, match="non-finite"):
            DomainBox({"q": (0.5, 2.0), "p": (lo, hi)})
        with pytest.raises(BoxError, match="non-finite"):
            zerotest.box(q=(0.5, 2.0)).with_symbols(p=(lo, hi))
    with pytest.raises(BoxError, match="empty"):
        DomainBox({"q": (2.0, 0.5)})
    assert DomainBox({"q": (-1e300, 1e300)}).intervals["q"] == (-1e300, 1e300)


def test_unbound_symbol_is_not_decided_exactly():
    # as in the sampled test, a symbol the box does not sample makes every
    # point fail
    e = ex.parse("q^(3/2) - q*q^(1/2) + x - x")
    with pytest.raises(BoxError):
        is_zero(e, DomainBox({"q": (0.5, 2.0)}))


def test_degree_cap():
    q = ex.sym("q")
    bx = DomainBox({"q": (0.5, 1.0)})
    for k, method in ((zerotest.DEGREE_CAP, "exact"),
                      (zerotest.DEGREE_CAP + 1, "sampled")):
        power = ex.pow_(q, k)
        e = ex.add(power, ex.neg(power))  # not folded: a zero of degree k
        assert ex.Tape([e]).modular(0).degrees == [k]
        v = is_zero(e, bx)
        assert (v.is_zero, v.method) == (True, method)


def test_degree_cap_is_per_root():
    # a root over the cap is sampled on its own; its neighbours in the same
    # call stay exact, with the verdicts a call of their own gives them
    q = ex.sym("q")
    bx = DomainBox({"q": (0.5, 1.0)})
    power = ex.pow_(q, zerotest.DEGREE_CAP + 1)
    small = ex.parse("(q + 1)^2 - q^2 - 2*q - 1")
    named = {"big": ex.add(power, ex.neg(power)), "small": small,
             "nonzero": ex.parse("q^3 - 1/8")}
    got = is_zero_many(named, bx)
    assert {k: (v.is_zero, v.method) for k, v in got.items()} == {
        "big": (True, "sampled"), "small": (True, "exact"),
        "nonzero": (False, "sampled")}
    alone = is_zero(small, bx)
    assert (alone.method, alone.error_bound) == \
        (got["small"].method, got["small"].error_bound)


def test_guards_that_reject_every_point_raise():
    e = ex.parse("q^(3/2) - q*q^(1/2)")
    assert is_zero(e, auto_box(e, Q_BOX)).method == "exact"
    with pytest.raises(BoxError):
        is_zero(e, auto_box(e, {"q": (-2.0, -1.0)}))


def test_root_of_a_symbol_that_may_be_negative_is_sampled():
    # without a guard the box alone must keep q positive: on q < 0 every
    # point meets the root's domain error, as in the sampled test
    e = ex.parse("q^(3/2) - q*q^(1/2)")
    with pytest.raises(BoxError):
        is_zero(e, zerotest.box(q=(-2.0, -1.0)))
    assert is_zero(e, zerotest.box(q=(0.5, 2.0))).method == "exact"
    assert is_zero(e, zerotest.box(q=(0.0, 2.0))).method == "sampled"
    guarded = DomainBox({"q": (-1.0, 2.0)}, ((ex.sym("q"), 1e-3),))
    assert is_zero(e, guarded).method == "exact"
    # an integer power needs no sign
    e = ex.parse("(q + 1)^2 - q^2 - 2*q - 1")
    assert is_zero(e, zerotest.box(q=(-2.0, -1.0))).method == "exact"


def test_exact_verdict_counts_come_from_the_guard_pass():
    e = ex.parse("q^(3/2) - q*q^(1/2)")
    bx = auto_box(e, {"q": (-0.5, 2.0)})
    v = is_zero(e, bx, RunConfig(samples=12, seed=3))
    assert (v.method, v.samples) == ("exact", 2)
    assert v.rejected > 0 and v.attempts == 12 + v.rejected
    guard_only = zerotest.DomainBox(bx.intervals, bx.positive_guards)
    assert is_zero(ex.parse("q^(3/2) + q"), guard_only,
                   RunConfig(samples=12, seed=3)).attempts == v.attempts


def test_mixed_call_samples_only_the_rest():
    named = {"zero": ex.parse("q^(3/2) - q*q^(1/2)"),
             "one": ex.parse("q^(1/2)*q^(1/2) - q + 1")}
    bx = auto_box(named["zero"], Q_BOX)
    cfg = RunConfig(seed=4)
    got = is_zero_many(named, bx, cfg)
    assert list(got) == ["zero", "one"]
    assert got["zero"].method == "exact"
    alone = is_zero_many({"one": named["one"]}, bx, cfg)["one"]
    assert got["one"] == alone and not alone.is_zero
    # the exact zero takes its counts from the pass that sampled the rest
    assert (got["zero"].attempts, got["zero"].rejected) == \
        (alone.attempts, alone.rejected)


def test_literal_zero_roots_are_structural(monkeypatch):
    # y''' = 0: A, G and the five Cartan components are literal zeros, and
    # no point is drawn for them
    def no_points(*args):
        raise AssertionError("a point was drawn")

    with monkeypatch.context() as m:
        m.setattr(zerotest.DomainBox, "sample", no_points)
        checks = ode3.classify3(ode3.third_order("0")).checks
    assert set(checks) == {"A", "G", "C1", "C2", "C3", "C4", "C5"}
    for name, v in checks.items():
        assert (v.is_zero, v.method, v.samples, v.attempts, v.rejected,
                v.error_bound, v.label) == \
            (True, "structural", 0, 0, 0, None, name)
    # beside other roots: left out of the tape, the key order kept
    named = {"lit": ex.ZERO, "zero": ex.parse("q^(3/2) - q*q^(1/2)"),
             "one": ex.parse("q + 1")}
    bx = auto_box(named["zero"], Q_BOX)
    cfg = RunConfig(seed=4)
    got = is_zero_many(named, bx, cfg)
    assert list(got) == ["lit", "zero", "one"]
    assert got["lit"] == zerotest.structural_zero(cfg, "lit")
    rest = is_zero_many({n: named[n] for n in ("zero", "one")}, bx, cfg)
    assert got["zero"] == rest["zero"] and got["one"] == rest["one"]


def test_error_bound_in_json_and_combined_verdict():
    exact = ZeroTestVerdict(True, 2, 0, 1e-9, 0.0, 0.0, method="exact",
                            error_bound=1e-36)
    other = ZeroTestVerdict(True, 2, 0, 1e-9, 0.0, 0.0, method="exact",
                            error_bound=2e-36)
    sampled = ZeroTestVerdict(True, 20, 0, 1e-9, 1e-31, 1.0)
    assert exact.to_json()["error_bound"] == 1e-36
    assert sampled.to_json()["error_bound"] is None
    cfg = RunConfig()
    structural = zerotest.structural_zero(cfg)
    both = combined_verdict({"a": structural, "b": exact, "c": other}, cfg)
    assert (both.method, both.samples) == ("exact", 2)
    assert both.error_bound == pytest.approx(3e-36, rel=1e-12, abs=0)
    mixed = combined_verdict({"a": exact, "b": sampled}, cfg)
    assert (mixed.method, mixed.error_bound, mixed.samples) == ("sampled", None, 20)
    # a sampled ratio of exactly 0 still makes the combined verdict sampled
    flat = ZeroTestVerdict(True, 20, 0, 1e-9, 0.0, 1.0)
    mixed = combined_verdict({"a": exact, "b": flat, "c": structural}, cfg)
    assert (mixed.method, mixed.error_bound, mixed.samples) == ("sampled", None, 20)
    assert combined_verdict({"a": structural}, cfg).method == "structural"


# the JSON keys of a verdict, in the order the reports print them
VERDICT_KEYS = ["is_zero", "samples", "seed", "tol", "max_ratio", "scale",
                "witness_point", "witness_value", "label", "attempts",
                "rejected", "method", "error_bound"]


def test_verdict_json_keys_and_order():
    v = ZeroTestVerdict(False, 20, 3, 1e-9, 0.5, 2.0, {"q": 0.75}, 1.5,
                        "W1212", 21, 1, "sampled", None)
    doc = v.to_json()
    assert list(doc) == VERDICT_KEYS
    assert doc == {k: getattr(v, k) for k in VERDICT_KEYS}
    assert list(zerotest.structural_zero(RunConfig()).to_json()) == \
        VERDICT_KEYS


def reference_combined_verdict(verdicts):
    """The field-by-field combination that `combined_verdict` replaced."""
    worst = max(verdicts.values(),
                key=lambda v: (v.max_ratio, -zerotest._STRENGTH[v.method]))
    bound = sum(v.error_bound or 0.0 for v in verdicts.values()) \
        if worst.method == "exact" else None
    return ZeroTestVerdict(
        is_zero=all(v.is_zero for v in verdicts.values()),
        samples=worst.samples, seed=worst.seed, tol=worst.tol,
        max_ratio=worst.max_ratio, scale=worst.scale,
        witness_point=worst.witness_point, witness_value=worst.witness_value,
        label=worst.label, attempts=worst.attempts, rejected=worst.rejected,
        method=worst.method, error_bound=bound)


def test_combined_verdict_matches_the_field_by_field_reference():
    cfg = RunConfig(seed=4)
    bx = auto_box(ex.parse("q^(1/2)"), Q_BOX)
    # exp keeps a whole call from the exact test, so the sampled zero and
    # its nonzero partner get a call of their own
    got = {**is_zero_many({"lit": ex.ZERO,
                           "zero": ex.parse("q^(3/2) - q*q^(1/2)"),
                           "other": ex.parse("(q + 1)^2 - q^2 - 2*q - 1"),
                           "one": ex.parse("q^(1/2)*q^(1/2) - q + 1")},
                          bx, cfg),
           **is_zero_many({"tiny": ex.parse("exp(2*q) - exp(q)^2"),
                           "two": ex.parse("exp(q) - q")}, bx, cfg)}
    assert {k: (v.method, v.is_zero) for k, v in got.items()} == {
        "lit": ("structural", True), "zero": ("exact", True),
        "other": ("exact", True), "one": ("sampled", False),
        "tiny": ("sampled", True), "two": ("sampled", False)}
    for keys in (["lit"], ["zero"], ["zero", "other"], ["lit", "zero"],
                 ["tiny"], ["zero", "tiny"], ["one"], ["one", "two"],
                 ["lit", "zero", "tiny", "one"], list(got)):
        part = {k: got[k] for k in keys}
        assert combined_verdict(part, cfg) == reference_combined_verdict(part)


def test_empty_combination_is_structural():
    cfg = RunConfig(seed=7, tol=1e-12)
    assert combined_verdict({}, cfg) == zerotest.structural_zero(cfg)


def test_prime():
    small = [n for n in range(3000) if zerotest._is_prime(n)]
    assert small == [n for n in range(2, 3000)
                     if all(n % k for k in range(2, int(n ** 0.5) + 1))]
    # strong pseudoprimes to the first bases, and Carmichael numbers
    for n in (2047, 3215031751, 561, 41041, 3825123056546413051,
              (2 ** 31 - 1) * (2 ** 30 + 3)):
        assert not zerotest._is_prime(n)
    assert zerotest._is_prime(2 ** 61 - 1)
    primes = {zerotest._prime(s) for s in range(10)}
    assert len(primes) == 10
    assert all(2 ** 60 <= n < 2 ** 61 and zerotest._is_prime(n) for n in primes)
    # a call that takes no odd root of a constant keeps the seed's prime
    for seed, P in ((0, 1596805833338694019), (1, 1258962275310111227),
                    (7, 1642873415601521057), (777, 1865296162963926713)):
        assert zerotest._prime(seed) == zerotest._prime(seed, 1) == P


def test_odd_root_prime_has_unique_cube_roots():
    P = zerotest._prime(0, 3)
    assert zerotest._prime(0) % 3 == 1 and P != zerotest._prime(0)
    assert math.gcd(3, P - 1) == 1 and zerotest._is_prime(P)
    for c in (2, 5, 12 * pow(5, -1, P) % P):
        root = ex._p_root(c, Fraction(1, 3), P, None)
        assert pow(root, 3, P) == c
        assert pow(ex._p_root(c, Fraction(20, 3), P, None), 3, P) == pow(c, 20, P)


def test_modular_tape_agrees_with_exact_evaluation():
    P = zerotest._prime(0)
    e = ex.parse("(x^2 - 3*y/7)/(x + y)^2 - x^(-3) + 5/11")
    (f,) = ex.Tape([e]).modular(0).run(P, {"x": 3, "y": 4})
    want = ex.evaluate_exact(e, {"x": Fraction(3), "y": Fraction(4)})
    assert f == want.numerator * pow(want.denominator, -1, P) % P
    # q = t^2: q^(3/2) is t^3
    mod = ex.Tape([ex.parse("q^(3/2) + q")]).modular(0)
    assert mod.run(P, {"q": 5}) == [(5 ** 3 + 5 ** 2) % P]
    assert mod.degrees == [3]
    with pytest.raises(ex.DomainError):
        ex.Tape([ex.parse("1/(x - y)")]).modular(0).run(P, {"x": 2, "y": 2})


def test_modular_run_of_some_roots_runs_only_their_instructions():
    P = zerotest._prime(0)
    roots = [ex.parse("x*y^2 - 3"), ex.parse("1/(x - y)"), ex.parse("y^3")]
    mod = ex.Tape(roots).modular(0)
    full = mod.run(P, {"x": 2, "y": 5})
    assert mod.run(P, {"x": 2, "y": 5}, [2, 0]) == [full[2], full[0]]
    # the division by zero is on the way of root 1 alone
    with pytest.raises(ex.DomainError):
        mod.run(P, {"x": 2, "y": 2})
    assert mod.run(P, {"x": 2, "y": 2}, [0, 2]) == [5, 8]


def test_sampling_the_rest_of_a_call_cuts_the_call_tape():
    # one expression is an exact zero, the other is sampled on the call's
    # tape cut to it and its terms, with the verdict of a call of its own
    zero = ex.parse("(x + y)^2 - x^2 - 2*x*y - y^2")
    other = ex.parse("x*y + 1")
    bx = DomainBox({"x": (-1.0, 1.0), "y": (-1.0, 1.0)})
    both = is_zero_many({"zero": zero, "other": other}, bx)
    alone = is_zero_many({"other": other}, bx)["other"]
    assert both["zero"].method == "exact" and both["other"] == alone
    tape = zerotest._tape({"zero": zero, "other": other}, bx)[0]
    keep = [1, 2 + len(zero.args), 3 + len(zero.args)]  # other, its 2 terms
    cut = tape.only(1, keep)
    assert cut.outs[1] == [tape.outs[1][i] for i in keep]
    assert len(cut.code[1]) < len(tape.code[1])


@pytest.mark.parametrize("text, degree", [
    ("x/y + y/x", 2), ("(x + y)^3/(x - y)^2", 3), ("x^(-2)*y", 1),
    ("q^(1/2)/q^(2/3) + 1", 4), ("7/3", 0)])
def test_degree_bounds(text, degree):
    assert ex.Tape([ex.parse(text)]).modular(0).degrees == [degree]


@pytest.mark.parametrize("text", ["exp(q)", "log(q)", "Int(q, t)", "q^x",
                                  "(1 + q)^(1/2)", "3^(1/2)*q"])
def test_modular_tape_refuses(text):
    assert ex.Tape([ex.parse(text)]).modular(0) is None


def test_modular_tape_refuses_float_literals():
    assert ex.Tape([ex.mul(ex.num(0.5), ex.sym("q"))]).modular(0) is None
    # only what the roots need counts: a guard group may hold anything
    tape = ex.Tape([ex.parse("exp(q)")], [ex.parse("q^2")])
    assert tape.modular(0) is None and tape.modular(1).degrees == [2]


@pytest.fixture
def recorded(monkeypatch):
    """Every is_zero_many call made while the test runs: (named, box, cfg,
    result), through every module that imported the function."""
    calls = []
    original = zerotest.is_zero_many

    def wrapper(named, box, cfg=None):
        out = original(named, box, cfg)
        calls.append((named, box, cfg or RunConfig(), out))
        return out

    for name, mod in list(sys.modules.items()):
        if name.startswith("odegeom") and \
                getattr(mod, "is_zero_many", None) is original:
            monkeypatch.setattr(mod, "is_zero_many", wrapper)
    return calls


def _exact_zeros_sampled(recorded):
    """Checks that every exact zero of the recorded calls is also a zero
    through `zerotest._sampled`, and returns how many there were."""
    exact = 0
    for named, box, cfg, out in recorded:
        zeros = {n: named[n] for n, v in out.items() if v.method == "exact"}
        if zeros:
            sampled = zerotest._sampled(zeros, box, cfg)
            assert all(v.is_zero for v in sampled.values()), sampled
            exact += len(zeros)
    return exact


def test_every_exact_zero_is_a_sampled_zero(recorded):
    assert verify_catalog(RunConfig(seed=0))["summary"]["failed"] == 0
    engine = SimpleNamespace(expr=ex, zerotest=zerotest, RunConfig=RunConfig,
                             exterior=exterior, ode2=ode2, ode3=ode3,
                             monge=monge)
    for op in stream.generate(0)[0][:48]:
        try:
            assert worker.check_formula(engine, op)
        except BoxError:
            assert op["may_fail"]
    assert _exact_zeros_sampled(recorded) > 200


# ---------------------------------------------------------------------------
# half-integer powers of compound and constant bases: roots adjoined to F_p

ROOT_BOX = {"p": (-0.5, 0.5), "q": (-1.0, 1.0)}
FOUR = "(q^2 + (1 - p^2)^2)"


@pytest.mark.parametrize("text", [
    "(1-p^2)^(3/2) - (1-p^2)*sqrt(1-p^2)",
    "sqrt(3)*sqrt(3) - 3",
    f"{FOUR}^(3/2)/(1 - p^2)^(3/2)"
    f" - {FOUR}*sqrt{FOUR}/((1 - p^2)*sqrt(1 - p^2))",
    "1/(1 + sqrt(1 - p^2)) - (1 - sqrt(1 - p^2))/p^2",
    "(1 - p^2)^(-1/2) - sqrt(1 - p^2)/(1 - p^2)",
    "(sqrt(1 - p^2)*sqrt(2 - p))^2 - (1 - p^2)*(2 - p)",
])
def test_half_integer_powers_of_compound_bases_are_exact(text):
    v = verdict(text, ROOT_BOX)
    assert (v.is_zero, v.method, v.samples, v.max_ratio) == (True, "exact", 2, 0.0)
    assert v.error_bound < 1e-30


@pytest.mark.parametrize("text", [
    "(1-p^2)^(3/2) - (1-2*p^2)*sqrt(1-p^2)",  # a changed coefficient
    "sqrt(1-p^2) + (1-p^2)^(1/2)",  # the wrong branch of one root
    "p*sqrt(1-p^2)",  # zero in the scalar coordinate alone
    f"{FOUR}^(3/2) - {FOUR}*sqrt(1 - p^2)",  # the wrong root
    "(1+q)^(1/3) - (1+q)^(1/2)",  # a cube root is no square root
])
def test_nonzero_ring_elements_are_sampled_with_a_witness(text):
    v = verdict(text, ROOT_BOX)
    assert (v.is_zero, v.method, v.error_bound) == (False, "sampled", None)
    assert v.witness_point is not None and v.max_ratio > 1e-3


def test_root_of_a_base_that_is_no_positive_guard_is_sampled():
    e = ex.parse("(1-p^2)^(3/2) - (1-p^2)*sqrt(1-p^2)")
    base = ex.parse("1 - p^2")
    assert is_zero(e, auto_box(e, ROOT_BOX)).method == "exact"
    # no guard, or a nonzero guard, leaves the sign of the base open
    for bx in (zerotest.box(p=(-0.5, 0.5)),
               zerotest.box(p=(-0.5, 0.5)).with_nonzero_guard(base)):
        v = is_zero(e, bx)
        assert (v.is_zero, v.method) == (True, "sampled")
    # where the base is negative every point meets the root's domain error,
    # with or without the guard
    for bx in (zerotest.box(p=(1.5, 2.0)), auto_box(e, {"p": (1.5, 2.0)})):
        with pytest.raises(BoxError):
            is_zero(e, bx)
    # a negative constant base is refused as well: s^2 = -3 would make this
    # an exact zero
    with pytest.raises(BoxError):
        is_zero(ex.parse("(-3)^(1/2)*(-3)^(1/2) + 3"), zerotest.box(p=(0.5, 1.0)))
    # and so is a negative monomial under an odd root
    e = ex.parse("(-2*q)^(1/3)*(-2*q)^(2/3) + 2*q")
    assert ex.Tape([e]).modular(0) is None
    with pytest.raises(BoxError):
        is_zero(e, auto_box(e, Q_BOX))


# ---------------------------------------------------------------------------
# odd roots of positive monomials: distributed over the factors


@pytest.mark.parametrize("text", [
    "(2*q)^(1/3)*(2*q)^(2/3) - 2*q",
    "(3/2*q^(-3))^(20/3) - (3/2)^(20/3)*q^(-20)",
    "(2/15*q^(-5/3))^(2/3) - (2/15)^(2/3)*q^(-10/9)",
    "(2*q*x^2)^(1/3) - 2^(1/3)*q^(1/3)*x^(2/3)",
])
def test_odd_roots_of_positive_monomials_are_exact(text):
    v = verdict(text, {"q": (0.5, 2.0), "x": (0.5, 2.0)})
    assert (v.is_zero, v.method, v.samples, v.max_ratio) == (True, "exact", 2, 0.0)
    # the bound is that of the prime with unique cube roots
    tape = zerotest._tape({"expr": ex.parse(text)}, DomainBox({}))[0]
    mod = tape.modular(1, set())
    assert mod.odd == 3
    assert v.error_bound == (mod.degrees[0] / zerotest._prime(0, 3)) ** 2


@pytest.mark.parametrize("text", [
    "(2*q)^(1/3) - 3^(1/3)*q^(1/3)",  # another constant's root
    "(2*q)^(2/3) - 2^(2/3)*q^(1/3)",  # another power of q
])
def test_odd_roots_of_positive_monomials_that_differ_are_sampled(text):
    v = verdict(text)
    assert (v.is_zero, v.method, v.error_bound) == (False, "sampled", None)


def test_odd_root_of_a_monomial_in_a_symbol_of_either_sign_is_sampled():
    # q^(-6) under a cube root is q^(-2) on both signs of q, but the
    # rewrite is taken only where every symbol of the base is positive
    v = verdict("(2*q^(-6))^(1/3)*(2*q^(-6))^(2/3) - 2*q^(-6)",
                {"q": (-1.0, 1.0)})
    assert (v.is_zero, v.method) == (True, "sampled")


@pytest.mark.parametrize("text", [
    # a denominator other than 2 on a compound base
    "(1+q)^(1/3)*(1+q)^(2/3) - (1+q)",
    # a base that holds an adjoined root
    "sqrt(1 + sqrt(1+q))*sqrt(1 + sqrt(1+q)) - 1 - sqrt(1+q)",
])
def test_roots_the_ring_does_not_take_are_sampled(text):
    v = verdict(text)
    assert (v.is_zero, v.method) == (True, "sampled")


def test_at_most_three_roots_are_adjoined():
    for k, method in ((3, "exact"), (4, "sampled")):
        prod = ex.mul(*[ex.sqrt(ex.parse(f"{i} + q")) for i in range(1, k + 1)])
        e = ex.add(prod, ex.neg(prod))  # not folded
        v = is_zero(e, auto_box(e, Q_BOX))
        assert (v.is_zero, v.method) == (True, method)


def test_modular_tape_adjoins_roots_of_positive_slots_only():
    P = zerotest._prime(0)
    e = ex.parse("(1 + q)^(3/2) + 3^(1/2)*q")
    guard = ex.parse("1 + q")
    tape = ex.Tape([guard], [e])
    assert tape.modular(1) is None  # no positive slots given
    assert tape.modular(1, set()) is None  # 1 + q is not known positive
    mod = tape.modular(1, set(tape.outs[0]))
    # s1^2 = 1 + q, s2^2 = 3: (1 + q) s1 + q s2 at q = 5
    assert mod.roots == 2
    assert mod.run(P, {"q": 5}) == [(0, 6, 5, 0)]
    # a ring element of norm zero is a division by zero
    zero_norm = ex.Tape([ex.parse("1/(sqrt(3)*sqrt(3) - 3)")]).modular(0, set())
    with pytest.raises(ex.DomainError):
        zero_norm.run(P, {})


def _poly_degree(xs, ys, P):
    """The degree of the polynomial of degree < len(xs) through the points
    (xs, ys) modulo P, by divided differences; -1 for zero."""
    coef = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * pow(xs[i] - xs[i - j], -1, P) % P
    return max((i for i, c in enumerate(coef) if c), default=-1)


@pytest.mark.parametrize("text, denominator", [
    ("(1+x^2)^(3/2)", "1"),
    ("(1+x^2)^(-1/2)", "1 + x^2"),
    ("x*sqrt(1+x^2)*sqrt(1+x^2)", "1"),
    ("1/(x + sqrt(1+x^2))", "1"),
    ("(x + sqrt(1+x^2))^3", "1"),
    ("(x + sqrt(1+x^2))^(-2)", "1"),
    ("sqrt(1+x^2)*sqrt(2+x) + 3^(1/2)*x^2", "1"),
    ("1/(sqrt(1+x^2) + sqrt(2+x))", "x^2 - x - 1"),
    ("sqrt(x + 1/x)*x^2", "1"),
    ("(x + sqrt(1/(1+x^2)))^2", "1 + x^2"),
])
def test_degree_bounds_of_ring_coordinates(text, denominator):
    # each coordinate times its reduced denominator is a polynomial in x;
    # interpolated through more points than the bound allows, its degree
    # is at most the bound
    P = zerotest._prime(1)
    e = ex.parse(text)
    guards = [g for g, _ in zerotest.auto_guards(e)[0]]
    tape = ex.Tape(guards, [e])
    mod = tape.modular(1, set(tape.outs[0]))
    (D,) = mod.degrees
    den = ex.Tape([ex.parse(denominator)]).modular(0)
    xs = list(range(2, D + 9))
    coords = [mod.run(P, {"x": x})[0] for x in xs]
    cleared = [[c * den.run(P, {"x": x})[0] % P for c in cs]
               for x, cs in zip(xs, coords)]
    degrees = [_poly_degree(xs, list(ys), P) for ys in zip(*cleared)]
    assert -1 < max(degrees) <= D


@pytest.mark.parametrize("entry_id", ["ode3-root-family", "ode3-four-symmetries",
                                      "ode3-dkp-derived", "univariate-cubic"])
def test_every_ring_zero_is_a_sampled_zero(recorded, entry_id):
    (entry,) = [e for e in load_catalog() if e.id == entry_id]
    assert run_entry(entry, RunConfig(seed=0))["pass"]
    assert _exact_zeros_sampled(recorded) > 0


# ---------------------------------------------------------------------------
# the sampled test stops evaluating the expressions at their clear witnesses


@pytest.fixture
def root_runs(monkeypatch):
    """How many points each tape run by the test evaluated its root group
    at (its second group), as a list with one entry per such point."""
    runs = []
    real = ex.Tape.run

    def run(self, bindings, exact=False):
        for i, values in enumerate(real(self, bindings, exact)):
            if i == 1:
                runs.append(bindings)
            yield values

    monkeypatch.setattr(ex.Tape, "run", run)
    return runs


def full_test(monkeypatch, named, bx, cfg):
    """The sampled test with every point drawn and every expression
    evaluated at every point."""
    with monkeypatch.context() as m:
        m.setattr(zerotest, "HEADROOM_RATIO", math.inf)
        m.setattr(zerotest, "_rejects_none", lambda tape, box: False)
        return is_zero_many(named, bx, cfg)


def test_barely_nonzero_expression_is_evaluated_at_every_point(
        root_runs, monkeypatch):
    # every ratio is between tol and 1e-6: no point is a clear witness, so
    # the verdict carries the worst ratio of all 20 points, as the
    # catalog's headroom rule needs
    named = {"e": ex.parse("q/10^8")}
    bx, cfg = zerotest.box(q=(0.5, 2.0)), RunConfig(seed=3)
    got = is_zero_many(named, bx, cfg)["e"]
    assert len(root_runs) == 20
    assert cfg.tol < got.max_ratio < zerotest.HEADROOM_RATIO
    assert not got.is_zero and got.method == "sampled"
    assert got.witness_point == max(root_runs, key=lambda pt: pt["q"])
    assert got == full_test(monkeypatch, named, bx, cfg)["e"]


def test_clearly_nonzero_expression_is_evaluated_at_one_point(
        root_runs, monkeypatch):
    # the guard q > 1 rejects about a third of the points; they are still
    # drawn and counted after the witness
    e = ex.parse("sqrt(q - 1) + q")
    bx, cfg = auto_box(e, {"q": (0.5, 2.0)}), RunConfig(seed=2)
    got = is_zero(e, bx, cfg)
    assert len(root_runs) == 1
    assert (got.is_zero, got.method) == (False, "sampled")
    assert got.witness_point == root_runs[0]
    full = full_test(monkeypatch, {"expr": e}, bx, cfg)["expr"]
    assert len(root_runs) == 1 + 20
    assert full.rejected > 0
    assert (got.samples, got.attempts, got.rejected) == \
        (full.samples, full.attempts, full.rejected)


def test_unusable_box_raises_after_a_clear_witness(root_runs):
    # the guard q > 4/5 rejects about nine points in ten of (-1, 1)
    bx = DomainBox({"q": (-1.0, 1.0)}, ((ex.parse("q - 4/5"), 1e-3),))
    with pytest.raises(BoxError):
        is_zero(ex.parse("q + 1"), bx, RunConfig(seed=0))
    assert len(root_runs) == 1


def test_sampled_zero_keeps_every_point_evaluated(root_runs, monkeypatch):
    # exp sends the whole call to the sampled test; the zero never has a
    # clear witness, so the nonzero expression is evaluated everywhere too
    named = {"zero": ex.parse("exp(2*q) - exp(q)^2"),
             "one": ex.parse("exp(q) - q")}
    bx, cfg = zerotest.box(q=(-1.0, 1.0)), RunConfig(seed=6)
    got = is_zero_many(named, bx, cfg)
    assert len(root_runs) == 20
    assert {n: (v.is_zero, v.method) for n, v in got.items()} == \
        {"zero": (True, "sampled"), "one": (False, "sampled")}
    assert got == full_test(monkeypatch, named, bx, cfg)


# ---------------------------------------------------------------------------
# guard-only points that no guard can reject are counted, not drawn


@pytest.fixture
def draws(monkeypatch):
    """The points `DomainBox.sample` returned, in order."""
    points = []
    real = zerotest.DomainBox.sample

    def sample(self, rng):
        points.append(real(self, rng))
        return points[-1]

    monkeypatch.setattr(zerotest.DomainBox, "sample", sample)
    return points


def test_all_exact_call_over_implied_guards_draws_no_point(monkeypatch):
    # with no box given, q under a root samples (0.5, 2.0), so its implied
    # positive guard rejects no point
    e = ex.parse("q^(3/2) - q*q^(1/2)")
    bx, cfg = zerotest.equation_box(e, ()), RunConfig(seed=3)
    assert bx.intervals == {"q": (0.5, 2.0)} and set(bx.guards()) == {ex.sym("q")}

    def no_points(*args):
        raise AssertionError("a point was drawn")

    with monkeypatch.context() as m:
        m.setattr(zerotest.DomainBox, "sample", no_points)
        got = is_zero(e, bx, cfg)
    assert (got.method, got.attempts, got.rejected) == ("exact", 20, 0)
    assert got == full_test(monkeypatch, {"expr": e}, bx, cfg)["expr"]


def test_nonzero_call_counts_the_points_after_its_witness(draws, monkeypatch):
    e = ex.parse("q^(1/2) + q")
    bx, cfg = auto_box(e, Q_BOX), RunConfig(seed=2)
    got = is_zero(e, bx, cfg)
    assert len(draws) == 1 and not got.is_zero
    full = full_test(monkeypatch, {"expr": e}, bx, cfg)["expr"]
    assert len(draws) == 1 + 20
    assert (got.samples, got.attempts, got.rejected) == \
        (full.samples, full.attempts, full.rejected) == (20, 20, 0)


def test_counted_points_raise_the_box_error_of_the_drawn_loop(
        draws, monkeypatch):
    # no guard, but log(q) fails on q < 0: 13 points fail before the
    # witness at the 14th, and the counted rest meets the majority rule at
    # attempt 20, where the drawn loop meets it
    e = ex.parse("log(q) + 5")
    bx, cfg = zerotest.box(q=(-3.0, 1.0)), RunConfig(seed=7)
    with pytest.raises(BoxError) as counted:
        is_zero(e, bx, cfg)
    assert len(draws) == 14
    with monkeypatch.context() as m:
        m.setattr(zerotest, "_rejects_none", lambda tape, box: False)
        with pytest.raises(BoxError) as drawn:
            is_zero(e, bx, cfg)
    assert len(draws) == 14 + 20
    assert str(counted.value) == str(drawn.value) == \
        "sampling box unusable: 13/20 attempted points failed"


@pytest.mark.parametrize("text, ranges, dps", [
    # a nonzero guard on a negative interval
    ("1/q + q", {"q": (-2.0, -0.5)}, 30),
    # a compound positive guard, though it rejects no point here
    ("sqrt(q + 1) + q", Q_BOX, 30),
    # a bare guard, but a float need not bind exactly below 53 bits
    ("q^(1/2) + q", Q_BOX, 10),
])
def test_guards_that_may_reject_keep_every_point_drawn(draws, text, ranges,
                                                       dps):
    e = ex.parse(text)
    v = is_zero(e, auto_box(e, ranges), RunConfig(seed=1, dps=dps))
    assert (v.is_zero, v.attempts, v.rejected, len(draws)) == \
        (False, 20, 0, 20)
