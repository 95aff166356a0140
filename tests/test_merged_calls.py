"""The reports that zero-test their identities in one `is_zero_many` call
give the verdicts that separate calls give, and make the calls they should:
the ode3 checks of a catalog entry, the dKP residual and the check of a
parametrized solution."""

import pytest

from odegeom import catalog, exterior, monge, ode2, ode3, zerotest
from odegeom import expr as ex
from odegeom.catalog import load_catalog, run_entry
from odegeom.config import RunConfig
from odegeom.exterior import d, wedge_all
from odegeom.zerotest import (DomainBox, equation_box, is_zero, is_zero_many,
                              unit_box)

KEYS = ("is_zero", "method", "attempts", "rejected")
SEEDS = range(3)


def fields(v):
    return tuple(getattr(v, k) for k in KEYS)


def all_fields(verdicts):
    return {k: fields(v) for k, v in verdicts.items()}


def entries(*kinds):
    return [e for e in load_catalog() if e.kind in kinds]


def calls_of(monkeypatch, module, name, cfg, todo):
    """Run the catalog entries `todo` under cfg and give the arguments and
    the result of every call of module.name that they make."""
    real = getattr(module, name)
    seen = []

    def spy(*args):
        out = real(*args)
        seen.append((args, out))
        return out

    monkeypatch.setattr(module, name, spy)
    for entry in todo:
        assert run_entry(entry, cfg)["pass"], entry.id
    monkeypatch.setattr(module, name, real)
    return seen


@pytest.mark.parametrize("seed", SEEDS)
def test_ode3_entry_verdicts_equal_separate_checks(seed, monkeypatch):
    cfg = RunConfig(seed=seed)
    seen = calls_of(monkeypatch, ode3, "ode3_checks", cfg, entries("ode3"))
    assert len(seen) == 7
    for (ode, _), (rep, transport, nu) in seen:
        alone = ode3.classify3(ode, cfg)
        assert rep.verdict == alone.verdict
        assert all_fields(rep.checks) == all_fields(alone.checks)
        t = ode3.transport_check(ode, cfg)
        assert (transport.pivot, transport.success) == (t.pivot, t.success)
        assert all_fields(transport.verdicts) == all_fields(t.verdicts)
        assert fields(nu) == fields(ode3.nu_closedness_check(ode, cfg))


def dkp_two_calls(u, box, cfg):
    """The Frobenius consistency verdicts and the scalar verdict of a dKP
    profile, in a call each."""
    w1, w4 = ode3.dkp_pair(u)
    f1 = wedge_all(d(w1), w1, w4)
    f2 = wedge_all(d(w4), w1, w4)
    s = ode3.dkp_scalar_residual(u)
    named = {f"first{idx}": c for idx, c in f1.coeffs.items()}
    named["second_plus_scalar"] = ex.add(f2.coeff((0, 1, 2, 3)), s)
    named = {k: v for k, v in named.items() if not v.is_zero_literal}
    return is_zero_many(named, box, cfg), is_zero(s, box, cfg)


@pytest.mark.parametrize("seed", SEEDS)
def test_dkp_residual_equals_two_calls(seed, monkeypatch):
    cfg = RunConfig(seed=seed)
    seen = calls_of(monkeypatch, ode3, "dkp_residual", cfg, entries("dkp"))
    assert len(seen) == 2
    for (u, box, _), res in seen:
        consistency, scalar = dkp_two_calls(u, box, cfg)
        assert all(v.is_zero for v in consistency.values())
        assert fields(res.verdict) == fields(scalar)
        assert res.verdict.to_json() == scalar.to_json()


def solution_two_calls(eq, sol, bx, cfg):
    """The dx/dt verdict and the residual verdict of a parametrized
    solution, in a call each, over the box the check builds."""
    residual, xt = monge._solution_residual(eq, sol)
    names = (ex.free_symbols(residual) | ex.free_symbols(xt) | {"t"}
             | {f"w_{k}" for k in range(6)})
    bx = DomainBox({**unit_box(names).intervals, **bx.intervals},
                   bx.positive_guards, bx.nonzero_guards)
    bx = equation_box(residual, (), bx).with_nonzero_guard(xt, 1e-2)
    return is_zero(xt, bx, cfg), is_zero(residual, bx, cfg)


@pytest.mark.parametrize("seed", SEEDS)
def test_parametrized_solution_equals_two_calls(seed, monkeypatch):
    cfg = RunConfig(seed=seed)
    seen = calls_of(monkeypatch, monge, "verify_parametrized_solution", cfg,
                    entries("solution1", "solution2"))
    # each solution and its mutants
    assert len(seen) > 2
    for (eq, sol, bx, _), got in seen:
        xt, residual = solution_two_calls(eq, sol, bx, cfg)
        assert not xt.is_zero
        assert fields(got) == fields(residual)
        assert got.to_json() == residual.to_json()


# every module that binds is_zero_many by name
BINDERS = (zerotest, exterior, ode3, ode2, monge, catalog)


@pytest.fixture
def count_calls(monkeypatch):
    calls = []

    def counted(named, box, cfg=None):
        calls.append(len(named))
        return is_zero_many(named, box, cfg)

    for module in BINDERS:
        monkeypatch.setattr(module, "is_zero_many", counted)
    return calls


@pytest.mark.parametrize("entry_id, calls", [
    ("ode3-square", 1),     # A != 0: no Cotton call
    ("ode3-cube", 2),       # A == 0: the Cotton components in a second call
    ("ode3-flat", 2),
    ("dkp-linear-control", 1),
])
def test_catalog_entry_zero_test_calls(entry_id, calls, count_calls):
    (entry,) = [e for e in load_catalog() if e.id == entry_id]
    assert run_entry(entry, RunConfig())["pass"]
    assert len(count_calls) == calls


def test_dkp_residual_and_solutions_make_one_call_each(count_calls,
                                                      monkeypatch):
    (entry,) = [e for e in load_catalog() if e.id == "dkp-sqrt"]
    res = calls_of(monkeypatch, ode3, "dkp_residual", RunConfig(), [entry])
    # the residual's call, then the X membership's own
    assert len(res) == 1 and len(count_calls) == 2
    count_calls.clear()
    seen = calls_of(monkeypatch, monge, "verify_parametrized_solution",
                    RunConfig(), entries("solution1", "solution2"))
    assert len(count_calls) == len(seen) > 2
    assert set(count_calls) == {2}
