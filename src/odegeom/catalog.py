"""The verification catalog: data-driven claims and their runners.

Entries live in data/catalog.json so new defining functions can be added
without code changes.  Each runner returns a dict of named verdicts that are
compared against the entry's expectations.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from importlib import resources

from . import expr as ex
from .config import RunConfig
from .curvature import (signature_at, signatures, tensor_zero_exprs, weyl,
                        weyl_square)
from .exterior import DKP, J1EXT, J2_3RD, MONGE1, MONGE2
from .zerotest import (HEADROOM_RATIO, BoxError, DomainBox, ZeroTestVerdict,
                       combined_verdict, equation_box, is_zero, is_zero_many)
from . import liealg, monge, ode2, ode3


@dataclass
class CatalogEntry:
    id: str
    kind: str
    data: dict

    @property
    def expect(self):
        return self.data.get("expect", {})

    @property
    def tag(self):
        return self.data["tag"]

    @property
    def claim(self):
        return self.data.get("claim", "")


def load_catalog() -> list:
    raw = json.loads(resources.files("odegeom.data")
                     .joinpath("catalog.json").read_text())
    entries = []
    for item in raw["entries"]:
        if "tag" not in item:
            raise ValueError(f"catalog entry {item.get('id')} has no provenance tag")
        entries.append(CatalogEntry(item["id"], item["kind"], item))
    return entries


def _box_from(data: dict, names) -> DomainBox:
    """The entry's sampling intervals over `names`, (-1, 1) where it lists
    none; the guards are added by `equation_box`."""
    intervals = {n: (-1.0, 1.0) for n in names}
    for name, pair in data.get("box", {}).items():
        intervals[name] = tuple(pair)
    return DomainBox(intervals)


def _run_ode3(entry: CatalogEntry, cfg: RunConfig) -> dict:
    """Every listed parameter is sampled as a coordinate on [min, max] of
    its listed values, so one run decides the claim on that interval."""
    params = entry.data.get("params", {})
    F = ex.parse(entry.data["formula"],
                 allowed=set(J2_3RD.coords) | set(params))
    bx = _box_from(entry.data, J2_3RD.coords).with_symbols(
        **{k: (min(v), max(v)) for k, v in params.items()})
    ode = ode3.third_order(F, bx, params)
    rep, transport, nu = ode3.ode3_checks(ode, cfg)
    out = {
        "classification": rep.verdict,
        "wuenschmann": rep.checks["A"],
        "cartan": rep.checks["G"],
        "transport": transport.worst,
        "nu_closed": nu,
    }
    if "conformally_flat_solution_space" in rep.values:
        out["conformally_flat_solution_space"] = combined_verdict(
            {k: rep.checks[k] for k in ("C1", "C2", "C3", "C4", "C5")}, cfg)
    if "wuenschmann_witness" in entry.expect:
        witness_expr = ex.parse(entry.expect["wuenschmann_witness"])
        v = rep.checks["A"]
        wexp = float(ex.eval_numeric(witness_expr, v.witness_point))
        ok = abs(v.witness_value - wexp) <= 1e-9 * (1 + abs(wexp))
        out["wuenschmann_witness"] = \
            entry.expect["wuenschmann_witness"] if ok else \
            f"witness mismatch: {v.witness_value} vs {wexp}"
    return out


def _run_dkp(entry: CatalogEntry, cfg: RunConfig) -> dict:
    u = ex.parse(entry.data["u"], allowed={"x", "y", "t"})
    bx = equation_box(u, DKP.coords, _box_from(entry.data, DKP.coords))
    res = ode3.dkp_residual(u, bx, cfg)
    out = {"residual_zero": res.verdict}
    if "X" in entry.data:
        X = ex.parse(entry.data["X"], allowed={"x", "y", "t", "v"})
        out["x_membership"] = ode3.dkp_x_membership(u, X, bx, cfg)
    return out


def _run_ode2(entry: CatalogEntry, cfg: RunConfig) -> dict:
    Q = ex.parse(entry.data["formula"], allowed={"x", "y", "p"})
    ode = ode2.second_order(Q, _box_from(entry.data, J1EXT.coords))
    bx = ode.box
    rep = ode2.fefferman_flatness_check(ode, cfg)
    out = {"w1_zero": rep.checks["w1"], "w2_zero": rep.checks["w2"],
           "weyl_zero": rep.checks["weyl"]}
    g = ode2.fefferman_metric(ode)
    rng = random.Random(cfg.seed)
    points = [bx.sample(rng) for _ in range(max(5, cfg.samples // 2))]
    sigs = {sig[:2] for sig in signatures(g, points, cfg.dps)}
    out["signature"] = sorted(sigs.pop()) if len(sigs) == 1 else "mixed"
    for name in ("w1", "w2"):
        if name in entry.expect:
            target = ex.parse(entry.expect[name])
            inv = ode2.ode2_invariants(ode)[name]
            out[name] = is_zero(ex.add(inv, ex.neg(target)), bx, cfg)
    return out


def _run_monge1(entry: CatalogEntry, cfg: RunConfig) -> dict:
    m = monge.monge_first(entry.data["formula"],
                          _box_from(entry.data, MONGE1.coords))
    return {"branch": monge.classify_monge1(m, cfg).verdict}


def _run_monge2(entry: CatalogEntry, cfg: RunConfig) -> dict:
    m = monge.monge_second(entry.data["formula"],
                           _box_from(entry.data, MONGE2.coords))
    return {"branch": monge.classify_monge2(m, cfg).verdict}


def _run_solution(entry: CatalogEntry, cfg: RunConfig, order: int) -> dict:
    sol = monge.parametrized_solution(**entry.data["solution"])
    bx = _box_from(entry.data, ())
    if order == 1:
        eq = monge.monge_first(entry.data["formula"])
    else:
        eq = monge.monge_second(entry.data["formula"])
    out = {"verifies": monge.verify_parametrized_solution(eq, sol, bx, cfg)}
    if entry.expect.get("mutations_fail") is not None:
        fails = []
        for label, mutated in monge.mutated_solutions(sol):
            v = monge.verify_parametrized_solution(eq, mutated, bx, cfg)
            fails.append(not v.is_zero)
        out["mutations_fail"] = all(fails)
    return out


def _run_g32(entry: CatalogEntry, cfg: RunConfig) -> dict:
    m = monge.monge_second(entry.data["formula"], monge.example6_box())
    g = monge.g32_metric(m, cfg)
    named = tensor_zero_exprs(weyl(g))
    out = {"weyl_zero": combined_verdict(is_zero_many(named, g.box, cfg), cfg)}
    F = ex.parse(entry.data["formula"], allowed={"q"})
    out["a5_zero"] = is_zero(monge.example6_a5(F), monge.example6_box(), cfg)
    rng = random.Random(cfg.seed)
    sig = signature_at(g, g.box.sample(rng), cfg.dps)
    out["signature"] = sorted(sig[:2], reverse=True)
    return out


def _run_example6(entry: CatalogEntry, cfg: RunConfig) -> dict:
    F = ex.parse(entry.data["formula"], allowed={"q"})
    qr = entry.data.get("box", {}).get("q", [0.5, 2.0])
    bx = monge.example6_box(*qr)
    out: dict = {}
    if "a5" in entry.expect:
        target = ex.parse(entry.expect["a5"])
        out["a5"] = is_zero(ex.add(monge.example6_a5(F), ex.neg(target)),
                            bx, cfg)
    if "weyl_square_zero" in entry.expect:
        g = monge.example6_metric(F, bx)
        out["weyl_square_zero"] = is_zero(weyl_square(g), bx, cfg)
    if "einstein_scale_zero" in entry.expect:
        out["einstein_scale_zero"] = \
            monge.einstein_scale_residual(F, bx, cfg)[1]
    if "transcription_consistent" in entry.expect:
        out["transcription_consistent"] = \
            monge.transcription_check(F, bx, cfg).consistent
    if "pattern" in entry.expect:
        rep = monge.weyl_frame_pattern_check(F, bx, cfg)
        out["pattern"] = rep.verdict
        pt = dict(x=0.1, y=0.2, p=0.3, q=1.0, z=0.4)
        out["survivor_magnitude_at_q1"] = round(
            abs(float(ex.eval_numeric(rep.values["survivor"], pt))), 12)
    return out


def _run_lie(entry: CatalogEntry, cfg: RunConfig) -> dict:
    res = liealg.verify_system(entry.data["system"])
    out: dict = {}
    for key in ("jacobi", "d_squared_zero", "closed", "matches_flat_table"):
        if key in res:
            out[key] = res[key]
    if "killing" in res:
        out["killing_nondegenerate"] = res["killing"]["nondegenerate"]
        out["killing_signature"] = list(res["killing"]["signature"])
    if "invariant_bilinear_dimension" in res:
        out["bilinear_dimension"] = res["invariant_bilinear_dimension"]
        inertias = res["invariant_bilinear_inertias"]
        out["bilinear_contains_4_4"] = (4, 4, 0) in inertias
        out["bilinear_signature_4_3"] = any(
            i in ((4, 3, 0), (3, 4, 0)) for i in inertias)
    if "invariant_three_form_dimension" in res:
        out["three_form_dimension"] = res["invariant_three_form_dimension"]
    return out


_RUNNERS = {
    "ode3": _run_ode3,
    "dkp": _run_dkp,
    "ode2": _run_ode2,
    "monge1": _run_monge1,
    "monge2": _run_monge2,
    "solution1": lambda e, c: _run_solution(e, c, 1),
    "solution2": lambda e, c: _run_solution(e, c, 2),
    "g32": _run_g32,
    "example6": _run_example6,
    "lie": _run_lie,
}


# the fields of a zero-test verdict that a catalog check backed by it carries
EVIDENCE = ("method", "max_ratio", "error_bound", "attempts", "rejected")


def run_entry(entry: CatalogEntry, cfg: RunConfig) -> dict:
    """The entry's checks against its expectations.  A runner that raises
    (an unusable box, a failed evaluation, inconsistent dKP residuals) fails
    the entry with `error` and every check with failure_kind "error".

    A runner reports a zero-test check as its verdict: the check gets the
    verdict's `is_zero`, or for an expected expression (a string) that
    expression when the difference is zero and "mismatch" when it is not,
    and carries the verdict's evidence fields."""
    t0 = time.perf_counter()
    error = None
    try:
        got = _RUNNERS[entry.kind](entry, cfg)
    except (BoxError, ex.EvalError, ode3.DkpConsistencyError) as err:
        got, error = {}, f"{type(err).__name__}: {err}"
    elapsed = time.perf_counter() - t0
    checks = {}
    ok = error is None
    for key, want in entry.expect.items():
        if error is not None:
            checks[key] = {"expected": want, "got": None, "pass": False,
                           "failure_kind": "error"}
            continue
        have = got.get(key, "<missing>")
        verdict = have if isinstance(have, ZeroTestVerdict) else None
        if verdict is not None:
            have = verdict.is_zero if not isinstance(want, str) else \
                want if verdict.is_zero else "mismatch"
        if isinstance(want, list):
            match = list(have) == list(want) if have != "<missing>" else False
        elif isinstance(want, float):
            match = have != "<missing>" and abs(float(have) - want) <= 1e-9
        else:
            match = have == want
        checks[key] = {"expected": want, "got": have, "pass": match}
        if verdict is not None:
            checks[key].update({f: getattr(verdict, f) for f in EVIDENCE})
        if not match:
            # a zero test that misses only by tolerance headroom (a tiny but
            # nonzero ratio, taken over every sampled point) is a numerical
            # failure, not a logical one
            if want is True and verdict is not None \
                    and verdict.max_ratio < HEADROOM_RATIO:
                checks[key]["failure_kind"] = "numerical-headroom"
            else:
                checks[key]["failure_kind"] = "logical"
        ok = ok and match
    out = {"id": entry.id, "kind": entry.kind, "tag": entry.tag,
           "claim": entry.claim, "pass": ok, "checks": checks,
           "seconds": round(elapsed, 3)}
    if error is not None:
        out["error"] = error
    return out


def verify_catalog(cfg: RunConfig | None = None, only=None) -> dict:
    cfg = cfg or RunConfig()
    results = []
    for entry in load_catalog():
        if only and entry.id not in only:
            continue
        results.append(run_entry(entry, cfg))
    passed = sum(1 for r in results if r["pass"])
    return {
        "config": {"tol": cfg.tol, "samples": cfg.samples, "seed": cfg.seed,
                   "dps": cfg.dps},
        "entries": results,
        "summary": {"total": len(results), "passed": passed,
                    "failed": len(results) - passed},
    }
