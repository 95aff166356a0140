"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints an ACCEPTANCE line (visible with -s / on failure) naming
the criterion and its outcome.
"""

import random
from fractions import Fraction

import pytest

from odegeom import expr as ex
from odegeom.catalog import verify_catalog
from odegeom.config import RunConfig
from odegeom.curvature import (curvature_package, signature_at,
                               tensor_zero_exprs, weyl, weyl_square)
from odegeom.exterior import (DKP, J2_3RD, d, d_coord, wedge, wedge_all)
from odegeom.monge import (
    SOLUTION_DEPTH_1, SOLUTION_DEPTH_2, classify_monge1, einstein_scale_residual,
    example6_a5, example6_box, example6_metric, frame_metric, g32_metric,
    monge_first, monge_second, mutated_solutions, parametrized_solution,
    transcription_check, verify_parametrized_solution,
    weyl_frame_pattern_check)
from odegeom.liealg import (flat_structure_constants, invariant_bilinear_form,
                            invariant_three_form, jacobi_check,
                            killing_analysis, matrix_rep,
                            commutator_closure_check, exterior_square_check,
                            tables_equal)
from odegeom.ode2 import fefferman_flatness_check, fefferman_metric, \
    ode2_invariants, second_order
from odegeom.ode3 import (EINSTEIN_WEYL, classify3, dkp_pair, dkp_residual,
                          dkp_scalar_residual, dkp_x_membership,
                          nu_closedness_check, ode3_invariants, third_order,
                          transport_check)
from odegeom.zerotest import box, is_zero, is_zero_many, unit_box

CFG = RunConfig()  # tol 1e-9, 20 samples, seed 0


def record(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def ode3_catalog():
    out = {
        "flat": third_order("0"),
        "pow32": third_order("q^(3/2)",
                             box(x=(-1, 1), y=(-1, 1), p=(-1, 1),
                                 q=(0.1, 10.0))),
        "root-family": third_order(
            "(2*q*y - p^2)^(3/2)/y^2",
            box(x=(-1, 1), y=(0.5, 2.0), p=(-0.5, 0.5), q=(1.0, 2.0))),
        "square": third_order("q^2"),
        "cube": third_order("q^3"),
        "dkp-derived": third_order(
            "(p*q*(-12 + 3*p*q - 8*sqrt(1 - p*q)) + 8*(1 + sqrt(1 - p*q)))/p^3",
            box(x=(-1, 1), y=(-1, 1), p=(0.4, 0.9), q=(0.4, 0.9))),
    }
    alpha_f = "alpha*(q^2 + (1 - p^2)^2)^(3/2)/(1 - p^2)^(3/2)" \
              " - 3*p*q^2/(1 - p^2) - p*(1 - p^2)"
    template = ex.parse(alpha_f)
    for label, value in (("half", Fraction(1, 2)), ("one", 1), ("two", 2)):
        F = ex.substitute(template, {"alpha": ex.num(value)})
        out[f"four-sym-{label}"] = third_order(
            F, box(x=(-1, 1), y=(-1, 1), p=(-0.85, 0.85), q=(-1, 1)))
    return out


def test_criterion_01_wuenschmann_suite():
    cat = ode3_catalog()
    ok = True
    for name in ("four-sym-half", "four-sym-one", "four-sym-two",
                 "root-family", "pow32", "dkp-derived"):
        ode = cat[name]
        ok &= is_zero(ode3_invariants(ode).A, ode.box, CFG).is_zero
    sq = cat["square"]
    v = is_zero(ode3_invariants(sq).A, sq.box, CFG)
    ok &= not v.is_zero
    expected = float(ex.eval_numeric(ex.parse("-2/27*q^3"), v.witness_point))
    ok &= abs(v.witness_value - expected) <= 1e-9 * (1 + abs(expected))
    record("1 wuenschmann-suite", ok)


def test_criterion_02_cartan_condition_suite():
    cat = ode3_catalog()
    ok = True
    for name in ("root-family", "pow32", "dkp-derived"):
        ode = cat[name]
        ok &= is_zero(ode3_invariants(ode).G, ode.box, CFG).is_zero
        ok &= classify3(ode, CFG).verdict == EINSTEIN_WEYL
    record("2 cartan-condition-suite", ok)


def test_criterion_03_transport_equivalences():
    cat = ode3_catalog()
    ok = True
    for name, ode in cat.items():
        a_zero = is_zero(ode3_invariants(ode).A, ode.box, CFG).is_zero
        ok &= transport_check(ode, CFG).success == a_zero
        g_zero = is_zero(ode3_invariants(ode).G, ode.box, CFG).is_zero
        ok &= nu_closedness_check(ode, CFG).is_zero == g_zero
    bad = nu_closedness_check(cat["cube"], CFG)
    ok &= (not bad.is_zero) and bad.witness_point is not None
    record("3 transport-equivalences", ok)


def test_criterion_04_dkp_bridge():
    bx = box(x=(0.3, 2.0), y=(-1, 1), t=(-1, 1), v=(-1, 1))
    u = ex.parse("sqrt(2*x)")
    ok = dkp_residual(u, bx, CFG).verdict.is_zero
    X = ex.parse("t + 1/2*v^2 + sqrt(2*x)")
    ok &= dkp_x_membership(u, X, bx, CFG).is_zero

    # random cubic polynomial: both Frobenius 4-forms reduce to the scalar
    # residual, checked in exact rational arithmetic
    rng = random.Random(41)
    terms = [ex.num(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))]
    syms = [ex.sym(n) for n in ("x", "y", "t")]
    for a in syms:
        for b in syms:
            for c in syms:
                coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 5))
                terms.append(ex.mul(ex.num(coeff), a, b, c))
    u_poly = ex.add(*terms)
    w1, w4 = dkp_pair(u_poly)
    f1 = wedge_all(d(w1), w1, w4).coeff((0, 1, 2, 3))
    f2 = wedge_all(d(w4), w1, w4).coeff((0, 1, 2, 3))
    s = dkp_scalar_residual(u_poly)
    for _ in range(15):
        pt = {n: Fraction(rng.randint(-30, 30), rng.randint(1, 13))
              for n in ("x", "y", "t", "v")}
        ok &= ex.evaluate_exact(f1, pt) == 0
        ok &= ex.evaluate_exact(ex.add(f2, s), pt) == 0
    record("4 dkp-bridge", ok)


def test_criterion_05_fefferman_suite():
    catalog = {t: second_order(t) for t in ("0", "y", "p^2", "p^3", "p^4")}
    ok = True
    rng = random.Random(0)
    for name, ode in catalog.items():
        g = fefferman_metric(ode)
        for _ in range(CFG.samples):
            pt = g.box.sample(rng)
            ok &= signature_at(g, pt) == (2, 2, 0)
        rep = fefferman_flatness_check(ode, CFG)
        joint = rep.checks["w1"].is_zero and rep.checks["w2"].is_zero
        ok &= rep.checks["weyl"].is_zero == joint
    inv = ode2_invariants(catalog["p^4"])
    ok &= inv["w2"] is ex.num(24)
    diff = ex.add(inv["w1"], ex.parse("-24*p^8"))
    for _ in range(15):
        pt = {n: Fraction(rng.randint(-20, 20), rng.randint(1, 9))
              for n in ("x", "y", "p")}
        ok &= ex.evaluate_exact(diff, pt) == 0
    record("5 fefferman-suite", ok)


def test_criterion_06_monge1_suite():
    ok = classify_monge1(monge_first("z"), CFG).verdict == SOLUTION_DEPTH_1
    ok &= classify_monge1(monge_first("y"), CFG).verdict == SOLUTION_DEPTH_2
    ok &= classify_monge1(monge_first("p^2"), CFG).verdict == SOLUTION_DEPTH_2

    eq4 = monge_first("p^2")
    sol4 = parametrized_solution(
        "1/2*w_2", "1/2*t*w_2 - 1/2*w_1", "1/2*t^2*w_2 - t*w_1 + w_0")
    ok &= verify_parametrized_solution(eq4, sol4, cfg=CFG).is_zero
    for label, mutated in mutated_solutions(sol4):
        ok &= not verify_parametrized_solution(eq4, mutated, cfg=CFG).is_zero

    eq5 = monge_second("1/3*q^3")
    sol5 = parametrized_solution(
        "2*t^(1/2)*w_2",
        "2*t^(3/2)*w_2^2 - 2*t^(1/2)*w_1*w_2 + Int(t^(1/2)*w_2^2, t)",
        "2/3*t^2*w_2 - t*w_1 + w_0")
    bx5 = box(t=(0.3, 2.0), w_0=(-1, 1), w_1=(-1, 1), w_2=(0.3, 1.0),
              w_3=(-1, 1), w_4=(-1, 1), w_5=(-1, 1))
    ok &= ex.contains_antiderivative(sol5.y)
    ok &= verify_parametrized_solution(eq5, sol5, bx5, CFG).is_zero
    for label, mutated in mutated_solutions(sol5):
        ok &= not verify_parametrized_solution(eq5, mutated, bx5, CFG).is_zero
    record("6 monge1-suite", ok)


def test_criterion_07_g2_flat_model():
    m = monge_second("q^2", example6_box())
    g = g32_metric(m, CFG)
    named = tensor_zero_exprs(weyl(g))
    if named:
        verdicts = is_zero_many(named, g.box, CFG.with_(tol=1e-8))
        ok = all(v.is_zero for v in verdicts.values())
    else:
        ok = True  # structurally zero
    ok &= example6_a5(ex.parse("q^2")).is_zero_literal
    record("7 g2-flat-model", ok)


def test_criterion_08_example6_suite():
    F = ex.parse("q^3/6")
    bx = example6_box(0.5, 2.0)
    diff = ex.add(example6_a5(F), ex.parse("56/25*q^(-20/3)"))
    ok = is_zero(diff, bx, CFG).is_zero

    g = example6_metric(F, bx)
    ok &= is_zero(weyl_square(g), bx, CFG.with_(tol=1e-8)).is_zero

    _, verdict = einstein_scale_residual(F, bx, CFG)
    ok &= verdict.is_zero

    rep = weyl_frame_pattern_check(F, bx, CFG)
    ok &= rep.verdict == "pattern-confirmed"
    pt = {"x": 0.1, "y": 0.2, "p": 0.3, "q": 1.0, "z": 0.4}
    magnitude = abs(float(ex.eval_numeric(rep.values["survivor"], pt)))
    ok &= abs(magnitude - 2.24) < 1e-9
    record("8 example6-suite", ok)


def test_criterion_09_transcription_integrity():
    ok = True
    for text in ("q^3/6", "exp(q)", "q^(5/2)"):
        rep = transcription_check(ex.parse(text), cfg=CFG)
        ok &= rep.consistent and rep.worst_relative <= 1e-8
        if not rep.consistent:
            print("  itemized discrepancies:", rep.per_pair,
                  list(rep.monomial_values.items())[:10])
    record("9 transcription-integrity", ok)


def test_criterion_10_lie_algebra_suite():
    tp = flat_structure_constants("syspoint")
    tg = flat_structure_constants("sycart-syspp")
    ok, _ = jacobi_check(tp)
    ok2, _ = jacobi_check(tg)
    ok = ok and ok2

    basis = matrix_rep("ccg2")
    closure = commutator_closure_check(basis)
    ok &= closure["closed"] and tables_equal(closure["constants"], tg)

    killing = killing_analysis(tg)
    ok &= killing["nondegenerate"] and killing["signature"] == (8, 6, 0)

    bil = invariant_bilinear_form(basis)
    ok &= bil["dimension"] == 1
    ok &= bil["forms"][0]["inertia"] in ((4, 3, 0), (3, 4, 0))

    three = invariant_three_form(basis)
    ok &= three["dimension"] == 1 and three["induced"] is not None
    ok &= three["induced"]["inertia"] in ((4, 3, 0), (3, 4, 0))

    caln = invariant_bilinear_form(matrix_rep("caln"))
    ok &= any(f["inertia"] == (4, 4, 0) for f in caln["forms"])
    record("10 lie-algebra-suite", ok)


def test_criterion_11_infrastructure():
    ok = True
    # d^2 == 0 on structure systems via the independent derivation route
    for name in ("syspoint", "sycart-syspp"):
        good, _ = exterior_square_check(name)
        ok &= good
    # d^2 == 0 on chart forms appearing in the suite
    p, q = ex.sym("p"), ex.sym("q")
    dx, dy, dp = (d_coord(J2_3RD, n) for n in ("x", "y", "p"))
    for form in (dy - dx.scaled(p), dp - dx.scaled(q),
                 wedge(dy, dp).scaled(ex.add(q, 1))):
        dd = d(d(form))
        named = {str(k): c for k, c in dd.coeffs.items()
                 if not c.is_zero_literal}
        if named:
            verdicts = is_zero_many(named, unit_box(J2_3RD.coords), CFG)
            ok &= all(v.is_zero for v in verdicts.values())

    # curvature identities on a constructed metric of the suite
    g = fefferman_metric(second_order("p^4"))
    pkg = curvature_package(g)
    n = 4
    named = {}
    R = pkg.riemann_up
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for dd2 in range(n):
                    named[f"bianchi{a}{b}{c}{dd2}"] = ex.add(
                        R[a][b][c][dd2], R[a][c][dd2][b], R[a][dd2][b][c])
    nabla = pkg.covariant_derivative_02(g.rows)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                named[f"compat{k}{i}{j}"] = nabla[k][i][j]
    W = pkg.weyl_low
    ginv = pkg.inverse
    for b in range(n):
        for dd2 in range(n):
            named[f"trace{b}{dd2}"] = ex.add(
                *[ex.mul(ginv[a][c], W[a][b][c][dd2])
                  for a in range(n) for c in range(n)])
    named = {k: v for k, v in named.items() if not v.is_zero_literal}
    verdicts = is_zero_many(named, g.box, RunConfig(samples=8))
    ok &= all(v.is_zero for v in verdicts.values())

    # conformal covariance spot check (weight 2 on the all-lower tensor)
    from odegeom.curvature import conformal_rescale
    f = ex.mul(ex.num(Fraction(1, 5)), ex.add(ex.sym("x"), ex.sym("p")))
    W2 = curvature_package(conformal_rescale(g, f)).weyl_low
    factor = ex.exp(ex.mul(2, f))
    spot = {}
    for a in range(n):
        for b in range(n):
            spot[f"cc{a}{b}"] = ex.add(
                W2[a][b][0][1], ex.neg(ex.mul(factor, W[a][b][0][1])))
    spot = {k: v for k, v in spot.items() if not v.is_zero_literal}
    verdicts = is_zero_many(spot, g.box, RunConfig(samples=8))
    ok &= all(v.is_zero for v in verdicts.values())

    # the catalog passes under the default config and is seed-stable
    reports = {}
    for seed in (0, 1, 2):
        reports[seed] = verify_catalog(RunConfig(seed=seed))
        ok &= reports[seed]["summary"]["failed"] == 0
    verdict_sets = [
        {(r["id"], k, c["pass"]) for r in rep["entries"]
         for k, c in r["checks"].items()}
        for rep in reports.values()]
    ok &= verdict_sets[0] == verdict_sets[1] == verdict_sets[2]
    record("11 infrastructure", ok)
