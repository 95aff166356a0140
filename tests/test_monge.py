import random
from fractions import Fraction

import pytest

from odegeom import expr as ex
from odegeom.config import RunConfig
from odegeom.curvature import (curvature_package, signature_at,
                               symbolic_inverse, tensor_zero_exprs, weyl,
                               weyl_square)
from odegeom.exterior import MONGE2, SymmetricForm
from odegeom.monge import (
    NULL_FRAME_ETA, SOLUTION_DEPTH_1, SOLUTION_DEPTH_2, Equation,
    ParametrizedSolution,
    allowed_frame_pattern, classify_monge1, classify_monge2,
    einstein_scale_residual, einstein_scale_rhs, example6_a5,
    example6_box, example6_coframe, example6_metric,
    frame_metric, g32_metric, monge_first, monge_second, mutated_solutions,
    parametrized_solution, transcription_check,
    verify_parametrized_solution)
from odegeom.zerotest import BoxError, box, is_zero, is_zero_many, unit_box

CFG = RunConfig(samples=10)


# --- first-order classification -------------------------------------------

def test_classify_monge1_catalog():
    assert classify_monge1(monge_first("z"), CFG).verdict == SOLUTION_DEPTH_1
    rep = classify_monge1(monge_first("y"), CFG)
    assert rep.verdict == SOLUTION_DEPTH_2
    assert rep.values["transport"] is ex.num(-1)
    rep = classify_monge1(monge_first("p^2"), CFG)
    assert rep.verdict == SOLUTION_DEPTH_2
    assert rep.values["F_pp"] is ex.num(2)


def test_classify_monge1_agrees_with_direct_reevaluation():
    # independent re-derivation of the two condition residuals
    for text in ("z", "y", "p^2", "p + z", "x*p"):
        m = monge_first(text)
        rep = classify_monge1(m, CFG)
        F = m.F
        d = ex.differentiate
        Fp = d(F, "p")
        direct1 = d(Fp, "p")
        DFp = ex.add(d(Fp, "x"), ex.mul(ex.sym("p"), d(Fp, "y")),
                     ex.mul(F, d(Fp, "z")))
        direct2 = ex.add(DFp, ex.neg(d(F, "y")), ex.neg(ex.mul(Fp, d(F, "z"))))
        both = is_zero(direct1, m.box, CFG).is_zero and \
            is_zero(direct2, m.box, CFG).is_zero
        assert (rep.verdict == SOLUTION_DEPTH_1) == both


def test_classify_monge2_catalog():
    assert classify_monge2(monge_second("q^2"), CFG).verdict == "g2"
    assert classify_monge2(monge_second("q + y"), CFG).verdict == "integral-free"
    assert classify_monge2(monge_second("q^3/6"), CFG).verdict == "g2"


# --- parametrized solutions --------------------------------------------------

EX4_EQ = monge_first("p^2")
EX4_SOL = parametrized_solution(
    "1/2*w_2", "1/2*t*w_2 - 1/2*w_1", "1/2*t^2*w_2 - t*w_1 + w_0")

EX5_EQ = monge_second("1/3*q^3")
EX5_SOL = parametrized_solution(
    "2*t^(1/2)*w_2",
    "2*t^(3/2)*w_2^2 - 2*t^(1/2)*w_1*w_2 + Int(t^(1/2)*w_2^2, t)",
    "2/3*t^2*w_2 - t*w_1 + w_0")

EX5_BOX = box(t=(0.3, 2.0), w_0=(-1, 1), w_1=(-1, 1), w_2=(0.3, 1.0),
              w_3=(-1, 1), w_4=(-1, 1), w_5=(-1, 1))


def test_example4_solution_verifies():
    v = verify_parametrized_solution(EX4_EQ, EX4_SOL, cfg=CFG)
    assert v.is_zero


def test_example4_solution_reduces_to_t_and_t_squared():
    # y' = t and z' = t^2 along the curve
    dt = lambda e: ex.differentiate(e, "t")
    xt, yt, zt = dt(EX4_SOL.x), dt(EX4_SOL.y), dt(EX4_SOL.z)
    yp = ex.div(yt, xt)
    zp = ex.div(zt, xt)
    bx = unit_box(("t", "w_1", "w_2", "w_3")).with_nonzero_guard(xt, 1e-2)
    assert is_zero(ex.add(yp, ex.neg(ex.sym("t"))), bx, CFG).is_zero
    assert is_zero(ex.add(zp, ex.neg(ex.parse("t^2"))), bx, CFG).is_zero


def test_example4_mutations_all_fail():
    for label, mutated in mutated_solutions(EX4_SOL):
        v = verify_parametrized_solution(EX4_EQ, mutated, cfg=CFG)
        assert not v.is_zero, label


def test_example5_solution_verifies_through_antiderivative():
    assert ex.contains_antiderivative(EX5_SOL.y)
    v = verify_parametrized_solution(EX5_EQ, EX5_SOL, EX5_BOX, CFG)
    assert v.is_zero


def test_example5_mutations_all_fail():
    for label, mutated in mutated_solutions(EX5_SOL):
        v = verify_parametrized_solution(EX5_EQ, mutated, EX5_BOX, CFG)
        assert not v.is_zero, label


def test_wrong_solution_fails():
    wrong = parametrized_solution("w_2", "w_1", "w_0")
    v = verify_parametrized_solution(EX4_EQ, wrong, cfg=CFG)
    assert not v.is_zero


def test_solution_box_covers_the_symbols_of_dx_dt():
    # x = w_5 makes dx/dt = w_6, beyond the w_0..w_5 that a box lists; a
    # given box is laid over the default one instead of replacing it
    eq = monge_first("p*y")
    sol = parametrized_solution("w_5", "t", "1/2*t^2")
    given = verify_parametrized_solution(eq, sol, box(t=(0.5, 1.0)), CFG)
    assert given.is_zero
    assert verify_parametrized_solution(eq, sol, cfg=CFG).is_zero
    wrong = parametrized_solution("w_5", "t", "t^2 + w_0")
    v = verify_parametrized_solution(eq, wrong, box(t=(0.5, 1.0)), CFG)
    assert not v.is_zero
    assert 0.5 <= v.witness_point["t"] <= 1.0 and "w_6" in v.witness_point


def test_unevaluated_antiderivative_is_rejected():
    # the equation references x, so an antiderivative in x(t) survives into
    # the residual and must error out
    eq = monge_first("x + p^2")
    bad = parametrized_solution("Int(w_0^2, t) + t*w_1", "w_1", "w_0")
    with pytest.raises(ex.AntiderivativeError):
        verify_parametrized_solution(eq, bad, cfg=CFG)


# --- the (3,2) metric ---------------------------------------------------------

def test_g32_needs_nonvanishing_fqq():
    with pytest.raises(ValueError):
        g32_metric(monge_second("q + y"), CFG)


def test_g32_hilbert_signature_and_conformal_flatness():
    m = monge_second("q^2", example6_box())
    g = g32_metric(m, CFG)
    sig = signature_at(g, {"x": 0.0, "y": 0.0, "p": 0.0, "q": 1.0, "z": 0.0})
    assert sorted((sig[0], sig[1])) == [2, 3] and sig[2] == 0
    assert not tensor_zero_exprs(weyl(g))  # structurally zero
    assert example6_a5(ex.parse("q^2")).is_zero_literal


def test_g32_matches_closed_form_up_to_conformal_factor():
    # ratio of components is a single scalar at each sample point
    F = ex.parse("q^3/6")
    m = monge_second(F, example6_box())
    g = g32_metric(m, CFG)
    closed = example6_metric(F)
    rng = random.Random(9)
    import mpmath
    with mpmath.workdps(30):
        for _ in range(5):
            pt = g.box.sample(rng)
            cache = {}
            ratios = []
            for i in range(5):
                for j in range(i, 5):
                    a = ex.evaluate(g.rows[i][j], pt, cache)
                    b = ex.evaluate(closed.rows[i][j], pt, cache)
                    if abs(b) > 1e-8:
                        ratios.append(a / b)
            spread = max(ratios) - min(ratios)
            assert abs(spread) <= 1e-20 * max(abs(r) for r in ratios)


def test_transcription_integrity_fixtures():
    for text in ("q^3/6", "exp(q)", "q^(5/2)"):
        rep = transcription_check(ex.parse(text), cfg=RunConfig(samples=8))
        assert rep.consistent, (text, rep.per_pair)


def test_transcription_check_localizes_an_injected_typo():
    # corrupt one monomial coefficient and expect an itemized report
    from odegeom import monge as mg
    pair = (2, 5)
    original = mg._G32_TERMS[pair]
    mg._G32_TERMS[pair] = [(31, ("Fqq", "Fqq", "Fqq"))]
    try:
        rep = transcription_check(ex.parse("q^3/6"), cfg=RunConfig(samples=6))
    finally:
        mg._G32_TERMS[pair] = original
    assert not rep.consistent
    assert rep.monomial_values
    assert any(k != "xx" and v > 1e-6 for k, v in rep.per_pair.items())


# --- the one-variable family ---------------------------------------------------

def test_example6_coframe_cubic_hand_values():
    # F = q^3/6 at q = 1: theta4 = w5 - (1/3) w3 + (2/15) w2
    F = ex.parse("q^3/6")
    cf = example6_coframe(F)
    theta4 = cf["theta"][3]
    # coefficients against the contact coframe: express via coordinates
    pt = {"x": 0.0, "y": 0.0, "p": 0.5, "q": 1.0, "z": 0.0}
    from odegeom.monge import contact_coframe
    forms = contact_coframe(F)
    want = forms[5] - forms[3].scaled(ex.num(Fraction(1, 3))) \
        + forms[2].scaled(ex.num(Fraction(2, 15)))
    for i in range(5):
        a = float(ex.eval_numeric(theta4.coeff((i,)), pt))
        b = float(ex.eval_numeric(want.coeff((i,)), pt))
        assert abs(a - b) < 1e-12, i


def test_example6_coframe_hilbert_connection_forms_vanish():
    cf = example6_coframe(ex.parse("q^2"))
    assert all(c.is_zero_literal for c in cf["omega2"].coeffs.values())
    assert all(c.is_zero_literal for c in cf["omega6"].coeffs.values())


def test_a5_cubic_exact_expression_identity():
    F = ex.parse("q^3/6")
    diff = ex.add(example6_a5(F), ex.parse("56/25*q^(-20/3)"))
    assert is_zero(diff, example6_box(), CFG).is_zero


def test_a5_power_family_k2_flat():
    assert example6_a5(ex.parse("1/2*q^2")).is_zero_literal


@pytest.mark.parametrize("c, k", [("6/5", "-1"), ("-3/7", "1/3"),
                                  ("-2", "2/3")])
def test_a5_zeros_of_the_power_family_are_exact(c, k):
    # F_qq^(20/3) has a positive monomial base: c k (k-1) > 0
    v = is_zero(example6_a5(ex.parse(f"({c})*q^({k})")), box(q=(0.5, 2.0)))
    assert (v.is_zero, v.method, v.samples) == (True, "exact", 2)
    assert 0 < v.error_bound < 1e-30


def test_a5_nonzero_and_negative_base_members_of_the_power_family():
    v = is_zero(example6_a5(ex.parse("2*q^3")), box(q=(0.5, 2.0)))
    assert (v.is_zero, v.method, v.samples) == (False, "sampled", 20)
    # c k (k-1) < 0: F_qq is negative on the whole box
    with pytest.raises(BoxError):
        is_zero(example6_a5(ex.parse("(3/7)*q^(1/3)")), box(q=(0.5, 2.0)))


def test_weyl_square_vanishes_for_univariate_family():
    for text in ("q^3/6", "exp(q)", "q^(5/2)"):
        g = example6_metric(ex.parse(text))
        ws = weyl_square(g)
        v = is_zero(ws, g.box, RunConfig(samples=8, tol=1e-8))
        assert v.is_zero, (text, v.max_ratio)


def test_frame_metric_reproduces_constant_pattern():
    # 2 a1 a5 - 2 a2 a4 + (a3)^2 with constant entries NULL_FRAME_ETA in its
    # own frame: g_ab = (M^-1)^i_a (M^-1)^j_b g_ij, theta^a = M^a_i dx^i
    F = ex.parse("q^3/6")
    g = frame_metric(F)
    alpha = example6_coframe(F)["alpha"]
    minv, _det = symbolic_inverse([[th.coeff((i,)) for i in range(5)]
                                   for th in alpha])
    named = {}
    for a in range(5):
        for b in range(a, 5):
            c = ex.add(*[ex.mul(minv[i][a], minv[j][b], g.rows[i][j])
                         for i in range(5) for j in range(5)])
            named[f"m{a}{b}"] = ex.add(c, ex.num(-NULL_FRAME_ETA[a][b]))
    named = {k: v for k, v in named.items() if not v.is_zero_literal}
    verdicts = is_zero_many(named, g.box, RunConfig(samples=6))
    bad = [k for k, v in verdicts.items() if not v.is_zero]
    assert not bad, bad


# --- Einstein scale ------------------------------------------------------------

def test_einstein_scale_cubic():
    _, verdict = einstein_scale_residual(ex.parse("q^3/6"),
                                         cfg=RunConfig(samples=10))
    assert verdict.is_zero


def test_einstein_scale_negative_control():
    # wrong elimination: perturb the inhomogeneous term of the scale equation
    F = ex.parse("q^3/6")
    rhs = einstein_scale_rhs(F)
    f2 = ex.diff_n(F, "q", 2)
    bad_rhs = ex.add(rhs, ex.div(ex.diff_n(F, "q", 3),
                                 ex.mul(10, ex.pow_(f2, 2))))
    _, verdict = einstein_scale_residual(F, cfg=RunConfig(samples=6),
                                         upsilon2_rhs=bad_rhs)
    assert not verdict.is_zero


def test_hilbert_case_is_already_einstein():
    # F = q^2: the scale equation admits Ups = 0 and the representative is
    # Ricci-flat as it stands
    g = example6_metric(ex.parse("q^2"))
    pkg = curvature_package(g)
    named = {f"ric{i}{j}": pkg.ricci[i][j] for i in range(5)
             for j in range(5)}
    named = {k: v for k, v in named.items() if not v.is_zero_literal}
    if named:
        verdicts = is_zero_many(named, g.box, RunConfig(samples=6))
        assert all(v.is_zero for v in verdicts.values())


# --- squared Weyl curvature --------------------------------------------------------

def test_psi_joint_consistency_with_weyl_square():
    F = ex.parse("q^3/6")
    g = example6_metric(F)
    assert is_zero(weyl_square(g), g.box, RunConfig(samples=6, tol=1e-8)).is_zero


# --- frame pattern ---------------------------------------------------------------

def test_weyl_frame_pattern_cubic():
    from odegeom.monge import weyl_frame_pattern_check
    rep = weyl_frame_pattern_check(ex.parse("q^3/6"), cfg=RunConfig(samples=8))
    assert rep.verdict == "pattern-confirmed"
    # surviving magnitude at q = 1 is |a5| = 56/25
    pt = {"x": 0.1, "y": 0.2, "p": 0.3, "q": 1.0, "z": 0.4}
    val = abs(float(ex.eval_numeric(rep.values["survivor"], pt)))
    assert abs(val - 2.24) < 1e-12


def test_weyl_frame_pattern_tests_each_outside_node_once(monkeypatch):
    from odegeom import monge
    tested = []

    def spy(named, bx, cfg):
        tested.append(named)
        return is_zero_many(named, bx, cfg)

    monkeypatch.setattr(monge, "is_zero_many", spy)
    F = ex.parse("q^3/6")
    rep = monge.weyl_frame_pattern_check(F, cfg=RunConfig(samples=8))
    # 5 nodes, distinct up to sign, stand for every nonzero entry outside
    # the a5 slots, and each is zero-tested once
    [outside] = tested
    assert len(outside) == 5
    nodes = set(outside.values())
    assert len(nodes | {ex.neg(c) for c in nodes}) == 10
    frame = weyl(SymmetricForm(MONGE2, NULL_FRAME_ETA),
                 example6_coframe(F)["alpha"])
    allowed = allowed_frame_pattern()
    assert all(c.is_zero_literal or c in nodes or ex.neg(c) in nodes
               for idx, c in frame.flatten().items() if idx not in allowed)
    assert rep.verdict == "pattern-confirmed"
    pt = {"x": 0.1, "y": 0.2, "p": 0.3, "q": 1.0, "z": 0.4}
    val = abs(float(ex.eval_numeric(rep.values["survivor"], pt)))
    assert round(val, 12) == 2.24


def test_weyl_frame_pattern_hilbert_all_zero():
    F = ex.parse("q^2")
    g = frame_metric(F)
    named = tensor_zero_exprs(weyl(g))
    if named:
        verdicts = is_zero_many(named, g.box, RunConfig(samples=6, tol=1e-8))
        bad = [k for k, v in verdicts.items() if not v.is_zero]
        assert not bad, bad


def test_weyl_frame_pattern_perturbed_family():
    # small quartic perturbation stays inside the a4/a5 rows of the table
    from odegeom.monge import weyl_frame_pattern_check
    F = ex.parse("q^3/6 + 1/50*q^4")
    rep = weyl_frame_pattern_check(F, cfg=RunConfig(samples=8),
                                   scalars=("a4", "a5"))
    assert rep.checks["outside_pattern"].is_zero


def test_g32_hilbert_representative_is_actually_flat():
    # the table representative of the flat model is not merely conformally
    # flat: its full Riemann tensor vanishes on the box
    m = monge_second("q^2", example6_box())
    g = g32_metric(m, CFG)
    pkg = curvature_package(g)
    named = {f"R{a}{b}{c}{dd}": pkg.riemann_up[a][b][c][dd]
             for a in range(5) for b in range(5)
             for c in range(5) for dd in range(5)}
    named = {k: v for k, v in named.items() if not v.is_zero_literal}
    if named:
        verdicts = is_zero_many(named, g.box, RunConfig(samples=6))
        assert all(v.is_zero for v in verdicts.values())


def test_example6_coframe_hilbert_theta_normalizations():
    # F = q^2: constant second derivative kills all correction terms
    from odegeom.monge import contact_coframe
    F = ex.parse("q^2")
    cf = example6_coframe(F)
    forms = contact_coframe(F)
    pt = {"x": 0.0, "y": 0.0, "p": 0.5, "q": 1.0, "z": 0.0}
    cbrt2 = 2.0 ** (1.0 / 3.0)
    for i in range(5):
        t3 = float(ex.eval_numeric(cf["theta"][2].coeff((i,)), pt))
        w3 = float(ex.eval_numeric(forms[3].coeff((i,)), pt))
        assert abs(t3 + cbrt2 * w3) < 1e-12
        t4 = float(ex.eval_numeric(cf["theta"][3].coeff((i,)), pt))
        w5 = float(ex.eval_numeric(forms[5].coeff((i,)), pt))
        assert abs(t4 - w5 / cbrt2) < 1e-12


def test_weyl_frame_pattern_sign_stable_across_family():
    # the recorded sign convention fixed on the cubic fixture also holds for
    # another member of the one-variable family
    from odegeom.monge import weyl_frame_pattern_check
    rep = weyl_frame_pattern_check(ex.parse("q^(5/2)"),
                                   cfg=RunConfig(samples=6))
    assert rep.verdict == "pattern-confirmed"


def test_g32_runner_zero_tests_a5():
    # a5 of 1/q vanishes but is not built as a literal zero
    from odegeom.catalog import CatalogEntry, _run_g32
    assert not example6_a5(ex.parse("1/q")).is_zero_literal
    entry = CatalogEntry("g32-inverse", "g32", {"formula": "1/q", "tag": "test"})
    out = _run_g32(entry, RunConfig())
    # the runner reports each check as its verdict
    assert out["weyl_zero"].is_zero is True and out["a5_zero"].is_zero is True


def test_monge_default_box_keeps_guarded_symbol_positive():
    for make, coords, root in ((monge_first, ("x", "y", "p", "z"), "p"),
                               (monge_second, ("x", "y", "p", "q", "z"), "q")):
        eq = make(f"{root}^(1/2) + y")
        assert eq.box.intervals[root] == (0.5, 2.0)
        assert all(eq.box.intervals[n] == (-1.0, 1.0)
                   for n in coords if n != root)
        # an explicit box is kept as given
        bx = box(**{n: (-1, 1) for n in coords if n != root}, **{root: (0.1, 3.0)})
        assert make(f"{root}^(1/2)", bx).box.intervals[root] == (0.1, 3.0)
