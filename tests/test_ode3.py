import dataclasses

import pytest

from odegeom import expr as ex
from odegeom import ode3
from odegeom.config import RunConfig
from odegeom.exterior import (J2_3RD, SymmetricForm, d, interior, lie_derivative,
                              total_derivative)
from odegeom.ode3 import (
    EINSTEIN_WEYL, GENERIC, WUENSCHMANN, Equation, classify3,
    dkp_coframe, dkp_residual, dkp_scalar_residual, dkp_x_membership,
    metric_tilde, nu_closedness_check, nu_tilde, ode3_invariants, third_order,
    transport_check,
)
from odegeom.curvature import signature_at
from odegeom.zerotest import DomainBox, box, is_zero, is_zero_many, unit_box

CFG = RunConfig(samples=10)

# the recurring fixtures
FLAT = third_order("0")
POW32 = third_order("q^(3/2)", box(x=(-1, 1), y=(-1, 1), p=(-1, 1), q=(0.1, 10.0)))
QSQ = third_order("q^2")
QCUBE = third_order("q^3")
TOD = third_order("(2*q*y - p^2)^(3/2)/y^2",
                  box(x=(-1, 1), y=(0.5, 2.0), p=(-0.5, 0.5), q=(1.0, 2.0)))
FOUR_SYM = third_order(
    "alpha*(q^2 + (1 - p^2)^2)^(3/2)/(1 - p^2)^(3/2) - 3*p*q^2/(1 - p^2) - p*(1 - p^2)",
    box(x=(-1, 1), y=(-1, 1), p=(-0.85, 0.85), q=(-1, 1), alpha=(1.0, 1.0)),
    params=("alpha",))
DKP_F = third_order(
    "(p*q*(-12 + 3*p*q - 8*sqrt(1 - p*q)) + 8*(1 + sqrt(1 - p*q)))/p^3",
    box(x=(-1, 1), y=(-1, 1), p=(0.4, 0.9), q=(0.4, 0.9)))


def test_invariants_flat():
    inv = ode3_invariants(FLAT)
    for name in ("K", "A", "G", "L", "N", "C1", "C2", "C3", "C4", "C5"):
        assert getattr(inv, name).is_zero_literal


def test_invariants_pow32_hand_values():
    inv = ode3_invariants(POW32)
    # K = -q/8 and A == 0, G == 0
    assert is_zero(ex.add(inv.K, ex.parse("q/8")), POW32.box, CFG).is_zero
    assert is_zero(inv.A, POW32.box, CFG).is_zero
    assert is_zero(inv.G, POW32.box, CFG).is_zero


def test_wuenschmann_failure_hand_value_qsq():
    inv = ode3_invariants(QSQ)
    diff = ex.add(inv.A, ex.parse("2/27*q^3"))
    assert is_zero(diff, QSQ.box, CFG).is_zero
    v = is_zero(inv.A, QSQ.box, CFG)
    assert not v.is_zero
    expected = ex.eval_numeric(ex.parse("-2/27*q^3"), v.witness_point)
    assert abs(v.witness_value - float(expected)) <= 1e-9 * (1 + abs(float(expected)))


def test_cartan_condition_qcube_nonzero():
    inv = ode3_invariants(QCUBE)
    # G = D^2(6q) = 18 q^5 for F = q^3
    assert is_zero(ex.add(inv.G, ex.parse("-18*q^5")), QCUBE.box, CFG).is_zero


def test_c1_is_fourth_q_derivative_structurally():
    for ode in (QSQ, QCUBE, TOD):
        inv = ode3_invariants(ode)
        assert inv.C1 is ex.diff_n(ode.F, "q", 4)


def test_cotton_fields_are_built_only_when_a_vanishes(monkeypatch):
    # the Cotton components are read only in the class A == 0, so a generic
    # equation's checks never build L, N or C1-C5
    built = []
    real = ode3.ode3_invariants

    def record(ode):
        built.append(real(ode))
        return built[-1]

    monkeypatch.setattr(ode3, "ode3_invariants", record)
    assert classify3(QSQ, CFG).verdict == GENERIC
    ode3.ode3_checks(QSQ, CFG)
    assert len(built) == 3
    assert all("_cotton" not in vars(inv) for inv in built)
    built.clear()
    report = classify3(POW32, CFG)
    assert report.verdict == EINSTEIN_WEYL and "C5" in report.checks
    assert "_cotton" in vars(built[0])
    # built together, once
    inv = real(QSQ)
    assert inv.cotton_components() == {n: getattr(inv, n) for n in
                                       ("C1", "C2", "C3", "C4", "C5")}
    assert inv.cotton_components()["C1"] is inv.C1 is ex.diff_n(QSQ.F, "q", 4)


def test_flat_cotton_components_vanish_for_flat_f():
    report = classify3(FLAT, CFG)
    assert report.verdict == EINSTEIN_WEYL
    assert report.values["conformally_flat_solution_space"] is True


# --- the degenerate bilinear form ---------------------------------------

def contract(g, X):
    """The components of the 1-form g(X, .)."""
    n = g.dim
    return [ex.add(*[ex.mul(X.comps[i], g.rows[i][j]) for i in range(n)])
            for j in range(n)]


def test_metric_tilde_kernel_is_total_derivative():
    for ode in (POW32, QSQ, TOD):
        g = metric_tilde(ode)
        D = total_derivative("3rd-order", ode.F)
        named = {f"k{j}": c for j, c in enumerate(contract(g, D))
                 if not c.is_zero_literal}
        if named:
            verdicts = is_zero_many(named, ode.box, CFG)
            assert all(v.is_zero for v in verdicts.values()), verdicts


def test_metric_tilde_flat_hand_expansion():
    # F = 0: gt = 2 dy dq - dp^2 - 2p dx dq - 2q dx dy + 2pq dx^2 + q^2...
    # direct expansion: 2[dy - p dx][dq + q^2/... ] with K=0:
    # second factor = dq + 0 + (0 - 0 - 0) dx = dq; contact^2 = (dp - q dx)^2
    g = metric_tilde(FLAT)
    names = J2_3RD.coords
    want = {
        ("y", "q"): ex.ONE, ("x", "q"): ex.neg(ex.sym("p")),
        ("p", "p"): ex.MINUS_ONE,
        ("x", "p"): ex.sym("q"),
        ("x", "x"): ex.neg(ex.pow_(ex.sym("q"), 2)),
    }
    for i in range(4):
        for j in range(i, 4):
            expect = want.get((names[i], names[j]), ex.ZERO)
            got = g.rows[i][j]
            diff = ex.add(got, ex.neg(expect))
            assert is_zero(diff, unit_box(J2_3RD.coords), CFG).is_zero, \
                (names[i], names[j], got)


def test_metric_tilde_signature():
    g = metric_tilde(POW32)
    m = SymmetricForm(g.chart, g.rows, POW32.box)
    sig = signature_at(m, {"x": 0.1, "y": 0.2, "p": 0.3, "q": 1.7}, zero_tol=1e-7)
    assert sig == (1, 2, 1)


# --- transport and closedness ---------------------------------------------

def test_transport_succeeds_iff_wuenschmann():
    assert transport_check(POW32, CFG).success
    res = transport_check(QSQ, CFG)
    assert not res.success


def test_transport_failure_witness_in_dy_dy_slot():
    # the obstruction enters the (y, y) slot proportionally to the
    # Wuenschmann scalar
    res = transport_check(QSQ, CFG)
    yy = res.verdicts["yy"]
    assert not yy.is_zero
    A = ode3_invariants(QSQ).A
    ratio_pt = {"x": 0.3, "y": -0.2, "p": 0.4, "q": 0.8}
    lgyy = float(yy.witness_value)
    a_val = float(ex.eval_numeric(A, yy.witness_point))
    c = lgyy / a_val
    # proportionality constant reproduces at another point: rebuild residual
    from odegeom.exterior import conformal_transport_factor  # noqa
    assert abs(c) > 1e-6


def test_nu_tilde_flat_zero_and_closedness_equivalence():
    assert all(c.is_zero_literal for c in nu_tilde(FLAT).coeffs.values())
    assert nu_closedness_check(POW32, CFG).is_zero
    assert nu_closedness_check(TOD, CFG).is_zero
    # F = q^2 has vanishing Cartan scalar even though A != 0
    assert nu_closedness_check(QSQ, CFG).is_zero
    bad = nu_closedness_check(QCUBE, CFG)
    assert not bad.is_zero


# --- classification ----------------------------------------------------------

def test_classify_catalog():
    assert classify3(QSQ, CFG).verdict == GENERIC
    assert classify3(TOD, CFG).verdict == EINSTEIN_WEYL
    assert classify3(POW32, CFG).verdict == EINSTEIN_WEYL
    assert classify3(DKP_F, CFG).verdict == EINSTEIN_WEYL
    four = classify3(FOUR_SYM, CFG)
    assert four.verdict in (WUENSCHMANN, EINSTEIN_WEYL)
    assert four.checks["A"].is_zero


def test_classify_example1_all_alphas():
    for a in (0.5, 1.0, 2.0):
        ode = Equation("3rd-order", FOUR_SYM.F,
                       FOUR_SYM.box.with_symbols(alpha=(a, a)),
                       FOUR_SYM.params)
        rep = classify3(ode, CFG)
        assert rep.checks["A"].is_zero


# --- dKP ---------------------------------------------------------------------

DKP_BOX = box(x=(0.3, 2.0), y=(-1, 1), t=(-1, 1), v=(-1, 1))


def test_dkp_scalar_residual_hand_values():
    assert dkp_scalar_residual(ex.num(0)).is_zero_literal
    r = dkp_scalar_residual(ex.sym("x"))
    assert r is ex.ONE
    sqrt2x = ex.parse("sqrt(2*x)")
    res = dkp_residual(sqrt2x, DKP_BOX, CFG)
    assert res.verdict.is_zero


def test_dkp_residual_nonsolution():
    res = dkp_residual(ex.sym("x"), DKP_BOX, CFG)
    assert not res.verdict.is_zero


def test_dkp_residual_inconsistent_frobenius_raises(monkeypatch):
    # the check is an explicit raise, so it also holds under python -O
    real = ode3.is_zero_many
    flipped = []

    def one_nonzero(named, bx, cfg=None):
        out = real(named, bx, cfg)
        key = next(iter(out))
        flipped.append(key)
        out[key] = dataclasses.replace(out[key], is_zero=False)
        return out

    monkeypatch.setattr(ode3, "is_zero_many", one_nonzero)
    with pytest.raises(ode3.DkpConsistencyError, match="inconsistent"):
        dkp_residual(ex.parse("sqrt(2*x)"), DKP_BOX, CFG)
    assert flipped
    assert issubclass(ode3.DkpConsistencyError, ValueError)


def test_dkp_first_form_vanishes_second_matches_scalar():
    from fractions import Fraction
    import random
    u = ex.parse("x^2*y + t*y^2 + x*t")
    res = dkp_residual(u)
    # polynomial data: exact rational sampling decides the identities
    first = res.first_form.coeff((0, 1, 2, 3))
    diff = ex.add(res.second_form.coeff((0, 1, 2, 3)), res.scalar)
    rng = random.Random(2)
    for _ in range(12):
        pt = {n: Fraction(rng.randint(-40, 40), rng.randint(1, 17))
              for n in ("x", "y", "t", "v")}
        assert ex.evaluate_exact(first, pt) == 0
        assert ex.evaluate_exact(diff, pt) == 0


def test_dkp_coframe_and_x_membership():
    u = ex.parse("sqrt(2*x)")
    forms = dkp_coframe(u, DKP_BOX, CFG)
    assert len(forms) == 4
    X = ex.parse("t + 1/2*v^2 + sqrt(2*x)")
    assert dkp_x_membership(u, X, DKP_BOX, CFG).is_zero
    # wrong candidate
    assert not dkp_x_membership(u, ex.sym("t"), DKP_BOX, CFG).is_zero


def test_dkp_x_membership_zero_solution():
    assert not dkp_x_membership(ex.num(0), ex.sym("t"), DKP_BOX, CFG).is_zero


def test_dkp_x_membership_of_a_constant_is_structural():
    # dX = 0: the residual has no components, so nothing is sampled
    v = dkp_x_membership(ex.sym("t"), ex.num(3), DKP_BOX, CFG)
    assert (v.is_zero, v.method, v.label, v.samples) == \
        (True, "structural", "", 0)


def test_metric_tilde_kernel_full_catalog():
    # the degenerate direction is tangent to the total-derivative field for
    # every defining function in the catalog
    for ode in (FLAT, POW32, QSQ, QCUBE, TOD, FOUR_SYM, DKP_F):
        g = metric_tilde(ode)
        D = total_derivative("3rd-order", ode.F)
        named = {f"k{j}": c for j, c in enumerate(contract(g, D))
                 if not c.is_zero_literal}
        if named:
            verdicts = is_zero_many(named, ode.box, RunConfig(samples=6))
            assert all(v.is_zero for v in verdicts.values())


def test_metric_tilde_flat_full_matrix():
    # F = 0 expands to 2 dy dq - 2p dx dq - dp^2 + 2q dp dx - q^2 dx^2 and
    # nothing else
    g = metric_tilde(FLAT)
    names = J2_3RD.coords
    p, q = ex.sym("p"), ex.sym("q")
    want = {
        ("y", "q"): ex.ONE,
        ("x", "q"): ex.neg(p),
        ("p", "p"): ex.MINUS_ONE,
        ("x", "p"): q,
        ("x", "x"): ex.neg(ex.pow_(q, 2)),
    }
    for i in range(4):
        for j in range(4):
            a, b = sorted((names[i], names[j]), key=names.index)
            expect = want.get((a, b), ex.ZERO)
            diff = ex.add(g.rows[i][j], ex.neg(expect))
            assert is_zero(diff, unit_box(J2_3RD.coords), CFG).is_zero, (a, b)


def test_root_family_negative_branch():
    # the family parameter's sign follows the sign of 2qy - p^2; the
    # negative branch is einstein-weyl as well
    F = ex.parse("(p^2 - 2*q*y)^(3/2)/y^2")
    ode = third_order(F, box(x=(-1, 1), y=(0.5, 1.0), p=(-0.5, 0.5),
                             q=(-2.0, -1.0)))
    assert classify3(ode, CFG).verdict == EINSTEIN_WEYL


def test_metric_tilde_signature_more_fixtures():
    pts = {
        "pow32": {"x": 0.1, "y": 0.2, "p": 0.3, "q": 1.7},
        "tod": {"x": 0.1, "y": 1.0, "p": 0.2, "q": 1.5},
        "dkp": {"x": 0.1, "y": 0.2, "p": 0.6, "q": 0.6},
    }
    for ode, pt in ((POW32, pts["pow32"]), (TOD, pts["tod"]),
                    (DKP_F, pts["dkp"])):
        g = metric_tilde(ode)
        m = SymmetricForm(g.chart, g.rows, ode.box)
        assert signature_at(m, pt, zero_tol=1e-7) == (1, 2, 1)


def test_dkp_coframe_linear_independence():
    import numpy as np
    u = ex.parse("sqrt(2*x)")
    forms = dkp_coframe(u, DKP_BOX, CFG)
    pt = {"x": 0.7, "y": 0.1, "t": -0.3, "v": 0.4}
    mat = np.array([[float(ex.eval_numeric(f.coeff((i,)), pt))
                     for i in range(4)] for f in forms])
    assert abs(np.linalg.det(mat)) > 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_default_box_keeps_guarded_symbol_positive(seed):
    # q^(3/2) needs q > 0: with no box given q is sampled in (0.5, 2.0), so
    # the guard rejects no point
    ode = third_order("q^(3/2)")
    assert ode.box.intervals["q"] == (0.5, 2.0)
    assert ode.box.intervals["p"] == (-1.0, 1.0)
    rep = classify3(ode, RunConfig(samples=10, seed=seed))
    assert rep.verdict == EINSTEIN_WEYL
    assert all(v.rejected == 0 for v in rep.checks.values())
