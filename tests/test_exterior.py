import pytest
from hypothesis import given, settings, strategies as st

from odegeom import expr as ex
from odegeom.config import RunConfig
from odegeom.exterior import (
    DKP, J2_3RD, MONGE1, MONGE2, ChartError, DifferentialForm, SymmetricForm,
    VectorField, conformal_transport_factor, d, d_coord, interior,
    lie_derivative, sym_product, sym_square, total_derivative, wedge,
    wedge_all, zero_form,
)
from odegeom.zerotest import DomainBox, box, is_zero, is_zero_many, unit_box


CFG = RunConfig(samples=8)


def assert_form_zero(form, bx, cfg=CFG):
    if not form.coeffs:
        return
    named = {str(idx): c for idx, c in form.coeffs.items()}
    verdicts = is_zero_many(named, bx, cfg)
    bad = {k: v for k, v in verdicts.items() if not v.is_zero}
    assert not bad, f"nonzero coefficients: {bad}"


def forms_equal(a, b, bx, cfg=CFG):
    assert_form_zero(a - b, bx, cfg)


# --- structural basics ------------------------------------------------------

def test_dx_wedge_dx_is_zero():
    dx = d_coord(J2_3RD, "x")
    assert not wedge(dx, dx).coeffs


def test_triple_wedge_volume():
    dx, dy, dp = (d_coord(J2_3RD, n) for n in ("x", "y", "p"))
    w = wedge_all(wedge(dx, dy), dp)
    assert w.coeffs == {(0, 1, 2): ex.ONE}


def test_d_of_contact_form():
    # d(dy - p dx) = dx ^ dp
    dy, dx = d_coord(J2_3RD, "y"), d_coord(J2_3RD, "x")
    omega = dy - dx.scaled(ex.sym("p"))
    dd = d(omega)
    assert set(dd.coeffs) == {(0, 2)}
    assert dd.coeff((0, 2)) is ex.ONE


@given(st.sampled_from(["dy - p*dx", "dp - q*dx", "dq", "x*y*dp"]))
@settings(deadline=None)
def test_d_squared_zero(desc):
    dx, dy, dp, dq = (d_coord(J2_3RD, n) for n in ("x", "y", "p", "q"))
    p, q, x, y = (ex.sym(n) for n in ("p", "q", "x", "y"))
    catalog = {
        "dy - p*dx": dy - dx.scaled(p),
        "dp - q*dx": dp - dx.scaled(q),
        "dq": dq,
        "x*y*dp": dp.scaled(ex.mul(x, y)),
    }
    dd = d(d(catalog[desc]))
    assert_form_zero(dd, unit_box(J2_3RD.coords))


def test_wedge_graded_commutativity():
    p, q = ex.sym("p"), ex.sym("q")
    dx, dy, dp, dq = (d_coord(J2_3RD, n) for n in ("x", "y", "p", "q"))
    a = dy.scaled(q) - dx.scaled(ex.mul(p, q))          # 1-form
    b = wedge(dp, dq).scaled(ex.add(1, p)) + wedge(dx, dy)  # 2-form
    lhs = wedge(a, b)
    rhs = wedge(b, a).scaled(ex.num((-1) ** (1 * 2)))
    forms_equal(lhs, rhs, unit_box(J2_3RD.coords))


def test_cartan_magic_formula():
    p, q, F = ex.sym("p"), ex.sym("q"), ex.parse("q^2")
    X = total_derivative("3rd-order", F)
    dx, dy, dp = (d_coord(J2_3RD, n) for n in ("x", "y", "p"))
    omega = wedge(dy - dx.scaled(p), dp).scaled(ex.add(q, 2))
    lhs = lie_derivative(X, omega)
    rhs = interior(X, d(omega)) + d(interior(X, omega))
    forms_equal(lhs, rhs, unit_box(J2_3RD.coords))


def test_lie_derivative_translation_invariance():
    X = VectorField(J2_3RD, (ex.ONE,) + (ex.ZERO,) * 3)
    dx = d_coord(J2_3RD, "x")
    assert not lie_derivative(X, dx).coeffs


# --- total derivative fields -----------------------------------------------

def test_total_derivative_components():
    D3 = total_derivative("3rd-order", 0)
    assert [ex.to_str(c) for c in D3.comps] == ["1", "p", "q", "0"]
    Dm2 = total_derivative("monge2", ex.parse("q^2"))
    assert [ex.to_str(c) for c in Dm2.comps] == ["1", "p", "q", "0", "q^2"]


def test_total_derivative_chart_mismatch():
    with pytest.raises(ChartError):
        total_derivative("monge1", ex.parse("q^2"))


def test_total_derivative_kills_contact_form_on_solutions():
    # <dz - F dx, D> = 0 for the first-order Monge class
    F = ex.sym("y")
    D = total_derivative("monge1", F)
    dz, dx = d_coord(MONGE1, "z"), d_coord(MONGE1, "x")
    pairing = interior(D, dz - dx.scaled(F))
    assert pairing.coeff(()).is_zero_literal or is_zero(
        pairing.coeff(()), unit_box(MONGE1.coords), CFG).is_zero


def test_monge1_condition_hand_value():
    # for F = y: D F_p - F_y - F_p F_z = -1
    F = ex.sym("y")
    D = total_derivative("monge1", F)
    Fp = ex.differentiate(F, "p")
    residual = ex.add(D.apply(Fp), ex.neg(ex.differentiate(F, "y")),
                      ex.neg(ex.mul(Fp, ex.differentiate(F, "z"))))
    assert residual is ex.num(-1)


# --- dKP hand-expansion oracles ---------------------------------------------

def dkp_forms(u):
    v = ex.sym("v")
    dx, dy, dt, dv = (d_coord(DKP, n) for n in ("x", "y", "t", "v"))
    ux, uy = ex.differentiate(u, "x"), ex.differentiate(u, "y")
    w1 = dx + dt.scaled(ex.add(u, ex.pow_(v, 2))) + dy.scaled(v)
    w4 = dv - dt.scaled(ex.add(uy, ex.mul(ux, v))) - dy.scaled(ux)
    return w1, w4


def test_d_omega1_matches_hand_expansion():
    # for u = sqrt(2x):  d w1 = (2x)^(-1/2) dx^dt + dv^dy + 2v dv^dt
    u = ex.parse("sqrt(2*x)")
    w1, _ = dkp_forms(u)
    got = d(w1)
    dx, dy, dt, dv = (d_coord(DKP, n) for n in ("x", "y", "t", "v"))
    want = wedge(dx, dt).scaled(ex.parse("(2*x)^(-1/2)")) + wedge(dv, dy) \
        + wedge(dv, dt).scaled(ex.parse("2*v"))
    bx = box(x=(0.2, 2.0), y=(-1.0, 1.0), t=(-1.0, 1.0), v=(-1.0, 1.0))
    forms_equal(got, want, bx)


def test_dkp_first_residual_vanishes_identically():
    # d w1 ^ w1 ^ w4 = 0 for every u, by direct expansion
    u = ex.parse("x^3 + 2*x*y*t + y^2")
    w1, w4 = dkp_forms(u)
    residual = wedge_all(d(w1), w1, w4)
    assert_form_zero(residual, unit_box(DKP.coords))


def test_dkp_second_residual_is_scalar_times_volume():
    # d w4 ^ w1 ^ w4 = -(u_yy + u_x^2 - u_xt + u u_xx) vol
    u = ex.parse("x^3 + 2*x*y*t + y^2 + t^2*x")
    w1, w4 = dkp_forms(u)
    residual = wedge_all(d(w4), w1, w4)
    ux = ex.differentiate(u, "x")
    s = ex.add(ex.diff_n(u, "y", 2), ex.pow_(ux, 2),
               ex.neg(ex.differentiate(ux, "t")),
               ex.mul(u, ex.differentiate(ux, "x")))
    assert set(residual.coeffs) <= {(0, 1, 2, 3)}
    diff = ex.add(residual.coeff((0, 1, 2, 3)), s)
    assert is_zero(diff, unit_box(DKP.coords), CFG).is_zero


# --- symmetric forms ---------------------------------------------------------

def test_sym_product_components():
    dx, dy = d_coord(J2_3RD, "x"), d_coord(J2_3RD, "y")
    g = sym_product(dx, dy)
    assert g.rows[0][1] is ex.HALF
    assert g.rows[1][0] is ex.HALF
    assert g.rows[0][0].is_zero_literal


def test_sym_square_is_tensor_square():
    dx = d_coord(J2_3RD, "x")
    g = sym_square(dx)
    assert g.rows[0][0] is ex.ONE


def test_lie_derivative_symmetric_flat_translation():
    X = VectorField(J2_3RD, (ex.ONE,) + (ex.ZERO,) * 3)
    dx, dy = d_coord(J2_3RD, "x"), d_coord(J2_3RD, "y")
    g = sym_product(dx, dy).scaled(2)
    lg = lie_derivative(X, g)
    assert all(c.is_zero_literal for row in lg.rows for c in row)


def test_conformal_transport_scaling_field():
    # L_{r d/dr} (dr (x) dr) = 2 dr (x) dr on a 1d-style chart embedded in J2
    r = ex.sym("x")
    X = VectorField(J2_3RD, (r,) + (ex.ZERO,) * 3)
    g = sym_square(d_coord(J2_3RD, "x"))
    res = conformal_transport_factor(X, g, unit_box(J2_3RD.coords, 0.3, 1.0), CFG)
    assert res.success
    assert ex.eval_numeric(res.factor, {"x": 0.7}) == 2


def test_conformal_transport_rejects_vanishing_form():
    X = VectorField(J2_3RD, (ex.ONE,) + (ex.ZERO,) * 3)
    with pytest.raises(ChartError):
        conformal_transport_factor(X, SymmetricForm(J2_3RD, [[0] * 4] * 4),
                                   unit_box(J2_3RD.coords), CFG)


def test_transport_result_records_pivot():
    r = ex.sym("x")
    X = VectorField(J2_3RD, (r,) + (ex.ZERO,) * 3)
    g = sym_square(d_coord(J2_3RD, "x"))
    res = conformal_transport_factor(X, g, unit_box(J2_3RD.coords, 0.3, 1.0),
                                     CFG)
    assert res.pivot == (0, 0)
    assert res.to_json()["pivot"] == [0, 0]


def test_transport_pivot_passes_entries_undefined_at_the_centre():
    # 1/x cannot be evaluated at the centre x = 0 of the box: those entries
    # have magnitude 0, and the entries after them are still measured
    x = ex.sym("x")
    dx, dy, dz = (d_coord(J2_3RD, n) for n in ("x", "y", "q"))
    g = (sym_square(dx).scaled(ex.div(1, x)) + sym_square(dy).scaled(
        ex.add(2, ex.sym("y"))) + sym_square(dz).scaled(ex.div(1, x)))
    X = VectorField(J2_3RD, (x,) + (ex.ZERO,) * 3)
    res = conformal_transport_factor(X, g, unit_box(J2_3RD.coords), CFG)
    assert res.pivot == (1, 1) and not res.success


@pytest.mark.parametrize("tag,contact", [
    ("3rd-order", ["dy - p*dx", "dp - q*dx", "dq - F*dx"]),
    ("2nd-order", ["dy - p*dx", "dp - F*dx"]),
    ("monge1", ["dz - F*dx", "dy - p*dx"]),
    ("monge2", ["dz - F*dx", "dy - p*dx", "dp - q*dx"]),
])
def test_total_derivative_annihilates_contact_forms(tag, contact):
    from odegeom.exterior import _TOTAL_DERIVATIVE_SLOTS
    chart = _TOTAL_DERIVATIVE_SLOTS[tag][0]
    coords = set(chart.coords)
    f_text = {"3rd-order": "q^2 + y", "2nd-order": "p^2 + y",
              "monge1": "z + p*y", "monge2": "q^2 + z"}[tag]
    F = ex.parse(f_text)
    D = total_derivative(tag, F)
    base = {n: d_coord(chart, n) for n in chart.coords}
    for desc in contact:
        lhs_name, rhs = desc.replace(" ", "").split("-")
        lhs = base[lhs_name[1:]]
        coeff_name, dxpart = rhs.split("*")
        coeff = F if coeff_name == "F" else ex.sym(coeff_name)
        omega = lhs - base["x"].scaled(coeff)
        pairing = interior(D, omega).coeff(())
        if not pairing.is_zero_literal:
            assert is_zero(pairing, unit_box(chart.coords), CFG).is_zero, desc


@st.composite
def random_forms(draw):
    p, q, x = ex.sym("p"), ex.sym("q"), ex.sym("x")
    coeffs = [ex.ONE, p, q, ex.add(1, x), ex.mul(p, q), ex.num(-2)]
    degree = draw(st.integers(min_value=1, max_value=2))
    n_terms = draw(st.integers(min_value=1, max_value=3))
    combos = {1: [(0,), (1,), (2,), (3,)],
              2: [(0, 1), (0, 2), (1, 3), (2, 3)]}
    terms = {}
    for _ in range(n_terms):
        idx = draw(st.sampled_from(combos[degree]))
        terms[idx] = draw(st.sampled_from(coeffs))
    return DifferentialForm(J2_3RD, degree, terms)


@given(random_forms(), random_forms())
@settings(max_examples=40, deadline=None)
def test_wedge_graded_commutativity_random(a, b):
    if a.degree + b.degree > 4:
        return
    sign = (-1) ** (a.degree * b.degree)
    residual = wedge(a, b) - wedge(b, a).scaled(ex.num(sign))
    assert_form_zero(residual, unit_box(J2_3RD.coords),
                     CFG.with_(samples=5))


@given(random_forms())
@settings(max_examples=30, deadline=None)
def test_cartan_magic_formula_random(omega):
    X = total_derivative("3rd-order", ex.parse("q^2"))
    lhs = lie_derivative(X, omega)
    if omega.degree == J2_3RD.dim:
        rhs = d(interior(X, omega))
    else:
        rhs = interior(X, d(omega)) + d(interior(X, omega))
    assert_form_zero(lhs - rhs, unit_box(J2_3RD.coords),
                     CFG.with_(samples=5))
