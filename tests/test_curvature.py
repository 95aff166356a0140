import itertools
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from odegeom import expr as ex
from odegeom.config import RunConfig
from odegeom.curvature import (
    CurvaturePackage, _at, _eigenvalues, _merged, _riemann_symmetric,
    MetricError, TensorField,
    conformal_rescale, cotton3,
    curvature_package, einstein_residual,
    signature_at, signatures, symbolic_inverse, tensor_zero_exprs, weyl,
    weyl_connection_residual, weyl_square,
)
from odegeom.exterior import (J1EXT, MONGE2, Chart, DifferentialForm,
                              SymmetricForm, _symmetric, zero_form)
from odegeom.monge import (_G32_TERMS, NULL_FRAME_ETA, contact_coframe,
                           example6_box, example6_coframe, example6_metric,
                           frame_metric, g32_coefficient, g32_metric,
                           monge_second)
from odegeom.ode2 import (FEFFERMAN_ETA, fefferman_coframe, fefferman_metric,
                          second_order)
from odegeom.zerotest import (DomainBox, box, combined_verdict, is_zero,
                              is_zero_many, unit_box)

CFG = RunConfig(samples=8)

E3 = Chart("E3", ("x", "y", "z"))
E4 = Chart("E4", ("x", "y", "z", "u"))


def metric_from_rows(chart, rows, bx):
    """The metric whose entries are the upper triangle of `rows`."""
    return SymmetricForm(chart, _symmetric(
        chart.dim, lambda i, j: ex.as_expr(rows[i][j])), bx)


def assert_tensor_zero(T, bx, cfg=CFG):
    named = tensor_zero_exprs(T)
    if not named:
        return
    verdicts = is_zero_many(named, bx, cfg)
    bad = {k: v.max_ratio for k, v in verdicts.items() if not v.is_zero}
    assert not bad, f"nonzero components: {bad}"


def exprs_zero(named, bx, cfg=CFG):
    named = {k: v for k, v in named.items() if not v.is_zero_literal}
    if not named:
        return
    verdicts = is_zero_many(named, bx, cfg)
    bad = {k: v.max_ratio for k, v in verdicts.items() if not v.is_zero}
    assert not bad, f"nonzero: {bad}"


# --- linear algebra helpers ---------------------------------------------

def test_symbolic_inverse_roundtrip():
    x, y = ex.sym("x"), ex.sym("y")
    rows = ((ex.add(1, ex.pow_(x, 2)), y), (y, ex.num(2)))
    inv, det = symbolic_inverse(rows)
    pt = {"x": 0.3, "y": 0.4}
    m = np.array([[float(ex.eval_numeric(c, pt)) for c in r] for r in rows])
    mi = np.array([[float(ex.eval_numeric(c, pt)) for c in r] for r in inv])
    assert np.allclose(m @ mi, np.eye(2), atol=1e-12)
    assert abs(float(ex.eval_numeric(det, pt)) - np.linalg.det(m)) < 1e-12


# --- flat metrics ---------------------------------------------------------

def test_flat_minkowski3_all_zero():
    g = metric_from_rows(E3, [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                         unit_box(E3.coords))
    pkg = curvature_package(g)
    assert all(c.is_zero_literal
               for plane in pkg.riemann_up
               for mat in plane for row in mat for c in row)
    assert pkg.scalar.is_zero_literal


def test_polar_coordinates_are_flat():
    # dx^2 + x^2 dy^2 + dz^2 is Euclidean 3-space in cylindrical coordinates
    x = ex.sym("x")
    g = metric_from_rows(E3, [[1, 0, 0], [0, ex.pow_(x, 2), 0], [0, 0, 1]],
                         box(x=(0.5, 2.0), y=(-1, 1), z=(-1, 1)))
    pkg = curvature_package(g)
    named = {f"R{a}{b}{c}{dd}": pkg.riemann_up[a][b][c][dd]
             for a in range(3) for b in range(3)
             for c in range(3) for dd in range(3)}
    exprs_zero(named, g.box)


# --- product of a line and a round sphere ---------------------------------

def sphere_product_metric(a=2):
    # du^2 + round 2-sphere of radius a in stereographic coordinates
    x, y = ex.sym("x"), ex.sym("y")
    conf = ex.div(ex.num(4 * a * a),
                  ex.pow_(ex.add(1, ex.pow_(x, 2), ex.pow_(y, 2)), 2))
    ch = Chart("LineSphere", ("u", "x", "y"))
    return metric_from_rows(
        ch, [[1, 0, 0], [0, conf, 0], [0, 0, conf]],
        DomainBox({"u": (-1, 1), "x": (-1, 1), "y": (-1, 1)}))


def test_sphere_block_scalar_curvature():
    # hand value: scalar curvature of R x S^2(a) is 2/a^2
    g = sphere_product_metric(a=2)
    pkg = curvature_package(g)
    residual = ex.add(pkg.scalar, ex.num(-0.5) if False else ex.neg(ex.div(ex.num(2), ex.num(4))))
    assert is_zero(residual, g.box, CFG).is_zero


def test_hyperbolic_space_is_einstein():
    # upper half-space metric (dx^2+dy^2+dz^2)/z^2: Ric = -2 g, R = -6
    z = ex.sym("z")
    conf = ex.pow_(z, -2)
    g = metric_from_rows(E3, [[conf, 0, 0], [0, conf, 0], [0, 0, conf]],
                         box(x=(-1, 1), y=(-1, 1), z=(0.5, 2.0)))
    pkg = curvature_package(g)
    assert is_zero(ex.add(pkg.scalar, 6), g.box, CFG).is_zero
    assert_tensor_zero(einstein_residual(g), g.box)


# --- invariance properties --------------------------------------------------

def random_polynomial(coords, rng, deg=2):
    terms = [ex.num(rng.randint(-2, 2))]
    for c in coords:
        terms.append(ex.mul(ex.num(rng.randint(-2, 2)), ex.sym(c)))
    for c in coords:
        for c2 in coords:
            terms.append(ex.mul(ex.num(rng.randint(-1, 1)),
                                ex.sym(c), ex.sym(c2)))
    return ex.mul(ex.num(0.1), ex.add(*terms))


def test_cotton_flat_and_conformally_flat():
    rng = random.Random(11)
    f = random_polynomial(E3.coords, rng)
    conf = ex.exp(ex.mul(2, f))
    g = metric_from_rows(E3, [[conf, 0, 0], [0, conf, 0], [0, 0, conf]],
                         unit_box(E3.coords))
    assert_tensor_zero(cotton3(g), g.box)


def synthetic_nonflat_3metric():
    x, y = ex.sym("x"), ex.sym("y")
    return metric_from_rows(
        E3,
        [[ex.add(1, ex.pow_(x, 2)), ex.mul(ex.num(0.25), x, y), 0],
         [ex.mul(ex.num(0.25), x, y), ex.add(2, ex.pow_(y, 2)), 0],
         [0, 0, ex.add(1, ex.mul(ex.num(0.5), ex.pow_(x, 2)))]],
        unit_box(E3.coords))


def test_cotton_properties_on_synthetic_metric():
    g = synthetic_nonflat_3metric()
    pkg = curvature_package(g)
    C = pkg.cotton
    n = 3
    # antisymmetry in the last pair
    anti = {f"anti{i}{j}{k}": ex.add(C[i][j][k], C[i][k][j])
            for i in range(n) for j in range(n) for k in range(n)}
    exprs_zero(anti, g.box)
    # trace freeness: g^{ij} C_ijk = 0 and C contracted on (i,k) with g
    ginv = pkg.inverse
    tr1 = {f"tr1_{k}": ex.add(*[ex.mul(ginv[i][j], C[i][j][k])
                                for i in range(n) for j in range(n)])
           for k in range(n)}
    exprs_zero(tr1, g.box)


def test_cotton_conformal_invariance_dim3():
    g = synthetic_nonflat_3metric()
    rng = random.Random(3)
    f = random_polynomial(E3.coords, rng)
    g2 = conformal_rescale(g, f)
    c1 = cotton3(g).comps
    c2 = cotton3(g2).comps
    named = {}
    for i in range(3):
        for j in range(3):
            for k in range(3):
                named[f"d{i}{j}{k}"] = ex.add(c2[i][j][k],
                                              ex.neg(c1[i][j][k]))
    exprs_zero(named, g.box, RunConfig(samples=5))


def conformally_flat_4metric():
    rng = random.Random(5)
    f = random_polynomial(E4.coords, rng)
    conf = ex.exp(ex.mul(2, f))
    eta = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    rows = [[ex.mul(conf, ex.num(eta[i][j])) for j in range(4)]
            for i in range(4)]
    return metric_from_rows(E4, rows, unit_box(E4.coords))


def test_weyl_vanishes_for_conformally_flat():
    g = conformally_flat_4metric()
    assert_tensor_zero(weyl(g), g.box, RunConfig(samples=5, tol=1e-9))


def test_weyl_square_flat():
    g = metric_from_rows(E4, [[1, 0, 0, 0], [0, -1, 0, 0],
                              [0, 0, -1, 0], [0, 0, 0, -1]],
                         unit_box(E4.coords))
    assert weyl_square(g).is_zero_literal or is_zero(
        weyl_square(g), g.box, CFG).is_zero


def nonflat_4metric():
    x, y, z = ex.sym("x"), ex.sym("y"), ex.sym("z")
    return metric_from_rows(
        E4,
        [[ex.add(1, ex.pow_(x, 2)), 0, 0, ex.mul(ex.num(0.3), y)],
         [0, ex.add(-1, ex.mul(ex.num(-1, ), ex.pow_(z, 2))), 0, 0],
         [0, 0, -1, ex.mul(ex.num(0.2), x)],
         [ex.mul(ex.num(0.3), y), 0, ex.mul(ex.num(0.2), x), -2]],
        unit_box(E4.coords))


def test_first_bianchi_and_metric_compatibility():
    g = nonflat_4metric()
    pkg = curvature_package(g)
    n = 4
    R = pkg.riemann_up
    named = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for dd in range(n):
                    named[f"B{a}{b}{c}{dd}"] = ex.add(
                        R[a][b][c][dd], R[a][c][dd][b], R[a][dd][b][c])
    exprs_zero(named, g.box, RunConfig(samples=5))
    nabla_g = pkg.covariant_derivative_02(g.rows)
    named = {f"ng{k}{i}{j}": nabla_g[k][i][j]
             for k in range(n) for i in range(n) for j in range(n)}
    exprs_zero(named, g.box, RunConfig(samples=5))


def test_weyl_trace_freeness_and_conformal_weight():
    g = nonflat_4metric()
    pkg = curvature_package(g)
    W = pkg.weyl_low
    ginv = pkg.inverse
    n = 4
    traces = {}
    for b in range(n):
        for dd in range(n):
            traces[f"t13_{b}{dd}"] = ex.add(
                *[ex.mul(ginv[a][c], W[a][b][c][dd])
                  for a in range(n) for c in range(n)])
            traces[f"t14_{b}{dd}"] = ex.add(
                *[ex.mul(ginv[a][c], W[a][b][dd][c])
                  for a in range(n) for c in range(n)])
    exprs_zero(traces, g.box, RunConfig(samples=5))

    # all-lower Weyl picks up exactly e^{2f} under g -> e^{2f} g
    f = ex.mul(ex.num(0.2), ex.add(ex.sym("x"), ex.sym("u")))
    g2 = conformal_rescale(g, f)
    W2 = CurvaturePackage(g2).weyl_low
    factor = ex.exp(ex.mul(2, f))
    named = {}
    for a in range(n):
        for b in range(n):
            named[f"w{a}{b}"] = ex.add(
                W2[a][b][0][1], ex.neg(ex.mul(factor, W[a][b][0][1])))
    exprs_zero(named, g.box, RunConfig(samples=5))


def test_weyl_square_conformal_weight():
    g = nonflat_4metric()
    f = ex.mul(ex.num(0.3), ex.sym("y"))
    g2 = conformal_rescale(g, f)
    lhs = weyl_square(g2)
    rhs = ex.mul(ex.exp(ex.mul(-4, f)), weyl_square(g))
    assert is_zero(ex.add(lhs, ex.neg(rhs)), g.box,
                   RunConfig(samples=5)).is_zero


# --- Weyl connection ---------------------------------------------------------

def test_weyl_connection_residual_zero_cases():
    g = metric_from_rows(E3, [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                         unit_box(E3.coords))
    nu = zero_form(E3, 1)
    assert_tensor_zero(weyl_connection_residual(g, nu), g.box)


def brute_weyl_residual(point, gmat, nu_vec):
    """Independent numeric oracle for flat metric and constant nu: the
    connection symbols are constants, so only the Gamma*Gamma terms act."""
    n = 3
    g = np.array(gmat, dtype=float)
    ginv = np.linalg.inv(g)
    nu_low = np.array(nu_vec, dtype=float)
    nu_up = ginv @ nu_low
    gam = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gam[k, i, j] = 0.5 * ((k == i) * nu_low[j] + (k == j) * nu_low[i]
                                      - g[i, j] * nu_up[k])
    riem = np.zeros((n, n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for dd in range(n):
                    acc = 0.0
                    for e in range(n):
                        acc += gam[a, c, e] * gam[e, dd, b]
                        acc -= gam[a, dd, e] * gam[e, c, b]
                    riem[a, b, c, dd] = acc
    ric = np.einsum("abad->bd", riem)
    ric = 0.5 * (ric + ric.T)
    scal = np.einsum("ij,ij->", ginv, ric)
    return ric - scal / 3.0 * g


def test_weyl_connection_constant_nu_matches_brute_force():
    gmat = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    g = metric_from_rows(E3, gmat, unit_box(E3.coords))
    c = 0.75
    nu = DifferentialForm(E3, 1, {(0,): ex.num(0.75)})
    T = weyl_connection_residual(g, nu)
    rng = random.Random(0)
    for _ in range(3):
        pt = {n: rng.uniform(-1, 1) for n in E3.coords}
        want = brute_weyl_residual(pt, gmat, [c, 0, 0])
        got = np.array([[float(ex.eval_numeric(T.comps[i][j], pt))
                         for j in range(3)] for i in range(3)])
        assert np.allclose(got, want, atol=1e-12)


def test_weyl_connection_gauge_property():
    # the residual is an invariant of the gauge class (g, nu) ~
    # (e^{-2phi} g, nu + 2 dphi): the connection itself is unchanged and the
    # trace term R g_ij carries no net weight
    g = synthetic_nonflat_3metric()
    y = ex.sym("y")
    nu = DifferentialForm(E3, 1, {(0,): y, (1,): ex.num(0.5)})
    rng = random.Random(4)
    phi = random_polynomial(E3.coords, rng)
    base = weyl_connection_residual(g, nu)

    g2 = conformal_rescale(g, ex.neg(phi))  # e^{-2 phi} g
    dphi = [ex.differentiate(phi, c) for c in E3.coords]
    nu2 = DifferentialForm(E3, 1, {(i,): ex.add(nu.coeff((i,)),
                                                ex.mul(2, dphi[i]))
                                   for i in range(3)})
    shifted = weyl_connection_residual(g2, nu2)
    named = {}
    for i in range(3):
        for j in range(3):
            named[f"g{i}{j}"] = ex.add(
                shifted.comps[i][j], ex.neg(base.comps[i][j]))
    exprs_zero(named, g.box, RunConfig(samples=5))


def test_weyl_connection_residual_reduces_to_einstein_trace_free_part():
    g = synthetic_nonflat_3metric()
    nu = zero_form(E3, 1)
    a = weyl_connection_residual(g, nu)
    b = einstein_residual(g)
    named = {f"d{i}{j}": ex.add(a.comps[i][j], ex.neg(b.comps[i][j]))
             for i in range(3) for j in range(3)}
    exprs_zero(named, g.box, RunConfig(samples=5))


# --- rescaling and frames -----------------------------------------------------

def test_conformal_rescale_identity():
    g = synthetic_nonflat_3metric()
    assert conformal_rescale(g, 0).rows == g.rows


def test_signature_at():
    g = metric_from_rows(E3, [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                         unit_box(E3.coords))
    assert signature_at(g, {n: 0.1 for n in E3.coords}) == (1, 2, 0)


def test_jacobi_eigenvalues_match_numpy():
    rng = random.Random(14)
    for trial in range(600):
        n = 3 + trial % 3
        m = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):  # about a third of the entries zero
                if rng.random() > 0.3:
                    m[i][j] = m[j][i] = rng.uniform(-1.0, 1.0)
        if trial % 2:  # rows and columns scaled by 1e-4 .. 1e4
            d = [10.0 ** rng.uniform(-4, 4) for _ in range(n)]
            m = [[d[i] * m[i][j] * d[j] for j in range(n)] for i in range(n)]
        want = np.linalg.eigvalsh(np.array(m))
        got = sorted(_eigenvalues([row[:] for row in m]))
        scale = max(abs(want)) or 1.0
        assert max(abs(want - got)) <= 1e-12 * scale, (m, got, want)
    assert _eigenvalues([[0.0] * 4 for _ in range(4)]) == [0.0] * 4
    assert sorted(_eigenvalues([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                                [0.0, 0.0, -1.0]])) == [-1.0, 2.0, 2.0]


def test_signatures_share_one_tape_point_by_point():
    g = fefferman_metric(second_order(ex.parse("p^2", allowed={"x", "y", "p"})))
    rng = random.Random(3)
    points = [g.box.sample(rng) for _ in range(6)]
    sigs = signatures(g, points)
    assert sigs == [signature_at(g, pt) for pt in points]
    assert set(sigs) == {(2, 2, 0)}
    flat = metric_from_rows(E3, [[1, 0, 0], [0, 0, 0], [0, 0, -1]],
                            unit_box(E3.coords))
    assert signatures(flat, [{"x": 0, "y": 0, "z": 0}]) == [(1, 1, 1)]


def test_importing_the_package_imports_no_numpy():
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(ex.__file__))
    code = ("import sys, odegeom, odegeom.cli; "
            "sys.exit('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_dimension_guards():
    from odegeom.curvature import MetricError
    g3 = synthetic_nonflat_3metric()
    with pytest.raises(MetricError):
        weyl(g3)
    g4 = nonflat_4metric()
    with pytest.raises(MetricError):
        cotton3(g4)
    with pytest.raises(MetricError):
        weyl_connection_residual(g4, zero_form(E4, 1))


# --- independent index sets against the all-index loops ------------------------
#
# The reference below is the construction the independent-set build replaced:
# every Christoffel symbol, every R^a_bcd, every lowered Riemann and Weyl
# component built by its own formula, with Ricci, scalar and Schouten taken
# from the reference R^a_bcd.  Comparing all n^4 components checks the
# antisymmetries and the pair symmetry the new tables rely on.

def metric_derivatives(g):
    """dg[k][i][j] = d_k g_ij."""
    n, coords = g.dim, g.chart.coords
    return [[[ex.differentiate(g.rows[i][j], coords[k]) for j in range(n)]
             for i in range(n)] for k in range(n)]


def reference_christoffel(pkg):
    n, ginv, dg = pkg.n, pkg.inverse, metric_derivatives(pkg.metric)
    return [[[ex.mul(ex.HALF, ex.add(*[
        ex.mul(ginv[a][dd], ex.add(dg[i][dd][j], dg[j][i][dd],
                                   ex.neg(dg[dd][i][j])))
        for dd in range(n)])) for j in range(n)] for i in range(n)]
        for a in range(n)]


def reference_connection_curvature(n, coords, gamma):
    dgamma = [[[[ex.differentiate(gamma[a][i][j], coords[c])
                 for c in range(n)] for j in range(n)] for i in range(n)]
              for a in range(n)]
    out = [[[[None] * n for _ in range(n)] for _ in range(n)]
           for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for dd in range(n):
                    terms = [dgamma[a][dd][b][c], ex.neg(dgamma[a][c][b][dd])]
                    for e in range(n):
                        terms.append(ex.mul(gamma[a][c][e], gamma[e][dd][b]))
                        terms.append(
                            ex.neg(ex.mul(gamma[a][dd][e], gamma[e][c][b])))
                    out[a][b][c][dd] = ex.add(*terms)
    return out


def reference_riemann_low(n, g, up):
    return [[[[ex.add(*[ex.mul(g[a][e], up[e][b][c][dd]) for e in range(n)])
               for dd in range(n)] for c in range(n)] for b in range(n)]
            for a in range(n)]


def reference_weyl_low(n, g, ginv, up, low):
    ric = [[ex.add(*[up[a][b][a][dd] for a in range(n)]) for dd in range(n)]
           for b in range(n)]
    scalar = ex.add(*[ex.mul(ginv[b][dd], ric[b][dd])
                      for b in range(n) for dd in range(n)])
    r_over = ex.div(scalar, ex.num(2 * (n - 1)))
    s = [[ex.mul(ex.num(Fraction(1, n - 2)),
                 ex.add(ric[i][j], ex.neg(ex.mul(r_over, g[i][j]))))
          for j in range(n)] for i in range(n)]
    out = [[[[None] * n for _ in range(n)] for _ in range(n)]
           for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for dd in range(n):
                    corr = ex.add(
                        ex.mul(g[a][c], s[b][dd]),
                        ex.neg(ex.mul(g[a][dd], s[b][c])),
                        ex.mul(g[b][dd], s[a][c]),
                        ex.neg(ex.mul(g[b][c], s[a][dd])))
                    out[a][b][c][dd] = ex.add(low[a][b][c][dd], ex.neg(corr))
    return out


def frame_metric_cubic():
    return frame_metric(ex.parse("q^3/6"))


@pytest.mark.parametrize("make", [
    lambda: fefferman_metric(second_order("p^4")),
    nonflat_4metric,
    frame_metric_cubic,
], ids=["fefferman-p4", "nonflat-4metric", "frame-metric-q3"])
def test_independent_sets_match_all_index_reference(make):
    g = make()
    pkg = curvature_package(g)
    n, rows = pkg.n, g.rows
    gamma = reference_christoffel(pkg)
    up = reference_connection_curvature(n, g.chart.coords, gamma)
    low = reference_riemann_low(n, rows, up)
    weyl_ref = reference_weyl_low(n, rows, pkg.inverse, up, low)
    named = {}
    for a in range(n):
        for i in range(n):
            for j in range(n):
                named[f"G{a}{i}{j}"] = ex.add(pkg.christoffel[a][i][j],
                                              ex.neg(gamma[a][i][j]))
    for tag, new, ref in (("U", pkg.riemann_up, up),
                          ("L", pkg.riemann_low, low),
                          ("W", pkg.weyl_low, weyl_ref)):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for dd in range(n):
                        named[f"{tag}{a}{b}{c}{dd}"] = ex.add(
                            new[a][b][c][dd], ex.neg(ref[a][b][c][dd]))
    assert len(named) == n ** 3 + 3 * n ** 4
    exprs_zero(named, g.box, RunConfig(samples=5))


def test_independent_sets_are_built_once_and_mirrored():
    pkg = curvature_package(nonflat_4metric())
    n = pkg.n
    up, low, W = pkg.riemann_up, pkg.riemann_low, pkg.weyl_low
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert up[a][b][c][c] is ex.ZERO
                assert low[a][a][b][c] is ex.ZERO and W[b][c][a][a] is ex.ZERO
                for dd in range(n):
                    assert up[a][b][dd][c] is ex.neg(up[a][b][c][dd])
                    for T in (low, W):
                        assert T[b][a][c][dd] is ex.neg(T[a][b][c][dd])
                        assert T[c][dd][a][b] is T[a][b][c][dd]
    # 21 independent lowered components in dimension 4, 55 in dimension 5
    assert len(tensor_zero_exprs(weyl(nonflat_4metric()))) == 21
    assert len(tensor_zero_exprs(weyl(frame_metric_cubic()))) <= 55


def test_tensor_zero_exprs_names_each_node_once():
    x, y, z = ex.sym("x"), ex.sym("y"), ex.sym("z")
    s = ex.add(x, y)
    comps = ((x, ex.neg(x), ex.ZERO),
             (y, x, ex.neg(y)),
             (ex.ZERO, ex.neg(s), s))
    named = tensor_zero_exprs(TensorField(E3, "ll", comps), "T")
    # a literal zero, a repeat and the negative of an earlier node are left
    # out; the first index in row-major order names each node
    assert named == {"T00": x, "T10": y, "T21": ex.neg(s)}
    # only the structural negative counts: -1.0*x is a node of its own
    scaled = ((x, ex.mul(-1.0, x), ex.mul(2, z)),
              (ex.mul(-2, z), ex.ZERO, ex.ZERO),
              (ex.ZERO, ex.ZERO, ex.ZERO))
    named = tensor_zero_exprs(TensorField(E3, "ll", scaled))
    assert set(named) == {"00", "01", "02"}


# --- Ricci and scalar from the lowered Riemann tensor -------------------------
#
# The package builds R_abcd from the metric's second derivatives and
# R_bd = g^ac R_abcd from it; the reference is R_bd = R^a_bad of the
# all-index R^a_bcd chain above.

@pytest.mark.parametrize("make", [
    lambda: fefferman_metric(second_order("p^4")),
    nonflat_4metric,
    frame_metric_cubic,
], ids=["fefferman-p4", "nonflat-4metric", "frame-metric-q3"])
def test_ricci_and_scalar_match_riemann_up_reference(make):
    g = make()
    pkg = curvature_package(g)
    n, ginv = pkg.n, pkg.inverse
    up = reference_connection_curvature(n, g.chart.coords,
                                        reference_christoffel(pkg))
    ric = [[ex.add(*[up[a][b][a][dd] for a in range(n)]) for dd in range(n)]
           for b in range(n)]
    scalar = ex.add(*[ex.mul(ginv[b][dd], ric[b][dd])
                      for b in range(n) for dd in range(n)])
    named = {f"ric{b}{dd}": ex.add(pkg.ricci[b][dd], ex.neg(ric[b][dd]))
             for b in range(n) for dd in range(n)}
    named["scalar"] = ex.add(pkg.scalar, ex.neg(scalar))
    exprs_zero(named, g.box, RunConfig(samples=5))
    assert "riemann_up" not in pkg.__dict__


@pytest.mark.parametrize("make", [
    lambda: fefferman_metric(second_order("p^(5/2)")),
    nonflat_4metric,
    frame_metric_cubic,
], ids=["fefferman-p52", "nonflat-4metric", "frame-metric-q3"])
def test_ricci_and_schouten_are_built_once_per_pair(make):
    pkg = curvature_package(make())
    n = pkg.n
    for b in range(n):
        for dd in range(n):
            assert pkg.ricci[b][dd] is pkg.ricci[dd][b]
            assert pkg.schouten[b][dd] is pkg.schouten[dd][b]


def test_levi_civita_path_builds_no_riemann_up():
    for g in (nonflat_4metric(), frame_metric_cubic()):
        pkg = curvature_package(g)
        pkg.weyl_low
        pkg.scalar
        assert "riemann_low" in pkg.__dict__
        assert "riemann_up" not in pkg.__dict__
    # in coordinates the structure functions vanish and the connection is
    # the Christoffel symbols of the first kind, one node for Gamma_aij and
    # Gamma_aji
    pkg = curvature_package(nonflat_4metric())
    n, dg = pkg.n, metric_derivatives(pkg.metric)
    assert all(c is ex.ZERO for cs in pkg.structure.values() for c in cs)
    for a in range(n):
        for i in range(n):
            for j in range(i, n):
                assert pkg.connection[a][i][j] is pkg.connection[a][j][i]
                assert pkg.connection[a][i][j] is ex.mul(ex.HALF, ex.add(
                    dg[i][a][j], dg[j][a][i], ex.neg(dg[a][i][j])))


# --- frame route against the converted coordinate route ----------------------

def reference_frame_components(T, coframe):
    """Components of the all-lower tensor T in the frame dual to `coframe`
    (theta^a = M^a_i dx^i): T_{a...} = sum (M^-1)^i_a ... T_{i...}, every
    coordinate component rescanned for each frame component."""
    n = T.chart.dim
    m = [[coframe[a].coeff((i,)) for i in range(n)] for a in range(n)]
    minv, _det = symbolic_inverse(m)
    k = len(T.variance)
    flat = T.flatten()

    def convert(frame_idx):
        terms = []
        for coord_idx, comp in flat.items():
            if comp.is_zero_literal:
                continue
            facts = [minv[coord_idx[r]][frame_idx[r]] for r in range(k)]
            terms.append(ex.mul(*facts, comp))
        return ex.add(*terms) if terms else ex.ZERO

    return {idx: convert(idx) for idx in T.flatten()}


def assert_same_values(got, want, bx):
    """got[k] is a literal zero exactly where want[k] is one; elsewhere the
    two agree at three points of bx, evaluated at 40 digits, to a relative
    error of 1e-30.  The error is taken relative to 1 + max |want[k]| at the
    point, as the zero test adds 1 to its scale: a component that vanishes
    but for rounding noise has no magnitude of its own to compare with."""
    assert got.keys() == want.keys()
    assert all(got[k].is_zero_literal == want[k].is_zero_literal
               for k in want)
    keys = [k for k in want if not want[k].is_zero_literal]
    tape = ex.Tape([got[k] for k in keys] + [want[k] for k in keys])
    rng = random.Random(13)
    checked = 0
    with mpmath.workdps(40):
        for _ in range(40):
            try:
                vals = tape.values(bx.sample(rng))
            except ex.EvalError:
                continue
            new, ref = vals[:len(keys)], vals[len(keys):]
            bound = mpmath.mpf("1e-30") * (1 + max(map(abs, ref), default=0))
            for k, a, b in zip(keys, new, ref):
                assert abs(a - b) <= bound, k
            checked += 1
            if checked == 3:
                return
    pytest.fail("fewer than three points of the box evaluate")


# The frame route against the coordinate route converted to the same frame.
# Every ode2 formula of the catalog and the stream depends on p alone, so
# these are the only Fefferman metrics whose x and y structure functions
# are nonzero.
FEFFERMAN_SAMPLES = [
    ("p^4", {}), ("(5/7)*p^(5/2)", {"p": (0.5, 2.0)}),
    ("p^2/y", {"y": (0.5, 2.0)}), ("x*y*p^3 + y^2", {}),
    ("x^2*p + y*p^3", {})]


def assert_frame_route_matches(frame, coord_weyl, coframe, bx):
    want = reference_frame_components(coord_weyl, coframe)
    named = {f"d{''.join(map(str, idx))}": ex.add(frame.component(*idx),
                                                   ex.neg(c))
             for idx, c in want.items()}
    named = {k: c for k, c in named.items() if not c.is_zero_literal}
    verdicts = is_zero_many(named, bx, CFG)
    assert all(v.is_zero for v in verdicts.values())
    assert {v.method for v in verdicts.values()} <= {"exact", "structural"}


@pytest.mark.parametrize("formula, intervals", FEFFERMAN_SAMPLES,
                         ids=[f for f, _ in FEFFERMAN_SAMPLES])
def test_fefferman_frame_weyl_is_the_converted_coordinate_weyl(formula,
                                                               intervals):
    bx = DomainBox({**dict.fromkeys(("x", "y", "p", "phi"), (-1.0, 1.0)),
                    **intervals})
    ode = second_order(formula, bx)
    coframe = fefferman_coframe(ode)
    assert_frame_route_matches(
        weyl(SymmetricForm(J1EXT, FEFFERMAN_ETA), coframe),
        weyl(fefferman_metric(ode)), coframe, bx)


def test_riemann_up_refuses_a_coframe_other_than_the_coordinates():
    # connection_curvature differentiates along the coordinates, so in the
    # Fefferman coframe it would not be R^a_bcd
    coframe = fefferman_coframe(second_order("p^4"))
    pkg = CurvaturePackage(SymmetricForm(J1EXT, FEFFERMAN_ETA), coframe)
    with pytest.raises(MetricError, match="coordinate coframe"):
        pkg.riemann_up
    assert pkg.riemann_low  # the frame route is defined in any coframe


def test_example6_frame_weyl_is_the_converted_coordinate_weyl():
    F = ex.parse("q^3/6")
    g = frame_metric(F)
    coframe = example6_coframe(F)["alpha"]
    assert_frame_route_matches(
        weyl(SymmetricForm(MONGE2, NULL_FRAME_ETA), coframe), weyl(g),
        coframe, g.box)


def g32_contact_metric(formula):
    """The g32 metric in its contact coframe, as (components, coframe,
    coordinate metric): components that vary, in a coframe that is not a
    coordinate one.  The coefficient of theta^p theta^q is the component
    g_pp for p = q and 2 g_pq for p != q."""
    m = monge_second(formula, example6_box())
    forms = contact_coframe(m.F)
    coeffs = {pair: g32_coefficient(m.F, pair) for pair in _G32_TERMS}

    def component(a, b):
        c = coeffs.get((a + 1, b + 1), ex.ZERO)
        return c if a == b else ex.mul(ex.HALF, c)

    return (SymmetricForm(MONGE2, _symmetric(5, component)),
            tuple(forms[i] for i in range(1, 6)), g32_metric(m))


@pytest.mark.parametrize("formula, flat", [
    ("q^2", True), ("q^3", False), ("q^3 + y*p", False)])
def test_g32_contact_frame_weyl_is_the_converted_coordinate_weyl(formula,
                                                                 flat):
    comps, coframe, g = g32_contact_metric(formula)
    frame = weyl(comps, coframe)
    assert_frame_route_matches(frame, weyl(g), coframe, g.box)
    named = tensor_zero_exprs(frame)
    assert (not named or combined_verdict(
        is_zero_many(named, g.box, CFG), CFG).is_zero) is flat


def test_metric_is_parallel_in_the_g32_contact_frame():
    # grad_k g_ij = e_k(g_ij) - Gamma^l_ki g_lj - Gamma^l_kj g_il vanishes
    # with components that vary, in a coframe that is not a coordinate one
    comps, coframe, g = g32_contact_metric("q^3 + y*p")
    nabla = CurvaturePackage(comps, coframe).covariant_derivative_02(
        comps.rows)
    exprs_zero({f"ng{k}{i}{j}": nabla[k][i][j]
                for k, i, j in itertools.product(range(5), repeat=3)}, g.box)


def test_coframe_package_builds_each_independent_component_once():
    # the structure functions are built for b < c and the connection for
    # a < c and mirrored; the Riemann tensor has the coordinate route's shape
    coframe = fefferman_coframe(second_order("x*y*p^3 + y^2"))
    chart = coframe[0].chart
    pkg = CurvaturePackage(SymmetricForm(chart, FEFFERMAN_ETA), coframe)
    n = pkg.n
    assert sorted(pkg.structure) == [(b, c) for b in range(n)
                                     for c in range(b + 1, n)]
    gam = pkg.connection
    for a, b in itertools.product(range(n), repeat=2):
        assert gam[a][b][a] is ex.ZERO
        for c in range(a + 1, n):
            assert gam[c][b][a] is ex.neg(gam[a][b][c])
    low = pkg.riemann_low
    assert _riemann_symmetric(n, lambda *idx: _at(low, idx)) == low
    # eta's inverse is exact
    assert pkg.inverse == tuple(tuple(map(ex.num, r)) for r in FEFFERMAN_ETA)


def test_merged_sums_the_coefficients_of_equal_terms():
    x, y = ex.sym("x"), ex.sym("y")
    xy = ex.mul(x, y)
    half = ex.num(Fraction(1, 2))
    assert _merged(ex.mul(half, xy), ex.mul(half, xy), y) is ex.add(xy, y)
    assert _merged(ex.mul(ex.num(Fraction(-1, 4)), xy), y,
                   ex.mul(ex.num(Fraction(1, 4)), xy)) is y
    assert _merged(ex.neg(x), x) is ex.ZERO
    assert _merged(x, ex.mul(3, x), y) is ex.add(ex.mul(4, x), y)


def test_frame_weyl_refuses_what_it_cannot_build():
    coframe = fefferman_coframe(second_order("p^4"))
    eta = SymmetricForm(J1EXT, FEFFERMAN_ETA)
    with pytest.raises(MetricError, match="one 1-form per coordinate"):
        weyl(eta, coframe[:3])
    with pytest.raises(MetricError, match="one 1-form per coordinate"):
        weyl(eta, (*coframe[:3], zero_form(J1EXT, 2)))
    with pytest.raises(MetricError, match="one 1-form per coordinate"):
        weyl(eta, example6_coframe(ex.parse("q^3"))["alpha"][:4])


# --- sparse sums and shared minors against the dense loops they replaced ------
#
# The dense loops multiplied literal-zero factors in and gave every cofactor
# of the inverse a fresh memo; `mul` folds a zero factor to ZERO and `add`
# drops it, so the sparse sums must give the very same nodes.

def dense_det_minors(rows, cols, row0, memo):
    key = (row0, cols)
    if key not in memo:
        if len(cols) == 1:
            memo[key] = rows[row0][cols[0]]
        else:
            terms = []
            for k, j in enumerate(cols):
                rest = cols[:k] + cols[k + 1:]
                term = ex.mul(rows[row0][j],
                              dense_det_minors(rows, rest, row0 + 1, memo))
                terms.append(ex.neg(term) if k % 2 else term)
            memo[key] = ex.add(*terms)
    return memo[key]


def dense_inverse(rows):
    n = len(rows)
    det = dense_det_minors(rows, tuple(range(n)), 0, {})
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub_rows = [[rows[r][c] for c in range(n) if c != i]
                        for r in range(n) if r != j]
            cof = ex.ONE if n == 1 else dense_det_minors(
                sub_rows, tuple(range(n - 1)), 0, {})
            inv[i][j] = ex.div(ex.neg(cof) if (i + j) % 2 else cof, det)
    return inv, det


def dense_christoffel(pkg):
    """Gamma^a_ij = g^ad Gamma_dij, Gamma_dij = Gamma_dji
    = 1/2 (d_i g_dj + d_j g_di - d_d g_ij) in coordinates."""
    n, ginv, dg = pkg.n, pkg.inverse, metric_derivatives(pkg.metric)

    def first(dd, i, j):
        i, j = min(i, j), max(i, j)
        return ex.mul(ex.HALF, ex.add(dg[i][dd][j], dg[j][dd][i],
                                      ex.neg(dg[dd][i][j])))

    return [[[ex.add(*[ex.mul(ginv[a][dd], first(dd, i, j))
                       for dd in range(n)]) for j in range(n)]
             for i in range(n)] for a in range(n)]


def dense_scalar(pkg):
    n, ginv, ric = pkg.n, pkg.inverse, pkg.ricci
    return ex.add(*[ex.mul(ginv[b][dd], ric[b][dd])
                    for b in range(n) for dd in range(n)])


def dense_covariant_derivative_02(pkg, t):
    n, coords, gam = pkg.n, pkg.chart.coords, pkg.christoffel
    out = [[[None] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                terms = [ex.differentiate(t[i][j], coords[k])]
                for l in range(n):
                    terms.append(ex.neg(ex.mul(gam[l][k][i], t[l][j])))
                    terms.append(ex.neg(ex.mul(gam[l][k][j], t[i][l])))
                out[k][i][j] = ex.add(*terms)
    return out


def dense_weyl_square(pkg):
    n, ginv, low = pkg.n, pkg.inverse, pkg.weyl_low
    cur = low
    for pos in range(4):
        out = [[[[None] * n for _ in range(n)] for _ in range(n)]
               for _ in range(n)]
        for idx in itertools.product(range(n), repeat=4):
            terms = []
            for e in range(n):
                src = list(idx)
                src[pos] = e
                terms.append(ex.mul(ginv[idx[pos]][e],
                                    cur[src[0]][src[1]][src[2]][src[3]]))
            a, b, c, dd = idx
            out[a][b][c][dd] = ex.add(*terms)
        cur = out
    return ex.add(*[ex.mul(cur[a][b][c][dd], low[a][b][c][dd])
                    for a, b, c, dd in itertools.product(range(n), repeat=4)])


def assert_same_nodes(got, want):
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_nodes(g, w)
    else:
        assert got is want


@pytest.mark.parametrize("make, rational", [
    (lambda: fefferman_metric(second_order("p^4")), True),
    (nonflat_4metric, False),
    (frame_metric_cubic, False),
    (lambda: example6_metric(ex.parse("q^3/6")), True),
], ids=["fefferman-p4", "nonflat-4metric", "frame-metric-q3",
        "example6-q3"])
def test_sparse_sums_match_dense_reference_node_for_node(make, rational):
    g = make()
    pkg = curvature_package(g)
    inv, det = dense_inverse(g.rows)
    assert_same_nodes(pkg.inverse, inv)
    assert pkg.det is det
    assert_same_nodes(pkg.christoffel, dense_christoffel(pkg))
    assert pkg.scalar is dense_scalar(pkg)
    assert_same_nodes(pkg.covariant_derivative_02(pkg.schouten),
                      dense_covariant_derivative_02(pkg, pkg.schouten))
    # C^abcd C_abcd is a trace over index pairs, not the dense raises: the
    # same value, and on a rational metric the same function exactly
    square, dense = weyl_square(g), dense_weyl_square(pkg)
    assert_same_values({"C2": square}, {"C2": dense}, g.box)
    if rational:
        v = is_zero(ex.add(square, ex.neg(dense)), g.box, CFG)
        assert v.is_zero and v.method in ("exact", "structural")


def test_inverse_builds_no_minor_of_a_zero_entry():
    a, b, c, dd, e, f, h, k, x, y, z, w = (
        ex.sym(f"zm_{s}") for s in "abcdefhkxyzw")
    rows = ((ex.ZERO, ex.ZERO, a, b), (ex.ZERO, ex.ZERO, c, dd),
            (e, f, x, y), (h, k, z, w))
    # only the zero entries of rows 0 and 1 multiply the minor on rows 2, 3
    # and columns 2, 3, so its product x*w is never formed
    products = ex._intern[ex.MUL]
    inv, det = symbolic_inverse(rows)
    assert (x, w) not in products
    dense_inv, dense_det = dense_inverse(rows)
    assert (x, w) in products
    assert_same_nodes(inv, dense_inv)
    assert det is dense_det


# --- the direct fill of Riemann-symmetric tables against the closure it
# replaced -------------------------------------------------------------------

def reference_riemann_symmetric(n, build):
    """The old build: each independent result and its `neg` in a dict, and
    each of the n^4 entries read through min/max and a lookup."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    comp = {}
    for i, ab in enumerate(pairs):
        for cd in pairs[i:]:
            r = build(*ab, *cd)
            comp[ab + cd] = comp[cd + ab] = (r, ex.neg(r))

    def entry(a, b, c, dd):
        if a == b or c == dd:
            return ex.ZERO
        return comp[min(a, b), max(a, b), min(c, dd), max(c, dd)][
            (a > b) != (c > dd)]

    r = range(n)
    return tuple(tuple(tuple(tuple(entry(a, b, c, dd) for dd in r)
                             for c in r) for b in r) for a in r)


def mixed_build(a, b, c, dd):
    """Literal zeros (int and float), products, negatives and sums."""
    x, y = ex.sym("rs_x"), ex.sym("rs_y")
    return (ex.ZERO, ex.num(0.0), ex.mul(a + 1, x, ex.pow_(y, c + dd)),
            ex.neg(ex.pow_(x, b)), ex.add(x, ex.mul(dd - c, y)),
            ex.ONE)[(a + 2 * b + 3 * c + 5 * dd) % 6]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_riemann_symmetric_matches_closure_reference_node_for_node(n):
    calls = []

    def build(*idx):
        calls.append(idx)
        return mixed_build(*idx)

    got = _riemann_symmetric(n, build)
    npairs = n * (n - 1) // 2
    assert len(calls) == npairs * (npairs + 1) // 2
    assert_same_nodes(got, reference_riemann_symmetric(n, mixed_build))
    assert all(type(t) is tuple for ta in got for tb in ta for t in (ta, tb))
    assert all(type(t) is tuple for ta in got for tb in ta for t in tb)
    assert _riemann_symmetric(n, lambda *_: ex.ZERO) == \
        reference_riemann_symmetric(n, lambda *_: ex.ZERO)
