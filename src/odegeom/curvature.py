"""Tensor calculus for nondegenerate metrics in dimensions 3-5, in
coordinates or in a coframe in which the metric has constant components.

Everything is built as shared expression DAGs and never expanded; identity
checks evaluate the components numerically at sample points.  Sign
conventions, fixed once for the whole package:

    Gamma^a_ij  Levi-Civita (or Weyl-connection) symbols, symmetric in ij
    R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb
              + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb
    R_abcd  = g_ae R^e_bcd
            = 1/2 (d_b d_c g_ad + d_a d_d g_bc - d_b d_d g_ac - d_a d_c g_bd
                   + [bc, f] Gamma^f_ad - [bd, f] Gamma^f_ac),
              [ij, f] = d_i g_fj + d_j g_if - d_f g_ij
    R_bd    = R^a_bad = g^ac R_abcd
    R       = g^bd R_bd
    Schouten S = (Ric - R g / (2(n-1))) / (n-2)
    Weyl_abcd  = R_abcd - (g_ac S_bd - g_ad S_bc + g_bd S_ac - g_bc S_ad)
    Cotton_ijk = grad_k S_ij - grad_j S_ik
    C^abcd C_abcd = 4 tr((G W)^2) over the index pairs A = (a, b), a < b,
              W_AB = Weyl_abcd, G^AB = g^ac g^bd - g^ad g^bc

For the Levi-Civita connection R_abcd and R_bd are built by the second form
of each, from the metric (Misner, Thorne and Wheeler, Gravitation, 1973),
and R^a_bcd is not built; `connection_curvature` and `ricci_from_riemann`
take the first form for the Weyl connection.

A metric eta_ab theta^a theta^b with constant eta on a coframe
theta^a = M^a_i dx^i is built in the dual frame e_a = e_a^i d_i,
e_a^i = (M^-1)^i_a, by Cartan's structure equations (the Koszul formula with
constant eta), and R_abcd = eta(e_a, R(e_c, e_d) e_b) keeps the sign above:

    [e_b, e_c] = C^a_bc e_a,  C^a_bc = -d theta^a(e_b, e_c)
               = -d_j M^a_i (e_b^j e_c^i - e_c^j e_b^i)
    grad_{e_b} e_c = Gamma^k_bc e_k,  Gamma_abc = eta_ak Gamma^k_bc
               = 1/2 (C_abc - C_bca + C_cab),  C_abc = eta_ak C^k_bc,
               antisymmetric in ac
    R_abcd  = e_c(Gamma_adb) - e_d(Gamma_acb) + Gamma_ack Gamma^k_db
              - Gamma_adk Gamma^k_cb - C^k_cd Gamma_akb

Ricci, Schouten and Weyl then follow as above with eta for g.  A tensor
with the symmetries of R_abcd (Singer and Thorpe, 1969: a symmetric map of
bivectors) is built and contracted on its independent components only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import mpmath

from . import expr as ex
from .exterior import Chart, DifferentialForm, SymmetricForm, _symmetric


class MetricError(Exception):
    pass


@dataclass(frozen=True)
class TensorField:
    """Dense covariant/contravariant tensor with expression components."""
    chart: Chart
    variance: str  # one letter per index: 'l' lower, 'u' upper
    comps: tuple

    def component(self, *idx):
        return _at(self.comps, idx)

    def flatten(self) -> dict:
        return {idx: _at(self.comps, idx) for idx in itertools.product(
            range(self.chart.dim), repeat=len(self.variance))}

    def nontrivial(self) -> dict:
        return {idx: c for idx, c in self.flatten().items()
                if not c.is_zero_literal}


# ---------------------------------------------------------------------------
# the sum and table builders every tensor below goes through


def _products(factor_tuples):
    """The products of the factor tuples that hold no literal zero, in
    order.  Their sum is the node of the dense sum: `mul` folds a zero
    factor to ZERO and `add` drops it."""
    return [ex.mul(*fs) for fs in factor_tuples if ex.ZERO not in fs]


def _merged(*terms):
    """add(*terms) with equal terms merged: c1 X + c2 X is (c1 + c2) X, and
    left out when c1 + c2 = 0; a term that meets no equal one is kept as it
    is.  X is a product's argument tuple after its numeric coefficient."""
    if len(terms) < 2:
        return ex.add(*terms)
    groups = {}
    for t in terms:
        k, key = 1, (t,)
        if t.kind == ex.MUL:
            head = t.args[0]
            k, key = (head.payload, t.args[1:]) if head.kind == ex.NUM \
                else (1, t.args)
        groups.setdefault(key, []).append((k, t))
    out = []
    for key, group in groups.items():
        if len(group) == 1:
            out.append(group[0][1])
        elif sum(k for k, _ in group):
            out.append(ex.mul(ex.num(sum(k for k, _ in group)), *key))
    return ex.add(*out)


def _at(table, idx):
    for i in idx:
        table = table[i]
    return table


def _table(n, k, entry, idx=()):
    """Nested tuples of depth k with entry(*idx) at idx, built in row-major
    order."""
    if len(idx) == k:
        return entry(*idx)
    return tuple(_table(n, k, entry, idx + (i,)) for i in range(n))


# ---------------------------------------------------------------------------
# symbolic inverse via adjugate / determinant with shared minors


def _minor(rows, rs, cs, memo):
    """Determinant of the submatrix on the row indices rs and the column
    indices cs, expanded along its first row; a zero entry's minor is never
    built."""
    key = (rs, cs)
    out = memo.get(key)
    if out is None:
        if not cs:
            out = ex.ONE
        elif len(cs) == 1:
            out = rows[rs[0]][cs[0]]
        else:
            terms = []
            for k, j in enumerate(cs):
                if rows[rs[0]][j] is ex.ZERO:
                    continue
                sign = (ex.MINUS_ONE,) if k % 2 else ()
                terms.append(ex.mul(*sign, rows[rs[0]][j], _minor(
                    rows, rs[1:], cs[:k] + cs[k + 1:], memo)))
            out = ex.add(*terms)
        memo[key] = out
    return out


def symbolic_inverse(rows):
    """Inverse matrix entries as Div(cofactor, det) expression DAGs; the
    determinant and all cofactors share one memo of minors."""
    full = tuple(range(len(rows)))
    memo = {}
    det = _minor(rows, full, full, memo)

    def entry(i, j):
        cof = _minor(rows, full[:j] + full[j + 1:], full[:i] + full[i + 1:],
                     memo)
        return ex.div(ex.neg(cof) if (i + j) % 2 else cof, det)

    return _table(len(rows), 2, entry), det


@lru_cache(maxsize=8)
def _constant_inverse(rows):
    """symbolic_inverse of a matrix of literals (a coframe package's eta),
    built once per matrix: its entries are literals too."""
    return symbolic_inverse(rows)


# ---------------------------------------------------------------------------
# curvature of a general torsion-free connection


def connection_curvature(chart: Chart, gamma):
    """R^a_bcd for connection symbols gamma[a][i][j] (symmetric in ij).

    Only c < d is built; R^a_bdc is its negative and R^a_bcc is zero, which
    holds for every torsion-free connection."""
    n = chart.dim
    coords = chart.coords
    dgamma = _table(n, 4, lambda a, i, j, c: ex.differentiate(gamma[a][i][j],
                                                              coords[c]))

    def component(a, b, c, dd):
        return ex.add(dgamma[a][dd][b][c], ex.neg(dgamma[a][c][b][dd]),
                      *_products(f for e in range(n) for f in (
                          (gamma[a][c][e], gamma[e][dd][b]),
                          (ex.MINUS_ONE, gamma[a][dd][e], gamma[e][c][b]))))

    half = {}
    for a, b, c, dd in itertools.product(range(n), repeat=4):
        if c < dd:
            r = component(a, b, c, dd)
            half[a, b, c, dd] = (r, ex.neg(r))

    def entry(a, b, c, dd):
        if c == dd:
            return ex.ZERO
        return half[a, b, min(c, dd), max(c, dd)][c > dd]

    return _table(n, 4, entry)


def _riemann_symmetric(n, build):
    """Full table of a tensor with the symmetries of the lowered Riemann
    tensor (antisymmetric in ab and in cd, symmetric under ab <-> cd) from
    build(a, b, c, d), called for a < b, c < d and (a, b) <= (c, d) only;
    each result and its `neg` fill their eight places, all others are ZERO."""
    t = _table(n, 3, lambda *_: [ex.ZERO] * n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for i, (a, b) in enumerate(pairs):
        for c, dd in pairs[i:]:
            r = build(a, b, c, dd)
            if r is ex.ZERO:
                continue
            m = ex.neg(r)
            for (p, q), (u, v) in (((a, b), (c, dd)), ((c, dd), (a, b))):
                t[p][q][u][v] = t[q][p][v][u] = r
                t[q][p][u][v] = t[p][q][v][u] = m
    return tuple(tuple(tuple(map(tuple, tb)) for tb in ta) for ta in t)


def ricci_from_riemann(riem, n):
    """R_bd = R^a_bad."""
    return _table(n, 2, lambda b, dd: ex.add(*[riem[a][b][a][dd]
                                               for a in range(n)]))


class CurvaturePackage:
    """Levi-Civita curvature data of a metric, built lazily and shared.

    With no coframe, g holds the coordinate components g_ij and every
    tensor has coordinate indices.  With a coframe theta^a = M^a_i dx^i on
    g's chart, g holds the constant components eta_ab of the metric
    eta_ab theta^a theta^b and every tensor has indices in the frame dual to
    theta: R_abcd is built from `structure` and `connection`, and `ricci`,
    `schouten` and `weyl_low` read eta and its inverse as they read g and
    g^-1.  The coordinate-only data (`dg` and what is built from it) is then
    refused."""

    def __init__(self, g: SymmetricForm, coframe=None):
        self.metric = g
        self.chart = g.chart
        self.n = g.dim
        self.coframe = coframe

    @cached_property
    def inverse(self):
        inv, det = (symbolic_inverse if self.coframe is None
                    else _constant_inverse)(self.metric.rows)
        self._det = det
        return inv

    @cached_property
    def det(self):
        self.inverse
        return self._det

    @cached_property
    def dg(self):
        if self.coframe is not None:
            raise MetricError("metric derivatives are coordinate data; "
                              "a coframe package has constant components")
        n, coords = self.n, self.chart.coords
        return [[[ex.differentiate(self.metric.rows[i][j], coords[k])
                  for j in range(n)] for i in range(n)] for k in range(n)]

    @cached_property
    def frame(self):
        """e_a^i of the frame e_a = e_a^i d_i dual to the coframe, the
        columns (M^-1)^i_a of the coframe matrix's inverse."""
        n = self.n
        minv, _det = symbolic_inverse(
            [[th.coeff((i,)) for i in range(n)] for th in self.coframe])
        return _table(n, 2, lambda a, i: minv[i][a])

    @cached_property
    def structure(self):
        """C^a_bc of [e_b, e_c] = C^a_bc e_a for b < c, as {(b, c): [C^a_bc
        for each a]}: C^a_bc = -d theta^a(e_b, e_c)
        = -(d_j M^a_i - d_i M^a_j)(e_b^j e_c^i - e_c^j e_b^i) summed over
        j < i."""
        n, coords, e = self.n, self.chart.coords, self.frame
        wedges = [(j, i) for j in range(n) for i in range(j + 1, n)]
        dtheta = []  # the nonzero (j, i, d_j M^a_i - d_i M^a_j) for each a
        for th in self.coframe:
            m = [th.coeff((i,)) for i in range(n)]
            dtheta.append([(j, i, c) for j, i in wedges for c in (ex.add(
                ex.differentiate(m[i], coords[j]),
                ex.neg(ex.differentiate(m[j], coords[i]))),)
                if c is not ex.ZERO])
        used = {(j, i) for dth in dtheta for j, i, _ in dth}
        out = {}
        for b in range(n):
            for c in range(b + 1, n):
                pair = {(j, i): ex.add(*_products((
                    (e[b][j], e[c][i]), (ex.MINUS_ONE, e[c][j], e[b][i]))))
                    for j, i in used}
                out[b, c] = [ex.add(*_products(
                    (ex.MINUS_ONE, d, pair[j, i]) for j, i, d in dth))
                    for dth in dtheta]
        return out

    @cached_property
    def connection(self):
        """Gamma_abc = eta(e_a, grad_{e_b} e_c)
        = 1/2 (C_abc - C_bca + C_cab), C_abc = eta_ak C^k_bc; built for
        a < c and shared, negated, with Gamma_cba."""
        n, eta = self.n, self.metric.rows
        half = {}  # (b, c) with b < c: [(C_abc/2, -C_abc/2) for each a]
        for bc, ck in self.structure.items():
            half[bc] = []
            for a in range(n):
                h = ex.mul(ex.HALF, ex.add(*_products(
                    (eta[a][k], ck[k]) for k in range(n))))
                half[bc].append((h, ex.neg(h)))

        def term(sign, a, b, c):  # sign * C_abc / 2
            if b == c:
                return ex.ZERO
            return half[b, c][a][sign < 0] if b < c \
                else half[c, b][a][sign > 0]

        t = [[[ex.ZERO] * n for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for b in range(n):
                for c in range(a + 1, n):
                    r = _merged(*(u for u in (term(1, a, b, c), term(
                        -1, b, c, a), term(1, c, a, b)) if u is not ex.ZERO))
                    if r is not ex.ZERO:
                        t[a][b][c], t[c][b][a] = r, ex.neg(r)
        return tuple(tuple(map(tuple, ta)) for ta in t)

    @cached_property
    def brackets(self):
        """[ij, f] = d_i g_fj + d_j g_if - d_f g_ij for i <= j, twice the
        Christoffel symbol of the first kind."""
        n, dg = self.n, self.dg
        return {(i, j): [ex.add(dg[i][f][j], dg[j][i][f], ex.neg(dg[f][i][j]))
                         for f in range(n)]
                for i in range(n) for j in range(i, n)}

    @cached_property
    def christoffel(self):
        """Gamma^a_ij, built for i <= j and shared with Gamma^a_ji."""
        n, ginv, br = self.n, self.inverse, self.brackets
        return tuple(_symmetric(n, lambda i, j, a=a: ex.mul(ex.HALF, ex.add(
            *_products((ginv[a][f], br[i, j][f]) for f in range(n)))))
            for a in range(n))

    @cached_property
    def riemann_up(self):
        return connection_curvature(self.chart, self.christoffel)

    @cached_property
    def riemann_low(self):
        """R_abcd from the second derivatives of the metric and the
        Christoffel symbols of both kinds, R^a_bcd never built; in a coframe
        from the connection and structure functions."""
        if self.coframe is not None:
            return self._frame_riemann()
        n, coords, dg = self.n, self.chart.coords, self.dg
        br, gam = self.brackets, self.christoffel

        def d2(u, v, i, j):  # d_u d_v g_ij
            return ex.differentiate(dg[v][i][j], coords[u])

        def quad(i, j, a, c, *sign):  # the terms of sum_f [ij, f] Gamma^f_ac
            ij = br[min(i, j), max(i, j)]
            return _products((*sign, ij[f], gam[f][a][c]) for f in range(n))

        def component(a, b, c, dd):
            return ex.mul(ex.HALF, ex.add(
                d2(b, c, a, dd), d2(a, dd, b, c),
                ex.neg(d2(b, dd, a, c)), ex.neg(d2(a, c, b, dd)),
                *quad(b, c, a, dd), *quad(b, dd, a, c, ex.MINUS_ONE)))

        return _riemann_symmetric(n, component)

    def _frame_riemann(self):
        """R_abcd = e_c(Gamma_adb) - e_d(Gamma_acb) + Gamma_ack Gamma^k_db
        - Gamma_adk Gamma^k_cb - C^k_cd Gamma_akb; a derivative of
        Gamma_cba is taken as that of -Gamma_abc."""
        n, coords, e = self.n, self.chart.coords, self.frame
        gam, st, inv = self.connection, self.structure, self.inverse
        # Gamma^k_bc = eta^km Gamma_mbc, summed over the m with eta^km != 0
        raised = [[(m, inv[k][m], ex.neg(inv[k][m])) for m in range(n)
                   if inv[k][m] is not ex.ZERO] for k in range(n)]
        cols = [[i for i in range(n) if e[c][i] is not ex.ZERO]
                for c in range(n)]
        memo = {}

        def along(c, a, b, dd):  # e_c(Gamma_abd)
            if a > dd:
                return ex.neg(along(c, dd, b, a))
            key = (c, a, b, dd)
            out = memo.get(key)
            if out is None:
                f = gam[a][b][dd]
                out = memo[key] = ex.ZERO if f is ex.ZERO else ex.add(
                    *_products((e[c][i], ex.differentiate(f, coords[i]))
                               for i in cols[c]))
            return out

        def component(a, b, c, dd):
            terms = [along(c, a, dd, b), ex.neg(along(dd, a, c, b))]
            cd, gac, gad = st[c, dd], gam[a][c], gam[a][dd]
            for k in range(n):
                if gac[k] is not ex.ZERO:
                    terms += [ex.mul(u, gac[k], gam[m][dd][b])
                              for m, u, _ in raised[k]
                              if gam[m][dd][b] is not ex.ZERO]
                if gad[k] is not ex.ZERO:
                    terms += [ex.mul(v, gad[k], gam[m][c][b])
                              for m, _, v in raised[k]
                              if gam[m][c][b] is not ex.ZERO]
                if cd[k] is not ex.ZERO and gam[a][k][b] is not ex.ZERO:
                    terms.append(ex.mul(ex.MINUS_ONE, cd[k], gam[a][k][b]))
            return _merged(*terms)

        return _riemann_symmetric(n, component)

    @cached_property
    def ricci(self):
        """R_bd = g^ac R_abcd, built for b <= d and shared with R_db (the
        Levi-Civita Ricci tensor is symmetric)."""
        n, ginv, low = self.n, self.inverse, self.riemann_low
        return _symmetric(n, lambda b, dd: ex.add(*_products(
            (ginv[a][c], low[a][b][c][dd])
            for a in range(n) for c in range(n))))

    @cached_property
    def scalar(self):
        return _trace(self.inverse, self.ricci, self.n)

    @cached_property
    def schouten(self):
        n = self.n
        if n < 3:
            raise MetricError("Schouten tensor needs dimension >= 3")
        ric = self.ricci
        g = self.metric.rows
        r_over = ex.div(self.scalar, ex.num(2 * (n - 1)))
        return _symmetric(n, lambda i, j: ex.mul(
            ex.num(Fraction(1, n - 2)),
            ex.add(ric[i][j], ex.mul(ex.MINUS_ONE, r_over, g[i][j]))))

    @cached_property
    def weyl_low(self):
        n = self.n
        if n < 4:
            raise MetricError("Weyl tensor vanishes identically below dim 4; "
                              "use the Cotton tensor in dim 3")
        g = self.metric.rows
        s = self.schouten
        low = self.riemann_low

        def component(a, b, c, dd):
            corr = ex.add(*_products((
                (g[a][c], s[b][dd]), (ex.MINUS_ONE, g[a][dd], s[b][c]),
                (g[b][dd], s[a][c]), (ex.MINUS_ONE, g[b][c], s[a][dd]))))
            return ex.add(low[a][b][c][dd], ex.neg(corr))

        return _riemann_symmetric(n, component)

    def covariant_derivative_02(self, t):
        """grad_k t_ij for a (0,2) tensor."""
        n, coords = self.n, self.chart.coords
        gam = self.christoffel
        return _table(n, 3, lambda k, i, j: ex.add(
            ex.differentiate(t[i][j], coords[k]),
            *_products(f for l in range(n) for f in (
                (ex.MINUS_ONE, gam[l][k][i], t[l][j]),
                (ex.MINUS_ONE, gam[l][k][j], t[i][l])))))

    @cached_property
    def cotton(self):
        if self.n != 3:
            raise MetricError("Cotton tensor implemented in dimension 3 only")
        ds = self.covariant_derivative_02(self.schouten)
        return _table(self.n, 3, lambda i, j, k: ex.add(ds[k][i][j],
                                                        ex.neg(ds[j][i][k])))


def _trace(ginv, t, n):
    """g^bd t_bd."""
    return ex.add(*_products((ginv[b][dd], t[b][dd])
                             for b in range(n) for dd in range(n)))


def _trace_free(g: SymmetricForm, ric, scalar) -> TensorField:
    """Ric - (R/n) g."""
    n, rows = g.dim, g.rows
    r_over = ex.div(scalar, ex.num(n))
    return TensorField(g.chart, "ll", _table(n, 2, lambda i, j: ex.add(
        ric[i][j], ex.mul(ex.MINUS_ONE, r_over, rows[i][j]))))


def curvature_package(g: SymmetricForm) -> CurvaturePackage:
    return CurvaturePackage(g)


def weyl(g: SymmetricForm) -> TensorField:
    if g.dim not in (4, 5):
        raise MetricError("Weyl tensor computed in dimensions 4 and 5")
    return TensorField(g.chart, "llll", CurvaturePackage(g).weyl_low)


def frame_weyl(coframe, eta) -> TensorField:
    """Weyl_abcd of the metric eta_ab theta^a theta^b, for a coframe of
    1-forms theta^a on one chart and a constant symmetric matrix eta, in the
    frame dual to the coframe."""
    chart = coframe[0].chart
    if chart.dim not in (4, 5) or len(coframe) != chart.dim:
        raise MetricError("Weyl tensor computed in dimensions 4 and 5, "
                          "from one 1-form per coordinate")
    if any(th.degree != 1 or th.chart != chart for th in coframe):
        raise MetricError("a coframe holds 1-forms on one chart")
    eta = SymmetricForm(chart, eta)
    return TensorField(chart, "llll",
                       CurvaturePackage(eta, tuple(coframe)).weyl_low)


def cotton3(g: SymmetricForm) -> TensorField:
    if g.dim != 3:
        raise MetricError("Cotton tensor computed in dimension 3")
    return TensorField(g.chart, "lll", CurvaturePackage(g).cotton)


def weyl_square(g: SymmetricForm) -> ex.Expression:
    """Full contraction C^abcd C_abcd = 4 tr((G W)^2) over the N = n(n-1)/2
    index pairs a < b (G and W as in the module docstring)."""
    pkg = CurvaturePackage(g)
    ginv, low = pkg.inverse, pkg.weyl_low
    pairs = [(a, b) for a in range(g.dim) for b in range(a + 1, g.dim)]
    N = len(pairs)

    def bivector(i, j):  # G^AB for A = pairs[i], B = pairs[j]
        (a, b), (c, dd) = pairs[i], pairs[j]
        return ex.add(*_products(((ginv[a][c], ginv[b][dd]), (
            ex.MINUS_ONE, ginv[a][dd], ginv[b][c]))))

    G = _symmetric(N, bivector)
    gw = _table(N, 2, lambda i, j: ex.add(*_products(
        (G[i][k], _at(low, pairs[k] + pairs[j])) for k in range(N))))
    return ex.add(*_products((ex.num(4), gw[i][j], gw[j][i])
                             for i in range(N) for j in range(N)))


def einstein_residual(g: SymmetricForm) -> TensorField:
    """Trace-adjusted Ricci: Ric - (R/n) g."""
    pkg = CurvaturePackage(g)
    return _trace_free(g, pkg.ricci, pkg.scalar)


def weyl_connection_residual(g: SymmetricForm, nu: DifferentialForm) -> TensorField:
    """Einstein-Weyl residual R_(ij) - (R/3) g_ij of the Weyl connection
    determined by (g, nu) in dimension 3."""
    if g.dim != 3:
        raise MetricError("Einstein-Weyl residual is a dimension-3 computation")
    if nu.degree != 1 or nu.chart != g.chart:
        raise MetricError("nu must be a 1-form on the metric chart")
    n = 3
    pkg = CurvaturePackage(g)
    ginv, lc = pkg.inverse, pkg.christoffel
    nu_low = [nu.coeff((i,)) for i in range(n)]
    nu_up = [ex.add(*_products((ginv[k][i], nu_low[i]) for i in range(n)))
             for k in range(n)]
    gamma = _table(n, 3, lambda k, i, j: ex.add(lc[k][i][j], ex.mul(
        ex.HALF, ex.add(nu_low[j] if k == i else ex.ZERO,
                        nu_low[i] if k == j else ex.ZERO,
                        ex.mul(ex.MINUS_ONE, g.rows[i][j], nu_up[k])))))
    ric = ricci_from_riemann(connection_curvature(g.chart, gamma), n)
    ric_sym = _table(n, 2, lambda i, j: ex.mul(ex.HALF,
                                               ex.add(ric[i][j], ric[j][i])))
    return _trace_free(g, ric_sym, _trace(ginv, ric_sym, n))


def conformal_rescale(g: SymmetricForm, upsilon) -> SymmetricForm:
    """e^{2 upsilon} g, componentwise."""
    return g.scaled(ex.exp(ex.mul(2, ex.as_expr(upsilon))))


# ---------------------------------------------------------------------------
# numeric probes


def _eigenvalues(a):
    """Eigenvalues of the symmetric float matrix `a` (a list of rows, which
    is overwritten) by cyclic Jacobi rotations (Golub and Van Loan, Matrix
    Computations, 8.5): each rotation zeroes one off-diagonal entry, until
    the off-diagonal part is negligible against the whole."""
    n = len(a)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for _ in range(100):
        off = sum(a[p][q] ** 2 for p, q in pairs)
        if off <= 1e-36 * sum(x * x for row in a for x in row):
            break
        for p, q in pairs:
            if a[p][q] == 0.0:
                continue
            tau = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            for row in a:  # a J, then J^T (a J)
                x, y = row[p], row[q]
                row[p], row[q] = c * x - s * y, s * x + c * y
            a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                          [s * x + c * y for x, y in zip(a[p], a[q])])
    return [a[i][i] for i in range(n)]


def signatures(g: SymmetricForm, points, dps: int = 30, zero_tol=1e-9):
    """Inertia (pos, neg, zero) of the metric matrix at each point, from one
    tape; an eigenvalue is zero when |lambda| <= zero_tol * max(1, the
    largest |lambda|)."""
    n = g.dim
    tape = ex.Tape([c for row in g.rows for c in row])
    out = []
    with mpmath.workdps(dps):
        for point in points:
            values = [float(v) for v in tape.values(point)]
            eigs = _eigenvalues([values[i * n:(i + 1) * n] for i in range(n)])
            tol = zero_tol * max(1.0, max(map(abs, eigs)))
            pos = sum(e > tol for e in eigs)
            neg = sum(e < -tol for e in eigs)
            out.append((pos, neg, n - pos - neg))
    return out


def signature_at(g: SymmetricForm, point, dps: int = 30, zero_tol=1e-9):
    """Inertia (pos, neg, zero) of the metric matrix at a point."""
    return signatures(g, [point], dps, zero_tol)[0]


def tensor_zero_exprs(T: TensorField, prefix="", skip=frozenset()) -> dict:
    """Named components for zero-testing, one per distinct node outside the
    index tuples in `skip`: a literal zero, a node already named or the
    negative of one is left out, since it vanishes exactly when that node
    does."""
    out = {}
    seen = set()
    for idx in itertools.product(range(T.chart.dim), repeat=len(T.variance)):
        c = ex.ZERO if idx in skip else _at(T.comps, idx)
        if c.is_zero_literal or c in seen:
            continue
        seen.add(c)
        seen.add(ex.neg(c))
        out[f"{prefix}{''.join(map(str, idx))}"] = c
    return out
