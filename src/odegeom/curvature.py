"""Tensor calculus for nondegenerate metrics in dimensions 3-5, in any
coframe on one chart.

A metric is g_ab theta^a theta^b, its components g_ab (constant or not) in a
coframe theta^a = M^a_i dx^i; coordinates are the coframe dx^i.  Every
tensor is built in the dual frame e_a = e_a^i d_i, e_a^i = (M^-1)^i_a, as
shared expression DAGs that are never expanded; identity checks evaluate the
components numerically at sample points.  Conventions, fixed once for the
whole package (Kobayashi and Nomizu, Foundations of Differential Geometry
I, IV.2, for the Koszul formula):

    [e_b, e_c] = C^a_bc e_a,  C^a_bc = -d theta^a(e_b, e_c)
               = -d_j M^a_i (e_b^j e_c^i - e_c^j e_b^i),  C_abc = g_ak C^k_bc
    grad_{e_b} e_c = Gamma^k_bc e_k,  Gamma_abc = g_ak Gamma^k_bc
               = 1/2 (e_b g_ac + e_c g_ab - e_a g_bc)
                 + 1/2 (C_abc - C_bca + C_cab)
    Gamma_cba  = e_b g_ac - Gamma_abc
    R_abcd  = g(e_a, R(e_c, e_d) e_b)
            = e_c(Gamma_adb) - e_d(Gamma_acb) + Gamma_ack Gamma^k_db
              - Gamma_adk Gamma^k_cb - C^k_cd Gamma_akb
              - e_c(g_ak) Gamma^k_db + e_d(g_ak) Gamma^k_cb
    R_bd    = g^ac R_abcd
    R       = g^bd R_bd
    Schouten S = (Ric - R g / (2(n-1))) / (n-2)
    Weyl_abcd  = R_abcd - (g_ac S_bd - g_ad S_bc + g_bd S_ac - g_bc S_ad)
    Cotton_ijk = grad_k S_ij - grad_j S_ik
    C^abcd C_abcd = 4 tr((G W)^2) over the index pairs A = (a, b), a < b,
              W_AB = Weyl_abcd, G^AB = g^ac g^bd - g^ad g^bc

As Gamma_ack - e_c(g_ak) = -Gamma_kca, R_abcd is built as
e_c(Gamma_adb) - e_d(Gamma_acb) - Gamma_kca Gamma^k_db + Gamma_kda Gamma^k_cb
- C^k_cd Gamma_akb, with no derivative of g_ab outside Gamma.  With constant
g_ab, Gamma_abc is antisymmetric in ac; in coordinates C = 0 and Gamma_abc is
the Christoffel symbol of the first kind, symmetric in bc.  A tensor with
the symmetries of R_abcd (Singer and Thorpe, 1969: a symmetric map of
bivectors) is built and contracted on its independent components only.
`connection_curvature` takes R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb
+ Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb in coordinates, for the
Weyl connection and as a reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import mpmath

from . import expr as ex
from .exterior import (Chart, DifferentialForm, SymmetricForm, _symmetric,
                       d_coord)


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
        c, key = ex.ONE, (t,)
        if t.kind == ex.MUL:
            head = t.args[0]
            c, key = (head, t.args[1:]) if head.kind == ex.NUM \
                else (ex.ONE, t.args)
        groups.setdefault(key, []).append((c, t))
    out = []
    for key, group in groups.items():
        if len(group) == 1:
            out.append(group[0][1])
        else:
            c = ex.add(*(c for c, _ in group))  # the literal sum, or ZERO
            if c is not ex.ZERO:
                out.append(ex.mul(c, *key))
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
    """symbolic_inverse of a matrix of literals, built once per matrix: its
    entries are literals too."""
    return symbolic_inverse(rows)


def _inverse(rows):
    """symbolic_inverse of a tuple of rows, `_constant_inverse` when every
    entry is a literal."""
    if all(c.kind == ex.NUM for r in rows for c in r):
        return _constant_inverse(rows)
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
    """Levi-Civita curvature data of the metric g_ab theta^a theta^b, built
    lazily and shared.

    g holds the components g_ab, which may vary, in a coframe theta^a of
    1-forms on g's chart; with no coframe given it is the coordinate coframe
    dx^i, and g holds the coordinate components.  Every tensor has indices
    in the frame e_a dual to the coframe."""

    def __init__(self, g: SymmetricForm, coframe=None):
        self.metric = g
        self.chart = g.chart
        self.n = g.dim
        self.coframe = tuple(coframe or (d_coord(g.chart, x)
                                         for x in g.chart.coords))
        if len(self.coframe) != self.n or any(
                th.degree != 1 or th.chart != g.chart for th in self.coframe):
            raise MetricError("a coframe is one 1-form per coordinate, on "
                              "the metric's chart")

    @cached_property
    def inverse(self):
        inv, self._det = _inverse(self.metric.rows)
        return inv

    @cached_property
    def det(self):
        self.inverse
        return self._det

    @cached_property
    def frame(self):
        """e_a^i of the frame e_a = e_a^i d_i dual to the coframe, the
        columns (M^-1)^i_a of the coframe matrix's inverse."""
        n = self.n
        minv, _det = _inverse(tuple(tuple(th.coeff((i,)) for i in range(n))
                                    for th in self.coframe))
        return _table(n, 2, lambda a, i: minv[i][a])

    def _along(self, c, f):
        """e_c(f) = e_c^i d_i f, zero for a literal f."""
        if f.kind == ex.NUM:
            return ex.ZERO
        coords = self.chart.coords
        return ex.add(*[ex.mul(x, ex.differentiate(f, coords[i]))
                        for i, x in enumerate(self.frame[c])
                        if x is not ex.ZERO])

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
    def metric_terms(self):
        """1/2 (e_b g_ac + e_c g_ab - e_a g_bc), the part of Gamma_abc that
        the derivatives of the components give, symmetric in bc and zero
        where g_ab are literals."""
        n, g = self.n, self.metric.rows
        if all(c.kind == ex.NUM for row in g for c in row):
            return (((ex.ZERO,) * n,) * n,) * n
        dg = [_symmetric(n, lambda a, b, c=c: self._along(c, g[a][b]))
              for c in range(n)]  # dg[c][a][b] = e_c(g_ab)
        return tuple(_symmetric(n, lambda b, c, a=a: ex.mul(ex.HALF, ex.add(
            dg[b][a][c], dg[c][a][b], ex.neg(dg[a][b][c]))))
            for a in range(n))

    def _mirrored(self, a, b, c):
        """Whether Gamma_abc is built as -Gamma_cba: for a > c where the
        metric terms of both vanish, which leaves the structure terms,
        antisymmetric in ac."""
        k = self.metric_terms
        return a > c and k[a][b][c] is ex.ZERO and k[c][b][a] is ex.ZERO

    @cached_property
    def connection(self):
        """Gamma_abc = g(e_a, grad_{e_b} e_c), the metric terms plus
        1/2 (C_abc - C_bca + C_cab), C_abc = g_ak C^k_bc; the structure terms
        cancel for a = c."""
        n, g, k = self.n, self.metric.rows, self.metric_terms
        half = {}  # (b, c), b < c, C^a_bc not all 0: [(C_abc/2, -C_abc/2)]
        for bc, ck in self.structure.items():
            if any(c is not ex.ZERO for c in ck):
                half[bc] = []
                for a in range(n):
                    h = ex.mul(ex.HALF, ex.add(*_products(
                        (g[a][m], ck[m]) for m in range(n))))
                    half[bc].append((h, ex.neg(h)))

        def term(sign, a, b, c):  # sign * C_abc / 2
            h = half.get((min(b, c), max(b, c)))
            if h is None:
                return ex.ZERO
            return h[a][(sign < 0) == (b < c)]

        t = [[[None] * n for _ in range(n)] for _ in range(n)]
        for a, b, c in itertools.product(range(n), repeat=3):
            if self._mirrored(a, b, c):
                t[a][b][c] = ex.neg(t[c][b][a])
            elif a == c or not half:
                t[a][b][c] = k[a][b][c]
            else:
                t[a][b][c] = _merged(*(u for u in (
                    k[a][b][c], term(1, a, b, c), term(-1, b, c, a),
                    term(1, c, a, b)) if u is not ex.ZERO))
        return tuple(tuple(map(tuple, ta)) for ta in t)

    @cached_property
    def christoffel(self):
        """Gamma^k_bc = g^km Gamma_mbc, raised once for each distinct column
        (Gamma_mbc for each m): in coordinates Gamma^k_cb is Gamma^k_bc."""
        n, ginv, gam = self.n, self.inverse, self.connection
        cols = _table(n, 2, lambda b, c: tuple(gam[m][b][c] for m in range(n)))
        raised = {}
        for col in itertools.chain(*cols):
            if col not in raised:
                raised[col] = [ex.add(*_products(zip(row, col)))
                               for row in ginv]
        return _table(n, 3, lambda k, b, c: raised[cols[b][c]][k])

    @cached_property
    def riemann_up(self):
        """R^a_bcd of `christoffel` by `connection_curvature`, which
        differentiates along the coordinates: in the coordinate coframe
        only, and a MetricError in any other."""
        n, e = self.n, self.frame
        if any(e[a][i] is not (ex.ONE if a == i else ex.ZERO)
               for a in range(n) for i in range(n)):
            raise MetricError("riemann_up needs the coordinate coframe dx^i")
        return connection_curvature(self.chart, self.christoffel)

    @cached_property
    def riemann_low(self):
        """R_abcd = e_c(Gamma_adb) - e_d(Gamma_acb) - Gamma_kca Gamma^k_db
        + Gamma_kda Gamma^k_cb - C^k_cd Gamma_akb, R^a_bcd never built; the
        derivative of a mirrored Gamma_abd is taken as that of -Gamma_dba,
        and a literal g^km of Gamma^k_db = g^km Gamma_mdb is a coefficient of
        the product, not a node of its own."""
        n, gam, st, ginv = (self.n, self.connection, self.structure,
                            self.inverse)
        literal = [all(u.kind == ex.NUM for u in row) for row in ginv]
        memo = {}

        def along(c, a, b, dd):  # e_c(Gamma_abd)
            key = (c, a, b, dd)
            out = memo.get(key)
            if out is None:
                out = memo[key] = ex.neg(along(c, dd, b, a)) \
                    if self._mirrored(a, b, dd) \
                    else self._along(c, gam[a][b][dd])
            return out

        def up(k, d, b):  # the factor tuples of the terms of Gamma^k_db
            if not literal[k]:
                return ((self.christoffel[k][d][b],),)
            return [(u, gam[m][d][b]) for m, u in enumerate(ginv[k])
                    if u is not ex.ZERO and gam[m][d][b] is not ex.ZERO]

        def component(a, b, c, dd):
            terms = [along(c, a, dd, b), ex.neg(along(dd, a, c, b))]
            cd = st[c, dd]
            for k in range(n):  # a zero factor is tested before a product
                gc, gd = gam[k][c][a], gam[k][dd][a]
                if gc is not ex.ZERO:
                    terms += [ex.mul(ex.MINUS_ONE, gc, *f)
                              for f in up(k, dd, b)]
                if gd is not ex.ZERO:
                    terms += [ex.mul(gd, *f) for f in up(k, c, b)]
                if cd[k] is not ex.ZERO:
                    terms.append(ex.mul(ex.MINUS_ONE, cd[k], gam[a][k][b]))
            return _merged(*(t for t in terms if t is not ex.ZERO))

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
        """grad_k t_ij = e_k(t_ij) - Gamma^l_ki t_lj - Gamma^l_kj t_il for a
        (0,2) tensor."""
        n, gam = self.n, self.christoffel
        return _table(n, 3, lambda k, i, j: ex.add(
            self._along(k, t[i][j]),
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


def weyl(g: SymmetricForm, coframe=None) -> TensorField:
    """Weyl_abcd of the metric g_ab theta^a theta^b in the frame dual to the
    coframe theta^a, by default the coordinate coframe dx^i."""
    if g.dim not in (4, 5):
        raise MetricError("Weyl tensor computed in dimensions 4 and 5")
    return TensorField(g.chart, "llll", CurvaturePackage(g, coframe).weyl_low)


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
