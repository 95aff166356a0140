"""Invariants and geometric data attached to a third-order ODE y''' = F.

Works on the chart (x, y, p, q) with the field D = d_x + p d_y + q d_p + F d_q
along solutions.  Provides the Wuenschmann and Cartan scalar conditions, the
degenerate bilinear form whose kernel is D, the Weyl 1-form candidate, the
three-way classification, and the dispersionless-KP bridge that produces a
third-order ODE from a solution u(x, y, t) of the dKP equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import expr as ex
from .config import RunConfig
from .exterior import (
    DKP, J2_3RD, DifferentialForm, Equation, SymmetricForm, TransportResult,
    conformal_transport_factor, d, d_coord, equation, lie_derivative,
    sym_product, sym_square, total_derivative, transport_residuals, wedge_all,
)
from .zerotest import (
    DomainBox, ZeroTestVerdict, combined_verdict, is_zero_many,
    structural_zero,
)


def third_order(text_or_expr, box: DomainBox | None = None,
                params=(), margin=1e-3) -> Equation:
    return equation("3rd-order", text_or_expr, box, params, margin)


@dataclass
class Ode3Invariants:
    """The invariants of y''' = F: K, the Wuenschmann invariant A and the
    Cartan invariant G, built at once.  L, N and the Cotton components
    C1-C5, the conformal obstruction of the class A = 0, are built together
    on first use of any of them (the cached `_cotton`)."""
    F: ex.Expression
    K: ex.Expression
    A: ex.Expression
    G: ex.Expression

    @cached_property
    def _cotton(self) -> dict:
        F, K = self.F, self.K
        dq = lambda e: ex.differentiate(e, "q")
        dp = lambda e: ex.differentiate(e, "p")
        dy = lambda e: ex.differentiate(e, "y")
        Fq = dq(F)
        Fqq, Fqy = dq(Fq), dy(Fq)

        L = ex.add(ex.mul(ex.MINUS_ONE, ex.num(1) / 3, Fqy),
                   ex.mul(ex.num(1) / 3, Fqq, K),
                   ex.neg(dp(K)),
                   ex.mul(ex.MINUS_ONE, ex.num(1) / 3, Fq, dq(K)))
        N = ex.add(ex.mul(ex.num(1) / 3, Fqq, L),
                   ex.mul(ex.MINUS_ONE, ex.num(2) / 3, Fq, dq(L)),
                   ex.mul(ex.MINUS_ONE, 2, dp(L)),
                   ex.mul(K, dq(dq(K))),
                   ex.neg(dy(dq(K))),
                   ex.mul(ex.MINUS_ONE, ex.HALF, ex.pow_(dq(K), 2)))
        return {"L": L, "N": N, "C1": dq(dq(Fqq)), "C2": dq(dq(dq(K))),
                "C3": dq(dq(L)), "C4": dq(N),
                "C5": ex.add(ex.mul(-3, dq(dq(K)), L),
                             ex.mul(3, dq(K), dq(L)),
                             ex.mul(-3, K, dq(dq(L))),
                             ex.mul(3, dy(dq(L))),
                             ex.mul(3, dp(N)),
                             ex.mul(Fq, dq(N)))}

    L = property(lambda self: self._cotton["L"])
    N = property(lambda self: self._cotton["N"])
    C1 = property(lambda self: self._cotton["C1"])
    C2 = property(lambda self: self._cotton["C2"])
    C3 = property(lambda self: self._cotton["C3"])
    C4 = property(lambda self: self._cotton["C4"])
    C5 = property(lambda self: self._cotton["C5"])

    def cotton_components(self):
        return {k: self._cotton[k] for k in ("C1", "C2", "C3", "C4", "C5")}


def ode3_invariants(ode: Equation) -> Ode3Invariants:
    F = ode.F
    D = total_derivative("3rd-order", F)
    dq = lambda e: ex.differentiate(e, "q")
    dp = lambda e: ex.differentiate(e, "p")
    dy = lambda e: ex.differentiate(e, "y")

    Fq, Fp, Fy = dq(F), dp(F), dy(F)
    Fqq, Fqp, Fqy = dq(Fq), dp(Fq), dy(Fq)

    K = ex.add(ex.mul(ex.num(1) / 6, D.apply(Fq)),
               ex.mul(ex.MINUS_ONE, ex.num(1) / 9, ex.pow_(Fq, 2)),
               ex.mul(ex.MINUS_ONE, ex.HALF, Fp))
    A = ex.add(Fy, D.apply(K), ex.mul(ex.MINUS_ONE, ex.num(2) / 3, Fq, K))
    G = ex.add(D.apply(D.apply(Fqq)), ex.neg(D.apply(Fqp)), Fqy)
    return Ode3Invariants(F, K, A, G)


def metric_tilde(ode: Equation) -> SymmetricForm:
    """Degenerate bilinear form on (x, y, p, q) with D in its kernel;
    signature (+, -, -, 0)."""
    F = ode.F
    inv = ode3_invariants(ode)
    K = inv.K
    Fq = ex.differentiate(F, "q")
    dx, dy, dp, dq = (d_coord(J2_3RD, n) for n in ("x", "y", "p", "q"))
    p, q = ex.sym("p"), ex.sym("q")

    omega1 = dy - dx.scaled(p)
    second = (dq
              - dp.scaled(ex.mul(ex.num(1) / 3, Fq))
              + dy.scaled(K)
              + dx.scaled(ex.add(ex.mul(ex.num(1) / 3, q, Fq),
                                 ex.neg(F), ex.neg(ex.mul(p, K)))))
    contact2 = dp - dx.scaled(q)
    return sym_product(omega1, second).scaled(2) - sym_square(contact2)


def nu_tilde(ode: Equation) -> DifferentialForm:
    """Weyl 1-form candidate in the gauge where the fiber scale is 1."""
    F = ode.F
    D = total_derivative("3rd-order", F)
    Fq = ex.differentiate(F, "q")
    Fqq = ex.differentiate(Fq, "q")
    Fqp = ex.differentiate(Fq, "p")
    dx, dy, dp = (d_coord(J2_3RD, n) for n in ("x", "y", "p"))
    p, q = ex.sym("p"), ex.sym("q")
    omega1 = dy - dx.scaled(p)
    omega2 = dp - dx.scaled(q)
    omega4 = dx
    two_thirds = ex.num(2) / 3
    return (omega1.scaled(ex.mul(two_thirds,
                                 ex.add(Fqp, ex.neg(D.apply(Fqq)))))
            + omega2.scaled(ex.mul(two_thirds, Fqq))
            + omega4.scaled(ex.mul(two_thirds, Fq))).scaled(ex.MINUS_ONE)


def _one_call(parts, box: DomainBox, cfg: RunConfig) -> list:
    """Zero-test the roots of every (named, read) part in one `is_zero_many`
    call, and give each part's read of the verdicts of its own roots.  The parts' names must be distinct."""
    named = {k: e for roots, _ in parts for k, e in roots.items()}
    got = is_zero_many(named, box, cfg)
    return [read({k: got[k] for k in roots}) for roots, read in parts]


def transport_check(ode: Equation, cfg: RunConfig | None = None) -> TransportResult:
    D = total_derivative("3rd-order", ode.F)
    return conformal_transport_factor(D, metric_tilde(ode), ode.box, cfg)


def _nu_coefficients(ode: Equation, cfg: RunConfig):
    """The coefficients of d(L_D nu) by name, and the function that reads
    their verdicts as one."""
    D = total_derivative("3rd-order", ode.F)
    dl = d(lie_derivative(D, nu_tilde(ode)))
    named = {f"c{idx}": c for idx, c in dl.coeffs.items()}
    return named, lambda verdicts: combined_verdict(verdicts, cfg)


def nu_closedness_check(ode: Equation, cfg: RunConfig | None = None):
    """d(L_D nu) == 0 exactly when the Cartan scalar condition holds."""
    cfg = cfg or RunConfig()
    return _one_call([_nu_coefficients(ode, cfg)], ode.box, cfg)[0]


GENERIC = "generic"
WUENSCHMANN = "wuenschmann"
EINSTEIN_WEYL = "einstein-weyl"


@dataclass
class InvariantReport:
    verdict: str
    checks: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_json(self):
        return {
            "verdict": self.verdict,
            "checks": {k: v.to_json() if isinstance(v, ZeroTestVerdict) else v
                       for k, v in self.checks.items()},
            "values": {k: (ex.to_str(v) if isinstance(v, ex.Expression) else v)
                       for k, v in self.values.items()},
            "notes": list(self.notes),
        }


def _classification(ode: Equation, cfg: RunConfig):
    """A and G by name, and the function that reads their verdicts as the
    classification; it zero-tests the Cotton components when A == 0."""
    inv = ode3_invariants(ode)
    roots = {"A": inv.A, "G": inv.G}

    def read(checks):
        a_zero = checks["A"].is_zero
        verdict = GENERIC if not a_zero else \
            EINSTEIN_WEYL if checks["G"].is_zero else WUENSCHMANN
        report = InvariantReport(verdict, dict(checks), dict(roots))
        if a_zero:
            cots = is_zero_many(inv.cotton_components(), ode.box, cfg)
            report.checks.update(cots)
            report.values["conformally_flat_solution_space"] = \
                all(v.is_zero for v in cots.values())
        return report
    return roots, read


def classify3(ode: Equation, cfg: RunConfig | None = None) -> InvariantReport:
    """generic (A != 0), wuenschmann (A == 0, G != 0), or einstein-weyl
    (A == 0 and G == 0); in the non-generic cases also reports whether all
    five conformal-obstruction components vanish."""
    cfg = cfg or RunConfig()
    return _one_call([_classification(ode, cfg)], ode.box, cfg)[0]


def ode3_checks(ode: Equation, cfg: RunConfig | None = None) -> tuple:
    """`classify3`, `transport_check` and `nu_closedness_check` at once:
    A, G, the transport residuals and the coefficients of d(L_D nu) in one
    `is_zero_many` call, and the Cotton components in a second one when
    A == 0.  Each verdict is that of the separate checks, except that a
    nonzero sampled verdict may take its worst point (`max_ratio`,
    witness) from a later point."""
    cfg = cfg or RunConfig()
    D = total_derivative("3rd-order", ode.F)
    parts = [_classification(ode, cfg),
             transport_residuals(D, metric_tilde(ode), ode.box, cfg),
             _nu_coefficients(ode, cfg)]
    return tuple(_one_call(parts, ode.box, cfg))


# ---------------------------------------------------------------------------
# dKP bridge


def _u_partials(u: ex.Expression):
    ux = ex.differentiate(u, "x")
    uy = ex.differentiate(u, "y")
    return ux, uy


def dkp_scalar_residual(u: ex.Expression) -> ex.Expression:
    """u_yy + u_x^2 - u_xt + u u_xx."""
    ux = ex.differentiate(u, "x")
    return ex.add(ex.diff_n(u, "y", 2),
                  ex.pow_(ux, 2),
                  ex.neg(ex.differentiate(ux, "t")),
                  ex.mul(u, ex.differentiate(ux, "x")))


def dkp_pair(u: ex.Expression):
    """The two Pfaffian 1-forms whose Frobenius system encodes the dKP
    equation for u(x, y, t)."""
    if "v" in ex.free_symbols(u):
        raise ValueError("u must not depend on the fiber coordinate v")
    v = ex.sym("v")
    dx, dy, dt, dv = (d_coord(DKP, n) for n in ("x", "y", "t", "v"))
    ux, uy = _u_partials(u)
    w1 = dx + dt.scaled(ex.add(u, ex.pow_(v, 2))) + dy.scaled(v)
    w4 = dv - dt.scaled(ex.add(uy, ex.mul(ux, v))) - dy.scaled(ux)
    return w1, w4


@dataclass
class DkpResidualResult:
    scalar: ex.Expression
    first_form: DifferentialForm
    second_form: DifferentialForm
    verdict: ZeroTestVerdict | None

    def to_json(self):
        return {
            "scalar": ex.to_str(self.scalar),
            "first_form_coefficient": ex.to_str(self.first_form.coeff((0, 1, 2, 3))),
            "second_form_coefficient": ex.to_str(self.second_form.coeff((0, 1, 2, 3))),
            "verdict": None if self.verdict is None else self.verdict.to_json(),
        }


class DkpConsistencyError(ValueError):
    """The Frobenius 4-form residuals of a dKP coframe disagree with the
    scalar dKP residual, which the algebra rules out: a sampling or
    construction fault, not a property of u."""


def dkp_residual(u: ex.Expression, box: DomainBox | None = None,
                 cfg: RunConfig | None = None) -> DkpResidualResult:
    """Scalar dKP residual of u plus the two 4-form Frobenius residuals.

    The first 4-form vanishes identically for every u; the second equals
    minus the scalar residual times the volume form, so the Frobenius system
    closes exactly when the scalar vanishes.
    """
    cfg = cfg or RunConfig()
    w1, w4 = dkp_pair(u)
    f1 = wedge_all(d(w1), w1, w4)
    f2 = wedge_all(d(w4), w1, w4)
    s = dkp_scalar_residual(u)
    verdict = None
    if box is not None:
        consistency = {f"first{idx}": c for idx, c in f1.coeffs.items()}
        consistency["second_plus_scalar"] = ex.add(
            f2.coeff((0, 1, 2, 3)), s)
        # one call, the consistency residuals first; the scalar is keyed as
        # `is_zero` keys a lone expression, so its verdict is labelled alike
        named = {k: v for k, v in consistency.items() if not v.is_zero_literal}
        if not s.is_zero_literal:
            named["expr"] = s
        got = is_zero_many(named, box, cfg)
        bad = sorted(k for k in consistency if k in got and not got[k].is_zero)
        if bad:
            raise DkpConsistencyError(
                "Frobenius residuals inconsistent with the scalar "
                f"residual: {', '.join(bad)}")
        verdict = got.get("expr") or structural_zero(cfg)
    return DkpResidualResult(s, f1, f2, verdict)


def dkp_coframe(u: ex.Expression, box: DomainBox,
                cfg: RunConfig | None = None):
    """The adapted coframe attached to a dKP solution u.

    Requires u to solve the dKP equation on the box.  The second and third
    forms are built from the second derivatives of u; the fourth is the
    Pfaffian partner of the first.
    """
    cfg = cfg or RunConfig()
    res = dkp_residual(u, box, cfg)
    if res.verdict is not None and not res.verdict.is_zero:
        raise ValueError("u does not solve the dKP equation on the box")
    v = ex.sym("v")
    dx, dy, dt, dv = (d_coord(DKP, n) for n in ("x", "y", "t", "v"))
    ux = ex.differentiate(u, "x")
    uxx = ex.differentiate(ux, "x")
    uxy = ex.differentiate(ux, "y")
    w1, w4 = dkp_pair(u)
    w2 = (dt.scaled(ex.add(ex.neg(ex.mul(u, uxx)),
                           ex.neg(ex.mul(2, uxy, v)),
                           ex.mul(uxx, ex.pow_(v, 2))))
          - dx.scaled(uxx) - dy.scaled(uxy))
    w3 = (dt.scaled(ex.add(ex.neg(ex.mul(u, ex.pow_(uxx, 2))),
                           ex.neg(ex.mul(4, ex.pow_(uxy, 2))),
                           ex.mul(4, uxx, uxy, v),
                           ex.neg(ex.mul(ex.pow_(uxx, 2), ex.pow_(v, 2)))))
          - dx.scaled(ex.pow_(uxx, 2))
          + dy.scaled(ex.mul(uxx, ex.add(ex.neg(ex.mul(2, uxy)),
                                         ex.mul(uxx, v)))))
    return w1, w2, w3, w4


def dkp_x_membership(u: ex.Expression, X: ex.Expression, box: DomainBox,
                     cfg: RunConfig | None = None) -> ZeroTestVerdict:
    """Whether dX lies in the span of the first and fourth coframe forms:
    dX ^ w4 ^ w1 == 0."""
    cfg = cfg or RunConfig()
    w1, w4 = dkp_pair(u)
    dX = d(DifferentialForm(DKP, 0, {(): X}))
    residual = wedge_all(dX, w4, w1)
    named = {f"m{idx}": c for idx, c in residual.coeffs.items()}
    return combined_verdict(is_zero_many(named, box, cfg), cfg)
