"""Split-signature 4-metric and point invariants of a second-order ODE
y'' = Q(x, y, p).

The metric lives on the extended first jet chart (x, y, p, phi); the two
scalar invariants w1 and w2 control the self-dual and anti-self-dual halves
of its Weyl curvature, which vanishes exactly when both do.
"""

from __future__ import annotations

from . import expr as ex
from .config import RunConfig
from .curvature import tensor_zero_exprs, weyl
from .exterior import (J1EXT, Equation, SymmetricForm, d_coord, equation,
                       sym_product, total_derivative)
from .ode3 import InvariantReport
from .zerotest import DomainBox, combined_verdict, is_zero_many


def second_order(text_or_expr, box: DomainBox | None = None) -> Equation:
    return equation("2nd-order", text_or_expr, box)


# 2(theta2 theta3 - theta1 theta4) in the coframe of `fefferman_coframe`
FEFFERMAN_ETA = ((0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0))


def fefferman_coframe(ode: Equation) -> tuple:
    """theta1 = dy - p dx, theta2 = dp - Q dx, theta3 = dx and
    theta4 = dphi + (2/3)Q_p dx + (1/6)Q_pp theta1 on (x, y, p, phi)."""
    Q = ode.F
    Qp = ex.differentiate(Q, "p")
    Qpp = ex.differentiate(Qp, "p")
    dx, dy, dp, dphi = (d_coord(J1EXT, n) for n in ("x", "y", "p", "phi"))
    contact = dy - dx.scaled(ex.sym("p"))
    return (contact, dp - dx.scaled(Q), dx,
            dphi + dx.scaled(ex.mul(ex.num(2) / 3, Qp))
            + contact.scaled(ex.mul(ex.num(1) / 6, Qpp)))


def fefferman_metric(ode: Equation) -> SymmetricForm:
    """g = 2(theta2 theta3 - theta1 theta4), a (2,2)-signature metric."""
    t1, t2, t3, t4 = fefferman_coframe(ode)
    g = (sym_product(t2, t3) - sym_product(t1, t4)).scaled(2)
    return SymmetricForm(J1EXT, g.rows, ode.box)


def ode2_invariants(ode: Equation) -> dict:
    """w1 governs one duality half of the Weyl curvature, w2 = Q_pppp the
    other; each vanishing is a point-invariant condition."""
    Q = ode.F
    D = total_derivative("2nd-order", Q)
    Qp = ex.differentiate(Q, "p")
    Qy = ex.differentiate(Q, "y")
    Qpp = ex.differentiate(Qp, "p")
    Qpy = ex.differentiate(Qp, "y")
    Qyy = ex.differentiate(Qy, "y")
    w1 = ex.add(D.apply(D.apply(Qpp)),
                ex.mul(-4, D.apply(Qpy)),
                ex.mul(ex.MINUS_ONE, D.apply(Qpp), Qp),
                ex.mul(4, Qp, Qpy),
                ex.mul(-3, Qpp, Qy),
                ex.mul(6, Qyy))
    w2 = ex.diff_n(Q, "p", 4)
    return {"w1": w1, "w2": w2}


def fefferman_flatness_check(ode: Equation,
                             cfg: RunConfig | None = None) -> InvariantReport:
    """Weyl(g) == 0 iff w1 == 0 and w2 == 0; reports all three verdicts,
    from one zero test of w1, w2 and the named Weyl components in the frame
    dual to `fefferman_coframe`."""
    cfg = cfg or RunConfig()
    inv = ode2_invariants(ode)
    named = tensor_zero_exprs(weyl(SymmetricForm(J1EXT, FEFFERMAN_ETA),
                                   fefferman_coframe(ode)), "W")
    checks = is_zero_many({**inv, **named}, ode.box, cfg)
    weyl_verdict = combined_verdict({k: checks[k] for k in named}, cfg)
    w_zero = checks["w1"].is_zero and checks["w2"].is_zero
    consistent = weyl_verdict.is_zero == w_zero
    report = InvariantReport(
        verdict="conformally-flat" if weyl_verdict.is_zero else "curved",
        checks={"w1": checks["w1"], "w2": checks["w2"],
                "weyl": weyl_verdict},
        values={"w1": inv["w1"], "w2": inv["w2"],
                "equivalence_holds": consistent},
    )
    if not consistent:
        report.notes.append(
            "Weyl vanishing disagrees with the joint vanishing of w1, w2")
    return report
