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


def second_order(text_or_expr, box: DomainBox | None = None,
                 params=(), margin=1e-3) -> Equation:
    return equation("2nd-order", text_or_expr, box, params, margin)


def fefferman_metric(ode: Equation) -> SymmetricForm:
    """g = 2[(dp - Q dx) dx - (dy - p dx)(dphi + (2/3)Q_p dx
    + (1/6)Q_pp (dy - p dx))], a (2,2)-signature metric on (x, y, p, phi)."""
    Q = ode.F
    Qp = ex.differentiate(Q, "p")
    Qpp = ex.differentiate(Qp, "p")
    dx, dy, dp, dphi = (d_coord(J1EXT, n) for n in ("x", "y", "p", "phi"))
    p = ex.sym("p")
    contact = dy - dx.scaled(p)
    first = dp - dx.scaled(Q)
    second = (dphi + dx.scaled(ex.mul(ex.num(2) / 3, Qp))
              + contact.scaled(ex.mul(ex.num(1) / 6, Qpp)))
    g = (sym_product(first, dx) - sym_product(contact, second)).scaled(2)
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
    from one zero test of w1, w2 and the named Weyl components."""
    cfg = cfg or RunConfig()
    inv = ode2_invariants(ode)
    named = tensor_zero_exprs(weyl(fefferman_metric(ode)), "W")
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
