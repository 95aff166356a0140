"""Split-signature 4-metric and point invariants of a second-order ODE
y'' = Q(x, y, p).

The metric lives on the extended first jet chart (x, y, p, phi); the two
scalar invariants w1 and w2 control the self-dual and anti-self-dual halves
of its Weyl curvature, which vanishes exactly when both do.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from .config import RunConfig
from .curvature import MetricTensor, tensor_zero_exprs, weyl
from .exterior import J1EXT, d_coord, sym_product, total_derivative
from .ode3 import InvariantReport
from .zerotest import (DomainBox, combined_verdict, equation_box,
                       is_zero_many, structural_zero)


@dataclass(frozen=True)
class SecondOrderODE:
    Q: ex.Expression
    box: DomainBox
    params: frozenset = frozenset()

    def __post_init__(self):
        allowed = {"x", "y", "p"} | set(self.params)
        stray = ex.free_symbols(self.Q) - allowed
        if stray:
            raise ValueError(
                f"defining function uses undeclared symbols {sorted(stray)}")


def second_order(text_or_expr, box: DomainBox | None = None,
                 params=(), margin=1e-3) -> SecondOrderODE:
    Q = ex.parse(text_or_expr) if isinstance(text_or_expr, str) \
        else ex.as_expr(text_or_expr)
    box = equation_box(Q, J1EXT.coords, box, margin)
    if "phi" not in box.intervals:
        box = box.with_symbols(phi=(-1.0, 1.0))
    return SecondOrderODE(Q, box, frozenset(params))


def fefferman_metric(ode: SecondOrderODE) -> MetricTensor:
    """g = 2[(dp - Q dx) dx - (dy - p dx)(dphi + (2/3)Q_p dx
    + (1/6)Q_pp (dy - p dx))], a (2,2)-signature metric on (x, y, p, phi)."""
    Q = ode.Q
    Qp = ex.differentiate(Q, "p")
    Qpp = ex.differentiate(Qp, "p")
    dx, dy, dp, dphi = (d_coord(J1EXT, n) for n in ("x", "y", "p", "phi"))
    p = ex.sym("p")
    contact = dy - dx.scaled(p)
    first = dp - dx.scaled(Q)
    second = (dphi + dx.scaled(ex.mul(ex.num(2) / 3, Qp))
              + contact.scaled(ex.mul(ex.num(1) / 6, Qpp)))
    g = (sym_product(first, dx) - sym_product(contact, second)).scaled(2)
    return MetricTensor.from_symmetric_form(g, ode.box, signature=(2, 2))


def ode2_invariants(ode: SecondOrderODE) -> dict:
    """w1 governs one duality half of the Weyl curvature, w2 = Q_pppp the
    other; each vanishing is a point-invariant condition."""
    Q = ode.Q
    D = total_derivative("2nd-order", Q)
    Qp = ex.differentiate(Q, "p")
    Qy = ex.differentiate(Q, "y")
    Qpp = ex.differentiate(Qp, "p")
    Qpy = ex.differentiate(Qp, "y")
    Qyy = ex.differentiate(Qy, "y")
    w1 = ex.add(D.apply(D.apply(Qpp)),
                ex.mul(-4, D.apply(Qpy)),
                ex.neg(ex.mul(D.apply(Qpp), Qp)),
                ex.mul(4, Qp, Qpy),
                ex.mul(-3, Qpp, Qy),
                ex.mul(6, Qyy))
    w2 = ex.diff_n(Q, "p", 4)
    return {"w1": w1, "w2": w2}


def fefferman_flatness_check(ode: SecondOrderODE,
                             cfg: RunConfig | None = None) -> InvariantReport:
    """Weyl(g) == 0 iff w1 == 0 and w2 == 0; reports all three verdicts."""
    cfg = cfg or RunConfig()
    inv = ode2_invariants(ode)
    checks = is_zero_many(inv, ode.box, cfg)
    W = weyl(fefferman_metric(ode))
    named = tensor_zero_exprs(W, "W")
    if named:
        weyl_verdict = combined_verdict(is_zero_many(named, ode.box, cfg))
    else:
        weyl_verdict = structural_zero(cfg)
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
