"""Monge equations z' = F(...), their classification, parametrized general
solutions, and the signature-(3,2) conformal metric of the second-order class.

The coordinate metric of a second-order Monge equation with F_qq != 0 is
transcribed as a machine-checked table of monomials over a contact coframe;
a separate frame-based construction (available for F = F(q)) re-derives every
coefficient numerically, so a transcription typo is localized per monomial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import expr as ex
from .config import RunConfig
from .curvature import (TensorField, conformal_rescale, einstein_residual,
                        tensor_zero_exprs, weyl)
from .exterior import (MONGE2, Equation, SymmetricForm, d_coord, equation,
                       sym_product, sym_square, total_derivative)
from .ode3 import InvariantReport
from .zerotest import (DomainBox, ZeroTestVerdict, box, combined_verdict,
                       equation_box, is_zero, is_zero_many, structural_zero,
                       unit_box)


def monge_first(text_or_expr, bx: DomainBox | None = None):
    return equation("monge1", text_or_expr, bx)


def monge_second(text_or_expr, bx: DomainBox | None = None):
    return equation("monge2", text_or_expr, bx)


# ---------------------------------------------------------------------------
# first-order classification

SOLUTION_DEPTH_1 = "integral-free-depth-1"  # general solution uses w, w'
SOLUTION_DEPTH_2 = "integral-free-depth-2"  # general solution uses w, w', w''


def classify_monge1(m: Equation, cfg: RunConfig | None = None) -> InvariantReport:
    """Split on F_pp == 0 and D F_p - F_y - F_p F_z == 0: when both hold the
    general solution needs one fewer derivative of the arbitrary function."""
    cfg = cfg or RunConfig()
    F = m.F
    D = total_derivative("monge1", F)
    Fp = ex.differentiate(F, "p")
    cond1 = ex.differentiate(Fp, "p")
    cond2 = ex.add(D.apply(Fp), ex.neg(ex.differentiate(F, "y")),
                   ex.neg(ex.mul(Fp, ex.differentiate(F, "z"))))
    checks = is_zero_many({"F_pp": cond1, "transport": cond2}, m.box, cfg)
    both = checks["F_pp"].is_zero and checks["transport"].is_zero
    rep = InvariantReport(SOLUTION_DEPTH_1 if both else SOLUTION_DEPTH_2,
                          checks=dict(checks))
    rep.values["F_pp"] = cond1
    rep.values["transport"] = cond2
    return rep


def classify_monge2(m: Equation, cfg: RunConfig | None = None) -> InvariantReport:
    """F_qq == 0 keeps integral-free solutions; F_qq != 0 is the exceptional
    class carrying the split-G2 geometry."""
    cfg = cfg or RunConfig()
    Fqq = ex.diff_n(m.F, "q", 2)
    verdict = is_zero(Fqq, m.box, cfg)
    rep = InvariantReport("integral-free" if verdict.is_zero else "g2",
                          checks={"F_qq": verdict})
    rep.values["F_qq"] = Fqq
    return rep


# ---------------------------------------------------------------------------
# parametrized general solutions


@dataclass(frozen=True)
class ParametrizedSolution:
    """Curves (x(t), y(t), z(t)) built from an arbitrary function slot w and
    finitely many of its derivatives; may contain formal antiderivatives."""
    x: ex.Expression
    y: ex.Expression
    z: ex.Expression

    def __post_init__(self):
        allowed = {"t"} | {f"w_{k}" for k in range(10)}
        for e in (self.x, self.y, self.z):
            stray = {s for s in ex.free_symbols(e) if s not in allowed}
            if stray:
                raise ValueError(f"solution uses unexpected symbols {sorted(stray)}")


def parametrized_solution(x, y, z) -> ParametrizedSolution:
    conv = lambda v: ex.parse(v) if isinstance(v, str) else ex.as_expr(v)
    return ParametrizedSolution(conv(x), conv(y), conv(z))


_XT_VANISHES = "dx/dt vanishes identically on the sample box"


def _solution_residual(eq, sol: ParametrizedSolution):
    dt = lambda e: ex.differentiate(e, "t")
    xt = dt(sol.x)
    if xt.is_zero_literal:
        raise ValueError(_XT_VANISHES)
    yt = dt(sol.y)
    zt = dt(sol.z)
    yp = ex.div(yt, xt)
    zp = ex.div(zt, xt)
    bindings = {"x": sol.x, "y": sol.y, "z": sol.z, "p": yp}
    if eq.kind == "monge2":
        bindings["q"] = ex.div(dt(yp), xt)
    rhs = ex.substitute(eq.F, bindings)
    return ex.add(zp, ex.neg(rhs)), xt


def verify_parametrized_solution(eq, sol: ParametrizedSolution,
                                 bx: DomainBox | None = None,
                                 cfg: RunConfig | None = None) -> ZeroTestVerdict:
    """Zero-test z' - F(...) along the curve over random bindings of t and
    the w-slots.  Formal antiderivatives must disappear under d/dt.

    t, w_0..w_5 and every symbol of the residual and of dx/dt are sampled
    on (-1, 1); the intervals and guards of `bx` are laid over those."""
    cfg = cfg or RunConfig()
    residual, xt = _solution_residual(eq, sol)
    if ex.contains_antiderivative(residual):
        raise ex.AntiderivativeError(
            "residual still contains a formal antiderivative")
    bx = bx or DomainBox({})
    names = (ex.free_symbols(residual) | ex.free_symbols(xt) | {"t"}
             | {f"w_{k}" for k in range(6)})
    bx = DomainBox({**unit_box(names).intervals, **bx.intervals},
                   bx.positive_guards, bx.nonzero_guards)
    bx = equation_box(residual, (), bx).with_nonzero_guard(xt, 1e-2)
    # one call; the residual is keyed as `is_zero` keys a lone expression,
    # so its verdict is labelled alike
    named = {"dx/dt": xt}
    if not residual.is_zero_literal:
        named["expr"] = residual
    got = is_zero_many(named, bx, cfg)
    if got["dx/dt"].is_zero:
        raise ValueError(_XT_VANISHES)
    return got.get("expr") or structural_zero(cfg)


def coefficient_mutations(e: ex.Expression):
    """Yield variants of e with one top-level additive coefficient bumped
    by +1 (soundness control for solution checking)."""
    terms = e.args if e.kind == ex.ADD else (e,)
    for i, t in enumerate(terms):
        if t.kind == ex.MUL and t.args[0].kind == ex.NUM:
            unit = ex.mul(*t.args[1:]) if len(t.args) > 1 else ex.ONE
        elif t.kind == ex.NUM:
            unit = ex.ONE
        else:
            unit = t
        yield i, ex.add(e, unit)


def mutated_solutions(sol: ParametrizedSolution):
    for name in ("x", "y", "z"):
        base = getattr(sol, name)
        for i, mutated in coefficient_mutations(base):
            fields = {"x": sol.x, "y": sol.y, "z": sol.z}
            fields[name] = mutated
            yield f"{name}[{i}]+1", ParametrizedSolution(**fields)


# ---------------------------------------------------------------------------
# the (3,2) metric of a second-order Monge equation
#
# The coefficient table lists (pair, rational coefficient, factors); factors
# name first through fourth partials of F and their D-derivatives along
# D = d_x + p d_y + q d_p + F d_z.  The table is cross-checked monomial group
# by monomial group against the frame construction for F = F(q).

_G32_TERMS = {
    (1, 1): [
        (1, ("DFqq", "DFqq", "Fqq", "Fqq")),
        (6, ("DFq", "DFqqq", "Fqq", "Fqq")),
        (-6, ("DFqqq", "Fp", "Fqq", "Fqq")),
        (-3, ("DDFqq", "Fqq", "Fqq", "Fqq")),
        (9, ("DFqp", "Fqq", "Fqq", "Fqq")),
        (-9, ("Fpp", "Fqq", "Fqq", "Fqq")),
        (9, ("DFqz", "Fq", "Fqq", "Fqq", "Fqq")),
        (-18, ("Fpz", "Fq", "Fqq", "Fqq", "Fqq")),
        (3, ("DFz", "Fqq", "Fqq", "Fqq", "Fqq")),
        (-6, ("DFq", "Fqq", "Fqq", "Fqqp")),
        (6, ("Fp", "Fqq", "Fqq", "Fqqp")),
        (-8, ("DFq", "DFqq", "Fqq", "Fqqq")),
        (8, ("DFqq", "Fp", "Fqq", "Fqqq")),
        (3, ("DDFq", "Fqq", "Fqq", "Fqqq")),
        (-3, ("DFp", "Fqq", "Fqq", "Fqqq")),
        (-3, ("DFz", "Fq", "Fqq", "Fqq", "Fqqq")),
        (4, ("DFq", "DFq", "Fqqq", "Fqqq")),
        (-8, ("DFq", "Fp", "Fqqq", "Fqqq")),
        (-3, ("DFq", "DFq", "Fqq", "Fqqqq")),
        (4, ("Fp", "Fp", "Fqqq", "Fqqq")),
        (6, ("DFq", "Fp", "Fqq", "Fqqqq")),
        (-3, ("Fp", "Fp", "Fqq", "Fqqqq")),
        (-6, ("DFq", "Fq", "Fqq", "Fqq", "Fqqz")),
        (6, ("Fp", "Fq", "Fqq", "Fqq", "Fqqz")),
        (-3, ("DFq", "Fqq", "Fqq", "Fqq", "Fqz")),
        (12, ("Fp", "Fqq", "Fqq", "Fqq", "Fqz")),
        (3, ("Fqq", "Fqq", "Fqqq", "Fy")),
        (-6, ("DFqqq", "Fq", "Fqq", "Fqq", "Fz")),
        (4, ("DFqq", "Fqq", "Fqq", "Fqq", "Fz")),
        (6, ("Fq", "Fqq", "Fqq", "Fqqp", "Fz")),
        (8, ("DFqq", "Fq", "Fqq", "Fqqq", "Fz")),
        (-4, ("DFq", "Fqq", "Fqq", "Fqqq", "Fz")),
        (-9, ("Fqp", "Fqq", "Fqq", "Fqq", "Fz")),
        (1, ("Fp", "Fqq", "Fqq", "Fqqq", "Fz")),
        (-8, ("DFq", "Fq", "Fqqq", "Fqqq", "Fz")),
        (8, ("Fp", "Fq", "Fqqq", "Fqqq", "Fz")),
        (6, ("DFq", "Fq", "Fqq", "Fqqqq", "Fz")),
        (-6, ("Fp", "Fq", "Fqq", "Fqqqq", "Fz")),
        (18, ("Fqq", "Fqq", "Fqq", "Fqy")),
        (6, ("Fq", "Fq", "Fqq", "Fqq", "Fqqz", "Fz")),
        (3, ("Fq", "Fqq", "Fqq", "Fqq", "Fqz", "Fz")),
        (-2, ("Fqq", "Fqq", "Fqq", "Fqq", "Fz", "Fz")),
        (1, ("Fq", "Fqq", "Fqq", "Fqqq", "Fz", "Fz")),
        (4, ("Fq", "Fq", "Fqqq", "Fqqq", "Fz", "Fz")),
        (-3, ("Fq", "Fq", "Fqq", "Fqqqq", "Fz", "Fz")),
        (-9, ("Fq", "Fq", "Fqq", "Fqq", "Fqq", "Fzz")),
    ],
    (1, 2): [
        (6, ("DFqqq", "Fqq", "Fqq")),
        (-6, ("Fqq", "Fqq", "Fqqp")),
        (-8, ("DFqq", "Fqq", "Fqqq")),
        (8, ("DFq", "Fqqq", "Fqqq")),
        (-8, ("Fp", "Fqqq", "Fqqq")),
        (-6, ("DFq", "Fqq", "Fqqqq")),
        (6, ("Fp", "Fqq", "Fqqqq")),
        (-6, ("Fq", "Fqq", "Fqq", "Fqqz")),
        (6, ("Fqq", "Fqq", "Fqq", "Fqz")),
        (2, ("Fqq", "Fqq", "Fqqq", "Fz")),
        (-8, ("Fq", "Fqqq", "Fqqq", "Fz")),
        (6, ("Fq", "Fqq", "Fqqqq", "Fz")),
    ],
    (1, 3): [
        (10, ("DFqq", "Fqq", "Fqq", "Fqq")),
        (-10, ("DFq", "Fqq", "Fqq", "Fqqq")),
        (10, ("Fp", "Fqq", "Fqq", "Fqqq")),
        (-10, ("Fqq", "Fqq", "Fqq", "Fqq", "Fz")),
        (10, ("Fq", "Fqq", "Fqq", "Fqqq", "Fz")),
    ],
    (1, 4): [(30, ("Fqq", "Fqq", "Fqq", "Fqq"))],
    (1, 5): [
        (30, ("DFq", "Fqq", "Fqq", "Fqq")),
        (-30, ("Fp", "Fqq", "Fqq", "Fqq")),
        (-30, ("Fq", "Fqq", "Fqq", "Fqq", "Fz")),
    ],
    (2, 2): [
        (4, ("Fqqq", "Fqqq")),
        (-3, ("Fqq", "Fqqqq")),
    ],
    (2, 3): [(-10, ("Fqq", "Fqq", "Fqqq"))],
    (2, 5): [(30, ("Fqq", "Fqq", "Fqq"))],
    (3, 3): [(-20, ("Fqq", "Fqq", "Fqq", "Fqq"))],
}


def _g32_quantities(F: ex.Expression) -> dict:
    D = total_derivative("monge2", F)
    dv = ex.differentiate
    Fq = dv(F, "q")
    Fqq = dv(Fq, "q")
    Fqqq = dv(Fqq, "q")
    out = {
        "Fq": Fq, "Fqq": Fqq, "Fqqq": Fqqq, "Fqqqq": dv(Fqqq, "q"),
        "Fp": dv(F, "p"), "Fpp": dv(dv(F, "p"), "p"),
        "Fy": dv(F, "y"), "Fz": dv(F, "z"), "Fzz": dv(dv(F, "z"), "z"),
        "Fqp": dv(Fq, "p"), "Fqy": dv(Fq, "y"), "Fqz": dv(Fq, "z"),
        "Fpz": dv(dv(F, "p"), "z"),
        "Fqqp": dv(Fqq, "p"), "Fqqz": dv(Fqq, "z"),
    }
    out["DFq"] = D.apply(Fq)
    out["DFqq"] = D.apply(Fqq)
    out["DFqqq"] = D.apply(Fqqq)
    out["DDFq"] = D.apply(out["DFq"])
    out["DDFqq"] = D.apply(out["DFqq"])
    out["DFqp"] = D.apply(out["Fqp"])
    out["DFqz"] = D.apply(out["Fqz"])
    out["DFp"] = D.apply(out["Fp"])
    out["DFz"] = D.apply(out["Fz"])
    return out


def contact_coframe(F: ex.Expression):
    """The five adapted 1-forms of z' = F(x, y, p, q, z):
    dy - p dx, dz - F dx - F_q (dp - q dx), dp - q dx, dq, dx."""
    dx, dy, dp, dq, dz = (d_coord(MONGE2, n) for n in ("x", "y", "p", "q", "z"))
    p, q = ex.sym("p"), ex.sym("q")
    Fq = ex.differentiate(F, "q")
    contact = dp - dx.scaled(q)
    w1 = dy - dx.scaled(p)
    w2 = dz - dx.scaled(F) - contact.scaled(Fq)
    return {1: w1, 2: w2, 3: contact, 4: dq, 5: dx}


def g32_coefficient(F: ex.Expression, pair, quantities=None) -> ex.Expression:
    quantities = quantities or _g32_quantities(F)
    terms = []
    for coeff, factors in _G32_TERMS[pair]:
        terms.append(ex.mul(ex.num(coeff),
                            *[quantities[f] for f in factors]))
    return ex.add(*terms)


def g32_metric(m: Equation, cfg: RunConfig | None = None) -> SymmetricForm:
    """Representative of the (3,2) conformal metric on (x, y, p, q, z),
    assembled from the coefficient table over the contact coframe."""
    cfg = cfg or RunConfig()
    Fqq = ex.diff_n(m.F, "q", 2)
    if is_zero(Fqq, m.box, cfg).is_zero:
        raise ValueError("the (3,2) metric needs F_qq != 0 on the box")
    quantities = _g32_quantities(m.F)
    forms = contact_coframe(m.F)
    total = None
    for pair in _G32_TERMS:
        coeff = g32_coefficient(m.F, pair, quantities)
        block = sym_product(forms[pair[0]], forms[pair[1]]).scaled(coeff)
        total = block if total is None else total + block
    bx = m.box.with_nonzero_guard(Fqq, 1e-3) if Fqq.kind != ex.NUM else m.box
    return SymmetricForm(MONGE2, total.rows, bx)


# ---------------------------------------------------------------------------
# the one-variable family z' = F(q)


def _check_univariate(F: ex.Expression):
    stray = ex.free_symbols(F) - {"q"}
    if stray:
        raise ValueError(f"expected a function of q alone, found {sorted(stray)}")


def _f_derivatives(F: ex.Expression, upto: int = 6) -> dict:
    _check_univariate(F)
    out = {0: F}
    for k in range(1, upto + 1):
        out[k] = ex.differentiate(out[k - 1], "q")
    return out


def example6_box(qlo=0.5, qhi=2.0) -> DomainBox:
    return box(x=(-1, 1), y=(-1, 1), p=(-1, 1), q=(qlo, qhi), z=(-1, 1))


def example6_coframe(F: ex.Expression) -> dict:
    """Adapted coframe of z' = F(q): the normalized forms theta1..theta5, the
    two surviving connection forms, and the null coframe alpha1..alpha5 in
    which the metric has constant components 2 a1 a5 - 2 a2 a4 + (a3)^2."""
    f = _f_derivatives(F)
    F2, F3, F4, F5 = f[2], f[3], f[4], f[5]
    forms = contact_coframe(F)
    w1, w2, w3, w4, w5 = (forms[i] for i in range(1, 6))

    third = ex.num(Fraction(1, 3))
    cbrt = ex.pow_(F2, third)
    j4 = ex.add(ex.mul(-3, F2, F4), ex.mul(4, ex.pow_(F3, 2)))

    theta1 = w1
    theta2 = w2
    theta3 = w3.scaled(ex.neg(cbrt))
    theta4 = (w5
              - w3.scaled(ex.mul(third, F3, ex.pow_(F2, -1)))
              + w2.scaled(ex.mul(ex.num(Fraction(1, 30)), j4,
                                 ex.pow_(F2, -3)))
              ).scaled(ex.pow_(F2, ex.neg(third)))
    theta5 = w4.scaled(ex.neg(ex.pow_(F2, ex.num(Fraction(2, 3)))))

    omega2 = (theta2.scaled(
        ex.mul(ex.num(Fraction(1, 90)),
               ex.add(ex.mul(-45, F2, F3, F4),
                      ex.mul(40, ex.pow_(F3, 3)),
                      ex.mul(9, ex.pow_(F2, 2), F5)),
               ex.pow_(F2, -5)))
        + theta3.scaled(ex.mul(ex.num(Fraction(1, 30)), j4,
                               ex.pow_(F2, ex.num(Fraction(-10, 3))))))
    omega6 = theta5.scaled(ex.neg(ex.mul(ex.num(Fraction(1, 30)), j4,
                                         ex.pow_(F2, ex.num(Fraction(-10, 3))))))

    sqrt3 = ex.sqrt(ex.num(3))
    alpha3 = theta3.scaled(ex.div(ex.mul(2, sqrt3), ex.num(3)))
    return {
        "theta": (theta1, theta2, theta3, theta4, theta5),
        "omega2": omega2,
        "omega6": omega6,
        "alpha": (theta1, theta2, alpha3, theta4, theta5),
    }


def frame_metric(F: ex.Expression, bx: DomainBox | None = None) -> SymmetricForm:
    """2 theta1 theta5 - 2 theta2 theta4 + (4/3) (theta3)^2 in coordinates."""
    cf = example6_coframe(F)
    t1, t2, t3, t4, t5 = cf["theta"]
    g = (sym_product(t1, t5).scaled(2)
         - sym_product(t2, t4).scaled(2)
         + sym_square(t3).scaled(ex.num(Fraction(4, 3))))
    return SymmetricForm(MONGE2, g.rows, bx or example6_box())


def example6_a5(F: ex.Expression) -> ex.Expression:
    """The single surviving scalar invariant of z' = F(q)."""
    f = _f_derivatives(F)
    F2, F3, F4, F5, F6 = f[2], f[3], f[4], f[5], f[6]
    numer = ex.add(
        ex.mul(-224, ex.pow_(F3, 4)),
        ex.mul(336, F2, ex.pow_(F3, 2), F4),
        ex.mul(-80, ex.pow_(F2, 2), F3, F5),
        ex.mul(ex.pow_(F2, 2),
               ex.add(ex.mul(-51, ex.pow_(F4, 2)), ex.mul(10, F2, F6))))
    return ex.div(numer, ex.mul(100, ex.pow_(F2, ex.num(Fraction(20, 3)))))


_METPRZY_TERMS = (
    # (slot pair as coordinate names, coefficient factory)
    (("q", "y"), lambda f, q, p: ex.mul(30, ex.pow_(f[2], 4))),
    (("q", "x"), lambda f, q, p: ex.mul(-30, ex.pow_(f[2], 4), p)),
    (("z", "z"), lambda f, q, p: ex.add(
        ex.mul(4, ex.pow_(f[3], 2)), ex.mul(-3, f[2], f[4]))),
    (("p", "z"), lambda f, q, p: ex.mul(2, ex.add(
        ex.mul(-5, ex.pow_(f[2], 2), f[3]),
        ex.mul(-4, f[1], ex.pow_(f[3], 2)),
        ex.mul(3, f[1], f[2], f[4])))),
    (("x", "z"), lambda f, q, p: ex.mul(2, ex.add(
        ex.mul(15, ex.pow_(f[2], 3)),
        ex.mul(5, q, ex.pow_(f[2], 2), f[3]),
        ex.mul(-4, f[0], ex.pow_(f[3], 2)),
        ex.mul(4, q, f[1], ex.pow_(f[3], 2)),
        ex.mul(3, f[0], f[2], f[4]),
        ex.mul(-3, q, f[1], f[2], f[4])))),
    (("p", "p"), lambda f, q, p: ex.add(
        ex.mul(-20, ex.pow_(f[2], 4)),
        ex.mul(10, f[1], ex.pow_(f[2], 2), f[3]),
        ex.mul(4, ex.pow_(f[1], 2), ex.pow_(f[3], 2)),
        ex.mul(-3, ex.pow_(f[1], 2), f[2], f[4]))),
    (("p", "x"), lambda f, q, p: ex.mul(2, ex.add(
        ex.mul(-15, f[1], ex.pow_(f[2], 3)),
        ex.mul(20, q, ex.pow_(f[2], 4)),
        ex.mul(5, f[0], ex.pow_(f[2], 2), f[3]),
        ex.mul(-10, q, f[1], ex.pow_(f[2], 2), f[3]),
        ex.mul(4, f[0], f[1], ex.pow_(f[3], 2)),
        ex.mul(-4, q, ex.pow_(f[1], 2), ex.pow_(f[3], 2)),
        ex.mul(-3, f[0], f[1], f[2], f[4]),
        ex.mul(3, q, ex.pow_(f[1], 2), f[2], f[4])))),
    (("x", "x"), lambda f, q, p: ex.add(
        ex.mul(-30, f[0], ex.pow_(f[2], 3)),
        ex.mul(30, q, f[1], ex.pow_(f[2], 3)),
        ex.mul(-20, ex.pow_(q, 2), ex.pow_(f[2], 4)),
        ex.mul(-10, q, f[0], ex.pow_(f[2], 2), f[3]),
        ex.mul(10, ex.pow_(q, 2), f[1], ex.pow_(f[2], 2), f[3]),
        ex.mul(4, ex.pow_(f[0], 2), ex.pow_(f[3], 2)),
        ex.mul(-8, q, f[0], f[1], ex.pow_(f[3], 2)),
        ex.mul(4, ex.pow_(q, 2), ex.pow_(f[1], 2), ex.pow_(f[3], 2)),
        ex.mul(-3, ex.pow_(f[0], 2), f[2], f[4]),
        ex.mul(6, q, f[0], f[1], f[2], f[4]),
        ex.mul(-3, ex.pow_(q, 2), ex.pow_(f[1], 2), f[2], f[4]))),
)


def example6_metric(F: ex.Expression, bx: DomainBox | None = None) -> SymmetricForm:
    """Closed-form coordinate representative of the (3,2) metric for
    z' = F(q)."""
    f = _f_derivatives(F, upto=4)
    q, p = ex.sym("q"), ex.sym("p")
    total = None
    for (n1, n2), coeff_of in _METPRZY_TERMS:
        block = sym_product(d_coord(MONGE2, n1), d_coord(MONGE2, n2))
        block = block.scaled(coeff_of(f, q, p))
        total = block if total is None else total + block
    return SymmetricForm(MONGE2, total.rows, bx or example6_box())


# ---------------------------------------------------------------------------
# transcription integrity: table vs frame construction

# the relative residual, after the per-point conformal factor, below which
# the table and the frame construction agree
TRANSCRIPTION_RTOL = 1e-8


@dataclass
class TranscriptionReport:
    consistent: bool
    worst_relative: float
    per_pair: dict
    monomial_values: dict
    factor_samples: list

    def to_json(self):
        return {
            "consistent": self.consistent,
            "worst_relative": self.worst_relative,
            "per_pair": self.per_pair,
            "monomial_values": {str(k): v for k, v in self.monomial_values.items()},
        }


def transcription_check(F: ex.Expression, bx: DomainBox | None = None,
                        cfg: RunConfig | None = None) -> TranscriptionReport:
    """Compare the coefficient table against the frame construction for a
    one-variable F, allowing a single per-point conformal factor.

    Any discrepancy is itemized: the offending coefficient group is named by
    its coframe pair and every monomial's value at the worst point is
    reported.
    """
    cfg = cfg or RunConfig()
    bx = bx or example6_box()
    _check_univariate(F)
    m = monge_second(F, bx)
    table = g32_metric(m, cfg)
    frame = frame_metric(F, bx)

    rng = random.Random(cfg.seed)
    n = 5
    worst = (0.0, None, None)
    per_pair: dict = {}
    factors = []
    tape = ex.Tape([g.rows[i][j] for g in (table, frame)
                    for i in range(n) for j in range(n)])
    with mpmath.workdps(cfg.dps):
        for _ in range(cfg.samples):
            pt = bx.sample(rng)
            values = tape.values(pt)
            rows = [values[i * n:(i + 1) * n] for i in range(2 * n)]
            tvals, fvals = rows[:n], rows[n:]
            scale = max(abs(v) for row in fvals for v in row)
            ii, jj = max(((i, j) for i in range(n) for j in range(i, n)),
                         key=lambda k: abs(fvals[k[0]][k[1]]))
            lam = tvals[ii][jj] / fvals[ii][jj]
            factors.append(float(lam))
            for i in range(n):
                for j in range(i, n):
                    resid = abs(tvals[i][j] - lam * fvals[i][j])
                    rel = float(resid / (1 + abs(lam) * scale))
                    key = f"{table.chart.coords[i]}{table.chart.coords[j]}"
                    per_pair[key] = max(per_pair.get(key, 0.0), rel)
                    if rel > worst[0]:
                        worst = (rel, pt, (i, j))

    consistent = worst[0] <= TRANSCRIPTION_RTOL
    monomial_values: dict = {}
    if not consistent:
        quantities = _g32_quantities(m.F)
        pt = worst[1]
        monomials = {}
        for pair, monos in _G32_TERMS.items():
            for k, (coeff, factors_) in enumerate(monos):
                monomials[(pair, k)] = ex.mul(
                    ex.num(coeff), *[quantities[f] for f in factors_])
        with mpmath.workdps(cfg.dps):
            values = ex.Tape(monomials.values()).values(pt)
            monomial_values = {key: float(v)
                               for key, v in zip(monomials, values)}
    return TranscriptionReport(consistent, worst[0], per_pair,
                               monomial_values, factors)


# ---------------------------------------------------------------------------
# Einstein scale for the one-variable family


def einstein_scale_rhs(F: ex.Expression) -> ex.Expression:
    """Solve the scale equation for the second derivative of the conformal
    exponent: Ups_2 = Ups_1^2 + 4 F3 Ups_1 / F2 + (56 F3^2 - 17 F2 F4)/(10 F2^2)."""
    f = _f_derivatives(F, upto=4)
    u1 = ex.fam("Ups", 1)
    return ex.add(
        ex.pow_(u1, 2),
        ex.mul(4, f[3], ex.pow_(f[2], -1), u1),
        ex.div(ex.add(ex.mul(56, ex.pow_(f[3], 2)),
                      ex.mul(-17, f[2], f[4])),
               ex.mul(10, ex.pow_(f[2], 2))))


def einstein_scale_residual(F: ex.Expression, bx: DomainBox | None = None,
                            cfg: RunConfig | None = None,
                            upsilon2_rhs: ex.Expression | None = None):
    """Einstein residual of e^{2 Ups_0} times the closed-form representative,
    with the second and higher scale derivatives eliminated through the scale
    equation (substituted highest first).  Returns (tensor, verdict)."""
    cfg = cfg or RunConfig()
    bx = bx or example6_box()
    bx = bx.with_symbols(Ups_0=(-1.0, 1.0), Ups_1=(-1.0, 1.0))
    rhs = upsilon2_rhs if upsilon2_rhs is not None else einstein_scale_rhs(F)

    base = example6_metric(F, bx)
    g = conformal_rescale(base, ex.fam("Ups", 0))
    residual = einstein_residual(g)

    subs = [("Ups_4", ex.diff_n(rhs, "q", 2)),
            ("Ups_3", ex.differentiate(rhs, "q")),
            ("Ups_2", rhs)]
    cleaned = {}
    for (i, j), c in residual.flatten().items():
        if j < i:  # the residual is symmetric node for node
            cleaned[i, j] = cleaned[j, i]
            continue
        for name, val in subs:
            c = ex.substitute(c, {name: val})
        cleaned[i, j] = c
    named = {f"E{''.join(map(str, idx))}": c for idx, c in cleaned.items()
             if not c.is_zero_literal}
    verdict = combined_verdict(is_zero_many(named, bx, cfg), cfg)
    n = 5
    tens = TensorField(base.chart, "ll", tuple(
        tuple(cleaned[(i, j)] for j in range(n)) for i in range(n)))
    return tens, verdict


# ---------------------------------------------------------------------------
# null-frame curvature pattern

# Null-frame curvature slot table: which scalar invariants feed which
# alpha^rho ^ alpha^sigma term of each raised-pair curvature 2-form.  Only
# slot membership is consumed here; the survivor magnitude is checked against
# the closed-form a5 separately.
_WEYL_FORM_TABLE = {
    "w14": [("c3", 1, 2), ("b3", 1, 3), ("a3", 1, 4), ("a4", 1, 5),
            ("b4", 2, 3), ("a4", 2, 4), ("a5", 2, 5)],
    "w15": [("c2", 1, 2), ("b2", 1, 3), ("a2", 1, 4), ("a3", 1, 5),
            ("b3", 2, 3), ("a3", 2, 4), ("a4", 2, 5)],
    "w25": [("c1", 1, 2), ("b1", 1, 3), ("a1", 1, 4), ("a2", 1, 5),
            ("b2", 2, 3), ("a2", 2, 4), ("a3", 2, 5)],
    "w34": [("d2", 1, 2), ("c2", 1, 3), ("b2", 1, 4), ("b3", 1, 5),
            ("c3", 2, 3), ("b3", 2, 4), ("b4", 2, 5)],
    "w35": [("d1", 1, 2), ("c1", 1, 3), ("b1", 1, 4), ("b2", 1, 5),
            ("c2", 2, 3), ("b2", 2, 4), ("b3", 2, 5)],
    "w45": [("e", 1, 2), ("d1", 1, 3), ("c1", 1, 4), ("c2", 1, 5),
            ("d2", 2, 3), ("c2", 2, 4), ("c3", 2, 5)],
}

# raised-pair matrix positions (upper triangle; the matrix is antisymmetric)
_WEYL_MATRIX = {
    (1, 4): "w14", (1, 5): "w15", (2, 4): "w15", (2, 5): "w25",
    (3, 4): "w34", (3, 5): "w35", (4, 5): "w45",
}

# index pairing of the constant frame metric 2 a1 a5 - 2 a2 a4 + (a3)^2:
# lowering a raised index swaps it with its metric partner
_METRIC_PARTNER = {1: 5, 5: 1, 2: 4, 4: 2, 3: 3}
NULL_FRAME_ETA = ((0, 0, 0, 0, 1), (0, 0, 0, -1, 0), (0, 0, 1, 0, 0),
                  (0, -1, 0, 0, 0), (1, 0, 0, 0, 0))


def allowed_frame_pattern(scalars=("a5",)) -> set:
    """All-lower frame index tuples (0-based) that the listed scalars can
    populate, per the null-frame curvature slot table."""
    allowed = set()
    for (mu, nu), form in _WEYL_MATRIX.items():
        for name, rho, sigma in _WEYL_FORM_TABLE[form]:
            if name not in scalars:
                continue
            for m2, n2 in ((mu, nu), (nu, mu)):
                a, b = _METRIC_PARTNER[m2], _METRIC_PARTNER[n2]
                for r, s in ((rho, sigma), (sigma, rho)):
                    allowed.add((a - 1, b - 1, r - 1, s - 1))
                    allowed.add((r - 1, s - 1, a - 1, b - 1))  # pair exchange
    return allowed


# In the slot table the surviving cubic-family component is C_2525 = -a5;
# this constant is the ratio (package Weyl C_2525) / (-a5), fixed once on
# the fixture F = q^3/6.
WEYL_FRAME_SIGN = 1


def weyl_frame_pattern_check(F: ex.Expression, bx: DomainBox | None = None,
                             cfg: RunConfig | None = None,
                             scalars=("a5",)) -> InvariantReport:
    """Weyl tensor of 2 a1 a5 - 2 a2 a4 + (a3)^2, built in the frame dual to
    the null coframe alpha1..alpha5: everything outside the slots generated
    by the listed scalars must vanish, and the surviving slot equals the
    closed-form a5 up to the recorded sign."""
    cfg = cfg or RunConfig()
    bx = bx or example6_box()
    a5 = example6_a5(F)
    frame = weyl(SymmetricForm(MONGE2, NULL_FRAME_ETA),
                 example6_coframe(F)["alpha"])
    allowed = allowed_frame_pattern(scalars)

    named_outside = tensor_zero_exprs(frame, "out", skip=allowed)
    outside = combined_verdict(is_zero_many(named_outside, bx, cfg), cfg)
    checks = {"outside_pattern": outside}

    # C_{2525} (0-based [1][4][1][4]) carries -a5 in the table convention
    survivor = frame.component(1, 4, 1, 4)
    expected = ex.mul(ex.num(-WEYL_FRAME_SIGN), a5)
    checks["survivor_matches_a5"] = is_zero(
        ex.add(survivor, ex.neg(expected)), bx, cfg)
    ok = outside.is_zero and checks["survivor_matches_a5"].is_zero
    rep = InvariantReport("pattern-confirmed" if ok else "pattern-violated",
                          checks=checks)
    rep.values["a5"] = a5
    rep.values["survivor"] = survivor
    return rep
