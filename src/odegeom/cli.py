"""Command-line front end.

Subcommands:
  ode3 {invariants|classify|metric|nu} --F <formula>
  dkp {residual|coframe} --u <formula> [--X <formula>]
  ode2 {metric|invariants|flatness} --Q <formula>
  monge {classify1|classify2|verify-solution|g32|example6} ...
  lie verify <system>
  verify paper

Global flags: --tol --samples --seed --box --json.  Exit status: 0 when every
verdict matches expectation, 1 on a mismatch, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import expr as ex
from .catalog import verify_catalog
from .config import RunConfig, load_config
from .curvature import signature_at
from .exterior import DKP, J1EXT, J2_3RD, MONGE1, MONGE2
from .zerotest import BoxError, DomainBox, equation_box
from . import liealg, monge, ode2, ode3

USAGE_ERROR = 2


class CliError(Exception):
    pass


def parse_box_args(specs, defaults: dict) -> dict:
    """--box 'sym:lo:hi' repeated; returns interval dict over defaults."""
    intervals = dict(defaults)
    for spec in specs or ():
        parts = spec.split(":")
        if len(parts) != 3:
            raise CliError(f"bad box spec {spec!r}; expected sym:lo:hi")
        name, lo, hi = parts
        try:
            intervals[name] = (float(lo), float(hi))
        except ValueError:
            raise CliError(f"bad box bounds in {spec!r}")
    return intervals


def build_box(formula: ex.Expression, chart_names, specs) -> DomainBox:
    """The --box intervals over the defaults of `equation_box`, without
    guards: the equation constructors add them."""
    defaults = equation_box(formula, chart_names).intervals
    return DomainBox(parse_box_args(specs, defaults))


def _solution_box(spec) -> DomainBox:
    """The sampling box of a solution file's "box": an object that maps each
    name to two real numbers [lo, hi]."""
    def real(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if not (isinstance(spec, dict) and all(
            isinstance(v, list) and len(v) == 2 and all(map(real, v))
            for v in spec.values())):
        raise CliError('the solution file\'s "box" must map each name to '
                       'two numbers [lo, hi]')
    return DomainBox({k: tuple(v) for k, v in spec.items()})


def _parse_formula(text, allowed):
    try:
        return ex.parse(text, allowed=allowed)
    except ex.ParseError as err:
        raise CliError(f"malformed formula: {err}")


def _components(g) -> dict:
    """The entries of a symmetric form that are not literal zeros, as
    formula strings by slot name."""
    return {k: ex.to_str(v) for k, v in g.components().items()
            if not v.is_zero_literal}


def emit(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report, indent=2, default=str))
        return
    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)):
                    print(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                walk(v, indent)
                if isinstance(v, dict):
                    print()
        else:
            print(f"{pad}{obj}")
    walk(report)


def cmd_ode3(args, cfg: RunConfig) -> tuple:
    F = _parse_formula(args.F, set(J2_3RD.coords))
    ode = ode3.third_order(F, build_box(F, J2_3RD.coords, args.box))
    if args.action == "invariants":
        inv = ode3.ode3_invariants(ode)
        report = {name: ex.to_str(getattr(inv, name))
                  for name in ("K", "A", "G", "L", "N",
                               "C1", "C2", "C3", "C4", "C5")}
        return 0, {"formula": ex.to_str(F), "invariants": report}
    if args.action == "classify":
        rep = ode3.classify3(ode, cfg)
        return 0, {"formula": ex.to_str(F), **rep.to_json()}
    if args.action == "metric":
        comps = _components(ode3.metric_tilde(ode))
        transport = ode3.transport_check(ode, cfg)
        return 0, {"formula": ex.to_str(F), "components": comps,
                   "kernel_field": "d_x + p d_y + q d_p + F d_q",
                   "transport": transport.to_json()}
    if args.action == "nu":
        nu = ode3.nu_tilde(ode)
        closed = ode3.nu_closedness_check(ode, cfg)
        return 0, {"formula": ex.to_str(F), "one_form": nu.to_json(),
                   "lie_transport_closed": closed.to_json()}
    raise CliError(f"unknown ode3 action {args.action!r}")


def cmd_dkp(args, cfg: RunConfig) -> tuple:
    u = _parse_formula(args.u, {"x", "y", "t"})
    bx = equation_box(u, DKP.coords, build_box(u, DKP.coords, args.box))
    if args.action == "residual":
        res = ode3.dkp_residual(u, bx, cfg)
        return (0 if res.verdict.is_zero else 1), \
            {"u": ex.to_str(u), **res.to_json()}
    if args.action == "coframe":
        forms = ode3.dkp_coframe(u, bx, cfg)
        report = {"u": ex.to_str(u),
                  "coframe": [f.to_json() for f in forms]}
        status = 0
        if args.X:
            X = _parse_formula(args.X, {"x", "y", "t", "v"})
            verdict = ode3.dkp_x_membership(u, X, bx, cfg)
            report["x_membership"] = verdict.to_json()
            status = 0 if verdict.is_zero else 1
        return status, report
    raise CliError(f"unknown dkp action {args.action!r}")


def cmd_ode2(args, cfg: RunConfig) -> tuple:
    Q = _parse_formula(args.Q, {"x", "y", "p"})
    ode = ode2.second_order(Q, build_box(Q, J1EXT.coords, args.box))
    if args.action == "metric":
        g = ode2.fefferman_metric(ode)
        sig = signature_at(g, ode.box.sample(random.Random(cfg.seed)),
                           cfg.dps)
        return 0, {"formula": ex.to_str(Q), "components": _components(g),
                   "signature": list(sig)}
    if args.action == "invariants":
        inv = ode2.ode2_invariants(ode)
        return 0, {"formula": ex.to_str(Q),
                   "w1": ex.to_str(inv["w1"]), "w2": ex.to_str(inv["w2"])}
    if args.action == "flatness":
        rep = ode2.fefferman_flatness_check(ode, cfg)
        status = 0 if rep.values["equivalence_holds"] else 1
        return status, {"formula": ex.to_str(Q), **rep.to_json()}
    raise CliError(f"unknown ode2 action {args.action!r}")


def cmd_monge(args, cfg: RunConfig) -> tuple:
    if args.F is None and args.action != "verify-solution":
        raise CliError(f"monge {args.action} needs --F <formula>")
    if args.action == "classify1":
        m = monge.monge_first(_parse_formula(args.F, set(MONGE1.coords)))
        rep = monge.classify_monge1(m, cfg)
        return 0, {"formula": ex.to_str(m.F), **rep.to_json()}
    if args.action == "classify2":
        m = monge.monge_second(_parse_formula(args.F, set(MONGE2.coords)))
        rep = monge.classify_monge2(m, cfg)
        return 0, {"formula": ex.to_str(m.F), **rep.to_json()}
    if args.action == "verify-solution":
        if args.sol is None:
            raise CliError("verify-solution needs --sol <file>")
        try:
            with open(args.sol) as fh:
                data = json.load(fh)
        except OSError as err:
            raise CliError(f"cannot read the solution file: {err}")
        if not (isinstance(data, dict) and {"x", "y", "z"} <= data.keys()):
            raise CliError("the solution file needs x, y and z")
        sol = monge.parametrized_solution(data["x"], data["y"], data["z"])
        order = int(data.get("order", 1))
        eq_text = data.get("equation", args.F)
        if eq_text is None:
            raise CliError("no equation given (solution file or --F)")
        bx = _solution_box(data.get("box", {}))
        eq = monge.monge_first(eq_text) if order == 1 \
            else monge.monge_second(eq_text)
        verdict = monge.verify_parametrized_solution(eq, sol, bx, cfg)
        return (0 if verdict.is_zero else 1), {
            "equation": eq_text, "order": order,
            "verdict": verdict.to_json()}
    if args.action == "g32":
        F = _parse_formula(args.F, set(MONGE2.coords))
        m = monge.monge_second(F, build_box(F, MONGE2.coords, args.box))
        return 0, {"formula": ex.to_str(F),
                   "components": _components(monge.g32_metric(m, cfg))}
    if args.action == "example6":
        F = _parse_formula(args.F, {"q"})
        sub = args.sub
        if sub == "a5":
            return 0, {"formula": ex.to_str(F),
                       "a5": ex.to_str(monge.example6_a5(F))}
        if sub == "einstein":
            _, verdict = monge.einstein_scale_residual(F, cfg=cfg)
            return (0 if verdict.is_zero else 1), {
                "formula": ex.to_str(F), "residual": verdict.to_json()}
        if sub == "weyl-pattern":
            rep = monge.weyl_frame_pattern_check(F, cfg=cfg)
            ok = rep.verdict == "pattern-confirmed"
            return (0 if ok else 1), {"formula": ex.to_str(F),
                                      **rep.to_json()}
        raise CliError(f"unknown example6 action {sub!r}")
    raise CliError(f"unknown monge action {args.action!r}")


def cmd_lie(args, cfg: RunConfig) -> tuple:
    try:
        res = liealg.verify_system(args.system)
    except ValueError as err:
        raise CliError(str(err))
    ok = all(v for k, v in res.items()
             if isinstance(v, bool))
    return (0 if ok else 1), res


def cmd_verify(args, cfg: RunConfig) -> tuple:
    if args.target != "paper":
        raise CliError(f"unknown verification target {args.target!r}")
    only = set(args.only) if args.only else None
    report = verify_catalog(cfg, only=only)
    status = 0 if report["summary"]["failed"] == 0 else 1
    return status, report


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    common.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--box", action="append", default=argparse.SUPPRESS,
                        help="sampling interval sym:lo:hi (repeatable)")
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS)

    ap = argparse.ArgumentParser(
        prog="odegeom",
        description="conformal-geometric invariants of ODEs",
        parents=[common])
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("ode3", parents=[common],
                       help="third-order equation pipeline")
    p.add_argument("action",
                   choices=["invariants", "classify", "metric", "nu"])
    p.add_argument("--F", required=True)

    p = sub.add_parser("dkp", parents=[common],
                       help="dispersionless-KP bridge")
    p.add_argument("action", choices=["residual", "coframe"])
    p.add_argument("--u", required=True)
    p.add_argument("--X")

    p = sub.add_parser("ode2", parents=[common],
                       help="second-order equation pipeline")
    p.add_argument("action", choices=["metric", "invariants", "flatness"])
    p.add_argument("--Q", required=True)

    p = sub.add_parser("monge", parents=[common],
                       help="Monge equations and the (3,2) metric")
    p.add_argument("action", choices=["classify1", "classify2",
                                      "verify-solution", "g32", "example6"])
    p.add_argument("sub", nargs="?",
                   help="example6 action: a5 | einstein | weyl-pattern")
    p.add_argument("--F")
    p.add_argument("--sol", help="JSON file with x, y, z (and equation)")

    p = sub.add_parser("lie", parents=[common],
                       help="exact Lie-algebra verification")
    p.add_argument("verb", choices=["verify"])
    p.add_argument("system",
                   choices=["syspoint", "g2-flat", "conpoint", "caln", "ccg2"])

    p = sub.add_parser("verify", parents=[common],
                       help="run the verification catalog")
    p.add_argument("target")
    p.add_argument("--only", action="append")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command is None:
        ap.print_help()
        return USAGE_ERROR
    for name, default in (("tol", None), ("samples", None), ("seed", None),
                          ("box", None), ("json", False)):
        if not hasattr(args, name):
            setattr(args, name, default)
    cfg = load_config()
    overrides = {}
    for name in ("tol", "samples", "seed"):
        if getattr(args, name, None) is not None:
            overrides[name] = getattr(args, name)
    try:
        cfg = cfg.with_(**overrides)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR

    handlers = {"ode3": cmd_ode3, "dkp": cmd_dkp, "ode2": cmd_ode2,
                "monge": cmd_monge, "lie": cmd_lie, "verify": cmd_verify}
    t0 = time.perf_counter()
    try:
        status, report = handlers[args.command](args, cfg)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except ex.ParseError as err:
        print(f"error: malformed formula: {err}", file=sys.stderr)
        return USAGE_ERROR
    except BoxError as err:
        print(f"error: box violation: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OverflowError, ex.EvalError) as err:
        # OverflowError: a literal derived from the formula, such as a power
        # of a coefficient, would pass expr.MAX_LITERAL_BITS
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    if "config" not in report:
        report["config"] = {"tol": cfg.tol, "samples": cfg.samples,
                            "seed": cfg.seed, "dps": cfg.dps}
    report["elapsed_seconds"] = round(time.perf_counter() - t0, 3)
    emit(report, args.json)
    return status


if __name__ == "__main__":
    sys.exit(main())
