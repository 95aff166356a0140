import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from odegeom import expr as ex
from odegeom import monge, ode2, ode3, zerotest
from odegeom.cli import main, parse_box_args, CliError
from odegeom.catalog import CatalogEntry, load_catalog, run_entry, verify_catalog
from odegeom.config import RunConfig, load_config
from odegeom.exterior import equation
from odegeom.zerotest import DomainBox, auto_guards


def run_cli(args, capsys):
    status = main(args)
    out = capsys.readouterr()
    return status, out.out, out.err


def test_classify_einstein_weyl_exit_zero(capsys):
    status, out, _ = run_cli(
        ["ode3", "classify", "--F", "q^(3/2)", "--box", "q:0.1:10", "--json"],
        capsys)
    assert status == 0
    data = json.loads(out)
    assert data["verdict"] == "einstein-weyl"


def test_monge_classify2(capsys):
    status, out, _ = run_cli(["monge", "classify2", "--F", "q^2+y", "--json"],
                             capsys)
    assert status == 0
    assert json.loads(out)["verdict"] == "g2"


def test_formula_strings_reparse(capsys):
    status, out, _ = run_cli(["ode2", "invariants", "--Q", "p^4", "--json"],
                             capsys)
    data = json.loads(out)
    w1 = ex.parse(data["w1"])
    # the echoed string rebuilds the expression actually used
    assert ex.parse(ex.to_str(w1)) is w1


# `odegeom ode3 invariants --F "q^2" --json`: the Cotton fields are built
# on first use, and print as when every field was built at once
QSQ_INVARIANTS = {
    "K": "1/3*q^2 - 1/9*(2*q)^2",
    "A": "q^2*(2/3*q - 8/9*q) - 4/3*q*(1/3*q^2 - 1/9*(2*q)^2)",
    "G": "0",
    "L": "2/3*(1/3*q^2 - 1/9*(2*q)^2) - 2/3*q*(2/3*q - 8/9*q)",
    "N": "2/3*(2/3*(1/3*q^2 - 1/9*(2*q)^2) - 2/3*q*(2/3*q - 8/9*q)) - 4/3*q*"
         "(2/3*(2/3*q - 8/9*q) - 2/3*(2/3*q - 8/9*q) + 4/27*q) - 2/9*"
         "(1/3*q^2 - 1/9*(2*q)^2) - 1/2*(2/3*q - 8/9*q)^2",
    "C1": "0",
    "C2": "0",
    "C3": "4/27",
    "C4": "2/3*(2/3*(2/3*q - 8/9*q) - 2/3*(2/3*q - 8/9*q) + 4/27*q) - 4/3*"
          "(2/3*(2/3*q - 8/9*q) - 2/3*(2/3*q - 8/9*q) + 4/27*q) - 16/81*q - "
          "2/9*(2/3*q - 8/9*q) + 2/9*(2/3*q - 8/9*q)",
    "C5": "2/3*(2/3*(1/3*q^2 - 1/9*(2*q)^2) - 2/3*q*(2/3*q - 8/9*q)) + 3*"
          "(2/3*q - 8/9*q)*(2/3*(2/3*q - 8/9*q) - 2/3*(2/3*q - 8/9*q) + "
          "4/27*q) - 4/9*(1/3*q^2 - 1/9*(2*q)^2) + 2*q*(2/3*(2/3*(2/3*q - "
          "8/9*q) - 2/3*(2/3*q - 8/9*q) + 4/27*q) - 4/3*(2/3*(2/3*q - "
          "8/9*q) - 2/3*(2/3*q - 8/9*q) + 4/27*q) - 16/81*q - 2/9*(2/3*q - "
          "8/9*q) + 2/9*(2/3*q - 8/9*q))",
}


def test_ode3_invariants_of_a_generic_equation(capsys):
    status, out, _ = run_cli(["ode3", "invariants", "--F", "q^2", "--json"],
                             capsys)
    assert status == 0
    data = json.loads(out)
    assert data["formula"] == "q^2"
    assert data["invariants"] == QSQ_INVARIANTS
    assert list(data["invariants"]) == list(QSQ_INVARIANTS)


def test_usage_errors_exit_two(capsys):
    assert run_cli(["ode3", "classify", "--F", "q^("], capsys)[0] == 2
    assert run_cli(["ode3", "classify", "--F", "zz + q"], capsys)[0] == 2
    assert run_cli(["ode3", "classify", "--F", "q", "--box", "bad"],
                   capsys)[0] == 2
    with pytest.raises(SystemExit):
        main(["nonsense", "sub"])
    assert run_cli(["verify", "nonsense"], capsys)[0] == 2


# solution files, each written to a file of its own under its key
ORDER_TWO_SOL = {"x": "t", "y": "t", "z": "t^2", "equation": "q"}
SOLUTIONS = {
    "{no_y}": {"x": "t", "z": "t^2", "equation": "q"},
    "{x_const}": {"x": 1, "y": "t", "z": "t", "equation": "p"},
    "{x_t_minus_t}": {"x": "t - t", "y": "t", "z": "t", "equation": "p"},
    "{order_3}": {**ORDER_TWO_SOL, "order": 3},
    "{order_1.5}": {**ORDER_TWO_SOL, "order": 1.5},
    "{order_two}": {**ORDER_TWO_SOL, "order": "two"},
    "{order_true}": {**ORDER_TWO_SOL, "order": True},
}


# each of these raised a TypeError, a FileNotFoundError, a KeyError or a
# ZeroDivisionError, or ran: a missing --F or --sol, a solution file that is
# not there, lacks y, has an x free of t or an order other than 1 or 2, and
# an infinite sampling interval
@pytest.mark.parametrize("argv, message", [
    (["monge", "classify1"], "needs --F"),
    (["monge", "classify2"], "needs --F"),
    (["monge", "g32"], "needs --F"),
    (["monge", "example6", "a5"], "needs --F"),
    (["monge", "verify-solution"], "needs --sol"),
    (["monge", "verify-solution", "--sol", "{missing}"], "cannot read"),
    (["monge", "verify-solution", "--sol", "{no_y}"], "needs x, y and z"),
    (["monge", "verify-solution", "--sol", "{x_const}"], "dx/dt vanishes"),
    (["monge", "verify-solution", "--sol", "{x_t_minus_t}"], "dx/dt vanishes"),
    *[(["monge", "verify-solution", "--sol", key], '"order" must be 1 or 2')
      for key in ("{order_3}", "{order_1.5}", "{order_two}", "{order_true}")],
    (["monge", "g32", "--F", "q^3", "--box", "q:-inf:1"], "non-finite"),
    (["ode3", "classify", "--F", "q^2", "--box", "q:-inf:1"], "non-finite"),
    (["ode2", "flatness", "--Q", "p^4", "--box", "p:0:inf"], "non-finite"),
], ids=["classify1", "classify2", "g32", "example6-a5", "no-sol",
        "missing-sol", "sol-without-y", "sol-x-constant", "sol-x-t-minus-t",
        "order-3", "order-1.5", "order-string", "order-bool", "g32-inf",
        "ode3-inf", "ode2-inf"])
def test_incomplete_monge_input_and_infinite_box_exit_two(argv, message,
                                                         tmp_path, capsys):
    paths = {"{missing}": str(tmp_path / "missing.json")}
    for i, (key, sol) in enumerate(SOLUTIONS.items()):
        path = paths[key] = tmp_path / f"sol{i}.json"
        path.write_text(json.dumps(sol))
    status, _, err = run_cli([str(paths.get(a, a)) for a in argv], capsys)
    assert status == 2
    assert message in err and "Traceback" not in err


# a "box" that is not an object of two-number intervals ended in a
# TypeError or an AttributeError traceback
@pytest.mark.parametrize("box", [{"t": ["a", "b"]}, [1, 2], {"t": [1]},
                                 {"t": [True, 2]}],
                         ids=["strings", "list", "one-bound", "bool"])
def test_malformed_solution_box_exits_two(box, tmp_path, capsys):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps({"x": "t", "y": "t", "z": "t^2",
                                "equation": "q", "box": box}))
    status, _, err = run_cli(["monge", "verify-solution", "--sol", str(path)],
                             capsys)
    assert status == 2
    assert '"box"' in err and "Traceback" not in err


def test_box_violation_exit_two(capsys):
    status, _, err = run_cli(
        ["ode3", "classify", "--F", "q^(1/2)", "--box", "q:-5:-1"], capsys)
    assert status == 2
    assert "box" in err


def test_lie_verify(capsys):
    status, out, _ = run_cli(["lie", "verify", "syspoint", "--json"], capsys)
    assert status == 0
    data = json.loads(out)
    assert data["jacobi"] is True


def test_dkp_residual_nonzero_exit_one(capsys):
    status, _, _ = run_cli(["dkp", "residual", "--u", "x"], capsys)
    assert status == 1


def test_verify_solution_from_file(tmp_path, capsys):
    sol = {"equation": "p^2", "order": 1,
           "x": "1/2*w_2", "y": "1/2*t*w_2 - 1/2*w_1",
           "z": "1/2*t^2*w_2 - t*w_1 + w_0"}
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(sol))
    status, out, _ = run_cli(
        ["monge", "verify-solution", "--sol", str(path), "--json"], capsys)
    assert status == 0
    assert json.loads(out)["verdict"]["is_zero"] is True


def test_verify_paper_subset_schema(capsys):
    import jsonschema
    from importlib import resources
    status, out, _ = run_cli(
        ["verify", "paper", "--only", "ode3-square", "--only", "monge1-y",
         "--only", "ode3-flat", "--json"], capsys)
    assert status == 0
    report = json.loads(out)
    schema = json.loads(resources.files("odegeom.data")
                        .joinpath("report_schema.json").read_text())
    jsonschema.validate(report, schema)
    assert report["summary"]["failed"] == 0
    # a check that one verdict backs carries its evidence; a class label
    # and a witness string carry none
    by_id = {e["id"]: e["checks"] for e in report["entries"]}
    checks = by_id["ode3-square"]
    evidence = ("method", "max_ratio", "error_bound", "attempts", "rejected")
    assert [checks["wuenschmann"][f] for f in evidence[:1] + evidence[3:]] \
        == ["sampled", 20, 0]
    assert checks["wuenschmann"]["max_ratio"] > 1e-3
    # the Cartan components of F = r^2 are literal zeros: nothing is drawn
    assert [checks["cartan"][f] for f in evidence] \
        == ["structural", 0.0, None, 0, 0]
    transport = by_id["ode3-flat"]["transport"]
    assert transport["method"] == "exact"
    assert transport["error_bound"] < 1e-20
    for key in ("classification", "wuenschmann_witness"):
        assert not set(evidence) & set(checks[key])
    assert not set(evidence) & set(by_id["monge1-y"]["branch"])


def test_exit_code_follows_report_content(capsys, monkeypatch):
    # tighten tolerance absurdly so a true identity is reported as failed;
    # the catalog's ode3 identities are exact zeros, which no tolerance can
    # fail, so every call is sent to the sampled test here
    with monkeypatch.context() as m:
        m.setattr(zerotest, "_exact_zeros", lambda *args: None)
        status, out, _ = run_cli(
            ["verify", "paper", "--only", "ode3-root-family", "--tol", "1e-40",
             "--json"], capsys)
    report = json.loads(out)
    assert (status == 0) == (report["summary"]["failed"] == 0)
    assert status == 1
    # headroom failures are reported distinctly from logical ones
    checks = report["entries"][0]["checks"]
    kinds = {k: c.get("failure_kind") for k, c in checks.items()
             if not c["pass"]}
    assert "numerical-headroom" in kinds.values()
    assert kinds.get("classification") in (None, "logical")
    # q^(3/2) is a fractional power of a bare symbol, and (2qy - p^2)^(3/2)
    # a half-integer power of a positive guard: their identities are exact
    # zeros, which no tolerance can fail
    for entry in ("ode3-pow-3-2", "ode3-root-family"):
        status, out, _ = run_cli(
            ["verify", "paper", "--only", entry, "--tol", "1e-40", "--json"],
            capsys)
        assert status == 0
        assert json.loads(out)["summary"]["failed"] == 0


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(samples=2)
    with pytest.raises(ValueError):
        RunConfig(tol=0)


def test_config_env_file(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"samples": 7, "seed": 3}))
    monkeypatch.setenv("ODEGEOM_CONFIG", str(path))
    cfg = load_config()
    assert cfg.samples == 7 and cfg.seed == 3


def test_every_catalog_entry_has_provenance_tag():
    for entry in load_catalog():
        assert entry.tag in ("asserted", "derived", "trivial"), entry.id


def test_installed_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "odegeom.cli", "monge", "example6", "a5",
         "--F", "q^3/6", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    got = ex.parse(data["a5"])
    want = ex.parse("-56/25*q^(-20/3)")
    from odegeom.zerotest import box, is_zero
    assert is_zero(ex.add(got, ex.neg(want)), box(q=(0.5, 2.0))).is_zero


def test_dkp_coframe_command(capsys):
    status, out, _ = run_cli(
        ["dkp", "coframe", "--u", "sqrt(2*x)",
         "--X", "t + 1/2*v^2 + sqrt(2*x)", "--box", "x:0.3:2", "--json"],
        capsys)
    assert status == 0
    data = json.loads(out)
    assert len(data["coframe"]) == 4
    assert data["x_membership"]["is_zero"] is True
    # serialized coefficients re-parse
    for form in data["coframe"]:
        for term in form["terms"]:
            ex.parse(term["coefficient"])


def test_metric_commands_emit_parseable_components(capsys):
    status, out, _ = run_cli(["ode3", "metric", "--F", "q^2", "--json"],
                             capsys)
    assert status == 0
    for text in json.loads(out)["components"].values():
        ex.parse(text)
    status, out, _ = run_cli(
        ["monge", "g32", "--F", "q^2", "--box", "q:0.5:2", "--json"], capsys)
    assert status == 0
    for text in json.loads(out)["components"].values():
        ex.parse(text)


def test_deeply_nested_formula_exits_two(capsys):
    depth = 20000
    status, _, err = run_cli(
        ["ode3", "invariants", "--F", "(" * depth + "q" + ")" * depth], capsys)
    assert status == 2
    assert "nesting" in err


@pytest.mark.parametrize("formula", ["1/0", "q + 0^(-1)", "q/(1-1)"])
def test_literal_division_by_zero_is_a_malformed_formula(formula, capsys):
    status, _, err = run_cli(["ode3", "classify", "--F", formula], capsys)
    assert status == 2
    assert "malformed formula" in err


@pytest.mark.parametrize("formula", ["2^(10^12)", "q + 2^(-10^12)",
                                     "(1/3)^(10^6)", "(2^4000)^(3/2)"])
def test_huge_literal_power_is_a_malformed_formula(formula, capsys):
    # folding it would take unbounded time and memory
    status, _, err = run_cli(["ode3", "classify", "--F", formula], capsys)
    assert status == 2
    assert "malformed formula" in err and "bits" in err


@pytest.mark.parametrize("formula, message", [
    ("2^4000*2^4000*2^4000*2^4000", "bits"),   # folded by mul
    ("q/2^4000/2^4000", "bits"),               # folded by div and mul
    ("q + 2^4095 + 2^4095", "bits"),           # folded by add
    ("7" * 5000, "digits"),                    # read by the parser
    ("7" * 1234, "bits"),
    ("0." + "0" * 1233 + "1", "digits"),
    ("1." + "0" * 1234, "digits"),
], ids=["mul", "div", "add", "5000-digits", "1234-digits", "decimal",
        "trailing-zeros"])
def test_huge_literal_is_a_malformed_formula(formula, message, capsys):
    # each such literal would pass Python's limit of 4300 digits when
    # printed or read
    status, _, err = run_cli(["ode3", "classify", "--F", formula], capsys)
    assert status == 2
    assert "malformed formula" in err and message in err
    assert "4300" not in err


def test_literals_up_to_the_bound_are_read():
    assert ex.parse("2^4000*q").args[0].payload == 2 ** 4000
    assert ex.parse("7" * 1233).payload == int("7" * 1233)
    big = 2 ** ex.MAX_LITERAL_BITS - 1
    assert ex.parse(f"{big}/{big} + q").args[0].payload == 1
    assert ex.parse("0." + "0" * 1232 + "1").payload == Fraction(1, 10 ** 1233)


def test_huge_derived_literal_is_a_usage_error(capsys):
    # F_q^2 of 2^4001*q is past the bound, which the formula itself is not
    status, _, err = run_cli(
        ["ode3", "classify", "--F", "2^4000*q + 2^4000*q"], capsys)
    assert status == 2
    assert "bits" in err and "Traceback" not in err


def test_derived_literal_too_long_to_print_is_a_usage_error(capsys):
    # the formula parses; the report would print 2^8001, a literal of more
    # than MAX_LITERAL_BITS bits
    status, _, err = run_cli(["ode3", "classify", "--F", "(2^4000*q)^2"],
                             capsys)
    assert status == 2
    assert "bits is not printed" in err
    assert "Exceeds the limit" not in err and "Traceback" not in err
    # every literal that is printed reads back
    largest = ex.num(Fraction(1, 2 ** ex.MAX_LITERAL_BITS - 1))
    assert ex.parse(ex.to_str(largest)) is largest
    for v in (2 ** ex.MAX_LITERAL_BITS, Fraction(1, -2 ** ex.MAX_LITERAL_BITS)):
        with pytest.raises(OverflowError, match="not printed"):
            ex.to_str(ex.num(v))


def test_root_of_a_huge_literal_folds_in_integers(capsys):
    # 10^400 is past the range of a float: the root is found in integers
    status, out, _ = run_cli(
        ["ode3", "classify", "--F", "(10^402)^(1/3)", "--json"], capsys)
    assert status == 0
    assert json.loads(out)["formula"] == str(10 ** 134)
    status, out, _ = run_cli(
        ["ode3", "classify", "--F", "(10^400)^(1/3)", "--json"], capsys)
    assert status == 0
    data = json.loads(out)
    assert data["formula"] == f"{10 ** 400}^(1/3)"
    assert data["verdict"] == "einstein-weyl"


def test_raising_catalog_entry_is_reported(capsys, monkeypatch):
    # one flipped verdict of the dKP consistency check of dkp-sqrt makes it
    # raise; the entry is reported as failed and the other entry still runs
    import jsonschema
    from importlib import resources
    real = ode3.is_zero_many
    flipped = []

    def one_nonzero(named, bx, cfg=None):
        out = real(named, bx, cfg)
        if "second_plus_scalar" in out:
            flipped.append(named)
            out["second_plus_scalar"] = dataclasses.replace(
                out["second_plus_scalar"], is_zero=False)
        return out

    monkeypatch.setattr(ode3, "is_zero_many", one_nonzero)
    status, out, _ = run_cli(
        ["verify", "paper", "--json", "--only", "dkp-sqrt", "--only",
         "ode3-flat"], capsys)
    assert flipped
    assert status == 1
    report = json.loads(out)
    schema = json.loads(resources.files("odegeom.data")
                        .joinpath("report_schema.json").read_text())
    jsonschema.validate(report, schema)
    entries = {e["id"]: e for e in report["entries"]}
    assert sorted(entries) == ["dkp-sqrt", "ode3-flat"]
    bad = entries["dkp-sqrt"]
    assert not bad["pass"]
    assert bad["error"].startswith("DkpConsistencyError: ")
    assert bad["checks"] and all(
        (c["got"], c["pass"], c["failure_kind"]) == (None, False, "error")
        for c in bad["checks"].values())
    assert "error" not in entries["ode3-flat"]
    assert entries["ode3-flat"]["pass"]


@pytest.mark.parametrize("args, exact", [
    (["ode2", "flatness", "--Q", "p^4"], False),
    (["ode2", "flatness", "--Q", "p^3"], True),
    (["ode3", "classify", "--F", "q^(3/2)"], True),
    (["ode3", "classify", "--F", "q^2 + sqrt(1 + q^2)"], False),
])
def test_cli_verdicts_match_schema(args, exact, capsys):
    import jsonschema
    from importlib import resources
    schema = json.loads(resources.files("odegeom.data")
                        .joinpath("report_schema.json").read_text())
    verdict_schema = {"$ref": "#/definitions/verdict",
                      "definitions": schema["definitions"]}
    status, out, _ = run_cli(args + ["--json"], capsys)
    assert status == 0
    checks = json.loads(out)["checks"]
    for v in checks.values():
        jsonschema.validate(v, verdict_schema)
    assert any(v["method"] == "exact" for v in checks.values()) == exact
    bad = dict(next(iter(checks.values())), method="exact", error_bound=None)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, verdict_schema)


class _Captured(Exception):
    pass


# per class: catalog kind, CLI arguments, the pipelines they call (the
# CLI's first), and a formula with one positive and one nonzero guard
GUARDED = {
    "3rd-order": ("ode3", ["ode3", "classify", "--F"],
                  (ode3, "classify3", "ode3_checks"), "q^(3/2)/y"),
    "2nd-order": ("ode2", ["ode2", "flatness", "--Q"],
                  (ode2, "fefferman_flatness_check"), "p^(3/2)/y"),
    "monge1": ("monge1", ["monge", "classify1", "--F"],
               (monge, "classify_monge1"), "p^(3/2)/y"),
    "monge2": ("monge2", ["monge", "classify2", "--F"],
               (monge, "classify_monge2"), "q^(3/2)/y"),
}


@pytest.mark.parametrize("kind", sorted(GUARDED))
def test_equation_boxes_hold_each_guard_once(kind, monkeypatch):
    catalog_kind, args, (module, *pipelines), formula = GUARDED[kind]
    want = auto_guards(ex.parse(formula))
    assert all(len(g) == 1 for g in want)
    captured = []

    def capture(eq, cfg=None):
        captured.append(eq.box)
        raise _Captured

    for pipeline in pipelines:
        monkeypatch.setattr(module, pipeline, capture)
    with pytest.raises(_Captured):
        main(args + [formula])
    entry = CatalogEntry("guards", catalog_kind,
                         {"formula": formula, "tag": "trivial"})
    with pytest.raises(_Captured):
        run_entry(entry, RunConfig())
    boxes = dict(zip(("cli", "catalog"), captured))
    boxes["equation"] = equation(kind, formula).box
    boxes["equation with a box"] = equation(
        kind, formula, DomainBox({"p": (0.5, 2.0), "q": (0.5, 2.0)})).box
    for source, bx in boxes.items():
        assert (bx.positive_guards, bx.nonzero_guards) == want, source


def _alpha_family(values, wuenschmann):
    return CatalogEntry("alpha-family", "ode3", {
        "formula": "(alpha - 1)*(alpha - 2)*q^2",
        "params": {"alpha": values},
        "expect": {"wuenschmann": wuenschmann}, "tag": "derived"})


def test_catalog_parameter_is_sampled_on_its_interval(monkeypatch):
    # A vanishes at the listed values alpha = 1 and 2 but not between them
    result = run_entry(_alpha_family([1.0, 2.0], False), RunConfig())
    assert result["checks"]["wuenschmann"]["got"] is False
    assert result["pass"]
    boxes = []
    checks = ode3.ode3_checks
    monkeypatch.setattr(ode3, "ode3_checks",
                        lambda ode, cfg: boxes.append(ode.box)
                        or checks(ode, cfg))
    result = run_entry(_alpha_family([1.0], True), RunConfig())
    assert result["checks"]["wuenschmann"]["got"] is True
    assert [bx.intervals["alpha"] for bx in boxes] == [(1.0, 1.0)]
