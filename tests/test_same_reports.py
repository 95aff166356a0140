"""scripts/same_reports.py compares the stream's verdicts formula by
formula."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_reports.py"


def load_same_reports():
    spec = importlib.util.spec_from_file_location("same_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(text, max_ratio=0.5, witness_x=0.25):
    verdict = {"is_zero": False, "method": "sampled", "samples": 20,
               "attempts": 20, "rejected": 0, "max_ratio": max_ratio,
               "label": "W0101", "witness_point": {"x": witness_x}}
    return {"text": text, "checks": {"w1": verdict, "weyl": dict(verdict)}}


def test_stream_difference_names_the_formula_and_the_field():
    sr = load_same_reports()
    a = [record("(1/2)*p^(4)"), record("(3)*p^(5/2)")]
    assert sr.stream_difference(a, [record("(1/2)*p^(4)"),
                                    record("(3)*p^(5/2)")]) is None
    b = [record("(1/2)*p^(4)"), record("(3)*p^(5/2)", witness_x=0.75)]
    assert sr.stream_difference(a, b) == \
        "(3)*p^(5/2) at $.checks.w1.witness_point.x"
    # 1 and 1.0 are different verdict fields
    b = [record("(1/2)*p^(4)", max_ratio=1), record("(3)*p^(5/2)")]
    a[0]["checks"]["w1"]["max_ratio"] = 1.0
    assert sr.stream_difference(a, b) == \
        "(1/2)*p^(4) at $.checks.w1.max_ratio"
    # an error's class against verdicts, and a missing formula
    err = {"text": "(-1)*q^(5/2)", "error": "BoxError"}
    assert sr.stream_difference([err], [{**err, "error": "EvalError"}]) == \
        "(-1)*q^(5/2) at $.error"
    assert sr.stream_difference([err], [record("(-1)*q^(5/2)")]) == \
        "(-1)*q^(5/2) at $.error"
    assert sr.stream_difference([err], []) == "the number of formulas"


def test_stream_operations_are_the_first_pass_with_their_boxes():
    sr = load_same_reports()
    ops = sr.stream_operations()
    assert len(ops) == 192
    assert {op["family"] for op in ops} == {"ode3", "ode2", "monge"}
    assert all(set(op["box"]) >= {"x", "y", "p"} for op in ops)
