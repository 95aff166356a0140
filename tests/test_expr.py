import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from odegeom import expr as ex
from odegeom.config import RunConfig
from odegeom.zerotest import DomainBox, box, equation_box, is_zero, unit_box
from odegeom.curvature import tensor_zero_exprs, weyl
from odegeom.ode2 import fefferman_metric, second_order
from odegeom.zerotest import (HEADROOM_RATIO, BoxError, ZeroTestVerdict,
                              auto_guards, is_zero_many)


x, y, p, q = ex.sym("x"), ex.sym("y"), ex.sym("p"), ex.sym("q")


def auto_box(e, ranges=None, default=(-1.0, 1.0)):
    """The box of e: `default` for each of its symbols, `ranges` over that,
    and the guards `equation_box` infers from e."""
    intervals = dict.fromkeys(sorted(ex.free_symbols(e)), default)
    intervals.update(ranges or {})
    return equation_box(e, (), DomainBox(intervals))


def central_diff(e, var, point, h=1e-10, dps=40):
    """Independent derivative oracle: central finite difference at high
    working precision."""
    with mpmath.workdps(dps):
        up = dict(point)
        dn = dict(point)
        up[var] = point[var] + h
        dn[var] = point[var] - h
        return (ex.evaluate(e, up) - ex.evaluate(e, dn)) / (2 * h)


# --- construction and normalization -------------------------------------

def test_hash_consing_gives_identity_equality():
    a = ex.parse("q^2 + x*y")
    b = ex.parse("q^2 + x*y")
    assert a is b


def test_parse_power_tree():
    e = ex.parse("q^2")
    assert e.kind == ex.POW
    assert e.args[0] is q
    assert e.args[1].payload == 2


def test_parse_rational_and_decimal():
    assert ex.parse("3/2").payload == Fraction(3, 2)
    assert ex.parse("0.25").payload == Fraction(1, 4)


def test_constant_folding():
    assert ex.parse("2 + 3*4").payload == 14
    assert ex.parse("2^10").payload == 1024
    assert ex.parse("4^(1/2)").payload == 2
    assert ex.parse("0*q + 1*p") is p


def test_integral_literals_are_int_payloads():
    two = ex.num(2)
    assert two is ex.num(Fraction(2)) is ex.num(Fraction(4, 2))
    assert type(two.payload) is int
    assert ex.parse("4/2") is ex.parse("2") is two
    assert ex.num(2) is not ex.num(2.0)
    assert ex.num(Fraction(1, 2)) is not ex.num(0.5)
    half = ex.pow_(two, ex.num(-1)).payload
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert ex.div(x, two).args[0].payload == Fraction(1, 2)
    assert type(ex.evaluate_exact(ex.num(3), {})) is Fraction


def test_hash_consing_keeps_kinds_and_payloads_apart():
    # add, mul, div and pow share the argument-tuple key, each in the table
    # of its own kind; a num's key tags Fractions and floats
    a, b = ex.sym("hc_a"), ex.sym("hc_b")
    assert ex.num(2) is not ex.num(2.0)
    assert ex.num(Fraction(4, 2)) is ex.num(2)
    assert ex.add(a, b) is not ex.mul(a, b)
    assert ex.div(a, b) is not ex.pow_(a, b)
    assert ex.exp(a) is not ex.log(a)
    assert ex.antideriv(a, "x") is not ex.antideriv(a, "y")
    # nodes hash and compare by identity, so a tuple of nodes is a key
    assert ex.Expression.__eq__ is object.__eq__
    assert ex.Expression.__hash__ is object.__hash__


def test_intern_and_derivative_tables_count_entries():
    a, b = ex.sym("hc_c"), ex.sym("hc_d")
    before = len(ex._intern)
    s = ex.add(a, b)
    assert len(ex._intern) == before + 1
    assert ex.add(a, b) is s and ex.parse("hc_c + hc_d") is s
    assert len(ex._intern) == before + 1
    before = len(ex._dcache)
    ex.differentiate(s, "hc_c")  # s, a and b in one variable
    assert len(ex._dcache) == before + 3
    ex.differentiate(s, "hc_d")
    assert len(ex._dcache) == before + 6
    ex.differentiate(s, "hc_c")
    assert len(ex._dcache) == before + 6


def test_repr_names_a_literal_too_long_to_print():
    big = ex.num(2 ** 4000) * ex.num(2 ** 4000)
    assert repr(big) == "<expression with a literal of 8001 bits>"
    assert repr([big * q]) == "[<expression with a literal of 8001 bits>]"
    assert repr(ex.num(Fraction(3, 7)) * q) == "3/7*q"
    # the text itself is still refused, which the CLI reports as exit 2
    with pytest.raises(OverflowError):
        str(big)
    with pytest.raises(OverflowError):
        ex.to_str(big * q)


def test_repr_of_a_deep_shared_dag_names_its_size():
    # 122 distinct nodes whose expanded tree has about 2^60 of them
    e = x
    for _ in range(60):
        e = e / (1 + e)
    assert repr(e) == "<expression: div, 122 distinct nodes>"
    assert repr([e]) == "[<expression: div, 122 distinct nodes>]"


def test_family_symbols_parse_and_shift():
    w2 = ex.parse("w_2^2")
    d = ex.differentiate(w2, "t")
    assert d is ex.parse("2*w_2*w_3")


def test_antiderivative_node_rules():
    body = ex.parse("w_2^2")
    node = ex.antideriv(body, "t")
    assert ex.differentiate(node, "t") is body
    # differentiation in an unrelated variable passes under the integral sign
    other = ex.differentiate(node, "x")
    assert other.kind == ex.INT and other.args[0].is_zero_literal
    with pytest.raises(ex.AntiderivativeError):
        ex.eval_numeric(node, {"t": 1.0, "w_2": 1.0})


def test_unknown_function_and_identifier_errors():
    with pytest.raises(ex.ParseError):
        ex.parse("foo(x)")
    with pytest.raises(ex.ParseError):
        ex.parse("x + zz", allowed={"x"})
    with pytest.raises(ex.ParseError):
        ex.parse("x + * y")
    # family symbols stay available under a restricted symbol set
    ex.parse("w_3 + x", allowed={"x"})


# --- printing round trip --------------------------------------------------

CATALOG_STRINGS = [
    "q^2",
    "q^(3/2)",
    "(2*q*y - p^2)^(3/2)/y^2",
    "(p*q*(-12 + 3*p*q - 8*sqrt(1 - p*q)) + 8*(1 + sqrt(1 - p*q)))/p^3",
    "alpha*(q^2 + (1 - p^2)^2)^(3/2)/(1 - p^2)^(3/2) - 3*p*q^2/(1 - p^2) - p*(1 - p^2)",
    "sqrt(2*x)",
    "1/3*q^3",
    "exp(q)",
    "q^(5/2)",
    "w_2^2",
    "Int(t^(1/2)*w_2^2, t)",
    "2*t^(3/2)*w_2^2 - 2*t^(1/2)*w_1*w_2 + Int(t^(1/2)*w_2^2, t)",
    "-x + y - 2/27*q^3",
    "log(1 + x^2)",
]


@pytest.mark.parametrize("text", CATALOG_STRINGS)
def test_round_trip(text):
    e = ex.parse(text)
    assert ex.parse(ex.to_str(e)) is e


def test_float_half_exponent_is_not_printed_as_sqrt():
    # only the exact 1/2 prints as sqrt: 0.5 == Fraction(1, 2) would let a
    # float exponent through
    assert ex.to_str(ex.pow_(q, ex.num(0.5))) == "q^0.5"
    assert ex.to_str(ex.pow_(q, ex.num(Fraction(1, 2)))) == "sqrt(q)"
    assert ex.to_str(ex.pow_(q, ex.num(-0.5))) == "q^(-0.5)"


@st.composite
def small_exprs(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from([x, y, p, q, ex.num(2), ex.num(Fraction(1, 3)),
                                     ex.num(-1), ex.num(5)]))
        return leaf
    op = draw(st.sampled_from(["add", "mul", "pow", "div", "exp"]))
    a = draw(small_exprs(depth=depth + 1))
    if op == "add":
        b = draw(small_exprs(depth=depth + 1))
        return ex.add(a, b)
    if op == "mul":
        b = draw(small_exprs(depth=depth + 1))
        return ex.mul(a, b)
    if op == "div":
        b = draw(small_exprs(depth=depth + 1))
        try:
            return ex.div(a, b)
        except ZeroDivisionError:
            return a
    if op == "pow":
        k = draw(st.integers(min_value=0, max_value=3))
        return ex.pow_(a, ex.num(k))
    return ex.exp(ex.mul(ex.num(Fraction(1, 7)), a))


@given(small_exprs())
@settings(max_examples=200, deadline=None)
def test_round_trip_random(e):
    assert ex.parse(ex.to_str(e)) is e


# --- add/mul against the Fraction-seeded reference --------------------------
#
# The reference is the construction the fast path replaced: flatten first,
# then fold numeric payloads into a Fraction(0) sum or a Fraction(1) product.

def reference_add(*terms):
    flat = []
    const = Fraction(0)
    for t in terms:
        t = ex.as_expr(t)
        flat.extend(t.args if t.kind == ex.ADD else (t,))
    rest = []
    for t in flat:
        if t.kind == ex.NUM:
            const = const + t.payload
        else:
            rest.append(t)
    out = [ex.num(const)] if const != 0 else []
    out.extend(rest)
    if not out:
        return ex.ZERO
    return out[0] if len(out) == 1 else ex._node(ex.ADD, None, out)


def reference_mul(*factors):
    flat = []
    coeff = Fraction(1)
    for f in factors:
        f = ex.as_expr(f)
        flat.extend(f.args if f.kind == ex.MUL else (f,))
    rest = []
    for f in flat:
        if f.kind == ex.NUM:
            coeff = coeff * f.payload
        else:
            rest.append(f)
    if coeff == 0:
        return ex.ZERO
    out = [ex.num(coeff)] if coeff != 1 else []
    out.extend(rest)
    if not out:
        return ex.ONE
    return out[0] if len(out) == 1 else ex._node(ex.MUL, None, out)


_PAYLOADS = [0, 1, -1, 2, Fraction(1, 3), Fraction(-3, 2), Fraction(2, 3),
             Fraction(-9, 4), Fraction(3, 2), 0.0, -0.0, 1.0, -1.0, 2.5, -0.5,
             1e-300, float("inf"), float("nan")]


@st.composite
def fold_operands(draw):
    """Expressions, raw numbers and nested sums/products with numeric
    payloads of both types, signed zeros, units and non-finite floats."""
    leaf = st.one_of(st.sampled_from([x, y, p]),
                     st.sampled_from(_PAYLOADS).map(ex.num),
                     st.sampled_from([v for v in _PAYLOADS if v != 0]))
    args = draw(st.lists(leaf, min_size=0, max_size=5))
    kind = draw(st.sampled_from(["leaf", "add", "mul"]))
    if kind == "add":
        return reference_add(*args)
    if kind == "mul":
        return reference_mul(*args)
    return args[0] if args else draw(leaf)


@given(st.lists(fold_operands(), min_size=0, max_size=5))
@settings(max_examples=400, deadline=None)
def test_add_and_mul_match_reference_node_for_node(operands):
    assert ex.add(*operands) is reference_add(*operands)
    assert ex.mul(*operands) is reference_mul(*operands)


def test_rational_coefficients_fold_to_lowest_terms():
    third = ex.num(Fraction(1, 3))
    assert ex.mul(ex.HALF, ex.num(Fraction(2, 3)), x) is ex.mul(third, x)
    assert ex.mul(ex.num(Fraction(2, 3)), ex.num(Fraction(3, 2)), x) is x
    assert ex.add(ex.num(Fraction(2, 3)), third, x) is ex.add(1, x)
    assert ex.add(third, ex.num(Fraction(-1, 3)), x) is x


@pytest.mark.parametrize("payloads", [
    (0.0,), (-0.0,), (1.0,), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0, 2.5),
    (1.0, 1.0), (-1.0, -1.0), (2.5, Fraction(2, 5)), (Fraction(1, 3), 0.5),
    (0, 2.5), (Fraction(0), -0.0), (float("nan"), 1), (float("inf"), 0.0),
])
def test_add_and_mul_fold_edge_payloads_like_reference(payloads):
    for extra in ((), (x,), (x, ex.mul(2, y)), (ex.add(1.0, x),)):
        args = [ex.num(v) for v in payloads] + list(extra)
        for order in (args, args[::-1]):
            assert ex.add(*order) is reference_add(*order)
            assert ex.mul(*order) is reference_mul(*order)


# --- differentiation ------------------------------------------------------

def test_power_rule_fractional():
    d = ex.differentiate(ex.parse("q^(3/2)"), "q")
    assert d is ex.parse("3/2*q^(1/2)")


def test_derivative_vs_finite_difference_catalog():
    fdkp = ex.parse(CATALOG_STRINGS[3])
    d = ex.differentiate(fdkp, "q")
    pt = {"p": 1.0, "q": 0.5}
    got = ex.eval_numeric(d, pt, dps=40)
    want = central_diff(fdkp, "q", pt)
    assert abs(got - want) <= 1e-6 * (1 + abs(want))


ELEMENTARY = [
    ex.parse("sqrt(1 + x^2)"),
    ex.exp(ex.mul(x, y)),
    ex.log(ex.parse("2 + x^2 + y^2")),
    ex.pow_(ex.parse("1 + x^2"), ex.parse("1/3")),
    ex.parse("x^y"),
    ex.div(x, ex.parse("1 + y^2")),
]


@pytest.mark.parametrize("e", ELEMENTARY)
def test_elementary_derivatives_match_finite_differences(e):
    import random
    rng = random.Random(7)
    for _ in range(20):
        pt = {"x": rng.uniform(0.2, 1.5), "y": rng.uniform(0.2, 1.5)}
        for var in ("x", "y"):
            got = ex.eval_numeric(ex.differentiate(e, var), pt, dps=40)
            want = central_diff(e, var, pt)
            assert abs(got - want) <= 1e-6 * (1 + abs(want))


@given(small_exprs(), small_exprs())
@settings(max_examples=60, deadline=None)
def test_leibniz_rule_as_identity(a, b):
    lhs = ex.differentiate(ex.mul(a, b), "x")
    rhs = ex.add(ex.mul(ex.differentiate(a, "x"), b),
                 ex.mul(a, ex.differentiate(b, "x")))
    residual = ex.add(lhs, ex.neg(rhs))
    bx = auto_box(ex.add(residual, x, y, p, q), default=(0.25, 1.25))
    cfg = RunConfig(samples=6, tol=1e-20, dps=40)
    try:
        assert is_zero(residual, bx, cfg).is_zero
    except Exception as err:
        from odegeom.zerotest import BoxError
        if not isinstance(err, BoxError):
            raise


@given(small_exprs(), small_exprs())
@settings(max_examples=60, deadline=None)
def test_derivative_linearity(a, b):
    lhs = ex.differentiate(ex.add(a, ex.mul(ex.num(3), b)), "y")
    rhs = ex.add(ex.differentiate(a, "y"),
                 ex.mul(ex.num(3), ex.differentiate(b, "y")))
    residual = ex.add(lhs, ex.neg(rhs))
    bx = auto_box(ex.add(residual, x, y, p, q), default=(0.25, 1.25))
    cfg = RunConfig(samples=6, tol=1e-20, dps=40)
    try:
        assert is_zero(residual, bx, cfg).is_zero
    except Exception as err:
        from odegeom.zerotest import BoxError
        if not isinstance(err, BoxError):
            raise


# --- substitution ---------------------------------------------------------

def test_substitute_simple():
    e = ex.mul(q, p)
    assert ex.substitute(e, {"q": ex.num(0)}).is_zero_literal


def test_substitute_polynomial_instance():
    t = ex.sym("t")
    e = ex.parse("w_0 + t*w_1 + w_2^2 + w_3")
    out = ex.substitute(e, {"w_0": ex.parse("t^2"), "w_1": ex.parse("2*t"),
                            "w_2": ex.num(2), "w_3": ex.num(0)})
    assert out is ex.parse("4 + t^2 + 2*t*t")
    assert ex.evaluate_exact(out, {"t": 3}) == 31


# --- numeric evaluation ---------------------------------------------------

def test_eval_basic():
    assert ex.eval_numeric(ex.parse("q^(3/2)"), {"q": 4}) == 8


def test_eval_dkp_f_hand_value():
    f = ex.parse(CATALOG_STRINGS[3])
    v = ex.eval_numeric(f, {"p": 1, "q": 0})
    assert abs(v - 16) < 1e-25


def test_eval_domain_errors():
    with pytest.raises(ex.DomainError):
        ex.eval_numeric(ex.sqrt(q), {"q": -1})
    with pytest.raises(ex.DomainError):
        ex.eval_numeric(ex.div(x, y), {"x": 1, "y": 0})
    with pytest.raises(ex.UnboundSymbolError):
        ex.eval_numeric(ex.add(x, y), {"x": 1})


def test_exact_evaluation():
    e = ex.parse("(x + y)^3/(1 + x)")
    v = ex.evaluate_exact(e, {"x": Fraction(1, 2), "y": Fraction(1, 3)})
    assert v == Fraction(1, 2 + 1) * 2 * (Fraction(5, 6)) ** 3


# --- zero testing ---------------------------------------------------------

def test_is_zero_literal():
    v = is_zero(ex.num(0), unit_box(["q"]))
    assert v.is_zero


def test_is_zero_identity_with_radicals():
    e = ex.parse("(sqrt(q))^2 - q")
    v = is_zero(e, box(q=(0.1, 10.0)))
    assert v.is_zero


def test_is_zero_nonzero_witness_reproduces():
    e = ex.parse("-2/27*q^3")
    v = is_zero(e, box(q=(0.5, 2.0)))
    assert not v.is_zero
    again = ex.eval_numeric(e, v.witness_point)
    assert abs(float(again) - v.witness_value) <= 1e-12 * (1 + abs(v.witness_value))


def test_is_zero_seed_deterministic_and_tol_monotone():
    e = ex.parse("q^3*1e-0") if False else ex.parse("q^3")
    e = ex.mul(ex.num(Fraction(1, 10 ** 12)), e)
    bx = box(q=(0.5, 1.0))
    v1 = is_zero(e, bx, seed=3)
    v2 = is_zero(e, bx, seed=3)
    assert v1.max_ratio == v2.max_ratio
    loose = is_zero(e, bx, tol=1e-6)
    tight = is_zero(e, bx, tol=1e-30)
    assert loose.is_zero and not tight.is_zero


def test_box_unusable_error():
    from odegeom.zerotest import BoxError
    e = ex.sqrt(q)
    with pytest.raises(BoxError):
        is_zero(e, box(q=(-10.0, -1.0)))


def test_guard_rejection():
    e = ex.parse("sqrt(1 - p*q) - sqrt(1 - p*q)")
    bx = auto_box(e, ranges={"p": (0.0, 1.5), "q": (0.0, 1.5)})
    # guard keeps 1 - p*q positive even though the raw box allows p*q > 1
    v = is_zero(e, bx)
    assert v.is_zero


# --- evaluation tape against the reference walk ----------------------------
#
# The reference below is the evaluator the tape replaced: a stack walk over
# mpf objects with a node-keyed cache, a recursive exact walk, and the zero
# test built on them.  The tape must reproduce it bit for bit.

def _ref_to_mpf(v):
    if isinstance(v, (int, Fraction)):
        return mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator)
    return mpmath.mpf(v)


def reference_evaluate(e, bindings, cache=None):
    if cache is None:
        cache = {}
    stack = [e]
    while stack:
        n = stack[-1]
        if n in cache:
            stack.pop()
            continue
        k = n.kind
        if k == ex.NUM:
            cache[n] = _ref_to_mpf(n.payload)
            stack.pop()
            continue
        if k in (ex.SYM, ex.FAM):
            nm = ex.name_of(n)
            if nm not in bindings:
                raise ex.UnboundSymbolError(nm)
            cache[n] = _ref_to_mpf(bindings[nm])
            stack.pop()
            continue
        if k == ex.INT:
            raise ex.AntiderivativeError("antiderivative")
        pending = [a for a in n.args if a not in cache]
        if pending:
            stack.extend(pending)
            continue
        vals = [cache[a] for a in n.args]
        if k == ex.ADD:
            acc = vals[0]
            for v in vals[1:]:
                acc = acc + v
        elif k == ex.MUL:
            acc = vals[0]
            for v in vals[1:]:
                acc = acc * v
        elif k == ex.DIV:
            a, b = vals
            if abs(b) < ex.DIV_FLOOR:
                raise ex.DomainError("division by ~0")
            acc = a / b
        elif k == ex.POW:
            b, xv = vals
            en = n.args[1]
            if en.kind == ex.NUM and type(en.payload) is int:
                pw = en.payload
                if b == 0 and pw < 0:
                    raise ex.DomainError("division by ~0")
                acc = b ** pw
            else:
                if b < 0:
                    raise ex.DomainError("negative base")
                if b == 0 and xv <= 0:
                    raise ex.DomainError("0 to a non-positive power")
                acc = mpmath.power(b, xv)
        else:
            (a,) = vals
            if n.payload == "exp":
                acc = mpmath.exp(a)
            else:
                if a <= 0:
                    raise ex.DomainError("log of a non-positive value")
                acc = mpmath.log(a)
        cache[n] = acc
        stack.pop()
    return cache[e]


def reference_exact(e, bindings):
    def go(n):
        k = n.kind
        if k == ex.NUM:
            if not isinstance(n.payload, (int, Fraction)):
                raise ex.EvalError("float literal")
            return Fraction(n.payload)
        if k in (ex.SYM, ex.FAM):
            nm = ex.name_of(n)
            if nm not in bindings:
                raise ex.UnboundSymbolError(nm)
            return Fraction(bindings[nm])
        if k == ex.ADD:
            return sum((go(a) for a in n.args), Fraction(0))
        if k == ex.MUL:
            out = Fraction(1)
            for a in n.args:
                out *= go(a)
            return out
        if k == ex.DIV:
            b = go(n.args[1])
            if b == 0:
                raise ex.DomainError("division by zero")
            return go(n.args[0]) / b
        if k == ex.POW:
            en = n.args[1]
            if not (en.kind == ex.NUM and type(en.payload) is int):
                raise ex.EvalError("non-integer power")
            b = go(n.args[0])
            if b == 0 and en.payload < 0:
                raise ex.DomainError("division by zero")
            return b ** en.payload
        if k == ex.INT:
            raise ex.AntiderivativeError("antiderivative")
        raise ex.EvalError(f"{k} node")
    return go(e)


def reference_is_zero_many(named, bx, cfg, stop=True):
    """The zero test as it was before the tape: guards through mpf
    comparisons, one node cache per point, the scale term by term.  With
    `stop`, once every expression has a ratio above max(tol, HEADROOM_RATIO)
    the remaining points run only the guards; without it every expression
    is evaluated at every point."""
    import random

    def admits(pt):
        for g, margin in bx.positive_guards:
            if reference_evaluate(g, pt) <= margin:
                return False
        for g, margin in bx.nonzero_guards:
            if abs(reference_evaluate(g, pt)) <= margin:
                return False
        return True

    names = list(named)
    worst = {n: (mpmath.mpf(-1), None, None, None) for n in names}
    clear = max(cfg.tol, HEADROOM_RATIO)
    witnessed = False
    rng = random.Random(cfg.seed)
    accepted = attempts = failures = 0
    max_attempts = max(4 * cfg.samples, cfg.samples + 20)
    with mpmath.workdps(cfg.dps):
        while accepted < cfg.samples:
            if attempts >= max_attempts or (
                    failures > attempts / 2 and attempts >= cfg.samples):
                raise BoxError("unusable")
            attempts += 1
            pt = bx.sample(rng)
            cache = {}
            scores = []
            try:
                if not admits(pt):
                    failures += 1
                    continue
                for n in names if not witnessed else ():
                    e = named[n]
                    v = reference_evaluate(e, pt, cache)
                    s = mpmath.mpf(0)
                    for t in (e.args if e.kind == ex.ADD else (e,)):
                        s += abs(reference_evaluate(t, pt, cache))
                    scores.append((n, v, s))
            except ex.EvalError:
                failures += 1
                continue
            accepted += 1
            for n, v, s in scores:
                ratio = abs(v) / (1 + s)
                if ratio > worst[n][0]:
                    worst[n] = (ratio, pt, v, s)
            witnessed = stop and all(w[0] > clear for w in worst.values())
    out = {}
    for n in names:
        ratio, pt, v, s = worst[n]
        zero = ratio <= cfg.tol
        out[n] = (zero, float(ratio), float(s),
                  None if zero else dict(pt), None if zero else float(v))
    return out, attempts, failures


def _outcome(fn, *args):
    """The value, or the class of the error raised."""
    try:
        return fn(*args)
    except ex.EvalError as exc:
        return type(exc)


w1, ups2 = ex.fam("w", 1), ex.fam("Ups", 2)
EVERY_KIND = [
    ex.num(Fraction(-7, 3)),                      # num
    ex.num(0.1),                                  # float literal
    x,                                            # sym
    w1, ups2,                                     # fam
    ex.add(x, y, p, ex.num(Fraction(1, 3))),      # add, folded left to right
    ex.mul(x, y, q, ex.num(Fraction(2, 7))),      # mul
    ex.div(ex.add(x, y), ex.add(q, ex.num(2))),   # div
    ex.pow_(ex.add(x, ex.num(3)), ex.num(5)),     # integer pow
    ex.pow_(q, ex.num(-3)),                       # negative integer pow
    ex.pow_(q, ex.num(Fraction(3, 2))),           # rational pow (sqrt path)
    ex.pow_(q, ex.num(Fraction(2, 3))),           # rational pow
    ex.pow_(q, ex.add(x, ex.num(2))),             # symbolic exponent
    ex.exp(ex.mul(x, y)),                         # exp
    ex.log(ex.add(q, ex.mul(x, x))),              # log
    ex.parse("(x + w_1)^3/(1 + q^2) - exp(y*q)*log(q) + sqrt(q)*Ups_2"),
]
POINTS = [
    {"x": 0.3, "y": -0.7, "p": 0.11, "q": 1.7, "w_1": -0.2, "Ups_2": 2.5},
    {"x": 2, "y": 1, "p": -3, "q": 5, "w_1": 7, "Ups_2": -1},
    {"x": Fraction(1, 3), "y": Fraction(-2, 7), "p": Fraction(5, 2),
     "q": Fraction(9, 4), "w_1": Fraction(1, 9), "Ups_2": Fraction(-3, 5)},
]


@pytest.mark.parametrize("dps", [10, 15, 30, 50])
def test_tape_bit_equal_to_reference_on_every_node_kind(dps):
    with mpmath.workdps(dps):
        for pt in POINTS:
            want = [reference_evaluate(e, pt)._mpf_ for e in EVERY_KIND]
            assert [ex.evaluate(e, pt)._mpf_ for e in EVERY_KIND] == want
            # one tape over every root gives the same values
            got = ex.Tape(EVERY_KIND).values(pt)
            assert [v._mpf_ for v in got] == want


def test_tape_groups_run_in_order_and_stop_early():
    tape = ex.Tape([ex.add(x, y)], [ex.div(x, y), ex.mul(x, y)])
    with mpmath.workdps(30):
        groups = tape.run({"x": 1.5, "y": 0.0})
        (first,) = next(groups)
        assert mpmath.mp.make_mpf(first) == 1.5
        # the second group divides by ~0; it only runs when asked for
        with pytest.raises(ex.DomainError):
            next(groups)


DOMAIN_FAILURES = [
    (ex.pow_(q, ex.num(Fraction(1, 2))), {"q": -1.0}),        # negative base
    (ex.pow_(q, ex.add(x, ex.num(Fraction(1, 2)))), {"q": -2.0, "x": 1.0}),
    (ex.pow_(q, ex.num(Fraction(-1, 2))), {"q": 0.0}),        # 0^(-1/2)
    (ex.pow_(q, ex.sym("x")), {"q": 0.0, "x": 0.0}),          # 0^0, general
    (ex.pow_(q, ex.num(-2)), {"q": 0.0}),                     # 0^(-2)
    (ex.log(q), {"q": 0.0}),                                  # log 0
    (ex.log(q), {"q": -3.0}),                                 # log < 0
    (ex.div(x, y), {"x": 1.0, "y": 0.0}),                     # division by 0
    (ex.div(x, y), {"x": 1.0, "y": 1e-130}),                  # division by ~0
    (ex.add(x, y), {"x": 1.0}),                               # unbound symbol
    (ex.add(x, ex.antideriv(q, "t")), {"x": 1.0, "q": 1.0}),  # Int
]


@pytest.mark.parametrize("e, pt", DOMAIN_FAILURES)
def test_tape_domain_failures_raise_the_reference_class(e, pt):
    with mpmath.workdps(30):
        want = _outcome(reference_evaluate, e, pt)
        assert isinstance(want, type) and issubclass(want, ex.EvalError)
        assert _outcome(ex.evaluate, e, pt) is want
        z = ex.sym("z")
        assert _outcome(lambda: ex.Tape([z, e]).values(dict(pt, z=1.0))) is want


EXACT_POINTS = [{"x": Fraction(1, 2), "y": Fraction(-2, 3), "p": Fraction(3),
                 "q": Fraction(5, 7)},
                {"x": 0, "y": 2, "p": -1, "q": Fraction(1, 4)}]


@given(small_exprs())
@settings(max_examples=200, deadline=None)
def test_exact_backend_matches_reference(e):
    for pt in EXACT_POINTS:
        want = _outcome(reference_exact, e, pt)
        got = _outcome(ex.evaluate_exact, e, pt)
        if isinstance(want, type):
            # with several failing nodes the walks may meet another one first
            assert isinstance(got, type) and issubclass(got, ex.EvalError)
        else:
            assert got == want and type(got) is type(want)


@pytest.mark.parametrize("e", EVERY_KIND + [d for d, _ in DOMAIN_FAILURES])
def test_exact_backend_matches_reference_on_every_node_kind(e):
    for pt in EXACT_POINTS + [{"x": 1, "y": 0, "q": 0, "p": 1, "w_1": 2,
                               "Ups_2": Fraction(1, 2)}]:
        want = _outcome(reference_exact, e, pt)
        got = _outcome(ex.evaluate_exact, e, pt)
        assert got == want
        if isinstance(want, type):
            assert issubclass(want, ex.EvalError)


def _verdict_fields(v: ZeroTestVerdict):
    return (v.is_zero, v.max_ratio, v.scale, v.witness_point, v.witness_value)


def _check_against_reference(named, bx, cfg):
    got = is_zero_many(named, bx, cfg)
    assert list(got) == list(named)
    # the stop at a clear witness changes no verdict of the full test
    full, _, _ = reference_is_zero_many(named, bx, cfg, stop=False)
    assert [v.is_zero for v in got.values()] == [w[0] for w in full.values()]
    # the exact zeros are left out of the sampled pass, and of its stop rule
    sampled = {n: e for n, e in named.items() if got[n].method == "sampled"}
    want, attempts, rejected = reference_is_zero_many(sampled, bx, cfg)
    for n, v in got.items():
        assert (v.attempts, v.rejected) == (attempts, rejected)
        if v.method == "exact":
            # decided modulo a prime: it is a zero of the full test
            assert (v.is_zero, v.samples, v.max_ratio) == (True, 2, 0.0)
            continue
        assert _verdict_fields(v) == want[n]
        assert (v.samples, v.method) == (cfg.samples, "sampled")
    return got


def test_is_zero_many_matches_reference_on_ode2_weyl():
    ode = second_order("p^4")
    named = tensor_zero_exprs(weyl(fefferman_metric(ode)), "W")
    assert named
    cfg = RunConfig(samples=6, seed=11)
    got = _check_against_reference(named, ode.box, cfg)
    assert not all(v.is_zero for v in got.values())
    methods = {v.method for v in got.values()}
    assert methods == {"exact", "sampled"}


def test_is_zero_many_matches_reference_with_guards():
    # sqrt and log need a positive base, 1/(p - q) a nonzero denominator;
    # the box reaches past all three, so points are rejected and resampled
    e = ex.parse("sqrt(1 - p*q)*log(q) + 1/(p - q)")
    pos, nonzero = auto_guards(e, margin=1e-2)
    assert pos and nonzero
    bx = DomainBox({"p": (-0.5, 1.5), "q": (0.0, 1.5)}, pos, nonzero)
    named = {"id": ex.add(e, ex.neg(e)), "e": e,
             "sq": ex.add(ex.pow_(ex.sqrt(ex.parse("1 - p*q")), ex.num(2)),
                          ex.parse("p*q - 1"))}
    got = _check_against_reference(named, bx, RunConfig(samples=12, seed=5))
    # sqrt of a compound base sends the whole call to the sampled path
    assert {v.method for v in got.values()} == {"sampled"}
    assert got["id"].is_zero and got["sq"].is_zero and not got["e"].is_zero
    assert got["e"].rejected > 0
    assert got["e"].attempts == 12 + got["e"].rejected


def test_admits_matches_reference_guards():
    import random
    e = ex.parse("sqrt(1 - p*q) + 1/(p - q)")
    pos, nonzero = auto_guards(e, margin=1e-2)
    bx = DomainBox({"p": (-0.5, 1.5), "q": (0.0, 1.5)}, pos, nonzero)
    rng = random.Random(2)
    seen = set()
    with mpmath.workdps(30):
        for _ in range(40):
            pt = bx.sample(rng)
            want = all(reference_evaluate(g, pt) > m for g, m in pos) and \
                all(abs(reference_evaluate(g, pt)) > m for g, m in nonzero)
            assert bx.admits(pt) == want
            seen.add(want)
    assert seen == {True, False}


def test_structural_zero_is_not_reported_as_sampled():
    v = is_zero(ex.ZERO, unit_box(["q"]), RunConfig(samples=20))
    assert (v.is_zero, v.samples, v.attempts, v.method) == (True, 0, 0, "structural")
    data = v.to_json()
    assert data["method"] == "structural" and data["rejected"] == 0
    sampled = is_zero(q, unit_box(["q"]), RunConfig(samples=7))
    assert (sampled.samples, sampled.attempts, sampled.method) == (7, 7, "sampled")


def test_parser_nesting_limit_is_a_parse_error():
    deep = ex.MAX_NESTING + 5
    with pytest.raises(ex.ParseError):
        ex.parse("(" * deep + "q" + ")" * deep)
    with pytest.raises(ex.ParseError):
        ex.parse("-" * deep + "q")
    shallow = ex.MAX_NESTING - 2
    assert ex.parse("(" * shallow + "q" + ")" * shallow) is q
    # parentheses, signs, ^ chains and function calls each nest one level:
    # 999 of them parse and 1000 fail at the innermost operand
    chains = {"parens": lambda n: "(" * n + "q" + ")" * n,
              "signs": lambda n: "-" * n + "q",
              "powers": lambda n: "q" + "^q" * n,
              "calls": lambda n: "sqrt(" * n + "q" + ")" * n}
    for name, chain in chains.items():
        ex.parse(chain(ex.MAX_NESTING - 1))
        text = chain(ex.MAX_NESTING)
        with pytest.raises(ex.ParseError, match="nesting deeper") as err:
            ex.parse(text)
        assert err.value.pos == text.rindex("q"), name


def test_parser_precedence_matches_the_constructors():
    a, b, c, w2 = ex.sym("a"), ex.sym("b"), ex.sym("c"), ex.sym("w_2")
    table = {
        "-q^2": ex.neg(ex.pow_(q, 2)),
        "-2^2": ex.num(-4),
        "2^-q*y": ex.mul(ex.pow_(ex.num(2), ex.neg(q)), y),
        "q^2^3": ex.pow_(q, 8),
        "a/b*c": ex.mul(ex.div(a, b), c),
        "a-b-c": ex.add(ex.add(a, ex.neg(b)), ex.neg(c)),
        "--q": q,
        "+q": q,
        "a*-b": ex.mul(a, ex.neg(b)),
        "Int(w_2, t)^2": ex.pow_(ex.antideriv(w2, "t"), 2),
    }
    for text, node in table.items():
        assert ex.parse(text) is node, text


def test_literal_division_by_zero_is_a_parse_error_at_its_operator():
    for text, pos in (("1/0", 1), ("q + 0^(-1)", 5), ("q/(1-1)", 1)):
        with pytest.raises(ex.ParseError) as err:
            ex.parse(text)
        assert err.value.pos == pos, text


_DEEP_CHAIN = """
import sys
limit = sys.getrecursionlimit()
import odegeom.cli
from odegeom import expr as ex
from odegeom.zerotest import auto_guards
assert sys.getrecursionlimit() == limit, sys.getrecursionlimit()
y, q = ex.sym("y"), ex.sym("q")
e = q
for _ in range(20000):
    e = ex.add(ex.mul(e, y), q)
assert ex.to_str(e) == "(" * 19999 + "q*y + q" + ")*y + q" * 19999
d = ex.differentiate(e, "y")
s = ex.substitute(d, {"q": ex.num(1)})
assert ex.free_symbols(d) == {"q", "y"} and ex.free_symbols(s) == {"y"}
assert not ex.contains_antiderivative(d)
assert auto_guards(d) == ((), ())
ex.Tape([e, d, s])
# e -> 2 and de/dy -> 4 at y = 1/2, q = 1
assert abs(ex.eval_numeric(e, {"y": 0.5, "q": 1}) - 2) < 1e-20
assert abs(ex.eval_numeric(s, {"y": 0.5}) - 4) < 1e-20
"""


def test_deep_expressions_need_no_recursion_limit():
    # a fresh interpreter keeps its default recursion limit on import, and
    # every walk over a 20,000-deep chain runs within it
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(ex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _DEEP_CHAIN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


_RETAINED_PER_NODE = """
import gc, tracemalloc
from odegeom import expr as ex
from odegeom.curvature import weyl
from odegeom.ode2 import fefferman_metric, second_order
def build(c):
    weyl(fefferman_metric(second_order(f"({c})*p^(5/2)")))
build("3/7")
gc.collect()
tracemalloc.start()
nodes, heap = len(ex._intern), tracemalloc.get_traced_memory()[0]
for c in ("11/13", "17/19", "23/29", "31/37"):
    build(c)
gc.collect()
heap = tracemalloc.get_traced_memory()[0] - heap
print(heap / (len(ex._intern) - nodes))
"""


def test_interned_nodes_retain_no_key_copies():
    # the heap that four Fefferman Weyl builds leave behind, the intern and
    # derivative tables with their nodes, per new node: about 200 bytes when
    # a node's key is its own argument tuple, about 440 with a key that
    # copies the arguments' ids per node
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(ex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _RETAINED_PER_NODE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout) < 260
