"""Exterior calculus on fixed coordinate charts.

Differential forms store coefficients on strictly increasing index tuples.
Symmetric bilinear forms reuse the same expression machinery as a dense
symmetric matrix; products of 1-forms follow the relativity convention
a b = (a (x) b + b (x) a) / 2, so [a]^2 means a (x) a.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import mpmath

from . import expr as ex
from .config import RunConfig
from .zerotest import (DomainBox, ZeroTestVerdict, combined_verdict,
                       equation_box, is_zero_many)


class ChartError(Exception):
    pass


@dataclass(frozen=True)
class Chart:
    name: str
    coords: tuple

    def __post_init__(self):
        if len(set(self.coords)) != len(self.coords):
            raise ChartError("chart coordinates must be distinct")

    @property
    def dim(self):
        return len(self.coords)

    def index(self, name: str) -> int:
        return self.coords.index(name)


J2_3RD = Chart("J2_3rd", ("x", "y", "p", "q"))
J1 = Chart("J1", ("x", "y", "p"))
J1EXT = Chart("J1ext", ("x", "y", "p", "phi"))
MONGE1 = Chart("Monge1", ("x", "y", "p", "z"))
MONGE2 = Chart("Monge2", ("x", "y", "p", "q", "z"))
DKP = Chart("DKP", ("x", "y", "t", "v"))


def _check_same_chart(a, b):
    if a.chart != b.chart:
        raise ChartError(f"chart mismatch: {a.chart.name} vs {b.chart.name}")


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    comps: tuple

    def __post_init__(self):
        if len(self.comps) != self.chart.dim:
            raise ChartError("component count must equal chart dimension")

    def apply(self, f: ex.Expression) -> ex.Expression:
        """Directional derivative of a scalar."""
        return ex.add(*[ex.mul(c, ex.differentiate(f, v))
                        for c, v in zip(self.comps, self.chart.coords)])


class DifferentialForm:
    """Degree-k exterior form; `coeffs` maps increasing index tuples to
    expressions, zero coefficients dropped."""

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart: Chart, degree: int, coeffs: dict):
        if not 0 <= degree <= chart.dim:
            raise ChartError("degree out of range")
        clean = {}
        for idx, c in coeffs.items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ChartError(f"bad index tuple {idx}")
            c = ex.as_expr(c)
            if not c.is_zero_literal:
                clean[idx] = c
        self.chart = chart
        self.degree = degree
        self.coeffs = clean

    def coeff(self, idx) -> ex.Expression:
        return self.coeffs.get(tuple(idx), ex.ZERO)

    def __add__(self, other):
        _check_same_chart(self, other)
        if self.degree != other.degree:
            raise ChartError("degree mismatch in form addition")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = ex.add(out.get(idx, ex.ZERO), c)
        return DifferentialForm(self.chart, self.degree, out)

    def __sub__(self, other):
        return self + other.scaled(ex.MINUS_ONE)

    def scaled(self, s) -> "DifferentialForm":
        s = ex.as_expr(s)
        return DifferentialForm(
            self.chart, self.degree,
            {idx: ex.mul(s, c) for idx, c in self.coeffs.items()})

    def __neg__(self):
        return self.scaled(ex.MINUS_ONE)

    def __str__(self):
        if not self.coeffs:
            return "0"
        names = self.chart.coords
        bits = []
        for idx, c in sorted(self.coeffs.items()):
            basis = "^".join(f"d{names[i]}" for i in idx) or "1"
            bits.append(f"({c}) {basis}")
        return " + ".join(bits)

    __repr__ = __str__

    def to_json(self):
        return {
            "chart": self.chart.name,
            "degree": self.degree,
            "terms": [{"indices": list(idx), "coefficient": ex.to_str(c)}
                      for idx, c in sorted(self.coeffs.items())],
        }


def zero_form(chart: Chart, degree: int) -> DifferentialForm:
    return DifferentialForm(chart, degree, {})


def scalar_form(chart: Chart, f) -> DifferentialForm:
    return DifferentialForm(chart, 0, {(): ex.as_expr(f)})


def d_coord(chart: Chart, name: str) -> DifferentialForm:
    return DifferentialForm(chart, 1, {(chart.index(name),): ex.ONE})


def _insert_index(i: int, idx: tuple):
    """Position and sign for inserting i into an increasing tuple, or None
    when i already occurs."""
    if i in idx:
        return None
    pos = 0
    while pos < len(idx) and idx[pos] < i:
        pos += 1
    return pos, (-1) ** pos


def d(form: DifferentialForm) -> DifferentialForm:
    chart = form.chart
    out: dict = {}
    for idx, c in form.coeffs.items():
        for i, v in enumerate(chart.coords):
            dc = ex.differentiate(c, v)
            if dc.is_zero_literal:
                continue
            ins = _insert_index(i, idx)
            if ins is None:
                continue
            pos, sign = ins
            new_idx = idx[:pos] + (i,) + idx[pos:]
            term = dc if sign > 0 else ex.neg(dc)
            out[new_idx] = ex.add(out.get(new_idx, ex.ZERO), term)
    return DifferentialForm(chart, form.degree + 1, out)


def _perm_sign(seq) -> int:
    """Sign of the permutation that sorts a sequence of distinct items."""
    inversions = sum(a > b for a, b in itertools.combinations(seq, 2))
    return -1 if inversions % 2 else 1


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    _check_same_chart(a, b)
    deg = a.degree + b.degree
    if deg > a.chart.dim:
        return zero_form(a.chart, a.chart.dim)
    out: dict = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            if set(ia) & set(ib):
                continue
            merged = tuple(sorted(ia + ib))
            term = ex.mul(ca, cb)
            if _perm_sign(ia + ib) < 0:
                term = ex.neg(term)
            out[merged] = ex.add(out.get(merged, ex.ZERO), term)
    return DifferentialForm(a.chart, deg, out)


def wedge_all(*forms) -> DifferentialForm:
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


def interior(X: VectorField, form: DifferentialForm) -> DifferentialForm:
    _check_same_chart(X, form)
    if form.degree == 0:
        raise ChartError("interior product needs degree >= 1")
    out: dict = {}
    for idx, c in form.coeffs.items():
        for pos, i in enumerate(idx):
            comp = X.comps[i]
            if comp.is_zero_literal:
                continue
            rest = idx[:pos] + idx[pos + 1:]
            term = ex.mul(comp, c)
            if pos % 2:
                term = ex.neg(term)
            out[rest] = ex.add(out.get(rest, ex.ZERO), term)
    return DifferentialForm(form.chart, form.degree - 1, out)


def lie_derivative_form(X: VectorField, form: DifferentialForm) -> DifferentialForm:
    """Cartan formula i_X d + d i_X (plain X(f) in degree zero)."""
    if form.degree == 0:
        return scalar_form(form.chart, X.apply(form.coeff(())))
    exact_part = d(interior(X, form))
    if form.degree == form.chart.dim:
        return exact_part
    return interior(X, d(form)) + exact_part


def _symmetric(n, component):
    """An n x n symmetric table: component(i, j) built for i <= j only, the
    same node at (j, i)."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = component(i, j)
    return tuple(map(tuple, rows))


class SymmetricForm:
    """Symmetric bilinear form as a dense matrix of expressions; a metric
    carries the box its identities are sampled on."""

    __slots__ = ("chart", "rows", "box")

    def __init__(self, chart: Chart, rows, box: DomainBox | None = None):
        n = chart.dim
        rows = tuple(tuple(ex.as_expr(c) for c in r) for r in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ChartError("matrix shape must match chart dimension")
        for i in range(n):
            for j in range(i):
                if rows[i][j] is not rows[j][i]:
                    raise ChartError("matrix must be structurally symmetric")
        self.chart = chart
        self.rows = rows
        self.box = box

    @property
    def dim(self):
        return self.chart.dim

    def __add__(self, other):
        _check_same_chart(self, other)
        n = self.chart.dim
        return SymmetricForm(self.chart, [
            [ex.add(self.rows[i][j], other.rows[i][j]) for j in range(n)]
            for i in range(n)])

    def __sub__(self, other):
        return self + other.scaled(ex.MINUS_ONE)

    def scaled(self, s) -> "SymmetricForm":
        s = ex.as_expr(s)
        return SymmetricForm(self.chart, _symmetric(
            self.dim, lambda i, j: ex.mul(s, self.rows[i][j])), self.box)

    def components(self) -> dict:
        n = self.chart.dim
        names = self.chart.coords
        return {f"{names[i]}{names[j]}": self.rows[i][j]
                for i in range(n) for j in range(i, n)}

    def __str__(self):
        bits = [f"({c}) d{k[0]}d{k[1:]}" for k, c in self.components().items()
                if not c.is_zero_literal]
        return " + ".join(bits) or "0"

    __repr__ = __str__


def sym_product(a: DifferentialForm, b: DifferentialForm) -> SymmetricForm:
    """Symmetrized product of two 1-forms: (a (x) b + b (x) a)/2."""
    _check_same_chart(a, b)
    if a.degree != 1 or b.degree != 1:
        raise ChartError("symmetric product needs 1-forms")
    return SymmetricForm(a.chart, _symmetric(a.chart.dim, lambda i, j: ex.mul(
        ex.HALF, ex.add(ex.mul(a.coeff((i,)), b.coeff((j,))),
                        ex.mul(a.coeff((j,)), b.coeff((i,)))))))


def sym_square(a: DifferentialForm) -> SymmetricForm:
    return sym_product(a, a)


def lie_derivative_symmetric(X: VectorField, g: SymmetricForm) -> SymmetricForm:
    """(L_X g)_ij = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k."""
    _check_same_chart(X, g)
    chart = g.chart
    n, x = chart.dim, chart.coords

    def component(i, j):
        return ex.add(
            *[ex.mul(X.comps[k], ex.differentiate(g.rows[i][j], x[k]))
              for k in range(n)],
            *[ex.mul(g.rows[k][j], ex.differentiate(X.comps[k], x[i]))
              for k in range(n)],
            *[ex.mul(g.rows[i][k], ex.differentiate(X.comps[k], x[j]))
              for k in range(n)])

    return SymmetricForm(chart, _symmetric(n, component))


def lie_derivative(X: VectorField, T):
    if isinstance(T, DifferentialForm):
        return lie_derivative_form(X, T)
    if isinstance(T, SymmetricForm):
        return lie_derivative_symmetric(X, T)
    raise TypeError("lie_derivative expects a form or a symmetric form")


# ---------------------------------------------------------------------------
# the equation classes and their total-derivative fields

_TOTAL_DERIVATIVE_SLOTS = {
    # class tag -> (chart, fixed components, slot index of the defining f);
    # the chart's coordinates are the symbols the defining f may use
    "3rd-order": (J2_3RD, ("1", "p", "q"), 3),
    "2nd-order": (J1, ("1", "p"), 2),
    "monge1": (MONGE1, ("1", "p", "0"), 3),
    "monge2": (MONGE2, ("1", "p", "q", "0"), 4),
}


def _class_chart(class_tag: str) -> Chart:
    if class_tag not in _TOTAL_DERIVATIVE_SLOTS:
        raise ChartError(f"unknown ODE class {class_tag!r}")
    return _TOTAL_DERIVATIVE_SLOTS[class_tag][0]


@dataclass(frozen=True)
class Equation:
    """An equation of the tagged class with defining function F, the box
    its identities are sampled on, and the parameters F may use besides
    the class chart's coordinates."""
    kind: str
    F: ex.Expression
    box: DomainBox
    params: frozenset = frozenset()

    def __post_init__(self):
        allowed = set(_class_chart(self.kind).coords) | set(self.params)
        stray = ex.free_symbols(self.F) - allowed
        if stray:
            raise ValueError(
                f"defining function uses undeclared symbols {sorted(stray)}")


def equation(kind: str, text_or_expr, box: DomainBox | None = None,
             params=(), margin=1e-3) -> Equation:
    """The equation of class `kind` with defining function F, sampled on
    `equation_box`; a 2nd-order box also covers the fiber coordinate phi
    of the Fefferman metric, on (-1, 1) unless `box` gives it."""
    F = ex.parse(text_or_expr) if isinstance(text_or_expr, str) \
        else ex.as_expr(text_or_expr)
    box = equation_box(F, _class_chart(kind).coords, box, margin)
    if kind == "2nd-order" and "phi" not in box.intervals:
        box = box.with_symbols(phi=(-1.0, 1.0))
    return Equation(kind, F, box, frozenset(params))


def total_derivative(class_tag: str, f) -> VectorField:
    """Vector field along solutions of the tagged ODE class, with the
    defining function in its designated slot."""
    chart = _class_chart(class_tag)
    _, fixed, slot = _TOTAL_DERIVATIVE_SLOTS[class_tag]
    f = ex.as_expr(f)
    coord_names = {"x", "y", "p", "q", "z", "t", "v", "phi"}
    stray = (ex.free_symbols(f) & coord_names) - set(chart.coords)
    if stray:
        raise ChartError(
            f"defining function uses {sorted(stray)}, not {chart.name} coordinates")
    comps = [ex.parse(c) for c in fixed]
    comps.insert(slot, f)
    return VectorField(chart, tuple(comps))


# ---------------------------------------------------------------------------
# conformal transport factor


@dataclass
class TransportResult:
    success: bool
    factor: ex.Expression | None
    pivot: tuple
    verdicts: dict
    worst: ZeroTestVerdict

    def to_json(self):
        return {
            "success": self.success,
            "factor": None if self.factor is None else ex.to_str(self.factor),
            "pivot": list(self.pivot),
            "worst": self.worst.to_json(),
        }


def transport_residuals(X: VectorField, g: SymmetricForm, box: DomainBox,
                        cfg: RunConfig | None = None):
    """The residuals L_X g - lambda g by slot name ("xy" for the slot of x
    and y), and the function that reads their verdicts as a
    `TransportResult`.

    The candidate lambda is the ratio at a pivot slot: the first component
    whose magnitude at the box center exceeds 1e-6 of the largest component
    magnitude there.
    """
    cfg = cfg or RunConfig()
    _check_same_chart(X, g)
    chart = g.chart
    n = chart.dim
    lg = lie_derivative_symmetric(X, g)

    center = {name: (lo + hi) / 2 for name, (lo, hi) in box.intervals.items()}
    keys = [(i, j) for i in range(n) for j in range(i, n)]
    with mpmath.workdps(cfg.dps):
        # one tape, a group per entry; an entry that cannot be evaluated has
        # magnitude 0, and the entries after it go on a tape of their own
        mags = {}
        while len(mags) < len(keys):
            rest = keys[len(mags):]
            groups = ex.Tape(*([g.rows[i][j]] for i, j in rest)).run(center)
            try:
                for k, (v,) in zip(rest, groups):
                    mags[k] = abs(mpmath.mp.make_mpf(v))
            except ex.EvalError:
                mags[keys[len(mags)]] = mpmath.mpf(0)
        scale = max(mags.values())
        if scale == 0:
            raise ChartError("all components of the form vanish at the box center")
        pivot = next(k for k in sorted(mags) if mags[k] > 1e-6 * scale)

    lam = ex.div(lg.rows[pivot[0]][pivot[1]], g.rows[pivot[0]][pivot[1]])
    names = chart.coords
    residuals = {f"{names[i]}{names[j]}":
                 ex.add(lg.rows[i][j], ex.neg(ex.mul(lam, g.rows[i][j])))
                 for i, j in keys}

    def read(verdicts):
        worst = combined_verdict(verdicts, cfg)
        return TransportResult(success=worst.is_zero,
                               factor=lam if worst.is_zero else None,
                               pivot=pivot, verdicts=verdicts, worst=worst)
    return residuals, read


def conformal_transport_factor(X: VectorField, g: SymmetricForm,
                               box: DomainBox, cfg: RunConfig | None = None
                               ) -> TransportResult:
    """Find lambda with L_X g = lambda g, or report the failing residual:
    the `transport_residuals`, zero-tested in one call."""
    residuals, read = transport_residuals(X, g, box, cfg)
    return read(is_zero_many(residuals, box, cfg))
