import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odegeom.liealg import (
    Q3, SQRT3, MatrixBasis, StructureConstantTable,
    _check_linear_independence, commutator_closure_check, exterior_square_check, flat_structure_constants,
    induced_bilinear_from_three_form, invariant_bilinear_form,
    invariant_three_form, jacobi_check, killing_analysis, killing_form,
    matrix_rep, nullspace, q3, rref, symmetric_inertia, tables_equal,
    verify_system)


# --- exact field -----------------------------------------------------------

def test_q3_arithmetic():
    s = Q3(0, 1)
    assert s * s == Q3(3)
    assert (Q3(1, 1) * Q3(1, -1)) == Q3(-2)
    x = Q3(Fraction(2, 3), Fraction(-1, 5))
    assert x * x.inverse() == Q3(1)
    assert float(Q3(1, 1)) == pytest.approx(1 + 3 ** 0.5)


def test_q3_exact_sign():
    assert Q3(2, -1).sign() == 1      # 2 - sqrt3 > 0
    assert Q3(-2, 1).sign() == -1     # sqrt3 - 2 < 0
    assert Q3(-1, 1).sign() == 1      # sqrt3 - 1 > 0
    assert Q3(0, 0).sign() == 0


class PairQ3:
    """Reference a + b*sqrt(3) as a pair of Fractions, the representation
    Q3 had before it kept integers over one denominator."""

    def __init__(self, a, b):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return PairQ3(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return PairQ3(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return PairQ3(self.a * o.a + 3 * self.b * o.b,
                      self.a * o.b + self.b * o.a)

    def inverse(self):
        den = self.a * self.a - 3 * self.b * self.b
        return PairQ3(self.a / den, -self.b / den)

    def sign(self):
        # over a common denominator: b sqrt 3 lies strictly between
        # isqrt(3 b^2) and isqrt(3 b^2) + 1 when b != 0
        d = self.a.denominator * self.b.denominator
        a, b = int(self.a * d), int(self.b * d)
        if b < 0:
            a, b = -a, -b
            return -PairQ3(a, b).sign()
        if b == 0:
            return (a > 0) - (a < 0)
        return 1 if a + math.isqrt(3 * b * b) >= 0 else -1

    def __float__(self):
        return float(self.a) + float(self.b) * 3 ** 0.5

    def of(self, q):
        """Whether Q3 q holds this number, in lowest terms over d > 0."""
        return in_lowest_terms([q]) and fields(q) == (self.a, self.b)


def fields(q):
    """The Fraction pair a Q3 stands for."""
    return Fraction(q.a, q.d), Fraction(q.b, q.d)


def in_lowest_terms(values):
    return all(type(q) is Q3 and q.d > 0 and math.gcd(q.a, q.b, q.d) == 1
               for q in values)


big_ints = st.integers(-10 ** 40, 10 ** 40)
fractions = st.one_of(
    st.integers(-9, 9),
    st.fractions(max_denominator=12).filter(lambda f: abs(f) < 50),
    st.builds(Fraction, big_ints, st.integers(1, 10 ** 30)))
pairs = st.tuples(fractions, fractions)


@given(pairs, pairs)
@settings(max_examples=200, deadline=None)
def test_q3_matches_fraction_pair_reference(x, y):
    qx, qy, rx, ry = Q3(*x), Q3(*y), PairQ3(*x), PairQ3(*y)
    assert rx.of(qx) and rx.of(Q3(*fields(qx)))
    assert (rx + ry).of(qx + qy) and (rx - ry).of(qx - qy)
    assert (rx * ry).of(qx * qy)
    assert (PairQ3(y[0], 0) - rx).of(y[0] - qx) and (rx + ry).of(y[0] + qx + Q3(0, y[1]))
    assert qx.sign() == rx.sign() and float(qx) == float(rx)
    if qy.is_zero:
        with pytest.raises(ZeroDivisionError):
            qy.inverse()
    else:
        assert (ry.inverse()).of(qy.inverse())
        assert (rx * ry.inverse()).of(qx / qy)
        # equal values built differently: equal fields and hashes
        back = qx * qy / qy
        assert back == qx and hash(back) == hash(qx)
    zero = qx * Q3(0) + (qy - qy)
    assert zero == Q3(0) and hash(zero) == hash(Q3(0)) and zero.is_zero


@given(big_ints, big_ints, st.integers(1, 10 ** 20))
@settings(max_examples=200, deadline=None)
def test_q3_sign_of_opposite_large_parts(a, b, d):
    a, b = abs(a) + 1, -(abs(b) + 1)
    for x in (Q3(Fraction(a, d), b), Q3(-a, Fraction(-b, d))):
        ref = PairQ3(*fields(x))
        assert x.sign() == ref.sign() and (-x).sign() == -ref.sign()


def test_q3_sign_near_sqrt3():
    # a^2 - 3 b^2 = n for n = 1 and n = -2 (multiplying by 2 + sqrt 3 keeps
    # n): a - b sqrt 3 has the sign of n and a size no float difference
    # resolves
    for (a, b), n in (((2, 1), 1), ((1, 1), -2)):
        for _ in range(60):
            a, b = 2 * a + 3 * b, a + 2 * b
        assert a * a - 3 * b * b == n
        assert float(a) - float(b) * 3 ** 0.5 == 0
        assert Q3(a, -b).sign() == n // abs(n) == -Q3(-a, b).sign()
        assert Q3(Fraction(a, 7), Fraction(-b, 7)).sign() == n // abs(n)
    assert Q3(a + 1, -b).sign() == 1


def test_q3_equal_values_built_differently():
    half = Q3(Fraction(2, 4))
    assert half == Q3(Fraction(1, 2)) == Q3(1) / 2
    assert hash(half) == hash(Q3(Fraction(1, 2))) == hash(Q3(1) / 2)
    assert (half.a, half.b, half.d) == (1, 0, 2)
    cancelled = Q3(Fraction(1, 3), 1) * Q3(0, Fraction(2, 3)) - Q3(2, Fraction(2, 9))
    assert cancelled == Q3(0) and hash(cancelled) == hash(Q3())
    assert (cancelled.a, cancelled.b, cancelled.d) == (0, 0, 1)
    assert Q3(Fraction(-6, 4), Fraction(3, 2)) == Q3(Fraction(-3, 2), Fraction(3, 2))


def test_exact_layer_returns_lowest_terms():
    rng = random.Random(17)
    for rows, cols, rank in ((6, 9, 4), (9, 6, 3), (5, 5, 5)):
        M = [[q / 3 + SQRT3 / 4 * q for q in row]
             for row in rank_deficient(rng, rows, cols, rank)]
        R, _ = rref(M)
        basis = nullspace(M)
        assert in_lowest_terms(v for row in R for v in row)
        assert in_lowest_terms(v for vec in basis for v in vec)
        sparse = [{c: v for c, v in enumerate(row) if not v.is_zero}
                  for row in M]
        assert nullspace([r for r in sparse if r], cols) == basis
    for name in ("syspoint", "sycart-syspp"):
        K = killing_form(flat_structure_constants(name))
        assert in_lowest_terms(v for row in K for v in row)
    for name in ("conpoint", "caln", "ccg2"):
        basis = matrix_rep(name)
        assert in_lowest_terms(v for M in basis.matrices for row in M for v in row)
        K = killing_form(commutator_closure_check(basis)["constants"])
        assert in_lowest_terms(v for row in K for v in row)


def test_symmetric_inertia_basic():
    M = [[q3(2), q3(0)], [q3(0), q3(-5)]]
    assert symmetric_inertia(M) == (1, 1, 0)
    # hyperbolic block with zero diagonal
    M = [[q3(0), q3(1)], [q3(1), q3(0)]]
    assert symmetric_inertia(M) == (1, 1, 0)
    M = [[q3(0), q3(0)], [q3(0), q3(0)]]
    assert symmetric_inertia(M) == (0, 0, 2)


# --- structure constant tables ----------------------------------------------

def test_point_system_read_off():
    t = flat_structure_constants("syspoint")
    assert t.dim == 7
    # d(theta1) contains Omega1 ^ theta1, so c^{theta1}_{Omega1 theta1} = -1
    i, j = t.labels.index("Omega1"), t.labels.index("theta1")
    assert t.bracket_coeff(0, i, j) == Q3(-1)


def test_antisymmetry_by_construction():
    t = flat_structure_constants("sycart-syspp")
    for (k, i, j) in list(t.c):
        assert t.bracket_coeff(k, i, j) == -t.bracket_coeff(k, j, i)


def test_jacobi_both_systems():
    for name in ("syspoint", "sycart-syspp"):
        ok, bad = jacobi_check(flat_structure_constants(name))
        assert ok, bad[:3]


def test_jacobi_negative_control():
    t = flat_structure_constants("syspoint")
    c = dict(t.c)
    key = next(iter(c))
    c[key] = c[key] + Q3(1)
    mutated = StructureConstantTable(t.dim, t.labels, c)
    ok, bad = jacobi_check(mutated)
    assert not ok and bad


def test_d_squared_equivalence_with_jacobi():
    # two independent routes: derivation on the free exterior algebra vs the
    # cyclic structure-constant sum
    for name in ("syspoint", "sycart-syspp"):
        ok_d, _ = exterior_square_check(name)
        ok_j, _ = jacobi_check(flat_structure_constants(name))
        assert ok_d == ok_j == True  # noqa: E712


def test_killing_abelian():
    t = StructureConstantTable(3, ("e1", "e2", "e3"), {})
    assert killing_analysis(t) == {"nondegenerate": False,
                                   "signature": (0, 0, 3)}


def test_killing_14dim_split_signature():
    t = flat_structure_constants("sycart-syspp")
    out = killing_analysis(t)
    assert out["nondegenerate"]
    assert out["signature"] == (8, 6, 0)
    # float cross-check of the exact congruence inertia
    import numpy as np
    K = np.array([[float(v) for v in row] for row in killing_form(t)])
    eigs = np.linalg.eigvalsh(K)
    assert (int((eigs > 1e-9).sum()), int((eigs < -1e-9).sum())) == (8, 6)


def test_killing_point_system_degenerate():
    out = killing_analysis(flat_structure_constants("syspoint"))
    assert not out["nondegenerate"]
    assert out["signature"][2] > 0


# --- matrix representations --------------------------------------------------

def test_matrix_reps_shapes():
    assert matrix_rep("conpoint").size == 5
    assert matrix_rep("conpoint").dim == 7
    assert matrix_rep("caln").size == 8
    assert matrix_rep("caln").dim == 7
    b = matrix_rep("ccg2")
    assert b.size == 7 and b.dim == 14


def test_closure_and_flat_table_match():
    for name, table in (("conpoint", "syspoint"), ("ccg2", "sycart-syspp")):
        basis = matrix_rep(name)
        res = commutator_closure_check(basis)
        assert res["closed"]
        assert tables_equal(res["constants"], flat_structure_constants(table)), name


def test_caln_closure_and_killing():
    basis = matrix_rep("caln")
    res = commutator_closure_check(basis)
    assert res["closed"]
    ok, _ = jacobi_check(res["constants"])
    assert ok
    out = killing_analysis(res["constants"])
    assert not out["nondegenerate"]


def test_conpoint_killing_degenerate():
    res = commutator_closure_check(matrix_rep("conpoint"))
    out = killing_analysis(res["constants"])
    assert not out["nondegenerate"]


# --- invariant forms ------------------------------------------------------------

def so3_basis():
    def skew(i, j):
        M = [[Q3() for _ in range(3)] for _ in range(3)]
        M[i][j] = Q3(1)
        M[j][i] = Q3(-1)
        return M
    return MatrixBasis("so3", ("L1", "L2", "L3"),
                       [skew(0, 1), skew(0, 2), skew(1, 2)])


def test_invariant_bilinear_so3_is_identity():
    out = invariant_bilinear_form(so3_basis())
    assert out["dimension"] == 1
    B = out["forms"][0]["matrix"]
    scale = B[0][0]
    for i in range(3):
        for j in range(3):
            assert B[i][j] == (scale if i == j else Q3())
    assert out["forms"][0]["inertia"] in ((3, 0, 0), (0, 3, 0))


def test_invariant_bilinear_ccg2_signature_4_3():
    out = invariant_bilinear_form(matrix_rep("ccg2"))
    assert out["dimension"] == 1
    assert out["forms"][0]["inertia"] in ((4, 3, 0), (3, 4, 0))


def test_invariant_bilinear_caln_signature_4_4():
    out = invariant_bilinear_form(matrix_rep("caln"))
    assert out["dimension"] >= 1
    assert any(f["inertia"] == (4, 4, 0) for f in out["forms"])


def test_invariant_three_form_exists_and_generic():
    basis = matrix_rep("ccg2")
    res = invariant_three_form(basis)
    assert res["dimension"] == 1
    assert res["induced"] is not None
    inertia = res["induced"]["inertia"]
    assert inertia in ((4, 3, 0), (3, 4, 0))


def test_three_form_induced_proportional_to_bilinear():
    basis = matrix_rep("ccg2")
    Bphi = invariant_three_form(basis)["induced"]["matrix"]
    B = invariant_bilinear_form(basis)["forms"][0]["matrix"]
    ratio = None
    for i in range(7):
        for j in range(7):
            if B[i][j].is_zero:
                assert Bphi[i][j].is_zero
                continue
            r = Bphi[i][j] / B[i][j]
            if ratio is None:
                ratio = r
            assert r == ratio
    assert ratio is not None and not ratio.is_zero


def test_random_basis_has_no_invariant_three_form():
    rng = random.Random(0)
    mats = []
    for _ in range(14):
        mats.append([[q3(rng.randint(-3, 3)) for _ in range(7)]
                     for _ in range(7)])
    basis = MatrixBasis("random", tuple(f"g{i}" for i in range(14)), mats)
    res = invariant_three_form(basis)
    assert res["dimension"] == 0


# --- aggregate entry ----------------------------------------------------------

def test_verify_system_reports():
    out = verify_system("g2-flat")
    assert out["jacobi"] and out["d_squared_zero"]
    assert out["killing"]["signature"] == (8, 6, 0)
    out = verify_system("ccg2")
    assert out["closed"] and out["matches_flat_table"]
    assert out["invariant_bilinear_dimension"] == 1
    assert out["invariant_three_form_dimension"] == 1
    with pytest.raises(ValueError):
        verify_system("nope")


# --- sparse kernels against dense references -------------------------------
#
# The dense loops below are the reference formulas, kept here as oracles.

def dense_jacobi(t):
    n = t.dim
    c = [[[t.bracket_coeff(k, i, j) for j in range(n)] for i in range(n)]
         for k in range(n)]
    bad = []
    for i, j, k in itertools.combinations(range(n), 3):
        for m in range(n):
            total = Q3()
            for l in range(n):
                for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
                    x, y = c[m][a][l], c[l][b][e]
                    if not (x.is_zero or y.is_zero):
                        total = total + x * y
            if not total.is_zero:
                bad.append((i, j, k, m))
    return not bad, bad


def dense_killing(t):
    n = t.dim
    return [[sum((t.bracket_coeff(a, i, b) * t.bracket_coeff(b, j, a)
                  for a in range(n) for b in range(n)), Q3())
             for j in range(n)] for i in range(n)]


def dense_perm_sign(seq):
    order, swaps = list(seq), 0
    for i in range(len(order)):
        m = order.index(min(order[i:]), i)
        if m != i:
            order[i], order[m] = order[m], order[i]
            swaps += 1
    return -1 if swaps % 2 else 1


def dense_induced(phi_vec):
    index = {t: i for i, t in enumerate(itertools.combinations(range(7), 3))}

    def phi(i, j, k):
        if len({i, j, k}) < 3:
            return Q3()
        return phi_vec[index[tuple(sorted((i, j, k)))]] \
            * dense_perm_sign((i, j, k))

    full = set(range(7))
    B = [[Q3() for _ in range(7)] for _ in range(7)]
    for u in range(7):
        for v in range(u, 7):
            total = Q3()
            for ab in itertools.combinations(sorted(full), 2):
                for cd in itertools.combinations(sorted(full - set(ab)), 2):
                    rest = tuple(sorted(full - set(ab) - set(cd)))
                    total = total + (dense_perm_sign(ab + cd + rest)
                                     * phi(u, *ab) * phi(v, *cd) * phi(*rest))
            B[u][v] = B[v][u] = total
    return B


def dense_rref(M):
    M = [row[:] for row in M]
    rows, cols = len(M), len(M[0]) if M else 0
    pivots, r = [], 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not M[i][c].is_zero), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = M[r][c].inverse()
        M[r] = [v * inv for v in M[r]]
        for i in range(rows):
            if i != r and not M[i][c].is_zero:
                f = M[i][c]
                M[i] = [M[i][j] - f * M[r][j] for j in range(cols)]
        pivots.append(c)
        r += 1
    return M, pivots


def mutated(t, rng, count):
    """Copy of t with `count` constants changed, added or removed."""
    c = dict(t.c)
    for _ in range(count):
        fresh = (rng.randrange(t.dim),) + \
            tuple(sorted(rng.sample(range(t.dim), 2)))
        key = rng.choice(sorted(c)) if rng.random() < 0.6 else fresh
        bump = Q3(rng.choice((-1, 1, Fraction(1, 2))), rng.choice((0, 0, 1)))
        if key in c and rng.random() < 0.3:
            del c[key]
        else:
            c[key] = c.get(key, Q3()) + bump
    return StructureConstantTable(t.dim, t.labels, c)


def random_q3(rng):
    return Q3(rng.randint(-3, 3), rng.choice((0, 0, 1, -1, Fraction(1, 2))))


def test_jacobi_matches_dense_on_mutated_tables():
    rng = random.Random(11)
    point = flat_structure_constants("syspoint")
    tables = [mutated(point, rng, count) for count in (1, 2, 3, 5)]
    tables.append(mutated(flat_structure_constants("sycart-syspp"), rng, 2))
    for t in tables:
        ok, bad = jacobi_check(t)
        assert (ok, bad) == dense_jacobi(t)
        assert bad  # each mutation breaks Jacobi somewhere


def test_killing_matches_dense_trace():
    caln = commutator_closure_check(matrix_rep("caln"))["constants"]
    tables = [flat_structure_constants("syspoint"),
              flat_structure_constants("sycart-syspp"), caln,
              mutated(flat_structure_constants("syspoint"),
                      random.Random(3), 3)]
    for t in tables:
        assert killing_form(t) == dense_killing(t)


def test_induced_form_matches_dense_formula():
    phi = invariant_three_form(matrix_rep("ccg2"))["forms"][0]
    assert induced_bilinear_from_three_form(phi) == dense_induced(phi)
    rng = random.Random(7)
    phi = [random_q3(rng) for _ in range(35)]
    assert induced_bilinear_from_three_form(phi) == dense_induced(phi)


# --- nullspace and closure edge cases --------------------------------------

def rank_deficient(rng, rows, cols, rank):
    """A product (rows x rank)(rank x cols) of random Q3 matrices, with a
    zero row and a repeated row appended."""
    A = [[random_q3(rng) for _ in range(rank)] for _ in range(rows)]
    B = [[random_q3(rng) for _ in range(cols)] for _ in range(rank)]
    M = [[sum((A[i][k] * B[k][j] for k in range(rank)), Q3())
          for j in range(cols)] for i in range(rows)]
    return M + [[Q3() for _ in range(cols)], M[0][:]]


def test_nullspace_on_rank_deficient_q3_matrices():
    import numpy as np
    rng = random.Random(2024)
    for rows, cols, rank in ((6, 9, 4), (9, 6, 3), (5, 5, 5), (7, 8, 1)):
        M = rank_deficient(rng, rows, cols, rank)
        basis = nullspace(M)
        R, pivots = rref(M)
        assert (R, pivots) == dense_rref(M)
        assert len(basis) == cols - len(pivots)
        assert len(pivots) == np.linalg.matrix_rank(
            np.array([[float(v) for v in row] for row in M]))
        for v in basis:
            for row in M:
                assert sum((a * b for a, b in zip(row, v)), Q3()).is_zero
        if basis:
            assert len(rref(basis)[1]) == len(basis)


def test_closure_reports_first_failing_pair():
    def unit(i, j):
        M = [[Q3() for _ in range(3)] for _ in range(3)]
        M[i][j] = Q3(1)
        return M
    # [E01, E02] = 0 closes; [E01, E10] = E00 - E11 is the first to escape
    basis = MatrixBasis("open", ("a", "b", "c"),
                        [unit(0, 1), unit(0, 2), unit(1, 0)])
    res = commutator_closure_check(basis)
    assert res == {"closed": False, "failure": (0, 2), "constants": None}


def test_dependent_generators_rejected():
    rng = random.Random(9)
    A, B = ([[random_q3(rng) for _ in range(4)] for _ in range(4)]
            for _ in range(2))
    C = [[a + SQRT3 * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]
    _check_linear_independence(MatrixBasis("free", ("a", "b"), [A, B]))
    with pytest.raises(ValueError, match="dependent"):
        _check_linear_independence(MatrixBasis("dep", ("a", "b", "c"),
                                               [A, B, C]))


def test_closure_on_dependent_generators_uses_earliest_span():
    def m(rows):
        return [[Q3(v) for v in row] for row in rows]
    H, E, F = m([[1, 0], [0, -1]]), m([[0, 1], [0, 0]]), m([[0, 0], [1, 0]])
    # the repeated H adds nothing: coordinates use generators 0, 1 and 3
    res = commutator_closure_check(MatrixBasis("sl2", tuple("abcd"),
                                               [H, E, H, F]))
    assert res["closed"]
    assert sorted(res["constants"].c.items()) == [
        ((0, 1, 3), Q3(1)), ((1, 0, 1), Q3(2)), ((1, 1, 2), Q3(-2)),
        ((3, 0, 3), Q3(-2)), ((3, 2, 3), Q3(-2))]
