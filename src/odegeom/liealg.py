"""Exact algebraic verification of the flat coframe systems and the three
matrix connections: structure constants, Jacobi, Killing inertia, commutator
closure, invariant bilinear forms, and the stabilized 3-form in dimension 7.

All arithmetic is exact over Q(sqrt 3) (the 7x7 connection carries sqrt-3
entries), on Python ints: a `Q3` is (a + b sqrt 3)/d in lowest terms.
Floating point appears only as a cross-check on inertia computations, which
are themselves done by exact congruence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exterior import _perm_sign


class Q3:
    """(a + b*sqrt(3))/d with ints a, b, d, d > 0 and gcd(a, b, d) = 1, so
    equal numbers have equal fields.  Takes int or Fraction a, b (or, from
    the arithmetic, int a, b over an int d, reduced here by one gcd)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=1):
        if type(a) is not int or type(b) is not int:
            a, b = Fraction(a), Fraction(b)
            a, b, d = (a.numerator * b.denominator, b.numerator * a.denominator,
                       a.denominator * b.denominator)
        if d != 1:
            g = math.gcd(a, b, d) if d > 0 else -math.gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        self.a, self.b, self.d = a, b, d

    def __repr__(self):
        a, b = Fraction(self.a, self.d), Fraction(self.b, self.d)
        return f"({a} + {b}*sqrt3)" if b else str(a)

    def __eq__(self, other):
        other = q3(other)
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __add__(self, other):
        o = other if type(other) is Q3 else Q3(other)
        d, e = self.d, o.d
        if d == e:
            return Q3(self.a + o.a, self.b + o.b, d)
        return Q3(self.a * e + o.a * d, self.b * e + o.b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return Q3(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-q3(other))

    def __rsub__(self, other):
        return q3(other) + (-self)

    def __mul__(self, other):
        o = other if type(other) is Q3 else Q3(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        return Q3(a * c + 3 * b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def inverse(self):
        a, b, d = self.a, self.b, self.d
        den = a * a - 3 * b * b
        if den == 0:  # only at zero, sqrt 3 being irrational
            raise ZeroDivisionError("inverse of zero")
        return Q3(d * a, -d * b, den)

    def __truediv__(self, other):
        return self * q3(other).inverse()

    def __rtruediv__(self, other):
        return q3(other) * self.inverse()

    @property
    def is_zero(self):
        return not self.a and not self.b

    def sign(self):
        """Exact sign: that of b when a and b have opposite signs and
        3 b^2 > a^2, or when a is 0; else that of a."""
        a, b = self.a, self.b
        if not a or a * b < 0 and 3 * b * b > a * a:
            a = b
        return (a > 0) - (a < 0)

    def __float__(self):
        return self.a / self.d + self.b / self.d * 3 ** 0.5


def q3(v) -> Q3:
    return v if isinstance(v, Q3) else Q3(v)


SQRT3 = Q3(0, 1)
INV_SQRT3 = Q3(0, Fraction(1, 3))  # 1/sqrt(3) = sqrt(3)/3


# ---------------------------------------------------------------------------
# exact sparse linear algebra over Q3
#
# A sparse vector is a dict {column: nonzero Q3}; a sparse matrix is a dict
# {row: sparse vector} without empty rows.


def _sparse_matrix(A):
    rows = ({c: v for c, v in enumerate(row) if not v.is_zero} for row in A)
    return {r: row for r, row in enumerate(rows) if row}


def _add_scaled(acc, f, vec):
    """acc += f * vec in place, f nonzero; entries that cancel are dropped."""
    for c, v in vec.items():
        x = acc[c] + f * v if c in acc else f * v
        if x.is_zero:
            del acc[c]
        else:
            acc[c] = x


def _sparse_commutator(A, B):
    """AB - BA of two sparse matrices, as {(row, col): nonzero value}."""
    out = {}
    for X, Y, negate in ((A, B, False), (B, A, True)):
        for r, row in X.items():
            for k, x in row.items():
                if k in Y:
                    _add_scaled(out, -x if negate else x,
                                {(r, c): y for c, y in Y[k].items()})
    return out


def _reduce(basis, vec):
    """Clear every pivot of a reduced echelon basis from vec, in place."""
    for p in [p for p in vec if p in basis]:
        _add_scaled(vec, -vec[p], basis[p])


def _rref_rows(rows, cols):
    """Reduced echelon basis {pivot: row} of the span of sparse rows, grown
    one row at a time.  Each row is 1 at its pivot, its leading column, and
    no row touches another's pivot, so the basis is the unique RREF."""
    basis = {}
    for row in rows:
        _reduce(basis, row)
        if not row:
            continue
        q = min(row)
        inv = row[q].inverse()
        row = {c: v * inv for c, v in row.items()}
        for other in basis.values():
            if q in other:
                _add_scaled(other, -other[q], row)
        basis[q] = row
        if len(basis) == cols:
            break
    return basis


def rref(M):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    cols = len(M[0]) if M else 0
    basis = _rref_rows(_sparse_matrix(M).values(), cols)
    pivots = sorted(basis)
    R = [[basis[p].get(c, Q3()) for c in range(cols)] for p in pivots]
    return R + [[Q3() for _ in range(cols)] for _ in M[len(R):]], pivots


def nullspace(M, cols=None):
    """Basis of the right nullspace (list of Q3 vectors) of dense rows M, or
    of sparse rows {column: nonzero Q3} over `cols` columns (consumed)."""
    if cols is None:
        if not M:
            return []
        cols = len(M[0])
        M = _sparse_matrix(M).values()
    basis = _rref_rows(M, cols)
    out = []
    for fc in (c for c in range(cols) if c not in basis):
        v = [Q3() for _ in range(cols)]
        v[fc] = Q3(1)
        for p, row in basis.items():
            if fc in row:
                v[p] = -row[fc]
        out.append(v)
    return out


def symmetric_inertia(M):
    """Exact inertia (pos, neg, zero) of a symmetric Q3 matrix by congruence
    reduction (Sylvester's law)."""
    n = len(M)
    M = [row[:] for row in M]
    pos = neg = zero = 0
    idx = list(range(n))
    while idx:
        # prefer a nonzero diagonal pivot
        pivot = next((i for i in idx if not M[i][i].is_zero), None)
        if pivot is None:
            off = next(((i, j) for i in idx for j in idx
                        if i < j and not M[i][j].is_zero), None)
            if off is None:
                zero += len(idx)
                break
            i, j = off
            # hyperbolic pair: x_i -> x_i + x_j turns the block definite
            for k in range(n):
                M[i][k] = M[i][k] + M[j][k]
            for k in range(n):
                M[k][i] = M[k][i] + M[k][j]
            pivot = i
        d = M[pivot][pivot]
        (pos, neg) = (pos + 1, neg) if d.sign() > 0 else (pos, neg + 1)
        idx.remove(pivot)
        for i in idx:
            if M[i][pivot].is_zero:
                continue
            f = M[i][pivot] / d
            for k in range(n):
                M[i][k] = M[i][k] - f * M[pivot][k]
            for k in range(n):
                M[k][i] = M[k][i] - f * M[k][pivot]
    return pos, neg, zero


# ---------------------------------------------------------------------------
# structure constant tables


@dataclass
class StructureConstantTable:
    """c[k][(i, j)] with i < j; antisymmetry in (i, j) is implicit."""
    dim: int
    labels: tuple
    c: dict  # (k, i, j) -> Q3, stored for i < j only

    def bracket_coeff(self, k, i, j) -> Q3:
        if i == j:
            return Q3()
        if i < j:
            return self.c.get((k, i, j), Q3())
        return -self.c.get((k, j, i), Q3())

    def items(self):
        return self.c.items()


# Flat structure equations, written as d(gen_k) = sum coeff * gen_i ^ gen_j.
# Generators are listed first; each row of the table is
# (k, [(coeff, i, j), ...]) with indices into the generator list.

_POINT_LABELS = ("theta1", "theta2", "theta3", "theta4",
                 "Omega1", "Omega2", "Omega3")
_POINT_SYSTEM = {
    0: [(1, 4, 0), (1, 3, 1)],
    1: [(1, 5, 1), (1, 6, 0), (1, 3, 2)],
    2: [(2, 5, 2), (-1, 4, 2), (1, 6, 1)],
    3: [(1, 4, 3), (-1, 5, 3)],
    4: [(-1, 6, 3)],
    5: [],
    6: [(1, 5, 6), (-1, 4, 6)],
}

_G2_LABELS = ("theta1", "theta2", "theta3", "theta4", "theta5",
              "Omega1", "Omega2", "Omega3", "Omega4", "Omega5",
              "Omega6", "Omega7", "Omega8", "Omega9")
_F43 = Fraction(4, 3)
_F13 = Fraction(1, 3)
_F23 = Fraction(2, 3)
_G2_SYSTEM = {
    0: [(2, 0, 5), (1, 0, 8), (1, 1, 6), (1, 2, 3)],
    1: [(1, 0, 7), (1, 1, 5), (2, 1, 8), (1, 2, 4)],
    2: [(1, 0, 9), (1, 1, 10), (1, 2, 5), (1, 2, 8), (1, 3, 4)],
    3: [(1, 0, 11), (_F43, 2, 10), (1, 3, 5), (1, 4, 6)],
    4: [(1, 1, 11), (-_F43, 2, 9), (1, 3, 7), (1, 4, 8)],
    5: [(1, 7, 6), (_F13, 2, 11), (-_F23, 3, 9), (_F13, 4, 10), (1, 0, 12)],
    6: [(1, 6, 5), (-1, 6, 8), (-1, 3, 10), (1, 0, 13)],
    7: [(1, 7, 8), (-1, 7, 5), (-1, 4, 9), (1, 1, 12)],
    8: [(1, 6, 7), (_F13, 2, 11), (_F13, 3, 9), (-_F23, 4, 10), (1, 1, 13)],
    9: [(1, 5, 9), (1, 7, 10), (-1, 4, 11), (1, 2, 12)],
    10: [(1, 6, 9), (1, 8, 10), (1, 3, 11), (1, 2, 13)],
    11: [(_F43, 9, 10), (1, 5, 11), (1, 8, 11), (1, 3, 12), (1, 4, 13)],
    12: [(1, 9, 11), (2, 5, 12), (1, 8, 12), (1, 7, 13)],
    13: [(1, 10, 11), (1, 5, 13), (2, 8, 13), (1, 6, 12)],
}

_SYSTEMS = {
    "syspoint": (_POINT_LABELS, _POINT_SYSTEM),
    "sycart-syspp": (_G2_LABELS, _G2_SYSTEM),
}


def _two_form_of(system, k, dim):
    """dict (i<j) -> Q3 coefficient of gen_i ^ gen_j in d(gen_k)."""
    out = {}
    for coeff, i, j in system[k]:
        if i < j:
            key, val = (i, j), q3(coeff)
        else:
            key, val = (j, i), -q3(coeff)
        out[key] = out.get(key, Q3()) + val
    return {k2: v for k2, v in out.items() if not v.is_zero}


def flat_structure_constants(system_name: str) -> StructureConstantTable:
    """Read the bracket constants off d(gen_k) = sum f^k_ij gen_i ^ gen_j,
    using d(gen_k) = -(1/2) c^k_ij gen_i ^ gen_j, i.e. c^k_ij = -f^k_ij."""
    labels, system = _SYSTEMS[system_name]
    dim = len(labels)
    c = {}
    for k in range(dim):
        for (i, j), f in _two_form_of(system, k, dim).items():
            c[(k, i, j)] = -f
    return StructureConstantTable(dim, labels, c)


def _ad_maps(t: StructureConstantTable):
    """ad[i][j] = {k: c^k_ij} over the nonzero brackets [e_i, e_j]."""
    ad = [{} for _ in range(t.dim)]
    for (k, i, j), v in t.items():
        if i < j and not v.is_zero:
            ad[i].setdefault(j, {})[k] = v
            ad[j].setdefault(i, {})[k] = -v
    return ad


def jacobi_check(t: StructureConstantTable):
    """Exact cyclic Jacobi sum; returns (ok, violations)."""
    ad = _ad_maps(t)
    bad = []
    for i, j, k in itertools.combinations(range(t.dim), 3):
        total: dict = {}
        # sum_l c^m_al c^l_bc over the cyclic orders (a, b, c) of (i, j, k)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, x in ad[b].get(c, {}).items():
                if l in ad[a]:
                    _add_scaled(total, x, ad[a][l])
        bad.extend((i, j, k, m) for m in sorted(total))
    return not bad, bad


def killing_form(t: StructureConstantTable):
    """K_ij = trace(ad_i ad_j) = sum_ab c^a_ib c^b_ja."""
    n = t.dim
    ad = _ad_maps(t)
    K = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            total = Q3()
            for b, col in ad[i].items():
                for a, x in col.items():
                    y = ad[j].get(a, {}).get(b)
                    if y is not None:
                        total = total + x * y
            K[i][j] = K[j][i] = total
    return K


def killing_analysis(t: StructureConstantTable) -> dict:
    K = killing_form(t)
    pos, neg, zero = symmetric_inertia(K)
    return {"nondegenerate": zero == 0, "signature": (pos, neg, zero)}


def exterior_square_check(system_name: str):
    """Second, independent route to Jacobi: apply the structure equations
    twice, as a derivation on the free exterior algebra of the generators,
    and check that every d(d(gen_k)) collapses to zero."""
    labels, system = _SYSTEMS[system_name]
    n = len(labels)
    d1 = {k: _two_form_of(system, k, n) for k in range(n)}
    bad = []
    for k in range(n):
        acc: dict = {}
        for (i, j), f in d1[k].items():
            # d(f e_i ^ e_j) = f (de_i ^ e_j - e_i ^ de_j)
            for (a, b), g in d1[i].items():
                _add_three_form(acc, (a, b, j), f * g)
            for (a, b), g in d1[j].items():
                _add_three_form(acc, (a, b, i), -(f * g))
        if any(not v.is_zero for v in acc.values()):
            bad.append((k, {kk: vv for kk, vv in acc.items()
                            if not vv.is_zero}))
    return not bad, bad


def _add_three_form(acc, idx, coeff):
    if len(set(idx)) < 3:
        return
    key = tuple(sorted(idx))
    acc[key] = acc.get(key, Q3()) + (coeff if _perm_sign(idx) > 0 else -coeff)


# ---------------------------------------------------------------------------
# matrix connections


def _entry(*terms):
    """terms: (coeff, generator index); coeff exact (int/Fraction/Q3)."""
    return tuple((q3(c), g) for c, g in terms)


_S = INV_SQRT3          # 1/sqrt(3)
_U = SQRT3 * Fraction(2, 3)  # 2/sqrt(3)

# 5x5 connection of the point system: generators _POINT_LABELS
_CONPOINT = {
    (0, 0): _entry((1, 5)),
    (1, 0): _entry((1, 0)), (1, 1): _entry((1, 5), (-1, 4)),
    (1, 2): _entry((-1, 3)),
    (2, 0): _entry((1, 1)), (2, 1): _entry((-1, 6)), (2, 3): _entry((-1, 3)),
    (3, 0): _entry((1, 2)), (3, 2): _entry((-1, 6)),
    (3, 3): _entry((1, 4), (-1, 5)),
    (4, 1): _entry((1, 2)), (4, 2): _entry((-1, 1)), (4, 3): _entry((1, 0)),
    (4, 4): _entry((-1, 5)),
}

# flat specialization of the 8x8 normal connection: generators _POINT_LABELS
_H = Fraction(1, 2)
_Q = Fraction(1, 4)
_CALN = {
    (0, 0): _entry((_H, 5)), (0, 1): _entry((_Q, 4), (-_Q, 5)),
    (0, 2): _entry((-_Q, 3)), (0, 3): _entry((_Q, 6)),
    (1, 0): _entry((1, 4), (-1, 5)), (1, 1): _entry((_H, 5)),
    (1, 2): _entry((_H, 3)), (1, 3): _entry((_H, 6)),
    (2, 0): _entry((-1, 6)), (2, 1): _entry((_H, 6)), (2, 2): _entry((_H, 4)),
    (3, 0): _entry((1, 3)), (3, 1): _entry((_H, 3)),
    (3, 3): _entry((-_H, 4), (1, 5)),
    (4, 0): _entry((1, 1)), (4, 2): _entry((-_H, 0)), (4, 3): _entry((_H, 2)),
    (4, 4): _entry((-_H, 5)), (4, 5): _entry((-_H, 6)),
    (4, 6): _entry((-_H, 3)), (4, 7): _entry((_Q, 4), (-_Q, 5)),
    (5, 0): _entry((1, 0)), (5, 1): _entry((_H, 0)), (5, 3): _entry((_H, 1)),
    (5, 4): _entry((-_H, 3)), (5, 5): _entry((-_H, 4)),
    (5, 7): _entry((-_Q, 3)),
    (6, 0): _entry((1, 2)), (6, 1): _entry((-_H, 2)), (6, 2): _entry((-_H, 1)),
    (6, 4): _entry((-_H, 6)), (6, 6): _entry((_H, 4), (-1, 5)),
    (6, 7): _entry((_Q, 6)),
    (7, 1): _entry((1, 1)), (7, 2): _entry((1, 0)), (7, 3): _entry((1, 2)),
    (7, 4): _entry((1, 4), (-1, 5)), (7, 5): _entry((-1, 6)),
    (7, 6): _entry((1, 3)), (7, 7): _entry((-_H, 5)),
}

# 7x7 exceptional connection: generators _G2_LABELS
_T = Fraction(1, 3)
_CCG2 = {
    (0, 0): _entry((-1, 5), (-1, 8)), (0, 1): _entry((-1, 12)),
    (0, 2): _entry((-1, 13)), (0, 3): _entry((-_S, 11)),
    (0, 4): _entry((_T, 9)), (0, 5): _entry((_T, 10)),
    (1, 0): _entry((1, 0)), (1, 1): _entry((1, 5)), (1, 2): _entry((1, 6)),
    (1, 3): _entry((_S, 3)), (1, 4): _entry((-_T, 2)),
    (1, 6): _entry((_T, 10)),
    (2, 0): _entry((1, 1)), (2, 1): _entry((1, 7)), (2, 2): _entry((1, 8)),
    (2, 3): _entry((_S, 4)), (2, 5): _entry((-_T, 2)),
    (2, 6): _entry((-_T, 9)),
    (3, 0): _entry((_U, 2)), (3, 1): _entry((_U, 9)), (3, 2): _entry((_U, 10)),
    (3, 4): _entry((_S, 4)), (3, 5): _entry((-_S, 3)),
    (3, 6): _entry((-_S, 11)),
    (4, 0): _entry((1, 3)), (4, 1): _entry((1, 11)), (4, 3): _entry((_U, 10)),
    (4, 4): _entry((-1, 8)), (4, 5): _entry((1, 6)), (4, 6): _entry((1, 13)),
    (5, 0): _entry((1, 4)), (5, 2): _entry((1, 11)), (5, 3): _entry((-_U, 9)),
    (5, 4): _entry((1, 7)), (5, 5): _entry((-1, 5)), (5, 6): _entry((-1, 12)),
    (6, 1): _entry((1, 4)), (6, 2): _entry((-1, 3)), (6, 3): _entry((_U, 2)),
    (6, 4): _entry((-1, 1)), (6, 5): _entry((1, 0)),
    (6, 6): _entry((1, 5), (1, 8)),
}

_CONNECTIONS = {
    "conpoint": (_CONPOINT, 5, _POINT_LABELS),
    "caln": (_CALN, 8, _POINT_LABELS),
    "ccg2": (_CCG2, 7, _G2_LABELS),
}


@dataclass
class MatrixBasis:
    name: str
    labels: tuple
    matrices: list  # one square Q3 matrix per generator

    @property
    def dim(self):
        return len(self.matrices)

    @property
    def size(self):
        return len(self.matrices[0])


def matrix_rep(connection: str) -> MatrixBasis:
    """Generator matrices: set one coframe form to 1 and the rest to 0."""
    table, size, labels = _CONNECTIONS[connection]
    mats = []
    for g in range(len(labels)):
        M = [[Q3() for _ in range(size)] for _ in range(size)]
        for (i, j), terms in table.items():
            for coeff, gen in terms:
                if gen == g:
                    M[i][j] = M[i][j] + coeff
        mats.append(M)
    basis = MatrixBasis(connection, labels, mats)
    _check_linear_independence(basis)
    return basis


def _generator_echelon(basis: MatrixBasis):
    """Reduced echelon basis of the generators as vectors over (row, col)
    positions, generator g extended by 1 at the tag (size, -g), so the tag
    part of each row is the generator combination it equals.  Tags sort
    after every position: a row pivots on a tag only when its generator is
    dependent on earlier ones, and then on that generator's own tag."""
    rows = [{(r, c): v for r, row in _sparse_matrix(M).items()
             for c, v in row.items()} for M in basis.matrices]
    for g, row in enumerate(rows):
        row[(basis.size, -g)] = Q3(1)
    return _rref_rows(rows, basis.size ** 2 + len(rows))


def _check_linear_independence(basis: MatrixBasis):
    if any(r == basis.size for r, _ in _generator_echelon(basis)):
        raise ValueError(f"{basis.name}: generator matrices are dependent")


def commutator_closure_check(basis: MatrixBasis) -> dict:
    """Each pairwise commutator must lie in the span; returns the induced
    structure constants on success.  The generators are put in echelon form
    once; reducing a commutator against it leaves minus its coordinates in
    the tag columns."""
    echelon = _generator_echelon(basis)
    mats = [_sparse_matrix(M) for M in basis.matrices]
    n = len(mats)
    induced = {}
    for i in range(n):
        for j in range(i + 1, n):
            target = _sparse_commutator(mats[i], mats[j])
            _reduce(echelon, target)
            if any(r < basis.size for r, _ in target):
                return {"closed": False, "failure": (i, j), "constants": None}
            for k in range(n):
                if (basis.size, -k) in target:
                    induced[(k, i, j)] = -target[(basis.size, -k)]
    table = StructureConstantTable(n, basis.labels, induced)
    return {"closed": True, "constants": table}


def tables_equal(a: StructureConstantTable, b: StructureConstantTable) -> bool:
    if a.dim != b.dim:
        return False
    keys = set(a.c) | set(b.c)
    return all(a.bracket_coeff(*k) == b.bracket_coeff(*k) for k in keys)


def invariant_bilinear_form(basis: MatrixBasis) -> dict:
    """Solve X^T B + B X = 0 over symmetric B for every generator X."""
    m = basis.size
    unknowns = [(i, j) for i in range(m) for j in range(i, m)]
    index = {k: i for i, k in enumerate(unknowns)}
    rows = []
    for X in basis.matrices:
        cols = _sparse_matrix(zip(*X))  # {c: {k: X_kc}}
        for r in range(m):
            for c in range(m):
                row = {}
                # (X^T B + B X)_{rc} = sum_k X_{kr} B_{kc} + B_{rk} X_{kc}
                for t, col in ((c, cols.get(r, {})), (r, cols.get(c, {}))):
                    for k, x in col.items():
                        key = index[(k, t) if k <= t else (t, k)]
                        row[key] = row[key] + x if key in row else x
                rows.append({k: v for k, v in row.items() if not v.is_zero})
    sols = nullspace(rows, len(unknowns))
    out = {"dimension": len(sols), "forms": []}
    for v in sols:
        B = [[Q3() for _ in range(m)] for _ in range(m)]
        for (i, j), pos in index.items():
            B[i][j] = v[pos]
            B[j][i] = v[pos]
        out["forms"].append({"matrix": B, "inertia": symmetric_inertia(B)})
    return out


# ---------------------------------------------------------------------------
# invariant 3-form in dimension 7


def invariant_three_form(basis: MatrixBasis) -> dict:
    """Solve phi(Xu, v, w) + phi(u, Xv, w) + phi(u, v, Xw) = 0 for a 3-form
    phi; returns the solution space and the induced symmetric form
    B(u, v) vol = (u . phi) ^ (v . phi) ^ phi of a generic solution."""
    m = basis.size
    if m != 7:
        raise ValueError("the stabilized 3-form lives in dimension 7")
    triples = list(itertools.combinations(range(m), 3))
    index = {t: i for i, t in enumerate(triples)}
    rows = []
    for X in basis.matrices:
        cols = _sparse_matrix(zip(*X))  # {c: {l: X_lc}}
        for triple in triples:
            row = {}
            for pos, slot in enumerate(triple):
                # phi(.., X e_slot, ..) with X e_slot = sum_l X_{l slot} e_l
                for l, x in cols.get(slot, {}).items():
                    tgt = triple[:pos] + (l,) + triple[pos + 1:]
                    if len(set(tgt)) < 3:
                        continue
                    key = index[tuple(sorted(tgt))]
                    x = x if _perm_sign(tgt) > 0 else -x
                    row[key] = row[key] + x if key in row else x
            rows.append({k: v for k, v in row.items() if not v.is_zero})
    sols = nullspace(rows, len(triples))
    result = {"dimension": len(sols), "forms": sols, "induced": None}
    if len(sols) == 1:
        B = induced_bilinear_from_three_form(sols[0])
        result["induced"] = {"matrix": B, "inertia": symmetric_inertia(B)}
    return result


def induced_bilinear_from_three_form(phi_vec):
    """B_{uv} vol = (e_u . phi) ^ (e_v . phi) ^ phi, exact in dimension 7,
    summed over the nonzero components of phi only."""
    m = 7
    full = frozenset(range(m))
    phi = {t: c for t, c in zip(itertools.combinations(range(m), 3), phi_vec)
           if not c.is_zero}
    # contraction e_u . phi as {(a, b): phi(u, a, b)} with a < b; moving u
    # to the front of the sorted triple takes pos transpositions
    inner: list = [{} for _ in range(m)]
    for t, c in phi.items():
        for pos, u in enumerate(t):
            inner[u][t[:pos] + t[pos + 1:]] = -c if pos % 2 else c
    B = [[None] * m for _ in range(m)]
    for u in range(m):
        for v in range(u, m):
            total = Q3()
            # coefficient of e^0 ^ ... ^ e^6 in (e_u . phi)^(e_v . phi)^phi
            for ab, x in inner[u].items():
                for cd, y in inner[v].items():
                    rest = tuple(sorted(full.difference(ab + cd)))
                    if len(rest) != 3 or rest not in phi:
                        continue
                    term = x * y * phi[rest]
                    total = total + (term if _perm_sign(ab + cd + rest) > 0
                                     else -term)
            B[u][v] = B[v][u] = total
    return B


# ---------------------------------------------------------------------------
# top-level verification entry used by the CLI


def verify_system(name: str) -> dict:
    """Run the full exact check battery for one of the named systems."""
    out: dict = {"system": name}
    if name in ("syspoint", "g2-flat"):
        table_name = "syspoint" if name == "syspoint" else "sycart-syspp"
        t = flat_structure_constants(table_name)
        ok, bad = jacobi_check(t)
        out["jacobi"] = ok
        ok2, bad2 = exterior_square_check(table_name)
        out["d_squared_zero"] = ok2
        out["killing"] = killing_analysis(t)
        out["dimension"] = t.dim
        return out
    if name in ("conpoint", "caln", "ccg2"):
        basis = matrix_rep(name)
        closure = commutator_closure_check(basis)
        out["closed"] = closure["closed"]
        out["generators"] = basis.dim
        out["matrix_size"] = basis.size
        if closure["closed"]:
            induced = closure["constants"]
            ok, _ = jacobi_check(induced)
            out["jacobi"] = ok
            out["killing"] = killing_analysis(induced)
            if name == "ccg2":
                flat = flat_structure_constants("sycart-syspp")
                out["matches_flat_table"] = tables_equal(induced, flat)
        bil = invariant_bilinear_form(basis)
        out["invariant_bilinear_dimension"] = bil["dimension"]
        out["invariant_bilinear_inertias"] = [f["inertia"] for f in bil["forms"]]
        if name == "ccg2":
            three = invariant_three_form(basis)
            out["invariant_three_form_dimension"] = three["dimension"]
            if three["induced"] is not None:
                out["three_form_induced_inertia"] = three["induced"]["inertia"]
        return out
    raise ValueError(f"unknown system {name!r}")
