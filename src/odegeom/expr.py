"""Immutable symbolic expression trees over jet-space coordinates.

Expressions are hash-consed: structurally equal trees are the same Python
object, so structural equality is identity, and the differentiation cache
and the evaluation tape (`Tape`) key on node identity.  `_intern` holds one
table per node kind; a sum, product, quotient or power is keyed by its own
argument tuple (nodes hash by identity), so a key copies nothing the node
holds.  `_dcache` holds one table {node: derivative} per variable.  Both
live as long as the process.  Construction applies light normalization only
(constant folding, 0/1 identities, flattening of sums and products); there is
no factorization or canonical simplification.  `num`, `add` and `mul` look up
and insert into their own kind's table directly, and `add` and `mul` fold
rational coefficients on int numerator and denominator pairs with one gcd,
making a Fraction only for a literal new to its table (a float among them
folds by Python's arithmetic, left to right).  Identity claims are settled by
randomized evaluation (modulo a prime, or at floating sample points), not by
rewriting.

Node kinds:
  num   exact rational, an int when integral and a Fraction otherwise (or
        a float literal)
  sym   named scalar (coordinate or parameter)
  fam   indexed symbol family f_k whose derivative in the family variable is
        f_{k+1} (w_k in t for arbitrary-function slots, Ups_k in q for
        conformal-scale slots)
  add / mul   n-ary, flattened, constant folded
  div         explicit quotient (kept for symbolic denominators)
  pow         base and exponent are both expressions
  func        exp, log (sqrt normalizes to pow 1/2)
  int         formal antiderivative Int(body, var): opaque to numeric
              evaluation, removed by differentiation in var
"""

from __future__ import annotations

import copy
import functools
import math
import operator
import re
from fractions import Fraction

import mpmath
from mpmath.libmp import (fzero, from_float, from_int, mpf_abs, mpf_add,
                          mpf_div, mpf_eq, mpf_exp, mpf_le, mpf_log, mpf_lt,
                          mpf_mul, mpf_pos, mpf_pow, mpf_pow_int)

from .config import DEFAULT_DPS

NUM = "num"
SYM = "sym"
FAM = "fam"
ADD = "add"
MUL = "mul"
DIV = "div"
POW = "pow"
FUNC = "func"
INT = "int"

# family base name -> variable whose derivative shifts the index
FAMILY_VARS = {"w": "t", "Ups": "q"}

_FAMILY_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)_([0-9]+)$")

# denominators under this magnitude count as a domain violation
DIV_FLOOR = 1e-120
# largest expanded tree, in nodes, whose text a repr prints
REPR_MAX_SIZE = 10_000
# the types of an exact num payload: int when integral, else Fraction
RATIONAL = (int, Fraction)


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(ExprError):
    pass


class UnboundSymbolError(EvalError):
    pass


class DomainError(EvalError):
    pass


class AntiderivativeError(EvalError):
    pass


class Expression:
    """A hash-consed node.  Do not instantiate directly; use the constructors."""

    __slots__ = ("kind", "payload", "args")

    def __init__(self, kind, payload, args):
        self.kind = kind
        self.payload = payload
        self.args = args

    # equality and hash are object's, by identity: hash-consing makes
    # structural equality identity
    def __str__(self):
        return to_str(self)

    def __repr__(self):
        # to_str expands a shared DAG, and pytest reprs the arguments of a
        # failing test: the text is printed only while the expanded tree,
        # sized over the distinct nodes, has at most REPR_MAX_SIZE nodes
        size = {}
        for n in walk(self):
            size[n] = 1 + sum(size[a] for a in n.args)
            if size[n] > REPR_MAX_SIZE:
                count = sum(1 for _ in walk(self))
                return f"<expression: {self.kind}, {count} distinct nodes>"
        # to_str refuses a literal too long to print; a repr, as of a
        # container holding this node, names its length instead
        try:
            return to_str(self)
        except OverflowError:
            bits = max(_bits(n.payload) for n in walk(self)
                       if n.kind == NUM and type(n.payload) is not float)
            return f"<expression with a literal of {bits} bits>"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, neg(as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, other):
        return pow_(self, as_expr(other))

    def __neg__(self):
        return neg(self)

    @property
    def is_zero_literal(self):
        return self.kind == NUM and self.payload == 0

    @property
    def is_one_literal(self):
        return self.kind == NUM and self.payload == 1


class _Tables(dict):
    """A dict of tables, {name: {key: value}}, whose len() counts the
    entries of all its tables."""

    __slots__ = ()

    def __len__(self):
        return sum(map(len, self.values()))


# one intern table per node kind
_intern = _Tables({k: {} for k in (NUM, SYM, FAM, ADD, MUL, DIV, POW, FUNC,
                                   INT)})
# kinds whose key is the node's own argument tuple
_KEYED_BY_ARGS = frozenset((ADD, MUL, DIV, POW))


def _key_of(kind, payload, args):
    """The key of a node in its kind's table `_intern[kind]`: `args` itself
    for add, mul, div and pow; a num's payload, tagged when it is a float;
    (payload, args) otherwise.  `add`, `mul` and `num` intern their nodes
    themselves under these keys, and a Fraction num under ("Q", n, d)."""
    if kind in _KEYED_BY_ARGS:
        return args
    if kind == NUM:
        return ("f", repr(payload)) if isinstance(payload, float) else payload
    return payload, args


def _node(kind, payload, args):
    args = tuple(args)
    table = _intern[kind]
    key = _key_of(kind, payload, args)
    node = table.get(key)
    if node is None:
        node = table[key] = Expression(kind, payload, args)
    return node


def as_expr(v) -> Expression:
    return v if type(v) is Expression else num(v)


_NUMS, _ADDS, _MULS = _intern[NUM], _intern[ADD], _intern[MUL]


def num(v) -> Expression:
    """The literal v; an integral Fraction is stored as its numerator."""
    if type(v) is int:  # spares an int the ABC checks of isinstance below
        node = _NUMS.get(v)
        if node is None:
            node = _NUMS[v] = Expression(NUM, v, ())
        return node
    if isinstance(v, Fraction):
        return _rational(v.numerator, v.denominator)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"bad numeric payload {v!r}")
    return _node(NUM, v, ())


def _rational(n: int, d: int) -> Expression:
    """The literal n/d of coprime ints n and d > 0, keyed ("Q", n, d) unless
    integral; its Fraction is made only when the literal is new."""
    if d == 1:
        return num(n)
    node = _NUMS.get(("Q", n, d))
    if node is None:
        q = Fraction(n, d)  # the key shares the payload's ints
        node = _NUMS["Q", q.numerator, q.denominator] = Expression(NUM, q, ())
    return node


ZERO = num(0)
ONE = num(1)
MINUS_ONE = num(-1)
HALF = num(Fraction(1, 2))


def sym(name: str) -> Expression:
    m = _FAMILY_RE.match(name)
    if m and m.group(1) in FAMILY_VARS:
        return fam(m.group(1), int(m.group(2)))
    return _node(SYM, name, ())


def fam(base: str, k: int) -> Expression:
    if base not in FAMILY_VARS:
        raise ValueError(f"unregistered symbol family {base!r}")
    return _node(FAM, (base, k, FAMILY_VARS[base]), ())


def name_of(e: Expression) -> str:
    """Printed name of a sym/fam leaf."""
    if e.kind == SYM:
        return e.payload
    if e.kind == FAM:
        return f"{e.payload[0]}_{e.payload[1]}"
    raise ValueError("not a symbol node")


def _fold_sum(nodes) -> Expression:
    """The literal sum of the payloads of the num `nodes`: in ints, on
    numerator and denominator pairs with one gcd at the end, unless a float
    makes it Python's sum from the first payload on (no zero seed)."""
    n, d = 0, 1
    for u in nodes:
        v = u.payload
        if type(v) is int:
            n += v * d
        elif type(v) is Fraction:
            b = v.denominator
            n, d = n * b + v.numerator * d, d * b
        else:
            return num(functools.reduce(operator.add,
                                        [u.payload for u in nodes]))
    if d == 1:
        return num(n)
    g = math.gcd(n, d)
    return _rational(n // g, d // g)


def _fold_product(nodes) -> Expression:
    """The literal product of the payloads of the num `nodes`, folded like
    `_fold_sum` (no unit seed)."""
    n = d = 1
    for u in nodes:
        v = u.payload
        if type(v) is int:
            n *= v
        elif type(v) is Fraction:
            n, d = n * v.numerator, d * v.denominator
        else:
            return num(functools.reduce(operator.mul,
                                        [u.payload for u in nodes]))
    if d == 1:
        return num(n)
    g = math.gcd(n, d)
    return _rational(n // g, d // g)


# `add` and `mul` flatten their sum and product arguments.  Only the first
# argument of a sum or product they build is a num, and none is a sum or a
# product in turn, so the rest of such an argument joins the terms whole.

def add(*terms) -> Expression:
    nums, rest = [], []
    for t in terms:
        if type(t) is not Expression:
            t = num(t)
        kind = t.kind
        if kind == ADD:
            args = t.args
            if args[0].kind == NUM:
                nums.append(args[0])
                rest += args[1:]
            else:
                rest += args
        elif kind == NUM:
            nums.append(t)
        else:
            rest.append(t)
    if nums:
        c = nums[0] if len(nums) == 1 else _fold_sum(nums)
        if c.payload != 0:
            rest.insert(0, c)
    if not rest:
        return ZERO
    if len(rest) == 1:
        return rest[0]
    args = tuple(rest)
    node = _ADDS.get(args)
    if node is None:
        node = _ADDS[args] = Expression(ADD, None, args)
    return node


def neg(e) -> Expression:
    return mul(MINUS_ONE, e)


def mul(*factors) -> Expression:
    nums, rest = [], []
    for f in factors:
        if type(f) is not Expression:
            f = num(f)
        kind = f.kind
        if kind == MUL:
            args = f.args
            if args[0].kind == NUM:
                nums.append(args[0])
                rest += args[1:]
            else:
                rest += args
        elif kind == NUM:
            nums.append(f)
        else:
            rest.append(f)
    if nums:
        c = nums[0] if len(nums) == 1 else _fold_product(nums)
        v = c.payload
        if type(v) is Fraction:  # never integral, so neither 0 nor 1
            rest.insert(0, c)
        elif v == 0:
            return ZERO
        elif v != 1:
            rest.insert(0, c)
    if not rest:
        return ONE
    if len(rest) == 1:
        return rest[0]
    args = tuple(rest)
    node = _MULS.get(args)
    if node is None:
        node = _MULS[args] = Expression(MUL, None, args)
    return node


def div(a, b) -> Expression:
    a, b = as_expr(a), as_expr(b)
    if b.is_one_literal:
        return a
    if b.kind == NUM:
        if b.payload == 0:
            raise ZeroDivisionError("literal division by zero")
        if isinstance(b.payload, RATIONAL):
            n, d = b.payload.numerator, b.payload.denominator
            return mul(_rational(d, n) if n > 0 else _rational(-d, -n), a)
        return mul(num(1.0 / b.payload), a)
    if a.is_zero_literal:
        return ZERO
    return _node(DIV, None, (a, b))


def _iroot(n: int, root: int) -> int:
    """The integer part of the `root`-th root of n >= 0, in integers only:
    Newton's step from a power of two above the root decreases to it."""
    if n < 2 or root >= n.bit_length():  # 2^root > n: the root is 0 or 1
        return min(n, 1)
    if root == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // root)
    while True:
        y = ((root - 1) * x + n // x ** (root - 1)) // root
        if y >= x:
            return x
        x = y


def _exact_root(fr, root: int):
    """Integer `root`-th root of an int or Fraction, or None."""
    if fr < 0:
        return None
    rn = _iroot(fr.numerator, root)
    rd = _iroot(fr.denominator, root)
    if rn ** root != fr.numerator or rd ** root != fr.denominator:
        return None
    return Fraction(rn, rd)


def _fold_power(b, n: int) -> Expression:
    """The literal b^n of an int or Fraction b, refused with an OverflowError
    when it would need more than MAX_LITERAL_BITS bits."""
    if b == 0 and n < 0:
        raise ZeroDivisionError("0 raised to a negative power")
    if b and abs(n) * math.log2(max(abs(b.numerator), b.denominator)) \
            > MAX_LITERAL_BITS:
        raise OverflowError(
            f"literal power larger than {MAX_LITERAL_BITS} bits")
    return num(Fraction(b) ** n)  # an int to a negative power is a float


def pow_(base, exponent) -> Expression:
    base, exponent = as_expr(base), as_expr(exponent)
    if exponent.kind == NUM and isinstance(exponent.payload, RATIONAL):
        e = exponent.payload
        if e == 0:
            return ONE
        if e == 1:
            return base
        if base.kind == NUM and isinstance(base.payload, RATIONAL):
            b = base.payload
            if e.denominator == 1:
                return _fold_power(b, e.numerator)
            root = _exact_root(b, e.denominator)
            if root is not None:
                return _fold_power(root, e.numerator)
        if base.is_zero_literal and e > 0:
            return ZERO
        if base.is_one_literal:
            return ONE
    return _node(POW, None, (base, exponent))


def sqrt(e) -> Expression:
    return pow_(as_expr(e), num(Fraction(1, 2)))


def exp(e) -> Expression:
    e = as_expr(e)
    if e.is_zero_literal:
        return ONE
    return _node(FUNC, "exp", (e,))


def log(e) -> Expression:
    e = as_expr(e)
    if e.is_one_literal:
        return ZERO
    return _node(FUNC, "log", (e,))


def antideriv(body, var: str) -> Expression:
    """Formal antiderivative in `var`; differentiating in `var` returns body."""
    return _node(INT, var, (as_expr(body),))


# ---------------------------------------------------------------------------
# traversal: every walk over a DAG below is this one, over an explicit stack,
# so depth costs heap memory and never Python stack frames


def walk(root: Expression, done: set | None = None, children=None):
    """Yield each node reachable from `root` once, after its arguments
    (post-order, arguments left to right).

    `done` holds the ids of nodes already handled: the walk neither yields
    nor enters them, and adds the id of each node it yields.  `children(n)`
    gives the arguments of a node with arguments to enter, `n.args` by
    default.
    """
    if done is None:
        done = set()
    stack = [(None, iter((root,)))]  # (node, its arguments not yet entered)
    while stack:
        n, pending = stack[-1]
        for a in pending:
            if id(a) not in done:
                args = a.args
                if args and children is not None:
                    args = children(a)
                stack.append((a, iter(args)))
                break
        else:
            stack.pop()
            if n is not None:
                done.add(id(n))
                yield n


# ---------------------------------------------------------------------------
# differentiation

# one table per variable, {node: derivative}
_dcache = _Tables()


def differentiate(e: Expression, var: str) -> Expression:
    table = _dcache.get(var)
    if table is None:
        table = _dcache[var] = {}
    d = table.get(e)
    if d is not None:
        return d

    def enter(n):  # the arguments whose derivatives d(n) needs and lacks
        if n.kind == INT and n.payload == var:
            return ()
        return [a for a in n.args if a not in table]

    for n in walk(e, children=enter):
        table[n] = _derivative(n, var, table)
    return table[e]


def _derivative(e: Expression, var: str, table: dict) -> Expression:
    """d e/d var from the derivatives of e's arguments in `table`, the
    derivative table of var."""
    k, args = e.kind, e.args
    if k == ADD:
        return add(*[table[a] for a in args])
    if k == MUL:
        terms = []
        for i, a in enumerate(args):
            da = table[a]
            if not da.is_zero_literal:
                terms.append(mul(*args[:i], da, *args[i + 1:]))
        return add(*terms)
    if k == NUM:
        return ZERO
    if k == SYM:
        return ONE if e.payload == var else ZERO
    if k == FAM:
        base, idx, fvar = e.payload
        return fam(base, idx + 1) if fvar == var else ZERO
    if k == INT:
        if e.payload == var:
            return args[0]
        return antideriv(table[args[0]], e.payload)
    if k == DIV:
        a, b = args
        da, db = table[a], table[b]
        if db.is_zero_literal:
            return div(da, b)
        return div(add(mul(da, b), neg(mul(a, db))), pow_(b, 2))
    if k == POW:
        b, x = args
        db, dx = table[b], table[x]
        if dx.is_zero_literal:
            return mul(x, pow_(b, add(x, MINUS_ONE)), db)
        if db.is_zero_literal:
            return mul(e, log(b), dx)
        return mul(e, add(mul(dx, log(b)), div(mul(x, db), b)))
    if k == FUNC:
        (a,) = args
        if e.payload == "exp":
            return mul(e, table[a])
        if e.payload == "log":
            return div(table[a], a)
    raise ExprError(f"no derivative rule for {k} {e.payload}")  # pragma: no cover


def diff_n(e: Expression, var: str, n: int) -> Expression:
    for _ in range(n):
        e = differentiate(e, var)
    return e


# ---------------------------------------------------------------------------
# substitution and symbol scans

_REBUILD = {ADD: lambda n, args: add(*args),
            MUL: lambda n, args: mul(*args),
            DIV: lambda n, args: div(*args),
            POW: lambda n, args: pow_(*args),
            FUNC: lambda n, args: _node(FUNC, n.payload, args),
            INT: lambda n, args: antideriv(args[0], n.payload)}


def substitute(e: Expression, bindings: dict) -> Expression:
    """Simultaneous substitution.  Keys are printed symbol names."""
    repl = {k: as_expr(v) for k, v in bindings.items()}
    out: dict = {}
    for n in walk(e):
        if n.kind in (SYM, FAM):
            out[n] = repl.get(name_of(n), n)
        elif n.kind == NUM:
            out[n] = n
        else:
            out[n] = _REBUILD[n.kind](n, [out[a] for a in n.args])
    return out[e]


def free_symbols(e: Expression) -> frozenset:
    """Printed names of all sym/fam leaves."""
    return frozenset(name_of(n) for n in walk(e) if n.kind in (SYM, FAM))


def contains_antiderivative(e: Expression) -> bool:
    return any(n.kind == INT for n in walk(e))


# ---------------------------------------------------------------------------
# numeric evaluation: one compiled tape
#
# A tape lists the nodes of its roots in topological order over integer
# slots.  Each instruction is (f, dst, a, b) and runs as
# slots[dst] = f(slots[a], slots[b], prec, rnd), with f an mpmath.libmp
# function on raw mpf tuples at the context's precision and rounding, and
# `Tape.modular` swaps each f for its counterpart modulo a prime.  An n-ary
# add or mul folds left to right into binary steps, as mpf operators would.

_DIV_FLOOR_MPF = from_float(DIV_FLOOR)


def is_integer_literal(n: Expression) -> bool:
    """Whether n is an exact integer num node."""
    return n.kind == NUM and type(n.payload) is int


def _mpf_leaf(v, prec, rnd):
    """The raw value of mpmath.mpf(v) at (prec, rnd); an int is rounded
    once, a Fraction is its numerator divided by its denominator."""
    if type(v) is float:
        return mpf_pos(from_float(v), prec, rnd)
    if type(v) is int:
        return from_int(v, prec, rnd)
    if isinstance(v, Fraction):
        return mpf_div(mpf_pos(from_int(v.numerator), prec, rnd),
                       mpf_pos(from_int(v.denominator), prec, rnd), prec, rnd)
    return mpmath.mpf(v)._mpf_


def _mpf_div(a, b, prec, rnd):
    if mpf_lt(mpf_abs(b, prec, rnd), _DIV_FLOOR_MPF):
        raise DomainError("division by ~0")
    return mpf_div(a, b, prec, rnd)


def _mpf_powi(b, p, prec, rnd):
    if p < 0 and mpf_eq(b, fzero):
        raise DomainError("division by ~0")
    return mpf_pow_int(b, p, prec, rnd)


def _mpf_pow(b, x, prec, rnd):
    if mpf_lt(b, fzero):
        raise DomainError("negative base under a non-integer power")
    if mpf_eq(b, fzero) and mpf_le(x, fzero):
        raise DomainError("0 raised to a non-positive power")
    return mpf_pow(b, x, prec, rnd)


def _mpf_exp(a, _, prec, rnd):
    return mpf_exp(a, prec, rnd)


def _mpf_log(a, _, prec, rnd):
    if mpf_le(a, fzero):
        raise DomainError("log of a non-positive value")
    return mpf_log(a, prec, rnd)


def _antiderivative(*_):
    raise AntiderivativeError(
        "formal antiderivative cannot be evaluated numerically")


_FUNCS = {"exp": _mpf_exp, "log": _mpf_log}


def _tape_args(n: Expression):
    """The arguments a tape evaluates: none under an Int, and the base
    alone under an integer power."""
    if n.kind == INT:
        return ()
    if n.kind == POW and is_integer_literal(n.args[1]):
        return n.args[:1]
    return n.args


def _needed(code, slots):
    """The instructions of `code`, in order, that the values of `slots`
    depend on, and every slot those instructions read or write."""
    need = set(slots)
    out = []
    for ins in reversed(code):
        if ins[1] in need:
            need.add(ins[2])
            need.add(ins[3])
            out.append(ins)
    out.reverse()
    return out, need


class Tape:
    """Straight-line program for groups of root expressions.

    Compiled once, by `walk`: every node reachable from the roots gets one
    slot, in topological order, and the nodes of each group come
    after those of the groups before it.  `run` evaluates the tape at one
    point and yields the values of each group's roots in turn, so a caller
    that stops after a group skips the work of the later ones.
    """

    __slots__ = ("size", "consts", "exponents", "syms", "code", "outs",
                 "_init_at")

    def __init__(self, *groups):
        slot_of: dict = {}  # id(node) -> slot of its value
        done: set = set()
        self.consts = []  # (slot, payload) of num leaves
        self.exponents = {}  # integer exponent -> slot holding it as an int
        self.syms = []  # (slot, printed name) of sym/fam leaves
        self.code, self.outs = [], []
        size = 0
        for roots in groups:
            roots = list(roots)
            code = []
            nodes = (n for root in roots for n in walk(root, done, _tape_args))
            for n in nodes:
                k = n.kind
                args = _tape_args(n)
                if k == NUM:
                    self.consts.append((size, n.payload))
                elif k in (SYM, FAM):
                    self.syms.append((size, name_of(n)))
                elif k in (ADD, MUL):
                    op = mpf_add if k == ADD else mpf_mul
                    acc = slot_of[id(args[0])]
                    for a in args[1:]:
                        code.append((op, size, acc, slot_of[id(a)]))
                        acc = size
                        size += 1
                    slot_of[id(n)] = acc
                    continue
                elif k == DIV:
                    code.append((_mpf_div, size, slot_of[id(args[0])],
                                 slot_of[id(args[1])]))
                elif k == POW and len(args) == 1:
                    p = n.args[1].payload.numerator
                    if p not in self.exponents:
                        self.exponents[p] = size
                        size += 1
                    code.append((_mpf_powi, size, slot_of[id(args[0])],
                                 self.exponents[p]))
                elif k == POW:
                    code.append((_mpf_pow, size, slot_of[id(args[0])],
                                 slot_of[id(args[1])]))
                elif k == FUNC:
                    a = slot_of[id(args[0])]
                    code.append((_FUNCS[n.payload], size, a, a))
                elif k == INT:
                    code.append((_antiderivative, size, size, size))
                else:  # pragma: no cover
                    raise ExprError(f"unknown node kind {k}")
                slot_of[id(n)] = size
                size += 1
            self.code.append(code)
            self.outs.append([slot_of[id(r)] for r in roots])
        self.size = size
        self._init_at = {}  # (prec, rnd) -> slots with the num leaves filled in

    def _init(self, prec, rnd):
        slots = [None] * self.size
        for p, i in self.exponents.items():
            slots[i] = p
        for i, v in self.consts:
            slots[i] = _mpf_leaf(v, prec, rnd)
        return slots

    def run(self, bindings):
        """Yield, group by group, the raw values of the roots at `bindings`,
        mpf tuples at the current mpmath precision."""
        prec, rnd = mpmath.mp._prec_rounding
        init = self._init_at.get((prec, rnd))
        if init is None:
            init = self._init_at[prec, rnd] = self._init(prec, rnd)
        slots = init[:]
        for i, name in self.syms:
            if name not in bindings:
                raise UnboundSymbolError(f"unbound symbol {name!r}")
            slots[i] = _mpf_leaf(bindings[name], prec, rnd)
        for seg, outs in zip(self.code, self.outs):
            for f, d, a, b in seg:
                slots[d] = f(slots[a], slots[b], prec, rnd)
            yield [slots[i] for i in outs]

    def values(self, bindings) -> list:
        """mpf values of the roots of a one-group tape, at the current
        mpmath precision."""
        make = mpmath.mp.make_mpf
        return [make(v) for v in next(self.run(bindings))]

    def only(self, group, keep) -> "Tape":
        """This tape with the roots of `group` cut to those at the indices
        `keep`, running only the instructions of that group they need;
        every slot that runs keeps its value."""
        t = copy.copy(self)
        t.outs, t.code = list(self.outs), list(self.code)
        t.outs[group] = [self.outs[group][i] for i in keep]
        t.code[group] = _needed(self.code[group], t.outs[group])[0]
        return t

    def modular(self, group, positive=None):
        """The instructions that the roots of `group` need, translated to
        arithmetic modulo a prime (a `ModularTape`), or None when one of
        them has no counterpart there: exp, log, Int, a float literal, a
        symbolic exponent, or a fractional power that no rule below takes.

        A symbol q is bound as q = t^r, with r the lcm of the denominators
        of q's fractional exponents, so q^(m/r') = t^(m r / r') is an
        integer power of t.  A power m/r with r odd of a positive monomial,
        c times powers of bare symbols with c a positive int or Fraction,
        is distributed over its factors: each q^a becomes q^(a m / r), whose
        denominator joins q's r, and c becomes c^(m u) with u r = 1 modulo
        P - 1.  When gcd(r, P - 1) = 1 that is the one r-th root of c^m in
        F_P, and so the image of the real positive root; `odd` is the lcm
        of those r, which the prime must be prime to.  `rooted` holds the
        symbols under a fractional power, bare or in such a base: the
        rewrites stand for the real roots only where those are positive.

        `positive`, when given, holds the slots of values the caller knows
        to be positive.  A power m/2 of a base b in one of them, or of a
        positive int or Fraction constant, is s^m for a root s adjoined with
        s^2 = b: the values that depend on such roots are elements of
        F_p[s_1..s_k]/(s_i^2 - b_i), k <= MAX_ROOTS, and the others stay
        residues.  Any other denominator on such a base, a base that holds
        a root, or more than MAX_ROOTS bases give None.

        Each slot also gets bounds on the degrees in the t's of the
        numerators and of a common denominator of its coordinates as
        rational functions; `degrees` holds the numerator bound of each
        root.
        """
        code, need = _needed([ins for seg in self.code for ins in seg],
                             self.outs[group])
        consts, syms = dict(self.consts), dict(self.syms)
        ints = {i: k for k, i in self.exponents.items()}
        root = {}  # symbol -> r
        powers = {}  # power the monomial rule takes -> its base's monomial
        for f, d, a, b in code:
            if f is _mpf_pow:
                e = consts.get(b)
                if not isinstance(e, RATIONAL):
                    return None
                mono = (Fraction(1), {syms[a]: 1}) if a in syms else \
                    _monomial(code, a, consts, syms, ints) \
                    if e.denominator % 2 else None
                if mono:
                    powers[d] = mono
                    for n, x in mono[1].items():
                        root[n] = math.lcm(root.get(n, 1), (x * e).denominator)
                elif positive is None or e.denominator != 2 or not (
                        a in positive or isinstance(consts.get(a), RATIONAL)
                        and consts[a] > 0):
                    return None
            elif f not in _MODULAR and f is not _mpf_powi:  # exp, log, Int
                return None
        if any(type(v) is float for i, v in self.consts if i in need):
            return None
        m = ModularTape()
        m.rooted = {n for _, xs in powers.values() for n in xs}
        m.odd = 1
        m.consts = [(i, v) for i, v in self.consts if i in need]
        m.syms = [(i, n, root.get(n, 1)) for i, n in self.syms if i in need]
        m.ints = [(i, k) for i, k in ints.items() if i in need]
        deg = dict.fromkeys((i for i, _ in m.consts), (0, 0))
        deg.update((i, (r, 0)) for i, _, r in m.syms)
        carry = {}  # slot -> mask of the adjoined roots its value carries
        betas, s_slot = [], {}  # degrees of each root's base; base -> s slot
        m.code = []
        size, t_slot = self.size, {}
        for f, d, a, b in code:
            if d in powers:  # (c q^x ...)^e = c^e t^(x e r) ... with q = t^r
                c, xs = powers[d]
                e = consts[b]
                factors = []
                if c != 1 or not xs:
                    m.odd = math.lcm(m.odd, e.denominator)
                    m.consts.append((size, c))
                    m.ints.append((size + 1, e))
                    m.code.append((_p_root, size + 2, size, size + 1))
                    deg[size + 2] = (0, 0)
                    factors.append(size + 2)
                    size += 3
                for name, x in xs.items():
                    if name not in t_slot:
                        t_slot[name] = size
                        m.syms.append((size, name, 1))
                        size += 1
                    k = int(x * e * root[name])
                    m.ints.append((size, k))
                    m.code.append((_p_powi, size + 1, t_slot[name], size))
                    deg[size + 1] = _deg_pow((1, 0), k)
                    factors.append(size + 1)
                    size += 2
                for x in factors[1:]:
                    m.code.append((_p_mul, size, factors[0], x))
                    deg[size] = _deg_mul(deg[factors[0]], deg[x])
                    factors[0] = size
                    size += 1
                # the last instruction writes the power's own slot
                m.code[-1] = m.code[-1][:1] + (d,) + m.code[-1][2:]
                deg[d] = deg[factors[0]]
            elif f is _mpf_pow:  # b^(k/2) = b^((k-1)/2) s with s^2 = b
                if a in carry:
                    return None
                if a not in s_slot:
                    if len(betas) == MAX_ROOTS:
                        return None
                    m.ints.append((size, len(betas)))
                    m.code.append((_r_adjoin, size + 1, a, size))
                    deg[size + 1], carry[size + 1] = (0, 0), 1 << len(betas)
                    s_slot[a] = size + 1
                    betas.append(deg[a])
                    size += 2
                k = consts[b].numerator
                m.ints.append((size, k))
                m.code.append((_r_powi, d, s_slot[a], size))
                deg[d] = _deg_pow(deg[a], (k - 1) // 2)
                carry[d] = carry[s_slot[a]]
                size += 1
            elif carry and (a in carry or b in carry):
                x = deg[a] + (carry.get(a, 0),)
                if f is _mpf_powi:
                    m.code.append((_r_powi, d, a, b))
                    n, dn, carry[d] = _ring_deg_pow(x, ints[b], betas)
                else:
                    op, rule = _RING[f]
                    m.code.append((op, d, a, b))
                    y = deg[b] + (carry.get(b, 0),)
                    n, dn, carry[d] = rule(x, y, betas)
                deg[d] = n, dn
            elif f is _mpf_powi:
                m.code.append((_p_powi, d, a, b))
                deg[d] = _deg_pow(deg[a], ints[b])
            else:
                op, rule = _MODULAR[f]
                m.code.append((op, d, a, b))
                deg[d] = rule(deg[a], deg[b])
        m.size = size
        m.roots = len(betas)
        m.outs = self.outs[group]
        m.degrees = [deg[i][0] for i in m.outs]
        return m


# ---------------------------------------------------------------------------
# modular evaluation: the instructions of a tape over the integers modulo a
# prime P.  A value is zero there exactly when the numerator of the rational
# function it stands for vanishes at the point, as long as no division on
# the way was by zero; the degree rules bound that numerator.
#
# A value that depends on adjoined roots s_i (s_i^2 = b_i) is an element of
# F_P[s_1..s_k]/(s_i^2 - b_i): a tuple of 2^k coordinates, the coordinate at
# index S that of the product of the s_i for the bits i of S.  Such an
# element is zero on every branch of the roots, the real one included,
# exactly when every coordinate is.  The ring operations take the products
# of the b_i over each set of roots (`bprod`, filled in as roots are
# adjoined) as their last argument; a residue operand counts as a scalar.

# the most roots of compound or constant bases one modular tape adjoins
MAX_ROOTS = 3


def _p_add(a, b, P, _):
    return (a + b) % P


def _p_mul(a, b, P, _):
    return a * b % P


def _p_div(a, b, P, _):
    if not b:
        raise DomainError("division by zero modulo p")
    return a * pow(b, -1, P) % P


def _p_powi(b, k, P, _):
    if k < 0 and not b:
        raise DomainError("division by zero modulo p")
    return pow(b, k, P)


def _p_root(c, e, P, _):
    """c^e for an exponent e = m/r with gcd(r, P - 1) = 1: c^(m u) with
    u r = 1 modulo P - 1, whose r-th power is c^m."""
    return pow(c, e.numerator * pow(e.denominator, -1, P - 1) % (P - 1), P)


def _r_adjoin(b, i, P, bprod):
    """The root s_i with s_i^2 = b, recorded in `bprod`."""
    bit = 1 << i
    for S in range(len(bprod)):
        if S & bit:
            bprod[S] = bprod[S ^ bit] * b % P
    return tuple([int(S == bit) for S in range(len(bprod))])


# _r_add and _r_mul spell out one and two roots, the common cases


def _r_add(a, b, P, _):
    if type(a) is int:
        a, b = b, a
    if type(b) is int:
        return ((a[0] + b) % P,) + a[1:]
    if len(a) == 2:
        return (a[0] + b[0]) % P, (a[1] + b[1]) % P
    if len(a) == 4:
        return ((a[0] + b[0]) % P, (a[1] + b[1]) % P, (a[2] + b[2]) % P,
                (a[3] + b[3]) % P)
    return tuple([(x + y) % P for x, y in zip(a, b)])


def _r_mul(a, b, P, bprod):
    if type(a) is int:
        a, b = b, a
    if type(b) is int:
        return tuple([x * b % P for x in a])
    if len(a) == 2:
        a0, a1 = a
        b0, b1 = b
        return (a0 * b0 + a1 * b1 * bprod[1]) % P, (a0 * b1 + a1 * b0) % P
    if len(a) == 4:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        _, s1, s2, s12 = bprod
        return ((a0 * b0 + a1 * b1 * s1 + a2 * b2 * s2 + a3 * b3 * s12) % P,
                (a0 * b1 + a1 * b0 + (a2 * b3 + a3 * b2) * s2) % P,
                (a0 * b2 + a2 * b0 + (a1 * b3 + a3 * b1) * s1) % P,
                (a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1) % P)
    out = [0] * len(a)
    for S, x in enumerate(a):
        if x:
            for T, y in enumerate(b):
                if y:
                    out[S ^ T] += x * y * bprod[S & T]
    return tuple([c % P for c in out])


def _r_div(a, b, P, bprod):
    """a / b: both are multiplied by b's conjugates (s_i -> -s_i, for each
    root b carries) until b is its norm, a scalar; a zero norm is a
    division by zero."""
    if type(b) is int:
        return _r_mul(a, _p_div(1, b, P, None), P, bprod)
    if type(a) is int:
        a = (a,) + (0,) * (len(b) - 1)
    bit = 1
    while bit < len(b):
        if any(b[S] for S in range(len(b)) if S & bit):
            conj = tuple([-x if S & bit else x for S, x in enumerate(b)])
            a, b = _r_mul(a, conj, P, bprod), _r_mul(b, conj, P, bprod)
        bit <<= 1
    return _r_mul(a, _p_div(1, b[0], P, None), P, bprod)


def _r_powi(b, k, P, bprod):
    if k < 0:
        b, k = _r_div(1, b, P, bprod), -k
    out = None
    while k:
        if k & 1:
            out = b if out is None else _r_mul(out, b, P, bprod)
        k >>= 1
        if k:
            b = _r_mul(b, b, P, bprod)
    return out


def _deg_add(x, y):  # n1/d1 + n2/d2 = (n1 d2 + n2 d1)/(d1 d2)
    n1, n2 = x[0] + y[1], y[0] + x[1]
    return n1 if n1 > n2 else n2, x[1] + y[1]


def _deg_mul(x, y):
    return x[0] + y[0], x[1] + y[1]


def _deg_div(x, y):
    return x[0] + y[1], x[1] + y[0]


def _deg_pow(x, k):
    return (k * x[0], k * x[1]) if k >= 0 else (-k * x[1], -k * x[0])


_MODULAR = {mpf_add: (_p_add, _deg_add), mpf_mul: (_p_mul, _deg_mul),
            _mpf_div: (_p_div, _deg_div)}


# Degree rules for ring elements, over (numerator, denominator, mask of the
# roots carried): the coordinates are rational functions with numerators of
# degree at most the first entry over a common denominator of degree at
# most the second.  `betas` holds the (numerator, denominator) bounds of
# each root's base.


def _ring_deg_add(x, y, _):
    return _deg_add(x, y) + (x[2] | y[2],)


def _ring_deg_mul(x, y, betas):
    """A coordinate of a product sums products of coordinates, some times
    b_i for roots s_i both factors carry; over the denominators of those
    b_i, every term carries b_i's numerator or its denominator."""
    n, d = _deg_mul(x, y)
    shared = x[2] & y[2]
    if shared:
        for i, (bn, bd) in enumerate(betas):
            if shared & (1 << i):
                n, d = n + max(bn, bd), d + bd
    return n, d, x[2] | y[2]


def _ring_deg_div(x, y, betas):
    for i in range(len(betas)):  # as _r_div, over every root y may carry
        if y[2] & (1 << i):
            x = _ring_deg_mul(x, y, betas)
            n, d, mask = _ring_deg_mul(y, y, betas)
            y = n, d, mask & ~(1 << i)
    return _deg_div(x, y) + (x[2],)


def _ring_deg_pow(x, k, betas):
    if k < 0:
        x, k = _ring_deg_div((0, 0, 0), x, betas), -k
    # each of the k - 1 products adds one x and what squaring x adds
    n, d, _ = _ring_deg_mul(x, x, betas)
    return x[0] + (k - 1) * (n - x[0]), x[1] + (k - 1) * (d - x[1]), x[2]


_RING = {mpf_add: (_r_add, _ring_deg_add), mpf_mul: (_r_mul, _ring_deg_mul),
         _mpf_div: (_r_div, _ring_deg_div)}


def _monomial(code, s, consts, syms, ints):
    """(c, {symbol: exponent}) when slot s of a tape holds c times powers of
    bare symbols, c a positive int or Fraction, or None: every instruction
    s needs is a product, an integer power or a power of a bare symbol."""
    mono = {}

    def get(i):
        if i in mono:
            return mono[i]
        if i in syms:
            return Fraction(1), {syms[i]: 1}
        v = consts.get(i)
        return (Fraction(v), {}) if isinstance(v, RATIONAL) and v > 0 else None

    for f, d, a, b in _needed(code, [s])[0]:
        x = get(a)
        if f is _mpf_pow and a in syms:
            mono[d] = Fraction(1), {syms[a]: consts[b]}
        elif f is _mpf_powi and x:
            k = ints[b]
            mono[d] = x[0] ** k, {n: e * k for n, e in x[1].items()}
        elif f is mpf_mul and x and (y := get(b)):
            xs, ys = x[1], y[1]
            xs = {n: xs.get(n, 0) + ys.get(n, 0) for n in xs | ys}
            mono[d] = x[0] * y[0], {n: e for n, e in xs.items() if e}
        else:
            return None
    return get(s)


class ModularTape:
    """The instructions one group of a `Tape` needs, over the integers
    modulo a prime; built by `Tape.modular`."""

    __slots__ = ("size", "consts", "syms", "ints", "code", "outs", "degrees",
                 "roots", "odd", "rooted")

    def run(self, P, point, roots=None) -> list:
        """The values of the roots modulo the prime P, or of those at the
        indices `roots` alone, running only the instructions they need.
        Each symbol q is bound to t^r for the t in [0, P) that `point` gives
        it.  A value is a residue, and for a value that carries adjoined
        roots the tuple of its coordinates, or 0 when every coordinate is.
        Raises DomainError on a division by zero, a Fraction constant with
        P in its denominator and a ring element of zero norm included.  An
        int or Fraction constant enters as its numerator over its
        denominator."""
        code, outs = self.code, self.outs
        if roots is not None:
            outs = [outs[i] for i in roots]
            code = _needed(code, outs)[0]
        slots = [None] * self.size
        for i, k in self.ints:
            slots[i] = k
        for i, v in self.consts:
            slots[i] = _p_div(v.numerator % P, v.denominator % P, P, None)
        for i, name, r in self.syms:
            slots[i] = pow(point[name], r, P)
        bprod = [1] * (1 << self.roots) if self.roots else None
        for f, d, a, b in code:
            slots[d] = f(slots[a], slots[b], P, bprod)
        out = [slots[i] for i in outs]
        if self.roots:
            return [v if type(v) is int or any(v) else 0 for v in out]
        return out


def evaluate(e: Expression, bindings: dict):
    """Evaluate under the *current* mpmath precision."""
    (v,) = Tape([e]).values(bindings)
    return v


def eval_numeric(e: Expression, point: dict, dps: int = DEFAULT_DPS):
    """Evaluate at a fully bound point with `dps` decimal digits."""
    with mpmath.workdps(dps):
        return evaluate(e, point)


def evaluate_exact(e: Expression, bindings: dict) -> Fraction:
    """Exact rational evaluation: e with its symbols bound to Fractions, as
    the constructors fold it.  Raises EvalError on what a tape cannot
    evaluate in the rationals (a float literal, a non-integer power, a
    function, an Int), DomainError on a division by zero and, as `pow_`
    does, OverflowError on a power of more than MAX_LITERAL_BITS bits.

    Used for polynomial identities, where sampling at rational points decides
    the identity without floating error.
    """
    # the folds would skip what a tape refuses: exp(0) is 1, 0.5*0 is 0
    used = {}
    for n in walk(e, children=_tape_args):
        k = n.kind
        if k in (SYM, FAM):
            name = name_of(n)
            if name not in bindings:
                raise UnboundSymbolError(f"unbound symbol {name!r}")
            used[name] = Fraction(bindings[name])
        elif k == NUM and not isinstance(n.payload, RATIONAL):
            raise EvalError("float literal in exact evaluation")
        elif k == POW and not is_integer_literal(n.args[1]):
            raise EvalError("non-integer power in exact evaluation")
        elif k == FUNC:
            raise EvalError("func node in exact evaluation")
        elif k == INT:
            raise AntiderivativeError(
                "formal antiderivative cannot be evaluated exactly")
    try:
        return Fraction(substitute(e, used).payload)
    except ZeroDivisionError:
        raise DomainError("division by zero") from None


# ---------------------------------------------------------------------------
# printing

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_ATOM = 4


def _is_negative_head(e: Expression) -> bool:
    if e.kind == NUM:
        return e.payload < 0
    if e.kind == MUL and e.args[0].kind == NUM:
        return e.args[0].payload < 0
    return False


def _bits(fr) -> int:
    """The bits of the larger of the numerator and denominator of fr, an int
    or a Fraction."""
    return max(fr.numerator.bit_length(), fr.denominator.bit_length())


def _frac_str(fr):  # an int or a Fraction
    if _bits(fr) > MAX_LITERAL_BITS:
        raise OverflowError(f"a derived literal of more than "
                            f"{MAX_LITERAL_BITS} bits is not printed")
    if fr.denominator == 1:
        return str(fr.numerator), _PREC_ATOM if fr >= 0 else _PREC_ADD
    return f"{fr.numerator}/{fr.denominator}", _PREC_MUL if fr >= 0 else _PREC_ADD


def _printed_args(e: Expression):
    """The nodes whose text the text of e contains: a sum prints a later
    negative-headed term as the negation of its opposite, a product with
    coefficient -1 prints a sign, and sqrt(b) prints b alone."""
    args = e.args
    if e.kind == ADD:
        return [neg(t) if i and _is_negative_head(t) else t
                for i, t in enumerate(args)]
    if e.kind == MUL and args[0].kind == NUM and args[0].payload == -1 \
            and len(args) > 1:
        return args[1:]
    if e.kind == POW and args[1] is HALF:
        return args[:1]
    return args


def _template(e: Expression, prec: dict):
    """(pieces, precedence of the outermost operator) of e, where a piece is
    literal text or an argument node; `prec` holds the arguments'
    precedences."""
    k = e.kind
    args = _printed_args(e)

    def wrapped(a, cond):
        return ["(", a, ")"] if cond else [a]

    if k == NUM:
        if isinstance(e.payload, RATIONAL):
            txt, p = _frac_str(e.payload)
            return [txt], p
        return [repr(e.payload)], _PREC_ATOM if e.payload >= 0 else _PREC_ADD
    if k in (SYM, FAM):
        return [name_of(e)], _PREC_ATOM
    if k == ADD:
        pieces = wrapped(args[0], prec[args[0]] < _PREC_ADD)
        for t, u in zip(e.args[1:], args[1:]):
            if t is u:
                pieces += [" + ", *wrapped(u, prec[u] <= _PREC_ADD)]
            else:
                pieces += [" - ", *wrapped(u, prec[u] < _PREC_MUL)]
        return pieces, _PREC_ADD
    if k == MUL:
        signed = len(args) < len(e.args)
        pieces = ["-"] if signed else []
        for i, a in enumerate(args):
            pieces += ["*"] * (i > 0) + wrapped(
                a, prec[a] < _PREC_MUL or a.kind == DIV)
        return pieces, _PREC_ADD if signed else _PREC_MUL
    if k == DIV:
        a, b = args
        return (wrapped(a, prec[a] < _PREC_MUL) + ["/"]
                + wrapped(b, prec[b] <= _PREC_MUL)), _PREC_MUL
    if k == POW and len(args) == 1:
        return ["sqrt(", args[0], ")"], _PREC_ATOM
    if k == POW:
        b, x = args
        exp_atom = x.kind == NUM and type(x.payload) is not Fraction \
            and x.payload >= 0 or x.kind in (SYM, FAM)
        return (wrapped(b, prec[b] < _PREC_ATOM) + ["^"]
                + wrapped(x, not exp_atom)), _PREC_POW
    if k == FUNC:
        return [f"{e.payload}(", args[0], ")"], _PREC_ATOM
    if k == INT:
        return ["Int(", args[0], f", {e.payload})"], _PREC_ATOM
    raise ExprError(f"unknown node kind {k}")  # pragma: no cover


def to_str(e: Expression) -> str:
    """The text of e.  One walk gives each node its template of literal text
    and argument nodes, memoized for this call; a stack then expands the
    templates, so the work is linear in the length of the text."""
    templates, prec = {}, {}
    for n in walk(e, children=_printed_args):
        templates[n], prec[n] = _template(n, prec)
    out, stack = [], [e]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
        else:
            stack.extend(reversed(templates[piece]))
    return "".join(out)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(\.\d+)?)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op>[-+*/^(),])
""", re.VERBOSE)

_FUNCTIONS = {"sqrt": 1, "exp": 1, "log": 1, "Int": 2}

# deepest nesting the parser accepts; deeper input is a ParseError
MAX_NESTING = 1000
# largest literal power, in bits, that `pow_` folds (its decimal digits
# stay under Python's default limit of 4300 for printing an int); a larger
# one is an OverflowError, which the parser reports as a ParseError at its `^`
MAX_LITERAL_BITS = 4096
# most digits of a number token, those of 2^MAX_LITERAL_BITS: a longer token
# is a ParseError before Python converts its digits
MAX_LITERAL_DIGITS = len(str(2 ** MAX_LITERAL_BITS))


def _bounded(e: Expression) -> Expression:
    """e, or an OverflowError when e is a literal of more than
    MAX_LITERAL_BITS bits, or a sum or product led by one (where `add` and
    `mul` fold their numbers)."""
    c = e.args[0] if e.kind in (ADD, MUL) else e
    if c.kind == NUM and isinstance(c.payload, RATIONAL) \
            and _bits(c.payload) > MAX_LITERAL_BITS:
        raise OverflowError(f"literal larger than {MAX_LITERAL_BITS} bits")
    return e


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# binding power of each operator on the parser's stack; an open bracket or
# function call has none, so no reduction passes it
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pos": 3, "^": 4}
_BINARY = {"+": add, "-": lambda a, b: add(a, neg(b)), "*": mul, "/": div,
           "^": pow_}
_CALLS = {"sqrt": sqrt, "exp": exp, "log": log, "(": lambda a: a}


def parse(text: str, allowed=None) -> Expression:
    """Parse a formula string.

    `allowed`, when given, is the set of acceptable symbol names; indexed
    family symbols (w_0, w_1, ...) are always accepted.

    Operator precedence over explicit stacks (shunting-yard): sums, then
    products and quotients, then a sign, then `^` (right associative), whose
    exponent may carry a sign.  A pending sign or `^` and an open bracket or
    function call each nest the operand that follows one level deeper, and
    an operand deeper than MAX_NESTING is a ParseError.  A number of more
    than MAX_LITERAL_DIGITS digits is a ParseError; so is a literal division
    by zero, at its operator, and any literal, read or folded by an
    operator, of more than MAX_LITERAL_BITS bits.
    """
    tokens = _tokenize(text)
    i = 0
    vals, ops = [], []  # operands; (operator or opener, position, depth)

    def expect(value):
        nonlocal i
        kind, val, pos = tokens[i]
        i += 1
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", pos)

    def reduce(floor):  # apply the operators above `floor` binding power
        while ops and _PREC.get(ops[-1][0], 0) >= floor:
            op, pos, _ = ops.pop()
            try:
                if op == "neg":
                    vals[-1] = neg(vals[-1])
                elif op != "pos":
                    b = vals.pop()
                    vals[-1] = _bounded(_BINARY[op](vals[-1], b))
            except ArithmeticError as err:  # a zero divisor or a huge literal
                raise ParseError(str(err), pos) from None

    while True:
        # an operand: its signs, then an atom
        kind, val, pos = tokens[i]
        depth = ops[-1][2] if ops else 1
        if depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        i += 1
        if val in ("-", "+"):
            ops.append(("neg" if val == "-" else "pos", pos, depth + 1))
            continue
        if val == "(" or kind == "ident" and tokens[i][1] == "(":
            if val != "(":
                if val not in _FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", pos)
                i += 1
            ops.append((val, pos, depth + 1))
            continue
        if kind == "number":
            if len(val) - ("." in val) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"number of more than {MAX_LITERAL_DIGITS} digits", pos)
            try:
                vals.append(_bounded(num(
                    Fraction(val) if "." in val else int(val))))
            except OverflowError as err:
                raise ParseError(str(err), pos) from None
        elif kind == "ident":
            m = _FAMILY_RE.match(val)
            is_family = bool(m and m.group(1) in FAMILY_VARS)
            if allowed is not None and not is_family and val not in allowed:
                raise ParseError(f"unknown identifier {val!r}", pos)
            vals.append(sym(val))
        else:
            raise ParseError(f"unexpected token {val!r}", pos)
        # after an operand: an operator, or the closers of finished brackets
        while True:
            kind, val, pos = tokens[i]
            if val in _BINARY:
                i += 1
                if val != "^":
                    reduce(_PREC[val])
                depth = ops[-1][2] if ops else 1
                ops.append((val, pos, depth + (val == "^")))
                break
            reduce(1)
            if not ops:
                if kind != "end":
                    raise ParseError(f"unexpected trailing input {val!r}", pos)
                return vals[0]
            opener = ops.pop()[0]
            if opener == "Int":
                expect(",")
                vkind, var, vpos = tokens[i]
                i += 1
                if vkind != "ident":
                    raise ParseError("Int needs a variable name", vpos)
                expect(")")
                vals[-1] = antideriv(vals[-1], var)
            else:
                expect(")")
                vals[-1] = _CALLS[opener](vals[-1])
