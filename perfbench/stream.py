"""Inputs and closed-form references of the stream-distinct workload.

Three one-parameter families whose verdict is known in closed form, for
any nonzero constant c:

* ode3:  y''' = c (y'')^k.  With F = c q^k the Wuenschmann invariant is
  W = 9 D^2 F_q - 27 D F_p - 18 F_q D F_q + 4 F_q^3 + 18 F_q F_p + 54 F_y
    = 2 c^3 k (2k - 3)(k - 3) q^(3k - 3),
  so the equation is generic iff k is not in {0, 3/2, 3}.  The rescaling
  y -> a y, x -> -x maps c to any other nonzero value, so the non-generic
  verdicts are those of c = 1: k = 0 is the flat model y''' = const
  (einstein-weyl), k = 3/2 is einstein-weyl and k = 3 fails only the Cartan
  condition (wuenschmann).
* ode2:  y'' = c (y')^k.  With Q = c p^k the two point invariants are
  Q_pppp = c k(k-1)(k-2)(k-3) p^(k-4) and
  D^2 Q_pp - 4 D Q_py - Q_p D Q_pp + 6 Q_yy - 3 Q_y Q_pp + 4 Q_p Q_py
    = c^3 k(k-1)(k-2)(k-3) p^(3k-4),
  so both vanish, and with them the Weyl tensor, iff k is in {0, 1, 2, 3}.
* monge: z' = c (y'')^k.  The numerator of the invariant a5 of F = q^k is
  -k^4 (k-2)(k-1)^4 (k+1)(3k-2)(3k-1); z -> c z multiplies it by c^4, so a5
  vanishes iff k is in {-1, 1/3, 2/3, 2} (k = 0, 1 have F_qq = 0 and are
  outside the class).

Nothing here imports the engine: these references are what the engine's
verdicts are checked against.
"""

from __future__ import annotations

import random
from fractions import Fraction

FAMILIES = ("ode3", "ode2", "monge")

EXPONENTS = {
    "ode3": tuple(map(Fraction, ("0", "3/2", "3", "1", "2", "1/2", "5/2", "-1"))),
    "ode2": tuple(map(Fraction, ("0", "1", "2", "3", "4", "1/2", "5/2", "-1"))),
    "monge": tuple(map(Fraction, ("-1", "1/3", "2/3", "2", "3", "5/2", "-2", "4"))),
}

# Each block holds every (exponent, sign of c) class of every family once,
# with a fresh c, so all blocks do the same mix of new formulas.  After every
# three new formulas comes one repeat of an earlier formula under a new
# sampling seed; the repeated classes follow a fixed cycle that covers every
# class once in three blocks.  A pass is one such cycle of three blocks, so
# every pass does the same mix of work and has the same verdicts failing,
# whatever the seed.
NEW_PER_REPEAT = 3
PASS_BLOCKS = NEW_PER_REPEAT
# Largest numerator and denominator of |c|: enough distinct values that no
# class runs out of fresh constants within STREAM_PASSES.
C_RANGE = 24
STREAM_PASSES = 20


def ode3_verdict(k: Fraction) -> str:
    if k in (0, Fraction(3, 2)):
        return "einstein-weyl"
    if k == 3:
        return "wuenschmann"
    return "generic"


def ode2_flat(k: Fraction) -> bool:
    return k in (0, 1, 2, 3)


def a5_zero(k: Fraction) -> bool:
    return k in (-1, Fraction(1, 3), Fraction(2, 3), 2)


def expected(family: str, k: Fraction):
    return {"ode3": ode3_verdict, "ode2": ode2_flat, "monge": a5_zero}[family](k)


def may_fail(family: str, c: Fraction, k: Fraction) -> bool:
    """Whether the zero test is expected to give up on the formula.

    a5 divides by F_qq^(20/3), and F_qq = c k (k-1) q^(k-2) is negative on
    the whole box when c k (k-1) < 0, so every sample point fails to
    evaluate and the test raises BoxError.  For k = 2, F_qqq = 0 and a5 is
    built as a literal zero, so no point is sampled.  No other formula of
    the stream may fail.
    """
    return family == "monge" and k != 2 and c * k * (k - 1) < 0


def formula(family: str, c: Fraction, k: Fraction) -> str:
    var = "p" if family == "ode2" else "q"
    return f"({c})*{var}^({k})"


def box(family: str, k: Fraction) -> dict:
    """Sampling intervals; a non-integer power keeps its base in [0.5, 2]."""
    if family == "monge":
        return {"x": (-1.0, 1.0), "y": (-1.0, 1.0), "p": (-1.0, 1.0),
                "q": (0.5, 2.0), "z": (-1.0, 1.0)}
    names = ("x", "y", "p", "phi") if family == "ode2" else ("x", "y", "p", "q")
    out = {n: (-1.0, 1.0) for n in names}
    if k.denominator != 1:
        out["p" if family == "ode2" else "q"] = (0.5, 2.0)
    return out


def generate(seed: int, passes: int = STREAM_PASSES) -> list:
    """The stream as a list of passes, each a list of operations.

    An operation is a dict with the family, the exponent k, the constant c,
    the sampling seed, the formula text, whether it repeats an earlier
    formula, the oracle's verdict and whether the zero test may give up on
    it.  The same seed gives the same stream.
    """
    rng = random.Random(f"stream-distinct:{seed}")
    classes = [(family, EXPONENTS[family][i], sign)
               for i in range(len(EXPONENTS["ode3"]))
               for sign in (1, -1) for family in FAMILIES]
    per_block = len(classes) // NEW_PER_REPEAT
    used = set()
    earlier = {cls: [] for cls in classes}  # constants of previous blocks
    out = []
    for b in range(passes * PASS_BLOCKS):
        fresh = {}
        for family, k, sign in classes:
            while True:
                c = sign * Fraction(rng.randint(1, C_RANGE), rng.randint(1, C_RANGE))
                if (family, k, c) not in used:
                    break
            used.add((family, k, c))
            fresh[family, k, sign] = c
        pending = list(fresh)
        rng.shuffle(pending)
        block, placed = [], set()

        def place(cls):
            pending.remove(cls)
            placed.add(cls)
            block.append(_op(cls[0], cls[1], fresh[cls], rng.randrange(2 ** 31), False))

        start = (b % NEW_PER_REPEAT) * per_block
        for cls in classes[start:start + per_block]:
            for _ in range(NEW_PER_REPEAT):
                if pending:
                    place(pending[0])
            if b == 0:
                # the first block repeats its own formulas, placed first
                if cls not in placed:
                    place(cls)
                c = fresh[cls]
            else:
                c = rng.choice(earlier[cls])
            block.append(_op(cls[0], cls[1], c, rng.randrange(2 ** 31), True))
        while pending:
            place(pending[0])
        for cls, c in fresh.items():
            earlier[cls].append(c)
        if b % PASS_BLOCKS == 0:
            out.append([])
        out[-1].extend(block)
    return out


def _op(family, k, c, sample_seed, repeat):
    return {"family": family, "k": k, "c": c, "seed": sample_seed,
            "text": formula(family, c, k), "repeat": repeat,
            "expect": expected(family, k), "may_fail": may_fail(family, c, k)}


# Catalog entries that are members of the families with c = 1, and the
# expectation key each oracle must reproduce.
_OVERLAP = (
    ("ode3-pow-3-2", "ode3", "3/2", "q^(3/2)", ("classification",)),
    ("ode3-square", "ode3", "2", "q^2", ("classification",)),
    ("ode3-cube", "ode3", "3", "q^3", ("classification",)),
    ("ode2-psq", "ode2", "2", "p^2", ("w1_zero", "w2_zero", "weyl_zero")),
    ("ode2-pcube", "ode2", "3", "p^3", ("w1_zero", "w2_zero", "weyl_zero")),
    ("ode2-pquart", "ode2", "4", "p^4", ("w1_zero", "w2_zero", "weyl_zero")),
    ("g32-hilbert", "monge", "2", "q^2", ("a5_zero",)),
)


def self_check(entries: dict) -> list:
    """Disagreements between the oracles and the catalog where they overlap."""
    problems = []
    for entry_id, family, k, text, keys in _OVERLAP:
        entry = entries.get(entry_id)
        if entry is None or entry.get("formula") != text:
            problems.append(f"{entry_id}: not the catalog member {text}")
            continue
        want = expected(family, Fraction(k))
        for key in keys:
            if entry["expect"].get(key) != want:
                problems.append(f"{entry_id}.{key}: catalog says "
                                f"{entry['expect'].get(key)!r}, oracle {want!r}")
    return problems
