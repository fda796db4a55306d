"""The seven-generator finite presentation and its evaluation homomorphism.

Free words live over the alphabet {T_w0, T_s0, T_s1, B_m, B_p, B_z0,
B_z1}; no relations are applied at this level.  A free element is a
combination of the core in coeff.py keyed on words (tuples of letters),
with concatenation as its product.  Normalization in the quotient is
performed by evaluating into the concrete model: the machine checks are
that every relator evaluates to zero and that every basis symbol is hit
by an explicit word (constructive surjectivity).

The free idempotents mirror the concrete ones.  Their summation bound is
configurable: the default 'p-2' sums over the p-1 torus classes; the
alternative reading 'p-1' adds one more power of the torus generator,
which double-counts the identity class and makes the quadratic relators
fail to vanish.  The verification suites distinguish the two.

Relators pair up under the uniformizer conjugation iota: each pair is
printed for s0 on the blocks (T_s0, T_s1, B_m, B_p, B_z0, B_z1, e_id,
e_id^-1, +1) and built again on (T_s1, T_s0, B_p, B_m, B_z1, B_z0, e_id^-1,
e_id, -1), the side table _SIDES.  That is iota with runs of T_w0 reduced
mod p - 1; the sign stands for the -1 iota puts on B_z, on the terms whose
count of B_z letters differs in parity from the first term's.  The six
torus-commutation relators (deg0_02/03, bimodule_13-16) stay printed: their
iota-images are not +-1 times a listed relator.
"""

from __future__ import annotations

from itertools import compress, count
from operator import ne

from .coeff import Combination, _orbit, add_into, check_index, check_parameters
from .graded import BasisSymbol, ExtAlgebra, GradedElement
from .product import _multiply
from .sections import TensorExpression, _section2_symbol, _section3_symbol
from .weyl import S0, S1, WeylElement

__all__ = [
    "LETTERS",
    "LETTER_NAMES",
    "FreeElement",
    "free_letter",
    "free_one",
    "free_idempotent",
    "generator_images",
    "evaluate",
    "hecke_relators",
    "bimodule_relators",
    "kernel_relators",
    "all_relators",
    "word_for_basis",
]

T_W0, T_S0, T_S1, B_M, B_P, B_Z0, B_Z1 = range(7)
LETTERS = (T_W0, T_S0, T_S1, B_M, B_P, B_Z0, B_Z1)
LETTER_NAMES = ("T_w0", "T_s0", "T_s1", "B_m", "B_p", "B_z0", "B_z1")


class FreeElement(Combination):
    """k-linear combination of words in the seven presentation letters."""

    __slots__ = ("coeffs",)

    def _product(self, other: "FreeElement") -> "FreeElement":
        check_parameters(self.algebra, other.algebra)
        # raw int sums in the hot loop, reduced once by make
        out: dict = {}
        for wa, ca in self.coeffs.items():
            for wb, cb in other.coeffs.items():
                w = wa + wb
                out[w] = out.get(w, 0) + ca * cb
        return FreeElement.make(self.algebra, out)

    def __pow__(self, n: int) -> "FreeElement":
        if n < 0:
            raise ValueError("free words have no inverses")
        acc = free_one(self.algebra)
        for _ in range(n):
            acc = acc * self
        return acc

    def word_count(self) -> int:
        return len(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for word, c in sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0])):
            name = "*".join(LETTER_NAMES[l] for l in word) if word else "1"
            bits.append(f"{c}*{name}")
        return " + ".join(bits)


def free_letter(alg: ExtAlgebra, letter: int) -> FreeElement:
    return FreeElement(alg, {(letter,): 1})


def free_one(alg: ExtAlgebra) -> FreeElement:
    return FreeElement(alg, {(): 1})


def free_idempotent(alg: ExtAlgebra, m: int, bound: str = "p-2") -> FreeElement:
    """The free-algebra mirror of the torus idempotent for id^m.

    bound 'p-2' sums i = 0 .. p-2 (one term per torus class), with the
    coefficients of HeckeAlgebra.idempotent; 'p-1' sums one power further,
    -T_w0^(p-1), double-counting the identity class.
    """
    check_index(m)
    if bound not in ("p-2", "p-1"):
        raise ValueError(f"bound must be 'p-2' or 'p-1', got {bound!r}")
    F = alg.field
    coeffs = {(T_W0,) * i: c for i, c in enumerate(_orbit(F.p, F.u0, -m % F.order))}
    if bound == "p-1":
        coeffs[(T_W0,) * F.order] = F.p - 1
    return FreeElement(alg, coeffs)


# the letter of each bimodule generator beta^sign at the support w(0; word),
# keyed by (sign, word)
_B_LETTERS = {(-1, ()): B_M, (1, ()): B_P, (0, (S0,)): B_Z0, (0, (S1,)): B_Z1}


def generator_images(alg: ExtAlgebra) -> dict[int, GradedElement]:
    W = alg.weyl
    images = {T_W0: alg.tau(W.omega(1)), T_S0: alg.tau(W.s0), T_S1: alg.tau(W.s1)}
    for (sign, word), letter in _B_LETTERS.items():
        images[letter] = alg.beta(sign, W.element(0, word))
    return images


class _Prefixes:
    """The values of free words, each prefix multiplied out once: the value
    of a word is the value of its prefix times the image of its last letter.
    For each first letter it keeps the path of the last word read with that
    letter, values[i] the row of prev[:i]; a zero row ends the path, as every
    word that shares that prefix is zero.  Each new prefix costs one product
    on symbolic rows (a torus idempotent stays a character key)."""

    def __init__(self, alg: ExtAlgebra):
        self.alg = alg
        self.images = {letter: x.coeffs for letter, x in generator_images(alg).items()}
        self.one = alg.one().coeffs
        self.paths: dict = {}  # word[:1] -> (prev, values)

    def value(self, word: tuple) -> dict:
        prev, values = self.paths.get(word[:1]) or ((), [self.one])
        shared = next(compress(count(), map(ne, word, prev)), min(len(word), len(prev)))
        del values[shared + 1:]
        for letter in word[shared:]:
            if not values[-1]:
                break
            values.append(_multiply(self.alg, values[-1], self.images[letter]))
        self.paths[word[:1]] = word, values
        return values[-1]

    def row(self, f: FreeElement) -> dict:
        """The symbolic row of f, its words read in sorted order, so that the
        words with one first letter come in one block."""
        total: dict = {}
        for word, c in sorted(f.coeffs.items()):
            add_into(total, self.value(word).items(), c, self.alg.field.p)
        return total


def evaluate(f: FreeElement) -> GradedElement:
    """Substitute the concrete generators and multiply left to right, each
    prefix once (_Prefixes): the element of the symbolic row of the sum."""
    alg = f.algebra
    return GradedElement(alg, _Prefixes(alg).row(f))


# --- the relator lists ---


# The blocks of the paired formulas on each side (the module docstring):
# (T_s0, T_s1, B_m, B_p, B_z0, B_z1, m of e_id, m of e_id^-1, sign).
_SIDES = (
    (T_S0, T_S1, B_M, B_P, B_Z0, B_Z1, 1, -1, 1),
    (T_S1, T_S0, B_P, B_M, B_Z1, B_Z0, -1, 1, -1),
)


def _paired(alg: ExtAlgebra, bound: str, formulas) -> list[FreeElement]:
    """formulas, the s0 members of some pairs as a function of the blocks,
    evaluated on both sides: each s0 member followed by its s1 member."""
    sides = [
        formulas(*(free_letter(alg, letter) for letter in side[:6]),
                 *(free_idempotent(alg, m, bound) for m in side[6:8]), side[8])
        for side in _SIDES
    ]
    return [r for pair in zip(*sides) for r in pair]


def hecke_relators(alg: ExtAlgebra, bound: str = "p-2") -> list[FreeElement]:
    """Five relators presenting the degree-0 subalgebra."""
    p = alg.field.p
    tw, ts0, ts1 = (free_letter(alg, letter) for letter in (T_W0, T_S0, T_S1))
    eps1 = free_idempotent(alg, 0, bound)
    return [
        tw ** (p - 1) - free_one(alg),
        tw * ts0 - ts0 * tw ** (p - 2),
        tw * ts1 - ts1 * tw ** (p - 2),
        *_paired(alg, bound, lambda ts0, *_: [ts0 * ts0 + eps1 * ts0]),
    ]


def bimodule_relators(alg: ExtAlgebra, bound: str = "p-2") -> list[FreeElement]:
    """Sixteen relators presenting degree 1 as a bimodule over degree 0."""
    p = alg.field.p
    tw = free_letter(alg, T_W0)
    eps1 = free_idempotent(alg, 0, bound)

    def pairs(ts0, ts1, bm, bp, bz0, bz1, eps_id, eps_idinv, sign):
        qs0 = ts0 + eps1
        return [
            ts1 * bm,
            bp * ts0,
            qs0 * bm * qs0 + (eps_id * bz0).scale(2 * sign) + tw ** ((p - 1) // 2) * bp,
            ts0 * bz1 + bz0 * ts1,
            qs0 * bz0 + (eps_id * ts0 * bm).scale(sign),
            bz0 * qs0 + (eps_idinv * bm * ts0).scale(sign),
        ]

    bm, bp, bz0, bz1 = (free_letter(alg, letter) for letter in (B_M, B_P, B_Z0, B_Z1))
    return _paired(alg, bound, pairs) + [
        tw * bm - (bm * tw).scale(alg.field.root_pow(-2)),
        tw * bp - (bp * tw).scale(alg.field.root_pow(2)),
        tw * bz0 - bz0 * tw ** (p - 2),
        tw * bz1 - bz1 * tw ** (p - 2),
    ]


def kernel_relators(alg: ExtAlgebra, bound: str = "p-2") -> list[FreeElement]:
    """Fifteen relators lifting the kernel generators of the tensor algebra:
    ten monomials, two pairs, and the sum of the two halves of the last."""
    eps1 = free_idempotent(alg, 0, bound)

    def pairs(ts0, ts1, bm, bp, bz0, bz1, eps_id, eps_idinv, sign):
        return [
            bz0 * bz0 + (eps_idinv * bm * bz0 + eps_id * bz0 * bm).scale(sign)
            + eps1 * bm * ts0 * bm,
            bz0 * bm * ts0 - ts0 * bm * bz0,
            (ts0 + eps1) * bm * bz0 * bm,
        ]

    monomials = [(B_M, B_M), (B_P, B_M), (B_Z1, B_M), (B_M, B_P), (B_P, B_P),
                 (B_Z0, B_P), (B_P, B_Z0), (B_Z1, B_Z0), (B_M, B_Z1), (B_Z0, B_Z1)]
    *paired, half0, half1 = _paired(alg, bound, pairs)
    return [FreeElement(alg, {word: 1}) for word in monomials] + paired + [half1 + half0]


def all_relators(alg: ExtAlgebra, bound: str = "p-2") -> list[tuple[str, FreeElement]]:
    """All 36 relators, with stable names."""
    lists = (("deg0", hecke_relators), ("bimodule", bimodule_relators), ("kernel", kernel_relators))
    return [(f"{name}_{idx:02d}", r) for name, relators in lists
            for idx, r in enumerate(relators(alg, bound), start=1)]


# --- constructive surjectivity ---


def _word_for_weyl(w: WeylElement) -> tuple[int, ...]:
    """The canonical spanning word for tau_w (T_s1 = T_s0 + 1, as s1 = s0 + 1)."""
    return (T_W0,) * w.exp + tuple(T_S0 + letter for letter in w.word)


def _word_for_tensor(alg: ExtAlgebra, t: TensorExpression) -> FreeElement:
    """The words of the slots of each term, concatenated; a character-key
    slot e_m s0 is spelled free_idempotent(m) (the 'p-2' bound) times the
    word of s0."""
    out: dict = {}
    for c, syms in t.terms:
        acc = free_one(alg)
        for s in syms:
            if len(s) == 4:
                acc = acc * free_idempotent(alg, s[0]) * word_for_basis(alg, alg._base(s))
            else:
                acc = acc * word_for_basis(alg, s)
        add_into(out, acc.coeffs.items(), c, alg.field.p)
    return FreeElement(alg, out)


def word_for_basis(alg: ExtAlgebra, sym: BasisSymbol) -> FreeElement:
    """A free word evaluating to the given basis symbol.

    Degree 0 is the word of tau_w, degree 1 the factorization through the
    four bimodule generators, and degrees 2 and 3 the words of the slots of
    the symbol's section (_word_for_tensor).  At a torus support a section
    slot may be a character key e_m s0, spelled with free_idempotent(m) at
    the 'p-2' bound whatever bound the relators use; so the word of such a
    symbol is a sum of about 3(p - 1) words in degree 2 and p in degree 3.
    """
    if sym.degree == 0:
        return FreeElement(alg, {_word_for_weyl(sym.support): 1})
    if sym.degree == 1:
        c, left, g, right = alg.factor_through_generators(sym)
        letter = _B_LETTERS[g.sign, g.support.word]
        return FreeElement.make(alg, {_word_for_weyl(left) + (letter,) + _word_for_weyl(right): c})
    if sym.degree == 2:
        return _word_for_tensor(alg, _section2_symbol(alg, sym))
    return _word_for_tensor(alg, _section3_symbol(alg, sym))
