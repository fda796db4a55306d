"""The seven-generator finite presentation and its evaluation homomorphism.

Free words live over the alphabet {T_w0, T_s0, T_s1, B_m, B_p, B_z0,
B_z1}; no relations are applied at this level.  A free element is a
combination of the core in coeff.py keyed on words (tuples of letters),
with concatenation as its product.  Normalization in the quotient is
performed by evaluating into the concrete model: the machine checks are
that every relator evaluates to zero and that every basis symbol is hit
by an explicit word (constructive surjectivity).

The free idempotents mirror the concrete ones.  A word may hold one more
kind of token, E(m): the torus idempotent e_m as one element of E0, as in
the tensor algebra T_{E0} E1 of the presentation.  It is defined by its
expansion, the p - 1 words T_w0^i with the coefficients of
HeckeAlgebra.idempotent (FreeElement.expand), and evaluates to the
character key of e_m in one product; repr, the relator export and the
presentation_free_idempotents check read the expanded words.  The
summation bound is configurable: the default 'p-2' is the token alone,
one term per torus class; the alternative reading 'p-1' adds one more
power of the torus generator, which double-counts the identity class and
makes the quadratic relators fail to vanish.  The verification suites
distinguish the two.

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

from operator import countOf

from .coeff import Combination, _orbit, add_into, check_index, check_parameters
from .graded import BasisSymbol, ExtAlgebra, GradedElement
from .product import _multiply
from .sections import _section2_symbol, _section3_symbol
from .weyl import S0, S1, WeylElement, _weyl

__all__ = [
    "E",
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
_LETTER_BYTES = bytes(LETTERS)
_TOKEN = 7  # the byte of a token E(m) in _letters


class E:
    """The free token E(m), the torus idempotent e_m as one letter.  Tokens
    are interned, one per m, so words holding them hash and compare as
    fast as words of ints; they are not ordered."""

    __slots__ = ("m",)
    _interned: dict = {}

    def __new__(cls, m: int):
        check_index(m)
        token = cls._interned.get(m)
        if token is None:
            token = cls._interned[m] = object.__new__(cls)
            token.m = m
        return token

    def __reduce__(self):
        return E, (self.m,)

    def __repr__(self):
        return f"E({self.m})"


class FreeElement(Combination):
    """k-linear combination of words in the seven presentation letters and
    the tokens E(m).  == compares the words as they are, tokens included."""

    __slots__ = ("coeffs",)

    def _product(self, other: "FreeElement") -> "FreeElement":
        check_parameters(self.algebra, other.algebra)
        return FreeElement.make(self.algebra, _concat(self.coeffs, other.coeffs))

    def __pow__(self, n: int) -> "FreeElement":
        if type(n) is not int:
            raise ValueError(f"the exponent must be an int, got {n!r}")
        if n < 0:
            raise ValueError("free words have no inverses")
        acc = free_one(self.algebra)
        for _ in range(n):
            acc = acc * self
        return acc

    def word_count(self) -> int:
        return len(self.coeffs)

    def expand(self) -> "FreeElement":
        """This element in the seven letters: each token E(m) spelled as the
        p - 1 words T_w0^i of e_m."""
        F, out = self.algebra.field, {}
        for word, c in self.coeffs.items():
            acc, start = {(): c}, 0
            for i, letter in enumerate(_letters(word)):
                if letter == _TOKEN:  # the letters since the last token, then T_w0^k
                    spelled = _orbit(F.p, F.u0, -word[i].m % F.order)
                    acc = _concat(acc, {word[start:i] + (T_W0,) * k: x for k, x in enumerate(spelled)})
                    start = i + 1
            _concat(acc, {word[start:]: 1}, out)
        return FreeElement.make(self.algebra, out)

    def __repr__(self):
        """The expanded words, shortest first."""
        coeffs = self.expand().coeffs
        if not coeffs:
            return "0"
        bits = []
        for word, c in sorted(coeffs.items(), key=lambda kv: (len(kv[0]), kv[0])):
            name = "*".join(LETTER_NAMES[l] for l in word) if word else "1"
            bits.append(f"{c}*{name}")
        return " + ".join(bits)


def _concat(a: dict, b: dict, out: dict | None = None) -> dict:
    """out plus the product of two plain maps word -> int, out a new map if
    None: raw int sums, which the caller reduces once (make)."""
    out = {} if out is None else out
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            out[w] = out.get(w, 0) + ca * cb
    return out


def free_letter(alg: ExtAlgebra, letter: int) -> FreeElement:
    return FreeElement(alg, {(letter,): 1})


def free_one(alg: ExtAlgebra) -> FreeElement:
    return FreeElement(alg, {(): 1})


def free_idempotent(alg: ExtAlgebra, m: int, bound: str = "p-2") -> FreeElement:
    """The free-algebra mirror of the torus idempotent for id^m.

    bound 'p-2' is the one-token word E(m mod p - 1), whose expansion sums
    T_w0^i for i = 0 .. p-2 (one term per torus class) with the
    coefficients of HeckeAlgebra.idempotent; 'p-1' sums one power further,
    -T_w0^(p-1), double-counting the identity class.
    """
    check_index(m)
    if bound not in ("p-2", "p-1"):
        raise ValueError(f"bound must be 'p-2' or 'p-1', got {bound!r}")
    F = alg.field
    coeffs = {(E(m % F.order),): 1}
    if bound == "p-1":
        coeffs[(T_W0,) * F.order] = F.p - 1
    return FreeElement(alg, coeffs)


# the letter of each bimodule generator beta^sign at the support w(0; word),
# keyed by (sign, word)
_B_LETTERS = {(-1, ()): B_M, (1, ()): B_P, (0, (S0,)): B_Z0, (0, (S1,)): B_Z1}


# the symbol of each letter's image, the same at every p: tau at omega, s0
# and s1, and the bimodule generators
_IMAGES = {T_W0: BasisSymbol(0, None, _weyl((1, ()))), T_S0: BasisSymbol(0, None, _weyl((0, (S0,)))),
           T_S1: BasisSymbol(0, None, _weyl((0, (S1,))))}
_IMAGES.update((letter, BasisSymbol(1, sign, _weyl((0, word)))) for (sign, word), letter in _B_LETTERS.items())


def generator_images(alg: ExtAlgebra) -> dict[int, GradedElement]:
    return {letter: GradedElement(alg, {sym: 1}) for letter, sym in _IMAGES.items()}


def _letters(word: tuple) -> bytes:
    """The letters of a word as bytes, a token E(m) as the byte 7, after
    refusing a letter that is neither a token nor one of the ints 0..6
    (bytes() alone takes a bool for 0 or 1)."""
    try:
        letters = bytes(word)
    except (TypeError, ValueError):  # a token, or a letter that is not an int in 0..255
        letters = None
    if (letters is None or letters.translate(None, _LETTER_BYTES)
            or countOf(map(type, word), int) != len(word)):
        for i, x in enumerate(word):
            if type(x) is not E and (type(x) is not int or not 0 <= x < 7):
                raise ValueError(f"word {word!r}: letter {x!r} at position {i} "
                                 "is not one of the ints 0..6 or a token E(m)")
        letters = bytes([_TOKEN if type(x) is E else x for x in word])
    return letters


class _Suffixes:
    """The values of free words read right to left, through a trie of the
    suffixes read so far: the value of x s is the image of x times the value
    of s, one product on symbolic rows.  A run x^k is one step: runs[x] at
    the node of s holds the values of x s, x x s, ... and, for each k a word
    read past, the runs below x^k s; so a word whose suffix is known costs
    one step per run.  A token E(m) is a run of its own, whose image is the
    character key of e_m.  A zero value ends the walk.  As the product is
    associative (the assoc suite), this is the word multiplied from the left."""

    def __init__(self, alg: ExtAlgebra):
        self.alg = alg
        self.images = {letter: x.row for letter, x in generator_images(alg).items()}
        self.one, self.runs = alg.one().coeffs, {}

    def value(self, word: tuple) -> dict:
        letters, images = _letters(word), self.images
        value, runs, end = self.one, self.runs, len(letters)
        while end and value:
            if letters[end - 1] == _TOKEN:
                letter, start = word[end - 1], end - 1
                if letter not in images:
                    images[letter] = self.alg.idempotent(letter.m).row
            else:  # the run letter^k is letters[start:end], k = end - start
                letter, start = letters[end - 1], len(letters[:end].rstrip(letters[end - 1:end]))
            values, below = runs.setdefault(letter, ([], {}))
            while len(values) < end - start:
                values.append(_multiply(self.alg, images[letter], values[-1] if values else value))
            if start:
                runs = below.setdefault(end - start, {})
            value, end = values[end - start - 1], start
        return value

    def row(self, f: FreeElement) -> dict:
        """The symbolic row of f."""
        total: dict = {}
        for word, c in f.coeffs.items():
            add_into(total, self.value(word).items(), c, self.alg.field.p)
        return total


def evaluate(f: FreeElement) -> GradedElement:
    """Substitute the concrete generators and multiply each word right to
    left, each suffix once (_Suffixes): the element of the symbolic row of
    the sum."""
    alg = f.algebra
    return GradedElement(alg, _Suffixes(alg).row(f))


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


def _slot_word(alg: ExtAlgebra, s) -> tuple[tuple, int]:
    """The one word, and its coefficient, of a symbol of degree 0 or 1, or of
    a character key e_m s0: the token E(m) followed by the word of s0."""
    if len(s) == 4:
        word, c = _slot_word(alg, alg._base(s))
        return (E(s[0]),) + word, c
    if s.degree == 0:
        return _word_for_weyl(s.support), 1
    c, left, g, right = alg.factor_through_generators(s)
    return _word_for_weyl(left) + (_B_LETTERS[g.sign, g.support.word],) + _word_for_weyl(right), c


def _words(alg: ExtAlgebra, sym: BasisSymbol, slots: dict) -> dict:
    """The words of word_for_basis(sym) as a plain map word -> int, unreduced;
    slots keeps the word of each section slot spelled."""
    if sym.degree < 2:
        word, c = _slot_word(alg, sym)
        return {word: c}
    out: dict = {}
    section = _section2_symbol if sym.degree == 2 else _section3_symbol
    for c, syms in section(alg, sym).terms:
        word = ()
        for s in syms:
            if s not in slots:
                slots[s] = _slot_word(alg, s)
            word, c = word + slots[s][0], c * slots[s][1]
        out[word] = out.get(word, 0) + c
    return out


def word_for_basis(alg: ExtAlgebra, sym: BasisSymbol, slots: dict | None = None) -> FreeElement:
    """A free word evaluating to the given basis symbol.

    Degree 0 is the word of tau_w, degree 1 the factorization through the
    four bimodule generators, and degrees 2 and 3 the words of the slots of
    each term of the symbol's section, concatenated.  At a torus support a
    section slot may be a character key e_m s0, spelled as the token E(m)
    followed by the word of s0; so the word of a symbol is a sum of at most
    4 words in degree 2 and 2 in degree 3, as many as its section has terms.
    slots, a dict the caller keeps across calls, holds the word of each
    slot spelled so far, so that each distinct slot is spelled once.
    """
    return FreeElement.make(alg, _words(alg, sym, {} if slots is None else slots))
