"""The pro-p Iwahori-Weyl group of SL2(Qp) in normal form.

Elements are written uniquely as (a power of the fixed torus generator)
times an alternating word in the two simple reflections s0, s1.  The
reflections satisfy s0^2 = s1^2 = c, where c is the central torus element
of exponent (p-1)/2, and conjugating the torus generator by a reflection
inverts it.  Multiplication counts, in one loop, the k cancellations
where the two words meet (the last letter of the left word equal to the
first of the right, and so on inward), drops those 2k letters and emits
one central c per cancellation; the rest joins into one alternating word.
"""

from __future__ import annotations

from functools import cache, lru_cache, partial
from operator import itemgetter

from .coeff import PrimeField

__all__ = ["S0", "S1", "WeylElement", "WeylGroup"]

S0 = 0
S1 = 1
LETTER_NAMES = ("s0", "s1")


class WeylElement(tuple):
    """Normal form: the flat tuple (exp, word) of a torus exponent mod p-1
    and an alternating word; it hashes and compares in C.  It does not
    carry its group, and group operations live on WeylGroup:
    `WeylElement(W, exp, word)` reads W to reduce exp and check the word,
    and unpickling passes None and keeps the stored tuple."""

    __slots__ = ()

    def __new__(cls, group: "WeylGroup | None", exp: int = 0, word: tuple[int, ...] = ()):
        if group is not None:
            if type(exp) is not int:
                raise ValueError(f"the torus exponent must be an int, got {exp!r}")
            exp, word = exp % group.n, _alternating(word)
        return tuple.__new__(cls, (exp, word))

    exp = property(itemgetter(0))
    word = property(itemgetter(1))

    @property
    def length(self) -> int:
        return len(self[1])

    def __getnewargs__(self):
        return (None, *self)

    def __repr__(self):
        letters = " ".join(LETTER_NAMES[l] for l in self.word)
        return f"w({self.exp};{(' ' + letters) if letters else ''})"


# build WeylElement((exp, word)) unchecked, for exponents already reduced mod p - 1
_weyl = partial(tuple.__new__, WeylElement)


def _alternating(word) -> tuple[int, ...]:
    """word as a tuple, checked to be an alternating word in s0, s1."""
    word = tuple(word)
    for a, b in zip(word, word[1:]):
        if a == b:
            raise ValueError(f"word {word} is not alternating")
    if any(l not in (S0, S1) for l in word):
        raise ValueError(f"letters must be s0/s1, got {word}")
    return word


@cache
def _alternating_word(first: int, length: int) -> tuple[int, ...]:
    """The alternating word of this length that starts with first."""
    return tuple((first + j) % 2 for j in range(length))


@lru_cache(maxsize=128)
def _orbit_table(n: int, word: tuple[int, ...]) -> tuple[WeylElement, ...]:
    """The torus orbit of a word: omega^e word at index e, for e in [0, n).
    An entry holds n elements, about 90 KB at p=1009, so the cache is
    bounded (about 12 MB there)."""
    return tuple([_weyl((e, word)) for e in range(n)])


class WeylGroup:
    """Parent object carrying the modulus p - 1 and the element constructors."""

    def __init__(self, fld: PrimeField):
        self.field = fld
        self.n = fld.order          # torus exponents live mod p - 1
        self.half = self.n // 2     # exponent of the central element s_i^2
        self.identity = _weyl((0, ()))
        self.s0 = _weyl((0, (S0,)))
        self.s1 = _weyl((0, (S1,)))

    def element(self, exp: int, word=()) -> WeylElement:
        return WeylElement(self, exp, word)

    def omega(self, exp: int) -> WeylElement:
        """The exp-th power of the torus generator."""
        return _weyl((exp % self.n, ()))

    def elements(self, max_length: int) -> list[WeylElement]:
        """All elements of length <= max_length, by length, first letter, exponent.
        A max_length that is not an int >= 0 (a bool is not one) is refused."""
        if type(max_length) is not int or max_length < 0:
            raise ValueError(f"max_length must be an int >= 0, got {max_length!r}")
        words = [()] + [_alternating_word(first, ln)
                        for ln in range(1, max_length + 1) for first in (S0, S1)]
        return [_weyl((e, word)) for word in words for e in range(self.n)]

    def torus(self) -> tuple[WeylElement, ...]:
        """The torus elements omega^0, ..., omega^(n-1): the orbit table of the
        empty word, built on first use."""
        return _orbit_table(self.n, ())

    def check(self, w) -> None:
        """Refuse w unless it is a WeylElement whose torus exponent is an int
        in [0, p - 1) and whose word is a tuple alternating in s0, s1, as the
        normal form of this group has it (unpickling keeps any tuple)."""
        if not isinstance(w, WeylElement):
            raise ValueError(f"expected a WeylElement, got {w!r}")
        word = w[1]
        # the alternating word of its length that starts with s1 if word does, else s0
        if type(word) is not tuple or word != _alternating_word(word[:1] == (S1,), len(word)):
            raise ValueError(f"the word {word!r} is not alternating in s0, s1")
        if type(w[0]) is not int:
            raise ValueError(f"the torus exponent {w[0]!r} of {w!r} is not an int")
        if not 0 <= w[0] < self.n:
            raise ValueError(f"the torus exponent {w[0]} of {w!r} is outside [0, {self.n})")

    def simple(self, i: int) -> WeylElement:
        return self.s0 if i == S0 else self.s1

    # --- group operations ---

    def mul(self, v: WeylElement, w: WeylElement) -> WeylElement:
        (vexp, left), (wexp, right) = v, w
        # pushing the torus part of w to the left flips its sign once per letter of v
        exp = vexp + (-wexp if len(left) % 2 else wexp)
        # k adjacent equal-letter cancellations, each emitting the central c
        k = 0
        while k < len(left) and k < len(right) and left[-1 - k] == right[k]:
            k += 1
        return _weyl(((exp + k * self.half) % self.n, left[: len(left) - k] + right[k:]))

    def inv(self, w: WeylElement) -> WeylElement:
        m = len(w.word)
        exp = m * self.half + (w.exp if m % 2 else -w.exp)
        return _weyl((exp % self.n, w.word[::-1]))

    def lengths_add(self, v: WeylElement, w: WeylElement) -> bool:
        """Whether l(vw) = l(v) + l(w); fails exactly when letters cancel."""
        return not (v.word and w.word and v.word[-1] == w.word[0])

    def uniformizer_conj(self, w: WeylElement) -> WeylElement:
        """Conjugation by the uniformizer: inverts the torus, swaps s0 <-> s1."""
        return _weyl((-w[0] % self.n, tuple(1 - l for l in w[1])))

    def __eq__(self, other):
        return isinstance(other, WeylGroup) and self.field == other.field

    def __hash__(self):
        return hash(("WeylGroup", self.field))

    def __repr__(self):
        return f"WeylGroup(p={self.field.p})"
