"""Free words as they were evaluated and spelled before the suffix trie,
kept as test oracles.

Prefixes is the walker evaluate read before: each word multiplied out left
to right, the value of a word being the value of its prefix times the image
of its last letter.  For each first letter it keeps the path of the last
word read with that letter, so it shares only the prefixes of words read
one after the other.

word_for_basis_by_products spells the words of word_for_basis as products
of FreeElements, each slot of a section term multiplied on from the left to
the right, reduced mod p after every product.
"""

from __future__ import annotations

from itertools import compress, count
from operator import ne

from heckext import presentation as pres
from heckext.coeff import add_into
from heckext.product import _multiply
from heckext.sections import _section2_symbol, _section3_symbol


class Prefixes:
    """The values of free words, each prefix multiplied out once: for each
    first letter, the path of the last word read with that letter, values[i]
    the row of prev[:i]; a zero row ends the path, as every word that shares
    that prefix is zero."""

    def __init__(self, alg):
        self.alg = alg
        self.images = {letter: x.coeffs for letter, x in pres.generator_images(alg).items()}
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

    def row(self, f) -> dict:
        """The symbolic row of f, its words read in sorted order, so that the
        words with one first letter come in one block."""
        total: dict = {}
        for word, c in sorted(f.coeffs.items()):
            add_into(total, self.value(word).items(), c, self.alg.field.p)
        return total


def word_for_basis_by_products(alg, sym):
    """word_for_basis(alg, sym), each word a product of FreeElements."""
    if sym.degree == 0:
        return pres.FreeElement(alg, {pres._word_for_weyl(sym.support): 1})
    if sym.degree == 1:
        c, left, g, right = alg.factor_through_generators(sym)
        word = pres._word_for_weyl(left) + (pres._B_LETTERS[g.sign, g.support.word],)
        return pres.FreeElement.make(alg, {word + pres._word_for_weyl(right): c})
    section = _section2_symbol if sym.degree == 2 else _section3_symbol
    out: dict = {}
    for syms, c in section(alg, sym).coeffs.items():
        acc = pres.free_one(alg)
        for s in syms:
            if len(s) == 4:
                acc = acc * pres.free_idempotent(alg, s[0])
                s = alg._base(s)
            acc = acc * word_for_basis_by_products(alg, s)
        add_into(out, acc.coeffs.items(), c, alg.field.p)
    return pres.FreeElement(alg, out)
