"""The Hecke product as it was before it carried torus orbits.

HeckeAlgebra.mul keeps each bare-word product as plain terms plus orbit
sums, an orbit sum (word, x) standing for x sum_h tau_(omega^h word), and
expands the orbit sums once, at the end.  The product as it was before,
expanding every orbit into its p - 1 terms at each letter, is kept here,
and the engine must equal it: its single-letter rule on plain terms and on
orbit sums, its products of single supports and of multi-term factors.  A
shortening pair of bare words holds one orbit sum in the word memo, not
p - 1 plain terms.  A wrong derivation of a letter on an orbit sum must
fail the oracle, and the e0 suite where mul reaches it.
"""

from __future__ import annotations

import random
import re

import pytest

from heckext import ExtAlgebra, verify
from heckext.coeff import check_parameters
from heckext.hecke import HeckeElement
from heckext.weyl import S0, S1, WeylElement, _weyl

PRIMES = (5, 7, 13)
MAX_LENGTH = 6


class ExpandedProduct:
    """HeckeAlgebra._letter_left and HeckeAlgebra.mul as they were, over the
    Hecke algebra H, with their own bare-word memo."""

    def __init__(self, H):
        self.H = H
        self.weyl = H.weyl
        self._word_cache: dict = {}

    def _letter_left(self, i: int, coeffs: dict) -> dict:
        """Left multiply a coefficient dict by tau_{s_i}: the one statement of
        the single-letter rule of the Hecke algebra."""
        W = self.weyl
        si = W.simple(i)
        out: dict = {}
        for w, c in coeffs.items():
            if W.lengths_add(si, w):
                k = W.mul(si, w)
                out[k] = out.get(k, 0) + c
            else:
                # tau_{s_i} tau_w = -e_1 tau_w: the sum of all torus twists of w
                for h in range(W.n):
                    k = WeylElement(W, h, w.word)
                    out[k] = out.get(k, 0) + c
        return HeckeElement.make(self.H, out).coeffs

    def mul(self, a: HeckeElement, b: HeckeElement) -> HeckeElement:
        check_parameters(self.H, a.algebra)
        check_parameters(self.H, b.algebra)
        W = self.weyl
        total: dict = {}
        for (ea, u), c in a.coeffs.items():
            for (eb, v), d in b.coeffs.items():
                bare = self._word_cache.get((u, v))
                if bare is None:
                    cur = {WeylElement(W, 0, v): 1}
                    for letter in reversed(u):
                        cur = self._letter_left(letter, cur)
                    bare = self._word_cache[u, v] = tuple(cur.items())
                e = ea - eb if len(u) % 2 else ea + eb
                # raw int sums in the hot loop, reduced once by make
                cd = c * d
                for (f, word), x in bare:
                    w = WeylElement(W, (e + f) % W.n, word)
                    total[w] = total.get(w, 0) + cd * x
        return HeckeElement.make(self.H, total)


def expand(H, plain: dict, orbits: dict) -> dict:
    """The coefficient dict of plain terms plus orbit sums, reduced mod p."""
    total = dict(plain)
    for word, x in orbits.items():
        for h in range(H.weyl.n):
            w = _weyl((h, word))
            total[w] = total.get(w, 0) + x
    return HeckeElement.make(H, total).coeffs


def words(max_length: int) -> list[tuple[int, ...]]:
    return [()] + [tuple((first + j) % 2 for j in range(ln))
                   for ln in range(1, max_length + 1) for first in (S0, S1)]


def letter_mismatch(H, max_length: int):
    """The first (letter, plain, orbits) on which _letter_left differs from
    the expanded rule: every support and every orbit sum of length at most
    max_length, with the scalar 2, and each word as a term and an orbit sum
    at once."""
    oracle = ExpandedProduct(H)
    for word in words(max_length):
        inputs = [({}, {word: 2}), ({_weyl((1, word)): 3}, {word: 2})]
        inputs += [({w: 2}, {}) for w in H.weyl.elements(max_length) if w.word == word]
        for i in (S0, S1):
            for plain, orbits in inputs:
                got = expand(H, *H._letter_left(i, plain, orbits))
                if got != oracle._letter_left(i, expand(H, plain, orbits)):
                    return (i, plain, orbits)


def multi_term_factors(H, rng: random.Random, max_length: int) -> list[HeckeElement]:
    """Seeded factors of several kinds: zero, the idempotents e_m, e_m tau_u,
    whole orbits with a constant coefficient, and sums of a few of those and
    of scaled supports, some sharing a word."""
    W, p = H.weyl, H.field.p
    supports = W.elements(max_length)
    factors = [H.zero(), *H.idempotents()]
    for _ in range(12):
        u = rng.choice(supports)
        factors.append(H.mul(H.idempotent(rng.randrange(W.n)), H.tau(u)))
        factors.append(H.element({_weyl((h, u.word)): rng.randrange(1, p) for h in range(W.n)}))
    for _ in range(12):
        factors.append(H.element({_weyl((h, rng.choice(supports).word)): 1 for h in range(W.n)})
                       .scale(rng.randrange(1, p)))
    for _ in range(24):
        total = H.zero()
        for _ in range(rng.randint(1, 3)):
            total = total + rng.choice(factors) + H.tau(rng.choice(supports)).scale(rng.randrange(p))
        factors.append(total)
    return factors


def product_mismatch(H, max_length: int, samples: int):
    """The first pair of factors whose product differs from the expanded one:
    every pair of supports of length at most max_length, then samples seeded
    pairs of multi-term factors."""
    oracle = ExpandedProduct(H)
    supports = H.weyl.elements(max_length)
    pairs = [(H.tau(v), H.tau(w)) for v in supports for w in supports]
    rng = random.Random(f"orbits:{H.field.p}:{max_length}")
    factors = multi_term_factors(H, rng, max_length)
    pairs += [(rng.choice(factors), rng.choice(factors)) for _ in range(samples)]
    for a, b in pairs:
        if H.mul(a, b) != oracle.mul(a, b):
            return (a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_the_letter_rule_is_the_expanded_rule_on_terms_and_orbit_sums(p):
    assert letter_mismatch(ExtAlgebra(p).hecke, MAX_LENGTH) is None


@pytest.mark.parametrize("p", PRIMES)
def test_products_equal_the_expanded_products(p):
    assert product_mismatch(ExtAlgebra(p).hecke, MAX_LENGTH, 300) is None


@pytest.mark.parametrize("p", [13, 31])
def test_a_shortening_pair_holds_one_orbit_sum(p):
    H = ExtAlgebra(p).hecke
    W = H.weyl
    for u in words(MAX_LENGTH):
        for v in words(MAX_LENGTH):
            H.mul(H.tau(_weyl((0, u))), H.tau(_weyl((0, v))))
            plain, orbits = H._word_cache[u, v]
            if not W.lengths_add(_weyl((0, u)), _weyl((0, v))):
                # the one quadratic step leaves the word of u v with a letter
                # removed, and every later letter extends it
                assert plain == () and orbits == ((u + v[1:], 1),), (u, v)
            else:
                assert orbits == () and len(plain) == 1, (u, v)


def _letter_on_orbits_mutant(H, *, term_to_orbit: bool = True, orbit_scale=None):
    """_letter_left with its letter on an orbit sum derived again here: an
    image term gives the orbit sum of its word (or, term_to_orbit False,
    stays that one term), an image orbit sum is scaled by orbit_scale
    (n when None)."""
    real, p = H._letter_left, H.field.p
    scale = H.weyl.n if orbit_scale is None else orbit_scale

    def letter(i, plain, orbits):
        out, sums = (dict(d) for d in real(i, plain, {}))
        for u, x in orbits.items():
            terms, inner = real(i, {_weyl((0, u)): x}, {})
            for k, y in terms.items():
                if term_to_orbit:
                    sums[k.word] = sums.get(k.word, 0) + y
                else:
                    out[k] = out.get(k, 0) + y
            for v, y in inner.items():
                sums[v] = sums.get(v, 0) + scale * y
        return ({k: c % p for k, c in out.items() if c % p},
                {v: x % p for v, x in sums.items() if x % p})

    return letter


# mutant options, the e0 checks it fails at p=5, L=2, and whether the
# product oracle fails it.  An image orbit sum of a letter on an orbit sum
# comes only from a shortening letter on an orbit sum, which no bare-word
# product reaches: its one quadratic step leaves an orbit sum whose word
# begins with the letter just applied, and the rest of the alternating left
# word only extends it.  So the unscaled orbit image changes no product,
# and the letter-rule oracle alone fails it.
ORBIT_MUTANTS = {
    "as derived in the engine": ({}, set(), False),
    "the orbit image not scaled by n": ({"orbit_scale": 1}, set(), False),
    "an image term kept as that term": (
        {"term_to_orbit": False},
        {"e0_associativity_{n}_triples", "e0_braid_and_recursions_{n}"},
        True,
    ),
}


@pytest.mark.parametrize("mutant", ORBIT_MUTANTS)
def test_a_wrong_letter_on_an_orbit_sum_fails_the_oracles(monkeypatch, mutant):
    options, e0_failures, product_fails = ORBIT_MUTANTS[mutant]
    alg = ExtAlgebra(5)
    H = alg.hecke
    monkeypatch.setattr(H, "_letter_left", _letter_on_orbits_mutant(H, **options))
    results = verify.run_suite(alg, "e0", max_length=2, samples=200)
    assert {re.sub(r"_\d+", "_{n}", r.name) for r in results if not r.ok} == e0_failures
    assert (product_mismatch(H, 2, 100) is not None) == product_fails
    assert (letter_mismatch(H, 2) is not None) == bool(options)
