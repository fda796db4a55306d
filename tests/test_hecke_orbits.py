"""The Hecke product against a letter-by-letter oracle.

HeckeAlgebra.mul reads each product of two bare words u, v (torus
exponent 0) from a closed form: tau_(uv) when the lengths of u and v add,
otherwise the orbit sum of the word u + v[1:], an orbit sum (word, x)
standing for x sum_h tau_(omega^h word).  A product by letter recursion,
expanding every orbit into its p - 1 terms at each letter, is kept here,
and the engine must equal it: on each pair of bare words, on products of
single supports, on multi-term factors, on a word that both a plain
product and an orbit sum reach, and on an orbit sum that vanishes mod p.  A shortening pair of bare
words gives one orbit sum.  A wrong closed form must fail the oracle and
the e0 suite.
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
    """The product over the Hecke algebra H by letter recursion: the letters
    of each bare left word applied one at a time, every orbit expanded, the
    result memoized per pair of bare words and shifted by the torus."""

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


def words(max_length: int) -> list[tuple[int, ...]]:
    return [()] + [tuple((first + j) % 2 for j in range(ln))
                   for ln in range(1, max_length + 1) for first in (S0, S1)]


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
def test_bare_word_products_equal_the_expanded_products(p):
    H = ExtAlgebra(p).hecke
    oracle = ExpandedProduct(H)
    for u in words(MAX_LENGTH):
        for v in words(MAX_LENGTH):
            tu, tv = H.tau(_weyl((0, u))), H.tau(_weyl((0, v)))
            assert H.mul(tu, tv) == oracle.mul(tu, tv), (u, v)


@pytest.mark.parametrize("p", [13, 31])
def test_a_shortening_pair_holds_one_orbit_sum(p):
    H = ExtAlgebra(p).hecke
    for u in words(MAX_LENGTH):
        for v in words(MAX_LENGTH):
            got = H.mul(H.tau(_weyl((0, u))), H.tau(_weyl((0, v)))).coeffs
            if u and v and u[-1] == v[0]:
                # the one quadratic step, where the words meet
                assert got == {_weyl((h, u + v[1:])): 1 for h in range(H.weyl.n)}, (u, v)
            else:
                assert got == {_weyl((0, u + v)): 1}, (u, v)


@pytest.mark.parametrize("p", PRIMES)
def test_products_equal_the_expanded_products(p):
    assert product_mismatch(ExtAlgebra(p).hecke, MAX_LENGTH, 300) is None


@pytest.mark.parametrize("p", PRIMES)
def test_a_word_reached_by_a_plain_product_and_an_orbit_sum(p):
    """(a tau_(omega s0) + b tau_(s0 s1)) c tau_(omega^2 s1): the first pair
    gives tau_(s0 s1) at exponent 1 - 2, the second the orbit sum of s0 s1
    times b c.  With b = -a the exponent -1 cancels to 0 mod p."""
    H = ExtAlgebra(p).hecke
    n = H.weyl.n
    for a in range(1, p):
        left = H.element({_weyl((1, (S0,))): a, _weyl((0, (S0, S1))): p - a})
        right = H.element({_weyl((2, (S1,))): 3})
        got = H.mul(left, right)
        assert got == ExpandedProduct(H).mul(left, right), a
        assert got.coeffs == {_weyl((h, (S0, S1))): -3 * a % p for h in range(n) if h != n - 1}


@pytest.mark.parametrize("p", PRIMES)
def test_an_orbit_sum_whose_scalar_is_zero_mod_p(p):
    """The coefficients of the shortening word s0 s1 sum to 0 mod p on the
    left, and those of s1 on the right in the mirrored product, so the
    orbit sum vanishes and only the plain product tau_s0 tau_s1 is left."""
    H = ExtAlgebra(p).hecke
    oracle = ExpandedProduct(H)
    cancels = H.element({_weyl((0, (S0, S1))): 2, _weyl((1, (S0, S1))): p - 2, _weyl((1, (S0,))): 1})
    s1 = H.tau(_weyl((0, (S1,))))
    assert H.mul(cancels, s1).coeffs == {_weyl((1, (S0, S1))): 1}
    assert H.mul(cancels, s1) == oracle.mul(cancels, s1)
    mirrored = H.element({_weyl((0, (S1,))): 5, _weyl((2, (S1,))): p - 5})
    for left in (H.tau(_weyl((0, (S1,)))), H.tau(_weyl((1, (S0, S1)))), cancels):
        assert H.mul(left, mirrored) == oracle.mul(left, mirrored), left
    assert H.mul(H.tau(_weyl((0, (S1,)))), mirrored).is_zero


@pytest.mark.parametrize("p", PRIMES)
def test_multi_term_factors_on_both_sides(p):
    """Factors with several words and several exponents per word on both
    sides, the words chosen so that some pairs shorten and some do not."""
    H = ExtAlgebra(p).hecke
    oracle = ExpandedProduct(H)
    rng = random.Random(f"both sides:{p}")
    word_pool = words(4)
    for _ in range(60):
        a, b = (H.element({_weyl((rng.randrange(H.weyl.n), u)): rng.randrange(1, p)
                           for u in rng.sample(word_pool, 3) for _ in range(3)})
                for _ in range(2))
        assert len({w.word for w in a.coeffs}) == len({w.word for w in b.coeffs}) == 3
        assert H.mul(a, b) == oracle.mul(a, b), (a, b)


def _closed_form_mutant(H, *, junction=1, orbit=True, meet=-1):
    """HeckeAlgebra.mul term by term on the closed form, where the pair
    shortens when u[meet] == v[0] and then gives the orbit sum of the word
    u + v[junction:] (or nothing, orbit False)."""
    n = H.weyl.n

    def mul(a, b):
        total: dict = {}
        for (ea, u), c in a.coeffs.items():
            for (eb, v), d in b.coeffs.items():
                if not (u and v and u[meet] == v[0]):
                    w = _weyl(((ea - eb if len(u) % 2 else ea + eb) % n, u + v))
                    total[w] = total.get(w, 0) + c * d
                elif orbit:
                    for h in range(n):
                        w = _weyl((h, u + v[junction:]))
                        total[w] = total.get(w, 0) + c * d
        return HeckeElement.make(H, total)

    return mul


# mutant options and the e0 checks it fails at p=5, L=2; every mutant but
# the first fails the product oracle too
CLOSED_FORM_MUTANTS = {
    "as in the engine": ({}, set()),
    "junction word u + v": (
        {"junction": 0},
        {"e0_braid_and_recursions_{n}", "e0_quadratic_relation"},
    ),
    "orbit sum dropped": (
        {"orbit": False},
        {"e0_braid_and_recursions_{n}", "e0_quadratic_relation"},
    ),
    "lengths add tested on u[0]": (
        {"meet": 0},
        {"e0_associativity_{n}_triples", "e0_braid_and_recursions_{n}"},
    ),
}


@pytest.mark.parametrize("mutant", CLOSED_FORM_MUTANTS)
def test_a_wrong_closed_form_fails_the_oracles(monkeypatch, mutant):
    options, e0_failures = CLOSED_FORM_MUTANTS[mutant]
    alg = ExtAlgebra(5)
    H = alg.hecke
    monkeypatch.setattr(H, "mul", _closed_form_mutant(H, **options))
    results = verify.run_suite(alg, "e0", max_length=2, samples=200)
    assert {re.sub(r"_\d+", "_{n}", r.name) for r in results if not r.ok} == e0_failures
    assert (product_mismatch(H, 2, 100) is not None) == bool(options)
