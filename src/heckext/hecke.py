"""The pro-p Iwahori-Hecke algebra: sparse linear combinations of tau_w.

Elements are combinations of the core in coeff.py keyed on WeylElement;
this module adds the product.  Products are computed by letter recursion:
the left factor is split into its torus letter and simple-reflection
letters, and each letter acts on the right factor by a single-letter
rule.  A single letter either extends the word (braid relation, lengths
add) or, when the word would shorten, gives through the quadratic
relation tau_{s_i}^2 = -e_1 tau_{s_i} the orbit sum of the word: an entry
(word, x) stands for x sum_h tau_{omega^h word}.  That rule is stated
once, in HeckeAlgebra._letter_left, which derives from it a letter on an
orbit sum; the graded left table states it as -e_0 tau_w, checked against
it in the tests.  The recursion depth is the length of the left factor,
so products terminate.  It runs once per pair of bare words u, v (torus
exponent 0), whose products are memoized per algebra as read-only pairs
(plain terms, orbit sums); as s omega^b = omega^-b s, with T the left
torus shift, tau_{omega^a u} tau_{omega^b v} = T_{a + (-1)^|u| b}(tau_u tau_v).
An orbit sum is invariant under T, so mul adds it once per pair of words,
times the sums of both factors' coefficients there, and expands it last.

Right multiplication by letter recursion on the right factor is also
provided; the tau-basis is stable under the main anti-involution, so the
two recursions must agree and are cross-checked in the tests.
"""

from __future__ import annotations

from .coeff import Combination, PrimeField, check_parameters
from .weyl import WeylElement, WeylGroup, _weyl

__all__ = ["HeckeElement", "HeckeAlgebra"]


class HeckeElement(Combination):
    """Finite k-linear combination of basis symbols tau_w (no stored zeros)."""

    __slots__ = ("coeffs",)

    def _product(self, other: "HeckeElement") -> "HeckeElement":
        return self.algebra.mul(self, other)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = [f"{c}*tau({w!r})" for w, c in sorted(
            self.coeffs.items(), key=lambda kv: (kv[0].length, kv[0].word, kv[0].exp))]
        return " + ".join(parts)


class HeckeAlgebra:
    """Parent algebra over a fixed Weyl group."""

    def __init__(self, weyl: WeylGroup):
        self.weyl = weyl
        self.field: PrimeField = weyl.field
        self._word_cache: dict[tuple[tuple, tuple], tuple] = {}

    def zero(self) -> HeckeElement:
        return HeckeElement(self, {})

    def one(self) -> HeckeElement:
        return HeckeElement(self, {self.weyl.identity: 1})

    def tau(self, w: WeylElement) -> HeckeElement:
        return HeckeElement(self, {w: 1})

    def element(self, coeffs: dict) -> HeckeElement:
        return HeckeElement.make(self, coeffs)

    def idempotent(self, m: int) -> HeckeElement:
        """e_m = -sum over the torus of id^m(t)^{-1} tau_t, with its terms in
        the order of WeylGroup.torus()."""
        p, n = self.field.p, self.weyl.n
        powers = self.field.root_powers()
        # a power of u0 lies in [1, p), so p minus it is its negative
        coeffs = [p - powers[-m * e % n] for e in range(n)]
        return HeckeElement(self, dict(zip(self.weyl.torus(), coeffs)))

    def idempotents(self) -> list[HeckeElement]:
        return [self.idempotent(m) for m in range(self.weyl.n)]

    # --- multiplication ---

    def _letter_left(self, i: int, plain: dict, orbits: dict) -> tuple[dict, dict]:
        """Left multiply by tau_{s_i} the plain terms {w: c} plus the orbit
        sums {word: x}, giving the same form reduced mod p: the one statement
        of the single-letter rule of the Hecke algebra."""
        W, p = self.weyl, self.field.p
        si = W.simple(i)
        out, sums = {}, {}
        for w, c in plain.items():
            if W.lengths_add(si, w):
                k = W.mul(si, w)
                out[k] = out.get(k, 0) + c
            else:
                # tau_{s_i} tau_w = -e_1 tau_w: the orbit sum of the word of w
                sums[w.word] = sums.get(w.word, 0) + c
        if orbits:
            # s_i omega^h = omega^-h s_i: the rule on the exponent-0 terms, summed
            # over T_-h, so an image term gives the orbit sum of its word and an
            # image orbit sum n times itself
            terms, inner = self._letter_left(i, {_weyl((0, u)): x for u, x in orbits.items()}, {})
            for k, x in terms.items():
                sums[k.word] = sums.get(k.word, 0) + x
            for u, x in inner.items():
                sums[u] = sums.get(u, 0) + W.n * x
        return ({k: r for k, c in out.items() if (r := c % p)},
                {u: r for u, x in sums.items() if (r := x % p)})

    def mul(self, a: HeckeElement, b: HeckeElement) -> HeckeElement:
        check_parameters(self, a.algebra)
        check_parameters(self, b.algebra)
        n = self.weyl.n
        # each factor's (exponent, coefficient) terms, by word
        left, right = {}, {}
        for x, by_word in ((a, left), (b, right)):
            for (e, word), c in x.coeffs.items():
                by_word.setdefault(word, []).append((e, c))
        total, sums = {}, {}
        for u, terms_a in left.items():
            for v, terms_b in right.items():
                bare = self._word_cache.get((u, v))
                if bare is None:
                    cur = ({_weyl((0, v)): 1}, {})
                    for letter in reversed(u):
                        cur = self._letter_left(letter, *cur)
                    bare = self._word_cache[u, v] = tuple(tuple(d.items()) for d in cur)
                plain, orbits = bare
                if orbits:
                    scale = sum(c for _, c in terms_a) * sum(d for _, d in terms_b)
                    for word, x in orbits:
                        sums[word] = sums.get(word, 0) + scale * x
                if not plain:
                    continue
                # raw int sums in the hot loop, reduced once by make
                for ea, c in terms_a:
                    for eb, d in terms_b:
                        e = ea - eb if len(u) % 2 else ea + eb
                        cd = c * d
                        for (f, word), x in plain:
                            w = _weyl(((e + f) % n, word))
                            total[w] = total.get(w, 0) + cd * x
        for word, x in sums.items():
            for h in range(n):
                w = _weyl((h, word))
                total[w] = total.get(w, 0) + x
        return HeckeElement.make(self, total)

    def _letter_right(self, coeffs: dict, i: int) -> dict:
        """Right multiply a coefficient dict by tau_{s_i}."""
        W = self.weyl
        si = W.simple(i)
        out: dict = {}
        for w, c in coeffs.items():
            if W.lengths_add(w, si):
                k = W.mul(w, si)
                out[k] = out.get(k, 0) + c
            else:
                for h in range(W.n):
                    k = W.mul(w, W.omega(h))
                    out[k] = out.get(k, 0) + c
        return HeckeElement.make(self, out).coeffs

    def mul_right_recursion(self, a: HeckeElement, b: HeckeElement) -> HeckeElement:
        """Same product, decomposing the right factor; used as a cross-check."""
        total: dict = {}
        for w, c in b.coeffs.items():
            cur = a.coeffs
            if w.exp:
                cur = {self.weyl.mul(v, self.weyl.omega(w.exp)): x for v, x in cur.items()}
            for letter in w.word:
                cur = self._letter_right(cur, letter)
                if not cur:
                    break
            for v, x in cur.items():
                total[v] = total.get(v, 0) + c * x
        return HeckeElement.make(self, total)

    # --- involutions ---

    def involution(self, a: HeckeElement) -> HeckeElement:
        """The anti-involution sending tau_w to tau at the inverse of w."""
        W = self.weyl
        return HeckeElement(self, {W.inv(w): c for w, c in a.coeffs.items()})

    def uniformizer_conj(self, a: HeckeElement) -> HeckeElement:
        W = self.weyl
        return HeckeElement(self, {W.uniformizer_conj(w): c for w, c in a.coeffs.items()})
