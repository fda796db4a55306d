"""The pro-p Iwahori-Hecke algebra: sparse linear combinations of tau_w.

Elements are combinations of the core in coeff.py keyed on WeylElement;
this module adds the product.  The Weyl group is infinite dihedral, so a
product of two alternating bare words u, v (torus exponent 0) shortens at
most once, where they meet.  If the lengths of u and v add, tau_u tau_v =
tau_(uv).  Otherwise u = u' s_i and v = s_i v', and the quadratic relation
tau_{s_i}^2 = -e_1 tau_{s_i}, applied once, gives the orbit sum of the word
u + v[1:] = u' s_i v' with coefficient 1 (u' extends each torus twist of
s_i v'), where an orbit sum (word, x) stands for x sum_h tau_{omega^h word}.
As s omega^b = omega^-b s, with T the left torus shift,
tau_{omega^a u} tau_{omega^b v} = T_{a + (-1)^|u| b}(tau_u tau_v).  An
orbit sum is invariant under T, so mul adds it once per pair of words,
times the sums of both factors' coefficients there.  It sums each product
word's plain terms by torus exponent, then emits each word once, mod p,
through its orbit table, adding the orbit sum at every exponent.
The graded left table states the same quadratic relation as -e_0 tau_w:
the e0 suite of verify.py checks mul against the graded engine's
degree-0 product, an independent implementation of the same algebra.
"""

from __future__ import annotations

from .coeff import (
    Combination, PrimeField, _orbit, check_coefficient, check_index, check_parameters)
from .weyl import WeylElement, WeylGroup, _orbit_table

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

    def zero(self) -> HeckeElement:
        return HeckeElement(self, {})

    def one(self) -> HeckeElement:
        return HeckeElement(self, {self.weyl.identity: 1})

    def check(self, x) -> None:
        """Refuse x unless it is a HeckeElement over this field."""
        if not isinstance(x, HeckeElement):
            raise ValueError(f"expected a HeckeElement, got {type(x).__name__}")
        check_parameters(self, x.algebra)

    def tau(self, w: WeylElement) -> HeckeElement:
        self.weyl.check(w)
        return HeckeElement(self, {w: 1})

    def element(self, coeffs: dict) -> HeckeElement:
        for w, c in coeffs.items():
            self.weyl.check(w)
            check_coefficient(c)
        return HeckeElement.make(self, coeffs)

    def idempotent(self, m: int) -> HeckeElement:
        """e_m = -sum over the torus of id^m(t)^{-1} tau_t, with its terms in
        the order of WeylGroup.torus(): the orbit vector _orbit of step -m."""
        check_index(m)
        F = self.field
        return HeckeElement(self, dict(zip(self.weyl.torus(), _orbit(F.p, F.u0, -m % F.order))))

    def idempotents(self) -> list[HeckeElement]:
        return [self.idempotent(m) for m in range(self.weyl.n)]

    # --- multiplication ---

    def mul(self, a: HeckeElement, b: HeckeElement) -> HeckeElement:
        self.check(a)
        self.check(b)
        n, p = self.weyl.n, self.field.p
        # each factor's (exponent, coefficient) terms, by word
        left, right = {}, {}
        for x, by_word in ((a, left), (b, right)):
            for (e, word), c in x.coeffs.items():
                by_word.setdefault(word, []).append((e, c))
        # each product word's raw int coefficients by exponent, and its orbit sums
        plain, sums = {}, {}
        for u, terms_a in left.items():
            odd = len(u) % 2
            for v, terms_b in right.items():
                if u and v and u[-1] == v[0]:
                    word = u + v[1:]
                    scale = sum(c for _, c in terms_a) * sum(d for _, d in terms_b)
                    sums[word] = sums.get(word, 0) + scale
                    continue
                acc = plain.setdefault(u + v, {})
                for eb, d in terms_b:
                    shift = -eb if odd else eb
                    for ea, c in terms_a:
                        e = (ea + shift) % n
                        acc[e] = acc.get(e, 0) + c * d
        # each word's terms once, through its orbit table, reduced mod p
        coeffs = {}
        for word in {**plain, **sums}:
            orbit, acc, x = _orbit_table(n, word), plain.get(word, {}), sums.get(word, 0) % p
            for e in range(n) if x else acc:
                if r := (acc.get(e, 0) + x) % p:
                    coeffs[orbit[e]] = r
        return HeckeElement(self, coeffs)

    # --- involutions ---

    def involution(self, a: HeckeElement) -> HeckeElement:
        """The anti-involution sending tau_w to tau at the inverse of w."""
        self.check(a)
        W = self.weyl
        return HeckeElement(self, {W.inv(w): c for w, c in a.coeffs.items()})

    def uniformizer_conj(self, a: HeckeElement) -> HeckeElement:
        self.check(a)
        W = self.weyl
        return HeckeElement(self, {W.uniformizer_conj(w): c for w, c in a.coeffs.items()})
