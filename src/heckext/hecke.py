"""The pro-p Iwahori-Hecke algebra: sparse linear combinations of tau_w.

Products are computed by letter recursion: the left factor is split into
its torus letter and simple-reflection letters, and each letter acts on
the right factor by a single-letter rule.  A single letter either extends
the word (braid relation, lengths add) or, when the word would shorten,
expands through the quadratic relation tau_{s_i}^2 = -e_1 tau_{s_i} into
the sum of all torus twists.  Recursion depth is the length of the left
factor, so products terminate.  It runs once per pair of bare words u, v
(torus exponent 0), whose products are memoized per algebra as read-only
tuples; as s omega^b = omega^-b s, with T the left torus shift,
tau_{omega^a u} tau_{omega^b v} = T_{a + (-1)^|u| b}(tau_u tau_v).

Right multiplication by letter recursion on the right factor is also
provided; the tau-basis is stable under the main anti-involution, so the
two recursions must agree and are cross-checked in the tests.
"""

from __future__ import annotations

from .coeff import Character, PrimeField
from .weyl import S0, WeylElement, WeylGroup

__all__ = ["HeckeElement", "HeckeAlgebra"]


def _clean(coeffs: dict, p: int) -> dict:
    return {k: v % p for k, v in coeffs.items() if v % p}


class HeckeElement:
    """Finite k-linear combination of basis symbols tau_w (no stored zeros)."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: "HeckeAlgebra", coeffs: dict):
        self.algebra = algebra
        self.coeffs = coeffs

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        out = dict(self.coeffs)
        p = self.algebra.field.p
        for w, c in other.coeffs.items():
            out[w] = (out.get(w, 0) + c) % p
        return HeckeElement(self.algebra, {w: c for w, c in out.items() if c})

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-other)

    def __neg__(self) -> "HeckeElement":
        p = self.algebra.field.p
        return HeckeElement(self.algebra, {w: (-c) % p for w, c in self.coeffs.items()})

    def scale(self, c: int) -> "HeckeElement":
        p = self.algebra.field.p
        c %= p
        if c == 0:
            return self.algebra.zero()
        return HeckeElement(self.algebra, {w: (c * x) % p for w, x in self.coeffs.items()})

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        return self.algebra.mul(self, other)

    def __rmul__(self, c: int) -> "HeckeElement":
        if isinstance(c, int):
            return self.scale(c)
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def to_json(self) -> dict:
        """The coefficient map in the stable element-JSON shape."""
        terms = [
            {
                "support": {
                    "exp": w.exp,
                    "word": ["s0" if l == S0 else "s1" for l in w.word],
                },
                "coeff": c,
            }
            for w, c in sorted(
                self.coeffs.items(), key=lambda kv: (kv[0].length, kv[0].word, kv[0].exp)
            )
        ]
        return {"terms": terms}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeckeElement)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
        )

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
        return HeckeElement(self, _clean(coeffs, self.field.p))

    def idempotent(self, character: Character | int) -> HeckeElement:
        """e_lambda = -sum over the torus of lambda(t)^{-1} tau_t."""
        m = character.m if isinstance(character, Character) else character
        F, W = self.field, self.weyl
        coeffs = {}
        for e in range(W.n):
            coeffs[W.omega(e)] = (-F.root_pow(-m * e)) % F.p
        return HeckeElement(self, coeffs)

    def idempotents(self) -> list[HeckeElement]:
        return [self.idempotent(m) for m in range(self.weyl.n)]

    # --- multiplication ---

    def _letter_left(self, i: int, coeffs: dict) -> dict:
        """Left multiply a coefficient dict by tau_{s_i}."""
        W = self.weyl
        si = W.simple(i)
        p = self.field.p
        out: dict = {}
        for w, c in coeffs.items():
            if W.lengths_add(si, w):
                k = W.mul(si, w)
                out[k] = (out.get(k, 0) + c) % p
            else:
                # tau_{s_i} tau_w = -e_1 tau_w: the sum of all torus twists of w
                for h in range(W.n):
                    k = WeylElement(W, h, w.word)
                    out[k] = (out.get(k, 0) + c) % p
        return {k: v for k, v in out.items() if v}

    def mul(self, a: HeckeElement, b: HeckeElement) -> HeckeElement:
        W, p = self.weyl, self.field.p
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
                for (f, word), x in bare:
                    w = WeylElement(W, (e + f) % W.n, word)
                    total[w] = (total.get(w, 0) + c * d * x) % p
        return HeckeElement(self, {w: c for w, c in total.items() if c})

    def _letter_right(self, coeffs: dict, i: int) -> dict:
        """Right multiply a coefficient dict by tau_{s_i}."""
        W = self.weyl
        si = W.simple(i)
        p = self.field.p
        out: dict = {}
        for w, c in coeffs.items():
            if W.lengths_add(w, si):
                k = W.mul(w, si)
                out[k] = (out.get(k, 0) + c) % p
            else:
                for h in range(W.n):
                    k = W.mul(w, W.omega(h))
                    out[k] = (out.get(k, 0) + c) % p
        return {k: v for k, v in out.items() if v}

    def mul_right_recursion(self, a: HeckeElement, b: HeckeElement) -> HeckeElement:
        """Same product, decomposing the right factor; used as a cross-check."""
        p = self.field.p
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
                total[v] = (total.get(v, 0) + c * x) % p
        return HeckeElement(self, {w: c for w, c in total.items() if c})

    # --- involutions ---

    def involution(self, a: HeckeElement) -> HeckeElement:
        """The anti-involution sending tau_w to tau at the inverse of w."""
        W = self.weyl
        return HeckeElement(self, {W.inv(w): c for w, c in a.coeffs.items()})

    def uniformizer_conj(self, a: HeckeElement) -> HeckeElement:
        W = self.weyl
        return HeckeElement(self, {W.uniformizer_conj(w): c for w, c in a.coeffs.items()})
