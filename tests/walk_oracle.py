"""The degree-0 actions as they were before they read chains of table rows,
kept as a test oracle: both sides walk a word letter by letter, each letter
through one letter memo keyed (letter, symbol, right), whose first miss in
a torus orbit is computed (the table row on the left, its transport through
J on the right) and kept in a letter-orbit memo, and whose later misses are
torus shifts of that representative.  WalkAlgebra is an ExtAlgebra whose
_act_left and _act_right are that walk, so its pair misses, and every
product and public action built on them, go through the walk too.
"""

from __future__ import annotations

from types import MappingProxyType

from heckext.coeff import add_into
from heckext.graded import _LETTER_ROWS, BasisSymbol, ExtAlgebra, _weight


class WalkAlgebra(ExtAlgebra):
    def __init__(self, p: int, primitive_root: int | None = None):
        super().__init__(p, primitive_root)
        self._letter_orbit_cache: dict[tuple, tuple[int, MappingProxyType]] = {}

    def _letter_on_symbol(self, i: int, sym: BasisSymbol, right: bool = False) -> MappingProxyType:
        """tau_{s_i} sym, or sym tau_{s_i} when right, as a symbolic row,
        memoized.  The first miss in a torus orbit is computed (_letter_row,
        or _right_row on the right) and stored as its representative, with
        its exponent f0.  A later miss at f is product.py's pair law with
        tau_{s_i} as a factor: u0^(-k (f - f0)) T_(f - f0) of it on the
        right, T_(f0 - f) on the left (s_i omega^f = omega^-f s_i), k the
        torus weight of sym."""
        key = (i, sym, right)
        cached = self._letter_cache.get(key)
        if cached is not None:
            return cached
        d, sign, (f, word) = sym
        orbit = (i, d, sign, word, right)
        rep = self._letter_orbit_cache.get(orbit)
        if rep is None:
            out = MappingProxyType(self._right_row(i, sym) if right else self._letter_row(i, sym))
            self._letter_orbit_cache[orbit] = (f, out)
        else:
            f0, first = rep
            scale = self.field.root_powers()[-_weight(d, sign) * (f - f0) % self.weyl.n]
            out = MappingProxyType(self._shift_left(first, f - f0 if right else f0 - f, scale))
        self._letter_cache[key] = out
        return out

    def _letter_row(self, i: int, sym: BasisSymbol) -> dict:
        """tau_{s_i} sym from the table, as a symbolic row: its terms c e_m s
        on the support of sym stay character keys."""
        W = self.weyl
        d, sign, w = sym
        si = W.simple(i)
        chars, plain = _LETTER_ROWS[i, d, sign, W.lengths_add(si, w), len(w[1]) == 1]
        return self._row(d, w, chars, W.mul(si, w), plain)

    def _right_row(self, i: int, sym: BasisSymbol) -> dict:
        """sym tau_{s_i} as a symbolic row: the left row of J(sym) transported
        through J, J(tau_{omega^half} tau_{s_i} J(sym)), as J(tau_{s_i}) =
        tau_{s_i^-1} and s_i^-1 = omega^half s_i.  T_half scales no plain
        symbol (u0^half = -1 and torus weights are even) and a character key
        e_m s0 by u0^(m half); J takes a character key to a character key.
        So it costs one J lookup per row entry, however many terms an e_m
        has."""
        c, jsym = self._symbol_involution(sym)
        return self._involution(self._shift_left(self._letter_row(i, jsym), self.weyl.half, c))

    def _apply_letter(self, i: int, coeffs, right: bool) -> dict:
        """Apply one letter on the left or the right through the letter memo.
        A character key goes through the row of its s0 projected to e_m, or
        to e_-m on the left, as tau_{s_i} e_m = e_-m tau_{s_i}."""
        p = self.field.p
        letter = self._letter_on_symbol
        out: dict = {}
        for key, c in coeffs.items():
            if len(key) == 3:
                add_into(out, letter(i, key, right).items(), c, p)
            else:
                self._project(out, key[0] if right else -key[0], letter(i, self._base(key), right), c)
        return out

    def _act_left(self, h: dict, row) -> dict:
        """h row on a symbolic row, h a coefficient dict of the Hecke algebra:
        each word walked letter by letter from the right, then its torus
        prefix."""
        p = self.field.p
        total: dict = {}
        for (exp, word), c in h.items():
            cur = row
            for letter in reversed(word):
                cur = self._apply_letter(letter, cur, False)
                if not cur:
                    break
            if cur and exp:
                cur = self._shift_left(cur, exp)
            add_into(total, cur.items(), c, p)
        return total

    def _act_right(self, row, h: dict) -> dict:
        """row h on a symbolic row, h a coefficient dict of the Hecke algebra:
        for each tau_w, w = omega^e u, the right torus shift by e, then the
        letters of u from left to right."""
        p = self.field.p
        total: dict = {}
        for (exp, word), c in h.items():
            cur = self._shift_right(row, exp) if exp else row
            for letter in word:
                cur = self._apply_letter(letter, cur, True)
                if not cur:
                    break
            add_into(total, cur.items(), c, p)
        return total
