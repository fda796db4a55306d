"""The degree-0 actions as they were before they read chains of table rows,
kept as a test oracle: both sides walk a word letter by letter, each letter
through one letter memo keyed (letter, symbol, right), whose first miss in
a torus orbit is computed (the table row on the left, its transport through
J on the right) and kept in a letter-orbit memo, and whose later misses are
torus shifts of that representative.  WalkAlgebra is an ExtAlgebra whose
kernels _act_left(u, sym) and _act_right(sym, v) are that walk, so its
pair misses, and every product and public action built on them, go
through the walk too.  The walk on sums of terms, character keys among
them, is _walk_left(h, row) and _walk_right(row, h).  shift_right(alg,
coeffs, a) is the plain right torus shift on such sums, which the engine
reads from its lengths-add closed form (_adds_right at omega^a).

two_step_left and two_step_right are the lengths-add closed forms as they
were before their rules were composed at import: a loop over the rules of
the last (left) or first (right) one or two letters of the word, read from
graded._ADDS_RULES and graded._RIGHT_RULES on every call.
"""

from __future__ import annotations

from types import MappingProxyType

from heckext import graded
from heckext.coeff import add_into
from heckext.graded import _LETTER_ROWS, BasisSymbol, ExtAlgebra, _shifted, _weight
from heckext.weyl import _weyl


def shift_right(alg: ExtAlgebra, coeffs, a: int) -> dict:
    """coeffs tau_{omega^a}: a support v becomes v omega^a, its exponent
    gains (-1)^|v| a, with no scalar; a character key e_m s0 stays, with
    the scalar u0^((m - k) (-1)^|v| a)."""
    n, p = alg.weyl.n, alg.field.p
    out: dict = {}
    for key, c in coeffs.items():
        if len(key) == 3:
            d, sign, (exp, word) = key
            out[_shifted((d, sign, _weyl(((exp - a if len(word) % 2 else exp + a) % n, word))))] = c
        else:
            m, d, sign, word = key
            g = -a if len(word) % 2 else a
            out[key] = c * alg.field.root_powers()[(m - _weight(d, sign)) * g % n] % p
    return out


def two_step_left(alg: ExtAlgebra, u, sym: BasisSymbol, c: int = 1) -> dict:
    """c tau_u sym where lengths add: the rules of _ADDS_RULES for the last
    letter of an odd u and the last two of an even u, applied from the
    right, then the torus prefix of u."""
    d, sign, (f, w) = sym
    exp, word = u
    for letter in reversed(word[len(word) % 2 - 2:]):
        rule = graded._ADDS_RULES[letter, d, sign]
        if rule is None:
            return {}
        sign, unit = rule
        c *= unit
    support = _weyl(((-f if len(word) % 2 else f) % alg.weyl.n, word + w))
    row = {_shifted((d, sign, support)): c % alg.field.p}
    return alg._shift_left(row, exp) if exp else row


def two_step_right(alg: ExtAlgebra, sym: BasisSymbol, v) -> dict:
    """sym tau_v where lengths add: the rules of _RIGHT_RULES for the first
    letter of an odd u and the first two of an even u, v = omega^e u,
    applied from the left; the torus part carries no scalar."""
    d, sign, (f, w) = sym
    exp, word = v
    c, odd = 1, len(w) % 2
    for letter in word[:2 - len(word) % 2]:
        rule = graded._RIGHT_RULES[letter, d, sign, odd]
        if rule is None:
            return {}
        sign, unit = rule
        c *= unit
        odd ^= 1
    f = (f - exp if len(w) % 2 else f + exp) % alg.weyl.n
    return {_shifted((d, sign, _weyl((f, w + word)))): c % alg.field.p}


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
        """tau_{s_i} sym as a symbolic row: where lengths add, the one plain
        term of graded._ADDS_RULES or zero; where the word shortens, the row
        of the letter table, whose terms c e_m s on the support of sym stay
        character keys."""
        W = self.weyl
        d, sign, w = sym
        si = W.simple(i)
        if W.lengths_add(si, w):
            rule = graded._ADDS_RULES[i, d, sign]
            return self._row(d, w, (), W.mul(si, w), (rule,) if rule else ())
        chars, plain = _LETTER_ROWS[i, d, sign, len(w[1]) == 1]
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

    def _act_left(self, u, sym: BasisSymbol, c: int = 1) -> dict:
        return self._walk_left({u: c}, {sym: 1})

    def _act_right(self, sym: BasisSymbol, v) -> dict:
        return self._walk_right({sym: 1}, {v: 1})

    def _walk_left(self, h: dict, row) -> dict:
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

    def _walk_right(self, row, h: dict) -> dict:
        """row h on a symbolic row, h a coefficient dict of the Hecke algebra:
        for each tau_w, w = omega^e u, the right torus shift by e, then the
        letters of u from left to right."""
        p = self.field.p
        total: dict = {}
        for (exp, word), c in h.items():
            cur = shift_right(self, row, exp) if exp else row
            for letter in word:
                cur = self._apply_letter(letter, cur, True)
                if not cur:
                    break
            add_into(total, cur.items(), c, p)
        return total
