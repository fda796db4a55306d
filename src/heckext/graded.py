"""The graded space E0 + E1 + E2 + E3 with its basis and the degree-0 actions.

Basis symbols per summand w: tau_w in degree 0; beta^-_w, beta^0_w,
beta^+_w in degree 1; alpha^-_w, alpha^0_w, alpha^+_w in degree 2; phi_w
in degree 3.  The sign-0 symbols exist only when w has length >= 1;
requesting one at a torus element is a constructor error, never a silent
zero.

Elements are combinations of the core in coeff.py keyed on BasisSymbol;
this module adds the degree-0 actions and the involutions, product.py the
product.  The left action of the Hecke algebra is given by explicit
single-letter tables, keyed on the acting letter, the degree and sign of
the target symbol, whether lengths add, and (where the tables split
further) on whether the support has length 1 or >= 2; the degree-0 rows
are the Hecke algebra's own rule (hecke.py), not restated.  The right
action is their transport through the anti-involution, x h = J(J(h) J(x))
(deg h = 0, no sign), made term by term: for tau_w, w = omega^e u, the
right torus shift by e (no scalar), then the letters of u from left to
right, each transported once per torus orbit.  The printed right-action
formulas are regression tests, not a second table.

Symbolic rows.  A table row is built as a list of entries, each a plain
term (sym, c) or a term (m, sym, c) standing for c e_{id^m} sym, whose
expansion has p - 1 terms; _expand_row expands a row once.  The right
action transports the symbolic row of J(sym) through J entry by entry (an
idempotent becomes another idempotent by the slide law), so a
representative costs one J lookup per entry, not one per expanded term.

Keys and memos.  A WeylElement is the flat tuple (exp, word) and a
BasisSymbol the tuple (degree, sign, support), so the keys of every
coefficient dict and memo hash and compare in C.  Each ExtAlgebra keeps
memos of pure functions of their keys: the pair memo (products of two
basis symbols, in product.py), the letter memo and the right-letter memo
(one simple reflection acting on one symbol, on the left or the right)
and the J table (J on one symbol, as a (coeff, symbol) pair).  Beside
the pair memo and each letter memo, an orbit memo keeps one entry per
torus orbit, from which the other entries of the orbit are derived by a
torus shift.  Memo values are read-only (MappingProxyType or tuples) and
handed out without a copy.

Shift kernels.  _shift_left (the left torus action, with a scalar) and
_shift_right (the plain right shift) move a combination along its torus
orbit; the torus letters of act_left and act_right and the three orbit
derivations all go through them.  They intern their images in one table
per algebra, so the symbols of derived entries are shared, and they read
u0^e from the power table of the field (PrimeField.root_powers: memoized
per (p, u0), built on first use), as _acc_e does.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from types import MappingProxyType

from .coeff import Combination, PrimeField, add_into, check_parameters
from .hecke import HeckeAlgebra, HeckeElement
from .weyl import S0, S1, WeylElement, WeylGroup

__all__ = ["BasisSymbol", "GradedElement", "ExtAlgebra"]

KIND_NAMES = {
    (0, None): "tau",
    (1, -1): "bm",
    (1, 0): "b0",
    (1, 1): "bp",
    (2, -1): "am",
    (2, 0): "a0",
    (2, 1): "ap",
    (3, None): "phi",
}


class BasisSymbol(tuple):
    """One basis symbol: the flat tuple (degree, sign, support).

    The sign is set in degrees 1 and 2 only; the support is a WeylElement.
    """

    __slots__ = ()

    def __new__(cls, degree: int, sign: int | None, support: WeylElement):
        if degree not in (0, 1, 2, 3):
            raise ValueError(f"degree must be 0..3, got {degree}")
        if degree in (0, 3):
            if sign is not None:
                raise ValueError("degree 0/3 symbols carry no sign")
        else:
            if sign not in (-1, 0, 1):
                raise ValueError(f"sign must be -, 0 or +, got {sign}")
            if sign == 0 and not support.word:
                raise ValueError("sign-0 symbols require support of length >= 1")
        return tuple.__new__(cls, (degree, sign, support))

    degree = property(itemgetter(0))
    sign = property(itemgetter(1))
    support = property(itemgetter(2))

    @property
    def kind(self) -> str:
        return KIND_NAMES[self[:2]]

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"{self.kind}({self.support!r})"


# build BasisSymbol((d, sign, support)) and WeylElement((exp, word))
# unchecked: a torus shift of a valid symbol is valid
_shifted = partial(tuple.__new__, BasisSymbol)
_weyl = partial(tuple.__new__, WeylElement)


class GradedElement(Combination):
    """Element of the graded algebra: finite map basis symbol -> scalar."""

    __slots__ = ()

    def _product(self, other: "GradedElement") -> "GradedElement":
        from . import product

        return product.multiply(self, other)

    # --- structure queries ---

    def degrees(self) -> set[int]:
        return {s.degree for s in self.coeffs}

    def component(self, degree: int) -> "GradedElement":
        return GradedElement(
            self.algebra,
            {s: c for s, c in self.coeffs.items() if s.degree == degree},
        )

    def is_homogeneous(self, degree: int) -> bool:
        return all(s.degree == degree for s in self.coeffs)

    def support_lengths(self) -> set[int]:
        return {s.support.length for s in self.coeffs}

    def __repr__(self):
        from .grammar import render_element

        return render_element(self)


class ExtAlgebra:
    """Context object: field, Weyl group, Hecke algebra, action tables, caches.

    >>> E = ExtAlgebra(5)
    >>> E.weyl.identity
    w(0;)
    """

    def __init__(self, p: int, primitive_root: int | None = None):
        self.field = PrimeField(p, primitive_root)
        self.weyl = WeylGroup(self.field)
        self.hecke = HeckeAlgebra(self.weyl)
        self._letter_cache: dict[tuple[int, BasisSymbol], MappingProxyType] = {}
        self._left_orbit_cache: dict[tuple, tuple[int, MappingProxyType]] = {}
        self._pair_cache: dict[tuple[BasisSymbol, BasisSymbol], MappingProxyType] = {}
        self._base_sq: dict[int, GradedElement] = {}
        self._j_cache: dict[BasisSymbol, tuple[int, BasisSymbol]] = {}
        self._right_letter_cache: dict[tuple[int, BasisSymbol], MappingProxyType] = {}
        self._right_orbit_cache: dict[tuple, tuple[int, MappingProxyType]] = {}
        self._orbit_cache: dict[tuple, tuple[int, int, MappingProxyType]] = {}
        self._symbols: dict[BasisSymbol, BasisSymbol] = {}

    # --- element constructors ---

    def zero(self) -> GradedElement:
        return GradedElement(self, {})

    def one(self) -> GradedElement:
        return self.tau(self.weyl.identity)

    def symbol_element(self, sym: BasisSymbol) -> GradedElement:
        return GradedElement(self, {sym: 1})

    def tau(self, w: WeylElement) -> GradedElement:
        return self.symbol_element(BasisSymbol(0, None, w))

    def beta(self, sign: int, w: WeylElement) -> GradedElement:
        return self.symbol_element(BasisSymbol(1, sign, w))

    def alpha(self, sign: int, w: WeylElement) -> GradedElement:
        return self.symbol_element(BasisSymbol(2, sign, w))

    def phi(self, w: WeylElement) -> GradedElement:
        return self.symbol_element(BasisSymbol(3, None, w))

    def element(self, coeffs: dict) -> GradedElement:
        return GradedElement.make(self, coeffs)

    def embed(self, h: HeckeElement) -> GradedElement:
        return GradedElement(self, {BasisSymbol(0, None, w): c for w, c in h.coeffs.items()})

    def basis_symbols(self, max_length: int, degrees=(0, 1, 2, 3)):
        """All basis symbols with support length <= max_length."""
        for w in self.weyl.elements(max_length):
            for d in degrees:
                if d in (0, 3):
                    yield BasisSymbol(d, None, w)
                else:
                    for sign in (-1, 0, 1):
                        if sign == 0 and not w.word:
                            continue
                        yield BasisSymbol(d, sign, w)

    # --- torus and idempotent building blocks ---

    def _torus_weight(self, sym: BasisSymbol) -> int:
        """k such that the torus generator acts on sym with scalar u0^k."""
        d, sign = sym.degree, sym.sign
        if d == 1:
            return 2 * sign
        if d == 2:
            return -2 * sign
        return 0

    def _shift_left(self, coeffs, a: int, scale: int = 1) -> dict:
        """scale * T_a(coeffs), T_a the left torus action of omega^a: a support
        w becomes omega^a w, and a symbol of torus weight k gains u0^(k a).
        Images are interned; no two terms collide or cancel."""
        p, n = self.field.p, self.weyl.n
        powers = self.field.root_powers()
        # the weight is 2 on bp and am, -2 on bm and ap, 0 elsewhere
        up, down = scale * powers[2 * a % n] % p, scale * powers[-2 * a % n] % p
        intern = self._symbols.setdefault
        out: dict = {}
        for sym, c in coeffs.items():
            d, sign, (exp, word) = sym
            image = _shifted((d, sign, _weyl(((exp + a) % n, word))))
            unit = (up if (sign > 0) == (d == 1) else down) if sign else scale
            out[intern(image, image)] = c * unit % p
        return out

    def _shift_right(self, coeffs, a: int) -> dict:
        """coeffs tau_{omega^a}: a support v becomes v omega^a, its exponent
        gains (-1)^|v| a, with no scalar.  Images are interned."""
        n = self.weyl.n
        intern = self._symbols.setdefault
        out: dict = {}
        for sym, c in coeffs.items():
            d, sign, (exp, word) = sym
            image = _shifted((d, sign, _weyl(((exp - a if len(word) % 2 else exp + a) % n, word))))
            out[intern(image, image)] = c
        return out

    def _acc_e(self, out: dict, m: int, sym: BasisSymbol, scale: int) -> None:
        """Accumulate scale * (e_{id^m} acting on the left of sym)."""
        p, n = self.field.p, self.weyl.n
        powers = self.field.root_powers()
        d, sign, (exp, word) = sym
        # e_{id^m} = -sum_a u0^(-m a) tau_{omega^a}, and omega^a scales sym by u0^(k a)
        step = (self._torus_weight(sym) - m) % n
        scale = -scale
        for a in range(n):
            key = _shifted((d, sign, _weyl(((a + exp) % n, word))))
            c = (out.get(key, 0) + scale * powers[a * step % n]) % p
            if c:
                out[key] = c
            elif key in out:
                del out[key]

    def _expand_row(self, row) -> dict:
        """The coefficient dict of a symbolic row (see _letter_row)."""
        p = self.field.p
        out: dict = {}
        for entry in row:
            if len(entry) == 3:
                self._acc_e(out, *entry)
            else:
                add_into(out, (entry,), 1, p)
        return out

    def idempotent_times(self, m: int, x: GradedElement) -> GradedElement:
        out: dict = {}
        for sym, c in x.coeffs.items():
            self._acc_e(out, m, sym, c)
        return GradedElement(self, out)

    # --- single-letter left action tables ---

    def _letter_on_symbol(self, i: int, sym: BasisSymbol) -> MappingProxyType:
        """tau_{s_i} sym, memoized.  The first miss in a torus orbit is computed
        from the table and stored as the orbit's representative, with its
        exponent f0.  As s_i omega^f = omega^-f s_i, a later miss at f is
        u0^(-k (f - f0)) T_(f0 - f) of it, k the torus weight of sym."""
        key = (i, sym)
        cached = self._letter_cache.get(key)
        if cached is not None:
            return cached
        d, sign, (f, word) = sym
        rep = self._left_orbit_cache.get((i, d, sign, word))
        if rep is None:
            out = MappingProxyType(self._letter_on_symbol_uncached(i, sym))
            self._left_orbit_cache[i, d, sign, word] = (f, out)
        else:
            f0, first = rep
            scale = self.field.root_powers()[-self._torus_weight(sym) * (f - f0) % self.weyl.n]
            out = MappingProxyType(self._shift_left(first, f0 - f, scale))
        self._letter_cache[key] = out
        return out

    def _letter_on_symbol_uncached(self, i: int, sym: BasisSymbol) -> dict:
        return self._expand_row(self._letter_row(i, sym))

    def _letter_row(self, i: int, sym: BasisSymbol) -> list:
        """tau_{s_i} sym as a symbolic row: each entry is a plain term (sym, c)
        or a term (m, sym, c) standing for c e_{id^m} sym, left unexpanded."""
        W = self.weyl
        d, sign, w = sym
        if d == 0:
            # the Hecke algebra's own single-letter rule, on one basis element
            row = self.hecke._letter_left(i, {w: 1})
            return [(BasisSymbol(0, None, v), c) for v, c in row.items()]
        si = W.simple(i)
        sw = W.mul(si, w)

        if W.lengths_add(si, w):
            if d == 1:
                if i == S0:
                    if sign == -1:
                        return [(BasisSymbol(1, 1, sw), -1)]
                    if sign == 0:
                        return [(BasisSymbol(1, 0, sw), -1)]
                else:
                    if sign == 0:
                        return [(BasisSymbol(1, 0, sw), -1)]
                    if sign == 1:
                        return [(BasisSymbol(1, -1, sw), -1)]
            elif d == 2:
                if i == S0 and sign == 1:
                    return [(BasisSymbol(2, -1, sw), -1)]
                if i == S1 and sign == -1:
                    return [(BasisSymbol(2, 1, sw), -1)]
            # degree 3: zero when lengths add
            return []

        # lengths do not add: l(s_i w) = l(w) - 1, so l(w) >= 1; every row
        # starts with -e_0 sym
        L = w.length
        row: list = [(0, sym, -1)]
        if d == 1:
            if i == S0:
                if sign == -1:
                    row += [(1, BasisSymbol(1, 0, w), -2), (BasisSymbol(1, 1, sw), -1)]
                    if L == 1:
                        row.append((2, BasisSymbol(1, 1, w), 1))
                elif sign == 0 and L == 1:
                    row.append((1, BasisSymbol(1, 1, w), 1))
            else:
                if sign == 0 and L == 1:
                    row.append((-1, BasisSymbol(1, -1, w), -1))
                elif sign == 1:
                    row += [(-1, BasisSymbol(1, 0, w), 2), (BasisSymbol(1, -1, sw), -1)]
                    if L == 1:
                        row.append((-2, BasisSymbol(1, -1, w), 1))
        elif d == 2:
            if i == S0:
                if sign == 0:
                    row.append((1, BasisSymbol(2, -1, w), 2))
                    if L >= 2:
                        row.append((BasisSymbol(2, 0, sw), -1))
                elif sign == 1:
                    row.append((BasisSymbol(2, -1, sw), -1))
                    if L == 1:
                        row += [(1, BasisSymbol(2, 0, w), -1), (2, BasisSymbol(2, -1, w), 1)]
            else:
                if sign == -1:
                    row.append((BasisSymbol(2, 1, sw), -1))
                    if L == 1:
                        row += [(-1, BasisSymbol(2, 0, w), 1), (-2, BasisSymbol(2, 1, w), 1)]
                elif sign == 0:
                    row.append((-1, BasisSymbol(2, 1, w), -2))
                    if L >= 2:
                        row.append((BasisSymbol(2, 0, sw), -1))
        else:
            row.append((BasisSymbol(3, None, sw), 1))
        return row

    def _apply_letter(self, table, i: int, coeffs: dict) -> dict:
        """Apply one letter through table, a letter memo on the left or right."""
        p = self.field.p
        out: dict = {}
        for sym, c in coeffs.items():
            add_into(out, table(i, sym).items(), c, p)
        return out

    def _map_symbols(self, coeffs, fn) -> dict:
        """Apply fn: symbol -> (unit, symbol), injective on symbols (J, the
        uniformizer conjugation): no two terms collide or cancel."""
        p = self.field.p
        out: dict = {}
        for sym, c in coeffs.items():
            coeff, image = fn(sym)
            out[image] = c * coeff % p
        return out

    # --- the two-sided action ---

    def act_left(self, h: HeckeElement, x: GradedElement) -> GradedElement:
        check_parameters(self, h.algebra)
        check_parameters(self, x.algebra)
        p = self.field.p
        total: dict = {}
        for w, c in h.coeffs.items():
            cur = x.coeffs
            for letter in reversed(w.word):
                cur = self._apply_letter(self._letter_on_symbol, letter, cur)
                if not cur:
                    break
            if cur and w.exp:
                cur = self._shift_left(cur, w.exp)
            add_into(total, cur.items(), c, p)
        return GradedElement(self, total)

    def act_right(self, x: GradedElement, h: HeckeElement) -> GradedElement:
        check_parameters(self, x.algebra)
        check_parameters(self, h.algebra)
        p = self.field.p
        total: dict = {}
        for w, c in h.coeffs.items():
            cur = x.coeffs
            if w.exp:
                cur = self._shift_right(cur, w.exp)
            for letter in w.word:
                cur = self._apply_letter(self._right_letter_on_symbol, letter, cur)
                if not cur:
                    break
            add_into(total, cur.items(), c, p)
        return GradedElement(self, total)

    def _right_letter_on_symbol(self, i: int, sym: BasisSymbol) -> MappingProxyType:
        """sym tau_{s_i}, memoized.  The first miss in a torus orbit is stored
        as the orbit's representative (_right_row), with g where sym = sym0
        tau_{omega^g}.  A later miss at g' is its right torus shift by g - g'."""
        cached = self._right_letter_cache.get((i, sym))
        if cached is not None:
            return cached
        d, sign, (f, word) = sym
        g = -f if len(word) % 2 else f
        rep = self._right_orbit_cache.get((i, d, sign, word))
        if rep is None:
            out = MappingProxyType(self._expand_row(self._right_row(i, sym)))
            self._right_orbit_cache[i, d, sign, word] = (g, out)
        else:
            g0, first = rep
            out = MappingProxyType(self._shift_right(first, g0 - g))
        self._right_letter_cache[i, sym] = out
        return out

    def _right_row(self, i: int, sym: BasisSymbol) -> list:
        """sym tau_{s_i} as a symbolic row: the left row of J(sym) transported
        through J, J(tau_{omega^half} tau_{s_i} J(sym)), as J(tau_{s_i}) =
        tau_{s_i^-1} and s_i^-1 = omega^half s_i.  Entry by entry, with
        u0^half = -1 and even torus weights, so T_half scales no symbol:
          a term x s    becomes  x c_J s3,  (c_J, s3) = J(T_half s);
          x e_m s2      becomes  x u0^(m half) c_J e_{m*} s3,  (c_J, s3) = J(s2),
        as tau_{omega^h} e_m = u0^(m h) e_m, J(e_m) = e_{-m} and the right
        idempotent slide s3 e_{-m} = e_{m*} s3, m* = (-1)^(|s3|+1) m + k(s3).
        It costs one J lookup per entry, however many terms an e_m has."""
        n, half = self.weyl.n, self.weyl.half
        powers = self.field.root_powers()
        c, jsym = self._symbol_involution(sym)
        row: list = []
        for entry in self._letter_row(i, jsym):
            if len(entry) == 2:
                (d, sign, (exp, word)), x = entry
                cj, s3 = self._symbol_involution(
                    _shifted((d, sign, _weyl(((exp + half) % n, word)))))
                row.append((s3, x * c * cj))
            else:
                m, s2, x = entry
                cj, s3 = self._symbol_involution(s2)
                mstar = (m if len(s3[2][1]) % 2 else -m) + self._torus_weight(s3)
                row.append((mstar, s3, x * c * cj * powers[m * half % n]))
        return row

    # --- involutions ---

    def _symbol_involution(self, sym: BasisSymbol) -> tuple[int, BasisSymbol]:
        """J on one symbol, as the pair (coeff, symbol); memoized (the J table)."""
        cached = self._j_cache.get(sym)
        if cached is None:
            cached = self._j_cache[sym] = self._symbol_involution_uncached(sym)
        return cached

    def _symbol_involution_uncached(self, sym: BasisSymbol) -> tuple[int, BasisSymbol]:
        d, sign, w = sym
        wi = self.weyl.inv(w)
        if d in (0, 3):
            return 1, BasisSymbol(d, None, wi)
        # u_w^2 on beta^- and alpha^+, its inverse on beta^+ and alpha^-, 1 on sign 0
        c = self.field.root_pow(-self._torus_weight(sym) * w.exp)
        if w.length % 2 == 0:
            return c, BasisSymbol(d, sign, wi)
        return self.field.neg(c), BasisSymbol(d, -sign, wi)

    def involution(self, x: GradedElement) -> GradedElement:
        """The involutive anti-automorphism J (graded sign on products)."""
        return GradedElement(self, self._map_symbols(x.coeffs, self._symbol_involution))

    def _symbol_uniformizer_conj(self, sym: BasisSymbol) -> tuple[int, BasisSymbol]:
        cw = self.weyl.uniformizer_conj(sym.support)
        d, sign = sym.degree, sym.sign
        if d in (0, 3):
            return 1, BasisSymbol(d, None, cw)
        if sign == 0:
            return self.field.p - 1, BasisSymbol(d, 0, cw)
        return 1, BasisSymbol(d, -sign, cw)

    def uniformizer_conj(self, x: GradedElement) -> GradedElement:
        """The involutive algebra automorphism induced by the uniformizer."""
        return GradedElement(self, self._map_symbols(x.coeffs, self._symbol_uniformizer_conj))

    # --- factorization of degree-1 symbols through the four generators ---

    def generator_symbols(self) -> tuple[BasisSymbol, BasisSymbol, BasisSymbol, BasisSymbol]:
        """The four E0-bimodule generators of degree 1."""
        W = self.weyl
        return (
            BasisSymbol(1, -1, W.identity),
            BasisSymbol(1, 1, W.identity),
            BasisSymbol(1, 0, W.s0),
            BasisSymbol(1, 0, W.s1),
        )

    def factor_through_generators(
        self, sym: BasisSymbol
    ) -> tuple[int, WeylElement, BasisSymbol, WeylElement]:
        """Write a degree-1 symbol as c * tau_a * g * tau_b.

        g is one of the four bimodule generators; exactly which case applies
        is decided by the sign and the first letter of the support word.
        """
        if sym.degree != 1:
            raise ValueError(f"expected a degree-1 symbol, got {sym!r}")
        W, F = self.weyl, self.field
        w = sym.support
        word = w.word
        if sym.sign == 0:
            j = word[0]
            return (
                1,
                W.omega(w.exp),
                BasisSymbol(1, 0, W.simple(j)),
                WeylElement(W, 0, word[1:]),
            )
        if sym.sign == -1:
            if not word or word[0] == S0:
                return 1, W.identity, BasisSymbol(1, -1, W.identity), w
            if len(word) % 2 == 0:  # word of shape (s1 s0)^k
                return (
                    W.unit_square(w),
                    w,
                    BasisSymbol(1, -1, W.identity),
                    W.identity,
                )
            # word of shape s1 (s0 s1)^k
            return (
                F.neg(W.unit_square(w)),
                w,
                BasisSymbol(1, 1, W.identity),
                W.identity,
            )
        if not word or word[0] == S1:
            return 1, W.identity, BasisSymbol(1, 1, W.identity), w
        if len(word) % 2 == 0:  # word of shape (s0 s1)^k
            return (
                F.inv(W.unit_square(w)),
                w,
                BasisSymbol(1, 1, W.identity),
                W.identity,
            )
        # word of shape s0 (s1 s0)^k
        return (
            F.neg(F.inv(W.unit_square(w))),
            w,
            BasisSymbol(1, -1, W.identity),
            W.identity,
        )
