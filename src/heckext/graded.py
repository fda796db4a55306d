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

Keys and memos.  A WeylElement is the flat tuple (exp, word) and a
BasisSymbol the tuple (degree, sign, support), so the keys of every
coefficient dict and memo hash and compare in C.  Each ExtAlgebra keeps
memos of pure functions of their keys: the pair memo (products of two
basis symbols, in product.py), the letter memo and the right-letter memo
(one simple reflection acting on one symbol, on the left or the right)
and the J table (J on one symbol, as a (coeff, symbol) pair).  Beside
the pair memo and the right-letter memo, an orbit memo each keeps one
entry per torus orbit, from which the other entries of the orbit are
derived.  Memo values are read-only (MappingProxyType or tuples) and
handed out without a copy.  Torus shifts intern their images in one
table per algebra, so the symbols of derived products are shared.
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


# builds BasisSymbol((d, sign, support)) unchecked: a torus shift of a valid
# symbol is valid
_shifted = partial(tuple.__new__, BasisSymbol)


class GradedElement(Combination):
    """Element of the graded algebra: finite map basis symbol -> scalar."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, GradedElement):
            from . import product

            return product.multiply(self, other)
        return NotImplemented

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

    def _torus_on_symbol(self, e: int, sym: BasisSymbol) -> tuple[int, BasisSymbol]:
        d, sign, (exp, word) = sym
        coeff = self.field.root_pow(self._torus_weight(sym) * e)
        # omega^e w is a plain shift of the torus exponent; the image is interned
        image = _shifted((d, sign, WeylElement(self.weyl, (e + exp) % self.weyl.n, word)))
        return coeff, self._symbols.setdefault(image, image)

    def _torus_on_symbol_right(self, e: int, sym: BasisSymbol) -> tuple[int, BasisSymbol]:
        """sym tau_{omega^e}: the support w becomes w omega^e, with no scalar."""
        d, sign, (exp, word) = sym
        exp += -e if len(word) % 2 else e
        image = _shifted((d, sign, WeylElement(self.weyl, exp % self.weyl.n, word)))
        return 1, self._symbols.setdefault(image, image)

    def _acc_e(self, out: dict, m: int, sym: BasisSymbol, scale: int) -> None:
        """Accumulate scale * (e_{id^m} acting on the left of sym)."""
        F, W, p = self.field, self.weyl, self.field.p
        k = self._torus_weight(sym)
        d, sign, (exp, word) = sym
        # e_{id^m} = -sum_a u0^(-m a) tau_{omega^a}, and omega^a scales sym by u0^(k a)
        terms = [(_shifted((d, sign, WeylElement(W, (a + exp) % W.n, word))),
                  F.root_pow((k - m) * a)) for a in range(W.n)]
        add_into(out, terms, -scale, p)

    def idempotent_times(self, m: int, x: GradedElement) -> GradedElement:
        out: dict = {}
        for sym, c in x.coeffs.items():
            self._acc_e(out, m, sym, c)
        return GradedElement(self, out)

    # --- single-letter left action tables ---

    def _letter_on_symbol(self, i: int, sym: BasisSymbol) -> MappingProxyType:
        key = (i, sym)
        cached = self._letter_cache.get(key)
        if cached is not None:
            return cached
        out = MappingProxyType(self._letter_on_symbol_uncached(i, sym))
        self._letter_cache[key] = out
        return out

    def _letter_on_symbol_uncached(self, i: int, sym: BasisSymbol) -> dict:
        W, p = self.weyl, self.field.p
        w = sym.support
        d, sign = sym.degree, sym.sign
        if d == 0:
            # the Hecke algebra's own single-letter rule, on one basis element
            row = self.hecke._letter_left(i, {w: 1})
            return {BasisSymbol(0, None, v): c for v, c in row.items()}
        si = W.simple(i)
        sw = W.mul(si, w)
        out: dict = {}

        if W.lengths_add(si, w):
            if d == 1:
                if i == S0:
                    if sign == -1:
                        out[BasisSymbol(1, 1, sw)] = p - 1
                    elif sign == 0:
                        out[BasisSymbol(1, 0, sw)] = p - 1
                else:
                    if sign == 0:
                        out[BasisSymbol(1, 0, sw)] = p - 1
                    elif sign == 1:
                        out[BasisSymbol(1, -1, sw)] = p - 1
            elif d == 2:
                if i == S0 and sign == 1:
                    out[BasisSymbol(2, -1, sw)] = p - 1
                elif i == S1 and sign == -1:
                    out[BasisSymbol(2, 1, sw)] = p - 1
            # degree 3: zero when lengths add
            return out

        # lengths do not add: l(s_i w) = l(w) - 1, so l(w) >= 1
        L = w.length
        if d == 1:
            if i == S0:
                if sign == -1:
                    self._acc_e(out, 0, BasisSymbol(1, -1, w), -1)
                    self._acc_e(out, 1, BasisSymbol(1, 0, w), -2)
                    add_into(out, ((BasisSymbol(1, 1, sw), 1),), -1, p)
                    if L == 1:
                        self._acc_e(out, 2, BasisSymbol(1, 1, w), 1)
                elif sign == 0:
                    self._acc_e(out, 0, BasisSymbol(1, 0, w), -1)
                    if L == 1:
                        self._acc_e(out, 1, BasisSymbol(1, 1, w), 1)
                else:
                    self._acc_e(out, 0, BasisSymbol(1, 1, w), -1)
            else:
                if sign == -1:
                    self._acc_e(out, 0, BasisSymbol(1, -1, w), -1)
                elif sign == 0:
                    self._acc_e(out, 0, BasisSymbol(1, 0, w), -1)
                    if L == 1:
                        self._acc_e(out, -1, BasisSymbol(1, -1, w), -1)
                else:
                    self._acc_e(out, 0, BasisSymbol(1, 1, w), -1)
                    self._acc_e(out, -1, BasisSymbol(1, 0, w), 2)
                    add_into(out, ((BasisSymbol(1, -1, sw), 1),), -1, p)
                    if L == 1:
                        self._acc_e(out, -2, BasisSymbol(1, -1, w), 1)
        elif d == 2:
            if i == S0:
                if sign == -1:
                    self._acc_e(out, 0, BasisSymbol(2, -1, w), -1)
                elif sign == 0:
                    self._acc_e(out, 0, BasisSymbol(2, 0, w), -1)
                    self._acc_e(out, 1, BasisSymbol(2, -1, w), 2)
                    if L >= 2:
                        add_into(out, ((BasisSymbol(2, 0, sw), 1),), -1, p)
                else:
                    self._acc_e(out, 0, BasisSymbol(2, 1, w), -1)
                    add_into(out, ((BasisSymbol(2, -1, sw), 1),), -1, p)
                    if L == 1:
                        self._acc_e(out, 1, BasisSymbol(2, 0, w), -1)
                        self._acc_e(out, 2, BasisSymbol(2, -1, w), 1)
            else:
                if sign == -1:
                    self._acc_e(out, 0, BasisSymbol(2, -1, w), -1)
                    add_into(out, ((BasisSymbol(2, 1, sw), 1),), -1, p)
                    if L == 1:
                        self._acc_e(out, -1, BasisSymbol(2, 0, w), 1)
                        self._acc_e(out, -2, BasisSymbol(2, 1, w), 1)
                elif sign == 0:
                    self._acc_e(out, 0, BasisSymbol(2, 0, w), -1)
                    self._acc_e(out, -1, BasisSymbol(2, 1, w), -2)
                    if L >= 2:
                        add_into(out, ((BasisSymbol(2, 0, sw), 1),), -1, p)
                else:
                    self._acc_e(out, 0, BasisSymbol(2, 1, w), -1)
        else:
            add_into(out, ((BasisSymbol(3, None, sw), 1),), 1, p)
            self._acc_e(out, 0, BasisSymbol(3, None, w), -1)
        return out

    def _apply_letter(self, table, i: int, coeffs: dict) -> dict:
        """Apply one letter through table, a letter memo on the left or right."""
        p = self.field.p
        out: dict = {}
        for sym, c in coeffs.items():
            add_into(out, table(i, sym).items(), c, p)
        return out

    def _map_symbols(self, coeffs, fn, scale: int = 1) -> dict:
        """Apply fn: symbol -> (unit, symbol), injective on symbols (a torus
        shift, J, the uniformizer conjugation), and multiply by scale: no two
        terms collide or cancel."""
        p = self.field.p
        out: dict = {}
        for sym, c in coeffs.items():
            coeff, image = fn(sym)
            out[image] = c * coeff * scale % p
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
                cur = self._map_symbols(cur, partial(self._torus_on_symbol, w.exp))
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
                cur = self._map_symbols(cur, partial(self._torus_on_symbol_right, w.exp))
            for letter in w.word:
                cur = self._apply_letter(self._right_letter_on_symbol, letter, cur)
                if not cur:
                    break
            add_into(total, cur.items(), c, p)
        return GradedElement(self, total)

    def _right_letter_on_symbol(self, i: int, sym: BasisSymbol) -> MappingProxyType:
        """sym tau_{s_i}, memoized.  The first miss in a torus orbit is the left
        table transported through J, J(tau_{omega^half} tau_{s_i} J(sym)), as
        J(tau_{s_i}) = tau_{s_i^-1} and s_i^-1 = omega^half s_i; it is stored as
        the orbit's representative, with g where sym = sym0 tau_{omega^g}.  A
        later miss at g' is its right torus shift by g - g'."""
        cached = self._right_letter_cache.get((i, sym))
        if cached is not None:
            return cached
        d, sign, (f, word) = sym
        g = -f if len(word) % 2 else f
        rep = self._right_orbit_cache.get((i, d, sign, word))
        if rep is None:
            c, jsym = self._symbol_involution(sym)
            left = self._map_symbols(
                self._letter_on_symbol(i, jsym), partial(self._torus_on_symbol, self.weyl.half), c)
            out = MappingProxyType(self._map_symbols(left, self._symbol_involution))
            self._right_orbit_cache[i, d, sign, word] = (g, out)
        else:
            g0, first = rep
            out = MappingProxyType(
                self._map_symbols(first, partial(self._torus_on_symbol_right, g0 - g)))
        self._right_letter_cache[i, sym] = out
        return out

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
