"""The graded space E0 + E1 + E2 + E3 with its basis and the degree-0 actions.

Basis symbols per summand w: tau_w in degree 0; beta^-_w, beta^0_w,
beta^+_w in degree 1; alpha^-_w, alpha^0_w, alpha^+_w in degree 2; phi_w
in degree 3.  The sign-0 symbols exist only when w has length >= 1;
requesting one at a torus element is a constructor error, never a silent
zero.

The left action of the Hecke algebra is given by explicit single-letter
tables, keyed on the acting letter, the degree and sign of the target
symbol, whether lengths add, and (where the tables split further) on
whether the support has length 1 or >= 2.  The right action is defined by
transport through the anti-involution, act_right(x, h) =
J(act_left(J(h), J(x))); the degree of h is 0, so no sign enters.  The
printed right-action formulas become regression tests rather than a
second table.

Keys and memos.  A WeylElement is the flat tuple (exp, word) and a
BasisSymbol the tuple (degree, sign, support), so the keys of every
coefficient dict and memo hash and compare in C.  Each ExtAlgebra keeps
three memos of pure functions of their keys: the pair memo (products of
two basis symbols, in product.py), the letter memo (one simple
reflection acting on the left of one symbol) and the J table (J on one
symbol, as a (coeff, symbol) pair).  Memo values are read-only
(MappingProxyType or tuples) and handed out without a copy.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from types import MappingProxyType

from .coeff import PrimeField
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


def _add_into(total: dict, part: dict, scale: int, p: int) -> None:
    if scale % p == 0:
        return
    for k, v in part.items():
        c = (total.get(k, 0) + scale * v) % p
        if c:
            total[k] = c
        elif k in total:
            del total[k]


class GradedElement:
    """Element of the graded algebra: finite map basis symbol -> scalar."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: "ExtAlgebra", coeffs: dict):
        self.algebra = algebra
        self.coeffs = coeffs

    # --- linear structure ---

    def __add__(self, other: "GradedElement") -> "GradedElement":
        out = dict(self.coeffs)
        _add_into(out, other.coeffs, 1, self.algebra.field.p)
        return GradedElement(self.algebra, out)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        out = dict(self.coeffs)
        _add_into(out, other.coeffs, -1, self.algebra.field.p)
        return GradedElement(self.algebra, out)

    def __neg__(self) -> "GradedElement":
        p = self.algebra.field.p
        return GradedElement(self.algebra, {k: (-c) % p for k, c in self.coeffs.items()})

    def scale(self, c: int) -> "GradedElement":
        p = self.algebra.field.p
        c %= p
        if c == 0:
            return self.algebra.zero()
        return GradedElement(self.algebra, {k: (c * x) % p for k, x in self.coeffs.items()})

    def __rmul__(self, c):
        if isinstance(c, int):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, GradedElement):
            from . import product

            return product.multiply(self, other)
        return NotImplemented

    # --- structure queries ---

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedElement)
            and self.algebra.same_parameters(other.algebra)
            and self.coeffs == other.coeffs
        )

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

    def same_parameters(self, other: "ExtAlgebra") -> bool:
        return self is other or self.field == other.field

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
        p = self.field.p
        return GradedElement(self, {s: c % p for s, c in coeffs.items() if c % p})

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
        # omega^e w is a plain shift of the torus exponent
        return coeff, BasisSymbol(d, sign, WeylElement(self.weyl, (e + exp) % self.weyl.n, word))

    def _acc_e(self, out: dict, m: int, sym: BasisSymbol, scale: int) -> None:
        """Accumulate scale * (e_{id^m} acting on the left of sym)."""
        F, W, p = self.field, self.weyl, self.field.p
        k = self._torus_weight(sym)
        d, sign, (exp, word) = sym
        for a in range(W.n):
            c = (-scale * F.root_pow((k - m) * a)) % p
            if not c:
                continue
            key = BasisSymbol(d, sign, WeylElement(W, (a + exp) % W.n, word))
            v = (out.get(key, 0) + c) % p
            if v:
                out[key] = v
            elif key in out:
                del out[key]

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
        si = W.simple(i)
        w = sym.support
        d, sign = sym.degree, sym.sign
        out: dict = {}

        if W.lengths_add(si, w):
            sw = W.mul(si, w)
            if d == 0:
                out[BasisSymbol(0, None, sw)] = 1
            elif d == 1:
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
        sw = W.mul(si, w)
        if d == 0:
            # quadratic relation: -e_1 tau_w, the sum of all torus twists
            for h in range(W.n):
                out[BasisSymbol(0, None, WeylElement(W, h, w.word))] = 1
        elif d == 1:
            if i == S0:
                if sign == -1:
                    self._acc_e(out, 0, BasisSymbol(1, -1, w), -1)
                    self._acc_e(out, 1, BasisSymbol(1, 0, w), -2)
                    k = BasisSymbol(1, 1, sw)
                    out[k] = (out.get(k, 0) - 1) % p
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
                    k = BasisSymbol(1, -1, sw)
                    out[k] = (out.get(k, 0) - 1) % p
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
                        k = BasisSymbol(2, 0, sw)
                        out[k] = (out.get(k, 0) - 1) % p
                else:
                    self._acc_e(out, 0, BasisSymbol(2, 1, w), -1)
                    k = BasisSymbol(2, -1, sw)
                    out[k] = (out.get(k, 0) - 1) % p
                    if L == 1:
                        self._acc_e(out, 1, BasisSymbol(2, 0, w), -1)
                        self._acc_e(out, 2, BasisSymbol(2, -1, w), 1)
            else:
                if sign == -1:
                    self._acc_e(out, 0, BasisSymbol(2, -1, w), -1)
                    k = BasisSymbol(2, 1, sw)
                    out[k] = (out.get(k, 0) - 1) % p
                    if L == 1:
                        self._acc_e(out, -1, BasisSymbol(2, 0, w), 1)
                        self._acc_e(out, -2, BasisSymbol(2, 1, w), 1)
                elif sign == 0:
                    self._acc_e(out, 0, BasisSymbol(2, 0, w), -1)
                    self._acc_e(out, -1, BasisSymbol(2, 1, w), -2)
                    if L >= 2:
                        k = BasisSymbol(2, 0, sw)
                        out[k] = (out.get(k, 0) - 1) % p
                else:
                    self._acc_e(out, 0, BasisSymbol(2, 1, w), -1)
        else:
            k = BasisSymbol(3, None, sw)
            out[k] = (out.get(k, 0) + 1) % p
            self._acc_e(out, 0, BasisSymbol(3, None, w), -1)
        return {k: v for k, v in out.items() if v}

    def _apply_letter_left(self, i: int, coeffs: dict) -> dict:
        p = self.field.p
        out: dict = {}
        for sym, c in coeffs.items():
            _add_into(out, self._letter_on_symbol(i, sym), c, p)
        return out

    def _map_symbols(self, coeffs, fn) -> dict:
        """Apply fn: symbol -> (unit, symbol), injective on symbols (a torus
        shift, J, the uniformizer conjugation): no two terms collide or cancel."""
        p = self.field.p
        out: dict = {}
        for sym, c in coeffs.items():
            coeff, image = fn(sym)
            out[image] = c * coeff % p
        return out

    # --- the two-sided action ---

    def act_left(self, h: HeckeElement, x: GradedElement) -> GradedElement:
        p = self.field.p
        total: dict = {}
        for w, c in h.coeffs.items():
            cur = x.coeffs
            for letter in reversed(w.word):
                cur = self._apply_letter_left(letter, cur)
                if not cur:
                    break
            if cur and w.exp:
                cur = self._map_symbols(cur, partial(self._torus_on_symbol, w.exp))
            _add_into(total, cur, c, p)
        return GradedElement(self, total)

    def act_right(self, x: GradedElement, h: HeckeElement) -> GradedElement:
        # transport through the anti-involution; deg(h) = 0, so no sign
        return self.involution(
            self.act_left(self.hecke.involution(h), self.involution(x))
        )

    # --- involutions ---

    def _symbol_involution(self, sym: BasisSymbol) -> tuple[int, BasisSymbol]:
        """J on one symbol, as the pair (coeff, symbol); memoized (the J table)."""
        cached = self._j_cache.get(sym)
        if cached is None:
            cached = self._j_cache[sym] = self._symbol_involution_uncached(sym)
        return cached

    def _symbol_involution_uncached(self, sym: BasisSymbol) -> tuple[int, BasisSymbol]:
        W, F = self.weyl, self.field
        w = sym.support
        wi = W.inv(w)
        d, sign = sym.degree, sym.sign
        if d in (0, 3):
            return 1, BasisSymbol(d, None, wi)
        even = w.length % 2 == 0
        usq = W.unit_square(w)
        if d == 1:
            weights = {-1: usq, 0: 1, 1: F.inv(usq)}
        else:
            weights = {-1: F.inv(usq), 0: 1, 1: usq}
        c = weights[sign]
        if even:
            return c, BasisSymbol(d, sign, wi)
        return F.neg(c), BasisSymbol(d, -sign, wi)

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
