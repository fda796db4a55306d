"""The graded space E0 + E1 + E2 + E3 with its basis and the degree-0 actions.

Basis symbols per summand w: tau_w in degree 0; beta^-_w, beta^0_w,
beta^+_w in degree 1; alpha^-_w, alpha^0_w, alpha^+_w in degree 2; phi_w
in degree 3.  The sign-0 symbols exist only when w has length >= 1;
requesting one at a torus element is a constructor error, never a silent
zero.

Elements are combinations of the core in coeff.py keyed on BasisSymbol;
this module adds the degree-0 actions and the involutions, product.py the
product.  The left action of the Hecke algebra is given by one explicit
single-letter table for s0 (_S0_ROWS).  Its s1 rows, and the s1 halves of
factor_through_generators, the degree-2 bad pairs and the sections, are
derived through the uniformizer conjugation iota, which swaps s0 and s1:
tau_{s1} x = iota(tau_{s0} iota(x)).  So there uniformizer_conj_multiplicative
checks only the s0 half; the s1 half is pinned by the printed s1 rows in
tests/test_letter_memos.py and by the pair digests.  Where lengths add,
each row is one plain term at s_i w or zero, the same at every length, so
tau_u sym is one closed form (_ADDS_RULES, _adds_left); where they do not,
it is a chain of at most min(l(u), l(w)) table rows (_chain).  The right
action is their transport through the anti-involution, x h = J(J(h) J(x))
(deg h = 0, no sign): for tau_w, w = omega^e u, the right torus shift by e
(no scalar), then J(tau_(u^-1) J(x)) (_act_right, and _adds_right where
lengths add).  The printed right-action formulas are regression tests,
not a second table.

Character keys.  A term c e_{id^m} s of a row, e_m the torus idempotent,
has p - 1 terms when expanded; the engine keeps it as the character key
(m, d, sign, word) with coefficient c u0^((m - k) f), where s = (d, sign,
(f, word)) has torus weight k, since e_m s_f = u0^((m - k) f) e_m s0 and s0
is the symbol at exponent 0.  A plain key is a BasisSymbol (3 entries), a
character key has 4.  Every internal operation works on such symbolic
rows (dicts of both kinds of key) with one projection rule: a plain term
keeps its code, and a character key goes through e_m row (_project), where
a plain entry becomes a character key and a character entry survives only
when its index is m.  So tau_{s_i} e_m x = e_-m (tau_{s_i} x), (e_m x)
tau_{s_i} = e_m (x tau_{s_i}), both torus shifts scale a character key
(u0^(m a) on the left, u0^((m - k) (+-a)) on the right), and J and the
uniformizer conjugation take a character key to a character key.  The
public act_left, act_right, involution, uniformizer_conj and
idempotent_times (and product.multiply) return a result whose row holds a
character key unexpanded, as a lazy GradedElement: its coeffs are
expanded through the expansion memo on the first read, and the renderer
and the JSON export read the row itself (grammar.py).  idempotent(m) is
the lazy element of one key, and a sum with a lazy side stays lazy.  On
the way in, a lazy operand's row is read as it is, and the coeffs of an
eager operand are compressed
(_compress, the inverse of the expansion): each whole torus orbit whose
p - 1 coefficients are one character becomes its character key.  The
Hecke operand of act_left and act_right is read as a degree-0 row
(_hecke_row), an orbit c e_m tau_u as a character key, so both actions
are products: one pair memo lookup per pair of terms.  Other terms stay
plain, and a dict of fewer than p - 1 terms is passed on after one length
check.

Keys and memos.  A WeylElement is the flat tuple (exp, word) and a
BasisSymbol the tuple (degree, sign, support), so the keys of every
coefficient dict and memo hash and compare in C.  Each ExtAlgebra keeps
memos of pure functions of their keys: the pair memo (products of two
basis symbols, in product.py), the letter memo (the table row of one
simple reflection on one symbol, keyed (letter, symbol); only the chains
read it), the J table (J on one symbol, as a (coeff, symbol) pair) and the
expansion memo (a character key to its p - 1 plain terms, also read by
the compression to check a candidate key).  The values of the pair and
letter memos are symbolic rows.  Beside the pair memo, an orbit memo
keeps one entry per torus orbit, from which the other entries of the
orbit are derived by product.py's pair law.  Memo values are read-only
(MappingProxyType or tuples) and handed out without a copy.

Shift kernels.  _shift_left (the left torus action, with a scalar) and
_shift_right (the plain right shift) move a row along its torus orbit;
the chains _act_left and _act_right, the closed forms _adds_left and
_adds_right (behind a pair miss) and the pair-orbit derivation go
through them.  They intern their images in one table per algebra, so
the symbols of derived entries are shared, and they read u0^e from the
power table of the field (PrimeField.root_powers: memoized per (p, u0),
built on first use).
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from operator import itemgetter
from types import MappingProxyType

from .coeff import Combination, PrimeField, add_into, check_parameters
from .hecke import HeckeAlgebra, HeckeElement
from .weyl import S0, S1, WeylElement, WeylGroup, _weyl

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


# build BasisSymbol((d, sign, support)) unchecked: a torus shift of a valid
# symbol is valid
_shifted = partial(tuple.__new__, BasisSymbol)
_support, _word = itemgetter(2), itemgetter(1)


def _weight(d: int, sign: int | None) -> int:
    """The torus weight k of the symbols of degree d and this sign: the
    torus generator acts on them with scalar u0^k."""
    if not sign:
        return 0
    return 2 * sign if d == 1 else -2 * sign


# tau_{s0} on the degree-d symbol of this sign at w, keyed by (d, sign, whether
# lengths add).  An entry (m, sign', c) is c e_m times the degree-d symbol of
# sign' at w, and an entry (sign', c) is c times the one at s0 w.  A row lists
# the entries at every length of w, then those only at length 1 and those only
# at length >= 2.  A key not listed gives zero where lengths add; where they do
# not, every row starts with -e_0 sym, and in degree 0 that is the whole row,
# the quadratic relation tau_{s0} tau_w = -e_0 tau_w (hecke.py states it as
# the orbit sum of the word of w; the tests check the two agree).
_S0_ROWS = {
    (0, None, True): (((None, 1),), (), ()),
    (1, -1, True): (((1, -1),), (), ()),
    (1, 0, True): (((0, -1),), (), ()),
    (2, 1, True): (((-1, -1),), (), ()),
    (1, -1, False): (((1, 0, -2), (1, -1)), ((2, 1, 1),), ()),
    (1, 0, False): ((), ((1, 1, 1),), ()),
    (2, 0, False): (((1, -1, 2),), (), ((0, -1),)),
    (2, 1, False): (((-1, -1),), ((1, 0, -1), (2, -1, 1)), ()),
    (3, None, False): (((None, 1),), (), ()),
}


def _iota_entry(entry: tuple, unit: int) -> tuple:
    """An s0 row entry mapped by iota: e_m -> e_-m, sign -> -sign, and -1 on
    a sign-0 symbol; unit is -1 when the acted-on symbol has sign 0."""
    *m, sign, c = entry
    c = -unit * c if sign == 0 else unit * c
    return (-m[0], sign and -sign, c) if m else (sign and -sign, c)


def _letter_rows(s0_rows: dict) -> dict:
    """Both letters' rows, keyed by (letter, d, sign, whether lengths add,
    whether l(w) = 1), as (entries at w, entries at s_i w).  The uniformizer
    conjugation iota swaps s0 and s1, so tau_{s1} sym = iota(tau_{s0} iota(sym)):
    the s0 row of iota(sym) (opposite sign, same length), each entry mapped."""
    rows = {}
    for d, sign in KIND_NAMES:
        for adds in (True, False):
            every, at_length_1, longer = s0_rows.get((d, sign, adds), ((), (), ()))
            for short in (True, False):
                entries = every + (at_length_1 if short else longer)
                s0 = entries if adds else ((0, sign, -1),) + entries
                s1 = [_iota_entry(entry, -1 if sign == 0 else 1) for entry in s0]
                for key, row in (((S0, d, sign), s0), ((S1, d, sign and -sign), s1)):
                    rows[(*key, adds, short)] = (
                        tuple(e for e in row if len(e) == 3), tuple(e for e in row if len(e) == 2))
    return rows


_LETTER_ROWS = _letter_rows(_S0_ROWS)


def _adds_rules(rows: dict) -> dict:
    """tau_{s_i} where lengths add, keyed by (letter, d, sign): (sign', c), c
    times the symbol of sign' at s_i w, or None for zero.  It is read off the
    lengths-add rows, each at most one plain entry, the same at every length."""
    rules = {}
    for (i, d, sign, adds, short), (chars, plain) in rows.items():
        if adds:
            if chars or len(plain) > 1 or rows[i, d, sign, adds, not short] != (chars, plain):
                raise ValueError(f"the lengths-add row {(i, d, sign)} is not one plain term")
            rules[i, d, sign] = plain[0] if plain else None
    return rules


_ADDS_RULES = _adds_rules(_LETTER_ROWS)


class GradedElement(Combination):
    """Element of the graded algebra: finite map basis symbol -> scalar.

    ``row`` is None on an eager element.  A lazy element (``lazy``) holds a
    symbolic row with character keys instead, and its ``coeffs`` are the
    expansion of the row, made on the first read.  The public operations
    read the row of a lazy operand as it is, and the renderer reads it
    directly.
    """

    __slots__ = ("_coeffs", "row")

    def __init__(self, algebra, coeffs: dict):
        self.algebra = algebra
        self._coeffs = coeffs
        self.row = None

    @classmethod
    def lazy(cls, algebra, row: dict) -> "GradedElement":
        """The element of a symbolic row, expanded on the first read of coeffs."""
        x = cls.__new__(cls)
        x.algebra = algebra
        x._coeffs = None
        x.row = row
        return x

    @property
    def coeffs(self) -> dict:
        coeffs = self._coeffs
        if coeffs is None:
            coeffs = self._coeffs = self.algebra._expand(self.row)
        return coeffs

    def scale(self, c: int) -> "GradedElement":
        """c * self; a lazy element scales its row and stays lazy."""
        p = self.algebra.field.p
        if self.row is None or c % p == 0:
            return super().scale(c)
        # c and every coefficient of the row are units, so no product vanishes
        return GradedElement.lazy(self.algebra, {k: c * v % p for k, v in self.row.items()})

    def __add__(self, other, scale: int = 1):
        """self + scale * other; with a lazy side, the sum of both rows stays
        lazy (a plain key and a character key of one orbit merge on expansion)."""
        if type(other) is not GradedElement or (self.row is None and other.row is None):
            return super().__add__(other, scale)
        check_parameters(self.algebra, other.algebra)
        out = dict(self.coeffs if self.row is None else self.row)
        add_into(out, (other.coeffs if other.row is None else other.row).items(), scale,
                 self.algebra.field.p)
        return self.algebra._result(out)

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
        self._pair_cache: dict[tuple[BasisSymbol, BasisSymbol], MappingProxyType] = {}
        self._j_cache: dict[BasisSymbol, tuple[int, BasisSymbol]] = {}
        self._orbit_cache: dict[tuple, tuple[int, int, MappingProxyType]] = {}
        self._symbols: dict[BasisSymbol, BasisSymbol] = {}
        self._char_cache: dict[tuple, MappingProxyType] = {}
        self._section_cache: dict[tuple[int, BasisSymbol], "TensorExpression"] = {}

    # --- element constructors ---

    def zero(self) -> GradedElement:
        return GradedElement(self, {})

    def one(self) -> GradedElement:
        return self.tau(self.weyl.identity)

    def symbol_element(self, sym: BasisSymbol) -> GradedElement:
        if not isinstance(sym, BasisSymbol):
            raise ValueError(f"expected a BasisSymbol, got {sym!r}")
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
        for sym in coeffs:
            if not isinstance(sym, BasisSymbol):
                raise ValueError(f"expected a BasisSymbol, got {sym!r}")
        return GradedElement.make(self, coeffs)

    def embed(self, h: HeckeElement) -> GradedElement:
        check_parameters(self, h.algebra)
        return GradedElement(self, {BasisSymbol(0, None, w): c for w, c in h.coeffs.items()})

    def idempotent(self, m: int, scale: int = 1) -> GradedElement:
        """scale * e_m in degree 0: the lazy element of its character key."""
        scale %= self.field.p
        if not scale:
            return self.zero()
        return GradedElement.lazy(self, {(m % self.weyl.n, 0, None, ()): scale})

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
        return _weight(sym[0], sym[1])

    def _base(self, key: tuple) -> BasisSymbol:
        """The symbol s0 of a character key (m, d, sign, word)."""
        _, d, sign, word = key
        return _shifted((d, sign, _weyl((0, word))))

    def _slide(self, sym: BasisSymbol, m: int) -> int:
        """The index m' of the idempotent slide sym e_m = e_m' sym:
        m' = (-1)^|sym| m + k(sym)."""
        d, sign, (_, word) = sym
        return ((-m if len(word) % 2 else m) + _weight(d, sign)) % self.weyl.n

    def _project(self, out: dict, m: int, row, scale: int) -> None:
        """out += scale * e_m row.  A plain term s_f becomes the character key
        of e_m s_f = u0^((m - k) f) e_m s0; a character key survives only
        when its index is m (the e_m are orthogonal idempotents)."""
        p, n = self.field.p, self.weyl.n
        powers = self.field.root_powers()
        m %= n
        for key, c in row.items():
            if len(key) == 3:
                d, sign, (f, word) = key
                c *= powers[(m - _weight(d, sign)) * f % n]
                key = (m, d, sign, word)
            elif key[0] != m:
                continue
            c = (out.get(key, 0) + scale * c) % p
            if c:
                out[key] = c
            elif key in out:
                del out[key]

    def _shift_left(self, coeffs, a: int, scale: int = 1) -> dict:
        """scale * T_a(coeffs), T_a the left torus action of omega^a: a support
        w becomes omega^a w, and a symbol of torus weight k gains u0^(k a); a
        character key e_m s0 stays, with the scalar u0^(m a).  Images are
        interned; no two terms collide or cancel."""
        p, n = self.field.p, self.weyl.n
        powers = self.field.root_powers()
        # the weight is 2 on bp and am, -2 on bm and ap, 0 elsewhere
        up, down = scale * powers[2 * a % n] % p, scale * powers[-2 * a % n] % p
        intern = self._symbols.setdefault
        out: dict = {}
        for key, c in coeffs.items():
            if len(key) == 4:
                out[key] = c * scale * powers[key[0] * a % n] % p
                continue
            d, sign, (exp, word) = key
            image = _shifted((d, sign, _weyl(((exp + a) % n, word))))
            unit = (up if (sign > 0) == (d == 1) else down) if sign else scale
            out[intern(image, image)] = c * unit % p
        return out

    def _shift_right(self, coeffs, a: int) -> dict:
        """coeffs tau_{omega^a}: a support v becomes v omega^a, its exponent
        gains (-1)^|v| a, with no scalar; a character key e_m s0 stays, with
        the scalar u0^((m - k) (-1)^|v| a).  Images are interned."""
        n = self.weyl.n
        intern = self._symbols.setdefault
        out: dict = {}
        for key, c in coeffs.items():
            if len(key) == 3:
                d, sign, (exp, word) = key
                image = _shifted((d, sign, _weyl(((exp - a if len(word) % 2 else exp + a) % n, word))))
                out[intern(image, image)] = c
            else:
                m, d, sign, word = key
                g = -a if len(word) % 2 else a
                out[key] = c * self.field.root_powers()[(m - _weight(d, sign)) * g % n] % self.field.p
        return out

    def _char_expansion(self, key: tuple) -> MappingProxyType:
        """e_m s0 = -sum_b u0^((k - m) b) s_b for the character key (m, d,
        sign, word), memoized (the expansion memo)."""
        cached = self._char_cache.get(key)
        if cached is None:
            m, d, sign, word = key
            p, n = self.field.p, self.weyl.n
            powers = self.field.root_powers()
            step = (_weight(d, sign) - m) % n
            cached = self._char_cache[key] = MappingProxyType({
                _shifted((d, sign, _weyl((b, word)))): p - powers[b * step % n] for b in range(n)})
        return cached

    def _expand(self, row) -> dict:
        """The coefficient dict of a symbolic row: plain terms as they are,
        each character key replaced by its p - 1 terms.  A row without a
        character key is returned as it is."""
        if 4 not in map(len, row):
            return row
        p = self.field.p
        out = {key: c for key, c in row.items() if len(key) == 3}
        # the first key of a torus orbit has no term to merge with: copy it in
        seen = {(d, sign, word) for d, sign, (_, word) in out}
        for key, c in row.items():
            if len(key) == 4:
                terms = self._char_expansion(key)
                orbit = key[1:]
                if orbit in seen:
                    add_into(out, terms.items(), c, p)
                else:
                    seen.add(orbit)
                    out.update(zip(terms, [c * x % p for x in terms.values()]))
        return out

    def _compress(self, coeffs) -> dict:
        """The inverse of _expand on whole torus orbits.  An orbit whose p - 1
        terms are one character, c_f = c_0 u0^(j f) at exponent f, becomes the
        character key (k - j, d, sign, word) with coefficient -c_0, as e_m s0
        = -sum_f u0^((k - m) f) s_f; every other term stays as it is.  The keys
        are plain graded symbols (a Hecke element as degree-0 symbols,
        _hecke_row).

        coeffs has at least p - 1 terms (a smaller dict holds no whole orbit,
        and callers pass it on unchanged).  Only a word that carries p - 1
        terms can carry a whole orbit, and it has at most 8 of them (one per
        degree and sign): j comes from c_1 / c_0, and the candidate key is
        checked against its expansion, so the cost is O(p) per such orbit."""
        n, p = self.weyl.n, self.field.p
        chars: dict = {}
        for word, count in Counter(map(_word, map(_support, coeffs))).items():
            if count < n:
                continue
            for d, sign in KIND_NAMES:
                c0 = coeffs.get((d, sign, (0, word)))
                c1 = coeffs.get((d, sign, (1, word)))
                if c0 is None or c1 is None:
                    continue
                j = self.field.root_powers().index(c1 * pow(c0, p - 2, p) % p)
                key, c = ((_weight(d, sign) - j) % n, d, sign, word), p - c0
                if all(coeffs.get(s) == c * v % p for s, v in self._char_expansion(key).items()):
                    chars[key] = c
        if not chars:
            return coeffs
        if len(chars) * n == len(coeffs):
            return chars
        out = dict(coeffs)
        for key in chars:
            for s in self._char_expansion(key):
                del out[s]
        out.update(chars)
        return out

    def _operand(self, x: GradedElement):
        """The row a public call reads for x: a lazy element's own row, or its
        coeffs with each whole single-character orbit compressed.  An element
        over other parameters is refused."""
        check_parameters(self, x.algebra)
        row = x.row
        if row is None:
            row = x._coeffs
            if len(row) >= self.weyl.n:
                row = self._compress(row)
        return row

    def _result(self, row: dict) -> GradedElement:
        """The public result of a fresh symbolic row: lazy when it holds a
        character key."""
        if 4 in map(len, row):
            return GradedElement.lazy(self, row)
        return GradedElement(self, row)

    def idempotent_times(self, m: int, x: GradedElement) -> GradedElement:
        out: dict = {}
        self._project(out, m, self._operand(x), 1)
        return self._result(out)

    # --- single-letter action tables ---

    def _letter_on_symbol(self, i: int, sym: BasisSymbol) -> MappingProxyType:
        """tau_{s_i} sym from the table as a symbolic row (its e_m terms stay
        character keys), memoized.  perfbench/tracer.py wraps this method and
        gauges _letter_cache, so renaming either changes the benchmark."""
        key = (i, sym)
        cached = self._letter_cache.get(key)
        if cached is None:
            W = self.weyl
            d, sign, w = sym
            si = W.simple(i)
            chars, plain = _LETTER_ROWS[i, d, sign, W.lengths_add(si, w), len(w[1]) == 1]
            row = self._row(d, w, chars, W.mul(si, w), plain)
            cached = self._letter_cache[key] = MappingProxyType(row)
        return cached

    def _row(self, d: int, w: WeylElement, chars, v: WeylElement | None = None, plain=()) -> dict:
        """The symbolic row of the terms (m, sign, c), each c e_m times the
        degree-d symbol of that sign at w, and (sign, c) at v."""
        p = self.field.p
        row = {BasisSymbol(d, sign, v): c % p for sign, c in plain}
        for m, sign, c in chars:
            self._project(row, m, {BasisSymbol(d, sign, w): c}, 1)
        return row

    def _map_symbols(self, coeffs, fn, index) -> dict:
        """Apply fn: symbol -> (unit, symbol), injective on symbols (J, the
        uniformizer conjugation): no two terms collide or cancel.  A character
        key e_m s0 maps to e_index(m, image) image, image the symbol of fn(s0)."""
        p = self.field.p
        out: dict = {}
        for key, c in coeffs.items():
            if len(key) == 3:
                unit, image = fn(key)
                out[image] = c * unit % p
            else:
                unit, image = fn(self._base(key))
                self._project(out, index(key[0], image), {image: unit}, c)
        return out

    # --- the two-sided action ---

    def _hecke_row(self, h: HeckeElement) -> dict:
        """h as a degree-0 row: tau_w is the symbol (0, None, w), and c e_m
        tau_u, a whole orbit to _compress, the key (m, 0, None, u)."""
        row = {_shifted((0, None, w)): c for w, c in h.coeffs.items()}
        return self._compress(row) if len(row) >= self.weyl.n else row

    def act_left(self, h: HeckeElement, x: GradedElement) -> GradedElement:
        check_parameters(self, h.algebra)
        return self._result(_multiply(self, self._hecke_row(h), self._operand(x)))

    def _act_left(self, h: dict, row) -> dict:
        """h row on a symbolic row, h a coefficient dict of the Hecke algebra:
        for each tau_w, w = omega^e u, the chain of u on each key of row, then
        the torus prefix."""
        p = self.field.p
        total: dict = {}
        for (exp, word), c in h.items():
            cur: dict = {}
            for key, cx in row.items():
                self._chain(word, key, cx, cur)
            if cur and exp:
                cur = self._shift_left(cur, exp)
            add_into(total, cur.items(), c, p)
        return total

    def _chain(self, word: tuple, key, c: int, out: dict) -> None:
        """out += c tau_u key for the bare word u, read from the right.  While a
        letter shortens the support, its row holds character keys on that
        support, which meet the rest of u where lengths add, and at most one
        plain term, which meets the next letter.  A character key e_m s0 is
        the chain of s0 projected to e_(+-m), as tau_{s_i} e_m = e_-m tau_{s_i}."""
        if len(key) == 4:
            part: dict = {}
            self._chain(word, self._base(key), 1, part)
            self._project(out, -key[0] if len(word) % 2 else key[0], part, c)
            return
        p, n = self.field.p, len(word)
        # s_i shortens the support exactly when its word starts with i
        while n and key[2][1][:1] == word[n - 1:n]:
            n -= 1
            rest, plain = _weyl((0, word[:n])), None
            for entry, ce in self._letter_on_symbol(word[n], key).items():
                if len(entry) == 3:
                    plain = entry, ce
                else:
                    m = -entry[0] if n % 2 else entry[0]
                    self._project(out, m, self._adds_left(rest, self._base(entry)), c * ce)
            if plain is None:
                return
            key, c = plain[0], c * plain[1] % p
        add_into(out, self._adds_left(_weyl((0, word[:n])), key).items(), c, p)

    def _adds_left(self, u: WeylElement, sym: BasisSymbol, c: int = 1) -> dict:
        """c tau_u sym where lengths add, l(u w) = l(u) + l(w) for w the support
        of sym: one symbol at u w or zero, the rules of _ADDS_RULES applied
        letter by letter from the right, then the torus prefix of u."""
        d, sign, (f, w) = sym
        exp, word = u
        for letter in reversed(word):
            rule = _ADDS_RULES[letter, d, sign]
            if rule is None:
                return {}
            sign, unit = rule
            c *= unit
        # the words join without a cancellation; omega^f crosses the word
        support = _weyl(((-f if len(word) % 2 else f) % self.weyl.n, word + w))
        row = {_shifted((d, sign, support)): c % self.field.p}
        return self._shift_left(row, exp) if exp else row

    def act_right(self, x: GradedElement, h: HeckeElement) -> GradedElement:
        check_parameters(self, h.algebra)
        return self._result(_multiply(self, self._operand(x), self._hecke_row(h)))

    def _act_right(self, row, h: dict) -> dict:
        """row h on a symbolic row, h a coefficient dict of the Hecke algebra:
        for each tau_w, w = omega^e u, the right torus shift by e, then the
        transport J(tau_(u^-1) J(row)), as J(tau_u) = tau_(u^-1) (deg 0)."""
        p = self.field.p
        total: dict = {}
        for (exp, word), c in h.items():
            cur = self._shift_right(row, exp) if exp else row
            if word:
                inverse = {self.weyl.inv(_weyl((0, word))): 1}
                cur = self._involution(self._act_left(inverse, self._involution(cur)))
            add_into(total, cur.items(), c, p)
        return total

    def _adds_right(self, sym: BasisSymbol, v: WeylElement) -> dict:
        """sym tau_v where lengths add, v = omega^e u = u omega^g, g = (-1)^l(u) e:
        J(tau_(u^-1) J(sym)) tau_(omega^g), one J lookup each way.  u^-1 is
        omega^h times the reversed word, h = l(u) half, and J(tau_(omega^h) y)
        = J(y) tau_(omega^-h), so the right torus shift is by g - h."""
        exp, word = v
        c, jsym = self._symbol_involution(sym)
        row = self._adds_left(_weyl((0, word[::-1])), jsym, c)
        if not row:
            return row
        ((key, c),) = row.items()
        unit, image = self._symbol_involution(key)
        W, row = self.weyl, {image: c * unit % self.field.p}
        shift = ((-exp if len(word) % 2 else exp) - len(word) * W.half) % W.n
        return self._shift_right(row, shift) if shift else row

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

    def _involution(self, row) -> dict:
        """J on a symbolic row: J(e_m s0) = J(s0) e_-m = e_m' J(s0) by the slide."""
        return self._map_symbols(row, self._symbol_involution, lambda m, image: self._slide(image, -m))

    def involution(self, x: GradedElement) -> GradedElement:
        """The involutive anti-automorphism J (graded sign on products)."""
        return self._result(self._involution(self._operand(x)))

    def _symbol_uniformizer_conj(self, sym: BasisSymbol) -> tuple[int, BasisSymbol]:
        """The uniformizer conjugation on one symbol, as (unit, image): the sign
        flips, and a sign-0 symbol gains -1.  The image of a valid symbol is
        valid, so it is built unchecked."""
        d, sign, w = sym
        image = _shifted((d, sign and -sign, self.weyl.uniformizer_conj(w)))
        return (self.field.p - 1 if sign == 0 else 1), image

    def _uniformizer_conj(self, row) -> dict:
        """The uniformizer conjugation on a symbolic row: it inverts the torus,
        so it takes e_m to e_-m."""
        return self._map_symbols(row, self._symbol_uniformizer_conj, lambda m, image: -m)

    def uniformizer_conj(self, x: GradedElement) -> GradedElement:
        """The involutive algebra automorphism induced by the uniformizer."""
        return self._result(self._uniformizer_conj(self._operand(x)))

    # --- factorization of degree-1 symbols through the four generators ---

    def factor_through_generators(
        self, sym: BasisSymbol
    ) -> tuple[int, WeylElement, BasisSymbol, WeylElement]:
        """Write a degree-1 symbol as c * tau_a * g * tau_b.

        g is one of the four bimodule generators; exactly which case applies
        is decided by the sign and the first letter of the support word.  The
        sign +1 case is the image under the uniformizer conjugation of the
        sign -1 factorization of its conjugate.
        """
        if sym.degree != 1:
            raise ValueError(f"expected a degree-1 symbol, got {sym!r}")
        W = self.weyl
        w = sym.support
        word = w.word
        if sym.sign == 0:
            j = word[0]
            return (
                1,
                W.omega(w.exp),
                BasisSymbol(1, 0, W.simple(j)),
                _weyl((0, word[1:])),
            )
        if sym.sign == 1:
            # iota has unit 1 on signed symbols, and g is signed
            iota = self._symbol_uniformizer_conj
            c, left, g, right = self.factor_through_generators(iota(sym)[1])
            return c, W.uniformizer_conj(left), iota(g)[1], W.uniformizer_conj(right)
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
            self.field.neg(W.unit_square(w)),
            w,
            BasisSymbol(1, 1, W.identity),
            W.identity,
        )


# bound last: product.py imports the names above from this module
from .product import _multiply  # noqa: E402
