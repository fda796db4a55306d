"""The graded space E0 + E1 + E2 + E3 with its basis and the degree-0 actions.

Basis symbols per summand w: tau_w in degree 0; beta^-_w, beta^0_w,
beta^+_w in degree 1; alpha^-_w, alpha^0_w, alpha^+_w in degree 2; phi_w
in degree 3.  The sign-0 symbols exist only when w has length >= 1;
requesting one at a torus element is a constructor error, never a silent
zero.

Elements are combinations of the core in coeff.py keyed on BasisSymbol;
this module adds the degree-0 actions and the involutions, product.py the
product.  The left action of the Hecke algebra is given by two tables for
s0: its rules where lengths add (_S0_ADDS) and its rows where the word
shortens (_S0_ROWS).  The s1 halves of both, of the degree-2 bad pairs and
of the sections are derived through the uniformizer conjugation iota,
which swaps s0 and s1: tau_{s1} x = iota(tau_{s0} iota(x)).  So there
uniformizer_conj_multiplicative checks only the s0 half; the s1 half is
pinned by the printed s1 rows in tests/test_letter_memos.py and by the
pair digests.  Where lengths add, tau_{s_i} sym is one plain term at s_i w
or zero, the same at every length (_ADDS_RULES, which
factor_through_generators also reads), and the rules have period 2 along
an alternating word, so the rules of a whole word u compose to one, keyed
by its last letter and l(u) mod 2 (_ADDS_LEFT, made at import by
_closed_forms): tau_u sym is one lookup (_adds_left).  Where they do not
add, it is a chain of at most min(l(u), l(w)) shortening rows (_chain).
The right action is their transport through the anti-involution, x h =
J(J(h) J(x)) (deg h = 0, no sign).  Where lengths add, the transport is
made once, on the rules: _RIGHT_RULES carries each lengths-add rule
through J's sign map, composed like the left ones, keyed by the first
letter of u, l(u) mod 2 and l(w) mod 2 (_ADDS_RIGHT), so sym tau_v is one
lookup too (_adds_right, no J lookup, the torus part of v a plain shift).
Where they do not, for tau_w, w = omega^e u, it is the right torus shift
by e (no scalar), then J(tau_(u^-1) J(x)).
The two kernels _act_left(u, sym) and _act_right(sym, v) take one Weyl
element and one plain symbol: they are the pair misses of route (1) in
product.py, and every sum over terms goes through its _multiply.  The
printed right-action formulas are regression tests, not a second table.

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
uniformizer conjugation take a character key to a character key.

Elements.  A GradedElement is its symbolic row (GradedElement.row); its
coeffs are the expansion of the row through the expansion memo, made on
the first read (a row without a character key is its own expansion), and
the renderer and the JSON export read the row itself (grammar.py).  The
public act_left, act_right, involution, uniformizer_conj and
idempotent_times (and product.multiply) return the element of their
result row, idempotent(m) is the element of one key, and sums and scalar
multiples are taken on the rows.  On the way in (_operand), a row with a
character key is read as it is, and a row of at least p - 1 plain terms
is compressed (_compress, the inverse of the expansion): each whole torus
orbit whose p - 1 coefficients are one character becomes its character
key.  The Hecke operand of act_left and act_right is read as the row of
its embedding, _operand(embed(h)), an orbit c e_m tau_u as a character
key, so both actions are products: one pair memo lookup per pair of terms.

Keys and memos.  A WeylElement is the flat tuple (exp, word) and a
BasisSymbol the tuple (degree, sign, support), plain values whose keys
hash and compare in C.  Each ExtAlgebra keeps five memos of pure functions
of their keys: the pair memo (products of two basis symbols, in
product.py, a twisted pair whose words meet derived from its pair at
torus exponent 0), the letter memo (the table row of one simple
reflection on one symbol, keyed (letter, symbol); only the chains read
it), the J table (J on one symbol, a (coeff, symbol) pair), the expansion
memo (a character key to its p - 1 plain terms, also read by the
compression to check a candidate key) and the section memo (sections.py).
The pair and letter memos hold symbolic rows.  Memo values are read-only
(MappingProxyType or tuples) and handed out without a copy; every zero
product is one empty map.  A pickled or copied algebra starts with empty
memos.

Shift kernels.  _shift_left (the left torus action, with a scalar) moves
a row along its torus orbit; the kernel _act_left, the closed form
_adds_left and the pair law of product.py go through it.  The right torus
shift of a plain symbol carries no scalar and is the closed form
_adds_right at a torus element; a character key shifts by the pair
product (product.py).  Each returns the image it builds, and _shift_left
reads u0^e from the power table of the field (PrimeField.root_powers:
memoized per (p, u0), built on first use).
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from operator import attrgetter, itemgetter
from types import MappingProxyType

from .coeff import (
    Combination, PrimeField, _orbit, add_into, check_coefficient, check_index, check_parameters)
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
        # a bool or a float is not an int
        if type(degree) is not int or degree not in (0, 1, 2, 3):
            raise ValueError(f"degree must be 0..3, got {degree!r}")
        if not isinstance(support, WeylElement):
            raise ValueError(f"the support must be a WeylElement, got {support!r}")
        if degree in (0, 3):
            if sign is not None:
                raise ValueError("degree 0/3 symbols carry no sign")
        else:
            if type(sign) is not int or sign not in (-1, 0, 1):
                raise ValueError(f"sign must be -, 0 or +, got {sign!r}")
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


# tau_{s0} on the degree-d symbol of this sign at w, keyed by (d, sign).  Where
# lengths add (_S0_ADDS), it is (sign', c), c times the symbol of sign' at s0 w,
# the same at every length of w, and a key not listed gives zero.  Where the
# word shortens (_S0_ROWS), an entry (m, sign', c) is c e_m times the symbol of
# sign' at w, and an entry (sign', c) is c times the one at s0 w.  A row lists
# the entries at every length of w, then those only at length 1 and those only
# at length >= 2.  Every row starts with -e_0 sym, and in degree 0 that is the
# whole row, the quadratic relation tau_{s0} tau_w = -e_0 tau_w (hecke.py
# states it as the orbit sum of the word of w; e0_braid_and_recursions checks
# the two agree).
_S0_ADDS = {(0, None): (None, 1), (1, -1): (1, -1), (1, 0): (0, -1), (2, 1): (-1, -1)}
_S0_ROWS = {
    (1, -1): (((1, 0, -2), (1, -1)), ((2, 1, 1),), ()),
    (1, 0): ((), ((1, 1, 1),), ()),
    (2, 0): (((1, -1, 2),), (), ((0, -1),)),
    (2, 1): (((-1, -1),), ((1, 0, -1), (2, -1, 1)), ()),
    (3, None): (((None, 1),), (), ()),
}


def _iota_entry(entry: tuple, unit: int) -> tuple:
    """An s0 row entry mapped by iota: e_m -> e_-m, sign -> -sign, and -1 on
    a sign-0 symbol; unit is -1 when the acted-on symbol has sign 0."""
    *m, sign, c = entry
    c = -unit * c if sign == 0 else unit * c
    return (-m[0], sign and -sign, c) if m else (sign and -sign, c)


def _letter_rows(s0_rows: dict) -> dict:
    """Both letters' rows where the word shortens, keyed by (letter, d, sign,
    whether l(w) = 1), as (entries at w, entries at s_i w).  The uniformizer
    conjugation iota swaps s0 and s1, so tau_{s1} sym = iota(tau_{s0} iota(sym)):
    the s0 row of iota(sym) (opposite sign, same length), each entry mapped."""
    rows = {}
    for d, sign in KIND_NAMES:
        every, at_length_1, longer = s0_rows.get((d, sign), ((), (), ()))
        for short in (True, False):
            s0 = ((0, sign, -1),) + every + (at_length_1 if short else longer)
            s1 = [_iota_entry(entry, -1 if sign == 0 else 1) for entry in s0]
            for key, row in (((S0, d, sign), s0), ((S1, d, sign and -sign), s1)):
                rows[(*key, short)] = (
                    tuple(e for e in row if len(e) == 3), tuple(e for e in row if len(e) == 2))
    return rows


_LETTER_ROWS = _letter_rows(_S0_ROWS)


def _period_2(rules: dict, name: str) -> dict:
    """rules, keyed (letter, d, sign) or (letter, d, sign, l(w) mod 2), refused
    unless a nonzero rule followed by the other letter's gives back the
    symbol it started from (period 2): along an alternating word the rules
    then repeat every two letters, so their closed forms (_closed_forms)
    compose at most two."""
    closed = _closed_forms(rules)
    for (i, d, sign, *odd), rule in rules.items():
        if rule is not None and closed[(i, 0, d, sign, *odd)] != (sign, 1):
            raise ValueError(f"the {name} rules at {(i, d, sign, *odd)} do not have period 2")
    return rules


def _closed_forms(rules: dict) -> dict:
    """The rules composed along an alternating word u of length >= 1, keyed
    (the letter of u applied first, l(u) mod 2, d, sign, *the rest of the
    rule's key): the rule of that letter when l(u) is odd, and when it is
    even that rule followed by the other letter's, on the sign it gives and
    at the other parity of l(w)."""
    closed = {}
    for (i, d, sign, *odd), rule in rules.items():
        closed[(i, 1, d, sign, *odd)] = rule
        if rule is not None:
            then = rules[(1 - i, d, rule[0], *(1 - x for x in odd))]
            rule = None if then is None else (then[0], rule[1] * then[1])
        closed[(i, 0, d, sign, *odd)] = rule
    return closed


def _adds_rules(s0_adds: dict) -> dict:
    """tau_{s_i} where lengths add, keyed by (letter, d, sign): (sign', c), c
    times the symbol of sign' at s_i w, or None for zero.  The s0 rules are
    _S0_ADDS, and the s1 rules their images under iota, as for the rows.
    The table must have period 2 (_period_2), as _adds_left reads its
    closed forms (_ADDS_LEFT)."""
    rules = {}
    for d, sign in KIND_NAMES:
        rule = s0_adds.get((d, sign))
        rules[S0, d, sign] = rule
        rules[S1, d, sign and -sign] = rule and _iota_entry(rule, -1 if sign == 0 else 1)
    return _period_2(rules, "lengths-add")


_ADDS_RULES = _adds_rules(_S0_ADDS)
_ADDS_LEFT = _closed_forms(_ADDS_RULES)


def _right_rules(rules: dict) -> dict:
    """sym tau_{s_i} where lengths add, keyed by (letter, d, sign, l(w) mod 2),
    w the support of sym: (sign', c), c times the symbol of sign' at w s_i,
    or None for zero.  It is the lengths-add rule of tau_{s_i} carried
    through J, sym tau_{s_i} = J(tau_{s_i^-1} J(sym)): J flips the sign and
    the unit of a signed symbol of odd length, which is either w or w s_i.
    J's torus scalars cancel, and s_i^-1 = omega^half s_i adds a right
    torus shift, which carries no scalar.  The table must keep period 2
    (_period_2), as _adds_right reads its closed forms (_ADDS_RIGHT)."""
    right = {}
    for i, d, sign in rules:
        for odd in (0, 1):
            # the rule of tau_{s_i} on J(sym), whose sign flips at odd length
            rule = rules[i, d, -sign if sign and odd else sign]
            if rule is not None and sign is not None:
                # J back from w s_i, whose sign flips where w has even length
                rule = (rule[0] if odd else -rule[0]), -rule[1]
            right[i, d, sign, odd] = rule
    return _period_2(right, "right")


_RIGHT_RULES = _right_rules(_ADDS_RULES)
_ADDS_RIGHT = _closed_forms(_RIGHT_RULES)


class GradedElement(Combination):
    """Element of the graded algebra: its symbolic row, plain terms and
    character keys, whose expansion ``coeffs`` maps basis symbols to
    scalars; the expansion is made on the first read of ``coeffs``."""

    __slots__ = ("_coeffs", "row")

    def __init__(self, algebra, row: dict):
        self.algebra = algebra
        self.row = row
        self._coeffs = None

    @property
    def coeffs(self) -> dict:
        coeffs = self._coeffs
        if coeffs is None:
            coeffs = self._coeffs = self.algebra._expand(self.row)
        return coeffs

    # scale and + act on the row (a plain key and a character key of one
    # orbit merge on expansion)
    _terms = property(attrgetter("row"))

    def _product(self, other: "GradedElement") -> "GradedElement":
        from . import product

        return product.multiply(self, other)

    # --- structure queries ---

    def _live_keys(self):
        """The keys of the row on whose torus orbit the element is nonzero.
        A plain row is its own expansion.  An orbit of plain terms only, or of
        character keys only, is nonzero (the characters of e_m are
        independent); one that holds both may cancel, and only it is
        expanded."""
        row = self.row
        if 4 not in map(len, row):
            return row
        chars = {key[1:] for key in row if len(key) == 4}
        if chars.isdisjoint((key[0], key[1], key[2][1]) for key in row if len(key) == 3):
            return row
        orbits: dict = {}
        for key, c in row.items():
            orbits.setdefault(key[1:] if len(key) == 4 else (key[0], key[1], key[2][1]), {})[key] = c
        return [key for orbit in orbits.values()
                if len(set(map(len, orbit))) == 1 or self.algebra._expand(orbit) for key in orbit]

    def degrees(self) -> set[int]:
        return {key[-3] for key in self._live_keys()}

    def component(self, degree: int) -> "GradedElement":
        # the degree is key[-3] of a plain key (d, sign, support) and of a
        # character key (m, d, sign, word), so the row is filtered unexpanded
        return GradedElement(self.algebra, {k: c for k, c in self.row.items() if k[-3] == degree})

    def is_homogeneous(self, degree: int) -> bool:
        return all(key[-3] == degree for key in self._live_keys())

    def support_lengths(self) -> set[int]:
        return {len(key[3] if len(key) == 4 else key[2][1]) for key in self._live_keys()}

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
        self._char_cache: dict[tuple, MappingProxyType] = {}
        self._section_cache: dict[tuple[int | str, BasisSymbol], MappingProxyType] = {}

    def __reduce__(self):  # the memos' read-only maps do not pickle: a copy starts empty
        return ExtAlgebra, (self.field.p, self.field.u0)

    # --- element constructors ---

    def zero(self) -> GradedElement:
        return GradedElement(self, {})

    def one(self) -> GradedElement:
        return self.tau(self.weyl.identity)

    def _check_symbol(self, sym) -> None:
        """Refuse sym unless it is a BasisSymbol whose support lies in this
        algebra's Weyl group (WeylGroup.check)."""
        if not isinstance(sym, BasisSymbol):
            raise ValueError(f"expected a BasisSymbol, got {sym!r}")
        self.weyl.check(sym[2])

    def symbol_element(self, sym: BasisSymbol) -> GradedElement:
        self._check_symbol(sym)
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
        for sym, c in coeffs.items():
            self._check_symbol(sym)
            check_coefficient(c)
        return GradedElement.make(self, coeffs)

    def embed(self, h: HeckeElement) -> GradedElement:
        # HeckeAlgebra.element checked the supports of h
        self.hecke.check(h)
        return GradedElement(self, {_shifted((0, None, w)): c for w, c in h.coeffs.items()})

    def idempotent(self, m: int) -> GradedElement:
        """e_m in degree 0: the element of its character key."""
        check_index(m)
        return GradedElement(self, {(m % self.weyl.n, 0, None, ()): 1})

    def basis_symbols(self, max_length: int, degrees=(0, 1, 2, 3)):
        """All basis symbols with support length <= max_length, as an iterator;
        a max_length that WeylGroup.elements refuses is refused at the call."""
        supports = self.weyl.elements(max_length)
        return (BasisSymbol(d, sign, w) for w in supports for d in degrees
                for sign in ((None,) if d in (0, 3) else (-1, 0, 1) if w[1] else (-1, 1)))

    # --- torus and idempotent building blocks ---

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
        character key e_m s0 stays, with the scalar u0^(m a).  No two terms
        collide or cancel."""
        p, n = self.field.p, self.weyl.n
        powers = self.field.root_powers()
        # the weight is 2 on bp and am, -2 on bm and ap, 0 elsewhere
        up, down = scale * powers[2 * a % n] % p, scale * powers[-2 * a % n] % p
        out: dict = {}
        for key, c in coeffs.items():
            if len(key) == 4:
                out[key] = c * scale * powers[key[0] * a % n] % p
                continue
            d, sign, (exp, word) = key
            image = _shifted((d, sign, _weyl(((exp + a) % n, word))))
            unit = (up if (sign > 0) == (d == 1) else down) if sign else scale
            out[image] = c * unit % p
        return out

    def _char_expansion(self, key: tuple) -> MappingProxyType:
        """e_m s0 = -sum_b u0^((k - m) b) s_b for the character key (m, d,
        sign, word), memoized (the expansion memo)."""
        cached = self._char_cache.get(key)
        if cached is None:
            m, d, sign, word = key
            field = self.field
            orbit = _orbit(field.p, field.u0, (_weight(d, sign) - m) % field.order)
            cached = self._char_cache[key] = MappingProxyType(dict(zip(
                [_shifted((d, sign, _weyl((b, word)))) for b in range(field.order)], orbit)))
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
        embed).

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
        """The row a public call reads for x: its row, compressed when it
        holds at least p - 1 terms and no character key.  Anything but a
        GradedElement, and an element over other parameters, is refused."""
        if not isinstance(x, GradedElement):
            raise ValueError(f"expected a GradedElement, got {type(x).__name__}")
        check_parameters(self, x.algebra)
        row = x.row
        if len(row) >= self.weyl.n and 4 not in map(len, row):
            row = self._compress(row)
        return row

    def idempotent_times(self, m: int, x: GradedElement) -> GradedElement:
        check_index(m)
        out: dict = {}
        self._project(out, m, self._operand(x), 1)
        return GradedElement(self, out)

    # --- single-letter action tables ---

    def _letter_on_symbol(self, i: int, sym: BasisSymbol) -> MappingProxyType:
        """tau_{s_i} sym from the table as a symbolic row (its e_m terms stay
        character keys), memoized; s_i shortens the support of sym, as in
        _chain, its one caller.  perfbench/tracer.py wraps this method and
        gauges _letter_cache, so renaming either changes the benchmark."""
        key = (i, sym)
        cached = self._letter_cache.get(key)
        if cached is None:
            d, sign, w = sym
            chars, plain = _LETTER_ROWS[i, d, sign, len(w[1]) == 1]
            row = self._row(d, w, chars, self.weyl.mul(self.weyl.simple(i), w), plain)
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

    def act_left(self, h: HeckeElement, x: GradedElement) -> GradedElement:
        return GradedElement(self, _multiply(self, self._operand(self.embed(h)), self._operand(x)))

    def _act_left(self, u: WeylElement, sym: BasisSymbol, c: int = 1) -> dict:
        """c tau_u sym, u = omega^e u', sym a plain symbol: _adds_left where
        lengths add, and otherwise the chain of u' on sym, then the torus
        prefix.  A pair miss of route (1) in product.py; every sum over
        terms, and every character key, goes through _multiply."""
        exp, word = u
        # lengths add unless the support's word starts with the last letter of u
        if not word or sym[2][1][:1] != word[-1:]:
            return self._adds_left(u, sym, c)
        out: dict = {}
        self._chain(word, sym, c, out)
        return self._shift_left(out, exp) if out and exp else out

    def _chain(self, word: tuple, key, c: int, out: dict) -> None:
        """out += c tau_u key for the bare word u, read from the right, out
        holding no plain term (a fresh dict in _act_left).  While a
        letter shortens the support, its row holds character keys on that
        support, which meet the rest of u where lengths add, and at most one
        plain term, which meets the next letter."""
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
        # out holds character keys only, so the one plain term cannot merge
        out.update(self._adds_left(_weyl((0, word[:n])), key, c))

    def _adds_left(self, u: WeylElement, sym: BasisSymbol, c: int = 1) -> dict:
        """c tau_u sym where lengths add, l(u w) = l(u) + l(w) for w the support
        of sym: one symbol at u w or zero, the rules of _ADDS_RULES applied
        from the right, then the torus prefix of u.  The rules of a nonempty
        word are one closed form (_ADDS_LEFT), keyed by the last letter of u
        and l(u) mod 2."""
        d, sign, (f, w) = sym
        exp, word = u
        if word:
            rule = _ADDS_LEFT[word[-1], len(word) % 2, d, sign]
            if rule is None:
                return {}
            sign, unit = rule
            c *= unit
        # the words join without a cancellation; omega^f crosses the word
        image = _shifted((d, sign, _weyl(((-f if len(word) % 2 else f) % self.weyl.n, word + w))))
        if exp:
            return self._shift_left({image: c}, exp)
        return {image: c % self.field.p}

    def act_right(self, x: GradedElement, h: HeckeElement) -> GradedElement:
        return GradedElement(self, _multiply(self, self._operand(x), self._operand(self.embed(h))))

    def _act_right(self, sym: BasisSymbol, v: WeylElement) -> dict:
        """sym tau_v, v = omega^e u, sym a plain symbol: _adds_right where
        lengths add (always at a torus element), and otherwise the right
        torus shift by e (_adds_right at omega^e), then the transport
        J(tau_(u^-1) J(.)), as J(tau_u) = tau_(u^-1) (deg 0).  A pair miss of
        route (1) in product.py."""
        exp, word = v
        # lengths add unless the support's word ends with the first letter of u
        if not word or sym[2][1][-1:] != word[:1]:
            return self._adds_right(sym, v)
        if exp:
            ((sym, _),) = self._adds_right(sym, _weyl((exp, ()))).items()
        c, jsym = self._symbol_involution(sym)
        return self._involution(self._act_left(self.weyl.inv(_weyl((0, word))), jsym, c))

    def _adds_right(self, sym: BasisSymbol, v: WeylElement) -> dict:
        """sym tau_v where lengths add, l(w v) = l(w) + l(v) for w the support
        of sym: one symbol at w v or zero, the rules of _RIGHT_RULES applied
        from the left.  The rules of a nonempty u, v = omega^e u, are one
        closed form (_ADDS_RIGHT), keyed by the first letter of u, l(u) mod 2
        and l(w) mod 2.  The torus part carries no scalar."""
        d, sign, (f, w) = sym
        exp, word = v
        odd, c = len(w) % 2, 1
        if word:
            rule = _ADDS_RIGHT[word[0], len(word) % 2, d, sign, odd]
            if rule is None:
                return {}
            sign, c = rule
        # the words join without a cancellation; omega^e crosses the word of w
        f = (f - exp if odd else f + exp) % self.weyl.n
        image = _shifted((d, sign, _weyl((f, w + word))))
        return {image: c % self.field.p}

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
        c = self.field.root_pow(-_weight(d, sign) * w.exp)
        if w.length % 2 == 0:
            return c, BasisSymbol(d, sign, wi)
        return self.field.neg(c), BasisSymbol(d, -sign, wi)

    def _involution(self, row) -> dict:
        """J on a symbolic row: J(e_m s0) = J(s0) e_-m = e_m' J(s0) by the slide."""
        return self._map_symbols(row, self._symbol_involution, lambda m, image: self._slide(image, -m))

    def involution(self, x: GradedElement) -> GradedElement:
        """The involutive anti-automorphism J (graded sign on products)."""
        return GradedElement(self, self._involution(self._operand(x)))

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
        return GradedElement(self, self._uniformizer_conj(self._operand(x)))

    # --- factorization of degree-1 symbols through the four generators ---

    def factor_through_generators(
        self, sym: BasisSymbol
    ) -> tuple[int, WeylElement, BasisSymbol, WeylElement]:
        """Write a degree-1 symbol as c * tau_a * g * tau_b, g one of the four
        bimodule generators.

        A sign-0 symbol is tau_(omega^e) beta^0_(s_j) tau_(rest).  A signed
        symbol whose word is empty or starts with the letter of its sign (s0
        for -, s1 for +) is beta^sign_1 tau_w.  Otherwise its support w joins
        the generator g at 1 without a cancellation, g of the same sign when
        l(w) is even and of the other when it is odd, and tau_w g is c times
        the symbol, c read from the lengths-add closed form (_adds_left).
        """
        if sym.degree != 1:
            raise ValueError(f"expected a degree-1 symbol, got {sym!r}")
        W = self.weyl
        _, sign, w = sym
        word = w.word
        if sign == 0:
            return 1, W.omega(w.exp), BasisSymbol(1, 0, W.simple(word[0])), _weyl((0, word[1:]))
        if not word or word[0] == (S1 if sign > 0 else S0):
            return 1, W.identity, BasisSymbol(1, sign, W.identity), w
        g = BasisSymbol(1, -sign if len(word) % 2 else sign, W.identity)
        ((_, c),) = self._adds_left(w, g).items()
        return self.field.inv(c), w, g, W.identity


# bound last: product.py imports the names above from this module
from .product import _multiply  # noqa: E402
