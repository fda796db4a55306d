"""The graded multiplication, the within-summand cup product, and duality.

The product is defined by a finite dispatch on basis-symbol pairs and
extended bilinearly:

  (0) total degree >= 4 is zero;
  (1) a degree-0 factor acts through the Hecke action on its side: the
      miss tau_u.b is the kernel _act_left(u, b) and a.tau_v the kernel
      _act_right(a, v), one term or zero where the lengths add (the closed
      forms _adds_left and _adds_right, which read rule tables and no J;
      against a torus element lengths always add), and otherwise a chain
      of table rows, on the right through J; the public actions and the
      Hecke factors of routes (3) and (4) are such pairs;
  (2) when the support lengths add, the product reduces to a cup product
      inside the summand of the product support, via
      x * y = (x * tau_{supp y}) cup (tau_{supp x} * y);
  (3) a bad (lengths do not add) degree-1 x degree-1 pair is resolved by
      factoring the right factor through the four bimodule generators;
      against the generator, a sign-0 symbol at a support of length 1
      reads a fixed base quadratic, and every other left factor is
      factored the same way and reassociated through the Hecke action;
  (4) a bad degree-2 x degree-1 pair is factored the same way; against
      the generator, alpha^- at a word starting with s0 and alpha^+ at one
      starting with s1 give zero, and every other alpha reads its one-term
      section row q = c x y (sections.py) as q g = c x (y g);
  (5) a bad degree-1 x degree-2 pair is transported through the
      anti-involution to case (4); the graded sign is +1 there.

Every step is anchored to one printed formula; no global rewriting is
performed.  Correctness is certified by the associativity, involution and
section acceptance suites: an error in any route breaks at least one.

Products of basis-symbol pairs are memoized per algebra; the cache is a
transparent memo of a pure function, and its values are read-only
symbolic rows (graded.py): a term c e_m s of a product stays one
character key, so a bad pair through the base quadratic costs a few
pair lookups, not one per torus twist.  A character key meets a pair by
the projection rule: (e_m a0).b = e_m (a0.b), and a.(e_m b0) = e_m' (a.b0)
by the idempotent slide a e_m = e_m' a.  The internal product _multiply
works on rows.  The public multiply reads each operand's row, compressed
when it is plain (a whole torus orbit that is one character becomes its
character key, so e_m * x is one pair, not p - 1), and returns the element
of the product row, expanded on the first read of its coeffs (graded.py).
A miss whose words meet, of total degree <= 3 and with a torus exponent
on either factor, is derived from the pair a0.b0 of its symbols at torus
exponent 0, read through the pair memo, so a value never depends on the
requests before it.  Every other miss, a closed form or a meeting pair at
exponent 0, is computed and stored.  With k the torus weight,

  a.b = u0^-t T_e(a0.b0),  e = ea + (-1)^|wa| eb,  t = k(a) e + k(b) eb,

where T_e is the left torus action on each term (ExtAlgebra._shift_left).
The left half is the definition of the torus action with associativity
across a degree-0 factor (the assoc suite); the right half is the plain
right torus shift (rightaction_torus_all_degrees).
"""

from __future__ import annotations

from types import MappingProxyType

from .coeff import add_into, check_parameters
from .graded import BasisSymbol, ExtAlgebra, GradedElement, _shifted, _weight
from .weyl import S0, S1, _weyl

__all__ = ["multiply", "cup_summand", "duality_pairing"]


def cup_summand(alg: ExtAlgebra, a: BasisSymbol, b: BasisSymbol) -> GradedElement:
    """Cup product of two basis symbols supported in the same summand."""
    alg._check_symbol(a)
    alg._check_symbol(b)
    if a.support != b.support:
        raise ValueError(f"cup requires equal supports, got {a!r} and {b!r}")
    return GradedElement(alg, _cup_symbols(alg, a, b))


# exterior-table signs for degree-1 pairs at support length >= 1
_EXTERIOR = {
    (1, -1): (1, 0),   # beta^+ cup beta^-  ->  +alpha^0
    (0, 1): (1, -1),   # beta^0 cup beta^+  ->  +alpha^-
    (-1, 0): (1, 1),   # beta^- cup beta^0  ->  +alpha^+
    (-1, 1): (-1, 0),
    (1, 0): (-1, -1),
    (0, -1): (-1, 1),
}


def _cup_symbols(alg: ExtAlgebra, a: BasisSymbol, b: BasisSymbol) -> dict:
    # the image of two symbols of one summand is valid there: built unchecked
    (da, sa, w), (db, sb, _) = a, b
    if da + db > 3:
        return {}
    if da == 0:
        return {b: 1}
    if db == 0:
        return {a: 1}
    if da == 1 and db == 1:
        if not w[1]:
            return {}
        entry = _EXTERIOR.get((sa, sb))
        if entry is None:  # equal signs square to zero
            return {}
        sgn, out_sign = entry
        return {_shifted((2, out_sign, w)): sgn % alg.field.p}
    # complementary degrees 1 and 2: dual-basis rule delta_{sign,sign} phi_w
    if sa == sb:
        return {_shifted((3, None, w)): 1}
    return {}


def _graded_algebra(x) -> ExtAlgebra:
    """The algebra of x, a GradedElement; anything else is refused, as
    ExtAlgebra._operand refuses it."""
    if not isinstance(x, GradedElement):
        raise ValueError(f"expected a GradedElement, got {type(x).__name__}")
    return x.algebra


def multiply(x: GradedElement, y: GradedElement) -> GradedElement:
    alg = _graded_algebra(x)  # and _operand refuses y
    return GradedElement(alg, _multiply(alg, alg._operand(x), alg._operand(y)))


def _multiply(alg: ExtAlgebra, x, y) -> dict:
    """x.y on symbolic rows."""
    p = alg.field.p
    total: dict = {}
    for a, ca in x.items():
        plain = len(a) == 3
        for b, cb in y.items():
            if plain and len(b) == 3:
                add_into(total, _pair(alg, a, b).items(), ca * cb, p)
            else:
                _character_pair(alg, total, a, b, ca * cb)
    return total


def _character_pair(alg: ExtAlgebra, total: dict, a, b, scale: int) -> None:
    """total += scale a.b when a or b is a character key: (e_m a0).b =
    e_m (a0.b), and a.(e_m b0) = (a e_m).b0 = e_m' (a.b0) by the idempotent
    slide; e_m e_m' is zero unless m = m'."""
    m = None
    if len(a) == 4:
        m, a = a[0], alg._base(a)
    if len(b) == 4:
        slid = alg._slide(a, b[0])
        if m is not None and m != slid:
            return
        m, b = slid, alg._base(b)
    alg._project(total, m, _pair(alg, a, b), scale)


# the one memo value of every zero product, computed or derived
_EMPTY = MappingProxyType({})


def _pair(alg: ExtAlgebra, a: BasisSymbol, b: BasisSymbol) -> MappingProxyType:
    key = (a, b)
    cached = alg._pair_cache.get(key)
    if cached is not None:
        return cached
    (da, sa, (ea, wa)), (db, sb, (eb, wb)) = a, b
    if (ea or eb) and da + db < 4 and wa and wb and wa[-1] == wb[0]:
        # a.b = u0^-t T_e(a0.b0), a0 and b0 the symbols at torus exponent 0
        e = (ea - eb if len(wa) % 2 else ea + eb) % alg.weyl.n
        t = _weight(da, sa) * e + _weight(db, sb) * eb
        zero = _pair(alg, _shifted((da, sa, _weyl((0, wa)))), _shifted((db, sb, _weyl((0, wb)))))
        row = alg._shift_left(zero, e, alg.field.root_powers()[-t % alg.weyl.n])
    else:
        row = _pair_uncached(alg, a, b)
    out = alg._pair_cache[key] = MappingProxyType(row) if row else _EMPTY
    return out


def _pair_uncached(alg: ExtAlgebra, a: BasisSymbol, b: BasisSymbol) -> dict:
    (da, _, v), (db, _, w) = a, b
    if da + db >= 4:
        return {}
    if da == 0:
        return alg._act_left(v, b)
    if db == 0:
        return alg._act_right(a, w)
    # the lengths add unless the word of v ends with the letter w's starts with
    wa, wb = v[1], w[1]
    if not (wa and wb and wa[-1] == wb[0]):
        return _good_pair(alg, a, b)
    if da == 1 and db == 1:
        return _bad_pair(alg, a, b, _deg1_times_generator)
    if da == 2 and db == 1:
        return _bad_pair(alg, a, b, _deg2_times_generator)
    # degree 1 x degree 2: transport through the anti-involution (sign +1)
    (ca, ja), (cb, jb) = alg._symbol_involution(a), alg._symbol_involution(b)
    return alg._involution(_multiply(alg, {jb: cb}, {ja: ca}))


def _good_pair(alg: ExtAlgebra, a: BasisSymbol, b: BasisSymbol) -> dict:
    # lengths add, so each action is one term or zero: no shortening row occurs
    r = alg._adds_right(a, b[2])
    if not r:
        return {}
    l = alg._adds_left(a[2], b)
    if not l:
        return {}
    ((sa, ca),), ((sb, cb),) = r.items(), l.items()
    p = alg.field.p
    return {s: c * ca * cb % p for s, c in _cup_symbols(alg, sa, sb).items()}


def _bad_pair(alg: ExtAlgebra, a: BasisSymbol, b: BasisSymbol, times_generator) -> dict:
    """A bad pair with a degree-1 right factor b = c tau_l g tau_r, g a bimodule
    generator (cases (3) and (4)): a.b = c ((a tau_l) g) tau_r, with each term
    of a tau_l times g given by times_generator, and (e_m z) g = e_m (z g)."""
    p = alg.field.p
    c, t_left, g, t_right = alg.factor_through_generators(b)
    mid: dict = {}
    for z, cz in _pair(alg, a, BasisSymbol(0, None, t_left)).items():
        if len(z) == 3:
            add_into(mid, times_generator(alg, z, g).items(), cz, p)
        else:
            alg._project(mid, z[0], times_generator(alg, alg._base(z), g), cz)
    return _multiply(alg, mid, {BasisSymbol(0, None, t_right): c})


def _deg1_times_generator(alg: ExtAlgebra, z: BasisSymbol, g: BasisSymbol):
    W = alg.weyl
    if W.lengths_add(z.support, g.support):
        return _pair(alg, z, g)
    # bad core: g is a sign-0 generator and the word of z ends with its letter
    if z.sign == 0 and z.support.length == 1:
        # the base quadratic beta^0_{s0} beta^0_{s0} = -e_0 alpha^0_{s0}
        # - e_-1 alpha^+_{s0} + e_1 alpha^-_{s0} (three character keys),
        # conjugated at s1, then the torus prefix
        base = alg._row(2, W.s0, [(0, 0, -1), (-1, 1, -1), (1, -1, 1)])
        if g.support.word[0] == S1:
            base = alg._uniformizer_conj(base)
        return alg._shift_left(base, z.support.exp)
    # every other z: factor it and reassociate through the Hecke action
    cz, t_left, g2, t_right = alg.factor_through_generators(z)
    mid = _multiply(alg, {g2: 1}, _pair(alg, BasisSymbol(0, None, t_right), g))
    return _multiply(alg, {BasisSymbol(0, None, t_left): cz}, mid)


def _deg2_times_generator(alg: ExtAlgebra, q: BasisSymbol, g: BasisSymbol):
    if alg.weyl.lengths_add(q.support, g.support):
        return _pair(alg, q, g)
    if q.sign == (-1 if q.support.word[0] == S0 else 1):
        # alpha^-_u at u = s0..., alpha^+_u at u = s1...: q = c tau_v alpha^+-_1
        # (_ADDS_RULES), and the good pair alpha^+-_1 g cups a signed alpha
        # with beta^0, which is zero by the dual-basis rule
        return {}
    # the section row q = c x y, x = beta^-+_1: q g = c x (y g), a good outer pair
    (((x, y), c),) = _section2_symbol(alg, q).coeffs.items()
    return _multiply(alg, {x: c}, _pair(alg, y, g))


def duality_pairing(x: GradedElement, y: GradedElement) -> int:
    """The scalar pairing of complementary degrees.

    Returns the total phi-coefficient of the within-summand cup products
    of the components; (phi_w) and (tau_w) are dual, and beta^s_w pairs
    with alpha^t_w to delta_{s,t}.
    """
    check_parameters(_graded_algebra(x), _graded_algebra(y))
    xc, yc = x.coeffs, y.coeffs
    if not xc or not yc:
        return 0
    dx, dy = next(iter(xc))[0], next(iter(yc))[0]
    if len(xc) > 1 and any(s[0] != dx for s in xc) or len(yc) > 1 and any(s[0] != dy for s in yc):
        raise ValueError("pairing requires homogeneous elements")
    if dx + dy != 3:
        raise ValueError(f"pairing requires complementary degrees, got {dx} and {dy}")
    alg, acc = x.algebra, 0
    signs = (None,) if dy in (0, 3) else (-1, 0, 1)
    # y's terms at the support w of sa are its keys (dy, s, w); (3, None, w) is phi_w
    for sa, ca in xc.items():
        w = sa[2]
        for s in signs:
            cb = yc.get((dy, s, w))
            if cb is not None:
                acc += ca * cb * _cup_symbols(alg, sa, _shifted((dy, s, w))).get((3, None, w), 0)
    return acc % alg.field.p


# bound last: sections.py imports _multiply from this module
from .sections import _section2_symbol  # noqa: E402
