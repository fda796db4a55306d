"""The graded multiplication, the within-summand cup product, and duality.

The product is defined by a finite dispatch on basis-symbol pairs and
extended bilinearly:

  (0) total degree >= 4 is zero;
  (1) a degree-0 factor acts through the Hecke action on its side;
  (2) when the support lengths add, the product reduces to a cup product
      inside the summand of the product support, via
      x * y = (x * tau_{supp y}) cup (tau_{supp x} * y);
  (3) a bad (lengths do not add) degree-1 x degree-1 pair is resolved by
      factoring the right factor through the four bimodule generators;
      the only hard core is a sign-0 symbol against a sign-0 generator,
      which is peeled down to a fixed base quadratic;
  (4) a bad degree-2 x degree-1 pair is resolved the same way, with the
      degree-2 factor rewritten through single-tensor section rows or
      shifted to a strictly shorter support;
  (5) a bad degree-1 x degree-2 pair is transported through the
      anti-involution to case (4); the graded sign is +1 there.

Every step is anchored to one printed formula; no global rewriting is
performed.  Correctness is certified by the associativity, involution and
section acceptance suites: an error in any route breaks at least one.

Products of basis-symbol pairs are memoized per algebra; the cache is a
transparent memo of a pure function, and its values are read-only
mappings handed out without a copy.
"""

from __future__ import annotations

from types import MappingProxyType

from .graded import BasisSymbol, ExtAlgebra, GradedElement, _add_into
from .weyl import S0, S1, WeylElement

__all__ = ["multiply", "cup_summand", "duality_pairing"]


def cup_summand(alg: ExtAlgebra, a: BasisSymbol, b: BasisSymbol) -> GradedElement:
    """Cup product of two basis symbols supported in the same summand."""
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
    w = a.support
    da, db = a.degree, b.degree
    p = alg.field.p
    if da + db > 3:
        return {}
    if da == 0:
        return {b: 1}
    if db == 0:
        return {a: 1}
    if da == 1 and db == 1:
        if w.length == 0:
            return {}
        entry = _EXTERIOR.get((a.sign, b.sign))
        if entry is None:  # equal signs square to zero
            return {}
        sgn, out_sign = entry
        return {BasisSymbol(2, out_sign, w): sgn % p}
    # complementary degrees 1 and 2: dual-basis rule delta_{sign,sign} phi_w
    sa = a.sign if da == 1 else b.sign
    sb = b.sign if da == 1 else a.sign
    if sa == sb:
        return {BasisSymbol(3, None, w): 1}
    return {}


def multiply(x: GradedElement, y: GradedElement) -> GradedElement:
    alg = x.algebra
    if not alg.same_parameters(y.algebra):
        raise ValueError("elements live over different parameters")
    p = alg.field.p
    total: dict = {}
    for sa, ca in x.coeffs.items():
        for sb, cb in y.coeffs.items():
            _add_into(total, _pair(alg, sa, sb), ca * cb, p)
    return GradedElement(alg, total)


def _pair(alg: ExtAlgebra, a: BasisSymbol, b: BasisSymbol) -> MappingProxyType:
    key = (a, b)
    cached = alg._pair_cache.get(key)
    if cached is not None:
        return cached
    out = MappingProxyType(_pair_uncached(alg, a, b))
    alg._pair_cache[key] = out
    return out


def _pair_uncached(alg: ExtAlgebra, a: BasisSymbol, b: BasisSymbol) -> dict:
    H = alg.hecke
    da, db = a.degree, b.degree
    if da + db >= 4:
        return {}
    if da == 0:
        return alg.act_left(H.tau(a.support), alg.symbol_element(b)).coeffs
    if db == 0:
        return alg.act_right(alg.symbol_element(a), H.tau(b.support)).coeffs
    if alg.weyl.lengths_add(a.support, b.support):
        return _good_pair(alg, a, b)
    if da == 1 and db == 1:
        return _bad_pair_11(alg, a, b)
    if da == 2 and db == 1:
        return _bad_pair_21(alg, a, b)
    # degree 1 x degree 2: transport through the anti-involution (sign +1)
    ja = alg.involution(alg.symbol_element(a))
    jb = alg.involution(alg.symbol_element(b))
    return alg.involution(multiply(jb, ja)).coeffs


def _good_pair(alg: ExtAlgebra, a: BasisSymbol, b: BasisSymbol) -> dict:
    H, p = alg.hecke, alg.field.p
    r = alg.act_right(alg.symbol_element(a), H.tau(b.support))
    if r.is_zero:
        return {}
    l = alg.act_left(H.tau(a.support), alg.symbol_element(b))
    if l.is_zero:
        return {}
    out: dict = {}
    for sa, ca in r.coeffs.items():
        for sb, cb in l.coeffs.items():
            _add_into(out, _cup_symbols(alg, sa, sb), ca * cb, p)
    return out


def _base_beta0_square(alg: ExtAlgebra, i: int) -> GradedElement:
    """The quadratic base product beta^0_{s_i} * beta^0_{s_i}."""
    cached = alg._base_sq.get(i)
    if cached is not None:
        return cached
    W = alg.weyl
    if i == S0:
        out: dict = {}
        alg._acc_e(out, 0, BasisSymbol(2, 0, W.s0), -1)
        alg._acc_e(out, -1, BasisSymbol(2, 1, W.s0), -1)
        alg._acc_e(out, 1, BasisSymbol(2, -1, W.s0), 1)
    else:
        out = alg.uniformizer_conj(_base_beta0_square(alg, S0)).coeffs
    base = GradedElement(alg, MappingProxyType(out))
    alg._base_sq[i] = base
    return base


def _bad_pair_11(alg: ExtAlgebra, a: BasisSymbol, b: BasisSymbol) -> dict:
    H, p = alg.hecke, alg.field.p
    c, t_left, g, t_right = alg.factor_through_generators(b)
    left = alg.act_right(alg.symbol_element(a), H.tau(t_left))
    mid: dict = {}
    for z, cz in left.coeffs.items():
        _add_into(mid, _deg1_times_generator(alg, z, g), cz, p)
    out = alg.act_right(GradedElement(alg, mid), H.tau(t_right))
    return out.scale(c).coeffs


def _deg1_times_generator(alg: ExtAlgebra, z: BasisSymbol, g: BasisSymbol) -> dict:
    W, H = alg.weyl, alg.hecke
    if W.lengths_add(z.support, g.support):
        return _pair(alg, z, g)
    # bad core: g is a sign-0 generator and the word of z ends with its letter
    i = g.support.word[0]
    if z.sign == 0:
        if z.support.length == 1:
            # pull the torus prefix, then the base quadratic
            base = _base_beta0_square(alg, i)
            if z.support.exp == 0:
                return base.coeffs
            return alg.act_left(H.tau(W.omega(z.support.exp)), base).coeffs
        # peel: beta^0_v = beta^0_{v s_i^{-1}} * tau_{s_i}, then the length-1 row
        v2 = W.mul(z.support, W.inv(W.simple(i)))
        inner = alg.act_left(H.tau(W.simple(i)), alg.symbol_element(g))
        return multiply(alg.beta(0, v2), inner).coeffs
    # signed symbol: factor it and reassociate through the Hecke action
    cz, t_left, g2, t_right = alg.factor_through_generators(z)
    inner = alg.act_left(H.tau(t_right), alg.symbol_element(g))
    mid = multiply(alg.symbol_element(g2), inner)
    return alg.act_left(H.tau(t_left), mid).scale(cz).coeffs


def _bad_pair_21(alg: ExtAlgebra, q: BasisSymbol, b: BasisSymbol) -> dict:
    H, p = alg.hecke, alg.field.p
    c, t_left, g, t_right = alg.factor_through_generators(b)
    qleft = alg.act_right(alg.symbol_element(q), H.tau(t_left))
    mid: dict = {}
    for q2, c2 in qleft.coeffs.items():
        _add_into(mid, _deg2_times_generator(alg, q2, g), c2, p)
    out = alg.act_right(GradedElement(alg, mid), H.tau(t_right))
    return out.scale(c).coeffs


def _deg2_times_generator(alg: ExtAlgebra, q: BasisSymbol, g: BasisSymbol) -> dict:
    W, H, F = alg.weyl, alg.hecke, alg.field
    if W.lengths_add(q.support, g.support):
        return _pair(alg, q, g)
    u = q.support
    if u.exp != 0:
        # pull the torus prefix out first
        bare = WeylElement(W, 0, u.word)
        weight = alg._torus_weight(q)
        scale = F.root_pow(-weight * u.exp)
        inner = GradedElement(alg, _deg2_times_generator(alg, BasisSymbol(2, q.sign, bare), g))
        return alg.act_left(H.tau(W.omega(u.exp)), inner).scale(scale).coeffs
    j = u.word[0]
    if q.sign == 0:
        # single-tensor section row: alpha^0 = (+-) beta^{-+}_1 * beta^{+-}_u
        if j == S1:
            first = alg.beta(1, W.identity)
            inner = GradedElement(alg, _pair(alg, BasisSymbol(1, -1, u), g))
            return multiply(first, inner).coeffs
        first = alg.beta(-1, W.identity)
        inner = GradedElement(alg, _pair(alg, BasisSymbol(1, 1, u), g))
        return multiply(first, inner).scale(-1).coeffs
    if q.sign == -1 and j == S0:
        # alpha^-_u = -tau_{s0} alpha^+_{s0^{-1} u}: strictly shorter support
        shorter = W.mul(W.inv(W.s0), u)
        inner = GradedElement(alg, _deg2_times_generator(alg, BasisSymbol(2, 1, shorter), g))
        return alg.act_left(H.tau(W.s0), inner).scale(-1).coeffs
    if q.sign == 1 and j == S1:
        shorter = W.mul(W.inv(W.s1), u)
        inner = GradedElement(alg, _deg2_times_generator(alg, BasisSymbol(2, -1, shorter), g))
        return alg.act_left(H.tau(W.s1), inner).scale(-1).coeffs
    if q.sign == -1:
        # j == S1: alpha^-_u = -beta^+_1 * beta^0_u
        inner = GradedElement(alg, _pair(alg, BasisSymbol(1, 0, u), g))
        return multiply(alg.beta(1, W.identity), inner).scale(-1).coeffs
    # q.sign == +1, j == S0: alpha^+_u = beta^-_1 * beta^0_u
    inner = GradedElement(alg, _pair(alg, BasisSymbol(1, 0, u), g))
    return multiply(alg.beta(-1, W.identity), inner).coeffs


def duality_pairing(x: GradedElement, y: GradedElement) -> int:
    """The scalar pairing of complementary degrees.

    Returns the total phi-coefficient of the within-summand cup products
    of the components; (phi_w) and (tau_w) are dual, and beta^s_w pairs
    with alpha^t_w to delta_{s,t}.
    """
    alg = x.algebra
    if x.is_zero or y.is_zero:
        return 0
    xdegs, ydegs = x.degrees(), y.degrees()
    if len(xdegs) != 1 or len(ydegs) != 1:
        raise ValueError("pairing requires homogeneous elements")
    dx, dy = next(iter(xdegs)), next(iter(ydegs))
    if dx + dy != 3:
        raise ValueError(f"pairing requires complementary degrees, got {dx} and {dy}")
    p = alg.field.p
    by_support: dict = {}
    for sb, cb in y.coeffs.items():
        by_support.setdefault(sb.support, []).append((sb, cb))
    acc = 0
    for sa, ca in x.coeffs.items():
        for sb, cb in by_support.get(sa.support, ()):
            cup = _cup_symbols(alg, sa, sb)
            phi = BasisSymbol(3, None, sa.support)
            acc = (acc + ca * cb * cup.get(phi, 0)) % p
    return acc
