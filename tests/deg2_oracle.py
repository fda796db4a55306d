"""Route (4) of the product as it was before it read the section rows,
kept as a test oracle: the bad core of degree 2 x degree 1, with the torus
prefix pulled out, a word starting with s1 sent through the uniformizer
conjugation, and alpha^-_u peeled one letter at a time.  It recurses
along the support, so it reaches Python's recursion limit near 500
letters.  Patched in for heckext.product._deg2_times_generator on a fresh
algebra, it must give every product the engine gives.
"""

from heckext.graded import BasisSymbol, ExtAlgebra, _weight
from heckext.product import _multiply, _pair
from heckext.weyl import S1, WeylElement


def _deg2_times_generator(alg: ExtAlgebra, q: BasisSymbol, g: BasisSymbol):
    W, F = alg.weyl, alg.field
    if W.lengths_add(q.support, g.support):
        return _pair(alg, q, g)
    u = q.support
    if u.exp != 0:
        # pull the torus prefix out first
        bare = WeylElement(W, 0, u.word)
        scale = F.root_pow(-_weight(q.degree, q.sign) * u.exp)
        inner = _deg2_times_generator(alg, BasisSymbol(2, q.sign, bare), g)
        return alg._shift_left(inner, u.exp, scale)
    if u.word[0] == S1:
        # the uniformizer conjugation iota swaps s0 and s1: q g = iota(iota(q)
        # iota(g)), each iota on a symbol with its unit
        (cq, iq), (cg, ig) = alg._symbol_uniformizer_conj(q), alg._symbol_uniformizer_conj(g)
        out = alg._uniformizer_conj(_deg2_times_generator(alg, iq, ig))
        return out if cq == cg else {key: F.neg(c) for key, c in out.items()}
    if q.sign == 0:
        # single-tensor section row: alpha^0_u = -beta^-_1 * beta^+_u
        inner = _pair(alg, BasisSymbol(1, 1, u), g)
        return _multiply(alg, {BasisSymbol(1, -1, W.identity): -1}, inner)
    if q.sign == -1:
        # alpha^-_u = -tau_{s0} alpha^+_{s0^{-1} u}: strictly shorter support
        shorter = W.mul(W.inv(W.s0), u)
        inner = _deg2_times_generator(alg, BasisSymbol(2, 1, shorter), g)
        return _multiply(alg, {BasisSymbol(0, None, W.s0): -1}, inner)
    # alpha^+_u = beta^-_1 * beta^0_u
    inner = _pair(alg, BasisSymbol(1, 0, u), g)
    return _multiply(alg, {BasisSymbol(1, -1, W.identity): 1}, inner)
