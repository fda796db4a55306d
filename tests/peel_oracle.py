"""The sign-0 core of route (3) as it was computed before it read
factor_through_generators, kept as a test oracle: a sign-0 symbol beta^0_v
of support length >= 2 whose word ends with the letter s_i of the sign-0
generator g is peeled one letter, beta^0_v = beta^0_(v s_i^-1) tau_(s_i), so

  beta^0_v g = beta^0_(v s_i^-1) (tau_(s_i) g),

a Hecke kernel and then pairs whose lengths add.
"""

from heckext.graded import BasisSymbol, ExtAlgebra
from heckext.product import _multiply, _pair


def deg1_times_generator_by_peel(alg: ExtAlgebra, z: BasisSymbol, g: BasisSymbol) -> dict:
    """z.g, z a sign-0 symbol of support length >= 2 whose word ends with
    the letter of g."""
    W = alg.weyl
    s_i = W.simple(g.support.word[0])
    v2 = W.mul(z.support, W.inv(s_i))
    inner = _pair(alg, BasisSymbol(0, None, s_i), g)
    return _multiply(alg, {BasisSymbol(1, 0, v2): 1}, inner)
