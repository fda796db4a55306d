"""The torus branches of the sections and the paired kernel generators as
they were built before they were written as rows, kept as a test oracle:
at a torus support the degree-2 section recursed through the public
act_left into the length-1 rows of a shift combination, checked to land
there, and the degree-3 section applied tau_{s0} + e_1 to the row one step
down; the generators were built on each side's blocks, both the s0 and
the s1 members, applying each idempotent through tensor_act.  Each goes
through the product engine, so it must give, coefficient for coefficient,
the rows heckext.sections writes and the s1 members it derives by iota.
"""

from heckext.coeff import add_into
from heckext.graded import BasisSymbol, ExtAlgebra
from heckext.sections import TensorExpression, _section2_symbol, _section3_symbol, tensor_act
from heckext.weyl import S0, S1


def _idempotent_times(alg: ExtAlgebra, m: int, t: TensorExpression, scale: int = 1) -> list:
    """The terms of scale e_m t: e_m moves onto the head slot of each term
    (_project), as e_m (x @ y) = (e_m x) @ y, so it costs no term."""
    terms = []
    for syms, k in t.coeffs.items():
        head: dict = {}
        alg._project(head, m, {syms[0]: 1}, scale * k)
        terms.extend((c, (z,) + syms[1:]) for z, c in head.items())
    return terms


def section2_torus(alg: ExtAlgebra, sym: BasisSymbol) -> TensorExpression:
    """The section of alpha^-_w, w a torus element."""
    W = alg.weyl
    w = sym.support
    # sign -1 at a torus support: recurse through the length-1 shift row,
    # built as a row, so its idempotents stay character keys
    tau_s0 = alg.hecke.tau(W.s0)
    shifted = BasisSymbol(2, 1, W.mul(W.inv(W.s0), w))
    combo = dict(alg._operand(alg.act_left(tau_s0, alg.symbol_element(shifted))))
    add_into(combo, ((sym, 1),), 1, alg.field.p)
    words = (key[2][1] if len(key) == 3 else key[3] for key in combo)
    if any(len(word) != 1 for word in words):
        raise AssertionError("shift combination must land in the length-1 summands")
    # a character key e_m s0 takes the section of s0 with e_m on its head slot
    terms = []
    for key, c in combo.items():
        if len(key) == 3:
            terms.extend((c * k, syms) for syms, k in _section2_symbol(alg, key).coeffs.items())
        else:
            terms.extend(_idempotent_times(alg, key[0], _section2_symbol(alg, alg._base(key)), c))
    return TensorExpression.from_terms(alg, 2, terms) + tensor_act(
        tau_s0, _section2_symbol(alg, shifted), "left"
    ).scale(-1)


def section3_torus(alg: ExtAlgebra, sym: BasisSymbol) -> TensorExpression:
    """The section of phi_w, w a torus element."""
    W = alg.weyl
    w = sym.support
    # torus support: (tau_{s0} + e_1) applied to the section one step down,
    # e_1 (index 0, the trivial character) moved onto the head slot as a
    # character key
    shifted = _section3_symbol(alg, BasisSymbol(3, None, W.mul(W.inv(W.s0), w)))
    return tensor_act(alg.hecke.tau(W.s0), shifted, "left") + TensorExpression.from_terms(
        alg, 3, _idempotent_times(alg, 0, shifted))


# The blocks of the paired generators on each side: (s, sign of B_m, m of e_id,
# m of e_id^-1, sign); B_p is the symbol of the other sign, B_z the sign-0
# symbol at s.
SIDES = ((S0, -1, 1, -1, 1), (S1, 1, -1, 1, -1))


def on_side(alg: ExtAlgebra, s: int, minus: int, e_id: int, e_idinv: int, sign: int) -> list:
    """The s0 members of the paired generators, on one side's blocks: the
    quadratic combination, the mixed relation and a half of the degree-3
    generator, whose middle slot is B_z."""
    W = alg.weyl
    s0 = W.simple(s)
    b = lambda sign_, w: BasisSymbol(1, sign_, w)
    bm, bz0 = b(minus, W.identity), b(0, s0)
    t2 = lambda terms: TensorExpression.from_terms(alg, 2, terms)
    e_left = lambda m, c, s1, s2: tensor_act(alg.hecke.idempotent(m), t2([(c, (s1, s2))]), "left")
    return [
        t2([(1, (bz0, bz0))]) + e_left(e_idinv, sign, bm, bz0) + e_left(e_id, sign, bz0, bm)
        + e_left(0, -1, bm, b(-minus, s0)),
        t2([(1, (b(-minus, s0), bz0)), (1, (bz0, b(minus, s0)))]),
        tensor_act(alg.hecke.tau(s0) + alg.hecke.idempotent(0), TensorExpression.from_terms(
            alg, 3, [(1, (bm, bz0, bm))]), "left"),
    ]
