"""The degree-1 factorization and the torus idempotents as they were before
they read the engine's closed forms, kept as test oracles.

factor_through_generators printed the lengths-add coefficients u_w^2 and
-u_w^2 of its sign -1 cases and reached sign +1 through the uniformizer
conjugation; u_w^2 is u0^(2 exp), written here in place of the removed
WeylGroup.unit_square.  The idempotents wrote their coefficients
-u0^(-m e) term by term.
"""

from heckext.graded import BasisSymbol, ExtAlgebra
from heckext.hecke import HeckeAlgebra, HeckeElement
from heckext.presentation import T_W0, FreeElement
from heckext.weyl import S0, _weyl


def factor_through_generators(alg: ExtAlgebra, sym: BasisSymbol):
    W = alg.weyl
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
        iota = alg._symbol_uniformizer_conj
        c, left, g, right = factor_through_generators(alg, iota(sym)[1])
        return c, W.uniformizer_conj(left), iota(g)[1], W.uniformizer_conj(right)
    if not word or word[0] == S0:
        return 1, W.identity, BasisSymbol(1, -1, W.identity), w
    if len(word) % 2 == 0:  # word of shape (s1 s0)^k
        return (
            alg.field.root_pow(2 * w.exp),
            w,
            BasisSymbol(1, -1, W.identity),
            W.identity,
        )
    # word of shape s1 (s0 s1)^k
    return (
        alg.field.neg(alg.field.root_pow(2 * w.exp)),
        w,
        BasisSymbol(1, 1, W.identity),
        W.identity,
    )


def hecke_idempotent(H: HeckeAlgebra, m: int) -> HeckeElement:
    p, n = H.field.p, H.weyl.n
    powers = H.field.root_powers()
    # a power of u0 lies in [1, p), so p minus it is its negative
    coeffs = [p - powers[-m * e % n] for e in range(n)]
    return HeckeElement(H, dict(zip(H.weyl.torus(), coeffs)))


def free_idempotent(alg: ExtAlgebra, m: int, bound: str = "p-2") -> FreeElement:
    F = alg.field
    top = F.p - 2 if bound == "p-2" else F.p - 1
    return FreeElement.make(alg, {(T_W0,) * i: -F.root_pow(-m * i) for i in range(top + 1)})
