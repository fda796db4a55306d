"""Exhaustive oracles for the two torus-orbit letter memos.

The right action is computed letter by letter from a memo whose misses are
right torus shifts of one representative per orbit; it must equal the
transport of the left action through the anti-involution J, written out
here.  Hecke products are computed from a memo of bare-word products
shifted by the torus; they must equal the right-factor recursion of the
engine and a left letter recursion written out here over the Weyl group.
"""

from __future__ import annotations

import pytest

from heckext import ExtAlgebra
from heckext.hecke import HeckeElement

MAX_LENGTH = 3


def transported_right(oracle: ExtAlgebra, sym, h):
    """sym h = J(J(h) J(sym)); deg(h) = 0, so no sign enters."""
    jx = oracle.involution(oracle.symbol_element(sym))
    return oracle.involution(oracle.act_left(oracle.hecke.involution(h), jx))


@pytest.mark.parametrize("p", [5, 7])
def test_right_action_on_basis_symbols_equals_the_j_transport(p):
    alg, oracle = ExtAlgebra(p), ExtAlgebra(p)
    supports = alg.weyl.elements(MAX_LENGTH)
    for sym in alg.basis_symbols(MAX_LENGTH):
        x = alg.symbol_element(sym)
        for w in supports:
            h = alg.hecke.tau(w)
            assert alg.act_right(x, h) == transported_right(oracle, sym, h), (sym, w)
    assert len(alg._right_letter_cache) > len(alg._right_orbit_cache)


def test_right_action_by_idempotents_equals_the_j_transport():
    alg, oracle = ExtAlgebra(5), ExtAlgebra(5)
    for sym in alg.basis_symbols(MAX_LENGTH):
        x = alg.symbol_element(sym)
        for m in range(alg.weyl.n):
            h = alg.hecke.idempotent(m)
            assert alg.act_right(x, h) == transported_right(oracle, sym, h), (sym, m)


def letter_recursion(H, v, w) -> dict:
    """tau_v tau_w: the torus letter of v, then its reflections from the right,
    each by the braid relation or the quadratic relation."""
    W, p = H.weyl, H.field.p
    cur = {w: 1}
    for letter in reversed(v.word):
        s = W.simple(letter)
        out: dict = {}
        for u, c in cur.items():
            if W.lengths_add(s, u):
                images = [W.mul(s, u)]
            else:
                # tau_s tau_u = tau_s^2 tau_{s^-1 u} = -e_1 tau_u
                images = [W.mul(W.omega(t), u) for t in range(W.n)]
            for image in images:
                out[image] = (out.get(image, 0) + c) % p
        cur = {u: c for u, c in out.items() if c}
    return {W.mul(W.omega(v.exp), u): c for u, c in cur.items()}


@pytest.mark.parametrize("p", [5, 7])
def test_hecke_products_equal_both_recursions(p):
    H = ExtAlgebra(p).hecke
    supports = H.weyl.elements(MAX_LENGTH)
    for v in supports:
        for w in supports:
            got = H.mul(H.tau(v), H.tau(w))
            assert got == H.mul_right_recursion(H.tau(v), H.tau(w)), (v, w)
            assert got == HeckeElement(H, letter_recursion(H, v, w)), (v, w)
    assert len(H._word_cache) == len({w.word for w in supports}) ** 2
