"""Exhaustive oracles for the letter memo and the right transport.

The left action reads chains of table rows from one letter memo, and the
right action is its transport through the anti-involution J.  The tables
state s0 and derive the s1 rows and rules through the uniformizer
conjugation; the s1 rows as they were printed before that are kept here.
The engine's one-letter kernel _act_left(s_i, sym), which is the row of
the letter table where the letter shortens and the lengths-add rule
where lengths add, must equal them, and the rows of the letter-by-letter
walk kept in tests/walk_oracle.py.  Rows are symbolic (their e_m terms stay character
keys), so they are compared after expansion.  The right action of one
letter, and the walk's symbolic transport, must equal the concrete
transport written out here, at one J lookup per entry of a row, and the
whole right action must equal the transport of the left action through J.  Hecke products are read from the closed form
of bare-word products, their plain terms shifted by the torus and their
orbit sums expanded; they must equal the graded engine's degree-0 product
(the kernel _act_left) and a left letter recursion written out here over
the Weyl group.
"""

from __future__ import annotations

import pytest

from heckext import ExtAlgebra
from heckext.coeff import add_into
from heckext.graded import BasisSymbol, GradedElement
from heckext.hecke import HeckeElement
from heckext.weyl import S0, S1

from walk_oracle import WalkAlgebra


MAX_LENGTH = 3

# tau_{s1} on the degree-d symbol of this sign at w, keyed by (d, sign, whether
# lengths add): entries (m, sign', c) for c e_m times the degree-d symbol of
# sign' at w and (sign', c) for c times the one at s1 w; the entries at every
# length of w, then those only at length 1 and only at length >= 2.  Where
# lengths do not add, every row also starts with -e_0 sym.
PRINTED_S1_ROWS = {
    (0, None, True): (((None, 1),), (), ()),
    (1, 0, True): (((0, -1),), (), ()),
    (1, 1, True): (((-1, -1),), (), ()),
    (2, -1, True): (((1, -1),), (), ()),
    (1, 0, False): ((), ((-1, -1, -1),), ()),
    (1, 1, False): (((-1, 0, 2), (-1, -1)), ((-2, -1, 1),), ()),
    (2, -1, False): (((1, -1),), ((-1, 0, 1), (-2, 1, 1)), ()),
    (2, 0, False): (((-1, 1, -2),), (), ((0, -1),)),
    (3, None, False): (((None, 1),), (), ()),
}


def printed_s1_row(alg: ExtAlgebra, sym) -> dict:
    """tau_{s1} sym from PRINTED_S1_ROWS, expanded."""
    W = alg.weyl
    d, sign, w = sym
    adds = W.lengths_add(W.s1, w)
    every, at_length_1, longer = PRINTED_S1_ROWS.get((d, sign, adds), ((), (), ()))
    entries = every + (at_length_1 if w.length == 1 else longer)
    if not adds:
        entries = ((0, sign, -1),) + entries
    chars = [e for e in entries if len(e) == 3]
    plain = [e for e in entries if len(e) == 2]
    return alg._expand(alg._row(d, w, chars, W.mul(W.s1, w), plain))


@pytest.mark.parametrize("p", [5, 7, 13])
def test_letter_rows_equal_the_walk_and_the_printed_s1_rows(p):
    # every one-letter product equals the walk's row (most of them torus
    # shifts of their orbit's first row), and each s1 row the printed one;
    # the letter memo keeps exactly the rows of the letters that shorten
    alg, oracle = ExtAlgebra(p), WalkAlgebra(p)
    W = alg.weyl
    shortening = set()
    for sym in alg.basis_symbols(4):
        for i in (S0, S1):
            got = alg._expand(alg._act_left(W.simple(i), sym))
            assert got == oracle._expand(oracle._letter_on_symbol(i, sym)), (i, sym)
            if i == S1:
                assert got == printed_s1_row(oracle, sym), sym
            if not W.lengths_add(W.simple(i), sym.support):
                shortening.add((i, sym))
    assert set(alg._letter_cache) == shortening


@pytest.mark.parametrize("p", [5, 7])
def test_degree0_rows_are_the_hecke_rule(p):
    # the table states the quadratic relation as -e_0 tau_w; the Hecke algebra
    # states it as the orbit sum of the word of w, which mul expands into the
    # sum of the torus twists of w
    alg = ExtAlgebra(p)
    H = alg.hecke
    for w in alg.weyl.elements(MAX_LENGTH):
        for i in (S0, S1):
            row = H.mul(H.tau(alg.weyl.simple(i)), H.tau(w)).coeffs
            expected = {BasisSymbol(0, None, v): c for v, c in row.items()}
            got = alg._act_left(alg.weyl.simple(i), BasisSymbol(0, None, w))
            assert alg._expand(got) == expected, (i, w)


def concrete_right_row(oracle: ExtAlgebra, i: int, sym) -> GradedElement:
    """sym tau_{s_i} = J(T_half(row(J sym))), every idempotent expanded first."""
    F, W = oracle.field, oracle.weyl
    row: dict = {}
    for s, c in oracle.involution(oracle.symbol_element(sym)).coeffs.items():
        add_into(row, oracle._expand(oracle._act_left(W.simple(i), s)).items(), c, F.p)
    # T_half: the support w becomes omega^half w, and weight k scales by u0^(k half)
    shifted = {
        BasisSymbol(s.degree, s.sign, W.element(s.support.exp + W.half, s.support.word)):
            c * F.root_pow(oracle._torus_weight(s) * W.half) % F.p
        for s, c in row.items()
    }
    return oracle.involution(GradedElement(oracle, shifted))


@pytest.mark.parametrize("p", [5, 7])
def test_symbolic_right_rows_equal_the_concrete_transport(p):
    # the engine's right letter and the walk's right row, one J lookup per
    # entry of a left row
    alg, walk, oracle = ExtAlgebra(p), WalkAlgebra(p), ExtAlgebra(p)
    for sym in alg.basis_symbols(MAX_LENGTH):
        for i in (S0, S1):
            expected = concrete_right_row(oracle, i, sym)
            got = GradedElement(alg, alg._expand(alg._act_right(sym, alg.weyl.simple(i))))
            assert got == expected, (i, sym)
            assert GradedElement(walk, walk._expand(walk._right_row(i, sym))) == expected, (i, sym)


def test_a_right_letter_makes_one_j_miss_per_row_entry():
    alg = ExtAlgebra(1009)
    sym = BasisSymbol(1, 1, alg.weyl.s0)
    # J(sym) is beta^- at s0^-1, on which tau_{s0} shortens the word: the row
    # has three character keys (m, d, sign, word) and one plain symbol
    _, jsym = alg._symbol_involution(sym)
    row = alg._letter_on_symbol(S0, jsym)
    assert sorted(len(key) for key in row) == [3, 4, 4, 4]
    before = len(alg._j_cache)
    out = alg._act_right(sym, alg.weyl.s0)
    assert 0 < len(alg._j_cache) - before <= len(row)
    assert len(out) == len(row)
    assert len(alg._expand(out)) > alg.weyl.n


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
    alg = ExtAlgebra(p)
    H = alg.hecke
    supports = H.weyl.elements(MAX_LENGTH)
    for v in supports:
        for w in supports:
            got = H.mul(H.tau(v), H.tau(w))
            kernel = alg._expand(alg._act_left(v, BasisSymbol(0, None, w)))
            assert kernel == alg.embed(got).row, (v, w)
            assert got == HeckeElement(H, letter_recursion(H, v, w)), (v, w)
