"""Exhaustive oracles for the character keys of the product engine.

A character key (m, d, sign, word) with coefficient c stands for c e_m s0,
where s0 is the symbol (d, sign, (0, word)) and e_m = -sum_t id^m(t)^-1 tau_t
is a torus idempotent.  Memo values keep such terms unexpanded, and every
operation of the engine has one rule for a character key.  Each rule is
checked here against the same operation on the expansion of the key, made
through the public API of a second algebra, for every torus-free symbol
with support length <= 3 and every m, at p=5 and p=7.  The expansion itself
is checked against the definition of e_m.

The last test pins the point of the keys: the memos a product fills do not
grow with p.
"""

from __future__ import annotations

import pytest

from heckext import ExtAlgebra
from heckext.graded import BasisSymbol, GradedElement
from heckext.grammar import parse_element
from heckext.product import _multiply, multiply
from heckext.weyl import S0, S1

MAX_LENGTH = 3
PRIMES = [5, 7]


def character_keys(alg: ExtAlgebra, max_length: int = MAX_LENGTH):
    for d, sign, (exp, word) in alg.basis_symbols(max_length):
        if exp == 0:
            for m in range(alg.weyl.n):
                yield (m, d, sign, word)


def expanded(alg: ExtAlgebra, row) -> GradedElement:
    return GradedElement(alg, alg._expand(row))


@pytest.mark.parametrize("p", PRIMES)
def test_expanding_c_e_m_s_is_the_definition(p):
    alg, oracle = ExtAlgebra(p), ExtAlgebra(p)
    for sym in alg.basis_symbols(MAX_LENGTH):
        x = oracle.symbol_element(sym).scale(3)
        for m in range(-1, alg.weyl.n):
            row: dict = {}
            alg._project(row, m, {sym: 3}, 1)
            assert len(row) == 1 and len(next(iter(row))) == 4, (sym, m)
            assert expanded(alg, row) == oracle.act_left(oracle.hecke.idempotent(m), x), (sym, m)


def test_expansion_sums_the_terms_of_one_orbit():
    alg, oracle = ExtAlgebra(5), ExtAlgebra(5)
    H, n = oracle.hecke, alg.weyl.n
    for sym in alg.basis_symbols(2):
        d, sign, (_, word) = sym
        s0 = oracle.symbol_element(BasisSymbol(d, sign, oracle.weyl.element(0, word)))
        for m in range(n):
            row = {(m, d, sign, word): 2, ((m + 1) % n, d, sign, word): 3, sym: 1}
            expected = (oracle.act_left(H.idempotent(m), s0).scale(2)
                        + oracle.act_left(H.idempotent(m + 1), s0).scale(3)
                        + oracle.symbol_element(sym))
            assert expanded(alg, row) == expected, (sym, m)
        # the idempotents sum to 1, so all of them together leave s0 alone
        assert expanded(alg, {(m, d, sign, word): 1 for m in range(n)}) == s0, sym


@pytest.mark.parametrize("p", PRIMES)
def test_letters_on_character_keys_equal_the_expanded_computation(p):
    alg, oracle = ExtAlgebra(p), ExtAlgebra(p)
    H = oracle.hecke
    for key in character_keys(alg):
        x = expanded(oracle, {key: 2})
        for i in (S0, S1):
            tau = H.tau(oracle.weyl.simple(i))
            left = alg._apply_letter(alg._letter_on_symbol, i, {key: 2}, True)
            assert expanded(alg, left) == oracle.act_left(tau, x), (i, key)
            right = alg._apply_letter(alg._right_letter_on_symbol, i, {key: 2}, False)
            assert expanded(alg, right) == oracle.act_right(x, tau), (i, key)


@pytest.mark.parametrize("p", PRIMES)
def test_torus_shifts_of_character_keys_equal_the_expanded_computation(p):
    alg, oracle = ExtAlgebra(p), ExtAlgebra(p)
    torus = [oracle.hecke.tau(t) for t in oracle.weyl.torus()]
    for key in character_keys(alg):
        x = expanded(oracle, {key: 2})
        for a, t in enumerate(torus):
            assert expanded(alg, alg._shift_left({key: 2}, a)) == oracle.act_left(t, x), (a, key)
            assert expanded(alg, alg._shift_right({key: 2}, a)) == oracle.act_right(x, t), (a, key)


@pytest.mark.parametrize("p", PRIMES)
def test_involutions_of_character_keys_equal_the_expanded_computation(p):
    alg, oracle = ExtAlgebra(p), ExtAlgebra(p)
    for key in character_keys(alg):
        x = expanded(oracle, {key: 2})
        assert expanded(alg, alg._involution({key: 2})) == oracle.involution(x), key
        assert expanded(alg, alg._uniformizer_conj({key: 2})) == oracle.uniformizer_conj(x), key


@pytest.mark.parametrize("p", PRIMES)
def test_pairs_with_a_character_key_equal_the_expanded_computation(p):
    alg, oracle = ExtAlgebra(p), ExtAlgebra(p)
    symbols = list(alg.basis_symbols(MAX_LENGTH))
    for key in character_keys(alg):
        x = expanded(oracle, {key: 2})
        for b in symbols:
            if key[1] + b[0] > 3:
                continue
            y = oracle.symbol_element(b)
            assert expanded(alg, _multiply(alg, {key: 2}, {b: 1})) == multiply(x, y), (key, b)
            assert expanded(alg, _multiply(alg, {b: 1}, {key: 2})) == multiply(y, x), (b, key)


def test_pairs_of_two_character_keys_equal_the_expanded_computation():
    alg, oracle = ExtAlgebra(5), ExtAlgebra(5)
    keys = list(character_keys(alg, 2))
    for ka in keys:
        x = expanded(oracle, {ka: 1})
        for kb in keys:
            if ka[1] + kb[1] <= 3:
                got = expanded(alg, _multiply(alg, {ka: 1}, {kb: 1}))
                assert got == multiply(x, expanded(oracle, {kb: 1})), (ka, kb)


SCALING_PRODUCTS = [
    ("b0(w(790; s1 s0 s1))", "ap(w(575; s1))"),  # a junction product that is 0
    ("tau(w(109; s1 s0 s1))", "bp(w(152; s1))"),
    ("bm(w(179; s0 s1 s0))", "b0(w(285; s0))"),
]


@pytest.mark.parametrize("left, right", SCALING_PRODUCTS)
def test_memo_growth_of_a_product_does_not_depend_on_p(left, right):
    # the parser reduces each exponent mod p - 1
    sizes = []
    for p in (101, 1009):
        alg = ExtAlgebra(p)
        multiply(parse_element(alg, left), parse_element(alg, right))
        sizes.append((len(alg._pair_cache), len(alg._letter_cache)))
    assert sizes[0] == sizes[1]
