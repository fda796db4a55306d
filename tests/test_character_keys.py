"""Exhaustive oracles for the character keys of the product engine.

A character key (m, d, sign, word) with coefficient c stands for c e_m s0,
where s0 is the symbol (d, sign, (0, word)) and e_m = -sum_t id^m(t)^-1 tau_t
is a torus idempotent.  Memo values keep such terms unexpanded, and every
operation of the engine has one rule for a character key.  Each rule is
checked here against the same operation on the expansion of the key, made
through the public API of a second algebra, for every torus-free symbol
with support length <= 3 and every m, at p=5 and p=7.  The expansion itself
is checked against the definition of e_m.

Public calls compress every whole torus orbit that is one character into
its character key on the way in (ExtAlgebra._compress, the inverse of the
expansion).  Detection is checked exhaustively at p=5, 7 and 13, and each
public call on operands that hold whole orbits is checked against the same
operation made term by term on the uncompressed dicts.

The last tests pin the point of the keys: the memos a product or an
idempotent right action fills do not grow with p.
"""

from __future__ import annotations

import pytest

from heckext import ExtAlgebra
from heckext.graded import BasisSymbol, GradedElement
from heckext.grammar import parse_element
from heckext.product import _multiply, multiply
from heckext.weyl import S0, S1

from walk_oracle import WalkAlgebra, shift_right

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
    # the oracle's public actions walk each letter of the expansion
    alg, oracle = ExtAlgebra(p), WalkAlgebra(p)
    H = oracle.hecke
    for key in character_keys(alg):
        x = expanded(oracle, {key: 2})
        for i in (S0, S1):
            si = alg.weyl.simple(i)
            tau = H.tau(si)
            left = _multiply(alg, {BasisSymbol(0, None, si): 1}, {key: 2})
            assert expanded(alg, left) == oracle.act_left(tau, x), (i, key)
            right = _multiply(alg, {key: 2}, {BasisSymbol(0, None, si): 1})
            assert expanded(alg, right) == oracle.act_right(x, tau), (i, key)


@pytest.mark.parametrize("p", PRIMES)
def test_torus_shifts_of_character_keys_equal_the_expanded_computation(p):
    alg, oracle = ExtAlgebra(p), ExtAlgebra(p)
    torus = [oracle.hecke.tau(t) for t in oracle.weyl.torus()]
    for key in character_keys(alg):
        x = expanded(oracle, {key: 2})
        for a, t in enumerate(torus):
            assert expanded(alg, alg._shift_left({key: 2}, a)) == oracle.act_left(t, x), (a, key)
            # the engine's right shift is a pair product, the oracle's a plain shift
            right = _multiply(alg, {key: 2}, {BasisSymbol(0, None, alg.weyl.omega(a)): 1})
            assert expanded(alg, right) == expanded(alg, shift_right(alg, {key: 2}, a)), (a, key)
            assert expanded(alg, right) == oracle.act_right(x, t), (a, key)


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


COMPRESS_PRIMES = [5, 7, 13]


@pytest.mark.parametrize("p", COMPRESS_PRIMES)
def test_compress_inverts_the_expansion_of_one_character_key(p):
    alg = ExtAlgebra(p)
    for key in character_keys(alg, 2):
        for c in (1, 2, p - 1):
            assert alg._compress(alg._expand({key: c})) == {key: c}, (key, c)


@pytest.mark.parametrize("p", COMPRESS_PRIMES)
def test_compress_keeps_orbits_that_are_not_one_character(p):
    alg = ExtAlgebra(p)
    n, u0 = alg.weyl.n, alg.field.u0
    for m, d, sign, word in character_keys(alg, 2):
        key, other = (m, d, sign, word), ((m + 2) % n, d, sign, word)
        for c in (1, 2, p - 1):
            # c e_m s0 - c u0 e_(m+2) s0: no term vanishes, as u0 is not a square
            two = alg._expand({key: c, other: -c * u0 % p})
            assert len(two) == n and alg._compress(two) == two, (key, c)
            one = alg._expand({key: c})
            for sym, value in one.items():
                perturbed = dict(one)
                perturbed[sym] = value % (p - 1) + 1
                assert alg._compress(perturbed) == perturbed, (key, c, sym)
                # p - 2 terms of the orbit, and a term of a longer word to reach p - 1
                short = {s: v for s, v in one.items() if s != sym}
                short[BasisSymbol(3, None, alg.weyl.element(1, (S0, S1, S0)))] = 1
                assert alg._compress(short) == short, (key, c, sym)


@pytest.mark.parametrize("p", COMPRESS_PRIMES)
def test_compress_takes_only_the_whole_orbit(p):
    alg = ExtAlgebra(p)
    for key in character_keys(alg, 2):
        _, d, sign, word = key
        rest = {}
        for s in alg.basis_symbols(2):
            if s.support.word != word:
                if s.support.exp in (0, 1):
                    rest[s] = 4  # a residue in [1, p) at every p here
            elif s[:2] != (d, sign) and s.support.exp:
                rest[s] = 3  # the other orbits of this word, one term short of whole
        x = {**alg._expand({key: 2}), **rest}
        assert alg._compress(x) == {key: 2, **rest}, key


@pytest.mark.parametrize("p", COMPRESS_PRIMES)
def test_compress_of_a_hecke_element_is_e_m_tau_u(p):
    alg = ExtAlgebra(p)
    H, n = alg.hecke, alg.weyl.n
    for u in alg.weyl.elements(2):
        if u.exp:
            continue
        for m in range(n):
            e_m_u = H.mul(H.idempotent(m), H.tau(u))
            for c in (1, 2, p - 1):
                row = alg._operand(alg.embed(e_m_u.scale(c)))
                assert row == {(m, 0, None, u.word): c}, (u, m, c)
            shifted = H.mul(e_m_u, H.tau(alg.weyl.omega(1)))  # a whole orbit too
            assert len(shifted.coeffs) == n
            got = alg._operand(alg.embed(shifted))
            assert list(map(len, got)) == [4] and alg._expand(got) == alg.embed(shifted).coeffs


def public_operands(alg: ExtAlgebra) -> list[GradedElement]:
    """Graded operands that hold whole torus orbits (and some that do not)."""
    n = alg.weyl.n
    out = []
    for m in range(n):
        out.append(parse_element(alg, f"3*e({m})"))
        out.append(parse_element(alg, f"e({m}) + bm(w(1; s0))"))
        out.append(parse_element(alg, f"e({m}) + 2*e({(m + 3) % n})"))
        out.append(expanded(alg, {(m, 1, 0, (S1,)): 2, (m, 2, -1, (S0, S1)): 1}))
    return out


def hecke_operands(alg: ExtAlgebra) -> list:
    """Hecke operands e_m tau_u, alone and beside a plain term, on either side."""
    H, W = alg.hecke, alg.weyl
    out = []
    for m in range(W.n):
        for word in ((), (S0,), (S1, S0)):
            e_m_u = H.mul(H.idempotent(m), H.tau(W.element(0, word)))
            out += [e_m_u, H.mul(H.tau(W.element(2, (S1,))), e_m_u) + H.tau(W.element(1, (S0,)))]
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_public_calls_on_whole_orbits_equal_the_term_by_term_computation(p):
    alg, oracle = ExtAlgebra(p), ExtAlgebra(p)
    operands, plain = public_operands(alg), public_operands(oracle)
    assert all(any(len(k) == 4 for k in alg._compress(x.coeffs)) for x in operands[::4])
    others = [s for s in alg.basis_symbols(2) if s.support.exp in (0, 1)]
    for x, ox in zip(operands, plain):
        xs = ox.coeffs
        for s in others:
            y = {s: 2}
            assert multiply(x, GradedElement(alg, y)).coeffs == oracle._expand(_multiply(oracle, xs, y)), (x, s)
            assert multiply(GradedElement(alg, y), x).coeffs == oracle._expand(_multiply(oracle, y, xs)), (s, x)
        assert multiply(x, x).coeffs == oracle._expand(_multiply(oracle, xs, xs)), x
        assert alg.involution(x).coeffs == oracle._expand(oracle._involution(xs)), x
        assert alg.uniformizer_conj(x).coeffs == oracle._expand(oracle._uniformizer_conj(xs)), x
        for m in range(alg.weyl.n):
            out: dict = {}
            oracle._project(out, m, xs, 1)
            assert alg.idempotent_times(m, x).coeffs == oracle._expand(out), (m, x)
    hs, ohs = hecke_operands(alg), hecke_operands(oracle)
    assert all(list(map(len, alg._operand(alg.embed(h)))) == [4] for h in hs[::2])
    for h, oh in zip(hs, ohs):
        for x, ox in zip(operands[:8] + [alg.symbol_element(s) for s in others], plain[:8] + [
                oracle.symbol_element(s) for s in others]):
            hs = {BasisSymbol(0, None, w): c for w, c in oh.coeffs.items()}
            assert alg.act_left(h, x).coeffs == oracle._expand(_multiply(oracle, hs, ox.coeffs)), (h, x)
            assert alg.act_right(x, h).coeffs == oracle._expand(_multiply(oracle, ox.coeffs, hs)), (x, h)


SCALING_PRODUCTS = [
    ("b0(w(790; s1 s0 s1))", "ap(w(575; s1))"),  # a junction product that is 0
    ("tau(w(109; s1 s0 s1))", "bp(w(152; s1))"),
    ("bm(w(179; s0 s1 s0))", "b0(w(285; s0))"),
    ("617*e(402)", "5*am(w(311; s1 s0 s1))"),  # e(m) products, one pair each
    ("3*bp(w(77; s0 s1))", "12*e(901)"),
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


@pytest.mark.parametrize("x", ["bm(w(179; s0 s1 s0))", "a0(w(285; s1 s0))", "3*e(17)"])
def test_memo_growth_of_an_idempotent_right_action_does_not_depend_on_p(x):
    sizes = []
    for p in (101, 1009):
        alg = ExtAlgebra(p)
        H, W = alg.hecke, alg.weyl
        y = parse_element(alg, x)
        e_m = H.idempotent(5)
        alg.act_right(y, e_m)
        alg.act_right(y, H.mul(e_m, H.tau(W.element(0, (S0, S1)))))
        sizes.append((len(alg._letter_cache), len(alg._j_cache)))
    assert sizes[0] == sizes[1]
