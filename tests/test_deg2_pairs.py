"""Route (4) of the product: a bad degree-2 x degree-1 pair, with no
recursion along the support.

A signed alpha whose word starts with the matching letter (alpha^- at s0,
alpha^+ at s1) is zero against its bad generator; every other alpha reads
its single-tensor section row q = c x y and gives c x (y g).  The route it
replaced stays in deg2_oracle.py: patched in on a fresh algebra, it must
give every (2,1) and (1,2) product of basis symbols the engine gives, and
on long supports it must agree up to its recursion limit.
"""

from __future__ import annotations

import pytest

from heckext import ExtAlgebra, graded, product, verify
from heckext.graded import BasisSymbol
from heckext.product import _cup_symbols, _multiply, _pair, _section2_symbol, multiply
from heckext.weyl import S0, S1

import deg2_oracle


def _products(alg: ExtAlgebra, pairs) -> list:
    return [multiply(alg.symbol_element(a), alg.symbol_element(b)).coeffs for a, b in pairs]


def _mixed_pairs(alg: ExtAlgebra, max_length: int) -> list:
    deg1 = list(alg.basis_symbols(max_length, degrees=(1,)))
    deg2 = list(alg.basis_symbols(max_length, degrees=(2,)))
    return [pair for q in deg2 for b in deg1 for pair in ((q, b), (b, q))]


def _oracle_products(monkeypatch, p: int, pairs) -> list:
    with monkeypatch.context() as m:
        m.setattr(product, "_deg2_times_generator", deg2_oracle._deg2_times_generator)
        return _products(ExtAlgebra(p), pairs)


@pytest.mark.parametrize("p, max_length, count", [(5, 3, 12800), (7, 2, 14112)])
def test_every_mixed_product_equals_the_old_route(monkeypatch, p, max_length, count):
    alg = ExtAlgebra(p)
    pairs = _mixed_pairs(alg, max_length)
    assert len(pairs) == count
    for pair, got, want in zip(pairs, _products(alg, pairs), _oracle_products(monkeypatch, p, pairs)):
        assert got == want, pair


def _long_pairs(alg: ExtAlgebra, n: int) -> list:
    """alpha at an alternating word of n letters, either first letter, torus
    exponent 0 or 1, against each beta at a length-1 support, on both sides."""
    W = alg.weyl
    pairs = []
    for start in (S0, S1):
        word = tuple((start + k) % 2 for k in range(n))
        for exp in (0, 1):
            for sign in (-1, 0, 1):
                q = BasisSymbol(2, sign, W.element(exp, word))
                for letter in (S0, S1):
                    for t in (-1, 0, 1):
                        b = BasisSymbol(1, t, W.element(0, (letter,)))
                        pairs += [(q, b), (b, q)]
    return pairs


def test_long_supports_equal_the_old_route_below_its_recursion_limit(monkeypatch):
    alg = ExtAlgebra(5)
    pairs = _long_pairs(alg, 450)
    got = _products(alg, pairs)
    assert sum(map(bool, got)) == 48
    assert got == _oracle_products(monkeypatch, 5, pairs)


def test_a_600_letter_support_does_not_recurse_along_its_word():
    # the old route peeled alpha^- one letter per call and overflowed the stack here
    alg = ExtAlgebra(5)
    assert sum(map(bool, _products(alg, _long_pairs(alg, 600)))) == 48


def test_the_zero_class_premise():
    """No degree-2 lengths-add rule turns a signed alpha into sign 0, on the
    left (_ADDS_RULES) or on the right (_RIGHT_RULES, their transport through
    J, which _adds_right applies), and a signed alpha cups to zero with
    beta^0: so alpha^+-_1 g is zero for a sign-0 generator g."""
    for (_, d, sign, *_), rule in [*graded._ADDS_RULES.items(), *graded._RIGHT_RULES.items()]:
        if d == 2 and sign:
            assert rule is None or rule[0] != 0, (d, sign, rule)
    alg = ExtAlgebra(5)
    W = alg.weyl
    for w in W.elements(3):
        for sign in (-1, 1):
            at_w = BasisSymbol(2, sign, w)
            if w.length:
                b0 = BasisSymbol(1, 0, w)
                assert _cup_symbols(alg, at_w, b0) == {} == _cup_symbols(alg, b0, at_w), w
            for exp in range(W.n):
                alpha = BasisSymbol(2, sign, W.element(exp, ()))
                assert all(key[1] for key in alg._adds_right(alpha, w)), (alpha, w)


def _route(zero=lambda q, sign: q.sign == sign,
           outer=lambda alg, c, x, yg: _multiply(alg, {x: c}, yg)):
    """Route (4) with its zero-class test or its outer product replaced."""

    def route(alg, q, g):
        if alg.weyl.lengths_add(q.support, g.support):
            return _pair(alg, q, g)
        if zero(q, -1 if q.support.word[0] == S0 else 1):
            return {}
        (((x, y), c),) = _section2_symbol(alg, q).coeffs.items()
        return outer(alg, c, x, _pair(alg, y, g))

    return route


# the checks of verify all at p=5, L=2, 200 samples that fail under each
# mutant of route (4), each with its first counterexample
ROUTE4_MUTANTS = [
    ("coefficient dropped", _route(outer=lambda alg, c, x, yg: _multiply(alg, {x: 1}, yg)), {
        "assoc_total_le3_195_triples": "triple [a0(w(1; s0)), tau(w(3; s0 s1)), bp(w(1; s1 s0))]",
        "uniformizer_conj_multiplicative_125": "(b0(w(3; s1)), a0(w(1; s1 s0)))",
    }),
    ("x on the right", _route(outer=lambda alg, c, x, yg: _multiply(alg, yg, {x: c})), {
        "assoc_total_le3_165_triples": "triple [bm(w(2; s1)), b0(w(2; s1 s0)), b0(w(1; s0))]",
    }),
    ("sign 0 in the zero class", _route(zero=lambda q, sign: q.sign in (0, sign)), {
        "assoc_total_le3_195_triples": "triple [a0(w(1; s0)), tau(w(3; s0 s1)), bp(w(1; s1 s0))]",
    }),
]


def _failed(alg: ExtAlgebra) -> dict:
    results = verify.run(alg, max_length=2, samples=200)
    return {r.name: r.counterexample for suite in results.values() for r in suite if not r.ok}


def test_the_unmutated_route_passes_verify_all(monkeypatch):
    monkeypatch.setattr(product, "_deg2_times_generator", _route())
    assert _failed(ExtAlgebra(5)) == {}


@pytest.mark.parametrize("name, route, fails", ROUTE4_MUTANTS, ids=[m[0] for m in ROUTE4_MUTANTS])
def test_a_route4_mutant_fails_verify_all(monkeypatch, name, route, fails):
    monkeypatch.setattr(product, "_deg2_times_generator", route)
    assert _failed(ExtAlgebra(5)) == fails


def test_without_the_zero_class_the_section_rows_recurse(monkeypatch):
    # alpha^- at s0 reads x = beta^0_{s0}, and x (y g) is a bad (1,2) pair again
    monkeypatch.setattr(product, "_deg2_times_generator", _route(zero=lambda q, sign: q.sign != sign))
    with pytest.raises(RecursionError):
        _failed(ExtAlgebra(5))
