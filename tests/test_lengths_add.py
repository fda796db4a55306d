"""The closed form of the degree-0 actions where lengths add.

A pair whose support lengths add reads tau_u sym from the lengths-add rows
of the letter table (_adds_left) and sym tau_v as its transport through J
(_adds_right).  It must agree on every symbol with the letter walk that
tests/walk_oracle.py keeps, which reads the letter memo one letter at a
time, and with the chains of table rows of the engine's _act_left and
_act_right; a product of such pairs must leave the letter memo empty.
"""

from __future__ import annotations

import pytest

from heckext import ExtAlgebra, graded, verify
from heckext.graded import BasisSymbol
from heckext.product import multiply
from heckext.weyl import S0

from walk_oracle import WalkAlgebra


@pytest.mark.parametrize("p", [5, 7, 13])
def test_the_closed_form_is_the_letter_walk(p):
    """Every symbol with support of length <= 4 against every u of length
    <= 4 whose length adds to it, at every torus exponent, on both sides."""
    alg, oracle = ExtAlgebra(p), WalkAlgebra(p)
    W = alg.weyl
    words = W.elements(4)
    for sym in alg.basis_symbols(4):
        w = sym.support
        for u in words:
            if W.lengths_add(u, w):
                walked = oracle._act_left({u: 1}, {sym: 1})
                assert alg._adds_left(u, sym) == walked == alg._act_left({u: 1}, {sym: 1}), (u, sym)
            if W.lengths_add(w, u):
                walked = oracle._act_right({sym: 1}, {u: 1})
                assert alg._adds_right(sym, u) == walked == alg._act_right({sym: 1}, {u: 1}), (sym, u)


def test_a_good_pair_at_p1009_reads_no_letter_memo():
    """bm(w(3; s0 s1)) * b0(w(5; s0)): lengths add, so neither side walks a
    letter on a fresh algebra."""
    alg = ExtAlgebra(1009)
    W = alg.weyl
    x = alg.beta(-1, W.element(3, (S0, 1 - S0)))
    y = alg.beta(0, W.element(5, (S0,)))
    assert not multiply(x, y).is_zero
    assert alg._letter_cache == {}


@pytest.mark.parametrize("short, longer", [
    # a character-key entry, at every length
    ((((2, 1, 1),), ((1, -1),)),) * 2,
    # two plain entries, at every length
    (((), ((1, -1), (0, -1))),) * 2,
    # an entry only at length 1
    (((), ((1, -1),)), ((), ())),
])
def test_a_lengths_add_row_that_is_not_one_plain_term_is_refused(short, longer):
    rows = {**graded._LETTER_ROWS, (S0, 1, -1, True, True): short,
            (S0, 1, -1, True, False): longer}
    with pytest.raises(ValueError, match="lengths-add row"):
        graded._adds_rules(rows)


# the checks of verify all at p=5, L=2 that fail with the sign-0 rule of s0
# flipped where lengths add (tau_{s0} beta^0_w = +beta^0_{s0 w}), each with
# its first counterexample; a shortening chain reads the rule too, for the
# rest of its word after a character key
FLIPPED_SIGN_0_FAILS = {
    "assoc_total_le3_208_triples":
        "triple [tau(w(1; s0 s1)), bp(w(3; s0)), tau(w(2; s0 s1))]",
    "duality_twisted_module_law_64":
        "('right', 1*tau(w(0; s0 s1 s0)) + 4*tau(w(1; s0 s1 s0)), "
        "bm(w(0; s1 s0 s1 s0)), a0(w(1; s1 s0 s1 s0)))",
    "involution_graded_antihom_427": "(bm(w(3; s1)), bm(w(1; s1 s0)))",
    "presentation_round_trip_123_symbols": "b0(w(0; s1 s0))",
    "relator_bimodule_07": "evaluates to 2*b0(w(0; s0 s1))",
    "relator_bimodule_08": "evaluates to -2*b0(w(0; s1 s0))",
    "rightaction_deg1_lengths_add_81_pairs": "(0, w(0; s1), w(0; s0))",
    "rightaction_deg1_shortening": "(1, w(0; s1 s0))",
    "sections_deg2_identity_47_symbols": "fails at ap(w(0; s1 s0))",
    "uniformizer_conj_multiplicative_3": "(b0(w(2; s0)), am(w(1; s0 s1)))",
}


def test_a_flipped_lengths_add_rule_fails_verify_all(monkeypatch):
    rules = dict(graded._ADDS_RULES)
    assert rules[S0, 1, 0] == (0, -1)
    rules[S0, 1, 0] = (0, 1)
    monkeypatch.setattr(graded, "_ADDS_RULES", rules)
    results = verify.run(ExtAlgebra(5), max_length=2)
    failed = {r.name: r.counterexample for suite in results.values() for r in suite if not r.ok}
    assert failed == FLIPPED_SIGN_0_FAILS
