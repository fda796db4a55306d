"""The closed form of the degree-0 actions where lengths add.

A pair whose support lengths add reads tau_u sym from the lengths-add
rules (_ADDS_RULES, made from the s0 rules _S0_ADDS) and sym tau_v from
their transport through J, made once at import (_RIGHT_RULES, which looks
nothing up in J).
Each table is composed at import into one rule per (letter, l(u) mod 2)
(_ADDS_LEFT, read by _adds_left, and _ADDS_RIGHT, read by _adds_right).
Both closed forms must agree on every symbol with the letter walk that
tests/walk_oracle.py keeps, which reads the letter memo one letter at a
time and transports each right letter through J, with the loops over one
or two rules they replaced (the two-step oracles there), and with the
engine's kernels _act_left and _act_right, which a pair miss of a degree-0
factor runs; a product of such pairs must leave the letter memo empty.
Both tables must keep period 2, and a wrong entry of either fails verify
all.
"""

from __future__ import annotations

import pytest

from heckext import ExtAlgebra, graded, verify
from heckext.graded import BasisSymbol
from heckext.product import multiply
from heckext.weyl import S0, S1, _alternating_word, _weyl

from walk_oracle import WalkAlgebra, two_step_left, two_step_right


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
                walked = oracle._act_left(u, sym)
                assert alg._adds_left(u, sym) == walked == alg._act_left(u, sym), (u, sym)
            if W.lengths_add(w, u):
                walked = oracle._act_right(sym, u)
                assert alg._adds_right(sym, u) == walked == alg._act_right(sym, u), (sym, u)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_the_closed_forms_are_the_two_step_rules(p):
    """Every symbol with support of length <= 6 against every u of length
    <= 6 whose length adds to it, on both sides: one composed rule gives
    what one or two rules, applied one at a time, gave."""
    alg = ExtAlgebra(p)
    W = alg.weyl
    words = W.elements(6)
    for sym in alg.basis_symbols(6):
        w = sym.support
        for u in words:
            if W.lengths_add(u, w):
                assert alg._adds_left(u, sym) == two_step_left(alg, u, sym), (u, sym)
            if W.lengths_add(w, u):
                assert alg._adds_right(sym, u) == two_step_right(alg, sym, u), (sym, u)


def test_a_good_pair_at_p1009_reads_no_letter_memo():
    """bm(w(3; s0 s1)) * b0(w(5; s0)): lengths add, so neither side walks a
    letter on a fresh algebra."""
    alg = ExtAlgebra(1009)
    W = alg.weyl
    x = alg.beta(-1, W.element(3, (S0, 1 - S0)))
    y = alg.beta(0, W.element(5, (S0,)))
    assert not multiply(x, y).is_zero
    assert alg._letter_cache == {}


def walked_adds_left(alg, u, sym):
    """tau_u sym where lengths add, the rules of _ADDS_RULES applied one
    letter at a time from the right, then the torus prefix of u."""
    d, sign, (f, w) = sym
    exp, word = u
    c = 1
    for letter in reversed(word):
        rule = graded._ADDS_RULES[letter, d, sign]
        if rule is None:
            return {}
        sign, unit = rule
        c *= unit
    support = alg.weyl.mul(_weyl((0, word)), _weyl((f, w)))
    return alg._shift_left({BasisSymbol(d, sign, support): c % alg.field.p}, exp)


@pytest.mark.parametrize("p", [5, 7])
def test_the_two_step_rules_are_the_letter_by_letter_walk(p):
    """Every (d, sign), u of either first letter and every length 0-12 at
    two exponents, on supports of length <= 2 that u adds to."""
    alg = ExtAlgebra(p)
    W = alg.weyl
    us = [_weyl((e, _alternating_word(first, length)))
          for length in range(13) for first in (S0, S1) for e in (0, 1)]
    for sym in alg.basis_symbols(2):
        for u in us:
            if W.lengths_add(u, sym.support):
                assert alg._adds_left(u, sym) == walked_adds_left(alg, u, sym), (u, sym)


def test_a_lengths_add_table_without_period_2_is_refused():
    """tau_{s0} beta^0_w = 2 beta^0_{s0 w} where lengths add, and so, through
    iota, tau_{s1} too: two letters give 4 beta^0_w, not beta^0_w.  (Flipping
    the sign of that rule keeps period 2, as iota flips the s1 rule with it.)"""
    with pytest.raises(ValueError, match="lengths-add rules .* period 2"):
        graded._adds_rules({**graded._S0_ADDS, (1, 0): (0, 2)})


def test_a_right_table_without_period_2_is_refused():
    """The transport of a left table without period 2 (tau_{s0} beta^0_w =
    +beta^0_{s0 w}) loses it too: beta^0_w tau_{s0} tau_{s1} is -beta^0_w s0 s1."""
    rules = {**graded._ADDS_RULES, (S0, 1, 0): (0, 1)}
    with pytest.raises(ValueError, match="right rules .* period 2"):
        graded._right_rules(rules)


# the checks of verify all at p=5, L=2 that fail with the sign-0 rule of s0
# flipped where lengths add (tau_{s0} beta^0_w = +beta^0_{s0 w}), each with
# its first counterexample; a shortening chain reads the rule too, for the
# rest of its word after a character key
FLIPPED_SIGN_0_FAILS = {
    "assoc_total_le3_65_triples":
        "triple [tau(w(3; s1 s0)), tau(w(1; s1)), b0(w(1; s0))]",
    "duality_twisted_module_law_64":
        "('right', 1*tau(w(0; s0 s1 s0)) + 4*tau(w(1; s0 s1 s0)), "
        "bm(w(0; s1 s0 s1 s0)), a0(w(1; s1 s0 s1 s0)))",
    "involution_graded_antihom_427": "(bm(w(3; s1)), bm(w(1; s1 s0)))",
    "presentation_round_trip_123_symbols": "b0(w(0; s1 s0))",
    "presentation_evaluate_multiplicative_23": "((2, 1, 3, 1), (5,))",
    "relator_bimodule_07": "evaluates to 2*b0(w(0; s0 s1))",
    "relator_bimodule_08": "evaluates to -2*b0(w(0; s1 s0))",
    "rightaction_deg1_lengths_add_81_pairs": "(0, w(0; s1), w(0; s0))",
    "rightaction_deg1_shortening": "(1, w(0; s1 s0))",
    "sections_deg2_identity_47_symbols": "fails at ap(w(0; s1 s0))",
    "uniformizer_conj_multiplicative_3": "(b0(w(2; s0)), am(w(1; s0 s1)))",
}


def failures_of_verify_all():
    results = verify.run(ExtAlgebra(5), max_length=2)
    return {r.name: r.counterexample for suite in results.values() for r in suite if not r.ok}


def install_rules(monkeypatch, left, right):
    """Patch in the left and right rule tables with the closed forms
    composed from them, as at import."""
    for name, rules, closed in (("_ADDS_RULES", left, "_ADDS_LEFT"),
                                ("_RIGHT_RULES", right, "_ADDS_RIGHT")):
        monkeypatch.setattr(graded, name, rules)
        monkeypatch.setattr(graded, closed, graded._closed_forms(rules))


def test_a_flipped_lengths_add_rule_fails_verify_all(monkeypatch):
    """The flipped table has lost period 2, which _adds_rules and
    _right_rules refuse: the mutant is patched in past that check, and the
    right rules are its transport, as at import."""
    rules = dict(graded._ADDS_RULES)
    assert rules[S0, 1, 0] == (0, -1)
    rules[S0, 1, 0] = (0, 1)
    with monkeypatch.context() as m:
        m.setattr(graded, "_period_2", lambda rules, name: rules)
        right = graded._right_rules(rules)
    install_rules(monkeypatch, rules, right)
    assert failures_of_verify_all() == FLIPPED_SIGN_0_FAILS


@pytest.mark.parametrize("key", list(graded._S0_ADDS))
def test_a_flipped_s0_rule_fails_verify_all(monkeypatch, key):
    """A sign flipped in the printed table _S0_ADDS flips the s1 rule with
    it, through iota, so the table keeps period 2 and is built as at
    import; verify all still fails it."""
    sign, c = graded._S0_ADDS[key]
    rules = graded._adds_rules({**graded._S0_ADDS, key: (sign, -c)})
    install_rules(monkeypatch, rules, graded._right_rules(rules))
    assert failures_of_verify_all()


# the checks of verify all at p=5, L=2 that fail with one right rule flipped
# alone, beta^0_w tau_{s0} = -beta^0_{w s0} at l(w) even, each with its first
# counterexample.  At L=2 that rule meets no case of
# rightaction_deg1_lengths_add, the check that restates the closed form: the
# products read it through their pair misses (route (1) and the good pairs).
FLIPPED_RIGHT_RULE_FAILS = {
    "assoc_total_le3_235_triples":
        "triple [tau(w(3; s0 s1)), bp(w(2; s1 s0)), tau(w(2; s1 s0))]",
    "involution_graded_antihom_355": "(b0(w(0; s0)), bm(w(3; s1 s0)))",
    "uniformizer_conj_multiplicative_284": "(b0(w(0; s1)), tau(w(1; s0 s1)))",
}


def test_a_flipped_right_rule_fails_verify_all(monkeypatch):
    right = dict(graded._RIGHT_RULES)
    assert right[S0, 1, 0, 0] == (0, 1)
    right[S0, 1, 0, 0] = (0, -1)
    install_rules(monkeypatch, graded._ADDS_RULES, right)
    assert failures_of_verify_all() == FLIPPED_RIGHT_RULE_FAILS
