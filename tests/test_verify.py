"""Tests of the verification suites themselves: what they report on failure
and which options they refuse."""

import itertools

import pytest

from heckext import ExtAlgebra
from heckext import graded, verify
from heckext.coeff import add_into
from heckext.graded import BasisSymbol
from heckext.weyl import S0, S1, WeylElement


def test_duality_beta_alpha_reports_the_first_counterexample(monkeypatch):
    alg = ExtAlgebra(5)
    W = alg.weyl
    # supports are enumerated by word length, then first letter, then exponent
    first, later = W.element(1, (S1,)), W.element(0, (S0, S1))
    real = verify.duality_pairing

    def broken(x, y):
        wrong = any(s.degree == 1 and s.support in (first, later) for s in x.coeffs)
        return (real(x, y) + wrong) % 5

    monkeypatch.setattr(verify, "duality_pairing", broken)
    results = {r.name: r for r in verify.suite_duality(alg, max_length=2, samples=1)}
    check = results["duality_beta_alpha"]
    assert not check.ok
    assert check.counterexample == repr((first, -1, -1))


def test_rightaction_torus_reports_the_first_counterexample(monkeypatch):
    alg = ExtAlgebra(5)
    W, H = alg.weyl, alg.hecke
    w, t = W.element(1, (S0,)), H.tau(W.omega(2))
    real = alg.act_right

    def broken(x, h):
        # wrong on degrees 1 and 2 at the same (w, e): degree 1 comes first
        wrong = h == t and any(s.degree in (1, 2) and s.support == w for s in x.coeffs)
        return real(x, h).scale(2) if wrong else real(x, h)

    monkeypatch.setattr(alg, "act_right", broken)
    results = {r.name: r for r in verify.suite_rightaction(alg, max_length=1)}
    check = results["rightaction_torus_all_degrees"]
    assert not check.ok
    assert check.counterexample == repr((1, -1, w, 2))


def test_e0_quadratic_relation_reports_the_first_letter(monkeypatch):
    alg = ExtAlgebra(5)
    H = alg.hecke
    e1 = H.idempotent(0)
    real = H.mul

    def broken(x, y):
        # tau_s (tau_s + e_1) is nonzero for both letters
        return real(x, y) + x if y == x + e1 else real(x, y)

    monkeypatch.setattr(H, "mul", broken)
    results = {r.name: r for r in verify.suite_e0(alg, max_length=1, samples=1)}
    check = results["e0_quadratic_relation"]
    assert not check.ok
    assert check.counterexample == f"s{S0}"


def test_a_check_with_no_cases_fails():
    result = verify._check("empty_{n}_cases", [], lambda case: None)
    assert (result.name, result.ok, result.counterexample) == ("empty_0_cases", False, "no cases")


def test_the_runner_stops_at_the_first_counterexample_and_counts_it():
    seen = []

    def test(case):
        seen.append(case)
        return case if case >= 3 else None

    result = verify._check("count_{n}", range(10), test)
    assert (result.name, result.ok, result.counterexample) == ("count_4", False, "3")
    assert seen == [0, 1, 2, 3]
    # a string counterexample is reported as it is, anything else by its repr
    assert verify._check("c", ["x"], lambda case: "bad " + case).counterexample == "bad x"
    assert verify._check("c", ["x"], lambda case: (case,)).counterexample == "('x',)"
    passed = verify._check("count_{n}", range(10), lambda case: None)
    assert (passed.name, passed.ok, passed.counterexample) == ("count_10", True, None)


def test_rightaction_lengths_add_reports_the_first_failing_sign(monkeypatch):
    alg = ExtAlgebra(5)
    W, H = alg.weyl, alg.hecke
    # s1 s0 starts with s1, so the signs are checked in the order 0, -1, +1
    w, v = W.element(0, (S1,)), W.element(0, (S0,))
    wrong = (alg.beta(-1, w), alg.beta(1, w))
    real = alg.act_right

    def broken(x, h):
        return real(x, h) + alg.phi(W.identity) if h == H.tau(v) and x in wrong else real(x, h)

    monkeypatch.setattr(alg, "act_right", broken)
    results = verify.suite_rightaction(alg, max_length=2)
    check = next(r for r in results if r.name.startswith("rightaction_deg1_lengths_add_"))
    assert not check.ok
    assert check.counterexample == repr((-1, w, v))


def test_a_failing_check_does_not_shift_the_samples_of_the_next(monkeypatch):
    alg = ExtAlgebra(5)
    real = verify.multiply

    def run(break_first):
        calls = []

        def recorded(x, y):
            calls.append((x, y))
            out = real(x, y)
            return out.scale(2) if break_first and len(calls) == 1 else out

        monkeypatch.setattr(verify, "multiply", recorded)
        low, high, deg4 = verify.suite_assoc(alg, max_length=2, samples=20)
        assert low.name.startswith("assoc_total_le3_")
        return low, (high, deg4), calls

    clean_low, clean_rest, clean_calls = run(False)
    broken_low, broken_rest, broken_calls = run(True)
    assert clean_low.ok and not broken_low.ok
    # each of the 40 degree <= 3 triples multiplies four times, and the
    # broken run stops after the first: the later checks see the same cases
    assert len(clean_calls) - len(broken_calls) == 4 * 39
    assert broken_calls[4:] == clean_calls[4 * 40:]
    assert clean_rest == broken_rest


@pytest.mark.parametrize("entry", [verify.run_suite, verify.run])
@pytest.mark.parametrize("option", ["samples", "max_length"])
@pytest.mark.parametrize("value", [0, -3])
def test_vacuous_options_are_refused(entry, option, value):
    with pytest.raises(ValueError, match=option):
        entry(ExtAlgebra(5), "e0", **{option: value})


# --- the two restated checks against their direct forms ---
#
# rightaction_idempotent_slide and e0_idempotent_system compute each torus
# product once.  The functions below are the direct forms those checks
# replaced, kept literally as oracles: the slide applies the whole e_m for
# every (symbol, m), and the idempotent system multiplies every pair e_a e_b.
# On failure e0_idempotent_system reruns its own direct form, which names the
# first wrong product where the eigen law may name an earlier case.


def direct_slide_cases(alg, max_length):
    W = alg.weyl
    return [
        BasisSymbol(d, sign, w)
        for w in W.elements(max_length)
        if w.length <= min(6, max_length)
        for d in (1, 2)
        for sign in ((-1, 1) if w.length == 0 else (-1, 0, 1))
    ]


def direct_slide(alg):
    idempotents = alg.hecke.idempotents()

    def slide(sym):
        weight = alg._torus_weight(sym)
        for m, idem in enumerate(idempotents):
            lhs = alg._expand(alg._act_right({sym: 1}, idem.coeffs))
            mprime = (m if sym.support.length % 2 == 0 else -m) + weight
            rhs = alg.idempotent_times(mprime, alg.symbol_element(sym))
            if lhs != rhs.coeffs:
                return (sym, m)

    return slide


def direct_system_cases(alg):
    return [*itertools.product(range(alg.weyl.n), repeat=2), "sum"]


def direct_system(alg):
    H = alg.hecke
    idems = H.idempotents()

    def idempotent_system(case):
        if case == "sum":
            return None if sum(idems, H.zero()) == H.one() else "sum is not 1"
        a, b = case
        return None if H.mul(idems[a], idems[b]) == (idems[a] if a == b else H.zero()) else case

    return idempotent_system


def direct_results(alg, max_length):
    """The direct forms' report of the two checks, name -> (ok, counterexample)."""
    checks = [
        verify._check("rightaction_idempotent_slide",
                      direct_slide_cases(alg, max_length), direct_slide(alg)),
        verify._check("e0_idempotent_system", direct_system_cases(alg), direct_system(alg)),
    ]
    return {r.name: (r.ok, r.counterexample) for r in checks}


def restated_results(alg, max_length):
    results = [
        *verify.suite_rightaction(alg, max_length=max_length),
        *verify.suite_e0(alg, max_length=max_length, samples=1),
    ]
    return {r.name: (r.ok, r.counterexample) for r in results}


@pytest.mark.parametrize("p", [5, 7, 13])
def test_restated_checks_agree_with_the_direct_forms_case_by_case(p):
    alg = ExtAlgebra(p)
    slide_cases, slide = verify._idempotent_slide(alg, 8)
    system_cases, restated, direct = verify._idempotent_system(alg)
    for cases, oracle_cases, oracle, tests in (
        (slide_cases, direct_slide_cases(alg, 8), direct_slide(alg), [slide]),
        (system_cases, direct_system_cases(alg), direct_system(alg), [restated, direct]),
    ):
        assert cases == oracle_cases
        expected = [oracle(case) for case in cases]
        assert expected == [None] * len(cases)
        for test in tests:
            assert [test(case) for case in cases] == expected


def _wrong_inverse(H):
    """HeckeAlgebra.idempotent with lambda(t) where lambda(t)^-1 belongs."""
    p, n, powers = H.field.p, H.weyl.n, H.field.root_powers()
    return lambda m: H.element({t: p - powers[m * e % n] for e, t in enumerate(H.weyl.torus())})


def _slide_slip(alg):
    """_slide with m' = m + k at odd length too."""
    return lambda sym, m: (m + alg._torus_weight(sym)) % alg.weyl.n


def _right_scalar_dropped(H):
    """HeckeAlgebra.mul reading every term of the right factor with scalar 1."""
    real = H.mul
    return lambda a, b: sum((real(a, H.tau(w)) for w in b.coeffs), H.zero())


def _torus_rule_slipped(H):
    """HeckeAlgebra.mul with tau_t tau_t' = tau_(t t'^-1): past a word of even
    length the torus exponent of the right factor enters negated."""
    real, W = H.mul, H.weyl

    def mul(a, b):
        flipped = H.element({WeylElement(W, -w.exp % W.n, w.word): c for w, c in b.coeffs.items()})
        return sum((real(H.element({w: c}), b if len(w.word) % 2 else flipped)
                    for w, c in a.coeffs.items()), H.zero())

    return mul


def _act_right_scalar_dropped(alg):
    """ExtAlgebra._act_right reading every term of h with scalar 1."""
    real, p = alg._act_right, alg.field.p

    def act(row, h):
        total = {}
        for w in h:
            add_into(total, real(row, {w: 1}).items(), 1, p)
        return total

    return act


@pytest.mark.parametrize("mutant, owner, attr, slide, system", [
    (_wrong_inverse, "hecke", "idempotent", "(bm(w(0;)), 1)", None),
    (_slide_slip, "alg", "_slide", None, None),
    (_right_scalar_dropped, "hecke", "mul", None, "(0, 0)"),
    (_torus_rule_slipped, "hecke", "mul", None, "(1, 1)"),
    (_act_right_scalar_dropped, "alg", "_act_right", "(bm(w(0;)), 0)", None),
])
def test_a_restated_check_reports_what_its_direct_form_reports(
    monkeypatch, mutant, owner, attr, slide, system
):
    alg = ExtAlgebra(5)
    target = alg.hecke if owner == "hecke" else alg
    monkeypatch.setattr(target, attr, mutant(target))
    got = restated_results(alg, 2)
    expected = direct_results(alg, 2)
    for name, counterexample in (("rightaction_idempotent_slide", slide),
                                 ("e0_idempotent_system", system)):
        assert got[name] == expected[name] == (counterexample is None, counterexample)


def test_the_eigen_law_can_fail_before_the_first_wrong_product(monkeypatch):
    """With the torus rule slipped, the restated test of e0_idempotent_system
    fails (1, 0), where e_1 e_0 = 0 still holds; the check reports the direct
    form's (1, 1), as the mutant test above asserts."""
    alg = ExtAlgebra(5)
    monkeypatch.setattr(alg.hecke, "mul", _torus_rule_slipped(alg.hecke))
    cases, restated, direct = verify._idempotent_system(alg)
    assert verify._check("e0_idempotent_system", cases, restated).counterexample == "(1, 0)"
    assert direct((1, 0)) is None


# Entries of the s0 letter table, each with a wrong value: (row key, entry
# group, entry, mutant).  The s1 half is derived from this table through the
# uniformizer conjugation, so a wrong s0 entry shows in both halves, and
# uniformizer_conj_multiplicative is no longer bound to see it.
S0_ROW_MUTANTS = [
    # -2 e_1 beta^0_w in tau_{s0} beta^-_w where the word shortens
    ((1, -1, False), 0, (1, 0, -2), (1, 0, -1)),
    # e_2 alpha^-_w in tau_{s0} alpha^+_w where the word shortens, at l(w) = 1
    ((2, 1, False), 1, (2, -1, 1), (3, -1, 1)),
]


@pytest.mark.parametrize("key, group, entry, mutant", S0_ROW_MUTANTS)
def test_a_wrong_s0_table_entry_fails_the_relators(monkeypatch, key, group, entry, mutant):
    row = list(graded._S0_ROWS[key])
    assert entry in row[group]
    row[group] = tuple(mutant if e == entry else e for e in row[group])
    s0_rows = {**graded._S0_ROWS, key: tuple(row)}
    # the s1 table is derived from the mutated s0 table, as at import
    monkeypatch.setattr(graded, "_LETTER_ROWS", graded._letter_rows(s0_rows))
    results = verify.run_suite(ExtAlgebra(5), "relators", max_length=2)
    assert any(not r.ok for r in results)
