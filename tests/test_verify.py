"""Tests of the verification suites themselves: what they report on failure
and which options they refuse."""

import pytest

from heckext import ExtAlgebra
from heckext import verify
from heckext.weyl import S0, S1


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
