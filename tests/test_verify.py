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


@pytest.mark.parametrize("entry", [verify.run_suite, verify.run])
@pytest.mark.parametrize("option", ["samples", "max_length"])
@pytest.mark.parametrize("value", [0, -3])
def test_vacuous_options_are_refused(entry, option, value):
    with pytest.raises(ValueError, match=option):
        entry(ExtAlgebra(5), "e0", **{option: value})
