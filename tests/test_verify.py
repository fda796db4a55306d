"""Tests of the verification suites themselves: what they report on failure."""

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
