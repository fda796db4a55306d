"""Every product of two basis symbols of total degree <= 3 and support length <= 2.

At p=5 that is 15,088 pairs, at p=7 33,948 and at p=13 135,792.  One
SHA-256 digest of their canonical renders is pinned per prime.  The p=5
and p=7 digests were recorded with the engine that computed every pair
through the dispatch, before the orbit memo derived pairs from their torus
orbit; the p=13 digest with the engine that still printed the s1 half of
its formulas, before that half was derived through the uniformizer
conjugation.  So the digests pin every derived half independently of the
derivation.  Re-record them only for an intended change of output:

    PYTHONPATH=src python3 tests/test_pairs.py

The oracle test checks the torus law pair by pair: each pair with a
nonzero torus exponent is recomputed through the dispatch on a second
algebra that computes every miss through the dispatch, so no pair there is
derived.  Pair-memo values are symbolic rows (their torus idempotents e_m
stay character keys), so both sides are compared after expansion.
"""

from __future__ import annotations

import hashlib
from types import MappingProxyType

import pytest

from heckext import ExtAlgebra, product
from heckext.grammar import render_element
from heckext.graded import GradedElement
from heckext.product import _pair, _pair_uncached

MAX_LENGTH = 2
DIGESTS = {
    5: (15088, "b096a659f43d8b426c39f08e63b26a829b53df22dd87c104dbd3b296102bc973"),
    7: (33948, "2b1418caa8d66dee40fbfda8c030174f8b5c9ee4a79674791dc5e12d40ca9255"),
    13: (135792, "6415d7550677764b0c406bc8111a29306950654e265f26712a441ab86b31b008"),
}


def _pairs(alg: ExtAlgebra):
    symbols = list(alg.basis_symbols(MAX_LENGTH))
    return [(a, b) for a in symbols for b in symbols if a.degree + b.degree <= 3]


def _digest(alg: ExtAlgebra, pairs) -> str:
    h = hashlib.sha256()
    for a, b in pairs:
        out = render_element(GradedElement(alg, alg._expand(_pair(alg, a, b))))
        h.update(f"{a!r} * {b!r} = {out}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("p", sorted(DIGESTS))
def test_all_pairs_render_to_the_recorded_digest(p):
    alg = ExtAlgebra(p)
    pairs = _pairs(alg)
    count, digest = DIGESTS[p]
    assert len(pairs) == count
    assert _digest(alg, pairs) == digest


@pytest.mark.parametrize("p", [5, 7])
def test_twisted_pairs_equal_the_direct_dispatch(monkeypatch, p):
    # at p=5 u0^2 = u0^-2, so only p=7 sees the sign of the pair law's scalar
    alg, oracle = ExtAlgebra(p), ExtAlgebra(p)

    def pair(on, a, b):
        # the oracle computes and stores every miss through the dispatch
        if on is not oracle:
            return _pair(on, a, b)
        if (a, b) not in oracle._pair_cache:
            oracle._pair_cache[a, b] = MappingProxyType(_pair_uncached(oracle, a, b))
        return oracle._pair_cache[a, b]

    monkeypatch.setattr(product, "_pair", pair)
    twisted = [(a, b) for a, b in _pairs(alg) if a.support.exp or b.support.exp]
    assert len(twisted) == {5: 14145, 7: 33005}[p]
    for a, b in twisted:
        got, expected = _pair(alg, a, b), _pair_uncached(oracle, a, b)
        assert alg._expand(got) == oracle._expand(expected), (a, b)
    # the dispatch's own pair reads on the oracle went through the oracle
    assert oracle._pair_cache


@pytest.mark.parametrize("p, shared", [(5, 15100), (7, 33960)])
def test_no_pair_value_depends_on_the_request_order_under_a_fault(monkeypatch, p, shared):
    """Each pair value is one function of its pair even when the torus shift
    is wrong (here twice its scalar at every nonzero exponent): the pairs
    requested in two orders, each on a fresh algebra, expand equally.  When a
    twisted meeting pair was derived from whichever pair of its torus orbit
    was computed first, 2,088 of the 15,100 values differed at p=5 and 5,988
    of the 33,960 at p=7."""
    shift = ExtAlgebra._shift_left
    monkeypatch.setattr(ExtAlgebra, "_shift_left",
                        lambda alg, coeffs, a, scale=1: shift(alg, coeffs, a, 2 * scale if a else scale))
    forward, backward = ExtAlgebra(p), ExtAlgebra(p)
    pairs = _pairs(forward)
    for a, b in pairs:
        _pair(forward, a, b)
    for a, b in reversed(pairs):
        _pair(backward, a, b)
    keys = forward._pair_cache.keys() & backward._pair_cache.keys()
    assert len(keys) == shared
    differ = [key for key in keys
              if forward._expand(forward._pair_cache[key]) != backward._expand(backward._pair_cache[key])]
    assert differ == []


if __name__ == "__main__":
    for p in sorted(DIGESTS):
        alg = ExtAlgebra(p)
        pairs = _pairs(alg)
        print(f"    {p}: ({len(pairs)}, \"{_digest(alg, pairs)}\"),")
