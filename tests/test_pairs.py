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
algebra whose orbit memo never remembers, so no pair there is derived.
Pair-memo values are symbolic rows (their torus idempotents e_m stay
character keys), so both sides are compared after expansion.
"""

from __future__ import annotations

import hashlib

import pytest

from heckext import ExtAlgebra
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


class _Forgetful(dict):
    """A memo that stores nothing."""

    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize("p", sorted(DIGESTS))
def test_all_pairs_render_to_the_recorded_digest(p):
    alg = ExtAlgebra(p)
    pairs = _pairs(alg)
    count, digest = DIGESTS[p]
    assert len(pairs) == count
    assert _digest(alg, pairs) == digest


def test_twisted_pairs_equal_the_direct_dispatch():
    alg, oracle = ExtAlgebra(5), ExtAlgebra(5)
    oracle._orbit_cache = _Forgetful()
    twisted = [(a, b) for a, b in _pairs(alg) if a.support.exp or b.support.exp]
    assert len(twisted) == 14145
    for a, b in twisted:
        got, expected = _pair(alg, a, b), _pair_uncached(oracle, a, b)
        assert alg._expand(got) == oracle._expand(expected), (a, b)


if __name__ == "__main__":
    for p in sorted(DIGESTS):
        alg = ExtAlgebra(p)
        pairs = _pairs(alg)
        print(f"    {p}: ({len(pairs)}, \"{_digest(alg, pairs)}\"),")
