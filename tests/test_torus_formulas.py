"""The degree-1 factorization reads its coefficient from the lengths-add
closed form, and one orbit vector (coeff._orbit) gives the coefficients of
every torus idempotent.  Each is compared with its earlier printed form,
kept in torus_oracle.py."""

import pytest

from heckext import ExtAlgebra
from heckext import presentation as pres
from heckext.coeff import PrimeField
from heckext.weyl import WeylGroup

import torus_oracle


@pytest.mark.parametrize("p, root", [(5, None), (7, None), (13, None), (7, 5), (13, 11)])
def test_the_factorization_is_the_printed_one(p, root):
    alg = ExtAlgebra(p, root)
    symbols = list(alg.basis_symbols(6, degrees=(1,)))
    assert len(symbols) == (3 * 12 + 2) * (p - 1)
    for sym in symbols:
        want = torus_oracle.factor_through_generators(alg, sym)
        assert alg.factor_through_generators(sym) == want, sym


def test_the_factorization_makes_no_iota_call_and_no_power_of_u0(monkeypatch):
    alg = ExtAlgebra(13)
    symbols = list(alg.basis_symbols(4, degrees=(1,)))
    want = [torus_oracle.factor_through_generators(alg, sym) for sym in symbols]

    def refused(*args):
        raise AssertionError("called")

    monkeypatch.setattr(alg, "_symbol_uniformizer_conj", refused)
    monkeypatch.setattr(WeylGroup, "uniformizer_conj", refused)
    monkeypatch.setattr(PrimeField, "root_pow", refused)
    assert [alg.factor_through_generators(sym) for sym in symbols] == want


@pytest.mark.parametrize("p", [5, 13, 1009])
def test_the_hecke_idempotents_are_the_printed_ones(p):
    H = ExtAlgebra(p).hecke
    for m in range(-2, p + 1):
        got = H.idempotent(m)
        assert got == torus_oracle.hecke_idempotent(H, m), m
        assert list(got.coeffs) == list(H.weyl.torus())


# Every m at p=1009 takes about 40 s: each of the 1,008 words of a free
# idempotent is a tuple hashed at its length.  Both forms read -m mod p - 1
# only, and the Hecke test above runs every m at p=1009.
@pytest.mark.parametrize("p, indices", [
    (5, range(-2, 6)), (13, range(-2, 14)), (1009, (-2, -1, 0, 1, 2, 504, 1007, 1008, 1009)),
])
@pytest.mark.parametrize("bound", ["p-2", "p-1"])
def test_the_free_idempotents_are_the_printed_ones(p, indices, bound):
    alg = ExtAlgebra(p)
    for m in indices:
        assert pres.free_idempotent(alg, m, bound).expand() == torus_oracle.free_idempotent(alg, m, bound), m
