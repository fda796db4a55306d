import random
import re

import pytest

from heckext import ExtAlgebra
from heckext import presentation as pres
from heckext.graded import BasisSymbol
from heckext.product import multiply
from heckext.weyl import S0, S1


class TestFreeIdempotents:
    def test_trivial_idempotent_p5(self, alg5):
        eps = pres.free_idempotent(alg5, 0)
        # -(1 + T + T^2 + T^3), four words
        assert eps.word_count() == 4
        assert all(c == 4 for c in eps.coeffs.values())
        assert set(eps.coeffs) == {(), (pres.T_W0,), (pres.T_W0,) * 2, (pres.T_W0,) * 3}

    def test_images_are_the_concrete_idempotents(self, alg7):
        for m in range(alg7.weyl.n):
            eps = pres.free_idempotent(alg7, m)
            assert eps.word_count() == alg7.field.p - 1
            assert pres.evaluate(eps) == alg7.embed(alg7.hecke.idempotent(m))

    def test_literal_bound_is_rejected_by_the_relators(self, alg5):
        # the one-power-further reading double-counts the identity class:
        # its image differs from the idempotent by 1, and the quadratic
        # relators detect it
        eps = pres.free_idempotent(alg5, 0, bound="p-1")
        assert pres.evaluate(eps) == alg5.embed(alg5.hecke.idempotent(0)) - alg5.one()
        failing = [
            name
            for name, rel in pres.all_relators(alg5, bound="p-1")
            if not pres.evaluate(rel).is_zero
        ]
        assert "deg0_04" in failing and "deg0_05" in failing

    def test_bad_bound_value(self, alg5):
        with pytest.raises(ValueError):
            pres.free_idempotent(alg5, 0, bound="p")

    @pytest.mark.parametrize("m", [1.5, "1", None])
    def test_an_index_that_is_not_an_int_is_refused(self, alg5, m):
        with pytest.raises(ValueError, match=re.escape(f"must be an int, got {m!r}")):
            pres.free_idempotent(alg5, m)


class TestRelators:
    def test_counts(self, alg5):
        assert len(pres.hecke_relators(alg5)) == 5
        assert len(pres.bimodule_relators(alg5)) == 16
        assert len(pres.kernel_relators(alg5)) == 15
        assert len(pres.all_relators(alg5)) == 36

    def test_first_relator_is_torus_order(self, alg5):
        rel = pres.hecke_relators(alg5)[0]
        assert rel == pres.free_letter(alg5, pres.T_W0) ** 4 - pres.free_one(alg5)

    def test_all_vanish(self, alg5, alg7):
        for alg in (alg5, alg7):
            for name, rel in pres.all_relators(alg):
                assert pres.evaluate(rel).is_zero, name

    def test_quadratic_relator_example(self, alg5):
        ts0 = pres.free_letter(alg5, pres.T_S0)
        eps1 = pres.free_idempotent(alg5, 0)
        assert pres.evaluate(ts0 * ts0 + eps1 * ts0).is_zero


class TestEvaluate:
    def test_generator_products(self, alg5):
        W = alg5.weyl
        bz1_bp = pres.free_letter(alg5, pres.B_Z1) * pres.free_letter(alg5, pres.B_P)
        assert pres.evaluate(bz1_bp) == alg5.alpha(1, W.s1)

    def test_multiplicative_on_random_words(self, alg5):
        rng = random.Random(101)
        for _ in range(60):
            wa = tuple(rng.randrange(7) for _ in range(rng.randint(0, 6)))
            wb = tuple(rng.randrange(7) for _ in range(rng.randint(0, 6)))
            f = pres.FreeElement(alg5, {wa: rng.randrange(1, 5)})
            g = pres.FreeElement(alg5, {wb: rng.randrange(1, 5)})
            assert pres.evaluate(f * g) == multiply(pres.evaluate(f), pres.evaluate(g))

    def test_bimodule_relators_land_in_degree_one(self, alg5):
        # mixed relators evaluate to zero inside the degree-1 piece
        for rel in pres.bimodule_relators(alg5):
            val = pres.evaluate(rel)
            assert val.is_zero
            # every monomial of the relator has exactly one B letter
            for word in rel.coeffs:
                assert sum(1 for l in word if l >= pres.B_M) == 1


class TestWordForBasis:
    def test_degree0_spanning_word(self, alg5):
        W = alg5.weyl
        w = W.element(1, (S0,))
        word = pres.word_for_basis(alg5, BasisSymbol(0, None, w))
        assert word.coeffs == {(pres.T_W0, pres.T_S0): 1}

    def test_degree2_example(self, alg5):
        W = alg5.weyl
        word = pres.word_for_basis(alg5, BasisSymbol(2, 0, W.s1))
        assert word.coeffs == {(pres.B_P, pres.T_S1, pres.B_P): alg5.field.p - 1}

    def test_degree3_identity_support_uses_the_shift(self, alg5):
        word = pres.word_for_basis(alg5, BasisSymbol(3, None, alg5.weyl.identity))
        assert pres.evaluate(word) == alg5.phi(alg5.weyl.identity)

    def test_round_trip_small(self, alg5):
        for sym in alg5.basis_symbols(3):
            word = pres.word_for_basis(alg5, sym)
            assert pres.evaluate(word) == alg5.symbol_element(sym), sym

    def test_round_trip_other_prime(self, alg7):
        for sym in alg7.basis_symbols(2):
            word = pres.word_for_basis(alg7, sym)
            assert pres.evaluate(word) == alg7.symbol_element(sym), sym


def multiplied_out(alg, f):
    """f with each word multiplied out from 1, letter by letter, through the
    public multiply: no prefix shared, and a zero prefix multiplied on.  Also
    the number of words whose value is zero before their last letter."""
    images = pres.generator_images(alg)
    total, cut = alg.zero(), 0
    for word, c in f.coeffs.items():
        acc, zero_before_last = alg.one(), False
        for letter in word:
            zero_before_last = zero_before_last or acc.is_zero
            acc = multiply(acc, images[letter])
        total, cut = total + acc.scale(c), cut + zero_before_last
    return total, cut


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("bound", ["p-2", "p-1"])
def test_evaluate_is_the_prefix_free_product_on_every_relator(p, bound):
    """Each relator, and each relator times B_m: no relator word has a zero
    proper prefix, but B_m B_m B_m and T_s1 B_m B_m have one."""
    alg = ExtAlgebra(p)
    bm = pres.free_letter(alg, pres.B_M)
    cut = 0
    for name, rel in pres.all_relators(alg, bound):
        for f in (rel, rel * bm):
            value, cut_here = multiplied_out(alg, f)
            assert pres.evaluate(f) == value, name
            cut += cut_here
    assert cut, "no word has a zero prefix"
