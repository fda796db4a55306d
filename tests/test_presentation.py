import pickle
import random
import re

import pytest

from heckext import ExtAlgebra, verify
from heckext import presentation as pres
from heckext.graded import BasisSymbol, GradedElement
from heckext.product import multiply
from heckext.weyl import S0, S1

import torus_oracle
from prefix_oracle import Prefixes, word_for_basis_by_products


class TestFreeIdempotents:
    def test_trivial_idempotent_p5(self, alg5):
        eps = pres.free_idempotent(alg5, 0)
        assert eps.coeffs == {(pres.E(0),): 1}
        eps = eps.expand()
        # -(1 + T + T^2 + T^3), four words
        assert eps.word_count() == 4
        assert all(c == 4 for c in eps.coeffs.values())
        assert set(eps.coeffs) == {(), (pres.T_W0,), (pres.T_W0,) * 2, (pres.T_W0,) * 3}

    def test_images_are_the_concrete_idempotents(self, alg7):
        for m in range(alg7.weyl.n):
            eps = pres.free_idempotent(alg7, m)
            assert eps.expand().word_count() == alg7.field.p - 1
            assert (pres.evaluate(eps) == pres.evaluate(eps.expand())
                    == alg7.embed(alg7.hecke.idempotent(m)))

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
            for word in rel.expand().coeffs:
                assert sum(1 for l in word if l >= pres.B_M) == 1


def test_evaluate_refuses_anything_but_a_free_element(alg5):
    # a graded element used to fail on its keys, read as words
    for x, kind in ((alg5.one(), "GradedElement"), ((pres.B_M,), "tuple"), (1, "int")):
        with pytest.raises(ValueError, match=f"^expected a FreeElement, got {kind}$"):
            pres.evaluate(x)


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

    def test_a_symbol_outside_the_weyl_group_is_refused(self, alg5, alg7):
        # a support of p=7 used to be spelled as a word at p=5
        sym = BasisSymbol(1, 1, alg7.weyl.omega(5))
        with pytest.raises(ValueError, match=r"torus exponent 5 .* outside \[0, 4\)"):
            pres.word_for_basis(alg5, sym)
        with pytest.raises(ValueError, match="expected a BasisSymbol, got 3"):
            pres.word_for_basis(alg5, 3)

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


@pytest.mark.parametrize("p", [5, 7, 13])
@pytest.mark.parametrize("bound", ["p-2", "p-1"])
def test_evaluate_is_the_prefix_free_product_on_every_relator(p, bound):
    """Each relator, and each relator times B_m, against the words multiplied
    out one by one and against the prefix walker evaluate read before: no
    relator word has a zero proper prefix, but B_m B_m B_m and T_s1 B_m B_m
    have one."""
    alg = ExtAlgebra(p)
    bm = pres.free_letter(alg, pres.B_M)
    cut = 0
    for name, rel in pres.all_relators(alg, bound):
        for f in (rel, rel * bm):
            value, cut_here = multiplied_out(alg, f.expand())
            assert pres.evaluate(f) == value == GradedElement(alg, Prefixes(alg).row(f.expand())), name
            cut += cut_here
    assert cut, "no word has a zero prefix"


def random_words(rng, p, count):
    """Words of runs of one letter, T_w0 runs up to 2p long, with the empty
    word, T_w0^(p - 1), T_w0^(2p) and words ending in B_m B_m B_m (zero)."""
    words = {(), (pres.T_W0,) * (p - 1), (pres.T_W0,) * (2 * p), (pres.B_M,) * 3}
    while len(words) < count:
        word = ()
        for _ in range(rng.randint(1, 5)):
            letter = rng.randrange(7)
            word += (letter,) * rng.randint(1, 2 * p if letter == pres.T_W0 else 3)
        words.add(word + (pres.B_M,) * 3 if rng.random() < 0.2 else word)
    return sorted(words)


@pytest.mark.parametrize("p", [5, 13])
def test_one_suffix_walker_values_every_word_as_the_oracles_do(p):
    """One walker over many words, so later words read suffixes the trie
    already holds; each value, and the sum, against both oracles."""
    alg = ExtAlgebra(p)
    rng = random.Random(f"suffixes:{p}")
    words = random_words(rng, p, 150)
    walker, oracle = pres._Suffixes(alg), Prefixes(alg)
    for word in words:
        f = pres.FreeElement(alg, {word: 1})
        assert (GradedElement(alg, walker.value(word)) == multiplied_out(alg, f)[0]
                == GradedElement(alg, oracle.value(word))), word
    assert any(not walker.value(word) for word in words)
    f = pres.FreeElement.make(alg, {word: rng.randrange(1, p) for word in words})
    assert pres.evaluate(f) == multiplied_out(alg, f)[0] == GradedElement(alg, Prefixes(alg).row(f))


def test_every_round_trip_word_is_valued_as_the_oracles_do():
    """The words of every symbol of support length <= 3 at p=5, read by one
    walker in the round trip's order, each against both oracles on its
    expansion."""
    alg = ExtAlgebra(5)
    walker = pres._Suffixes(alg)
    for sym in alg.basis_symbols(3):
        for word in pres.word_for_basis(alg, sym).coeffs:
            expanded = pres.FreeElement(alg, {word: 1}).expand()
            expected = multiplied_out(alg, expanded)[0]
            assert (GradedElement(alg, walker.value(word)) == expected
                    == GradedElement(alg, Prefixes(alg).row(expanded))), (sym, word)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_word_for_basis_spells_the_words_of_the_product_builder(p):
    alg = ExtAlgebra(p)
    for sym in alg.basis_symbols(5):
        assert pres.word_for_basis(alg, sym).coeffs == word_for_basis_by_products(alg, sym).coeffs, sym


@pytest.mark.parametrize("p, calls", [(13, 2028), (53, 8388)])
def test_the_round_trip_multiplies_each_suffix_once(monkeypatch, p, calls):
    """The products the round trip makes at L=8.  Multiplying each word out
    from its first letter, sharing only the prefixes of consecutive words,
    made 12,508 at p=13 and 195,048 at p=53; reading each torus idempotent
    as its p - 1 words T_w0^i through the suffix trie, 2,208 and 11,288."""
    real, made = pres._multiply, []

    def counted(*args):
        made.append(None)
        return real(*args)

    monkeypatch.setattr(pres, "_multiply", counted)
    cases, test = verify._round_trip(ExtAlgebra(p), 8)
    assert not [sym for sym in cases if test(sym) is not None]
    assert len(made) == calls


@pytest.mark.parametrize("word, letter, position", [
    ((9,), 9, 0),
    ((-1, 3), -1, 0),
    ((True,), True, 0),
    ((pres.T_S0, True, pres.T_S0), True, 1),
    ((pres.T_W0, False), False, 1),
    ((pres.B_M, 1.0), 1.0, 1),
    ((300, pres.B_M), 300, 0),
    ((pres.B_M, "B_m"), "B_m", 1),
])
def test_a_letter_that_is_not_one_of_the_seven_is_refused(alg5, word, letter, position):
    f = pres.FreeElement(alg5, {word: 2})
    message = re.escape(f"word {word!r}: letter {letter!r} at position {position} "
                        "is not one of the ints 0..6 or a token E(m)")
    with pytest.raises(ValueError, match=message):
        pres.evaluate(f)
    with pytest.raises(ValueError, match=message):
        repr(f)


@pytest.mark.parametrize("letter", [9, -1, True, "B_m"], ids=repr)
def test_free_letter_refuses_a_letter_that_is_not_one_of_the_seven(alg5, letter):
    message = re.escape(f"word {(letter,)!r}: letter {letter!r} at position 0 "
                        "is not one of the ints 0..6 or a token E(m)")
    with pytest.raises(ValueError, match=message):
        pres.free_letter(alg5, letter)
    assert pres.free_letter(alg5, pres.B_M).coeffs == {(pres.B_M,): 1}
    assert pres.free_letter(alg5, pres.E(2)) == pres.free_idempotent(alg5, 2)


def test_a_product_sums_the_coefficients_of_a_word_made_twice(alg5):
    x, bm, bp = (pres.free_letter(alg5, letter) for letter in (pres.T_S0, pres.B_M, pres.B_P))
    product = (x + x * bm) * (bm * bp + bp)
    assert product.coeffs == {(pres.T_S0, pres.B_M, pres.B_P): 2, (pres.T_S0, pres.B_P): 1,
                              (pres.T_S0, pres.B_M, pres.B_M, pres.B_P): 1}


@pytest.mark.parametrize("n", [True, False, 2.0, "2", None])
def test_an_exponent_that_is_not_an_int_is_refused(alg5, n):
    tw = pres.free_letter(alg5, pres.T_W0)
    with pytest.raises(ValueError, match=re.escape(f"the exponent must be an int, got {n!r}")):
        tw ** n
    assert tw ** 2 == tw * tw and tw ** 0 == pres.free_one(alg5)


@pytest.mark.parametrize("p", [5, 7, 13])
@pytest.mark.parametrize("bound", ["p-2", "p-1"])
def test_each_relator_expands_to_the_words_of_the_spelled_idempotents(monkeypatch, p, bound):
    """The relators built on tokens E(m), expanded, against the same formulas
    built on the free idempotents spelled as p - 1 (or p) words T_w0^i, the
    form the relators had before the token."""
    alg = ExtAlgebra(p)
    tokens = pres.all_relators(alg, bound)
    monkeypatch.setattr(pres, "free_idempotent", torus_oracle.free_idempotent)
    spelled = pres.all_relators(alg, bound)
    assert [name for name, _ in tokens] == [name for name, _ in spelled]
    for (name, rel), (_, words) in zip(tokens, spelled):
        assert rel.expand() == words, name
        assert not any(isinstance(x, pres.E) for word in words.coeffs for x in word)
    assert any(isinstance(x, pres.E) for _, rel in tokens for word in rel.coeffs for x in word)


@pytest.mark.parametrize("p", [5, 1009])
def test_a_relator_with_one_term_deleted_fails_its_check(monkeypatch, p):
    """Each relator term whose value is not zero, deleted from the token form,
    fails that relator's check and no other."""
    alg = ExtAlgebra(p)
    relators = pres.all_relators(alg)
    walker = pres._Suffixes(alg)
    cases = [(i, word) for i, (_, rel) in enumerate(relators) for word in rel.coeffs
             if walker.value(word)]
    assert len(cases) == 60
    for i, word in cases:
        name, rel = relators[i]
        cut = pres.FreeElement(alg, {w: c for w, c in rel.coeffs.items() if w != word})
        monkeypatch.setattr(pres, "all_relators", lambda alg, bound: [
            *relators[:i], (name, cut), *relators[i + 1:]])
        failed = [r.name for r in verify.run_suite(alg, "relators") if not r.ok]
        assert failed == [f"relator_{name}"], (name, word)


def test_a_token_is_one_interned_letter(alg5):
    assert pres.E(3) is pres.E(3) is pickle.loads(pickle.dumps(pres.E(3)))
    assert repr(pres.E(3)) == "E(3)"
    assert pres.free_idempotent(alg5, -1).coeffs == {(pres.E(3),): 1}
    assert pres.free_idempotent(alg5, 1, "p-1").coeffs == {
        (pres.E(1),): 1, (pres.T_W0,) * 4: 4}
    for m in (True, 1.0, "1", None):
        with pytest.raises(ValueError, match=re.escape(f"must be an int, got {m!r}")):
            pres.E(m)


def test_a_token_reads_as_its_expansion_and_as_the_idempotent(alg5):
    """E(m) in any place of a word: the value, the expansion and repr."""
    x, y = pres.free_letter(alg5, pres.B_M), pres.free_letter(alg5, pres.T_S1)
    for m in range(4):
        e = pres.free_idempotent(alg5, m)
        for f in (e, x * e, e * x * e, y * e * e * x, x * e * y + e.scale(3)):
            assert pres.evaluate(f) == pres.evaluate(f.expand()), (m, f)
            assert repr(f) == repr(f.expand())
        assert pres.evaluate(x * e) == multiply(pres.evaluate(x), alg5.idempotent(m))


@pytest.mark.parametrize("word, letter, position", [
    ((pres.E(1), 9), 9, 1),
    ((pres.E(0), pres.T_S0, True), True, 2),
    ((pres.B_M, (pres.E(2),)), (pres.E(2),), 1),
])
def test_a_bad_letter_beside_a_token_is_refused_at_its_position(alg5, word, letter, position):
    f = pres.FreeElement(alg5, {word: 1})
    message = re.escape(f"word {word!r}: letter {letter!r} at position {position} "
                        "is not one of the ints 0..6 or a token E(m)")
    for read in (pres.evaluate, repr, pres.FreeElement.expand):
        with pytest.raises(ValueError, match=message):
            read(f)
