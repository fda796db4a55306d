import random
import re

import pytest

from heckext.graded import BasisSymbol, _weight
from heckext.product import multiply
from heckext.weyl import S0, S1, WeylElement


def rand_weyl(rng, W, max_length, min_length=0):
    ln = rng.randint(min_length, max_length)
    first = rng.choice((S0, S1))
    return WeylElement(W, rng.randrange(W.n), tuple((first + j) % 2 for j in range(ln)))


def rand_symbol(rng, alg, degree, max_length):
    w = rand_weyl(rng, alg.weyl, max_length)
    if degree in (0, 3):
        return BasisSymbol(degree, None, w)
    signs = (-1, 1) if w.length == 0 else (-1, 0, 1)
    return BasisSymbol(degree, rng.choice(signs), w)


def rand_hecke(rng, alg, max_length, terms=2):
    h = alg.hecke.zero()
    for _ in range(terms):
        h = h + alg.hecke.tau(rand_weyl(rng, alg.weyl, max_length)).scale(
            rng.randrange(1, alg.field.p)
        )
    return h


class TestSymbols:
    def test_sign_zero_needs_positive_length(self, alg5):
        with pytest.raises(ValueError):
            BasisSymbol(1, 0, alg5.weyl.omega(2))
        with pytest.raises(ValueError):
            BasisSymbol(2, 0, alg5.weyl.identity)
        BasisSymbol(1, 0, alg5.weyl.s0)  # fine

    def test_degree_sign_consistency(self, alg5):
        with pytest.raises(ValueError):
            BasisSymbol(0, 1, alg5.weyl.s0)
        with pytest.raises(ValueError):
            BasisSymbol(4, None, alg5.weyl.s0)
        with pytest.raises(ValueError):
            BasisSymbol(1, None, alg5.weyl.s0)

    @pytest.mark.parametrize("degree, sign, refused", [
        (True, 1, "degree"), (2.0, 1, "degree"), (0.0, None, "degree"),
        (1, True, "sign"), (1, 1.0, "sign"), (2, False, "sign"),
    ])
    def test_a_degree_or_sign_that_is_not_an_int_is_refused(self, alg5, degree, sign, refused):
        """BasisSymbol(True, 1, w) and BasisSymbol(1, True, w) both built
        bp(w), and 2.0 passed as a degree: a bool or float equals an int."""
        value = degree if refused == "degree" else sign
        with pytest.raises(ValueError, match=re.escape(f"{refused} must be") + ".*" + re.escape(f"got {value!r}")):
            BasisSymbol(degree, sign, alg5.weyl.s0)

    def test_support_must_be_a_weyl_element(self, alg5):
        # (0, (0, 0)) is no normal form: it once built tau(w(0; s0 s0))
        with pytest.raises(ValueError, match="WeylElement"):
            alg5.tau((0, (0, 0)))
        with pytest.raises(ValueError, match="WeylElement"):
            BasisSymbol(1, -1, (0, ()))

    @pytest.mark.parametrize("exp", [5, -1])
    def test_a_support_exponent_outside_the_torus_is_refused(self, alg5, exp):
        """w(5;) of p=7 has no exponent in [0, 4); stored at p=5, beta^-
        there was unequal to beta^- at w(1;), though every product reduced
        it, and the renderer raised on it."""
        for make in _constructors(alg5, WeylElement(None, exp, ())):
            with pytest.raises(ValueError, match=f"torus exponent {exp} "):
                make()

    @pytest.mark.parametrize("exp", [1.5, True])
    def test_a_support_exponent_that_is_not_an_int_is_refused(self, alg5, exp):
        """Unpickling keeps any exponent: w(1.5;) once built tau(w(1.5;)),
        and True passed the range check as 1."""
        for make in _constructors(alg5, WeylElement(None, exp, ())):
            with pytest.raises(ValueError, match=re.escape(f"torus exponent {exp!r} of")):
                make()

    @pytest.mark.parametrize("word", [(0, 0), (0, 2)])
    def test_a_support_word_that_is_not_alternating_is_refused(self, alg5, word):
        """Unpickling keeps any word: w(0; s0 s0) once built tau(w(0; s0 s0)),
        whose product with tau(w(0; s0)) was a 4-term orbit, and the repr of
        tau at the word (0, 2) raised IndexError."""
        for make in _constructors(alg5, WeylElement(None, 0, word)):
            with pytest.raises(ValueError, match=re.escape(f"word {word!r} is not alternating")):
                make()

    def test_torus_only_enumeration_has_no_sign_zero(self, alg5):
        syms = list(alg5.basis_symbols(0))
        assert all(s.support.length == 0 for s in syms)
        assert all(s.sign != 0 for s in syms)
        # per torus element: tau, beta^-, beta^+, alpha^-, alpha^+, phi
        assert len(syms) == 6 * alg5.weyl.n

    def test_symbol_element_rejects_a_character_key(self, alg7):
        # (3, 1, -1, ()) is the character key of e_3 bm(w(0;)), not a symbol
        with pytest.raises(ValueError):
            alg7.symbol_element((3, 1, -1, ()))
        with pytest.raises(ValueError):
            alg7.symbol_element((1, -1, alg7.weyl.identity))

    def test_symbol_element_accepts_every_basis_symbol(self, alg7):
        for sym in alg7.basis_symbols(2):
            x = alg7.symbol_element(sym)
            assert x.coeffs == {sym: 1} and x.degrees() == {sym.degree}


class TestLeftActionTables:
    def test_reflection_on_degree1_lengths_add(self, alg5):
        W, H = alg5.weyl, alg5.hecke
        w = W.element(1, (S1,))
        assert alg5.act_left(H.tau(W.s0), alg5.beta(-1, w)) == -alg5.beta(1, W.mul(W.s0, w))
        assert alg5.act_left(H.tau(W.s0), alg5.beta(0, w)) == -alg5.beta(0, W.mul(W.s0, w))
        assert alg5.act_left(H.tau(W.s0), alg5.beta(1, w)).is_zero

    def test_reflection_on_degree1_shortening_at_length1(self, alg5):
        # tau_s0 . beta^0_w = -e_1 beta^0_w + e_id beta^+_w when l(w) = 1
        W, H = alg5.weyl, alg5.hecke
        w = W.element(2, (S0,))
        got = alg5.act_left(H.tau(W.s0), alg5.beta(0, w))
        expected = alg5.idempotent_times(0, alg5.beta(0, w)).scale(-1) + alg5.idempotent_times(
            1, alg5.beta(1, w)
        )
        assert got == expected

    def test_torus_on_degree1(self, alg5):
        W, H, F = alg5.weyl, alg5.hecke, alg5.field
        w = W.element(0, (S0, S1))
        t = H.tau(W.omega(1))
        shifted = W.mul(W.omega(1), w)
        assert alg5.act_left(t, alg5.beta(0, w)) == alg5.beta(0, shifted)
        assert alg5.act_left(t, alg5.beta(-1, w)) == alg5.beta(-1, shifted).scale(F.root_pow(-2))
        assert alg5.act_left(t, alg5.beta(1, w)) == alg5.beta(1, shifted).scale(F.root_pow(2))

    def test_degree3_both_length_cases(self, alg5):
        W, H = alg5.weyl, alg5.hecke
        w = W.element(0, (S1,))
        assert alg5.act_left(H.tau(W.s0), alg5.phi(w)).is_zero  # lengths add
        got = alg5.act_left(H.tau(W.s1), alg5.phi(w))  # shortening
        expected = alg5.phi(W.mul(W.s1, w)) + alg5.idempotent_times(0, alg5.phi(w)).scale(-1)
        assert got == expected

    def test_action_is_a_module_structure(self, alg7):
        H = alg7.hecke
        rng = random.Random(41)
        for _ in range(60):
            h1 = rand_hecke(rng, alg7, 4)
            h2 = rand_hecke(rng, alg7, 4)
            x = alg7.symbol_element(rand_symbol(rng, alg7, rng.randint(0, 3), 4))
            assert alg7.act_left(H.mul(h1, h2), x) == alg7.act_left(h1, alg7.act_left(h2, x))

    def test_left_action_extends_hecke_product(self, alg5):
        H = alg5.hecke
        rng = random.Random(43)
        for _ in range(60):
            a, b = rand_hecke(rng, alg5, 5), rand_hecke(rng, alg5, 5)
            assert alg5.act_left(a, alg5.embed(b)) == alg5.embed(H.mul(a, b))


class TestRightAction:
    def test_mixed_associativity(self, alg5):
        rng = random.Random(47)
        for _ in range(60):
            h1 = rand_hecke(rng, alg5, 4)
            h2 = rand_hecke(rng, alg5, 4)
            x = alg5.symbol_element(rand_symbol(rng, alg5, rng.randint(0, 3), 4))
            lhs = alg5.act_right(alg5.act_left(h1, x), h2)
            rhs = alg5.act_left(h1, alg5.act_right(x, h2))
            assert lhs == rhs

    def test_printed_right_formulas(self, alg5):
        W, H = alg5.weyl, alg5.hecke
        # beta^0_{s0} tau_v for l(s0 v) = l(v) - 1
        v = W.element(1, (S0, S1))
        got = alg5.act_right(alg5.beta(0, W.s0), H.tau(v))
        expected = alg5.idempotent_times(0, alg5.beta(0, v)).scale(-1) + alg5.idempotent_times(
            -1, alg5.beta(-1, v)
        ).scale(-1)
        assert got == expected
        # beta^-_w tau_omega = beta^-_{w omega}
        w = W.element(2, (S0,))
        assert alg5.act_right(alg5.beta(-1, w), H.tau(W.omega(3))) == alg5.beta(
            -1, W.mul(w, W.omega(3))
        )
        # phi_w tau_{s_j} = 0 when lengths add
        assert alg5.act_right(alg5.phi(W.s0), H.tau(W.s1)).is_zero


class TestInvolutions:
    def test_involution_on_basis(self, alg5):
        W = alg5.weyl
        w_even = W.element(1, (S0, S1))
        w_odd = W.element(1, (S0,))
        assert alg5.involution(alg5.beta(0, w_even)) == alg5.beta(0, W.inv(w_even))
        assert alg5.involution(alg5.beta(0, w_odd)) == -alg5.beta(0, W.inv(w_odd))
        assert alg5.involution(alg5.tau(w_odd)) == alg5.tau(W.inv(w_odd))
        assert alg5.involution(alg5.phi(w_even)) == alg5.phi(W.inv(w_even))
        usq = alg5.field.root_pow(2 * w_odd.exp)
        assert alg5.involution(alg5.beta(-1, w_odd)) == alg5.beta(1, W.inv(w_odd)).scale(
            -usq
        )

    def test_uniformizer_conj_on_basis(self, alg5):
        W = alg5.weyl
        w = W.element(1, (S0, S1))
        cw = W.uniformizer_conj(w)
        assert alg5.uniformizer_conj(alg5.beta(-1, w)) == alg5.beta(1, cw)
        assert alg5.uniformizer_conj(alg5.beta(0, w)) == -alg5.beta(0, cw)
        assert alg5.uniformizer_conj(alg5.alpha(0, w)) == -alg5.alpha(0, cw)
        assert alg5.uniformizer_conj(alg5.phi(w)) == alg5.phi(cw)

    def test_involutive_on_random_symbols(self, alg7):
        rng = random.Random(53)
        for _ in range(200):
            x = alg7.symbol_element(rand_symbol(rng, alg7, rng.randint(0, 3), 5))
            assert alg7.involution(alg7.involution(x)) == x
            assert alg7.uniformizer_conj(alg7.uniformizer_conj(x)) == x
            assert alg7.involution(alg7.uniformizer_conj(x)) == alg7.uniformizer_conj(
                alg7.involution(x)
            )

    def test_compatibility_with_the_action(self, alg5):
        H = alg5.hecke
        rng = random.Random(59)
        for _ in range(60):
            h = rand_hecke(rng, alg5, 4)
            x = alg5.symbol_element(rand_symbol(rng, alg5, rng.randint(0, 3), 4))
            assert alg5.involution(alg5.act_left(h, x)) == alg5.act_right(
                alg5.involution(x), H.involution(h)
            )
            assert alg5.uniformizer_conj(alg5.act_left(h, x)) == alg5.act_left(
                H.uniformizer_conj(h), alg5.uniformizer_conj(x)
            )


def _constructors(alg, w):
    """Every public constructor of a graded or Hecke element, each at the
    support w."""
    H = alg.hecke
    return (
        lambda: alg.tau(w),
        lambda: alg.beta(-1, w),
        lambda: alg.alpha(1, w),
        lambda: alg.phi(w),
        lambda: alg.symbol_element(BasisSymbol(1, -1, w)),
        lambda: alg.element({BasisSymbol(3, None, w): 2}),
        lambda: H.tau(w),
        lambda: H.element({w: 2}),
    )


class TestIdempotentSlide:
    def test_slide_laws_up_to_length_6(self, alg5):
        H, W = alg5.hecke, alg5.weyl
        for sym in alg5.basis_symbols(6, degrees=(1, 2)):
            weight = _weight(sym.degree, sym.sign)
            parity = -1 if sym.support.length % 2 else 1
            x = alg5.symbol_element(sym)
            for m in range(W.n):
                lhs = alg5.act_right(x, H.idempotent(m))
                rhs = alg5.idempotent_times(parity * m + weight, x)
                assert lhs == rhs, (sym, m)


class TestIdempotentIndex:
    @pytest.mark.parametrize("m", [1.5, "1", None])
    def test_idempotent_refuses_an_index_that_is_not_an_int(self, alg5, m):
        with pytest.raises(ValueError, match=re.escape(f"must be an int, got {m!r}")):
            alg5.idempotent(m)

    @pytest.mark.parametrize("m", [1.5, "1", None])
    def test_idempotent_times_refuses_an_index_that_is_not_an_int(self, alg5, m):
        with pytest.raises(ValueError, match=re.escape(f"must be an int, got {m!r}")):
            alg5.idempotent_times(m, alg5.beta(0, alg5.weyl.s0))

    def test_a_bool_index_is_refused(self, alg5):
        """idempotent(True) returned e_1: a bool passed isinstance(m, int)."""
        x = alg5.beta(0, alg5.weyl.s0)
        for index in (alg5.idempotent, lambda m: alg5.idempotent_times(m, x), alg5.hecke.idempotent):
            for m in (True, False):
                with pytest.raises(ValueError, match=re.escape(f"must be an int, got {m!r}")):
                    index(m)


class TestFactorThroughGenerators:
    def test_spec_examples(self, alg5):
        W = alg5.weyl
        c, a, g, b = alg5.factor_through_generators(BasisSymbol(1, -1, W.element(0, (S0, S1))))
        assert (c, a, b) == (1, W.identity, W.element(0, (S0, S1)))
        assert g == BasisSymbol(1, -1, W.identity)

        c, a, g, b = alg5.factor_through_generators(BasisSymbol(1, -1, W.element(0, (S1,))))
        assert c == alg5.field.p - 1
        assert a == W.element(0, (S1,))
        assert g == BasisSymbol(1, 1, W.identity)
        assert b == W.identity

    def test_round_trip_up_to_length_6(self, alg5):
        H = alg5.hecke
        for sym in alg5.basis_symbols(6, degrees=(1,)):
            c, a, g, b = alg5.factor_through_generators(sym)
            val = alg5.act_right(
                alg5.act_left(H.tau(a), alg5.symbol_element(g)), H.tau(b)
            ).scale(c)
            assert val == alg5.symbol_element(sym), sym

    def test_round_trip_matches_product_route(self, alg7):
        # same identity evaluated with the full product instead of the action
        rng = random.Random(61)
        for _ in range(80):
            sym = rand_symbol(rng, alg7, 1, 5)
            c, a, g, b = alg7.factor_through_generators(sym)
            val = multiply(
                multiply(alg7.tau(a), alg7.symbol_element(g)), alg7.tau(b)
            ).scale(c)
            assert val == alg7.symbol_element(sym), sym
