import random
import re

import pytest

from heckext import ExtAlgebra
from heckext.graded import BasisSymbol
from heckext.hecke import HeckeElement
from heckext.weyl import S0, S1, WeylElement


def rand_weyl(rng, W, max_length):
    ln = rng.randint(0, max_length)
    first = rng.choice((S0, S1))
    return WeylElement(W, rng.randrange(W.n), tuple((first + j) % 2 for j in range(ln)))


class TestBasics:
    def test_tau_of_identity_is_the_unit(self, alg5):
        H, W = alg5.hecke, alg5.weyl
        x = H.tau(W.element(2, (S0, S1))) + H.tau(W.s1).scale(3)
        assert H.mul(H.one(), x) == x
        assert H.mul(x, H.one()) == x

    def test_braid_example(self, alg5):
        H, W = alg5.hecke, alg5.weyl
        assert H.mul(H.tau(W.s0), H.tau(W.s1)) == H.tau(W.element(0, (S0, S1)))

    def test_quadratic_example_expanded(self, alg5):
        H, W = alg5.hecke, alg5.weyl
        square = H.mul(H.tau(W.s0), H.tau(W.s0))
        expected = H.zero()
        for e in range(W.n):
            expected = expected + H.tau(WeylElement(W, e, (S0,)))
        assert square == expected

    def test_quadratic_relation_both_forms(self, alg5):
        H, W = alg5.hecke, alg5.weyl
        e1 = H.idempotent(0)
        for s in (W.s0, W.s1):
            t = H.tau(s)
            assert H.mul(t, t) == H.mul(e1, t).scale(-1)
            assert H.mul(t, t + e1).is_zero
            assert H.mul(t + e1, t).is_zero

    def test_tau_refuses_what_element_refuses(self, alg5):
        H = alg5.hecke
        with pytest.raises(ValueError, match="WeylElement"):
            H.tau("x")
        with pytest.raises(ValueError, match="WeylElement"):
            H.element({"x": 1})

    @pytest.mark.parametrize("call, kind", [
        (lambda alg, h, w: alg.hecke.mul(h, alg.tau(w)), "GradedElement"),
        (lambda alg, h, w: alg.hecke.mul(alg.tau(w), h), "GradedElement"),
        (lambda alg, h, w: alg.hecke.involution(alg.tau(w)), "GradedElement"),
        (lambda alg, h, w: alg.hecke.uniformizer_conj(alg.phi(w)), "GradedElement"),
        (lambda alg, h, w: alg.hecke.mul(h, 3), "int"),
        (lambda alg, h, w: alg.hecke.mul(None, h), "NoneType"),
    ], ids=["mul-graded-right", "mul-graded-left", "involution", "uniformizer_conj", "mul-int",
            "mul-none"])
    def test_an_operand_that_is_not_a_hecke_element_is_refused(self, alg5, call, kind):
        """A GradedElement shares the field of the Hecke algebra, so it passed
        the parameter check and failed deep in the call, with a message that
        did not name it."""
        w = alg5.weyl.element(1, (S0, S1))
        with pytest.raises(ValueError, match=f"expected a HeckeElement, got {kind}$"):
            call(alg5, alg5.hecke.tau(w), w)


class TestIdempotents:
    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_every_idempotent_is_its_definition(self, p):
        # e_lambda = -sum over the torus of lambda(t)^-1 tau_t, lambda = id^m
        H = ExtAlgebra(p).hecke
        W, F = H.weyl, H.field
        for m in range(-1, W.n + 1):
            expected = {W.omega(e): -F.root_pow(-m * e) % p for e in range(W.n)}
            assert H.idempotent(m) == HeckeElement(H, expected), m

    @pytest.mark.parametrize("m", [1.5, "1", None])
    def test_an_index_that_is_not_an_int_is_refused(self, alg5, m):
        with pytest.raises(ValueError, match=re.escape(f"must be an int, got {m!r}")):
            alg5.hecke.idempotent(m)

    def test_trivial_idempotent_frozen_p5(self, alg5):
        H, W = alg5.hecke, alg5.weyl
        expected = H.zero()
        for e in range(4):
            expected = expected + H.tau(W.omega(e)).scale(-1)
        assert H.idempotent(0) == expected

    def test_orthogonal_system_summing_to_one(self, alg7):
        H = alg7.hecke
        idems = H.idempotents()
        total = H.zero()
        for a, ea in enumerate(idems):
            total = total + ea
            for b, eb in enumerate(idems):
                assert H.mul(ea, eb) == (ea if a == b else H.zero())
        assert total == H.one()

    def test_torus_eigenvalue_law(self, alg5):
        # e_lam tau_t = tau_t e_lam = lam(t) e_lam
        H, W, F = alg5.hecke, alg5.weyl, alg5.field
        for m in range(W.n):
            e = H.idempotent(m)
            for a in range(W.n):
                t = H.tau(W.omega(a))
                scaled = e.scale(F.root_pow(m * a))
                assert H.mul(e, t) == scaled
                assert H.mul(t, e) == scaled


class TestProductLaws:
    def test_braid_relation_when_lengths_add(self, alg5):
        H, W = alg5.hecke, alg5.weyl
        rng = random.Random(11)
        checked = 0
        while checked < 150:
            v, w = rand_weyl(rng, W, 5), rand_weyl(rng, W, 5)
            if not W.lengths_add(v, w):
                continue
            assert H.mul(H.tau(v), H.tau(w)) == H.tau(W.mul(v, w))
            checked += 1

    def test_associativity_random(self, alg7):
        H, W = alg7.hecke, alg7.weyl
        rng = random.Random(7)
        for _ in range(120):
            a = H.tau(rand_weyl(rng, W, 6)).scale(rng.randrange(1, 7))
            b = H.tau(rand_weyl(rng, W, 6))
            c = H.tau(rand_weyl(rng, W, 6))
            assert H.mul(H.mul(a, b), c) == H.mul(a, H.mul(b, c))

    def test_distributive(self, alg5):
        H, W = alg5.hecke, alg5.weyl
        rng = random.Random(3)
        for _ in range(60):
            a = H.tau(rand_weyl(rng, W, 4))
            b = H.tau(rand_weyl(rng, W, 4))
            c = H.tau(rand_weyl(rng, W, 4))
            assert H.mul(a, b + c) == H.mul(a, b) + H.mul(a, c)
            assert H.mul(b + c, a) == H.mul(b, a) + H.mul(c, a)

    def test_products_equal_the_graded_kernel(self, alg5):
        """tau_v tau_w by H.mul equals the graded engine's degree-0 product,
        the kernel _act_left(v, tau_w) of a pair miss."""
        H, W = alg5.hecke, alg5.weyl
        rng = random.Random(17)
        for _ in range(150):
            v, w = rand_weyl(rng, W, 6), rand_weyl(rng, W, 6)
            kernel = alg5._expand(alg5._act_left(v, BasisSymbol(0, None, w)))
            assert kernel == alg5.embed(H.mul(H.tau(v), H.tau(w))).row, (v, w)


class TestInvolutions:
    def test_tau_basis_stable_and_antimultiplicative(self, alg5):
        H, W = alg5.hecke, alg5.weyl
        rng = random.Random(23)
        for _ in range(100):
            v, w = rand_weyl(rng, W, 5), rand_weyl(rng, W, 5)
            a, b = H.tau(v), H.tau(w)
            assert H.involution(H.mul(a, b)) == H.mul(H.involution(b), H.involution(a))
            assert H.involution(H.involution(a)) == a

    def test_uniformizer_conj_is_an_automorphism(self, alg5):
        H, W = alg5.hecke, alg5.weyl
        assert H.uniformizer_conj(H.tau(W.s0)) == H.tau(W.s1)
        assert H.uniformizer_conj(H.tau(W.omega(1))) == H.tau(W.omega(W.n - 1))
        rng = random.Random(29)
        for _ in range(80):
            a, b = H.tau(rand_weyl(rng, W, 4)), H.tau(rand_weyl(rng, W, 4))
            assert H.uniformizer_conj(H.mul(a, b)) == H.mul(
                H.uniformizer_conj(a), H.uniformizer_conj(b)
            )

    def test_involution_swaps_idempotent_exponent(self, alg5):
        H, W = alg5.hecke, alg5.weyl
        for m in range(W.n):
            assert H.involution(H.idempotent(m)) == H.idempotent(-m)
            assert H.uniformizer_conj(H.idempotent(m)) == H.idempotent(-m)
