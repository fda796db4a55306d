import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heckext.coeff import PrimeField
from heckext.graded import BasisSymbol, ExtAlgebra, GradedElement
from heckext.hecke import HeckeElement
from heckext.presentation import B_P, LETTERS, FreeElement, free_letter
from heckext.product import duality_pairing, multiply
from heckext.sections import TensorExpression, section_deg2, section_deg3, section_deg3_symmetric


def egcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = egcd(b, a % b)
    return g, y, x - (a // b) * y


def inverse_oracle(a, p):
    g, x, _ = egcd(a % p, p)
    assert g == 1
    return x % p


class TestPrimeField:
    def test_rejects_non_primes_and_small_primes(self):
        for bad in (0, 1, 2, 3, 4, 6, 9, 15, 21):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_smallest_primitive_roots(self):
        assert PrimeField(5).u0 == 2
        assert PrimeField(7).u0 == 3
        assert PrimeField(11).u0 == 2
        assert PrimeField(13).u0 == 2

    def test_chosen_root_is_the_smallest_of_order_p_minus_1(self):
        for p in range(5, 2000):
            if any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
                continue
            for g in range(2, p):
                x, order = g, 1
                while x != 1:
                    x, order = x * g % p, order + 1
                if order == p - 1:
                    break
            assert PrimeField(p).u0 == g, p

    def test_root_override(self):
        assert PrimeField(5, primitive_root=3).u0 == 3
        with pytest.raises(ValueError):
            PrimeField(5, primitive_root=4)  # order 2, not primitive

    def test_a_refused_root_is_named_as_given(self):
        # 7, 8 and -1 reduce to 0, 1 and 6 mod 7; the message names the value given
        for root in (7, 8, -1):
            with pytest.raises(ValueError, match=rf"^{root} is not a primitive root mod 7$"):
                PrimeField(7, primitive_root=root)
        assert PrimeField(7, primitive_root=10).u0 == 3

    @pytest.mark.parametrize("root", [3.0, "3", True])
    def test_a_root_that_is_not_an_int_is_refused(self, root):
        # 3.0 raised TypeError in pow(), "3" in the %-formatting of a str
        message = f"primitive root must be an int, got {root!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            PrimeField(7, primitive_root=root)

    def test_frozen_examples_p5(self):
        F = PrimeField(5)
        assert F.inv(4) == 4  # 4*4 = 16 = 1
        assert F.inv(2) == 3  # extended Euclid: 2*3 = 6 = 1
        assert F.neg(3) == 2

    def test_zero_inversion_rejected(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(7).inv(0)

    @given(st.sampled_from([5, 7, 11, 13]), st.integers(1, 10**6))
    def test_inverse_matches_euclid_oracle(self, p, a):
        F = PrimeField(p)
        if a % p == 0:
            a += 1
        assert F.inv(a) == inverse_oracle(a, p)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_field_laws_p7(self, a, b):
        F = PrimeField(7)
        assert F.neg(a) == (-a) % 7
        assert (a + F.neg(a)) % 7 == 0
        assert F.neg(F.neg(a)) == a % 7
        if a % 7:
            assert a * F.inv(a) % 7 == 1
            if b % 7:
                assert F.inv(a * b) == F.inv(a) * F.inv(b) % 7
        assert F.root_pow(a + b) == F.root_pow(a) * F.root_pow(b) % 7
        assert F.root_pow(a) == pow(F.u0, a % 6, 7)


# --- the linear-combination core shared by the three element types ---

ALGEBRAS = {p: ExtAlgebra(p) for p in (5, 7)}


def _parent_and_keys(kind, E):
    """The parent algebra and a pool of basis keys of one element type."""
    if kind is HeckeElement:
        return E.hecke, E.weyl.elements(1)
    if kind is GradedElement:
        return E, list(E.basis_symbols(1))
    return E, [()] + [(a,) for a in LETTERS] + [(a, b) for a in LETTERS for b in LETTERS]


def _reduced(d, p):
    return {k: c % p for k, c in d.items() if c % p}


class TestCombination:
    @given(
        st.sampled_from([HeckeElement, GradedElement, FreeElement]),
        st.sampled_from([5, 7]),
        st.dictionaries(st.integers(0, 30), st.integers(-30, 30), max_size=8),
        st.dictionaries(st.integers(0, 30), st.integers(-30, 30), max_size=8),
        st.integers(-21, 21),
    )
    def test_linear_structure_matches_a_plain_dict_reference(self, kind, p, dx, dy, c):
        parent, pool = _parent_and_keys(kind, ALGEBRAS[p])
        dx = {pool[i % len(pool)]: v for i, v in dx.items()}
        dy = {pool[i % len(pool)]: v for i, v in dy.items()}
        x, y = kind.make(parent, dx), kind.make(parent, dy)
        keys = set(dx) | set(dy)
        expected = {
            "make": _reduced(dx, p),
            "add": _reduced({k: dx.get(k, 0) + dy.get(k, 0) for k in keys}, p),
            "sub": _reduced({k: dx.get(k, 0) - dy.get(k, 0) for k in keys}, p),
            "neg": _reduced({k: -v for k, v in dx.items()}, p),
            "scale": _reduced({k: c * v for k, v in dx.items()}, p),
            "zero": {},
        }
        got = {
            "make": x,
            "add": x + y,
            "sub": x - y,
            "neg": -x,
            "scale": x.scale(c),
            "zero": x - x,
        }
        for name, el in got.items():
            assert type(el) is kind
            assert el.coeffs == expected[name], name
            assert all(0 < v < p for v in el.coeffs.values()), name
        assert x * c == c * x == x.scale(c)
        assert (x + -x).is_zero and x.scale(p).is_zero and x.scale(0).is_zero
        assert x == kind.make(parent, dict(dx)) and (x == y) == (x.coeffs == y.coeffs)

    def test_other_operands_are_not_implemented(self):
        E = ALGEBRAS[5]
        h, x, f = E.hecke.tau(E.weyl.s0), E.beta(1, E.weyl.identity), free_letter(E, B_P)
        for a, b in ((h, x), (x, h), (f, h), (h, f), (x, f), (h, 1.5), (x, "3"), (f, None)):
            assert a.__mul__(b) is NotImplemented, (a, b)
            with pytest.raises(TypeError):
                a * b

    def test_element_refuses_a_key_of_another_kind(self):
        E = ALGEBRAS[5]
        W = E.weyl
        for build, key, kind in (
            (E.element, "junk", "BasisSymbol"),
            # the entries of a symbol, as a plain tuple
            (E.element, (1, 1, None, ()), "BasisSymbol"),
            (E.element, W.s0, "BasisSymbol"),
            (E.hecke.element, "junk", "WeylElement"),
            (E.hecke.element, (0, ()), "WeylElement"),
            (E.hecke.element, BasisSymbol(0, None, W.s0), "WeylElement"),
        ):
            with pytest.raises(ValueError, match=re.escape(f"expected a {kind}, got {key!r}")):
                build({key: 3})
        assert E.element({BasisSymbol(0, None, W.s0): 3}) == E.tau(W.s0).scale(3)
        assert E.hecke.element({W.s0: 3}) == E.hecke.tau(W.s0).scale(3)

    @pytest.mark.parametrize("c", [0.5, 1.5, True, False, "3", None], ids=repr)
    def test_a_coefficient_that_is_not_an_int_is_refused(self, c):
        # 0.5 * tau(w(0;)) used to square to 0.25 * tau(w(0;)), and a graded
        # element of a float coefficient to reach the products and the renderer
        E = ALGEBRAS[5]
        W = E.weyl
        slot = (BasisSymbol(1, 1, W.identity),)
        t = TensorExpression.from_terms(E, 1, [(2, slot)])
        for call in (
            lambda: E.hecke.element({W.identity: c}),
            lambda: E.element({BasisSymbol(1, -1, W.identity): c}),
            lambda: E.hecke.tau(W.s0).scale(c),
            lambda: E.beta(1, W.s0).scale(c),
            lambda: free_letter(E, B_P).scale(c),
            lambda: TensorExpression.from_terms(E, 1, [(2, slot), (c, slot)]),
            lambda: t.scale(c),
        ):
            with pytest.raises(ValueError, match=re.escape(f"must be an int, got {c!r}")):
                call()
        assert t.scale(-1).coeffs == {slot: 3}

    def test_embed_and_the_actions_refuse_an_operand_that_is_not_a_hecke_element(self):
        # embed of a graded element used to return a degree-0 symbol whose
        # support is a BasisSymbol, and both actions then failed to unpack it
        E = ALGEBRAS[5]
        x = E.beta(-1, E.weyl.identity)
        for h, kind in ((x, "GradedElement"), (E.weyl.s0, "WeylElement"), (1, "int")):
            for call in (lambda: E.embed(h), lambda: E.act_left(h, x), lambda: E.act_right(x, h)):
                with pytest.raises(ValueError, match=f"expected a HeckeElement, got {kind}$"):
                    call()

    def test_the_graded_operand_refuses_anything_but_a_graded_element(self):
        # a HeckeElement used to fail on its missing row, or multiply(h, x)
        # on its algebra's missing _operand, duality_pairing(h, phi) on an
        # index into its Weyl keys, and the sections on its is_homogeneous
        E = ALGEBRAS[5]
        x, phi = E.beta(-1, E.weyl.s0), E.phi(E.weyl.identity)
        for h, kind in ((E.hecke.tau(E.weyl.s0), "HeckeElement"), (E.weyl.s0, "WeylElement"), (1, "int")):
            for call in (
                lambda: E.act_left(E.hecke.one(), h),
                lambda: E.act_right(h, E.hecke.one()),
                lambda: E.involution(h),
                lambda: E.uniformizer_conj(h),
                lambda: E.idempotent_times(0, h),
                lambda: multiply(x, h),
                lambda: multiply(h, x),
                lambda: duality_pairing(h, phi),
                lambda: duality_pairing(phi, h),
                lambda: section_deg2(h),
                lambda: section_deg3(h),
                lambda: section_deg3_symmetric(h),
            ):
                with pytest.raises(ValueError, match=f"^expected a GradedElement, got {kind}$"):
                    call()

    def test_refuses_to_mix_parameters(self):
        E5, E7 = ALGEBRAS[5], ALGEBRAS[7]
        x5, x7 = E5.beta(1, E5.weyl.identity), E7.beta(1, E7.weyl.omega(5))
        h5, h7 = E5.hecke.tau(E5.weyl.s0), E7.hecke.tau(E7.weyl.omega(5))
        f5, f7 = free_letter(E5, B_P), free_letter(E7, B_P)
        for mix in (
            lambda: x5 + x7,
            lambda: x5 - x7,
            lambda: h5 + h7,
            lambda: f5 - f7,
            lambda: f5 * f7,
            lambda: E5.act_left(h7, x5),
            lambda: E5.act_left(h5, x7),
            lambda: E5.act_right(x5, h7),
            lambda: E5.hecke.mul(h5, h7),
            lambda: E5.hecke.mul(h7, h5),
            lambda: x5 * x7,
            lambda: E5.involution(x7),
            lambda: E5.uniformizer_conj(x7),
            lambda: E5.idempotent_times(1, x7),
            lambda: E5.embed(h7),
            lambda: E5.hecke.involution(h7),
            lambda: E5.hecke.uniformizer_conj(h7),
            lambda: duality_pairing(E5.phi(E5.weyl.identity), E7.tau(E7.weyl.identity)),
        ):
            with pytest.raises(ValueError, match="different parameters"):
                mix()
        assert x5 != E7.beta(1, E7.weyl.identity)
        assert h5 != E7.hecke.tau(E7.weyl.s0)
        # equal parameters on another algebra object compare by field
        assert ExtAlgebra(5).hecke.tau(E5.weyl.s0) == h5
        assert ExtAlgebra(5).beta(1, E5.weyl.identity) + x5 == x5.scale(2)
