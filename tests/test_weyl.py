"""Weyl group tests, including an exact 2x2 monomial-matrix oracle.

The oracle multiplies canonical matrix representatives whose entries are
Teichmueller lifts times powers of the uniformizer; such entries multiply
exactly, represented as (unit residue mod p, valuation).  Products of the
generator matrices never leave this form, and the only diagonal matrix of
this form congruent to the identity modulo the pro-p torus is the
identity itself, so matrix equality is group equality.
"""

import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckext.weyl import S0, S1, WeylElement, WeylGroup
from heckext.coeff import PrimeField


def group(p=5):
    return WeylGroup(PrimeField(p))


# --- exact monomial matrices: entries (unit residue, valuation) ---


def _emul(p, a, b):
    return ((a[0] * b[0]) % p, a[1] + b[1])


def mat_mul(p, m1, m2):
    k1, x1, y1 = m1
    k2, x2, y2 = m2
    if k1 == "d" and k2 == "d":
        return ("d", _emul(p, x1, x2), _emul(p, y1, y2))
    if k1 == "d" and k2 == "a":
        return ("a", _emul(p, x1, x2), _emul(p, y1, y2))
    if k1 == "a" and k2 == "d":
        return ("a", _emul(p, x1, y2), _emul(p, y1, x2))
    return ("d", _emul(p, x1, y2), _emul(p, y1, x2))


def mat_inv(p, m):
    kind, x, y = m
    xinv = (pow(x[0], p - 2, p), -x[1])
    yinv = (pow(y[0], p - 2, p), -y[1])
    if kind == "d":
        return ("d", xinv, yinv)
    return ("a", yinv, xinv)


def matrix_of(W, w):
    """Canonical matrix representative of a normal form."""
    p = W.field.p
    u = pow(W.field.u0, w.exp, p)
    m = ("d", (pow(u, p - 2, p), 0), (u, 0))  # torus part diag(u^-1, u)
    s0 = ("a", (1, 0), (p - 1, 0))            # [[0, 1], [-1, 0]]
    s1 = ("a", (p - 1, -1), (1, 1))           # [[0, -1/pi], [pi, 0]]
    for letter in w.word:
        m = mat_mul(p, m, s0 if letter == S0 else s1)
    return m


def all_normal_forms(W, max_length):
    words = [()]
    for ln in range(1, max_length + 1):
        for first in (S0, S1):
            words.append(tuple((first + j) % 2 for j in range(ln)))
    return [WeylElement(W, e, word) for word in words for e in range(W.n)]


@st.composite
def weyl_elements(draw, W, max_length=6):
    ln = draw(st.integers(0, max_length))
    first = draw(st.sampled_from((S0, S1)))
    exp = draw(st.integers(0, W.n - 1))
    return WeylElement(W, exp, tuple((first + j) % 2 for j in range(ln)))


W5 = group(5)
W7 = group(7)


class TestNormalForm:
    def test_constructor_rejects_non_alternating(self):
        with pytest.raises(ValueError):
            W5.element(0, (S0, S0))

    def test_the_public_constructor_gives_the_normal_form(self):
        # the exponent is read mod p - 1, and the word must alternate in s0, s1
        assert WeylElement(W5, 7, ()) == WeylElement(W5, 3) == W5.omega(3)
        assert WeylElement(W5, -1, [S0, S1]) == W5.element(3, (S0, S1))
        for word in ((S0, S0), (S1, S0, S0), (2,)):
            with pytest.raises(ValueError):
                WeylElement(W5, 0, word)

    # a letter that only compares equal to 0 or 1 (0.0, True) is not one:
    # WeylElement(W, 0, (0.0,)) built, and its repr raised a TypeError
    @pytest.mark.parametrize("word", [(S0, S0), (S1, S0, S0), (2,), (S0, 2), ("s0", "s1"),
                                      (0.0,), (True,), (1, 0.0), (False, True), (S1, S0, 1.0)])
    def test_the_constructor_and_check_refuse_a_word_with_one_message(self, word):
        message = re.escape(f"the word {word!r} is not alternating in s0, s1")
        with pytest.raises(ValueError, match=message):
            WeylElement(W5, 0, word)
        with pytest.raises(ValueError, match=message):
            W5.check(WeylElement(None, 0, word))
        # check refuses a list word, which the constructor reads as a tuple
        with pytest.raises(ValueError, match=re.escape(f"the word {list(word)!r} is not")):
            W5.check(WeylElement(None, 0, list(word)))

    def test_the_public_constructor_refuses_an_exponent_that_is_not_an_int(self):
        for exp in (1.5, "1", None):
            with pytest.raises(ValueError, match="exponent"):
                W5.element(exp, ())

    def test_the_public_constructor_refuses_a_bool_exponent(self):
        """W.element(True, ()) built w(1;): a bool passed isinstance(exp, int)."""
        for exp in (True, False):
            with pytest.raises(ValueError, match=re.escape(f"must be an int, got {exp!r}")):
                W5.element(exp, ())

    def test_omega_refuses_an_exponent_that_is_not_an_int(self):
        """omega(1.5) built w(1.5;), omega(True) built w(1;) and omega("1")
        raised a TypeError."""
        assert W5.omega(7) == W5.omega(-1) == WeylElement(W5, 3)
        for exp in (1.5, True, False, "1", None):
            with pytest.raises(ValueError, match=re.escape(f"must be an int, got {exp!r}")):
                W5.omega(exp)

    def test_simple_refuses_anything_but_s0_and_s1(self):
        """simple(2), simple(-1) and simple(True) all returned s1."""
        assert (W5.simple(S0), W5.simple(S1)) == (W5.s0, W5.s1)
        for i in (2, -1, True, False, 1.0, None, "0"):
            with pytest.raises(ValueError, match=re.escape(f"S0 or S1, got {i!r}")):
                W5.simple(i)

    def test_a_max_length_that_is_not_an_int_at_least_0_is_refused(self):
        """elements(-1) listed the torus, as elements(0) does; basis_symbols(True)
        ran as if given 1; elements(2.5) failed with a TypeError in range."""
        from heckext import ExtAlgebra

        assert W5.elements(0) == list(W5.torus())
        E = ExtAlgebra(5)
        for bad in (-1, True, False, 2.5, "2", None):
            message = re.escape(f"max_length must be an int >= 0, got {bad!r}")
            with pytest.raises(ValueError, match=message):
                W5.elements(bad)
            with pytest.raises(ValueError, match=message):
                E.basis_symbols(bad)

    def test_a_public_element_acts_as_its_normal_form(self):
        from heckext import ExtAlgebra
        from heckext.product import multiply

        E = ExtAlgebra(5)
        W = E.weyl
        assert E.tau(WeylElement(W, 7, ())) == E.tau(W.omega(3))
        assert multiply(E.tau(WeylElement(W, 4, (S0,))), E.one()) == E.tau(W.s0)
        with pytest.raises(ValueError):
            E.tau(WeylElement(W, 0, (S0, S0)))

    def test_pickling_keeps_the_normal_form(self):
        for w in all_normal_forms(W7, 3):
            assert pickle.loads(pickle.dumps(w)) == w
            assert type(pickle.loads(pickle.dumps(w))) is WeylElement

    def test_spec_examples(self):
        assert W5.mul(W5.s0, W5.s0) == W5.omega(2)
        assert W5.mul(W5.s0, W5.omega(1)) == W5.element(3, (S0,))
        assert W5.mul(W5.omega(0), W5.element(2, (S0, S1))) == W5.element(2, (S0, S1))
        assert W5.inv(W5.s0) == W5.element(2, (S0,))
        assert W5.inv(W5.omega(1)) == W5.omega(3)
        v = W5.element(0, (S0, S1))
        assert W5.mul(v, W5.inv(v)) == W5.identity

    def test_length_and_lengths_add(self):
        assert W5.element(3, (S0, S1, S0)).length == 3
        assert W5.omega(2).length == 0
        assert W5.lengths_add(W5.s0, W5.s1)
        assert not W5.lengths_add(W5.s0, W5.s0)
        assert W5.lengths_add(W5.s0, W5.omega(1))

    def test_conj_uniformizer(self):
        w = W5.element(1, (S0, S1))
        assert W5.uniformizer_conj(w) == W5.element(3, (S1, S0))
        assert W5.uniformizer_conj(W5.identity) == W5.identity

    def test_unit_square_well_defined_on_the_other_representative(self):
        # replacing the representative by (exp + half, word * c) leaves u^2 fixed
        for e in range(W5.n):
            assert W5.field.root_pow(2 * e) == W5.field.root_pow(2 * (e + W5.half))


class TestMatrixOracle:
    @pytest.mark.parametrize("p", [5, 7])
    def test_representation_faithful_up_to_length_6(self, p):
        W = group(p)
        seen = {}
        for w in all_normal_forms(W, 6):
            m = matrix_of(W, w)
            assert m not in seen, (w, seen[m])
            seen[m] = w

    @pytest.mark.parametrize("p", [5, 7])
    def test_mul_matches_matrix_oracle(self, p):
        W = group(p)
        rng = random.Random(p)
        forms = all_normal_forms(W, 4)
        for _ in range(300):
            v, w = rng.choice(forms), rng.choice(forms)
            prod = W.mul(v, w)
            assert matrix_of(W, prod) == mat_mul(W.field.p, matrix_of(W, v), matrix_of(W, w))

    @pytest.mark.parametrize("p", [5, 7])
    def test_inv_matches_matrix_oracle(self, p):
        W = group(p)
        for w in all_normal_forms(W, 4):
            assert matrix_of(W, W.inv(w)) == mat_inv(W.field.p, matrix_of(W, w))

    def test_spec_derived_mul_example_via_matrices(self):
        # (0;[s0]) * (1;[]) computed with matrices agrees with (3;[s0])
        lhs = mat_mul(5, matrix_of(W5, W5.s0), matrix_of(W5, W5.omega(1)))
        assert lhs == matrix_of(W5, W5.element(3, (S0,)))


class TestGroupLaws:
    @given(weyl_elements(W5), weyl_elements(W5), weyl_elements(W5))
    def test_associative(self, a, b, c):
        assert W5.mul(W5.mul(a, b), c) == W5.mul(a, W5.mul(b, c))

    @given(weyl_elements(W7))
    def test_identity_and_inverse(self, w):
        assert W7.mul(W7.identity, w) == w
        assert W7.mul(w, W7.identity) == w
        assert W7.mul(w, W7.inv(w)) == W7.identity
        assert W7.mul(W7.inv(w), w) == W7.identity

    @given(weyl_elements(W5))
    def test_central_element(self, w):
        c = W5.mul(W5.s0, W5.s0)
        assert W5.mul(c, w) == W5.mul(w, c)

    @given(weyl_elements(W5), weyl_elements(W5))
    def test_length_subadditive_with_cancellation_criterion(self, v, w):
        prod = W5.mul(v, w)
        assert prod.length <= v.length + w.length
        assert (prod.length == v.length + w.length) == W5.lengths_add(v, w)

    @given(weyl_elements(W5), weyl_elements(W5))
    def test_normal_form_alternating(self, v, w):
        word = W5.mul(v, w).word
        assert all(a != b for a, b in zip(word, word[1:]))

    @given(weyl_elements(W7))
    def test_lengths_preserved_by_symmetries(self, w):
        assert W7.inv(w).length == w.length
        assert W7.uniformizer_conj(w).length == w.length

    @given(weyl_elements(W7))
    def test_conj_uniformizer_involutive(self, w):
        assert W7.uniformizer_conj(W7.uniformizer_conj(w)) == w

    @settings(max_examples=30)
    @given(weyl_elements(W5, max_length=3), weyl_elements(W5, max_length=3))
    def test_conj_uniformizer_is_a_homomorphism(self, v, w):
        assert W5.uniformizer_conj(W5.mul(v, w)) == W5.mul(
            W5.uniformizer_conj(v), W5.uniformizer_conj(w)
        )
