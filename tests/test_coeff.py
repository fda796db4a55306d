import pytest
from hypothesis import given
from hypothesis import strategies as st

from heckext.coeff import Character, PrimeField


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

    def test_frozen_examples_p5(self):
        F = PrimeField(5)
        assert F.inv(4) == 4  # 4*4 = 16 = 1
        assert F.inv(2) == 3  # extended Euclid: 2*3 = 6 = 1
        assert F.add(3, 4) == 2

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
        assert F.add(a, b) == (a + b) % 7
        assert F.sub(a, b) == (a - b) % 7
        assert F.mul(a, b) == (a * b) % 7
        assert F.add(a, F.neg(a)) == 0
        if a % 7:
            assert F.mul(a, F.inv(a)) == 1


class TestCharacter:
    def test_frozen_examples_p5(self):
        F = PrimeField(5)
        assert Character(F, 1).eval_exponent(1) == 2          # id of the generator
        assert Character(F, 0).eval_exponent(7) == 1          # trivial character
        assert Character(F, 2).eval_exponent(3) == pow(2, 6 % 4, 5) == 4

    @given(
        st.sampled_from([5, 7, 11]),
        st.integers(-20, 20),
        st.integers(-20, 20),
        st.integers(-30, 30),
    )
    def test_multiplicative_in_the_character(self, p, m1, m2, e):
        F = PrimeField(p)
        a, b = Character(F, m1), Character(F, m2)
        lhs = a.compose(b).eval_exponent(e)
        assert lhs == F.mul(a.eval_exponent(e), b.eval_exponent(e))

    @given(st.sampled_from([5, 7, 11]), st.integers(-10, 10), st.integers(-30, 30))
    def test_periodic_in_the_exponent(self, p, m, e):
        F = PrimeField(p)
        lam = Character(F, m)
        assert lam.eval_exponent(e) == lam.eval_exponent(e + p - 1)

    @given(st.sampled_from([5, 7, 11]), st.integers(-10, 10), st.integers(-30, 30))
    def test_evaluation_by_modular_exponentiation_oracle(self, p, m, e):
        F = PrimeField(p)
        assert Character(F, m).eval_exponent(e) == pow(F.u0, (m * e) % (p - 1), p)

    def test_inverse_and_trivial(self):
        F = PrimeField(7)
        lam = Character(F, 2)
        assert lam.compose(lam.inverse()).is_trivial
