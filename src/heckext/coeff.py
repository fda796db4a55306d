"""Exact arithmetic in the prime field F_p (p >= 5) and characters of F_p^x.

Everything downstream is linear algebra over F_p.  Scalars are plain int
residues in [0, p); a :class:`PrimeField` instance owns the modulus and a
fixed primitive root u0 of F_p^x.  The root is the smallest one unless
overridden, so results are reproducible across runs.

Characters of the finite torus T0/T1 ~ F_p^x are powers of the fundamental
character ``id`` sending the fixed torus generator to u0; they are
represented by their exponent mod p - 1.
"""

from __future__ import annotations

__all__ = ["PrimeField", "Character"]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


class PrimeField:
    """The field F_p together with a fixed generator of F_p^x.

    >>> F = PrimeField(5)
    >>> F.u0
    2
    >>> F.inv(2)
    3
    """

    __slots__ = ("p", "order", "u0")

    def __init__(self, p: int, primitive_root: int | None = None):
        if not isinstance(p, int) or not _is_prime(p) or p < 5:
            raise ValueError(f"p must be a prime >= 5, got {p!r}")
        self.p = p
        self.order = p - 1
        factors = _prime_factors(self.order)
        if primitive_root is None:
            primitive_root = next(g for g in range(2, p) if self._is_primitive_root(g, factors))
        else:
            primitive_root %= p
            if not self._is_primitive_root(primitive_root, factors):
                raise ValueError(f"{primitive_root} is not a primitive root mod {p}")
        self.u0 = primitive_root

    def _is_primitive_root(self, g: int, factors: list[int]) -> bool:
        """Whether g generates F_p^x; factors are the primes dividing p - 1."""
        return g % self.p != 0 and all(pow(g, self.order // q, self.p) != 1 for q in factors)

    # --- field operations on int residues ---

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inversion of 0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def root_pow(self, e: int) -> int:
        """u0^e with the exponent read mod p - 1."""
        return pow(self.u0, e % self.order, self.p)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PrimeField)
            and self.p == other.p
            and self.u0 == other.u0
        )

    def __hash__(self):
        return hash((self.p, self.u0))

    def __repr__(self):
        return f"PrimeField({self.p}, primitive_root={self.u0})"


class Character:
    """The character id^m of the finite torus, m read mod p - 1.

    ``id`` sends the generator omega_u0 of the torus to u0, so id^m sends
    the e-th power of the generator to u0^(m*e).
    """

    __slots__ = ("field", "m")

    def __init__(self, field: PrimeField, m: int):
        self.field = field
        self.m = m % field.order

    def compose(self, other: "Character") -> "Character":
        return Character(self.field, self.m + other.m)

    def inverse(self) -> "Character":
        return Character(self.field, -self.m)

    def power(self, k: int) -> "Character":
        return Character(self.field, self.m * k)

    def eval_exponent(self, e: int) -> int:
        """Value at the e-th power of the fixed torus generator."""
        return self.field.root_pow(self.m * e)

    @property
    def is_trivial(self) -> bool:
        return self.m == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.m == other.m
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.field.p, self.m))

    def __repr__(self):
        return f"Character(id^{self.m} mod {self.field.p})"
