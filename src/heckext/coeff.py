"""Exact arithmetic in the prime field F_p (p >= 5) and the sparse
F_p-linear combinations every element type is built on.

Everything downstream is linear algebra over F_p.  Scalars are plain int
residues in [0, p); a :class:`PrimeField` instance owns the modulus and a
fixed primitive root u0 of F_p^x.  The root is the smallest one unless
overridden, so results are reproducible across runs.

Characters of the finite torus T0/T1 ~ F_p^x are powers of the fundamental
character ``id`` sending the fixed torus generator to u0; they are
represented by their exponent m mod p - 1, and id^m takes the e-th power
of the generator to root_pow(m * e).

The core.  Hecke, graded and free elements and tensor expressions are
finite maps key -> residue in [1, p) over a parent algebra that owns the
field.  :class:`Combination` gives them the vector-space structure once
(make, +, -, scale, int * x and x * int, is_zero, ==); the subclasses add
their products (``_product``, reached through ``*``; tensor expressions
have none) and renderings.
:func:`add_into` is the one accumulate-mod-p loop; hot loops instead sum
raw ints and reduce once with ``make``.  Elements over
different fields are never combined (:func:`check_parameters`).
"""

from __future__ import annotations

from functools import cache, lru_cache
from operator import attrgetter

__all__ = ["PrimeField", "Combination", "add_into", "check_coefficient", "check_index",
           "check_parameters"]


@cache
def _is_prime(n: int) -> bool:
    """Trial division, memoized per n: each fresh algebra would repeat it."""
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


def _is_primitive_root(g: int, p: int, factors: list[int]) -> bool:
    """Whether g generates F_p^x; factors are the primes dividing p - 1."""
    return g % p != 0 and all(pow(g, (p - 1) // q, p) != 1 for q in factors)


@cache
def _smallest_primitive_root(p: int) -> int:
    factors = _prime_factors(p - 1)
    return next(g for g in range(2, p) if _is_primitive_root(g, p, factors))


@cache
def _root_powers(p: int, u0: int) -> tuple[int, ...]:
    powers = [1]
    for _ in range(p - 2):
        powers.append(powers[-1] * u0 % p)
    return tuple(powers)


@lru_cache(maxsize=256)
def _orbit(p: int, u0: int, step: int) -> tuple[int, ...]:
    """p - u0^(b step), b in [0, p - 1): the coefficients of e_m s0 = -sum_b
    u0^((k - m) b) s_b at step k - m, and of the torus idempotent e_m at -m.
    An entry is a tuple of p - 1 references to the ints of the step-1
    entry, 8 KB at p=1009, so the cache is bounded (2 MB there)."""
    first = [p - u for u in _root_powers(p, u0)] if step == 1 else _orbit(p, u0, 1)
    return tuple([first[b * step % (p - 1)] for b in range(p - 1)])


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
        if primitive_root is None:
            # memoized per prime: each request of a fresh algebra would repeat the search
            primitive_root = _smallest_primitive_root(p)
        elif type(primitive_root) is not int:
            raise ValueError(f"the primitive root must be an int, got {primitive_root!r}")
        elif not _is_primitive_root(primitive_root, p, _prime_factors(self.order)):
            raise ValueError(f"{primitive_root} is not a primitive root mod {p}")
        self.u0 = primitive_root % p

    # --- field operations on int residues ---

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inversion of 0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def root_pow(self, e: int) -> int:
        """u0^e with the exponent read mod p - 1."""
        return pow(self.u0, e % self.order, self.p)

    def root_powers(self) -> tuple[int, ...]:
        """The table (u0^0, ..., u0^(p-2)) of u0^e at e mod p - 1, for the hot
        loops of the torus action; memoized per (p, u0) and built on first use,
        so a fresh field costs nothing until an action reads it."""
        return _root_powers(self.p, self.u0)

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


def check_parameters(a, b) -> None:
    """Refuse to combine elements over parents with different fields (p and
    u0).  The parents of one ExtAlgebra share one field object."""
    if a.field is not b.field and a.field != b.field:
        raise ValueError("elements live over different parameters")


def check_index(m) -> None:
    """Refuse an idempotent index e_m that is not an int (a bool is not one)."""
    if type(m) is not int:
        raise ValueError(f"the idempotent index must be an int, got {m!r}")


def check_coefficient(c) -> None:
    """Refuse a coefficient that is not an int (a bool is not one)."""
    if type(c) is not int:
        raise ValueError(f"a coefficient must be an int, got {c!r}")


def add_into(total: dict, pairs, scale: int, p: int) -> None:
    """total += scale * pairs in place, mod p; pairs is an iterable of
    (key, coeff).  A key whose sum is zero is deleted, so total keeps no
    zero coefficient."""
    if scale % p == 0:
        return
    for k, v in pairs:
        c = (total.get(k, 0) + scale * v) % p
        if c:
            total[k] = c
        elif k in total:
            del total[k]


class Combination:
    """A finite F_p-linear combination of basis keys over a parent algebra.

    ``coeffs`` maps each key to a residue in [1, p); the parent's ``field``
    fixes p.  The constructor stores the map as given; ``make`` reduces it.
    Each subclass declares how ``coeffs`` is stored: a slot (Hecke and free
    elements), or the expansion of a graded element's symbolic row, made on
    the first read (graded.py).  ``scale`` and ``+`` act on ``_terms``, the
    map the constructor takes: ``coeffs`` here, a graded element's row.
    """

    __slots__ = ("algebra",)

    def __init__(self, algebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = coeffs

    # the map scale and + act on, the one the constructor takes
    _terms = property(attrgetter("coeffs"))

    @classmethod
    def make(cls, algebra, coeffs: dict):
        """The combination of arbitrary int coefficients, reduced mod p."""
        p = algebra.field.p
        return cls(algebra, {k: r for k, c in coeffs.items() if (r := c % p)})

    def __add__(self, other, scale: int = 1):
        """self + scale * other; the operator passes scale 1, __sub__ -1."""
        if type(other) is not type(self):
            return NotImplemented
        check_parameters(self.algebra, other.algebra)
        out = dict(self._terms)
        add_into(out, other._terms.items(), scale, self.algebra.field.p)
        return type(self)(self.algebra, out)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: int):
        check_coefficient(c)
        p = self.algebra.field.p
        c %= p
        if c == 0:
            return type(self)(self.algebra, {})
        # c and every stored coefficient are units, so no product vanishes
        return type(self)(self.algebra, {k: c * x % p for k, x in self._terms.items()})

    def __mul__(self, other):
        """x * c is c * x; x * y, both of the same type, is the subclass's
        _product.  Any other operand is NotImplemented."""
        if isinstance(other, int):
            return self.scale(other)
        if type(other) is type(self):
            return self._product(other)
        return NotImplemented

    def __rmul__(self, c):
        if isinstance(c, int):
            return self.scale(c)
        return NotImplemented

    def _product(self, other):  # no product: x * y raises TypeError
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.coeffs == other.coeffs
            and (self.algebra is other.algebra or self.algebra.field == other.algebra.field)
        )
