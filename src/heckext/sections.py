"""Section maps of the multiplication map and the kernel-generator lists.

Tensor expressions are combinations of the core in coeff.py keyed on
tuples of degree-1 slots; they are kept syntactic on purpose.  A slot is a
degree-1 basis symbol or a degree-1 character key (m, 1, sign, word),
which stands for e_m s0 (graded.py).  The tensor product is over the
degree-0 subalgebra, so e_m s0 is one element of one slot, not p - 1
terms.  == compares the maps of slot tuples; as the tensor module has no
canonical basis here, that is no normal form, and expressions are
compared in E* through their evaluation under the multiplication map.

The degree-2 and degree-3 sections are written rows: one row per sign
for supports of length >= 1, and at a torus support omega^e four terms
in degree 2 and two in degree 3, however large p is.  A torus idempotent
e_m x there is written as the character key of x in the head slot, and
no row is built by the product engine, so the suites that evaluate the
sections check them against an engine that did not build them.  Rows
are stated for s0 and sign -1; the rest is the image under the
uniformizer conjugation of the section of the conjugate symbol.

The kernel generators are written once, for s0, with the same character
keys; each s1 member is plus or minus iota of its s0 member, and the kernel
relators are the generators spelled in the free letters (presentation.py).

The section of one symbol is a pure function of (algebra, symbol), so it
is derived once, in the algebra's section memo, keyed (degree, symbol),
which applies iota itself.  The symmetric degree-3 section at a torus
support, which differs from the degree-3 one there, is keyed ("symmetric",
symbol): its average is made once, at the identity, and pushed by the right
torus shift of the last slot.  The memo's values are the maps of the
expressions, read-only (MappingProxyType), and each read wraps one
uncopied in a new expression: an expression holds its algebra, and the
memo holds none.  Evaluation multiplies the slots of each term left to
right on symbolic rows, as the product engine does, and returns the
element of the summed row.
"""

from __future__ import annotations

from functools import wraps
from types import MappingProxyType

from .coeff import Combination, add_into, check_coefficient
from .graded import BasisSymbol, ExtAlgebra, GradedElement
from .hecke import HeckeElement
from .product import _graded_algebra, _multiply
from .weyl import S0, S1, _weyl

__all__ = [
    "TensorExpression",
    "section_deg2",
    "section_deg3",
    "section_deg3_symmetric",
    "tensor_act",
    "kernel_generators",
]


class TensorExpression(Combination):
    """Formal sum of scalar-weighted tuples of degree-1 slots: coeffs maps
    each tuple of slots to a residue in [1, p), and the vector-space
    structure and == (of the maps) are the core's.

    A slot is a degree-1 BasisSymbol or a degree-1 character key (m, 1,
    sign, word), which stands for e_m s0, s0 the symbol at torus exponent
    0: a section at a torus support keeps its idempotent as one slot.
    Deliberately syntactic: the map is no normal form (the tensor module
    has no canonical basis here), so expressions are compared in E*
    through their evaluation.  There is no product of two expressions.
    """

    __slots__ = ("coeffs",)

    @classmethod
    def from_terms(cls, alg: ExtAlgebra, arity: int, terms) -> "TensorExpression":
        """The sum of the terms (c, slots), refusing a coefficient that is not
        an int, a slot tuple of another arity and a slot that is not one of
        alg (_check_slot)."""
        coeffs: dict = {}
        for c, syms in terms:
            check_coefficient(c)
            syms = tuple(syms)
            if len(syms) != arity:
                raise ValueError("mixed arities in tensor expression")
            for s in syms:
                _check_slot(alg, s)
            coeffs[syms] = coeffs.get(syms, 0) + c
        return cls.make(alg, coeffs)

    @property
    def arity(self) -> int:
        """The number of slots of each term, 0 for the zero expression."""
        return len(next(iter(self.coeffs), ()))

    def __add__(self, other, scale: int = 1):
        if type(other) is type(self) and self.coeffs and other.coeffs and self.arity != other.arity:
            raise ValueError("cannot add tensor expressions of different arity")
        return super().__add__(other, scale)

    def __reduce__(self):  # copy and pickle a memo read's read-only map as a dict
        return TensorExpression, (self.algebra, dict(self.coeffs))

    def evaluate(self) -> GradedElement:
        """Image under the multiplication map: left-to-right products."""
        alg = self.algebra
        p = alg.field.p
        total: dict = {}
        for syms, c in self.coeffs.items():
            acc = {syms[0]: 1}
            for s in syms[1:]:
                if not acc:
                    break
                acc = _multiply(alg, acc, {s: 1})
            add_into(total, acc.items(), c, p)
        return GradedElement(alg, total)

    def __repr__(self):
        if not self.coeffs:
            return "0 (tensor)"
        # a character key e_m s0 is spelled e(m)*s0
        base = self.algebra._base
        slot = lambda s: repr(s) if len(s) == 3 else f"e({s[0]})*{base(s)!r}"
        return " + ".join(f"{c}*({' @ '.join(map(slot, syms))})" for syms, c in self.coeffs.items())


def _check_slot(alg: ExtAlgebra, s) -> None:
    """Refuse s unless it is a degree-1 symbol of alg (ExtAlgebra._check_symbol)
    or a degree-1 character key (m, 1, sign, word) whose index is an int in
    [0, p - 1) and whose symbol at torus exponent 0 is one of alg."""
    if type(s) is tuple and len(s) == 4:
        m, d, sign, word = s
        if type(m) is not int or not 0 <= m < alg.weyl.n:
            raise ValueError(f"the index of the slot {s!r} is not an int in [0, {alg.weyl.n})")
        s = BasisSymbol(d, sign, _weyl((0, word)))
    alg._check_symbol(s)
    if s[0] != 1:
        raise ValueError(f"tensor slots must be degree-1 symbols or character keys, got {s!r}")


def tensor_act(h: HeckeElement, t: TensorExpression, side: str) -> TensorExpression:
    """Apply a degree-0 element to the outer slot of every term, through the
    public act_left or act_right, on the element of the slot's one key;
    each term of the row the result is read as (_operand) becomes one slot."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    alg = t.algebra
    terms = []
    for syms, c in t.coeffs.items():
        if side == "left":
            row = alg._operand(alg.act_left(h, GradedElement(alg, {syms[0]: 1})))
            terms.extend((c * cz, (z,) + syms[1:]) for z, cz in row.items())
        else:
            row = alg._operand(alg.act_right(GradedElement(alg, {syms[-1]: 1}), h))
            terms.extend((c * cz, syms[:-1] + (z,)) for z, cz in row.items())
    return TensorExpression.from_terms(alg, t.arity, terms)


def _map_slots(t: TensorExpression, fn, sign: int = 1, reverse: bool = False) -> TensorExpression:
    """Apply fn, the row form of J or the uniformizer conjugation, to every
    slot, in reversed slot order if asked, and multiply each term by sign and
    the units.  Both take one key to one key with a unit, a character key
    to a character key."""
    terms = []
    for syms, c in t.coeffs.items():
        coeff = c * sign
        out = []
        for s in reversed(syms) if reverse else syms:
            [(image, cs)] = fn({s: 1}).items()
            coeff *= cs
            out.append(image)
        terms.append((coeff, tuple(out)))
    return TensorExpression.from_terms(t.algebra, t.arity, terms)


def tensor_involution(t: TensorExpression) -> TensorExpression:
    """The anti-involution on tensors: reverse slots with the permutation sign."""
    sign = -1 if (t.arity * (t.arity - 1) // 2) % 2 else 1
    return _map_slots(t, t.algebra._involution, sign, reverse=True)


def tensor_uniformizer_conj(t: TensorExpression) -> TensorExpression:
    return _map_slots(t, t.algebra._uniformizer_conj)


def _memoized(tag):
    """Read the section of one symbol from the algebra's section memo, keyed
    (tag, symbol), and on a miss derive it: iota (which swaps s0 and s1, and
    the signs at a torus support) of the section of iota(sym) when the word
    starts with s1 or the support is a torus element of sign +, else the
    decorated function's row.  Each read wraps the memo's read-only map
    uncopied in a new expression: a memo of expressions, which hold their
    algebra, would keep it alive until the collector's next full pass."""

    def decorate(build):
        @wraps(build)
        def section(alg: ExtAlgebra, sym: BasisSymbol) -> TensorExpression:
            key = (tag, sym)
            coeffs = alg._section_cache.get(key)
            if coeffs is None:
                word = sym.support.word
                if word[:1] == (S1,) or (not word and sym.sign == 1):
                    unit, image = alg._symbol_uniformizer_conj(sym)
                    built = _map_slots(section(alg, image), alg._uniformizer_conj, unit)
                else:
                    built = build(alg, sym)
                coeffs = alg._section_cache[key] = MappingProxyType(built.coeffs)
            return TensorExpression(alg, coeffs)

        return section

    return decorate


# --- the degree-2 section ---


@_memoized(2)
def _section2_symbol(alg: ExtAlgebra, sym: BasisSymbol) -> TensorExpression:
    W = alg.weyl
    w = sym.support
    b = lambda sign, supp: BasisSymbol(1, sign, supp)
    if w.length >= 1:
        if sym.sign == -1:
            term = (-1, (b(0, W.s0), b(-1, W.mul(W.inv(W.s0), w))))
        elif sym.sign == 0:
            term = (-1, (b(-1, W.identity), b(1, w)))
        else:
            term = (1, (b(-1, W.identity), b(0, w)))
        return TensorExpression.from_terms(alg, 2, [term])
    # sign -1 at w = omega^e: -u0^(-2e) e_0 bm_1 @ b0_s0 - u0^(-e) e_1 bm_1 @ bp_s0
    # - e_2 b0_s0 @ bm_1 + bp_s0 @ b0_(s0^-1 w), each e_m x the character key
    # (m, 1, sign, word) of x at exponent 0, on the head slot
    u = alg.field.root_pow
    return TensorExpression.from_terms(alg, 2, [
        (-u(-2 * w.exp), ((0, 1, -1, ()), b(0, W.s0))),
        (-u(-w.exp), ((1, 1, -1, ()), b(1, W.s0))),
        (-1, ((2, 1, 0, (S0,)), b(-1, W.identity))),
        (1, (b(1, W.s0), b(0, W.mul(W.inv(W.s0), w)))),
    ])


def _sum_of_sections(name: str, arity: int, x: GradedElement, section) -> TensorExpression:
    """The sum over the terms c sym of x, of degree arity, of c times
    section(alg, sym); for a single symbol of coefficient 1 it is that
    section, its memo map uncopied.  Anything but a GradedElement is
    refused by name."""
    alg = _graded_algebra(x)
    if not x.is_homogeneous(arity):
        raise ValueError(f"{name} expects a degree-{arity} element")
    if len(x.coeffs) == 1:
        [(sym, c)] = x.coeffs.items()
        if c == 1:
            return section(alg, sym)
    total: dict = {}
    for sym, c in x.coeffs.items():
        add_into(total, section(alg, sym).coeffs.items(), c, alg.field.p)
    return TensorExpression(alg, total)


def section_deg2(x: GradedElement) -> TensorExpression:
    """A linear section of the degree-2 multiplication map."""
    return _sum_of_sections("section_deg2", 2, x, _section2_symbol)


# --- the degree-3 section ---


@_memoized(3)
def _section3_symbol(alg: ExtAlgebra, sym: BasisSymbol) -> TensorExpression:
    W = alg.weyl
    w = sym.support
    b = lambda sign, supp: BasisSymbol(1, sign, supp)
    if w.length >= 1:
        row = (b(-1, W.identity), b(0, W.s0), b(-1, W.mul(W.inv(W.s0), w)))
        return TensorExpression.from_terms(alg, 3, [(-1, row)])
    # torus support: (bp_s0 - e_0 bm_1) @ b0_s0 @ bm_(omega^half w), e_0 (the
    # trivial character) a character key on the head slot
    tail = (b(0, W.s0), b(-1, W.omega(W.half + w.exp)))
    return TensorExpression.from_terms(
        alg, 3, [(1, (b(1, W.s0), *tail)), (-1, ((0, 1, -1, ()), *tail))])


def section_deg3(x: GradedElement) -> TensorExpression:
    """A linear section of the degree-3 multiplication map."""
    return _sum_of_sections("section_deg3", 3, x, _section3_symbol)


@_memoized("symmetric")
def _symmetric_torus_symbol(alg: ExtAlgebra, sym: BasisSymbol) -> TensorExpression:
    w = sym.support
    if not w.exp:  # the 1/4-average of the four conjugates of the section
        base = _section3_symbol(alg, sym)
        jbase = tensor_involution(base)
        total = base + tensor_uniformizer_conj(base) + jbase + tensor_uniformizer_conj(jbase)
        return total.scale(alg.field.inv(4))
    # tau_w on the last slot: lengths add, so one key goes to one key (_adds_right)
    average = _symmetric_torus_symbol(alg, BasisSymbol(3, None, alg.weyl.identity))
    tau_w = {BasisSymbol(0, None, w): 1}
    return TensorExpression.from_terms(alg, 3, [
        (c * cz, syms[:-1] + (z,)) for syms, c in average.coeffs.items()
        for z, cz in _multiply(alg, {syms[-1]: 1}, tau_w).items()])


def section_deg3_symmetric(x: GradedElement) -> TensorExpression:
    """The section averaged with its conjugates under both involutions.

    Agrees with section_deg3 term by term on supports of length >= 1; at a
    torus support it is the 1/4-average of the four conjugates of the
    section at the identity, pushed over by the right torus action.  It
    commutes with both involutions.
    """
    return _sum_of_sections("section_deg3_symmetric", 3, x, lambda alg, sym: (
        _section3_symbol if sym.support.length else _symmetric_torus_symbol)(alg, sym))


# --- kernel generators ---


def kernel_generators(alg: ExtAlgebra) -> list[TensorExpression]:
    """The ten monomials; the s0 member of each pair followed by its s1
    member, +iota of the quadratic combination and -iota of the mixed
    relation; and the degree-3 generator, -iota of its s0 half plus the s0
    half.  Each e_m x, x at torus exponent 0, is the character key (m, 1,
    sign, word) of x, and (tau_s0 + e_0) B_m is -B_p at s0 plus e_0 B_m."""
    W = alg.weyl
    b = lambda sign, w: BasisSymbol(1, sign, w)
    bm, bp, bz0, bz1 = b(-1, W.identity), b(1, W.identity), b(0, W.s0), b(0, W.s1)
    bp_s0, bm_s0 = b(1, W.s0), b(-1, W.s0)
    e = lambda m, x: (m % W.n, 1, x.sign, x.support.word)
    t = lambda arity, *terms: TensorExpression.from_terms(alg, arity, terms)
    monomials = [t(2, (1, slots)) for slots in ((bm, bm), (bp, bm), (bz1, bm), (bm, bp), (bp, bp),
                                                (bz0, bp), (bp, bz0), (bz1, bz0), (bm, bz1), (bz0, bz1))]
    quadratic = t(2, (1, (bz0, bz0)), (1, (e(-1, bm), bz0)), (1, (e(1, bz0), bm)),
                  (-1, (e(0, bm), bp_s0)))
    mixed = t(2, (1, (bp_s0, bz0)), (1, (bz0, bm_s0)))
    half = t(3, (-1, (bp_s0, bz0, bm)), (1, (e(0, bm), bz0, bm)))
    iota = tensor_uniformizer_conj
    return monomials + [quadratic, iota(quadratic), mixed, -iota(mixed), -iota(half) + half]
