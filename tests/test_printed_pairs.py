"""The relators and kernel generators as they were printed before their s1
members were derived.

Each pair of Hecke and bimodule relators exchanged by the uniformizer
conjugation is now printed once, for s0, and built again at the s1 blocks
(the side table of presentation.py).  The kernel generators are written
once, each s1 member plus or minus iota of its s0 member, and the kernel
relators are those generators spelled in the free letters.  The lists as
they were printed in full are kept here.  The derived relators must equal
them coefficient for coefficient under both summation bounds, and the
kernel generators term for term, through the map that printed_order
states.  A wrong entry in the s1 row of the side table, or in the one
statement of the kernel, must fail the relators or the kernel suite on
the members derived from it.
"""

from __future__ import annotations

import inspect

import pytest

from heckext import ExtAlgebra, presentation, sections, verify
from heckext.graded import BasisSymbol
from heckext.presentation import (
    B_M, B_P, B_Z0, B_Z1, T_S0, T_S1, T_W0, free_idempotent, free_letter, free_one,
)
from heckext.sections import TensorExpression, tensor_act

PRIMES = (5, 7, 13, 31)


def printed_hecke_relators(alg, bound="p-2"):
    p = alg.field.p
    tw = free_letter(alg, T_W0)
    ts0 = free_letter(alg, T_S0)
    ts1 = free_letter(alg, T_S1)
    one = free_one(alg)
    eps1 = free_idempotent(alg, 0, bound)
    return [
        tw ** (p - 1) - one,
        tw * ts0 - ts0 * tw ** (p - 2),
        tw * ts1 - ts1 * tw ** (p - 2),
        ts0 * ts0 + eps1 * ts0,
        ts1 * ts1 + eps1 * ts1,
    ]


def printed_bimodule_relators(alg, bound="p-2"):
    p = alg.field.p
    F = alg.field
    tw = free_letter(alg, T_W0)
    ts0 = free_letter(alg, T_S0)
    ts1 = free_letter(alg, T_S1)
    bm = free_letter(alg, B_M)
    bp = free_letter(alg, B_P)
    bz0 = free_letter(alg, B_Z0)
    bz1 = free_letter(alg, B_Z1)
    eps1 = free_idempotent(alg, 0, bound)
    eps_id = free_idempotent(alg, 1, bound)
    eps_idinv = free_idempotent(alg, -1, bound)
    half = (p - 1) // 2
    qs0 = ts0 + eps1
    qs1 = ts1 + eps1
    usq = F.root_pow(2)
    uinv = F.root_pow(-2)
    return [
        ts1 * bm,
        ts0 * bp,
        bp * ts0,
        bm * ts1,
        qs0 * bm * qs0 + (eps_id * bz0).scale(2) + tw ** half * bp,
        qs1 * bp * qs1 - (eps_idinv * bz1).scale(2) + tw ** half * bm,
        ts0 * bz1 + bz0 * ts1,
        ts1 * bz0 + bz1 * ts0,
        qs0 * bz0 + eps_id * ts0 * bm,
        qs1 * bz1 - eps_idinv * ts1 * bp,
        bz0 * qs0 + eps_idinv * bm * ts0,
        bz1 * qs1 - eps_id * bp * ts1,
        tw * bm - (bm * tw).scale(uinv),
        tw * bp - (bp * tw).scale(usq),
        tw * bz0 - bz0 * tw ** (p - 2),
        tw * bz1 - bz1 * tw ** (p - 2),
    ]


def printed_kernel_relators(alg, bound="p-2"):
    tw = free_letter(alg, T_W0)
    ts0 = free_letter(alg, T_S0)
    ts1 = free_letter(alg, T_S1)
    bm = free_letter(alg, B_M)
    bp = free_letter(alg, B_P)
    bz0 = free_letter(alg, B_Z0)
    bz1 = free_letter(alg, B_Z1)
    eps1 = free_idempotent(alg, 0, bound)
    eps_id = free_idempotent(alg, 1, bound)
    eps_idinv = free_idempotent(alg, -1, bound)
    qs0 = ts0 + eps1
    qs1 = ts1 + eps1
    return [
        bm * bm,
        bp * bm,
        bz1 * bm,
        bm * bp,
        bp * bp,
        bz0 * bp,
        bp * bz0,
        bz1 * bz0,
        bm * bz1,
        bz0 * bz1,
        bz0 * bz0 + eps_idinv * bm * bz0 + eps_id * bz0 * bm + eps1 * bm * ts0 * bm,
        bz1 * bz1 - eps_id * bp * bz1 - eps_idinv * bz1 * bp + eps1 * bp * ts1 * bp,
        bz0 * bm * ts0 - ts0 * bm * bz0,
        bz1 * bp * ts1 - ts1 * bp * bz1,
        qs1 * bp * bz1 * bp + qs0 * bm * bz0 * bm,
    ]


def printed_candidate_kernel_deg2(alg):
    W = alg.weyl
    one = W.identity
    bm = BasisSymbol(1, -1, one)
    bp = BasisSymbol(1, 1, one)
    bz0 = BasisSymbol(1, 0, W.s0)
    bz1 = BasisSymbol(1, 0, W.s1)
    t2 = lambda terms: TensorExpression.from_terms(alg, 2, terms)
    e_left = lambda m, c, s1, s2: tensor_act(
        alg.hecke.idempotent(m), t2([(c, (s1, s2))]), "left"
    )

    gens = [
        t2([(1, (bm, bm))]),
        t2([(1, (bp, bm))]),
        t2([(1, (bz1, bm))]),
        t2([(1, (bp, bz0))]),
        t2([(1, (bz1, bz0))]),
        t2([(1, (bm, bp))]),
        t2([(1, (bp, bp))]),
        t2([(1, (bz0, bp))]),
        t2([(1, (bm, bz1))]),
        t2([(1, (bz0, bz1))]),
    ]
    # the two quadratic combinations
    gens.append(
        t2([(1, (bz0, bz0))])
        + e_left(-1, 1, bm, bz0)
        + e_left(1, 1, bz0, bm)
        + e_left(0, -1, bm, BasisSymbol(1, 1, W.s0))
    )
    gens.append(
        t2([(1, (bz1, bz1))])
        + e_left(1, -1, bp, bz1)
        + e_left(-1, -1, bz1, bp)
        + e_left(0, -1, bp, BasisSymbol(1, -1, W.s1))
    )
    # the two mixed relations
    gens.append(
        t2([
            (1, (BasisSymbol(1, 1, W.s0), bz0)),
            (1, (bz0, BasisSymbol(1, -1, W.s0))),
        ])
    )
    gens.append(
        t2([
            (1, (BasisSymbol(1, -1, W.s1), bz1)),
            (1, (bz1, BasisSymbol(1, 1, W.s1))),
        ])
    )
    return gens


def printed_kernel_generators(alg):
    W = alg.weyl
    one = W.identity
    gens = list(printed_candidate_kernel_deg2(alg))
    t3 = lambda c, syms: TensorExpression.from_terms(alg, 3, [(c, syms)])
    part1 = tensor_act(
        alg.hecke.tau(W.s1) + alg.hecke.idempotent(0),
        t3(1, (BasisSymbol(1, 1, one), BasisSymbol(1, 0, W.inv(W.s1)), BasisSymbol(1, 1, one))),
        "left",
    )
    part0 = tensor_act(
        alg.hecke.tau(W.s0) + alg.hecke.idempotent(0),
        t3(1, (BasisSymbol(1, -1, one), BasisSymbol(1, 0, W.inv(W.s0)), BasisSymbol(1, -1, one))),
        "left",
    )
    gens.append(part1 + part0)
    return gens


RELATOR_LISTS = [
    (presentation.hecke_relators, printed_hecke_relators),
    (presentation.bimodule_relators, printed_bimodule_relators),
    (presentation.kernel_relators, printed_kernel_relators),
]


@pytest.mark.parametrize("bound", ["p-2", "p-1"])
@pytest.mark.parametrize("p", PRIMES)
def test_the_derived_relators_are_the_printed_ones(p, bound):
    for derived, printed in RELATOR_LISTS:
        got = [r.coeffs for r in derived(ExtAlgebra(p), bound)]
        assert got == [r.coeffs for r in printed(ExtAlgebra(p), bound)], derived.__name__


def printed_order(alg, generators):
    """The derived generators mapped onto the printed list: the monomials
    back from the relators' order to the printed one, and the middle slot
    beta^0_s of each term of the degree-3 generator times tau_c, c =
    omega^half, the printed beta^0_(s^-1).  tau_c is central and tau_c^2 = 1,
    so both degree-3 generators generate one ideal."""
    monomials = generators[:10]
    W = alg.weyl
    tau_c = alg.hecke.tau(W.omega(W.half))
    assert tau_c * tau_c == alg.hecke.one()
    terms = []
    for (head, middle, tail), c in generators[14].coeffs.items():
        [(image, k)] = alg._operand(alg.act_left(tau_c, alg.symbol_element(middle))).items()
        terms.append((c * k, (head, image, tail)))
    degree3 = TensorExpression.from_terms(alg, 3, terms)
    return [monomials[i] for i in (0, 1, 2, 6, 7, 3, 4, 5, 8, 9)] + generators[10:14] + [degree3]


@pytest.mark.parametrize("p", PRIMES)
def test_the_derived_kernel_generators_are_the_printed_ones(p):
    alg = ExtAlgebra(p)
    derived = sections.kernel_generators(alg)
    got = [(g.arity, g.coeffs) for g in printed_order(alg, derived)]
    assert got == [(g.arity, g.coeffs) for g in printed_kernel_generators(alg)]
    assert [(g.arity, g.coeffs) for g in derived[:10]] != got[:10]  # the monomials were reordered


def failing(suite: str) -> set[str]:
    return {r.name for r in verify.run_suite(ExtAlgebra(5), suite, max_length=2) if not r.ok}


# The s1 row of the side table with one wrong entry, and the checks that
# must then fail: the derived s1 members that read the entry.
RELATOR_SIDE_MUTANTS = {
    "the -1 on the B_z blocks dropped": (
        (T_S1, T_S0, B_P, B_M, B_Z1, B_Z0, -1, 1, 1),
        {"bimodule_06", "bimodule_10", "bimodule_12"},
    ),
    "e_id left unswapped": (
        (T_S1, T_S0, B_P, B_M, B_Z1, B_Z0, 1, -1, -1),
        {"bimodule_06", "bimodule_10", "bimodule_12"},
    ),
}


@pytest.mark.parametrize("mutant", RELATOR_SIDE_MUTANTS)
def test_a_wrong_s1_block_fails_the_relators(monkeypatch, mutant):
    side, derived = RELATOR_SIDE_MUTANTS[mutant]
    assert failing("relators") == set()
    monkeypatch.setattr(presentation, "_SIDES", (presentation._SIDES[0], side))
    assert failing("relators") == {f"relator_{name}" for name in derived}


# One wrong entry in the statement of the kernel generators, and the checks
# that must then fail: the generator in the kernel suite and its relator in
# the relators suite.
# (A sign dropped from +-iota of a pair member is not one: the member stays
# in the kernel; the term-for-term comparison above sees it.)
KERNEL_MUTANTS = {
    "e_id written e_0": (("e(1, bz0)", "e(0, bz0)"), {
        "kernel_gen_11", "relator_kernel_11", "kernel_gen_12", "relator_kernel_12"}),
    "the s1 half added with the sign of iota": (
        ("-iota(half)", "iota(half)"), {"kernel_gen_15", "relator_kernel_15"}),
}


@pytest.mark.parametrize("mutant", KERNEL_MUTANTS)
def test_a_wrong_entry_fails_the_generator_and_its_relator(monkeypatch, mutant):
    (right, wrong), derived = KERNEL_MUTANTS[mutant]
    assert failing("kernel") == failing("relators") == set()
    source = inspect.getsource(sections.kernel_generators)
    assert source.count(right) == 1
    namespace = dict(vars(sections))
    exec(source.replace(right, wrong), namespace)
    for module in (sections, presentation, verify):
        monkeypatch.setattr(module, "kernel_generators", namespace["kernel_generators"])
    assert failing("kernel") | failing("relators") == derived
