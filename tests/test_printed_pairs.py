"""The relators and kernel generators as they were printed before their s1
members were derived.

Each pair exchanged by the uniformizer conjugation is now printed once, for
s0, and built again at the s1 blocks (the side tables of presentation.py
and sections.py).  The lists as they were printed in full are kept here,
and the derived lists must equal them: the relators coefficient for
coefficient under both summation bounds, the kernel generators term for
term and in order.  A wrong entry in the s1 row of a side table must fail
the relators or the kernel suite on the derived members.
"""

from __future__ import annotations

import pytest

from heckext import ExtAlgebra, presentation, sections, verify
from heckext.graded import BasisSymbol
from heckext.presentation import (
    B_M, B_P, B_Z0, B_Z1, T_S0, T_S1, T_W0, free_idempotent, free_letter, free_one,
)
from heckext.sections import TensorExpression, tensor_act
from heckext.weyl import S1

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
KERNEL_LISTS = [
    (sections.candidate_kernel_deg2, printed_candidate_kernel_deg2),
    (sections.kernel_generators, printed_kernel_generators),
]


@pytest.mark.parametrize("bound", ["p-2", "p-1"])
@pytest.mark.parametrize("p", PRIMES)
def test_the_derived_relators_are_the_printed_ones(p, bound):
    for derived, printed in RELATOR_LISTS:
        got = [r.coeffs for r in derived(ExtAlgebra(p), bound)]
        assert got == [r.coeffs for r in printed(ExtAlgebra(p), bound)], derived.__name__


@pytest.mark.parametrize("p", PRIMES)
def test_the_derived_kernel_generators_are_the_printed_ones(p):
    for derived, printed in KERNEL_LISTS:
        got = [(g.arity, g.terms) for g in derived(ExtAlgebra(p))]
        assert got == [(g.arity, g.terms) for g in printed(ExtAlgebra(p))], derived.__name__


def failing(suite: str) -> set[str]:
    return {r.name for r in verify.run_suite(ExtAlgebra(5), suite, max_length=2) if not r.ok}


# The s1 row of each side table with one wrong entry, and the checks that
# must then fail: the derived s1 members that read the entry.
RELATOR_SIDE_MUTANTS = {
    "the -1 on the B_z blocks dropped": (
        (T_S1, T_S0, B_P, B_M, B_Z1, B_Z0, -1, 1, 1),
        {"bimodule_06", "bimodule_10", "bimodule_12", "kernel_12"},
    ),
    "e_id left unswapped": (
        (T_S1, T_S0, B_P, B_M, B_Z1, B_Z0, 1, -1, -1),
        {"bimodule_06", "bimodule_10", "bimodule_12", "kernel_12"},
    ),
}
KERNEL_SIDE_MUTANTS = {
    "the -1 on the B_z blocks dropped": ((S1, 1, -1, 1, 1), {"k2_12"}),
    "e_id left unswapped": ((S1, 1, 1, -1, -1), {"k2_12"}),
}


@pytest.mark.parametrize("mutant", RELATOR_SIDE_MUTANTS)
def test_a_wrong_s1_block_fails_the_relators(monkeypatch, mutant):
    side, derived = RELATOR_SIDE_MUTANTS[mutant]
    assert failing("relators") == set()
    monkeypatch.setattr(presentation, "_SIDES", (presentation._SIDES[0], side))
    assert failing("relators") == {f"relator_{name}" for name in derived}


@pytest.mark.parametrize("mutant", KERNEL_SIDE_MUTANTS)
def test_a_wrong_s1_block_fails_the_kernel_generators(monkeypatch, mutant):
    side, derived = KERNEL_SIDE_MUTANTS[mutant]
    assert failing("kernel") == set()
    monkeypatch.setattr(sections, "_SIDES", (sections._SIDES[0], side))
    # kernel_gen_12 is the same generator as kernel_k2_12
    assert failing("kernel") == {f"kernel_{name}" for name in derived} | {"kernel_gen_12"}
