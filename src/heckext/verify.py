"""Verification suites behind `heckext verify` and the acceptance tests.

A check is a name, its cases in order, and a test that returns None when a
case holds and the counterexample (a string, or a value shown by its repr)
when it fails. `_check` runs every check: it stops at the first failing
case; `{n}` in a name is the number of cases run, the failing one included;
and a check that ran no case FAILs with `no cases`. A suite draws all of its
samples before any check runs, so one failing check does not shift the
samples of the next. Results are sorted by check name, so reports are
deterministic given (p, max_length, seed).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import presentation as pres
from .graded import BasisSymbol, ExtAlgebra, GradedElement
from .grammar import render_element
from .product import cup_summand, duality_pairing, multiply
from .sections import (
    TensorExpression,
    candidate_kernel_deg2,
    kernel_generators,
    section_deg2,
    section_deg3,
    section_deg3_symmetric,
    tensor_act,
)
from .weyl import S0, S1, WeylElement

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "run"]


@dataclass
class CheckResult:
    name: str
    ok: bool
    counterexample: str | None = None


def _check(name, cases, test) -> CheckResult:
    n = 0
    for n, case in enumerate(cases, start=1):
        bad = test(case)
        if bad is not None:
            return CheckResult(name.format(n=n), False, bad if isinstance(bad, str) else repr(bad))
    return CheckResult(name.format(n=n), n > 0, None if n else "no cases")


# --- random sampling helpers ---


def _signs(w: WeylElement) -> tuple[int, ...]:
    """The signs of the degree-1 and degree-2 symbols supported at w."""
    return (-1, 1) if w.length == 0 else (-1, 0, 1)


def _random_weyl(rng: random.Random, alg: ExtAlgebra, max_length: int) -> WeylElement:
    W = alg.weyl
    ln = rng.randint(0, max_length)
    if ln == 0:
        word: tuple[int, ...] = ()
    else:
        first = rng.choice((S0, S1))
        word = tuple((first + j) % 2 for j in range(ln))
    return WeylElement(W, rng.randrange(W.n), word)


def _random_symbol(rng, alg, degree, max_length) -> BasisSymbol:
    w = _random_weyl(rng, alg, max_length)
    if degree in (0, 3):
        return BasisSymbol(degree, None, w)
    return BasisSymbol(degree, rng.choice(_signs(w)), w)


def _random_hecke(rng, alg, max_length):
    h = alg.hecke.zero()
    for _ in range(2):
        c = rng.randrange(1, alg.field.p)
        h = h + alg.hecke.tau(_random_weyl(rng, alg, max_length)).scale(c)
    return h


def _vanishes(val: GradedElement, limit: int = 120) -> str | None:
    if val.is_zero:
        return None
    s = render_element(val)
    return "evaluates to " + (s if len(s) <= limit else s[:limit] + " ...")


# --- suites ---


def suite_relators(alg, *, epsilon_bound="p-2", **_):
    return [
        _check(f"relator_{name}", [rel], lambda rel: _vanishes(pres.evaluate(rel)))
        for name, rel in pres.all_relators(alg, epsilon_bound)
    ]


def suite_kernel(alg, **_):
    families = (("gen", kernel_generators(alg)), ("k2", candidate_kernel_deg2(alg)))
    return [
        _check(f"kernel_{kind}_{idx:02d}", [gen], lambda gen: _vanishes(gen.evaluate()))
        for kind, gens in families
        for idx, gen in enumerate(gens, start=1)
    ]


def suite_sections(alg, *, max_length=8, **_):
    deg2 = list(alg.basis_symbols(max_length, degrees=(2,)))
    deg3 = list(alg.basis_symbols(max_length, degrees=(3,)))

    def splits(section):
        def test(sym):
            el = alg.symbol_element(sym)
            return None if section(el).evaluate() == el else f"fails at {sym!r}"
        return test

    def symmetric_splits(sym):
        el = alg.symbol_element(sym)
        t = section_deg3_symmetric(el)
        if t.evaluate() != el or (
            sym.support.length >= 1 and sorted(t.terms) != sorted(section_deg3(el).terms)
        ):
            return f"fails at {sym!r}"

    return [
        _check("sections_deg2_identity_{n}_symbols", deg2, splits(section_deg2)),
        _check("sections_deg3_identity_{n}_symbols", deg3, splits(section_deg3)),
        _check("sections_deg3_symmetric_identity_{n}_symbols", deg3, symmetric_splits),
        _identity_section_fixed_forms(alg),
    ]


def _identity_section_fixed_forms(alg) -> CheckResult:
    """The four conjugate summands of the symmetric section at the identity.

    The frozen forms (built literally, with the inverse supports in the
    middle slot) must each evaluate to phi at the identity, and their
    1/4-average pushed by the right torus action must reproduce phi at
    every torus element.
    """
    W, H = alg.weyl, alg.hecke
    one = W.identity
    e1 = H.idempotent(0)

    def t3(c, syms):
        return TensorExpression.from_terms(alg, 3, [(c, syms)])

    bm, bp = BasisSymbol(1, -1, one), BasisSymbol(1, 1, one)
    forms = [
        tensor_act(H.tau(W.s0) + e1, t3(-1, (bm, BasisSymbol(1, 0, W.inv(W.s0)), bm)), "left"),
        tensor_act(H.tau(W.s1) + e1, t3(1, (bp, BasisSymbol(1, 0, W.inv(W.s1)), bp)), "left"),
        tensor_act(H.tau(W.inv(W.s0)) + e1, t3(-1, (bm, BasisSymbol(1, 0, W.s0), bm)), "right"),
        tensor_act(H.tau(W.inv(W.s1)) + e1, t3(1, (bp, BasisSymbol(1, 0, W.s1), bp)), "right"),
    ]

    # each case is (tensor, the element it must evaluate to, the message if not)
    def cases():
        for k, form in enumerate(forms):
            yield form, alg.phi(one), f"summand {k} misses phi(1)"
        avg = sum(forms[1:], forms[0]).scale(alg.field.inv(4))
        for e in range(W.n):
            pushed = tensor_act(H.tau(W.omega(e)), avg, "right")
            yield pushed, alg.phi(W.omega(e)), f"average misses phi at torus exp {e}"

    return _check("sections_identity_fixed_forms", cases(),
                  lambda c: None if c[0].evaluate() == c[1] else c[2])


_DEGREE_PATTERNS = [
    pattern for pattern in itertools.product(range(4), repeat=3) if sum(pattern) <= 3
]


def suite_assoc(alg, *, max_length=5, samples=1000, seed=0, **_):
    rng = random.Random(f"assoc:{alg.field.p}:{seed}")
    per = max(1, samples // len(_DEGREE_PATTERNS) + 1)

    def draw(degrees):
        return [_random_symbol(rng, alg, d, max_length) for d in degrees]

    def degrees_at_least_4():
        degs = []
        while sum(degs) < 4:
            degs = [rng.randint(0, 3) for _ in range(3)]
        return degs

    low = [draw(pattern) for pattern in _DEGREE_PATTERNS for _ in range(per)]
    high = [draw(degrees_at_least_4()) for _ in range(200)]
    quadruples = [tuple(map(alg.symbol_element, draw((1,) * 4))) for _ in range(50)]

    def associates(syms):
        x, y, z = map(alg.symbol_element, syms)
        if multiply(multiply(x, y), z) != multiply(x, multiply(y, z)):
            return f"triple {syms!r}"

    def both_zero(syms):
        x, y, z = map(alg.symbol_element, syms)
        lhs = multiply(multiply(x, y), z)
        rhs = multiply(x, multiply(y, z))
        if not (lhs.is_zero and rhs.is_zero):
            return f"triple {syms!r}"

    def vanishes(quad):
        a, b, c, d = quad
        ab = multiply(a, b)
        if multiply(ab, multiply(c, d)).is_zero and multiply(multiply(ab, c), d).is_zero:
            return None
        return f"quadruple {quad!r}"

    return [
        _check("assoc_total_le3_{n}_triples", low, associates),
        _check("assoc_total_ge4_zero_{n}_triples", high, both_zero),
        _check("assoc_deg4_vanishes", quadruples, vanishes),
    ]


def suite_involutions(alg, *, max_length=5, samples=500, seed=0, **_):
    rng = random.Random(f"invol:{alg.field.p}:{seed}")
    J, G = alg.involution, alg.uniformizer_conj
    syms = [_random_symbol(rng, alg, rng.randint(0, 3), max_length) for _ in range(samples)]

    def draw_pair():
        da = rng.randint(0, 3)
        db = rng.randint(0, 3 - da) if rng.random() < 0.9 else rng.randint(0, 3)
        return _random_symbol(rng, alg, da, max_length), _random_symbol(rng, alg, db, max_length)

    pairs = [draw_pair() for _ in range(max(500, samples))]

    def holds(law):
        return lambda sym: None if law(alg.symbol_element(sym)) else sym

    def antihom(pair):
        sa, sb = pair
        x, y = alg.symbol_element(sa), alg.symbol_element(sb)
        sign = -1 if (sa.degree * sb.degree) % 2 else 1
        return None if J(multiply(x, y)) == multiply(J(y), J(x)).scale(sign) else pair

    def multiplicative(pair):
        x, y = map(alg.symbol_element, pair)
        return None if G(multiply(x, y)) == multiply(G(x), G(y)) else pair

    return [
        _check("involution_squares_to_id_{n}", syms, holds(lambda x: J(J(x)) == x)),
        _check("uniformizer_conj_squares_to_id_{n}", syms, holds(lambda x: G(G(x)) == x)),
        _check("involutions_commute_{n}", syms, holds(lambda x: G(J(x)) == J(G(x)))),
        _check("involution_graded_antihom_{n}", pairs, antihom),
        _check("uniformizer_conj_multiplicative_{n}", pairs, multiplicative),
    ]


def suite_rightaction(alg, *, max_length=8, **_):
    W, H = alg.weyl, alg.hecke
    supports = W.elements(max_length)

    def act(x, w):
        return alg.act_right(x, H.tau(w))

    # torus action on degrees 1, 2, 3: plain support shift
    def torus_shift(case):
        w, e = case
        t = W.omega(e)
        wt = W.mul(w, t)
        for d in (1, 2):
            for sign in _signs(w):
                got = act(alg.symbol_element(BasisSymbol(d, sign, w)), t)
                if got != alg.symbol_element(BasisSymbol(d, sign, wt)):
                    return (d, sign, w, e)
        if act(alg.phi(w), t) != alg.phi(wt):
            return (3, None, w, e)

    # degree 1, lengths add: branch on the first letter of the product
    pairs = (
        (w, v)
        for w in supports
        for v in supports
        if v.length >= 1 and w.length + v.length <= max_length and W.lengths_add(w, v)
    )

    def lengths_add(pair):
        w, v = pair
        wv = W.mul(w, v)
        cases = [(0, alg.beta(0, wv))] if w.length >= 1 else []
        if wv.word[0] == S0:
            cases += [(-1, alg.beta(-1, wv)), (1, alg.zero())]
        else:
            cases += [(-1, alg.zero()), (1, alg.beta(1, wv))]
        for sign, expected in cases:
            if act(alg.beta(sign, w), v) != expected:
                return (sign, w, v)

    # degree 1, bad side: the two printed sign-0 formulas
    def shortening(v):
        j = v.word[0]
        got = act(alg.beta(0, W.simple(j)), v)
        expected = alg.idempotent_times(0, alg.beta(0, v)).scale(-1)
        if j == S0:
            expected = expected + alg.idempotent_times(-1, alg.beta(-1, v)).scale(-1)
        else:
            expected = expected + alg.idempotent_times(1, alg.beta(1, v))
        return None if got == expected else (j, v)

    # degree 3: right action by simple reflections, both length cases
    def reflection(case):
        w, j = case
        sj = W.simple(j)
        got = act(alg.phi(w), sj)
        if W.lengths_add(w, sj):
            expected = alg.zero()
        else:
            expected = alg.phi(W.mul(w, sj))
            for e in range(W.n):
                expected = expected + alg.phi(W.mul(w, W.omega(e)))
        return None if got == expected else (w, j)

    # idempotent slide laws on degrees 1 and 2, lengths <= 6; the left side
    # acts by the p - 1 terms tau_t of e_m one at a time, not through the
    # character key of act_right, which applies the slide law itself
    idempotents = H.idempotents()
    slid = (
        BasisSymbol(d, sign, w)
        for w in supports
        if w.length <= min(6, max_length)
        for d in (1, 2)
        for sign in _signs(w)
    )

    def slide(sym):
        weight = alg._torus_weight(sym)
        for m, idem in enumerate(idempotents):
            lhs = alg._expand(alg._act_right({sym: 1}, idem.coeffs))
            mprime = (m if sym.support.length % 2 == 0 else -m) + weight
            rhs = alg.idempotent_times(mprime, alg.symbol_element(sym))
            if lhs != rhs.coeffs:
                return (sym, m)

    return [
        _check("rightaction_torus_all_degrees", itertools.product(supports, range(W.n)),
               torus_shift),
        _check("rightaction_deg1_lengths_add_{n}_pairs", pairs, lengths_add),
        _check("rightaction_deg1_shortening", [v for v in supports if v.length >= 1],
               shortening),
        _check("rightaction_deg3_reflections", itertools.product(supports, (S0, S1)),
               reflection),
        _check("rightaction_idempotent_slide", slid, slide),
    ]


def suite_duality(alg, *, max_length=8, samples=1000, seed=0, **_):
    rng = random.Random(f"duality:{alg.field.p}:{seed}")
    supports = alg.weyl.elements(max_length)

    def draw_triple():
        h = _random_hecke(rng, alg, 3)
        d = rng.randint(0, 3)
        x = alg.symbol_element(_random_symbol(rng, alg, d, 4))
        return h, x, alg.symbol_element(_random_symbol(rng, alg, 3 - d, 4))

    triples = [draw_triple() for _ in range(max(100, samples // 5))]

    def phi_tau(w):
        for v in supports:
            if duality_pairing(alg.phi(w), alg.tau(v)) != (1 if v == w else 0):
                return (w, v)

    def beta_alpha(w):
        for sa in _signs(w):
            for sb in _signs(w):
                if duality_pairing(alg.beta(sa, w), alg.alpha(sb, w)) != (1 if sa == sb else 0):
                    return (w, sa, sb)

    def twisted(triple):
        h, x, y = triple
        hx = alg.act_left(h, x)
        jy = alg.act_left(alg.hecke.involution(h), y)
        if duality_pairing(hx, y) != duality_pairing(x, jy):
            return ("left", h, x, y)
        xh = alg.act_right(x, h)
        yjh = alg.act_right(y, alg.hecke.involution(h))
        if duality_pairing(xh, y) != duality_pairing(x, yjh):
            return ("right", h, x, y)

    return [
        _check("duality_phi_tau_{n}_supports", supports, phi_tau),
        _check("duality_beta_alpha", supports, beta_alpha),
        _check("duality_twisted_module_law_{n}", triples, twisted),
    ]


def suite_cup_independent(alg, **_):
    """Recompute the torus-support degree-1 x degree-2 products by the
    length-1 shift and compare with the dual-basis rule."""
    W, H = alg.weyl, alg.hecke

    def torus_constant(case):
        e, sx, sy = case
        omega = W.omega(e)
        x = alg.beta(sx, omega)
        y = alg.alpha(sy, omega)
        route1 = multiply(x, y)
        s, other_sign = (W.s0, 1) if sy == -1 else (W.s1, -1)
        other = alg.alpha(other_sign, W.mul(W.inv(s), omega))
        shift = alg.act_left(H.tau(s), other)
        xi = shift + y
        if xi.support_lengths() - {1}:
            return (e, sx, sy, "shift outside length 1")
        route2 = multiply(x, xi) - multiply(alg.act_right(x, H.tau(s)), other)
        if route1 != route2:
            return (e, sx, sy, "routes disagree")
        target = alg.phi(omega) if sx == sy else alg.zero()
        got = cup_summand(alg, BasisSymbol(1, sx, omega), BasisSymbol(2, sy, omega))
        if got != target:
            return (e, sx, sy, "cup constant wrong")

    cases = itertools.product(range(W.n), (-1, 1), (-1, 1))
    return [_check("cup_torus_constants_via_shift", cases, torus_constant)]


def suite_presentation(alg, *, max_length=8, samples=1000, seed=0, epsilon_bound="p-2", **_):
    rng = random.Random(f"pres:{alg.field.p}:{seed}")

    def draw_word():
        return tuple(rng.randrange(7) for _ in range(rng.randint(0, 6)))

    # two words, then their coefficients
    p = alg.field.p
    products = [(draw_word(), draw_word(), rng.randrange(1, p), rng.randrange(1, p))
                for _ in range(40)]

    def round_trip(sym):
        if pres.evaluate(pres.word_for_basis(alg, sym)) != alg.symbol_element(sym):
            return sym

    def multiplicative(case):
        wa, wb, ca, cb = case
        f, g = pres.FreeElement(alg, {wa: ca}), pres.FreeElement(alg, {wb: cb})
        if pres.evaluate(f * g) != multiply(pres.evaluate(f), pres.evaluate(g)):
            return (wa, wb)

    def free_idempotent(m):
        eps = pres.free_idempotent(alg, m, epsilon_bound)
        if eps.word_count() != p - 1:
            return (m, "term count")
        if pres.evaluate(eps) != alg.embed(alg.hecke.idempotent(m)):
            return (m, "image")

    return [
        _check("presentation_round_trip_{n}_symbols", alg.basis_symbols(max_length), round_trip),
        _check("presentation_evaluate_multiplicative_{n}", products, multiplicative),
        _check("presentation_free_idempotents", range(alg.weyl.n), free_idempotent),
    ]


def suite_e0(alg, *, max_length=8, samples=1000, seed=0, **_):
    rng = random.Random(f"e0:{alg.field.p}:{seed}")
    H, W = alg.hecke, alg.weyl
    idems = H.idempotents()
    e1 = H.idempotent(0)

    def draw(k):
        return [_random_weyl(rng, alg, max_length) for _ in range(k)]

    braids = [draw(2) for _ in range(max(200, samples // 5))]
    triples = [tuple(map(H.tau, draw(3))) for _ in range(samples)]

    # the cases are the ordered pairs of idempotents, then their sum
    def idempotent_system(case):
        if case == "sum":
            return None if sum(idems, H.zero()) == H.one() else "sum is not 1"
        a, b = case
        return None if H.mul(idems[a], idems[b]) == (idems[a] if a == b else H.zero()) else case

    def quadratic(i):
        t = H.tau(W.simple(i))
        return None if H.mul(t, t + e1).is_zero else f"s{i}"

    def braid_and_recursions(pair):
        v, w = pair
        if W.lengths_add(v, w) and H.mul(H.tau(v), H.tau(w)) != H.tau(W.mul(v, w)):
            return (v, w, "braid")
        prod_left = H.mul(H.tau(v), H.tau(w))
        if prod_left != H.mul_right_recursion(H.tau(v), H.tau(w)):
            return (v, w, "left/right recursion")

    def associative(triple):
        a, b, c = triple
        return None if H.mul(H.mul(a, b), c) == H.mul(a, H.mul(b, c)) else triple

    pairs = [*itertools.product(range(len(idems)), repeat=2), "sum"]
    return [
        _check("e0_idempotent_system", pairs, idempotent_system),
        _check("e0_quadratic_relation", (S0, S1), quadratic),
        _check("e0_braid_and_recursions_{n}", braids, braid_and_recursions),
        _check("e0_associativity_{n}_triples", triples, associative),
    ]


SUITES = {
    "relators": suite_relators,
    "kernel": suite_kernel,
    "sections": suite_sections,
    "assoc": suite_assoc,
    "involutions": suite_involutions,
    "rightaction": suite_rightaction,
    "duality": suite_duality,
    "presentation": suite_presentation,
    "cup-independent": suite_cup_independent,
    "e0": suite_e0,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(alg: ExtAlgebra, name: str, **options) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    for option in ("samples", "max_length"):
        if options.get(option, 1) < 1:
            raise ValueError(f"{option} must be >= 1, got {options[option]}")
    results = SUITES[name](alg, **options)
    return sorted(results, key=lambda r: r.name)


def run(alg: ExtAlgebra, suite: str = "all", **options) -> dict[str, list[CheckResult]]:
    names = SUITE_NAMES if suite == "all" else (suite,)
    return {name: run_suite(alg, name, **options) for name in names}
