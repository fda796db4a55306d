"""Verification suites behind `heckext verify` and the acceptance tests.

Each suite returns a list of named checks with an optional counterexample
string; results are sorted by check name so reports are deterministic
given (p, max_length, seed).
"""

from __future__ import annotations

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


def _result(name, ok, detail=None):
    return CheckResult(name, ok, None if ok else (detail or "failed"))


# --- random sampling helpers ---


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
    signs = (-1, 1) if w.length == 0 else (-1, 0, 1)
    return BasisSymbol(degree, rng.choice(signs), w)


def _random_hecke(rng, alg, max_length, terms=2):
    h = alg.hecke.zero()
    for _ in range(terms):
        c = rng.randrange(1, alg.field.p)
        h = h + alg.hecke.tau(_random_weyl(rng, alg, max_length)).scale(c)
    return h


def _show(x: GradedElement, limit: int = 120) -> str:
    s = render_element(x)
    return s if len(s) <= limit else s[:limit] + " ..."


# --- suites ---


def suite_relators(alg, *, epsilon_bound="p-2", **_):
    out = []
    for name, rel in pres.all_relators(alg, epsilon_bound):
        val = pres.evaluate(rel)
        out.append(_result(f"relator_{name}", val.is_zero, f"evaluates to {_show(val)}"))
    return out


def suite_kernel(alg, **_):
    out = []
    for idx, gen in enumerate(kernel_generators(alg), start=1):
        val = gen.evaluate()
        out.append(
            _result(f"kernel_gen_{idx:02d}", val.is_zero, f"evaluates to {_show(val)}")
        )
    for idx, gen in enumerate(candidate_kernel_deg2(alg), start=1):
        val = gen.evaluate()
        out.append(
            _result(f"kernel_k2_{idx:02d}", val.is_zero, f"evaluates to {_show(val)}")
        )
    return out


def suite_sections(alg, *, max_length=8, **_):
    out = []
    bad2 = bad3 = bad3s = None
    n2 = n3 = 0
    for sym in alg.basis_symbols(max_length, degrees=(2,)):
        n2 += 1
        el = alg.symbol_element(sym)
        if bad2 is None and section_deg2(el).evaluate() != el:
            bad2 = sym
    for sym in alg.basis_symbols(max_length, degrees=(3,)):
        n3 += 1
        el = alg.symbol_element(sym)
        if bad3 is None and section_deg3(el).evaluate() != el:
            bad3 = sym
        if bad3s is None:
            t = section_deg3_symmetric(el)
            if t.evaluate() != el:
                bad3s = sym
            elif sym.support.length >= 1 and sorted(t.terms) != sorted(
                section_deg3(el).terms
            ):
                bad3s = sym
    out.append(_result(f"sections_deg2_identity_{n2}_symbols", bad2 is None, f"fails at {bad2!r}"))
    out.append(_result(f"sections_deg3_identity_{n3}_symbols", bad3 is None, f"fails at {bad3!r}"))
    out.append(_result(f"sections_deg3_symmetric_identity_{n3}_symbols", bad3s is None, f"fails at {bad3s!r}"))
    out.append(_identity_section_fixed_forms(alg))
    return out


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
    phi1 = alg.phi(one)
    for k, form in enumerate(forms):
        if form.evaluate() != phi1:
            return _result("sections_identity_fixed_forms", False, f"summand {k} misses phi(1)")
    avg = forms[0]
    for form in forms[1:]:
        avg = avg + form
    avg = avg.scale(alg.field.inv(4))
    for e in range(W.n):
        target = alg.phi(W.omega(e))
        got = tensor_act(H.tau(W.omega(e)), avg, "right").evaluate()
        if got != target:
            return _result(
                "sections_identity_fixed_forms", False, f"average misses phi at torus exp {e}"
            )
    return _result("sections_identity_fixed_forms", True)


_DEGREE_PATTERNS = [
    (a, b, c)
    for a in range(4)
    for b in range(4)
    for c in range(4)
    if a + b + c <= 3
]


def suite_assoc(alg, *, max_length=5, samples=1000, seed=0, **_):
    rng = random.Random(f"assoc:{alg.field.p}:{seed}")
    out = []
    per = max(1, samples // len(_DEGREE_PATTERNS) + 1)
    bad = None
    count = 0
    for pattern in _DEGREE_PATTERNS:
        for _ in range(per):
            syms = [_random_symbol(rng, alg, d, max_length) for d in pattern]
            x, y, z = (alg.symbol_element(s) for s in syms)
            if multiply(multiply(x, y), z) != multiply(x, multiply(y, z)):
                bad = syms
                break
            count += 1
        if bad:
            break
    out.append(
        _result(f"assoc_total_le3_{count}_triples", bad is None, f"triple {bad!r}")
    )

    bad = None
    count = 0
    for _ in range(200):
        degs = []
        while sum(degs) < 4:
            degs = [rng.randint(0, 3) for _ in range(3)]
        syms = [_random_symbol(rng, alg, d, max_length) for d in degs]
        x, y, z = (alg.symbol_element(s) for s in syms)
        lhs = multiply(multiply(x, y), z)
        rhs = multiply(x, multiply(y, z))
        if not (lhs.is_zero and rhs.is_zero):
            bad = syms
            break
        count += 1
    out.append(
        _result(f"assoc_total_ge4_zero_{count}_triples", bad is None, f"triple {bad!r}")
    )

    bad = None
    for _ in range(50):
        a, b, c, d = (
            alg.symbol_element(_random_symbol(rng, alg, 1, max_length)) for _ in range(4)
        )
        ab = multiply(a, b)
        if not (
            multiply(ab, multiply(c, d)).is_zero
            and multiply(multiply(ab, c), d).is_zero
        ):
            bad = (a, b, c, d)
            break
    out.append(_result("assoc_deg4_vanishes", bad is None, f"quadruple {bad!r}"))
    return out


def suite_involutions(alg, *, max_length=5, samples=500, seed=0, **_):
    rng = random.Random(f"invol:{alg.field.p}:{seed}")
    out = []
    bad_jj = bad_gg = bad_com = None
    for _ in range(samples):
        sym = _random_symbol(rng, alg, rng.randint(0, 3), max_length)
        x = alg.symbol_element(sym)
        if bad_jj is None and alg.involution(alg.involution(x)) != x:
            bad_jj = sym
        if bad_gg is None and alg.uniformizer_conj(alg.uniformizer_conj(x)) != x:
            bad_gg = sym
        if bad_com is None and alg.uniformizer_conj(alg.involution(x)) != alg.involution(
            alg.uniformizer_conj(x)
        ):
            bad_com = sym
    out.append(_result(f"involution_squares_to_id_{samples}", bad_jj is None, f"{bad_jj!r}"))
    out.append(_result(f"uniformizer_conj_squares_to_id_{samples}", bad_gg is None, f"{bad_gg!r}"))
    out.append(_result(f"involutions_commute_{samples}", bad_com is None, f"{bad_com!r}"))

    bad_j = bad_g = None
    npairs = max(500, samples)
    for _ in range(npairs):
        da = rng.randint(0, 3)
        db = rng.randint(0, 3 - da) if rng.random() < 0.9 else rng.randint(0, 3)
        sa = _random_symbol(rng, alg, da, max_length)
        sb = _random_symbol(rng, alg, db, max_length)
        x, y = alg.symbol_element(sa), alg.symbol_element(sb)
        xy = multiply(x, y)
        sign = -1 if (da * db) % 2 else 1
        if bad_j is None and alg.involution(xy) != multiply(
            alg.involution(y), alg.involution(x)
        ).scale(sign):
            bad_j = (sa, sb)
        if bad_g is None and alg.uniformizer_conj(xy) != multiply(
            alg.uniformizer_conj(x), alg.uniformizer_conj(y)
        ):
            bad_g = (sa, sb)
    out.append(_result(f"involution_graded_antihom_{npairs}", bad_j is None, f"{bad_j!r}"))
    out.append(_result(f"uniformizer_conj_multiplicative_{npairs}", bad_g is None, f"{bad_g!r}"))
    return out


def suite_rightaction(alg, *, max_length=8, **_):
    W, H, F = alg.weyl, alg.hecke, alg.field
    out = []
    supports = W.elements(max_length)

    def act(x, w):
        return alg.act_right(x, H.tau(w))

    # torus action on degrees 1, 2, 3: plain support shift
    bad = None
    for w in supports:
        for e in range(W.n):
            t = W.omega(e)
            wt = W.mul(w, t)
            for d in (1, 2):
                for sign in (-1, 0, 1):
                    if sign == 0 and w.length == 0:
                        continue
                    got = act(alg.symbol_element(BasisSymbol(d, sign, w)), t)
                    if got != alg.symbol_element(BasisSymbol(d, sign, wt)):
                        bad = (d, sign, w, e)
                        break
                if bad:
                    break
            if bad is None and act(alg.phi(w), t) != alg.phi(wt):
                bad = (3, None, w, e)
            if bad:
                break
        if bad:
            break
    out.append(_result("rightaction_torus_all_degrees", bad is None, f"{bad!r}"))

    # degree 1, lengths add: branch on the first letter of the product
    bad = None
    checked = 0
    for w in supports:
        for v in supports:
            if v.length < 1 or w.length + v.length > max_length:
                continue
            if not W.lengths_add(w, v):
                continue
            wv = W.mul(w, v)
            first = wv.word[0]
            cases = [(0, alg.beta(0, wv))] if w.length >= 1 else []
            if first == S0:
                cases += [(-1, alg.beta(-1, wv)), (1, alg.zero())]
            else:
                cases += [(-1, alg.zero()), (1, alg.beta(1, wv))]
            for sign, expected in cases:
                got = act(alg.beta(sign, w), v)
                if got != expected:
                    bad = (sign, w, v)
                    break
            checked += 1
            if bad:
                break
        if bad:
            break
    out.append(_result(f"rightaction_deg1_lengths_add_{checked}_pairs", bad is None, f"{bad!r}"))

    # degree 1, bad side: the two printed sign-0 formulas
    bad = None
    for v in supports:
        if v.length < 1:
            continue
        j = v.word[0]
        got = act(alg.beta(0, W.simple(j)), v)
        if j == S0:
            expected = alg.idempotent_times(0, alg.beta(0, v)).scale(-1) + alg.idempotent_times(
                -1, alg.beta(-1, v)
            ).scale(-1)
        else:
            expected = alg.idempotent_times(0, alg.beta(0, v)).scale(-1) + alg.idempotent_times(
                1, alg.beta(1, v)
            )
        if got != expected:
            bad = (j, v)
            break
    out.append(_result("rightaction_deg1_shortening", bad is None, f"{bad!r}"))

    # degree 3: right action by simple reflections, both length cases
    bad = None
    for w in supports:
        for j in (S0, S1):
            sj = W.simple(j)
            got = act(alg.phi(w), sj)
            if W.lengths_add(w, sj):
                expected = alg.zero()
            else:
                expected = alg.phi(W.mul(w, sj))
                for e in range(W.n):
                    expected = expected + alg.phi(W.mul(w, W.omega(e)))
            if got != expected:
                bad = (w, j)
                break
        if bad:
            break
    out.append(_result("rightaction_deg3_reflections", bad is None, f"{bad!r}"))

    # idempotent slide laws on degrees 1 and 2, lengths <= 6; the left side
    # acts by the p - 1 terms tau_t of e_m one at a time, not through the
    # character key of act_right, which applies the slide law itself
    bad = None
    idempotents = H.idempotents()
    for w in supports:
        if w.length > min(6, max_length):
            continue
        for d in (1, 2):
            for sign in (-1, 0, 1):
                if sign == 0 and w.length == 0:
                    continue
                sym = BasisSymbol(d, sign, w)
                weight = alg._torus_weight(sym)
                for m, idem in enumerate(idempotents):
                    lhs = alg._expand(alg._act_right({sym: 1}, idem.coeffs))
                    mprime = (m if w.length % 2 == 0 else -m) + weight
                    rhs = alg.idempotent_times(mprime, alg.symbol_element(sym))
                    if lhs != rhs.coeffs:
                        bad = (sym, m)
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    out.append(_result("rightaction_idempotent_slide", bad is None, f"{bad!r}"))
    return out


def suite_duality(alg, *, max_length=8, samples=1000, seed=0, **_):
    rng = random.Random(f"duality:{alg.field.p}:{seed}")
    W, H = alg.weyl, alg.hecke
    out = []
    supports = W.elements(max_length)

    bad = None
    for w in supports:
        for v in supports:
            expected = 1 if v == w else 0
            if duality_pairing(alg.phi(w), alg.tau(v)) != expected:
                bad = (w, v)
                break
        if bad:
            break
    out.append(_result(f"duality_phi_tau_{len(supports)}_supports", bad is None, f"{bad!r}"))

    bad = None
    for w in supports:
        signs = (-1, 1) if w.length == 0 else (-1, 0, 1)
        for sa in signs:
            for sb in signs:
                expected = 1 if sa == sb else 0
                if duality_pairing(alg.beta(sa, w), alg.alpha(sb, w)) != expected:
                    bad = (w, sa, sb)
                    break
            if bad:
                break
        if bad:
            break
    out.append(_result("duality_beta_alpha", bad is None, f"{bad!r}"))

    bad = None
    trials = max(100, samples // 5)
    for _ in range(trials):
        h = _random_hecke(rng, alg, 3)
        d = rng.randint(0, 3)
        x = alg.symbol_element(_random_symbol(rng, alg, d, 4))
        y = alg.symbol_element(_random_symbol(rng, alg, 3 - d, 4))
        hx = alg.act_left(h, x)
        jy = alg.act_left(H.involution(h), y)
        if duality_pairing(hx, y) != duality_pairing(x, jy):
            bad = ("left", h, x, y)
            break
        xh = alg.act_right(x, h)
        yjh = alg.act_right(y, H.involution(h))
        if duality_pairing(xh, y) != duality_pairing(x, yjh):
            bad = ("right", h, x, y)
            break
    out.append(_result(f"duality_twisted_module_law_{trials}", bad is None, f"{bad!r}"))
    return out


def suite_cup_independent(alg, **_):
    """Recompute the torus-support degree-1 x degree-2 products by the
    length-1 shift and compare with the dual-basis rule."""
    W, H = alg.weyl, alg.hecke
    out = []
    bad = None
    for e in range(W.n):
        omega = W.omega(e)
        for sx in (-1, 1):
            x = alg.beta(sx, omega)
            for sy in (-1, 1):
                y = alg.alpha(sy, omega)
                route1 = multiply(x, y)
                if sy == -1:
                    s, other_sign = W.s0, 1
                else:
                    s, other_sign = W.s1, -1
                other = alg.alpha(other_sign, W.mul(W.inv(s), omega))
                shift = alg.act_left(H.tau(s), other)
                xi = shift + y
                if xi.support_lengths() - {1}:
                    bad = (e, sx, sy, "shift outside length 1")
                    break
                route2 = multiply(x, xi) - multiply(alg.act_right(x, H.tau(s)), other)
                if route1 != route2:
                    bad = (e, sx, sy, "routes disagree")
                    break
                target = alg.phi(omega) if sx == sy else alg.zero()
                got = cup_summand(
                    alg,
                    BasisSymbol(1, sx, omega),
                    BasisSymbol(2, sy, omega),
                )
                if got != target:
                    bad = (e, sx, sy, "cup constant wrong")
                    break
            if bad:
                break
        if bad:
            break
    out.append(_result("cup_torus_constants_via_shift", bad is None, f"{bad!r}"))
    return out


def suite_presentation(alg, *, max_length=8, samples=1000, seed=0, epsilon_bound="p-2", **_):
    rng = random.Random(f"pres:{alg.field.p}:{seed}")
    out = []

    bad = None
    count = 0
    for sym in alg.basis_symbols(max_length):
        count += 1
        word = pres.word_for_basis(alg, sym)
        if pres.evaluate(word) != alg.symbol_element(sym):
            bad = sym
            break
    out.append(_result(f"presentation_round_trip_{count}_symbols", bad is None, f"{bad!r}"))

    bad = None
    trials = 40
    for _ in range(trials):
        wa = tuple(rng.randrange(7) for _ in range(rng.randint(0, 6)))
        wb = tuple(rng.randrange(7) for _ in range(rng.randint(0, 6)))
        f = pres.FreeElement(alg, {wa: rng.randrange(1, alg.field.p)})
        g = pres.FreeElement(alg, {wb: rng.randrange(1, alg.field.p)})
        if pres.evaluate(f * g) != multiply(pres.evaluate(f), pres.evaluate(g)):
            bad = (wa, wb)
            break
    out.append(_result(f"presentation_evaluate_multiplicative_{trials}", bad is None, f"{bad!r}"))

    bad = None
    for m in range(alg.weyl.n):
        eps = pres.free_idempotent(alg, m, epsilon_bound)
        if eps.word_count() != alg.field.p - 1 and epsilon_bound == "p-2":
            bad = (m, "term count")
            break
        if epsilon_bound == "p-2" and pres.evaluate(eps) != alg.embed(alg.hecke.idempotent(m)):
            bad = (m, "image")
            break
    out.append(_result("presentation_free_idempotents", bad is None, f"{bad!r}"))
    return out


def suite_e0(alg, *, max_length=8, samples=1000, seed=0, **_):
    rng = random.Random(f"e0:{alg.field.p}:{seed}")
    H, W = alg.hecke, alg.weyl
    out = []

    idems = H.idempotents()
    bad = None
    total = H.zero()
    for a, ea in enumerate(idems):
        total = total + ea
        for b, eb in enumerate(idems):
            expected = ea if a == b else H.zero()
            if H.mul(ea, eb) != expected:
                bad = (a, b)
                break
        if bad:
            break
    ok = bad is None and total == H.one()
    out.append(_result("e0_idempotent_system", ok, f"{bad!r}" if bad else "sum is not 1"))

    bad = None
    e1 = H.idempotent(0)
    for i in (S0, S1):
        t = H.tau(W.simple(i))
        if not H.mul(t, t + e1).is_zero:
            bad = i
            break
    out.append(_result("e0_quadratic_relation", bad is None, f"s{bad}"))

    bad = None
    braid_trials = max(200, samples // 5)
    for _ in range(braid_trials):
        v = _random_weyl(rng, alg, max_length)
        w = _random_weyl(rng, alg, max_length)
        if W.lengths_add(v, w):
            if H.mul(H.tau(v), H.tau(w)) != H.tau(W.mul(v, w)):
                bad = (v, w, "braid")
                break
        prod_left = H.mul(H.tau(v), H.tau(w))
        if prod_left != H.mul_right_recursion(H.tau(v), H.tau(w)):
            bad = (v, w, "left/right recursion")
            break
    out.append(_result(f"e0_braid_and_recursions_{braid_trials}", bad is None, f"{bad!r}"))

    bad = None
    for _ in range(samples):
        a = H.tau(_random_weyl(rng, alg, max_length))
        b = H.tau(_random_weyl(rng, alg, max_length))
        c = H.tau(_random_weyl(rng, alg, max_length))
        if H.mul(H.mul(a, b), c) != H.mul(a, H.mul(b, c)):
            bad = (a, b, c)
            break
    out.append(_result(f"e0_associativity_{samples}_triples", bad is None, f"{bad!r}"))
    return out


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
