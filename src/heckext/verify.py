"""Verification suites behind `heckext verify` and the acceptance tests.

A check is a name, its cases in order, and a test that returns None when a
case holds and the counterexample (a string, or a value shown by its repr)
when it fails. `_check` runs every check: it stops at the first failing
case; `{n}` in a name is the number of cases run, the failing one included;
and a check that ran no case FAILs with `no cases`. A suite draws all of its
samples before any check runs, so one failing check does not shift the
samples of the next. Results are sorted by check name, so reports are
deterministic given (p, max_length, seed).

Some checks run a faster test than the direct one they replaced, resting
on a property of the code named in the docstring of the function that
builds it; tests/test_verify.py keeps each direct form as an oracle.  Where
the faster test names the same first counterexample as the direct form, the
check runs it alone; where it may fail a case the direct form passes, the
check is a _restated one: the direct form decides each case the faster test
fails.  The torus, lengths-add and slide tests call the kernel a pair miss
of a degree-0 right factor runs, _act_right(sym, v): the direct form's
public act_right with the pair memo off (_torus_shift).  The round-trip
test reads evaluate's own suffix walker, one per torus orbit of supports,
so it runs the code it certifies.  A faster test may skip code that the
direct form ran (the public act_right and its pair memo, the expansion of
a character key), or rest on a law of the code that a fault could break;
its docstring says so, and other checks run that code.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import namedtuple

from . import presentation as pres
from .coeff import add_into
from .graded import BasisSymbol, ExtAlgebra, GradedElement, _shifted, _weight
from .grammar import render_element
from .product import cup_summand, duality_pairing, multiply
from .sections import (
    TensorExpression,
    kernel_generators,
    section_deg2,
    section_deg3,
    section_deg3_symmetric,
    tensor_act,
)
from .suites import SUITE_NAMES
from .weyl import S0, S1, WeylElement, _alternating_word, _weyl

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "run"]


CheckResult = namedtuple("CheckResult", "name ok counterexample", defaults=(None,))


def _check(name, cases, test) -> CheckResult:
    n = 0
    for n, case in enumerate(cases, start=1):
        bad = test(case)
        if bad is not None:
            return CheckResult(name.format(n=n), False, bad if isinstance(bad, str) else repr(bad))
    return CheckResult(name.format(n=n), n > 0, None if n else "no cases")


def _restated(name, cases, test, direct) -> CheckResult:
    """A check whose test is a faster restatement of a direct one that may
    fail a case the direct one passes.  Where the law test rests on holds
    and the code it skips is right, both named where the two are built, a
    case that test passes, direct passes too; so direct decides only the
    cases test fails, and the first case failing both is the first case
    direct fails: the verdict, the count and the counterexample are direct's.
    direct is the direct form that tests/test_verify.py keeps as an oracle."""
    return _check(name, cases, lambda case: None if test(case) is None else direct(case))


# --- random sampling helpers ---


def _signs(w: WeylElement) -> tuple[int, ...]:
    """The signs of the degree-1 and degree-2 symbols supported at w."""
    return (-1, 1) if w.length == 0 else (-1, 0, 1)


def _random_weyl(rng: random.Random, alg: ExtAlgebra, max_length: int) -> WeylElement:
    """A random element: its length, then its first letter if it has one,
    then its exponent, in that order from rng.  randrange(k) draws what
    randint(0, k - 1) and a choice of k items draw, with fewer calls."""
    ln = rng.randrange(max_length + 1)
    word = _alternating_word(rng.randrange(2), ln) if ln else ()  # S0, S1 = 0, 1
    return _weyl((rng.randrange(alg.weyl.n), word))


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
    return [
        _check(f"kernel_gen_{idx:02d}", [gen], lambda gen: _vanishes(gen.evaluate()))
        for idx, gen in enumerate(kernel_generators(alg), start=1)
    ]


def suite_sections(alg, *, max_length=8, **_):
    def symbols(degree):
        return alg.basis_symbols(max_length, degrees=(degree,))

    def splits(section):
        def test(sym):
            el = alg.symbol_element(sym)
            return None if section(el).evaluate() == el else f"fails at {sym!r}"
        return test

    return [
        _check("sections_deg2_identity_{n}_symbols", symbols(2), splits(section_deg2)),
        _check("sections_deg3_identity_{n}_symbols", symbols(3), splits(section_deg3)),
        # off the torus the symmetric section is the degree-3 memo entry
        _check("sections_deg3_symmetric_identity_{n}_symbols",
               (s for s in symbols(3) if not s.support.length), splits(section_deg3_symmetric)),
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

    t3 = lambda c, syms: TensorExpression.from_terms(alg, 3, [(c, syms)])
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
        # phi_(w s_j) + sum_t phi_(w t) where lengths do not add: p distinct
        # terms, as l(w s_j) = l(w) - 1
        expected = {} if W.lengths_add(w, sj) else {
            _shifted((3, None, W.mul(w, v))): 1 for v in (sj, *W.torus())}
        return None if got.coeffs == expected else (w, j)

    return [
        _check("rightaction_torus_all_degrees", *_torus_shift(alg, max_length)),
        _check("rightaction_deg1_lengths_add_{n}_pairs", *_lengths_add(alg, max_length)),
        _check("rightaction_deg1_shortening", (v for v in supports if v.length >= 1),
               shortening),
        _check("rightaction_deg3_reflections", itertools.product(supports, (S0, S1)),
               reflection),
        _restated("rightaction_idempotent_slide", *_idempotent_slide(alg, max_length)),
    ]


def _torus_shift(alg, max_length):
    """The right torus action on degrees 1, 2, 3 is the plain support shift,
    sym tau_t = sym t for t = omega^e: its cases and its test.

    The direct form made seven public act_right calls per (w, e), each a
    pair-memo lookup whose miss is the kernel _act_right(sym, t): at a torus
    element, the closed form _adds_right(sym, t), which reads no rule and
    moves the exponent, with no scalar.  The test calls that kernel for
    every case, in order, on the symbols built once per w: the direct form
    with the pair memo off, the same counterexample.  Each expected symbol
    (d, sign, w t) is built unchecked (_shifted): w t has the word of w, so
    it is valid where (d, sign, w) is.
    Each pair value is one function of its pair, so the public value is
    the kernel's; the test still calls the kernel on every case, as the
    kernel is what it checks: a pair-memo hit returns a value an earlier
    check stored and runs no closed form, and each public call would store
    an entry nothing reads again.  The shortening and reflection checks of
    this suite call the public act_right.
    """
    W = alg.weyl
    cases = itertools.product(W.elements(max_length), range(W.n))
    sources: dict = {}  # w -> [(d, sign, sym) in the direct order], current w only

    def torus_shift(case):
        w, e = case
        if w not in sources:
            sources.clear()
            kinds = [(d, sign) for d in (1, 2) for sign in _signs(w)] + [(3, None)]
            sources[w] = [(d, sign, BasisSymbol(d, sign, w)) for d, sign in kinds]
        t = W.omega(e)
        wt = W.mul(w, t)
        for d, sign, sym in sources[w]:
            if alg._expand(alg._act_right(sym, t)) != {_shifted((d, sign, wt)): 1}:
                return (d, sign, w, e)

    return cases, torus_shift


def _lengths_add(alg, max_length):
    """beta^sign_w tau_v in degree 1 where lengths add, l(wv) = l(w) + l(v):
    beta^0_wv, and beta^-_wv or beta^+_wv by the first letter of wv, the
    other sign 0.  Its cases, w-outer, and its test.

    The direct form made one public act_right call per (sign, w, v), each a
    pair-memo lookup whose miss is the kernel _act_right(beta^sign_w, v),
    there _adds_right, which reads one composed right rule (_ADDS_RIGHT,
    from _RIGHT_RULES, the lengths-add rules carried through J at import).
    So the check restates that table in degree 1, on the cases L reaches;
    the products that read it through a pair miss (assoc,
    involution_graded_antihom) see the rest.  The test calls that kernel
    for every case, with its signs in the direct order: the direct form
    with the pair memo off, the same counterexample (_torus_shift says why
    not with the memo).  Each expected beta^sign_wv is built unchecked
    (_shifted): v has length >= 1, so wv does too and sign 0 is valid.  The
    cases read each v of length >= 1 from one list, with its length and
    first letter, and keep those that fit each w.
    """
    W = alg.weyl
    supports = W.elements(max_length)
    tails = [(v, len(v[1]), v[1][:1]) for v in supports if v[1]]

    def cases():
        for w in supports:
            room, last = max_length - len(w[1]), w[1][-1:]
            yield from ((w, v) for v, length, first in tails if length <= room and first != last)

    # w -> beta^sign_w for each sign in the direct order, sign 0 first
    symbols = {w: [BasisSymbol(1, sign, w) for sign in ((0, -1, 1) if w[1] else (-1, 1))]
               for w in supports}

    def lengths_add(pair):
        w, v = pair
        wv = W.mul(w, v)
        # sign 0 gives beta^0_wv; -1 and +1 give beta^-_wv and 0 when wv
        # starts with s0, 0 and beta^+_wv when it starts with s1
        kept = -1 if wv[1][0] == S0 else 1
        for sym in symbols[w]:
            sign = sym[1]
            expected = {_shifted((1, sign, wv)): 1} if sign in (0, kept) else {}
            if alg._act_right(sym, v) != expected:
                return (sign, w, v)

    return cases(), lengths_add


def _idempotent_slide(alg, max_length):
    """The slide law sym e_m = e_m' sym, m' = (-1)^|sym| m + k(sym), on the
    symbols of degrees 1 and 2 at lengths <= 6: its cases, its restated test
    and its direct test.

    The left side is sum_t e_m[t] (sym tau_t) over the torus t = omega^e,
    never the character key of act_right, which applies the slide law
    itself; sym tau_t is the kernel _act_right(sym, t) that a pair miss
    runs.  The direct test sums those rows for each m and compares the sum,
    expanded, with the public idempotent_times.  The restated test checks
    three facts that make the two sides equal:
      1. each kernel row _act_right(sym, t) is {sym t: 1}, the plain right
         torus shift, one call per t;
      2. the engine's e_m[t] is p - u0^(-e m) for every (m, t), read once
         per check: the coefficient of every left side at sym t;
      3. each right side, read as the row of idempotent_times' kernel,
         _project(row, m', {sym: 1}, 1), is the one character key
         u0^((m' - k) f) e_m' s0 of e_m' s_f, f the exponent of sym and k
         its torus weight.
    That key expands to -u0^((m' - k) (f - b)) at s_b, the symbol of
    exponent b; at s_b = sym t, f - b = -(-1)^|sym| e and m' - k =
    (-1)^|sym| m, so it is p - u0^(-e m), the left side.  Any other row or
    key fails the restated test, even one equal to it once expanded, and the
    direct test decides.  The restated test skips the public
    idempotent_times (check_index, _operand) and the expansion of the key
    (_expand, _char_expansion), so the check leaves the expansion memo
    empty; rightaction_deg3_reflections, presentation_round_trip and the
    relators expand character keys, and rightaction_deg1_shortening calls
    the public idempotent_times.
    """
    W, p, n = alg.weyl, alg.field.p, alg.weyl.n
    powers = alg.field.root_powers()
    idempotents = alg.hecke.idempotents()
    columns_hold = [idem.coeffs for idem in idempotents] == [
        {t: p - powers[-e * m % n] for e, t in enumerate(W.torus())} for m in range(n)]
    cases = (
        BasisSymbol(d, sign, w)
        for w in W.elements(min(6, max_length))
        for d in (1, 2)
        for sign in _signs(w)
    )

    def slid(sym, m):
        return (m if sym.support.length % 2 == 0 else -m) + _weight(sym.degree, sym.sign)

    def restated(sym):
        if not columns_hold:
            return sym
        d, sign, (f, word) = sym
        step = -1 if len(word) % 2 else 1  # (-1)^|sym|
        for e, t in enumerate(W.torus()):
            shifted = _shifted((d, sign, _weyl(((f + step * e) % n, word))))
            if alg._act_right(sym, t) != {shifted: 1}:
                return sym
        k = _weight(d, sign)
        for m in range(n):
            mprime = (step * m + k) % n
            row: dict = {}
            alg._project(row, mprime, {sym: 1}, 1)
            if row != {(mprime, d, sign, word): powers[step * m * f % n]}:
                return sym

    def direct(sym):
        for m, idem in enumerate(idempotents):
            lhs: dict = {}
            for t, c in idem.coeffs.items():
                add_into(lhs, alg._act_right(sym, t).items(), c, p)
            rhs = alg.idempotent_times(slid(sym, m), alg.symbol_element(sym))
            if alg._expand(lhs) != rhs.coeffs:
                return (sym, m)

    return cases, restated, direct


def suite_duality(alg, *, max_length=8, samples=1000, seed=0, **_):
    rng = random.Random(f"duality:{alg.field.p}:{seed}")
    supports = alg.weyl.elements(max_length)

    def draw_triple():
        h = _random_hecke(rng, alg, 3)
        d = rng.randint(0, 3)
        x = alg.symbol_element(_random_symbol(rng, alg, d, 4))
        return h, x, alg.symbol_element(_random_symbol(rng, alg, 3 - d, 4))

    triples = [draw_triple() for _ in range(max(100, samples // 5))]

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
        _check("duality_phi_tau_{n}_supports", *_phi_tau(alg, max_length)),
        _check("duality_beta_alpha", supports, beta_alpha),
        _check("duality_twisted_module_law_{n}", triples, twisted),
    ]


def _phi_tau(alg, max_length):
    """<phi_w, tau_v> = delta_wv over every pair of supports: its cases (the
    supports w) and its test.

    The test builds phi(w) once per case and the list of tau(v) once per
    check, and makes one duality_pairing call per (w, v), as the direct
    form did on elements it built for each pair: the same calls on equal
    elements, so the same first counterexample.
    """
    supports = alg.weyl.elements(max_length)
    taus = [(v, alg.tau(v)) for v in supports]

    def phi_tau(w):
        x = alg.phi(w)
        for v, y in taus:
            if duality_pairing(x, y) != (1 if v == w else 0):
                return (w, v)

    return supports, phi_tau


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

    def multiplicative(case):
        wa, wb, ca, cb = case
        f, g = pres.FreeElement(alg, {wa: ca}), pres.FreeElement(alg, {wb: cb})
        if pres.evaluate(f * g) != multiply(pres.evaluate(f), pres.evaluate(g)):
            return (wa, wb)

    def free_idempotent(m):
        eps = pres.free_idempotent(alg, m, epsilon_bound).expand()
        if eps.word_count() != p - 1:
            return (m, "term count")
        if pres.evaluate(eps) != alg.embed(alg.hecke.idempotent(m)):
            return (m, "image")

    return [
        _check("presentation_round_trip_{n}_symbols", *_round_trip(alg, max_length)),
        _check("presentation_evaluate_multiplicative_{n}", products, multiplicative),
        _check("presentation_free_idempotents", range(alg.weyl.n), free_idempotent),
    ]


def _round_trip(alg, max_length):
    """Every basis symbol of support length <= max_length is the value of
    its word, evaluate(word_for_basis(sym)) = sym: its cases and its test.

    The test reads evaluate's suffix walker (presentation._Suffixes), one
    per torus orbit of supports (the symbols at omega^e u for one u, which
    are consecutive), whose words share suffixes, T_w0^k and what follows
    it above all.  The words of each distinct section slot are spelled
    once per round trip (word_for_basis's slots).  A word's value does not
    depend on the words read before it, nor a slot's words on the symbol
    that first spelled them, so the test names the direct form's first
    counterexample.
    """
    walker, orbit, slots = None, None, {}

    def round_trip(sym):
        nonlocal walker, orbit
        if sym.support.word != orbit:
            walker, orbit = pres._Suffixes(alg), sym.support.word
        if alg._expand(walker.row(pres.word_for_basis(alg, sym, slots))) != {sym: 1}:
            return sym

    return alg.basis_symbols(max_length), round_trip


def suite_e0(alg, *, max_length=8, samples=1000, seed=0, **_):
    rng = random.Random(f"e0:{alg.field.p}:{seed}")
    H, W = alg.hecke, alg.weyl
    e1 = H.idempotent(0)

    def draw(k):
        return [_random_weyl(rng, alg, max_length) for _ in range(k)]

    braids = [draw(2) for _ in range(max(200, samples // 5))]
    triples = [tuple(map(H.tau, draw(3))) for _ in range(samples)]

    def quadratic(i):
        t = H.tau(W.simple(i))
        return None if H.mul(t, t + e1).is_zero else f"s{i}"

    def braid_and_graded(pair):
        """tau_v tau_w by H.mul against the graded engine's degree-0 product,
        the kernel _act_left(v, tau_w): two independent implementations of
        one product.  A pair miss tau_v . tau_w runs that kernel, at torus
        exponent 0 and then the pair law when the words meet."""
        v, w = pair
        prod = H.mul(H.tau(v), H.tau(w))
        if W.lengths_add(v, w) and prod != H.tau(W.mul(v, w)):
            return (v, w, "braid")
        if alg._expand(alg._act_left(v, _shifted((0, None, w)))) != alg.embed(prod).row:
            return (v, w, "Hecke/graded product")

    def associative(triple):
        a, b, c = triple
        return None if H.mul(H.mul(a, b), c) == H.mul(a, H.mul(b, c)) else triple

    return [
        _restated("e0_idempotent_system", *_idempotent_system(alg)),
        _check("e0_quadratic_relation", (S0, S1), quadratic),
        _check("e0_braid_and_recursions_{n}", braids, braid_and_graded),
        _check("e0_associativity_{n}_triples", triples, associative),
    ]


def _idempotent_system(alg):
    """e_a e_b = delta_ab e_a for every ordered pair (a, b), then sum_a e_a = 1:
    its cases, its restated test and its direct test.

    Read the character chi_a off the engine's e_a = -sum_t chi_a(t)^-1 tau_t,
    so e_a[t] = -chi_a(t)^-1.  H.mul is bilinear (it scales each product
    of two terms by their scalars, and each orbit sum by the sums of those
    scalars on the two words), so

        e_a e_b = sum_t e_b[t] e_a tau_t = (-sum_t chi_a(t) chi_b(t)^-1) e_a

    and e_a e_b = delta_ab e_a follows from two facts:
      1. the eigen law e_a tau_t = chi_a(t) e_a for every t.  It is checked
         scaled by e_a[t], as e_a (e_a[t] tau_t) = -e_a, so that the right
         factor carries a scalar as it does in e_a e_b: a product that
         dropped that scalar passes the unscaled law but fails here, as it
         fails the direct test.  The p - 1 products of a are computed on its
         first case and kept for its other cases;
      2. -sum_t chi_a(t) chi_b(t)^-1 = delta_ab mod p, integer arithmetic.
    That is O(p^3) in all; the direct test makes (p - 1)^2 products of
    (p - 1)-term elements, O(p^4).

    With H.mul bilinear and e_0, ..., e_(p-2) built from the p - 1
    characters, the restated test fails a case of a exactly when some product
    e_a e_b is wrong, so the two verdicts agree.  But a failing eigen law
    fails (a, 0), where e_a e_0 may still be right: with the torus rule
    slipped to tau_t tau_t' = tau_(t t'^-1), the restated test fails (1, 0)
    and the first wrong product is e_1 e_1.  So the check is a _restated one:
    the direct test passes (1, 0) and names (1, 1), the first wrong product.
    """
    H, p = alg.hecke, alg.field.p
    torus = alg.weyl.torus()
    idems = H.idempotents()
    table = [[e.coeffs.get(t, 0) for t in torus] for e in idems]
    # chi_a(t) = -1 / e_a[t]; a missing term gives 0 and fails the eigen law
    chi = [[-pow(c, p - 2, p) % p for c in row] for row in table]
    eigen: dict = {}

    def eigen_law(a):
        e, neg = idems[a], -idems[a]
        for t, c in zip(torus, table[a]):
            if H.mul(e, H.element({t: c})) != neg:
                return (a, t)

    def sums_to_one():
        return None if sum(idems, H.zero()) == H.one() else "sum is not 1"

    def restated(case):
        if case == "sum":
            return sums_to_one()
        a, b = case
        if a not in eigen:
            eigen[a] = eigen_law(a)
        # -chi_b(t)^-1 = e_b[t]
        if eigen[a] is not None or sum(map(operator.mul, chi[a], table[b])) % p != (a == b):
            return case

    def direct(case):
        if case == "sum":
            return sums_to_one()
        a, b = case
        return None if H.mul(idems[a], idems[b]) == (idems[a] if a == b else H.zero()) else case

    return itertools.chain(itertools.product(range(p - 1), repeat=2), ["sum"]), restated, direct


SUITES = {name: globals()["suite_" + name.replace("-", "_")] for name in SUITE_NAMES}
_OPTION_NAMES = ("max_length", "samples", "seed", "epsilon_bound")


def run_suite(alg: ExtAlgebra, name: str, **options) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    # every suite takes every option and ignores those it does not read
    for option in options:
        if option not in _OPTION_NAMES:
            raise ValueError(f"unknown option {option!r}; choose from {', '.join(_OPTION_NAMES)}")
    if options.get("epsilon_bound", "p-2") not in ("p-2", "p-1"):
        raise ValueError(f"epsilon_bound must be 'p-2' or 'p-1', got {options['epsilon_bound']!r}")
    # a bool is not an int here, as in WeylGroup.check and PrimeField
    for option in ("samples", "max_length"):
        value = options.get(option, 1)
        if type(value) is not int or value < 1:
            raise ValueError(f"{option} must be an int >= 1, got {value!r}")
    if type(options.get("seed", 0)) is not int:
        raise ValueError(f"seed must be an int, got {options['seed']!r}")
    results = SUITES[name](alg, **options)
    return sorted(results, key=lambda r: r.name)


def run(alg: ExtAlgebra, suite: str = "all", **options) -> dict[str, list[CheckResult]]:
    names = SUITE_NAMES if suite == "all" else (suite,)
    return {name: run_suite(alg, name, **options) for name in names}
