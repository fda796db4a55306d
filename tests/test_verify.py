"""Tests of the verification suites themselves: what they report on failure
and which options they refuse."""

import itertools
import random
import re
from types import MappingProxyType

import pytest

from heckext import ExtAlgebra
from heckext import graded, product, verify
from heckext import presentation as pres
from heckext.coeff import PrimeField, add_into
from heckext.graded import BasisSymbol
from heckext.product import duality_pairing
from heckext.weyl import S0, S1, WeylElement, _alternating_word, _weyl

from walk_oracle import shift_right


def test_duality_beta_alpha_reports_the_first_counterexample(monkeypatch):
    alg = ExtAlgebra(5)
    W = alg.weyl
    # supports are enumerated by word length, then first letter, then exponent
    first, later = W.element(1, (S1,)), W.element(0, (S0, S1))
    real = verify.duality_pairing

    def broken(x, y):
        wrong = any(s.degree == 1 and s.support in (first, later) for s in x.coeffs)
        return (real(x, y) + wrong) % 5

    monkeypatch.setattr(verify, "duality_pairing", broken)
    results = {r.name: r for r in verify.suite_duality(alg, max_length=2, samples=1)}
    check = results["duality_beta_alpha"]
    assert not check.ok
    assert check.counterexample == repr((first, -1, -1))


def test_rightaction_torus_reports_the_first_counterexample(monkeypatch):
    alg = ExtAlgebra(5)
    W = alg.weyl
    w, t = W.element(1, (S0,)), W.omega(2)
    real = alg._act_right

    def broken(sym, v):
        # wrong on degrees 1 and 2 at the same (w, e): degree 1 comes first
        out = real(sym, v)
        if v == t and sym[0] in (1, 2) and sym[2] == w:
            return {k: 2 * c % 5 for k, c in out.items()}
        return out

    # the symbols of the torus check go through the kernel _act_right
    monkeypatch.setattr(alg, "_act_right", broken)
    results = {r.name: r for r in verify.suite_rightaction(alg, max_length=1)}
    check = results["rightaction_torus_all_degrees"]
    assert not check.ok
    assert check.counterexample == repr((1, -1, w, 2))


def test_e0_quadratic_relation_reports_the_first_letter(monkeypatch):
    alg = ExtAlgebra(5)
    H = alg.hecke
    e1 = H.idempotent(0)
    real = H.mul

    def broken(x, y):
        # tau_s (tau_s + e_1) is nonzero for both letters
        return real(x, y) + x if y == x + e1 else real(x, y)

    monkeypatch.setattr(H, "mul", broken)
    results = {r.name: r for r in verify.suite_e0(alg, max_length=1, samples=1)}
    check = results["e0_quadratic_relation"]
    assert not check.ok
    assert check.counterexample == f"s{S0}"


def test_a_check_with_no_cases_fails():
    result = verify._check("empty_{n}_cases", [], lambda case: None)
    assert (result.name, result.ok, result.counterexample) == ("empty_0_cases", False, "no cases")


def test_a_check_result_reads_and_compares_by_its_fields():
    result = verify.CheckResult("count_4", False, "3")
    assert repr(result) == "CheckResult(name='count_4', ok=False, counterexample='3')"
    assert repr(verify.CheckResult("c", True)) == "CheckResult(name='c', ok=True, counterexample=None)"
    assert result == verify.CheckResult("count_4", False, "3")
    assert result != verify.CheckResult("count_4", False, "4")
    assert verify.CheckResult("c", True) == verify.CheckResult("c", True, None)


def test_the_runner_stops_at_the_first_counterexample_and_counts_it():
    seen = []

    def test(case):
        seen.append(case)
        return case if case >= 3 else None

    result = verify._check("count_{n}", range(10), test)
    assert (result.name, result.ok, result.counterexample) == ("count_4", False, "3")
    assert seen == [0, 1, 2, 3]
    # a string counterexample is reported as it is, anything else by its repr
    assert verify._check("c", ["x"], lambda case: "bad " + case).counterexample == "bad x"
    assert verify._check("c", ["x"], lambda case: (case,)).counterexample == "('x',)"
    passed = verify._check("count_{n}", range(10), lambda case: None)
    assert (passed.name, passed.ok, passed.counterexample) == ("count_10", True, None)


def test_rightaction_lengths_add_reports_the_first_failing_sign(monkeypatch):
    alg = ExtAlgebra(5)
    W = alg.weyl
    # s1 s0 starts with s1, so the signs are checked in the order 0, -1, +1
    w, v = W.element(0, (S1,)), W.element(0, (S0,))
    wrong = (BasisSymbol(1, -1, w), BasisSymbol(1, 1, w))
    phi = BasisSymbol(3, None, W.identity)
    real = alg._adds_right

    def broken(sym, u):
        out = real(sym, u)
        return {**out, phi: 1} if u == v and sym in wrong else out

    # act_right and the test of the check both read a pair miss, _adds_right
    monkeypatch.setattr(alg, "_adds_right", broken)
    results = verify.suite_rightaction(alg, max_length=2)
    check = next(r for r in results if r.name.startswith("rightaction_deg1_lengths_add_"))
    assert not check.ok
    assert check.counterexample == repr((-1, w, v))


def test_a_failing_check_does_not_shift_the_samples_of_the_next(monkeypatch):
    alg = ExtAlgebra(5)
    real = verify.multiply

    def run(break_first):
        calls = []

        def recorded(x, y):
            calls.append((x, y))
            out = real(x, y)
            return out.scale(2) if break_first and len(calls) == 1 else out

        monkeypatch.setattr(verify, "multiply", recorded)
        low, high, deg4 = verify.suite_assoc(alg, max_length=2, samples=20)
        assert low.name.startswith("assoc_total_le3_")
        return low, (high, deg4), calls

    clean_low, clean_rest, clean_calls = run(False)
    broken_low, broken_rest, broken_calls = run(True)
    assert clean_low.ok and not broken_low.ok
    # each of the 40 degree <= 3 triples multiplies four times, and the
    # broken run stops after the first: the later checks see the same cases
    assert len(clean_calls) - len(broken_calls) == 4 * 39
    assert broken_calls[4:] == clean_calls[4 * 40:]
    assert clean_rest == broken_rest


@pytest.mark.parametrize("entry", [verify.run_suite, verify.run])
@pytest.mark.parametrize("option", ["samples", "max_length"])
@pytest.mark.parametrize("value", [0, -3, 2.5, "5"])
def test_vacuous_options_are_refused(entry, option, value):
    with pytest.raises(ValueError, match=option):
        entry(ExtAlgebra(5), "e0", **{option: value})


@pytest.mark.parametrize("entry", [verify.run_suite, verify.run])
@pytest.mark.parametrize("seed", [1.5, "0", None])
def test_a_seed_that_is_not_an_int_is_refused(entry, seed):
    # seed=1.5 ran, seeding each suite's RNG from a string
    with pytest.raises(ValueError, match=re.escape(f"seed must be an int, got {seed!r}")):
        entry(ExtAlgebra(5), "e0", seed=seed)


@pytest.mark.parametrize("entry", [verify.run_suite, verify.run])
def test_bool_options_are_refused(entry):
    """run(alg, "e0", max_length=True, samples=True, seed=False) ran, and
    reported e0_associativity_1_triples: a bool passed isinstance(x, int)."""
    for option, value in (("max_length", True), ("samples", True), ("seed", False)):
        with pytest.raises(ValueError, match=re.escape(f"{option} must be an int")):
            entry(ExtAlgebra(5), "e0", **{option: value})


@pytest.mark.parametrize("entry", [verify.run_suite, verify.run])
@pytest.mark.parametrize("options, message", [
    ({"sampels": 3}, "unknown option 'sampels'"),
    ({"epsilon_bound": "bogus"}, "epsilon_bound must be 'p-2' or 'p-1', got 'bogus'"),
], ids=["misspelt-option", "bogus-bound"])
def test_an_unknown_option_or_epsilon_bound_is_refused(entry, options, message):
    """Every suite swallows the options it does not read, so run(alg, "e0",
    max_length=2, sampels=3) ran e0_associativity_1000_triples, and e0
    passed with epsilon_bound="bogus", which only the relators and
    presentation suites read."""
    with pytest.raises(ValueError, match=re.escape(message)):
        entry(ExtAlgebra(5), "e0", max_length=2, **options)


@pytest.mark.parametrize("seed", [0, -7])
def test_a_negative_or_zero_seed_runs(seed):
    assert all(r.ok for r in verify.run_suite(ExtAlgebra(5), "e0", seed=seed, samples=5))


@pytest.mark.parametrize("p, root", [
    (p, g) for p in (5, 7, 13) for g in range(2, p)
    if len({pow(g, k, p) for k in range(p - 1)}) == p - 1])
def test_the_e0_suite_passes_under_every_primitive_root(p, root):
    """The idempotents and the eigen law read u0, and the other tests run
    e0 at the smallest root only."""
    results = verify.run_suite(ExtAlgebra(p, root), "e0")
    assert results and all(r.ok for r in results), [r for r in results if not r.ok]



# --- the restated checks against their direct forms ---
#
# Five checks run a faster test than the direct form they replaced: the
# torus and slide checks of rightaction, duality_phi_tau,
# presentation_round_trip and e0_idempotent_system.  The functions below are
# those direct forms, copied literally as oracles (the slide from before it
# computed each torus product once), and the direct form of the lengths-add
# check.  The torus, phi/tau and round-trip tests make the same calls as
# their direct forms, so they name the same first counterexample and run
# alone.  The slide and idempotent-system tests may fail a case that their
# direct forms pass, so they run through verify._restated, which runs a
# direct form kept in verify.py on each case the faster test fails and lets
# it decide that case; its docstring says why the report stays the direct
# form's.  The faster tests must still pass every case of the real engine,
# or the checks would run the slow direct forms throughout.
#
# The torus and lengths-add tests in verify.py call the kernel
# _act_right(sym, v), which is how a pair-memo miss computes sym tau_v.
# Their oracles call the public act_right, which reads the pair memo.  The
# memo derives every pair of a torus orbit from the first one computed, so
# under a wrong right shift a public value depends on the products made
# before it.
# reports() therefore runs these two oracles with the pair memo off
# (PAIR_MISS_ORACLES), where each public act_right is one pair miss.


def _signs(w):
    return (-1, 1) if w.length == 0 else (-1, 0, 1)


def direct_torus_cases(alg, max_length):
    return list(itertools.product(alg.weyl.elements(max_length), range(alg.weyl.n)))


def direct_torus(alg, max_length):
    W, H = alg.weyl, alg.hecke

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

    return torus_shift


def direct_lengths_add_cases(alg, max_length):
    W = alg.weyl
    supports = W.elements(max_length)
    return [
        (w, v)
        for w in supports
        for v in supports
        if v.length >= 1 and w.length + v.length <= max_length and W.lengths_add(w, v)
    ]


def direct_lengths_add(alg, max_length):
    W, H = alg.weyl, alg.hecke

    def act(x, w):
        return alg.act_right(x, H.tau(w))

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

    return lengths_add


def direct_slide_cases(alg, max_length):
    W = alg.weyl
    return [
        BasisSymbol(d, sign, w)
        for w in W.elements(max_length)
        if w.length <= min(6, max_length)
        for d in (1, 2)
        for sign in ((-1, 1) if w.length == 0 else (-1, 0, 1))
    ]


def direct_slide(alg, max_length):
    idempotents = alg.hecke.idempotents()

    def slide(sym):
        weight = alg._torus_weight(sym)
        for m, idem in enumerate(idempotents):
            # e_m term by term, each term one kernel call
            lhs: dict = {}
            for t, c in idem.coeffs.items():
                add_into(lhs, alg._act_right(sym, t).items(), c, alg.field.p)
            lhs = alg._expand(lhs)
            mprime = (m if sym.support.length % 2 == 0 else -m) + weight
            rhs = alg.idempotent_times(mprime, alg.symbol_element(sym))
            if lhs != rhs.coeffs:
                return (sym, m)

    return slide


def direct_phi_tau_cases(alg, max_length):
    return alg.weyl.elements(max_length)


def direct_phi_tau(alg, max_length):
    supports = alg.weyl.elements(max_length)

    def phi_tau(w):
        for v in supports:
            if duality_pairing(alg.phi(w), alg.tau(v)) != (1 if v == w else 0):
                return (w, v)

    return phi_tau


def direct_round_trip_cases(alg, max_length):
    return list(alg.basis_symbols(max_length))


def direct_round_trip(alg, max_length):
    def round_trip(sym):
        if pres.evaluate(pres.word_for_basis(alg, sym)) != alg.symbol_element(sym):
            return sym

    return round_trip


def direct_system_cases(alg, max_length):
    return [*itertools.product(range(alg.weyl.n), repeat=2), "sum"]


def direct_system(alg, max_length):
    H = alg.hecke
    idems = H.idempotents()

    def idempotent_system(case):
        if case == "sum":
            return None if sum(idems, H.zero()) == H.one() else "sum is not 1"
        a, b = case
        return None if H.mul(idems[a], idems[b]) == (idems[a] if a == b else H.zero()) else case

    return idempotent_system


# check name -> (the function in verify.py that returns its cases and its test,
# then its direct test for a _restated check; the oracle's cases; the oracle's
# test)
RESTATED = {
    "rightaction_torus_all_degrees":
        (verify._torus_shift, direct_torus_cases, direct_torus),
    "rightaction_deg1_lengths_add_{n}_pairs":
        (verify._lengths_add, direct_lengths_add_cases, direct_lengths_add),
    "rightaction_idempotent_slide":
        (verify._idempotent_slide, direct_slide_cases, direct_slide),
    "duality_phi_tau_{n}_supports":
        (verify._phi_tau, direct_phi_tau_cases, direct_phi_tau),
    "presentation_round_trip_{n}_symbols":
        (verify._round_trip, direct_round_trip_cases, direct_round_trip),
    "e0_idempotent_system":
        (lambda alg, max_length: verify._idempotent_system(alg), direct_system_cases, direct_system),
}


# oracles run with the pair memo off (see the comment above the oracles)
PAIR_MISS_ORACLES = {"rightaction_torus_all_degrees", "rightaction_deg1_lengths_add_{n}_pairs"}


def _unmemoized_pair(alg, a, b):
    return MappingProxyType(product._pair_uncached(alg, a, b))


def reports(alg, max_length):
    """Check name -> (the suites' report, the oracle's report), each
    (ok, counterexample), for every row of RESTATED."""
    results = [
        *verify.suite_rightaction(alg, max_length=max_length),
        *verify.suite_duality(alg, max_length=max_length, samples=1),
        *verify.suite_presentation(alg, max_length=max_length, samples=1),
        *verify.suite_e0(alg, max_length=max_length, samples=1),
    ]
    suites = {r.name: (r.ok, r.counterexample) for r in results}
    out = {}
    for name, (_, cases, test) in RESTATED.items():
        with pytest.MonkeyPatch.context() as patch:
            if name in PAIR_MISS_ORACLES:
                patch.setattr(product, "_pair", _unmemoized_pair)
            oracle = verify._check(name, cases(alg, max_length), test(alg, max_length))
        # a report under another count is missing here
        out[name] = (suites.get(oracle.name), (oracle.ok, oracle.counterexample))
    return out


@pytest.mark.parametrize("p", [5, 7, 13])
def test_restated_checks_agree_with_the_direct_forms_case_by_case(p):
    alg = ExtAlgebra(p)
    for name, (helper, oracle_cases, oracle) in RESTATED.items():
        cases, *forms = helper(alg, 8)
        cases = list(cases)
        assert cases == list(oracle_cases(alg, 8)), name
        test = oracle(alg, 8)
        expected = [test(case) for case in cases]
        assert expected == [None] * len(cases), name
        for form in forms:
            assert [form(case) for case in cases] == expected, name


def test_the_kernel_checks_make_one_call_per_case_and_symbol(monkeypatch):
    """A faster torus, lengths-add or slide test must not check less: at
    p=5, L=3 each calls the kernel _act_right once per (case, symbol) of its
    direct form above, those of the torus and lengths-add forms run with the
    pair memo off (each public act_right one call), and the slide's once per
    (symbol, torus element t), the calls its direct form makes for one e_m."""
    alg = ExtAlgebra(5)
    real, calls = alg._act_right, []

    def counted(sym, v):
        calls.append((sym, v))
        return real(sym, v)

    monkeypatch.setattr(alg, "_act_right", counted)

    def count(run):
        calls.clear()
        run()
        return len(calls)

    expected = {
        "rightaction_torus_all_degrees":
            sum(2 * len(_signs(w)) + 1 for w, _ in direct_torus_cases(alg, 3)),
        "rightaction_deg1_lengths_add_{n}_pairs":
            sum(len(_signs(w)) for w, _ in direct_lengths_add_cases(alg, 3)),
        "rightaction_idempotent_slide": len(direct_slide_cases(alg, 3)) * alg.weyl.n,
    }
    assert expected == {"rightaction_torus_all_degrees": 752,
                        "rightaction_deg1_lengths_add_{n}_pairs": 480,
                        "rightaction_idempotent_slide": 640}
    for name, total in expected.items():
        helper, oracle_cases, oracle = RESTATED[name]
        cases, test, *_ = helper(alg, 3)
        assert count(lambda: verify._check(name, cases, test)) == total, name
        if name in PAIR_MISS_ORACLES:
            with monkeypatch.context() as patch:
                patch.setattr(product, "_pair", _unmemoized_pair)
                direct = oracle_cases(alg, 3), oracle(alg, 3)
                assert count(lambda: verify._check(name, *direct)) == total, name


def test_the_slide_reads_one_right_side_per_symbol_and_index(monkeypatch):
    """Beside its kernel calls, the slide's restated test reads the right
    side e_m' sym of each m from idempotent_times' kernel _project, one call
    per (symbol, m): at p=5, L=3 as many as its kernel calls, 640."""
    alg = ExtAlgebra(5)
    real, calls = alg._project, []

    def counted(out, m, row, scale):
        calls.append((m, dict(row), scale))
        real(out, m, row, scale)

    monkeypatch.setattr(alg, "_project", counted)
    cases, restated, _ = verify._idempotent_slide(alg, 3)
    assert verify._check("rightaction_idempotent_slide", cases, restated).ok
    assert len(calls) == 640
    assert calls == [(alg._slide(sym, m), {sym: 1}, 1)
                     for sym in direct_slide_cases(alg, 3) for m in range(alg.weyl.n)]


def test_the_slide_check_leaves_the_expansion_memo_empty():
    """The right side of the slide is read as idempotent_times' row, one
    character key, so no case expands it."""
    alg = ExtAlgebra(13)
    cases, restated, _ = verify._idempotent_slide(alg, 8)
    assert verify._check("rightaction_idempotent_slide", cases, restated).ok
    assert alg._char_cache == {}


@pytest.mark.parametrize("p", [5, 13])
def test_the_lengths_add_cases_are_every_pair_whose_lengths_add(p):
    """The cases, listed from each v's length and first letter, are the
    pairs (w, v) that W.lengths_add keeps, in the same order."""
    alg = ExtAlgebra(p)
    for max_length in (1, 2, 5, 8):
        cases, _ = verify._lengths_add(alg, max_length)
        assert list(cases) == direct_lengths_add_cases(alg, max_length), max_length


def test_the_deterministic_checks_stream_their_cases():
    """No check holds a list of its cases; duality_phi_tau's cases are the
    supports, which it lists anyway for its tau(v)."""
    alg = ExtAlgebra(5)
    for name, (helper, _, _) in RESTATED.items():
        if name != "duality_phi_tau_{n}_supports":
            cases, *_ = helper(alg, 2)
            assert iter(cases) is cases, name


def test_a_false_alarm_of_the_restated_test_does_not_fail_the_check(monkeypatch):
    """With the slide built on a negated table of the powers of u0, which
    only its restated test reads (the expected right sides and columns),
    the restated test fails every case and the direct form, which reads the
    engine, passes them all: the check runs the direct form on each case
    and passes."""
    alg = ExtAlgebra(5)
    real = PrimeField.root_powers
    with monkeypatch.context() as patch:
        patch.setattr(PrimeField, "root_powers",
                      lambda field: tuple(field.p - u for u in real(field)))
        cases, restated, direct = verify._idempotent_slide(alg, 2)
    cases = list(cases)
    assert cases and all(restated(case) is not None and direct(case) is None for case in cases)
    slide = verify._restated("rightaction_idempotent_slide", cases, restated, direct)
    assert (slide.ok, slide.counterexample) == (True, None)


def _torus_rows_as_character_keys(alg):
    """ExtAlgebra._act_right writing sym t, at a torus element t, as its
    p - 1 character keys sum_m u0^((m - k) b) e_m s0, b the exponent of
    sym t and k its torus weight: the same element, as sum_m e_m = 1."""
    real, p, n, powers = alg._act_right, alg.field.p, alg.weyl.n, alg.field.root_powers()

    def act(sym, v):
        row = real(sym, v)
        if v.word:
            return row
        ((image, c),) = row.items()
        d, sign, (b, word) = image
        k = alg._torus_weight(image)
        return {(m, d, sign, word): c * powers[(m - k) * b % n] % p for m in range(n)}

    return act


def test_a_false_alarm_through_the_kernel_rows_does_not_fail_the_check(monkeypatch):
    """With each kernel row at a torus element written as character keys,
    equal to {sym t: 1} only once expanded, the slide's restated test fails
    every case and the direct form, which expands its sum, passes them all;
    the slide and the torus check, which expands each row, pass."""
    alg = ExtAlgebra(5)
    monkeypatch.setattr(alg, "_act_right", _torus_rows_as_character_keys(alg))
    cases, restated, direct = verify._idempotent_slide(alg, 2)
    cases = list(cases)
    assert cases and all(restated(case) is not None and direct(case) is None for case in cases)
    results = {r.name: r for r in verify.suite_rightaction(alg, max_length=2)}
    for name in ("rightaction_idempotent_slide", "rightaction_torus_all_degrees"):
        assert (results[name].ok, results[name].counterexample) == (True, None), name


@pytest.mark.parametrize("p", [5, 7, 13])
def test_act_right_walks_a_word_one_letter_at_a_time(p):
    """row tau_v, v = omega^e u, is the right torus shift of row by e, then
    one product with tau_{s_i} per letter of u, from left to right, both
    through _multiply; on one symbol it is the kernel _act_right(sym, v).
    Rows are one symbol, or one symbol plus a character key."""
    alg = ExtAlgebra(p)
    W = alg.weyl
    rng = random.Random(f"walk:{p}")
    for _ in range(300):
        sym = verify._random_symbol(rng, alg, rng.randint(0, 3), 6)
        c = rng.randrange(1, p)
        row = {sym: c}
        if rng.random() < 0.5:
            other = verify._random_symbol(rng, alg, rng.randint(0, 3), 6)
            row.update(alg.idempotent_times(rng.randrange(W.n), alg.symbol_element(other)).row)
        v = verify._random_weyl(rng, alg, 6)
        walked = shift_right(alg, row, v.exp)
        for letter in v.word:
            walked = product._multiply(alg, walked, {BasisSymbol(0, None, W.simple(letter)): 1})
        assert product._multiply(alg, row, {BasisSymbol(0, None, v): 1}) == walked, (row, v)
        if len(row) == 1:
            assert {k: x * c % p for k, x in alg._act_right(sym, v).items()} == walked, (sym, v)


@pytest.mark.parametrize("p", [5, 7])
def test_evaluate_multiplies_the_letter_images_from_left_to_right(p):
    """evaluate multiplies a word from its last letter, the image of each
    letter times the value of the suffix after it; by associativity that is
    the value of its prefix times the image of its last letter."""
    alg = ExtAlgebra(p)
    images = pres.generator_images(alg)
    rng = random.Random(f"fold:{p}")
    for _ in range(200):
        word = tuple(rng.randrange(7) for _ in range(rng.randint(0, 6)))
        c = rng.randrange(1, p)
        acc = alg.one()
        for letter in word:
            acc = product.multiply(acc, images[letter])
        assert pres.evaluate(pres.FreeElement(alg, {word: c})) == acc.scale(c), word


def _wrong_inverse(H):
    """HeckeAlgebra.idempotent with lambda(t) where lambda(t)^-1 belongs."""
    p, n, powers = H.field.p, H.weyl.n, H.field.root_powers()
    return lambda m: H.element({t: p - powers[m * e % n] for e, t in enumerate(H.weyl.torus())})


def _slide_slip(alg):
    """_slide with m' = m + k at odd length too."""
    return lambda sym, m: (m + alg._torus_weight(sym)) % alg.weyl.n


def _right_scalar_dropped(H):
    """HeckeAlgebra.mul reading every term of the right factor with scalar 1."""
    real = H.mul
    return lambda a, b: sum((real(a, H.tau(w)) for w in b.coeffs), H.zero())


def _torus_rule_slipped(H):
    """HeckeAlgebra.mul with tau_t tau_t' = tau_(t t'^-1): past a word of even
    length the torus exponent of the right factor enters negated."""
    real, W = H.mul, H.weyl

    def mul(a, b):
        flipped = H.element({WeylElement(W, -w.exp % W.n, w.word): c for w, c in b.coeffs.items()})
        return sum((real(H.element({w: c}), b if len(w.word) % 2 else flipped)
                    for w, c in a.coeffs.items()), H.zero())

    return mul


def _right_exponent_flipped(alg):
    """ExtAlgebra._adds_right with the sign of the exponent of v flipped: the
    right torus shift, alone or under a word, goes the wrong way."""
    real, n = alg._adds_right, alg.weyl.n
    return lambda sym, v: real(sym, _weyl((-v[0] % n, v[1])))


def _letter_row_off_by_one(alg):
    """ExtAlgebra._letter_on_symbol with +1 on every coefficient of tau_{s0}
    beta^-_w where lengths add.  A chain reads the letter memo only where a
    letter shortens the support, and a lengths-add pair miss reads
    _adds_left or _adds_right, so every restated check passes."""
    real, p = alg._letter_on_symbol, alg.field.p

    def row(i, sym):
        out = real(i, sym)
        if i == S0 and sym[:2] == (1, -1) and sym[2][1][:1] != (S0,):
            return {k: (c + 1) % p for k, c in out.items()}
        return out

    return row


def _cup_constant_wrong(module):
    """product._cup_symbols with phi_w cup tau_w = 2 phi_w."""
    real = module._cup_symbols

    def cup(alg, a, b):
        out = real(alg, a, b)
        return {k: 2 * c for k, c in out.items()} if (a[0], b[0]) == (3, 0) else out

    return cup


def _generators_swapped(module):
    """presentation.generator_images with the images of B_m and B_p swapped."""
    real = module.generator_images

    def images(alg):
        out = dict(real(alg))
        out[module.B_M], out[module.B_P] = out[module.B_P], out[module.B_M]
        return out

    return images


@pytest.mark.parametrize("mutant, owner, attr, failures", [
    (_wrong_inverse, "hecke", "idempotent", {"rightaction_idempotent_slide": "(bm(w(0;)), 1)"}),
    (_slide_slip, "alg", "_slide", {}),
    (_right_scalar_dropped, "hecke", "mul", {"e0_idempotent_system": "(0, 0)"}),
    (_torus_rule_slipped, "hecke", "mul", {"e0_idempotent_system": "(1, 1)"}),
    (_right_exponent_flipped, "alg", "_adds_right", {
        "rightaction_torus_all_degrees": "(1, -1, w(0;), 1)",
        "rightaction_deg1_lengths_add_{n}_pairs": "(-1, w(0;), w(1; s0))",
        "rightaction_idempotent_slide": "(bm(w(0;)), 1)",
        "presentation_round_trip_{n}_symbols": "bm(w(0;))",
    }),
    (_letter_row_off_by_one, "alg", "_letter_on_symbol", {}),
    (_cup_constant_wrong, "product", "_cup_symbols",
     {"duality_phi_tau_{n}_supports": "(w(0;), w(0;))"}),
    (_generators_swapped, "presentation", "generator_images",
     {"presentation_round_trip_{n}_symbols": "bm(w(0;))"}),
])
def test_a_restated_check_reports_what_its_direct_form_reports(
    monkeypatch, mutant, owner, attr, failures
):
    """failures: check name -> its first counterexample; every other
    restated check passes."""
    alg = ExtAlgebra(5)
    target = {"hecke": alg.hecke, "alg": alg, "product": product, "presentation": pres}[owner]
    monkeypatch.setattr(target, attr, mutant(target))
    for name, (got, expected) in reports(alg, 2).items():
        counterexample = failures.get(name)
        assert got == expected == (counterexample is None, counterexample), name


def _chain_mutant(alg, flipped=False, dropped=False):
    """ExtAlgebra._chain with e_m and e_-m swapped in the projection of a
    row's character key past the rest of the word (flipped), or with the
    plain survivor of a row carried on without its coefficient (dropped)."""
    p = alg.field.p

    def chain(word, key, c, out):
        n = len(word)
        while n and key[2][1][:1] == word[n - 1:n]:
            n -= 1
            rest, plain = _weyl((0, word[:n])), None
            for entry, ce in alg._letter_on_symbol(word[n], key).items():
                if len(entry) == 3:
                    plain = entry, ce
                else:
                    m = -entry[0] if (n % 2 == 1) != flipped else entry[0]
                    alg._project(out, m, alg._adds_left(rest, alg._base(entry)), c * ce)
            if plain is None:
                return
            key, c = plain[0], c if dropped else c * plain[1] % p
        out.update(alg._adds_left(_weyl((0, word[:n])), key, c))

    return chain


@pytest.mark.parametrize("faults, first_failure", [
    ({}, None),
    ({"flipped": True}, ("relator_bimodule_05", "evaluates to -2*b0(w(1; s0)) + 2*b0(w(3; s0))")),
    ({"dropped": True}, ("relator_bimodule_05", "evaluates to 2*bp(w(2;))")),
], ids=["unmutated", "projection-flipped", "survivor-coefficient-dropped"])
def test_a_chain_mutant_fails_verify_all(monkeypatch, faults, first_failure):
    """A shortening chain projects each character key of a row to e_(+-m) by
    the parity of the rest of the word, and carries the one plain term of
    the row, with its coefficient, to the next letter; with either rule
    broken, verify all at p=5, L=2 runs to its end and fails, first at this
    check, and the degree-2 sections fail at the first torus symbol, as their
    rows are written, not built by the chain they check.  The unmutated copy
    passes."""
    alg = ExtAlgebra(5)
    monkeypatch.setattr(alg, "_chain", _chain_mutant(alg, **faults))
    results = verify.run(alg, max_length=2)
    failures = {r.name: r.counterexample
                for name in verify.SUITE_NAMES for r in results[name] if not r.ok}
    assert next(iter(failures.items()), None) == first_failure
    if faults:
        assert failures["sections_deg2_identity_1_symbols"] == "fails at am(w(0;))"


@pytest.mark.parametrize("entry", [(0, None, 1), (1, None, -1)],
                         ids=["sign-flipped", "index-plus-one"])
def test_a_wrong_degree0_shortening_row_fails_the_e0_cross_check(monkeypatch, entry):
    """The degree-0 rows of _LETTER_ROWS (where the word shortens) state the
    quadratic relation tau_(s_i) tau_w = -e_0 tau_w.  HeckeAlgebra.mul never
    reads them, so e0_braid_and_recursions, which compares it with the graded
    kernel _act_left, is the e0 check that sees a wrong one: -e_0 written as
    +e_0, or as -e_1."""
    rows = {key: row for key, row in graded._LETTER_ROWS.items() if key[1] == 0}
    assert len(rows) == 4 and set(rows.values()) == {(((0, None, -1),), ())}
    for key in rows:
        monkeypatch.setitem(graded._LETTER_ROWS, key, ((entry,), ()))
    results = verify.run_suite(ExtAlgebra(5), "e0", max_length=2, samples=200)
    failures = {r.name: r.counterexample for r in results if not r.ok}
    assert list(failures) == ["e0_braid_and_recursions_17"]
    assert failures["e0_braid_and_recursions_17"].startswith("(w(2; s0), w(0; s0), ")


def test_the_e0_cross_check_makes_one_kernel_call_per_braid_case(monkeypatch):
    """e0_braid_and_recursions reads the graded product of each pair (v, w)
    from one call of the kernel _act_left(v, tau_w), so it cannot check less:
    at p=5, L=3 it runs 200 cases and makes 200 calls, one per case."""
    alg = ExtAlgebra(5)
    real, calls = alg._act_left, []

    def counted(u, sym, c=1):
        calls.append((u, sym))
        return real(u, sym, c)

    monkeypatch.setattr(alg, "_act_left", counted)
    results = {r.name: r for r in verify.suite_e0(alg, max_length=3, samples=200)}
    assert results["e0_braid_and_recursions_200"].ok
    assert len(calls) == 200
    assert all(sym[:2] == (0, None) and len(u.word) <= 3 for u, sym in calls)


def test_the_eigen_law_can_fail_before_the_first_wrong_product(monkeypatch):
    """With the torus rule slipped, the restated test of e0_idempotent_system
    fails (1, 0), where e_1 e_0 = 0 still holds; the check reports the direct
    form's (1, 1), as the mutant test above asserts."""
    alg = ExtAlgebra(5)
    monkeypatch.setattr(alg.hecke, "mul", _torus_rule_slipped(alg.hecke))
    cases, restated, direct = verify._idempotent_system(alg)
    assert verify._check("e0_idempotent_system", cases, restated).counterexample == "(1, 0)"
    assert direct((1, 0)) is None


def _public_act_right_result_unexpanded(alg):
    """ExtAlgebra.act_right returning a result whose coeffs are its raw row,
    character keys left unexpanded."""
    real = alg.act_right

    def act(x, h):
        y = real(x, h)
        y._coeffs = y.row
        return y

    return act


def _public_act_right_compress_slipped(alg):
    """ExtAlgebra.act_right with e_(m+1) for every character key of h as a
    degree-0 row."""
    n = alg.weyl.n

    def act(x, h):
        h = {((k[0] + 1) % n, *k[1:]) if len(k) == 4 else k: c
             for k, c in alg._operand(alg.embed(h)).items()}
        return graded.GradedElement(alg, product._multiply(alg, alg._operand(x), h))

    return act


def _char_expansion_negated(alg):
    """ExtAlgebra._char_expansion with every coefficient negated."""
    real, p = alg._char_expansion, alg.field.p
    return lambda key: {k: p - c for k, c in real(key).items()}


def _public_idempotent_times_shifted(alg):
    """ExtAlgebra.idempotent_times(m, x) returning e_(m+1) x."""
    real = alg.idempotent_times
    return lambda m, x: real(m + 1, x)


def _act_right_walks_right_to_left(alg):
    """ExtAlgebra._act_right applying the letters of a word from the right
    where lengths do not add."""
    real, W = alg._act_right, alg.weyl

    def act(sym, v):
        exp, word = v
        if len(word) < 2 or W.lengths_add(sym[2], v):
            return real(sym, v)
        cur = shift_right(alg, {sym: 1}, exp)
        for letter in reversed(word):
            cur = product._multiply(alg, cur, {BasisSymbol(0, None, W.simple(letter)): 1})
        return cur

    return act


def _one_degree1_word_doubled(real):
    """word_for_basis with the word of b+(w(2; s1)) scaled by 2."""
    def word_for_basis(alg, sym, slots=None):
        word = real(alg, sym, slots)
        return word.scale(2) if sym == BasisSymbol(1, 1, alg.weyl.element(2, (S1,))) else word

    return word_for_basis


def _one_torus_word_dropped(real):
    """word_for_basis without the last word, in sorted order, of each
    degree-2 symbol at a torus support, its tokens E(m) expanded."""
    def word_for_basis(alg, sym, slots=None):
        word = real(alg, sym, slots)
        if sym.degree == 2 and not sym.support.word:
            word = word.expand()
            del word.coeffs[max(word.coeffs)]
        return word

    return word_for_basis


@pytest.mark.parametrize("mutant", [_one_degree1_word_doubled, _one_torus_word_dropped])
def test_the_round_trip_reports_what_a_direct_loop_reports(monkeypatch, mutant):
    """The round trip reads one suffix walker per torus orbit; it names the
    check and the first counterexample a loop of evaluate names."""
    alg = ExtAlgebra(5)
    monkeypatch.setattr(pres, "word_for_basis", mutant(pres.word_for_basis))
    n, sym = next((n, sym) for n, sym in enumerate(alg.basis_symbols(2), start=1)
                  if pres.evaluate(pres.word_for_basis(alg, sym)) != alg.symbol_element(sym))
    (check,) = [r for r in verify.run_suite(alg, "presentation", max_length=2)
                if r.name.startswith("presentation_round_trip")]
    assert (check.name, check.ok, check.counterexample) == (
        f"presentation_round_trip_{n}_symbols", False, repr(sym))


# mutant, the attribute of ExtAlgebra it replaces, the checks whose faster
# test skips the faulty code and passes, and check -> first counterexample of
# checks in verify all that run it.  The suites to run are the name prefixes.
SKIPPED_CODE_MUTANTS = [
    (_public_act_right_result_unexpanded, "act_right",
     ["rightaction_torus_all_degrees", "rightaction_deg1_lengths_add_{n}_pairs"],
     {"rightaction_deg1_shortening": "(0, w(0; s0))",
      "rightaction_deg3_reflections": "(w(0; s0), 0)"}),
    (_public_act_right_compress_slipped, "act_right",
     ["rightaction_torus_all_degrees", "rightaction_deg1_lengths_add_{n}_pairs"],
     {"sections_identity_fixed_forms": "summand 2 misses phi(1)"}),
    (_char_expansion_negated, "_char_expansion", ["rightaction_idempotent_slide"],
     {"rightaction_deg3_reflections": "(w(0; s0), 0)",
      "sections_identity_fixed_forms": "summand 0 misses phi(1)"}),
    (_public_idempotent_times_shifted, "idempotent_times", ["rightaction_idempotent_slide"],
     {"rightaction_deg1_shortening": "(0, w(0; s0))"}),
    (_act_right_walks_right_to_left, "_act_right", ["rightaction_deg1_lengths_add_{n}_pairs"],
     {"rightaction_deg1_shortening": "(0, w(0; s0 s1))"}),
]


@pytest.mark.parametrize("mutant, attr, passing, caught", SKIPPED_CODE_MUTANTS)
def test_code_a_faster_test_skips_is_caught_by_another_check(
    monkeypatch, mutant, attr, passing, caught
):
    """The torus and lengths-add tests call the kernel _act_right, not the
    public act_right; the slide reads its right side from _project, not the
    public idempotent_times, and never expands it; a lengths-add
    pair miss never reaches the transport of _act_right.  A fault
    in the code so skipped passes those checks, and other checks of verify
    all fail it."""
    alg = ExtAlgebra(5)
    monkeypatch.setattr(alg, attr, mutant(alg))
    suites = {name.split("_")[0] for name in [*passing, *caught]}
    results = [r for suite in sorted(suites)
               for r in verify.run_suite(alg, suite, max_length=2, samples=1)]

    def report(template):
        r = next(r for r in results if r.name.startswith(template.split("{n}")[0]))
        return (r.ok, r.counterexample)

    for name in passing:
        assert report(name) == (True, None), name
    for name, counterexample in caught.items():
        assert report(name) == (False, counterexample), name


# Entries of the s0 letter table, each with a wrong value: (row key, entry
# group, entry, mutant).  The s1 half is derived from this table through the
# uniformizer conjugation, so a wrong s0 entry shows in both halves, and
# uniformizer_conj_multiplicative is no longer bound to see it.
S0_ROW_MUTANTS = [
    # -2 e_1 beta^0_w in tau_{s0} beta^-_w where the word shortens
    ((1, -1), 0, (1, 0, -2), (1, 0, -1)),
    # e_2 alpha^-_w in tau_{s0} alpha^+_w where the word shortens, at l(w) = 1
    ((2, 1), 1, (2, -1, 1), (3, -1, 1)),
]


@pytest.mark.parametrize("key, group, entry, mutant", S0_ROW_MUTANTS)
def test_a_wrong_s0_table_entry_fails_the_relators(monkeypatch, key, group, entry, mutant):
    row = list(graded._S0_ROWS[key])
    assert entry in row[group]
    row[group] = tuple(mutant if e == entry else e for e in row[group])
    s0_rows = {**graded._S0_ROWS, key: tuple(row)}
    # the s1 table is derived from the mutated s0 table, as at import
    monkeypatch.setattr(graded, "_LETTER_ROWS", graded._letter_rows(s0_rows))
    results = verify.run_suite(ExtAlgebra(5), "relators", max_length=2)
    assert any(not r.ok for r in results)


def random_weyl_by_randint(rng, alg, max_length):
    """verify._random_weyl as it was written before: randint, then choice."""
    ln = rng.randint(0, max_length)
    word = _alternating_word(rng.choice((S0, S1)), ln) if ln else ()
    return _weyl((rng.randrange(alg.weyl.n), word))


@pytest.mark.parametrize("p", [5, 13])
@pytest.mark.parametrize("seed", [0, 7])
def test_the_random_weyl_elements_are_the_ones_randint_and_choice_drew(p, seed):
    alg = ExtAlgebra(p)
    for max_length in (1, 2, 8):
        rng, old = random.Random(f"e0:{p}:{seed}"), random.Random(f"e0:{p}:{seed}")
        assert ([verify._random_weyl(rng, alg, max_length) for _ in range(2000)]
                == [random_weyl_by_randint(old, alg, max_length) for _ in range(2000)])
        assert rng.getstate() == old.getstate()
