"""Elements as symbolic rows, and the row-reading renderer.

A GradedElement keeps its symbolic row (GradedElement.row) and fills its
coeffs from the expansion on the first read; a row without a character
key is its own expansion.  The renderer and the JSON export read the row
itself, one torus orbit at a time.  Their output is checked here,
exhaustively at p=5 and p=7, against the sort every render used before
rows were read: the expansion sorted by (degree, word length, word,
exponent, sign), written out below as the oracle.  The column walk that
writes a torus orbit from its coefficient vectors is checked at p up to
1009 against the tuple walk kept in render_oracle.py.  Rows with and
without character keys are checked against the elements of their
expansions for every operation of the core.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckext import ExtAlgebra
from heckext.graded import KIND_NAMES, BasisSymbol, GradedElement, _orbit
from heckext.grammar import _exponents, _heads, element_to_json, parse_element, render_element
from heckext.product import multiply
from heckext.weyl import S0, S1

import render_oracle
from conftest import algebra
from scanner_oracle import _parse_scanned

PRIMES = [5, 7]


def old_term_key(term):
    """The sort key of the renderer before it read rows: degree, length,
    word, exponent, sign."""
    (d, sign, (exp, word)), _ = term
    return d, len(word), word, exp, -1 if sign is None else sign


def old_render(alg: ExtAlgebra, coeffs: dict) -> str:
    if not coeffs:
        return "0"
    p = alg.field.p
    parts = []
    for (d, sign, (exp, word)), c in sorted(coeffs.items(), key=old_term_key):
        if c <= (p - 1) // 2:
            parts.append(" + ")
        else:
            parts.append(" - ")
            c = p - c
        if c != 1:
            parts.append(f"{c}*")
        letters = "".join(" s0" if l == S0 else " s1" for l in word)
        parts.append(f"{KIND_NAMES[d, sign]}(w({exp};{letters}))")
    parts[0] = "" if parts[0] == " + " else "-"
    return "".join(parts)


def old_json(alg: ExtAlgebra, coeffs: dict) -> dict:
    terms = []
    for (d, sign, (exp, word)), c in sorted(coeffs.items(), key=old_term_key):
        support = {"exp": exp, "word": ["s0" if l == S0 else "s1" for l in word]}
        terms.append({"kind": KIND_NAMES[d, sign], "support": support, "coeff": c})
    return {"terms": terms}


def definition(alg: ExtAlgebra, row: dict) -> dict:
    """The coefficients of a row from the definition e_m s0 = -sum_b
    u0^((k - m) b) s_b, k the torus weight of s0."""
    p, n, W = alg.field.p, alg.weyl.n, alg.weyl
    out: dict = {}
    for key, c in row.items():
        if len(key) == 3:
            terms = {key: 1}
        else:
            m, d, sign, word = key
            s0 = BasisSymbol(d, sign, W.element(0, word))
            k = alg._torus_weight(s0)
            terms = {BasisSymbol(d, sign, W.element(b, word)): -alg.field.root_pow((k - m) * b)
                     for b in range(n)}
        for sym, v in terms.items():
            out[sym] = (out.get(sym, 0) + c * v) % p
    return {sym: v for sym, v in out.items() if v}


def orbit_symbols(alg: ExtAlgebra):
    """Every torus-free symbol with support length <= 2, as (d, sign, word)."""
    for d, sign, (exp, word) in alg.basis_symbols(2):
        if exp == 0:
            yield d, sign, word


def orbit_groups(alg: ExtAlgebra) -> list:
    """Every torus-free (degree, word) of support length <= 2, with its signs."""
    by_group: dict = {}
    for d, sign, word in orbit_symbols(alg):
        by_group.setdefault((d, word), []).append(sign)
    return list(by_group.items())


def edge_coefficients(p: int) -> tuple[int, ...]:
    """1, p - 1, (p - 1)/2 and (p + 1)/2: the edges of the balanced-sign rule."""
    return 1, p - 1, (p - 1) // 2, (p + 1) // 2


def is_expanded(x: GradedElement) -> bool:
    """Whether the coeffs of x are filled, read without filling them."""
    return x._coeffs is not None


def has_character_key(x: GradedElement) -> bool:
    return any(len(key) == 4 for key in x.row)


def assert_renders_as_expansion(alg: ExtAlgebra, row: dict) -> None:
    x = GradedElement(alg, dict(row))
    coeffs = definition(alg, row)
    assert render_element(x) == old_render(alg, coeffs), row
    assert element_to_json(x) == old_json(alg, coeffs), row
    assert not is_expanded(x)


@pytest.mark.parametrize("p", PRIMES)
def test_render_of_one_character_key_is_the_sorted_expansion(p):
    alg = ExtAlgebra(p)
    # a plain term before and after the orbit in the canonical order
    before = BasisSymbol(0, None, alg.weyl.element(2, ()))
    after = BasisSymbol(3, None, alg.weyl.element(1, (S1, S0, S1)))
    for d, sign, word in orbit_symbols(alg):
        for m in range(alg.weyl.n):
            for c in edge_coefficients(p):
                key = (m, d, sign, word)
                assert_renders_as_expansion(alg, {key: c})
                assert_renders_as_expansion(alg, {after: 2, key: c, before: p - 1})


@pytest.mark.parametrize("p", PRIMES)
def test_render_of_two_character_keys_of_one_degree_and_word(p):
    alg = ExtAlgebra(p)
    n = alg.weyl.n
    coefficients = edge_coefficients(p)
    for (d, word), signs in orbit_groups(alg):
        for m1 in range(n):
            for m2 in range(n):
                c1, c2 = coefficients[m1 % 4], coefficients[(m1 + m2 + 1) % 4]
                # two signs, whose orbits interleave in the order (exponent, sign)
                for s1, s2 in combinations(signs, 2):
                    assert_renders_as_expansion(alg, {(m2, d, s2, word): c2, (m1, d, s1, word): c1})
                # two characters on one orbit (for m1 == m2 the keys would be one)
                if m1 != m2:
                    for s in signs:
                        assert_renders_as_expansion(alg, {(m1, d, s, word): c1, (m2, d, s, word): c2})


def test_render_of_two_character_keys_of_one_sign_with_plain_terms():
    alg = ExtAlgebra(7)
    W, n, p = alg.weyl, alg.weyl.n, alg.field.p
    for d, sign, word in orbit_symbols(alg):
        # plain terms of the same sign at the ends of the orbit
        plain = {BasisSymbol(d, sign, W.element(0, word)): 1,
                 BasisSymbol(d, sign, W.element(n - 1, word)): p - 1}
        for m1, m2 in combinations(range(n), 2):
            keys = {(m1, d, sign, word): 3, (m2, d, sign, word): 5}
            assert_renders_as_expansion(alg, {**keys, **plain})


@pytest.mark.parametrize("p", [5, 1009])
def test_heads_follow_the_balanced_sign_rule(p):
    # the head of c is what old_render writes between two terms
    alg = ExtAlgebra(p)
    first, second = (BasisSymbol(0, None, alg.weyl.omega(e)) for e in (0, 1))
    heads = _heads(p)
    assert len(heads) == p
    for c in range(1, p):
        text = old_render(alg, {first: 1, second: c})
        assert heads[c] == text[len("tau(w(0;))"):-len("tau(w(1;))")], c


def test_the_render_tables_are_bounded_caches():
    # each entry holds p strings or ints
    for table in (_orbit, _heads, _exponents):
        assert table.cache_info().maxsize is not None


@pytest.mark.parametrize("p", PRIMES)
def test_render_of_a_key_with_plain_terms_that_cancel_part_or_all_of_its_orbit(p):
    alg = ExtAlgebra(p)
    W, n = alg.weyl, alg.weyl.n
    for d, sign, word in orbit_symbols(alg):
        for m in range(n):
            for c in edge_coefficients(p):
                key = (m, d, sign, word)
                expansion = definition(alg, {key: c})
                negated = {sym: p - v for sym, v in expansion.items()}
                first = {sym: v for sym, v in negated.items() if sym.support.exp < n // 2}
                assert_renders_as_expansion(alg, {key: c, **first})
                # a plain term that does not cancel, on the same orbit
                partial = dict(first)
                partial[BasisSymbol(d, sign, W.element(n - 1, word))] = 1
                assert_renders_as_expansion(alg, {key: c, **partial})
                whole = {key: c, **negated}
                assert render_element(GradedElement(alg, whole)) == "0"
                assert element_to_json(GradedElement(alg, whole)) == {"terms": []}
                assert GradedElement(alg, whole).is_zero


@pytest.mark.parametrize("p", PRIMES)
def test_render_of_plain_rows_is_unchanged(p):
    alg = ExtAlgebra(p)
    symbols = list(alg.basis_symbols(2))
    for i, sym in enumerate(symbols):
        row = {sym: edge_coefficients(p)[i % 4], symbols[(7 * i + 3) % len(symbols)]: 2}
        x = GradedElement(alg, row)
        assert render_element(x) == old_render(alg, x.coeffs)
        assert element_to_json(x) == old_json(alg, x.coeffs)
    assert render_element(alg.zero()) == "0"


# --- the column walk against the tuple walk ---


def assert_renders_as_oracle(x: GradedElement) -> str:
    text = render_element(x)
    assert text == render_oracle.render_element(x)
    assert element_to_json(x) == render_oracle.element_to_json(x)
    return text


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([5, 7, 13, 1009]), st.data())
def test_the_column_walk_renders_as_the_tuple_walk(p, data):
    # 0-3 character keys of mixed signs on one word, plain terms that cancel
    # a prefix of their orbits (all of them, at cut = n), and plain terms on
    # that word and on others
    alg = algebra(p)
    W, n = alg.weyl, alg.weyl.n
    groups = orbit_groups(alg)
    (d, word), signs = data.draw(st.sampled_from(groups))
    coefficient = st.integers(1, p - 1)
    row: dict = {}
    for _ in range(data.draw(st.integers(0, 3))):
        key = (data.draw(st.integers(0, n - 1)), d, data.draw(st.sampled_from(signs)), word)
        row[key] = data.draw(coefficient)
    cut = data.draw(st.one_of(st.sampled_from([0, 1, n - 1, n]), st.integers(0, n)))
    for sym, v in definition(alg, row).items():
        if sym.support.exp < cut:
            row[sym] = p - v
    for _ in range(data.draw(st.integers(0, 3))):
        (d2, word2), signs2 = data.draw(st.sampled_from([((d, word), signs)] + groups))
        sym = BasisSymbol(d2, data.draw(st.sampled_from(signs2)),
                          W.element(data.draw(st.integers(0, n - 1)), word2))
        if (c := (row.get(sym, 0) + data.draw(coefficient)) % p):
            row[sym] = c
        else:
            del row[sym]
    x = GradedElement(alg, row)
    assert_renders_as_oracle(x)
    assert not is_expanded(x)
    assert render_element(x) == old_render(alg, x.coeffs)


@pytest.mark.parametrize("p", [5, 1009])
def test_a_first_group_that_cancels_leaves_the_sign_to_the_next(p):
    # tau(w(.;)) sorts first; its orbit cancels to zero, and the next group
    # starts with a negative term, plain or of an orbit
    alg = algebra(p)
    key = (1, 0, None, ())
    cancelled = {key: 2, **{sym: p - v for sym, v in definition(alg, {key: 2}).items()}}
    plain = BasisSymbol(1, -1, alg.weyl.element(0, (S0,)))
    expected = {"kind": "bm", "support": {"exp": 0, "word": ["s0"]}, "coeff": p - 2}
    x = GradedElement(alg, {**cancelled, plain: p - 2})
    assert assert_renders_as_oracle(x) == "-2*bm(w(0; s0))"
    assert element_to_json(x) == {"terms": [expected]}
    # the orbit of e_m s0 starts at b = 0 with -1
    x = GradedElement(alg, {**cancelled, (3, 1, -1, (S0,)): 1})
    assert assert_renders_as_oracle(x).startswith("-bm(w(0; s0)) ")
    assert element_to_json(x)["terms"][0] == {**expected, "coeff": p - 1}
    assert len(element_to_json(x)["terms"]) == p - 1


# --- rows with and without character keys ---


def lazy_results(alg: ExtAlgebra) -> list:
    """Callables that each build a fresh result of one public entry, with
    coeffs not yet read: rows with a character key, then plain rows (one
    of them a whole torus orbit of p - 1 terms)."""
    H = alg.hecke
    parse = lambda text: parse_element(alg, text)
    y = "bm(w(1; s0)) + 2*a0(w(3; s1 s0))"
    return [
        lambda: parse("3*e(5)"),
        lambda: multiply(parse("3*e(5)"), parse(y)),
        lambda: multiply(parse(y), parse("e(2)")),
        lambda: multiply(parse("b0(w(1; s0))"), parse("b0(w(2; s0))")),
        lambda: alg.act_left(H.idempotent(3), parse(y)),
        lambda: alg.act_right(parse(y), H.idempotent(1)),
        lambda: alg.involution(parse("4*e(1)")),
        lambda: alg.uniformizer_conj(parse("4*e(1)")),
        lambda: alg.idempotent_times(2, parse("e(2)")),
        lambda: parse(y),
        lambda: multiply(parse(y), parse("tau(w(2; s1))")),
        lambda: alg.involution(parse(y)),
        lambda: alg.embed(H.idempotent(3)),
    ]


@pytest.mark.parametrize("p", [7, 13])
def test_lazy_results_agree_with_eager_elements(p):
    # each result against the element of its expansion, a plain row
    alg = ExtAlgebra(p)
    other = parse_element(alg, "tau(w(0;)) - b0(w(1; s0))")
    kinds = []
    for fresh in lazy_results(alg):
        x = fresh()
        kinds.append(has_character_key(x))
        assert not is_expanded(x)
        assert x.coeffs == alg._expand(x.row) == definition(alg, x.row)
        if not kinds[-1]:
            assert x.coeffs is x.row
        eager = GradedElement(alg, dict(x.coeffs))
        assert not has_character_key(eager)
        assert fresh() == eager and eager == fresh()
        assert fresh() + other == eager + other and other + fresh() == other + eager
        assert fresh() - eager == alg.zero()
        assert fresh().scale(3) == eager.scale(3) and 2 * fresh() == 2 * eager
        assert -fresh() == -eager and fresh().scale(p) == eager.scale(p) == alg.zero()
        for scaled in (fresh().scale(3), -fresh(), 2 * fresh()):
            assert has_character_key(scaled) == kinds[-1] and not is_expanded(scaled)
        assert fresh().is_zero == eager.is_zero
        for d in range(4):
            assert fresh().component(d) == eager.component(d)
        assert fresh().degrees() == eager.degrees()
        assert repr(fresh()) == repr(eager)
        assert multiply(fresh(), other) == multiply(eager, other)
        assert multiply(other, fresh()) == multiply(other, eager)
        assert alg.involution(fresh()) == alg.involution(eager)
    assert kinds == [True] * 9 + [False] * 4


def test_a_parsed_idempotent_is_one_character_key():
    alg = ExtAlgebra(1009)
    x = parse_element(alg, "3*e(5)")
    assert x.row == {(5, 0, None, ()): 3}
    assert alg.idempotent(-1).scale(1010).row == {(1007, 0, None, ()): 1}
    assert alg.idempotent(4).scale(1009).is_zero


def test_a_scaled_idempotent_stays_one_character_key():
    alg = ExtAlgebra(1009)
    assert parse_element(alg, "-3*e(5)").row == {(5, 0, None, ()): 1006}
    assert parse_element(alg, "-e(5)").row == {(5, 0, None, ()): 1008}
    assert (3 * parse_element(alg, "e(5)")).row == {(5, 0, None, ()): 3}
    assert alg._char_cache == {}


def test_a_sum_with_an_idempotent_stays_lazy():
    alg = ExtAlgebra(1009)
    x = parse_element(alg, "e(5) + e(11)")
    assert x.row == {(5, 0, None, ()): 1, (11, 0, None, ()): 1}
    assert alg._char_cache == {}
    assert x == alg.idempotent(5) + alg.idempotent(11)
    assert x - alg.idempotent(11) == alg.idempotent(5)


def test_a_component_keeps_its_character_keys():
    # filtering the expansion built 1,008 plain terms, and filled the expansion memo
    alg = ExtAlgebra(1009)
    x = parse_element(alg, "3*e(5) + bm(w(1; s0))")
    assert x.component(0).row == {(5, 0, None, ()): 3}
    assert x.component(1).row == {BasisSymbol(1, -1, alg.weyl.element(1, (S0,))): 1}
    assert x.component(2).is_zero
    assert alg._char_cache == {}
    assert x.component(0) == alg.idempotent(5).scale(3)


def test_the_structure_queries_read_the_row():
    # a character key and a plain term of other orbits cannot cancel, so
    # neither is expanded
    alg = ExtAlgebra(1009)
    x = parse_element(alg, "3*e(5) + bm(w(1; s0))")
    assert x.degrees() == {0, 1} and x.support_lengths() == {0, 1}
    assert not x.is_homogeneous(0) and x.component(0).is_homogeneous(0)
    assert alg._char_cache == {} and x._coeffs is None


@pytest.mark.parametrize("p", PRIMES)
def test_the_structure_queries_expand_only_an_orbit_whose_keys_can_cancel(p):
    # a key with plain terms of its orbit that cancel all of it, or all but
    # one term, beside a term of degree 3 at length 3
    alg = ExtAlgebra(p)
    phi = BasisSymbol(3, None, alg.weyl.element(0, (S0, S1, S0)))
    for d, sign, word in orbit_symbols(alg):
        key = (1, d, sign, word)
        negated = {sym: p - v for sym, v in definition(alg, {key: 1}).items()}
        whole = {phi: 1, key: 1, **negated}
        partial = dict(whole)
        del partial[next(iter(negated))]
        for row in (whole, partial, {phi: 1, key: 1}):
            x, expansion = GradedElement(alg, row), definition(alg, row)
            assert x.degrees() == {s.degree for s in expansion}, row
            assert x.support_lengths() == {s.support.length for s in expansion}, row
            assert x.is_homogeneous(3) == (row is whole or d == 3), row
            assert x._coeffs is None
        assert GradedElement(alg, whole).degrees() == {3}


@pytest.mark.parametrize("p", PRIMES)
def test_lazy_sums_are_the_sums_of_their_expansions(p):
    # every mix of rows with and without a character key, through the
    # operators and both parsers
    alg = ExtAlgebra(p)
    W = alg.weyl
    one, s0 = W.identity, W.element(1, (S0,))
    elements = [
        alg.idempotent(1), alg.idempotent(2).scale(3), alg.beta(-1, one), alg.tau(W.omega(1)),
        alg.act_left(alg.hecke.idempotent(1), alg.beta(0, s0)), alg.beta(0, s0), alg.zero(),
    ]
    for x in elements:
        for y in elements:
            eager = GradedElement(alg, x.coeffs), GradedElement(alg, y.coeffs)
            for op in (lambda a, b: a + b, lambda a, b: a - b):
                got = op(x, y)
                assert got == op(*eager) and got.is_zero == op(*eager).is_zero
                # a sum holds a character key only where an operand does
                assert has_character_key(got) <= (has_character_key(x) or has_character_key(y))
                assert repr(got) == repr(op(*eager))
    text = "e(1) + tau(w(1;)) - 2*e(1) + bm(w(0; s0))"
    for parsed in (parse_element(alg, text), _parse_scanned(alg, text)):
        assert has_character_key(parsed)
        assert parsed == -alg.idempotent(1) + alg.tau(W.omega(1)) + alg.beta(-1, W.s0)


def test_an_idempotent_request_at_p1009_builds_no_symbol_of_its_orbit():
    alg = ExtAlgebra(1009)
    x = multiply(parse_element(alg, "3*e(5)"), parse_element(alg, "bm(w(1; s0))"))
    text, payload = render_element(x), element_to_json(x)
    assert alg._char_cache == {}
    assert text.count("bm(") == len(payload["terms"]) == 1008
    # the first read of coeffs expands, once
    assert len(x.coeffs) == 1008 and len(alg._char_cache) == 1
    assert render_element(x) == text == old_render(alg, x.coeffs)


def test_a_row_of_several_keys_and_signs_at_p1009_builds_no_symbol_of_its_orbits():
    alg = ExtAlgebra(1009)
    x = multiply(parse_element(alg, "3*e(5) + 2*e(7)"),
                 parse_element(alg, "bm(w(1; s0)) - bp(w(2; s0)) + tau(w(3;))"))
    assert sum(len(key) == 4 and key[1:] == (1, -1, (S0,)) for key in x.row) == 2
    assert sum(len(key) == 4 and key[1:] == (1, 1, (S0,)) for key in x.row) == 2
    text, payload = render_element(x), element_to_json(x)
    assert alg._char_cache == {} and x._coeffs is None
    assert len(payload["terms"]) == text.count("(w(") > 2 * 1008
    assert text == old_render(alg, x.coeffs) and payload == old_json(alg, x.coeffs)
