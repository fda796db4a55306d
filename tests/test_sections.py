import copy
import gc
import pickle
import weakref

import pytest

import section_oracle
from conftest import algebra
from heckext import ExtAlgebra, graded, product, sections, verify
from heckext.coeff import add_into
from heckext.graded import BasisSymbol, GradedElement
from heckext.product import multiply
from heckext.sections import (
    TensorExpression,
    _section2_symbol,
    _section3_symbol,
    kernel_generators,
    section_deg2,
    section_deg3,
    section_deg3_symmetric,
    tensor_act,
    tensor_involution,
    tensor_uniformizer_conj,
)
from heckext.weyl import S0, S1, WeylElement


def t2(alg, terms):
    return TensorExpression.from_terms(alg, 2, terms)


def slot_through_multiply(alg, slot):
    """A slot as an element: a symbol, or a character key (m, 1, sign, word)
    as multiply(e_m, the symbol at torus exponent 0)."""
    if len(slot) == 3:
        return alg.symbol_element(slot)
    m, d, sign, word = slot
    s0 = BasisSymbol(d, sign, alg.weyl.element(0, word))
    return multiply(alg.idempotent(m), alg.symbol_element(s0))


def evaluate_through_multiply(t):
    """The oracle: each term's slots multiplied left to right through the
    public multiply, summed into an eager element."""
    alg = t.algebra
    total: dict = {}
    for syms, c in t.coeffs.items():
        acc = slot_through_multiply(alg, syms[0])
        for s in syms[1:]:
            if acc.is_zero:
                break
            acc = multiply(acc, slot_through_multiply(alg, s))
        add_into(total, acc.coeffs.items(), c, alg.field.p)
    return GradedElement(alg, total)


# --- the torus sections as built before their idempotents were slots ---
#
# Verbatim copies of the torus branches of _section2_symbol and
# _section3_symbol, with tensor_act and _map_slots as they were then: every
# torus idempotent expanded into its p - 1 terms.  The rows at supports of
# length >= 1 are unchanged, so the copies read them from the live code
# (section_deg2 of the length-1 combination is the _section2_element of
# then, which section_deg2 absorbed).


def expanded_tensor_act(h, t, side):
    alg = t.algebra
    terms = []
    for syms, c in t.coeffs.items():
        if side == "left":
            moved = alg.act_left(h, alg.symbol_element(syms[0]))
            terms.extend((c * cz, (z,) + syms[1:]) for z, cz in moved.coeffs.items())
        elif side == "right":
            moved = alg.act_right(alg.symbol_element(syms[-1]), h)
            terms.extend((c * cz, syms[:-1] + (z,)) for z, cz in moved.coeffs.items())
        else:
            raise ValueError("side must be 'left' or 'right'")
    return TensorExpression.from_terms(alg, t.arity, terms)


def expanded_map_slots(t, fn, sign=1, reverse=False):
    terms = []
    for syms, c in t.coeffs.items():
        coeff = c * sign
        out = []
        for s in reversed(syms) if reverse else syms:
            cs, image = fn(s)
            coeff *= cs
            out.append(image)
        terms.append((coeff, tuple(out)))
    return TensorExpression.from_terms(t.algebra, t.arity, terms)


def expanded_torus_section2(alg, sym):
    W = alg.weyl
    w = sym.support
    assert w.length == 0
    if sym.sign == 1:
        unit, image = alg._symbol_uniformizer_conj(sym)
        return expanded_map_slots(
            expanded_torus_section2(alg, image), alg._symbol_uniformizer_conj, unit)
    tau_s0 = alg.hecke.tau(W.s0)
    shifted = BasisSymbol(2, 1, W.mul(W.inv(W.s0), w))
    combo = alg.act_left(tau_s0, alg.symbol_element(shifted)) + alg.symbol_element(sym)
    if combo.support_lengths() - {1}:
        raise AssertionError("shift combination must land in the length-1 summands")
    return section_deg2(combo) + expanded_tensor_act(
        tau_s0, _section2_symbol(alg, shifted), "left"
    ).scale(-1)


def expanded_torus_section3(alg, sym):
    W = alg.weyl
    w = sym.support
    assert w.length == 0
    shifted = BasisSymbol(3, None, W.mul(W.inv(W.s0), w))
    h = alg.hecke.tau(W.s0) + alg.hecke.idempotent(0)
    return expanded_tensor_act(h, _section3_symbol(alg, shifted), "left")


def torus_symbols(alg):
    for e in range(alg.weyl.n):
        t = alg.weyl.omega(e)
        yield BasisSymbol(2, -1, t)
        yield BasisSymbol(2, 1, t)
        yield BasisSymbol(3, None, t)


class TestTensorExpression:
    def test_validation(self, alg5):
        W = alg5.weyl
        bm, bz0 = BasisSymbol(1, -1, W.identity), BasisSymbol(1, 0, W.s0)
        with pytest.raises(ValueError, match="mixed arities"):
            t2(alg5, [(1, (bm,))])
        with pytest.raises(ValueError, match="mixed arities"):
            t2(alg5, [(1, (bm, bz0)), (1, (bm, bz0, bm))])
        with pytest.raises(ValueError, match="degree-1"):
            t2(alg5, [(1, (BasisSymbol(0, None, W.s0), bm))])
        # a character key (m, degree, sign, word) is a slot in degree 1 only
        t2(alg5, [(1, ((3, 1, -1, ()), bz0))])
        with pytest.raises(ValueError, match="degree-1"):
            t2(alg5, [(1, ((3, 2, -1, ()), bz0))])
        for c in (0.5, True, "1", None):
            with pytest.raises(ValueError, match="must be an int"):
                t2(alg5, [(1, (bm, bz0)), (c, (bz0, bm))])
        # a sum of nonzero expressions of two arities is refused; the zero
        # expression, of no slots, adds to either
        x = t2(alg5, [(1, (bm, bz0))])
        y = TensorExpression.from_terms(alg5, 3, [(1, (bm, bz0, bm))])
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="different arity"):
                a + b
            with pytest.raises(ValueError, match="different arity"):
                a - b
        zero = x - x
        assert (zero.arity, x.arity, y.arity) == (0, 2, 3)
        assert zero + y == y + zero == y and zero + x == x

    @pytest.mark.parametrize("slot, message", [
        # a support of p=13, which symbol_element refuses at p=5
        (BasisSymbol(1, -1, WeylElement(None, 7)), "outside"),
        # b0 at a torus element, which BasisSymbol refuses
        ((0, 1, 0, ()), "sign-0"),
        ((0, 1, -1, (S0, S0)), "not alternating"),
        # e(9) is e(1) at p=5, so e(9) bm + 4 e(1) bm would be a nonzero
        # expression that evaluates to 0
        ((9, 1, -1, ()), "not an int in"),
        # True equals 1 and passed as a sign and as a degree
        ((0, 1, True, ()), "sign must be"),
        ((0, True, 1, ()), "degree must be"),
    ], ids=["support-of-p13", "b0-at-a-torus-element", "word-not-alternating", "index-out-of-range",
            "bool-sign", "bool-degree"])
    def test_a_slot_that_is_not_one_of_the_algebra_is_refused(self, alg5, slot, message):
        bz0 = BasisSymbol(1, 0, alg5.weyl.s0)
        with pytest.raises(ValueError, match=message):
            t2(alg5, [(1, (slot, bz0))])
        with pytest.raises(ValueError, match=message):
            t2(alg5, [(1, (bz0, slot))])

    def test_an_expression_is_compared_as_a_map_and_a_memo_read_is_read_only(self, alg5):
        W = alg5.weyl
        slot = BasisSymbol(1, 1, W.s0)
        t = t2(alg5, [(1, (slot, slot))])
        assert (t.arity, t.coeffs) == (2, {(slot, slot): 1})
        twin = t2(alg5, [(3, (slot, slot)), (3, (slot, slot))])
        assert t == twin and t != t.scale(2) and t != t2(ExtAlgebra(7), [(1, (slot, slot))])
        # a section read from the memo holds the memo's map, which refuses
        # writes; copy and pickle give an equal expression over a plain map
        sym = BasisSymbol(2, -1, W.omega(1))
        read = _section2_symbol(alg5, sym)
        stored = dict(read.coeffs)
        assert len(stored) == 4 and read.coeffs is alg5._section_cache[2, sym]
        with pytest.raises(TypeError):
            read.coeffs[slot, slot] = 1
        for copied in (copy.copy(read), copy.deepcopy(read), pickle.loads(pickle.dumps(read))):
            assert copied == read and copied.coeffs is not read.coeffs
            assert copied.evaluate() == alg5.symbol_element(sym)
            copied.coeffs[slot, slot] = 1
        read + t
        read.scale(2)
        -read
        assert alg5._section_cache[2, sym] == stored and _section2_symbol(alg5, sym).coeffs == stored

    def test_repr_spells_a_character_key_slot(self, alg5):
        W = alg5.weyl
        t = t2(alg5, [(2, ((3, 1, -1, ()), BasisSymbol(1, 0, W.s0)))])
        assert repr(t) == "2*(e(3)*bm(w(0;)) @ b0(w(0; s0)))"

    def test_add_refuses_another_algebra(self, alg5, alg7):
        one5, one7 = alg5.weyl.identity, alg7.weyl.identity
        x = t2(alg5, [(1, (BasisSymbol(1, 1, one5), BasisSymbol(1, 1, one5)))])
        y = t2(alg7, [(1, (BasisSymbol(1, 1, one7), BasisSymbol(1, 1, one7)))])
        with pytest.raises(ValueError, match="different parameters"):
            x + y
        with pytest.raises(ValueError, match="different parameters"):
            y + x

    def test_evaluate_examples(self, alg5):
        W = alg5.weyl
        one = W.identity
        bm = BasisSymbol(1, -1, one)
        bp = BasisSymbol(1, 1, one)
        bz1 = BasisSymbol(1, 0, W.s1)
        assert t2(alg5, [(1, (bz1, bp))]).evaluate() == alg5.alpha(1, W.s1)
        assert t2(alg5, [(1, (bm, bm))]).evaluate().is_zero
        triple = TensorExpression.from_terms(alg5, 3, [(1, (bp, bz1, bp))])
        assert triple.evaluate() == alg5.phi(W.s1)

    def test_outer_action_bilinearity_oracle(self, alg5):
        W, H = alg5.weyl, alg5.hecke
        t = TensorExpression.from_terms(
            alg5,
            2,
            [
                (1, (BasisSymbol(1, 1, W.identity), BasisSymbol(1, 0, W.s1))),
                (2, (BasisSymbol(1, 0, W.s0), BasisSymbol(1, -1, W.s1))),
            ],
        )
        assert tensor_act(H.tau(W.identity), t, "left").evaluate() == t.evaluate()
        for m in range(W.n):
            e = H.idempotent(m)
            assert tensor_act(e, t, "left").evaluate() == alg5.act_left(e, t.evaluate())
        tw = H.tau(W.omega(1))
        assert tensor_act(tw, t, "right").evaluate() == alg5.act_right(t.evaluate(), tw)

    def test_tensor_act_refuses_a_side_before_reading_a_term(self, alg5):
        empty = t2(alg5, [])
        with pytest.raises(ValueError, match="'middle'"):
            tensor_act(alg5.hecke.one(), empty, "middle")


def expressions(alg):
    """Sections of support <= 2 in degrees 2 and 3, torus ones included,
    and the kernel generators."""
    for sym in alg.basis_symbols(2, degrees=(2, 3)):
        el = alg.symbol_element(sym)
        yield (section_deg2 if sym.degree == 2 else section_deg3)(el)
    yield from kernel_generators(alg)


class TestCoreOperations:
    """What the core gives a tensor expression: evaluation is linear over
    +, -, scale and int *, the two tensor involutions square to the
    identity, and an operand of another kind is refused."""

    @pytest.mark.parametrize("p", [5, 13])
    def test_evaluate_is_linear(self, p):
        alg = algebra(p)
        by_arity: dict = {}
        for t in expressions(alg):
            by_arity.setdefault(t.arity, []).append(t)
        for ts in by_arity.values():
            for k, (x, y) in enumerate(zip(ts, ts[1:] + ts[:1])):
                c = 2 + k % (p - 2)
                ex, ey = x.evaluate(), y.evaluate()
                assert (x + y).evaluate() == ex + ey
                assert (x - y).evaluate() == ex - ey
                assert x.scale(c).evaluate() == ex.scale(c)
                assert (c * x).evaluate() == (x * c).evaluate() == ex.scale(c)
                assert (-x).evaluate() == -ex
                assert x - x == TensorExpression(alg, {}) and (x - x).evaluate().is_zero
        # a sum whose equal slot tuples merge: x + c (one of x's terms)
        x = section_deg2(alg.symbol_element(BasisSymbol(2, -1, alg.weyl.omega(1))))
        (slots, k), *_ = x.coeffs.items()
        merged = x + t2(alg, [(3, slots)])
        assert merged.coeffs.keys() == x.coeffs.keys() and merged.coeffs[slots] == (k + 3) % p
        assert merged.evaluate() == x.evaluate() + t2(alg, [(3, slots)]).evaluate()
        cancelled = x + t2(alg, [(p - k, slots)])
        assert slots not in cancelled.coeffs and len(cancelled.coeffs) == len(x.coeffs) - 1
        assert cancelled.evaluate() == x.evaluate() - t2(alg, [(k, slots)]).evaluate()

    @pytest.mark.parametrize("p", [5, 13])
    def test_the_tensor_involutions_square_to_the_identity(self, p):
        alg = algebra(p)
        for t in expressions(alg):
            for transform in (tensor_involution, tensor_uniformizer_conj):
                assert transform(transform(t)) == t, (transform, t)

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_both_involutions_fix_the_symmetric_section_at_the_identity(self, p):
        alg = algebra(p)
        t = section_deg3_symmetric(alg.phi(alg.weyl.identity))
        assert len(t.coeffs) > 1
        assert tensor_involution(t) == t == tensor_uniformizer_conj(t)

    def test_an_int_summand_and_a_product_of_expressions_are_refused(self, alg5):
        slot = BasisSymbol(1, 1, alg5.weyl.s0)
        t = t2(alg5, [(1, (slot, slot))])
        for call in (lambda: t + 3, lambda: 3 + t, lambda: t - 3, lambda: t * t,
                     lambda: t + alg5.symbol_element(slot)):
            with pytest.raises(TypeError):
                call()


class TestSectionRows:
    def test_deg2_rows_from_the_tables(self, alg5):
        W = alg5.weyl
        v = W.element(0, (S0,))
        s1v = W.mul(W.s1, v)
        t = section_deg2(alg5.alpha(1, s1v))
        assert t.coeffs == {(BasisSymbol(1, 0, W.s1), BasisSymbol(1, 1, v)): 1}

        s0w = W.element(0, (S0, S1))
        t = section_deg2(alg5.alpha(0, s0w))
        p = alg5.field.p
        assert t.coeffs == {(BasisSymbol(1, -1, W.identity), BasisSymbol(1, 1, s0w)): p - 1}

    def test_deg3_row_at_the_base(self, alg5):
        W = alg5.weyl
        t = section_deg3(alg5.phi(W.s0))
        p = alg5.field.p
        assert t.coeffs == {
            (
                BasisSymbol(1, -1, W.identity),
                BasisSymbol(1, 0, W.s0),
                BasisSymbol(1, -1, W.identity),
            ): p - 1,
        }

    def test_section_identities_small(self, alg5):
        for sym in alg5.basis_symbols(4, degrees=(2,)):
            el = alg5.symbol_element(sym)
            assert section_deg2(el).evaluate() == el, sym
        for sym in alg5.basis_symbols(4, degrees=(3,)):
            el = alg5.symbol_element(sym)
            assert section_deg3(el).evaluate() == el, sym
            assert section_deg3_symmetric(el).evaluate() == el, sym

    def test_symmetric_section_matches_plain_on_positive_length(self, alg5):
        for sym in alg5.basis_symbols(3, degrees=(3,)):
            if sym.support.length == 0:
                continue
            el = alg5.symbol_element(sym)
            assert section_deg3(el).coeffs == section_deg3_symmetric(el).coeffs

    def test_symmetric_section_commutes_with_involutions(self, alg5):
        # identity-support case, where the averaging matters
        phi1 = alg5.phi(alg5.weyl.identity)
        t = section_deg3_symmetric(phi1)
        for transform in (tensor_involution, tensor_uniformizer_conj):
            assert transform(t).evaluate() == phi1

    def test_symmetric_section_eval_composites(self, alg5):
        # eval(R(conj(x))) = conj(eval(R(x))) for both involutions
        for sym in alg5.basis_symbols(2, degrees=(3,)):
            x = alg5.symbol_element(sym)
            for conj in (alg5.uniformizer_conj, alg5.involution):
                lhs = section_deg3_symmetric(conj(x)).evaluate()
                rhs = conj(section_deg3_symmetric(x).evaluate())
                assert lhs == rhs, sym

    def test_identity_support_summands_match_frozen_forms(self, alg5):
        """The four conjugate summands, frozen in their printed shapes."""
        W, H = alg5.weyl, alg5.hecke
        one = W.identity
        e1 = H.idempotent(0)
        bm = BasisSymbol(1, -1, one)
        bp = BasisSymbol(1, 1, one)
        t3 = lambda c, syms: TensorExpression.from_terms(alg5, 3, [(c, syms)])
        forms = [
            tensor_act(H.tau(W.s0) + e1, t3(-1, (bm, BasisSymbol(1, 0, W.inv(W.s0)), bm)), "left"),
            tensor_act(H.tau(W.s1) + e1, t3(1, (bp, BasisSymbol(1, 0, W.inv(W.s1)), bp)), "left"),
            tensor_act(H.tau(W.inv(W.s0)) + e1, t3(-1, (bm, BasisSymbol(1, 0, W.s0), bm)), "right"),
            tensor_act(H.tau(W.inv(W.s1)) + e1, t3(1, (bp, BasisSymbol(1, 0, W.s1), bp)), "right"),
        ]
        phi1 = alg5.phi(one)
        for form in forms:
            assert form.evaluate() == phi1
        base = section_deg3(phi1)
        conjugates = [
            base,
            tensor_uniformizer_conj(base),
            tensor_involution(base),
            tensor_uniformizer_conj(tensor_involution(base)),
        ]
        for form, conj in zip(forms, conjugates):
            assert conj.evaluate() == form.evaluate() == phi1


class TestRowEvaluation:
    """evaluate runs on symbolic rows; the public-multiply path is its oracle."""

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_sections_match_the_multiply_oracle(self, p):
        alg = algebra(p)
        sections = {2: (section_deg2,), 3: (section_deg3, section_deg3_symmetric)}
        for sym in alg.basis_symbols(5, degrees=(2, 3)):
            el = alg.symbol_element(sym)
            for section in sections[sym.degree]:
                t = section(el)
                assert t.evaluate() == evaluate_through_multiply(t) == el, (section, sym)

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_kernel_generators_match_the_multiply_oracle(self, p):
        alg = algebra(p)
        for gen in kernel_generators(alg):
            assert gen.evaluate() == evaluate_through_multiply(gen)

    def test_lazy_result_renders_as_the_oracle(self, alg7):
        # e_3 beta^-_1 @ beta^0_{s0} evaluates to e_3 alpha^+_{s0}, one character key
        W = alg7.weyl
        t = t2(alg7, [(1, ((3, 1, -1, ()), BasisSymbol(1, 0, W.s0)))])
        assert 4 in map(len, t.evaluate().row)
        expected = multiply(alg7.idempotent(3), alg7.alpha(1, W.s0))
        assert repr(t.evaluate()) == repr(evaluate_through_multiply(t)) == repr(expected)


class TestTorusSections:
    """At a torus support the section keeps its idempotent as a character key
    in the head slot; the expanded construction it replaced is the oracle."""

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_sections_evaluate_as_the_expanded_construction(self, p):
        alg = algebra(p)
        for sym in torus_symbols(alg):
            el = alg.symbol_element(sym)
            if sym.degree == 2:
                new, old = section_deg2(el), expanded_torus_section2(alg, sym)
            else:
                new, old = section_deg3(el), expanded_torus_section3(alg, sym)
            assert all(len(slot) == 3 for slots in old.coeffs for slot in slots), sym
            assert new.evaluate() == old.evaluate() == el, sym

    @pytest.mark.parametrize("p", [13, 31, 101])
    def test_a_torus_section_has_at_most_four_terms(self, p):
        alg = ExtAlgebra(p)
        for sym in torus_symbols(alg):
            section = section_deg2 if sym.degree == 2 else section_deg3
            assert len(section(alg.symbol_element(sym)).coeffs) <= 4, sym


class TestWrittenRows:
    """The torus rows of the sections and the kernel generators are written
    as data; the engine-built construction they replaced is the oracle."""

    @pytest.mark.parametrize("p, root", [(5, None), (7, None), (13, None), (7, 5), (13, 11)])
    def test_rows_match_the_engine_built_oracle_term_for_term(self, p, root):
        alg = ExtAlgebra(p, root)
        for t in alg.weyl.torus():
            am, phi = BasisSymbol(2, -1, t), BasisSymbol(3, None, t)
            assert _section2_symbol(alg, am).coeffs == section_oracle.section2_torus(alg, am).coeffs
            assert _section3_symbol(alg, phi).coeffs == section_oracle.section3_torus(alg, phi).coeffs
        # the written s0 members and the s1 members derived by iota, against
        # both sides built through the engine
        (q0, m0, h0), (q1, m1, h1) = (section_oracle.on_side(alg, *side) for side in section_oracle.SIDES)
        built = [q0, q1, m0, m1, h1 + h0]
        assert [g.coeffs for g in kernel_generators(alg)[10:]] == [g.coeffs for g in built]

    @pytest.mark.parametrize("p", [5, 7])
    def test_sections_and_generators_are_built_without_the_engine(self, monkeypatch, p):
        """With every action and product entry point refusing, each section of
        support <= 3 and each generator is still built, and no memo of the
        engine gains an entry."""

        def refuse(*args, **kwargs):
            raise AssertionError("the product engine was called")

        for name in ("act_left", "act_right", "_act_left", "_act_right", "_compress"):
            monkeypatch.setattr(ExtAlgebra, name, refuse)
        for module in (product, graded, sections):
            monkeypatch.setattr(module, "_multiply", refuse)
        alg = ExtAlgebra(p)
        for sym in alg.basis_symbols(3, degrees=(2, 3)):
            (_section2_symbol if sym.degree == 2 else _section3_symbol)(alg, sym)
        assert len(kernel_generators(alg)) == 15
        memos = {name: table for name, table in vars(alg).items()
                 if isinstance(table, dict) and name != "_section_cache"}
        assert len(memos) == 4 and alg._section_cache
        assert {name: len(table) for name, table in memos.items()} == dict.fromkeys(memos, 0)


class TestSectionMemo:
    def test_torus_section_is_one_object(self, alg7):
        # the memo keeps the map, one read-only map, and each read wraps it anew
        sym = BasisSymbol(2, -1, alg7.weyl.omega(3))
        first = _section2_symbol(alg7, sym)
        assert len(first.coeffs) > 1
        assert _section2_symbol(alg7, sym).coeffs is first.coeffs
        assert alg7._section_cache[2, sym] is first.coeffs

    def test_section_of_one_symbol_is_its_memo_entry(self, alg7):
        # a single symbol of coefficient 1 returns the memoized map, uncopied
        W = alg7.weyl
        for sym in (BasisSymbol(2, -1, W.omega(3)), BasisSymbol(2, 0, W.element(2, (S1, S0)))):
            assert section_deg2(alg7.symbol_element(sym)).coeffs is _section2_symbol(alg7, sym).coeffs
        for sym in (BasisSymbol(3, None, W.omega(3)), BasisSymbol(3, None, W.element(1, (S0,)))):
            assert section_deg3(alg7.symbol_element(sym)).coeffs is _section3_symbol(alg7, sym).coeffs
        # any other coefficient builds a new map
        sym = BasisSymbol(2, -1, W.omega(3))
        assert (section_deg2(alg7.symbol_element(sym).scale(2)).coeffs
                is not _section2_symbol(alg7, sym).coeffs)

    @pytest.mark.parametrize("p", [5, 7])
    def test_symmetric_section_is_the_memo_entry_on_positive_length(self, p):
        # both degree-3 sections of a symbol at length >= 1 read its memo entry,
        # so comparing their maps checks nothing
        alg = ExtAlgebra(p)
        symbols = [s for s in alg.basis_symbols(4, degrees=(3,)) if s.support.length]
        assert len(symbols) == 8 * (p - 1)
        for sym in symbols:
            el = alg.symbol_element(sym)
            assert (section_deg3_symmetric(el).coeffs is section_deg3(el).coeffs
                    is _section3_symbol(alg, sym).coeffs)

    @pytest.mark.parametrize("p", [5, 31])
    def test_symmetric_torus_section_is_built_once_and_is_its_own_entry(self, monkeypatch, p):
        # the 1/4-average is made once an algebra, whichever torus support
        # asks first; each torus entry is keyed apart from the degree-3 one
        calls = []
        involution = sections.tensor_involution
        monkeypatch.setattr(sections, "tensor_involution", lambda t: calls.append(t) or involution(t))
        alg = ExtAlgebra(p)
        W = alg.weyl
        for e in (*range(1, W.n), 0):
            section_deg3_symmetric(alg.phi(W.omega(e)))
        assert len(calls) == 1
        for e in range(W.n):
            sym = BasisSymbol(3, None, W.omega(e))
            el = alg.symbol_element(sym)
            read = section_deg3_symmetric(el).coeffs
            assert read is section_deg3_symmetric(el).coeffs is alg._section_cache["symmetric", sym]
            assert read is not section_deg3(el).coeffs and read != section_deg3(el).coeffs
        assert len(calls) == 1

    def test_each_algebra_has_its_own_memo(self, alg5, alg7):
        # the same key at p=5 and p=7: each algebra builds and keeps its own
        sym = BasisSymbol(2, 1, alg5.weyl.omega(1))
        t5, t7 = _section2_symbol(alg5, sym), _section2_symbol(alg7, sym)
        assert t5 is not t7
        assert t5.algebra is alg5 and t7.algebra is alg7
        assert alg5._section_cache[2, sym] is t5.coeffs
        assert alg7._section_cache[2, sym] is t7.coeffs

    def test_a_dropped_algebra_is_freed_without_the_collector(self):
        # the section memo holds maps, not expressions, which hold their
        # algebra: no reference cycle runs through an algebra
        enabled = gc.isenabled()
        gc.disable()
        try:
            alg = ExtAlgebra(5)
            verify.run(alg, "sections", max_length=2)
            assert alg._section_cache
            ref = weakref.ref(alg)
            del alg
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_engine_adds_no_attribute_after_init(self):
        alg = ExtAlgebra(5)
        verify.run(alg, "all", max_length=2, samples=5)
        assert alg._section_cache
        assert set(vars(alg)) == set(vars(ExtAlgebra(5)))


class TestKernelGenerators:
    def test_counts(self, alg5):
        assert len(kernel_generators(alg5)) == 15

    def test_all_evaluate_to_zero(self, alg5, alg7):
        for alg in (alg5, alg7):
            for gen in kernel_generators(alg):
                assert gen.evaluate().is_zero

    def test_monomial_generator_example(self, alg5):
        gen = kernel_generators(alg5)[0]
        one = alg5.weyl.identity
        assert gen.coeffs == {(BasisSymbol(1, -1, one), BasisSymbol(1, -1, one)): 1}

    def test_quadratic_generator_shape(self, alg5):
        # the sign-0 square generator has the three idempotent-dressed tails
        gen = kernel_generators(alg5)[10]
        assert gen.arity == 2
        assert not gen.evaluate().coeffs
        leads = set(gen.coeffs)
        W = alg5.weyl
        bz0 = BasisSymbol(1, 0, W.s0)
        assert (bz0, bz0) in leads

    def test_degree3_generator_is_last(self, alg5):
        gens = kernel_generators(alg5)
        assert all(g.arity == 2 for g in gens[:14])
        assert gens[14].arity == 3
