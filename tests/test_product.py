"""Product tests, including an independent exterior-algebra oracle for the
within-summand cup product at supports of positive length."""

import itertools
import random

import pytest

from heckext import ExtAlgebra, product, verify
from heckext.graded import BasisSymbol
from heckext.product import _pair, cup_summand, duality_pairing, multiply
from heckext.sections import section_deg2
from heckext.weyl import S0, S1, WeylElement, _alternating_word

from conftest import algebra
from peel_oracle import deg1_times_generator_by_peel
from test_graded import rand_hecke, rand_symbol, rand_weyl

# wedge monomials on three letters m < z < p, with Koszul signs
_WEDGE_FORM = {
    (0, None): (1, ()),
    (1, -1): (1, (0,)),
    (1, 0): (1, (1,)),
    (1, 1): (1, (2,)),
    (2, 0): (-1, (0, 2)),   # alpha^0 = beta^+ wedge beta^-
    (2, -1): (1, (1, 2)),   # alpha^- = beta^0 wedge beta^+
    (2, 1): (1, (0, 1)),    # alpha^+ = beta^- wedge beta^0
    (3, None): (1, (0, 1, 2)),
}
_FROM_WEDGE = {monomial: (sign, key) for key, (sign, monomial) in _WEDGE_FORM.items()}


def pairing_by_support(x, y):
    """The pairing with y's terms grouped by support, one cup per pair on a
    support: the oracle of duality_pairing, which looks them up by key."""
    xc, yc = x.coeffs, y.coeffs
    if not xc or not yc:
        return 0
    degrees = {s[0] for s in xc}, {s[0] for s in yc}
    if any(len(ds) > 1 for ds in degrees):
        raise ValueError("pairing requires homogeneous elements")
    (dx,), (dy,) = degrees
    if dx + dy != 3:
        raise ValueError(f"pairing requires complementary degrees, got {dx} and {dy}")
    alg, acc = x.algebra, 0
    by_support: dict = {}
    for sb, cb in yc.items():
        by_support.setdefault(sb[2], []).append((sb, cb))
    for sa, ca in xc.items():
        for sb, cb in by_support.get(sa[2], ()):
            acc += ca * cb * cup_summand(alg, sa, sb).coeffs.get((3, None, sa[2]), 0)
    return acc % alg.field.p


def wedge(m1, m2):
    """Concatenate and sort with the permutation sign; repeated letters give 0."""
    letters = list(m1 + m2)
    if len(set(letters)) != len(letters):
        return 0, ()
    sign = 1
    for i in range(len(letters)):
        for j in range(len(letters) - 1 - i):
            if letters[j] > letters[j + 1]:
                letters[j], letters[j + 1] = letters[j + 1], letters[j]
                sign = -sign
    return sign, tuple(letters)


def cup_oracle(alg, a, b):
    """Exterior-algebra cup product for supports of length >= 1."""
    ca, ma = _WEDGE_FORM[(a.degree, a.sign)]
    cb, mb = _WEDGE_FORM[(b.degree, b.sign)]
    s, m = wedge(ma, mb)
    if s == 0:
        return alg.zero()
    cr, key = _FROM_WEDGE[m]
    degree, sign = key
    coeff = ca * cb * s * cr  # cr is +-1, so it equals its own inverse
    return alg.symbol_element(BasisSymbol(degree, sign, a.support)).scale(coeff)


class TestCupSummand:
    def test_matches_exterior_oracle_on_positive_length(self, alg5):
        W = alg5.weyl
        w = W.element(1, (S0, S1))
        kinds = list(_WEDGE_FORM)
        for ka, kb in itertools.product(kinds, kinds):
            a = BasisSymbol(ka[0], ka[1], w)
            b = BasisSymbol(kb[0], kb[1], w)
            assert cup_summand(alg5, a, b) == cup_oracle(alg5, a, b), (ka, kb)

    def test_known_relations(self, alg5):
        w = alg5.weyl.element(0, (S1,))
        assert cup_summand(alg5, BasisSymbol(1, 1, w), BasisSymbol(1, -1, w)) == alg5.alpha(0, w)
        assert cup_summand(alg5, BasisSymbol(1, 0, w), BasisSymbol(1, 1, w)) == alg5.alpha(-1, w)
        assert cup_summand(alg5, BasisSymbol(1, -1, w), BasisSymbol(1, 0, w)) == alg5.alpha(1, w)
        # the triple product collapses to phi
        bz_bp = cup_summand(alg5, BasisSymbol(1, 0, w), BasisSymbol(1, 1, w))
        (sym, c), = bz_bp.coeffs.items()
        total = cup_summand(alg5, BasisSymbol(1, -1, w), sym).scale(c)
        assert total == alg5.phi(w)

    def test_torus_support_degree1_squares_vanish(self, alg5):
        one = alg5.weyl.identity
        bm = BasisSymbol(1, -1, one)
        bp = BasisSymbol(1, 1, one)
        for a, b in ((bm, bm), (bp, bp), (bm, bp), (bp, bm)):
            assert cup_summand(alg5, a, b).is_zero

    def test_torus_support_dual_rule(self, alg5):
        omega = alg5.weyl.omega(3)
        for sa in (-1, 1):
            for sb in (-1, 1):
                got = cup_summand(alg5, BasisSymbol(1, sa, omega), BasisSymbol(2, sb, omega))
                expected = alg5.phi(omega) if sa == sb else alg5.zero()
                assert got == expected

    def test_mismatched_support_rejected(self, alg5):
        W = alg5.weyl
        with pytest.raises(ValueError):
            cup_summand(alg5, BasisSymbol(1, -1, W.s0), BasisSymbol(1, 0, W.s1))

    def test_an_operand_that_is_not_a_symbol_of_the_algebra_is_refused(self, alg5, alg7):
        """A GradedElement gave an AttributeError on .support, and at w(5; s0),
        whose exponent is outside [0, 4), the cup was phi(w(5; s0))."""
        w = alg5.weyl.s0
        with pytest.raises(ValueError, match="expected a BasisSymbol"):
            cup_summand(alg5, alg5.beta(1, w), BasisSymbol(2, 1, w))
        with pytest.raises(ValueError, match="expected a BasisSymbol"):
            cup_summand(alg5, BasisSymbol(1, 1, w), alg5.alpha(1, w))
        far = alg7.weyl.element(5, (S0,))
        for a, b in ((BasisSymbol(1, 1, far), BasisSymbol(2, 1, w)),
                     (BasisSymbol(1, 1, w), BasisSymbol(2, 1, far))):
            with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
                cup_summand(alg5, a, b)

    def test_graded_commutative(self, alg7):
        rng = random.Random(67)
        for _ in range(150):
            w = rand_weyl(rng, alg7.weyl, 4)
            da = rng.randint(0, 3)
            db = rng.randint(0, 3)
            a = rand_symbol(rng, alg7, da, 0)
            b = rand_symbol(rng, alg7, db, 0)
            a = BasisSymbol(a.degree, a.sign, w) if not (a.sign == 0 and w.length == 0) else a
            b = BasisSymbol(b.degree, b.sign, w) if not (b.sign == 0 and w.length == 0) else b
            if a.support != b.support:
                continue
            sign = -1 if (da * db) % 2 else 1
            assert cup_summand(alg7, a, b) == cup_summand(alg7, b, a).scale(sign)


class TestMultiply:
    def test_known_base_products(self, alg5):
        W = alg5.weyl
        one = W.identity
        assert multiply(alg5.beta(0, W.s1), alg5.beta(0, W.s0)).is_zero
        assert multiply(alg5.beta(0, W.s1), alg5.beta(1, one)) == alg5.alpha(1, W.s1)
        base = multiply(alg5.beta(0, W.s0), alg5.beta(0, W.s0))
        expected = (
            alg5.idempotent_times(0, alg5.alpha(0, W.s0)).scale(-1)
            + alg5.idempotent_times(-1, alg5.alpha(1, W.s0)).scale(-1)
            + alg5.idempotent_times(1, alg5.alpha(-1, W.s0))
        )
        assert base == expected

    def test_triple_product_reaches_top_degree(self, alg5):
        W = alg5.weyl
        one = W.identity
        for v in (one, W.element(0, (S0,)), W.element(2, (S0, S1))):
            t = multiply(
                multiply(alg5.beta(1, one), alg5.beta(0, W.s1)), alg5.beta(1, v)
            )
            assert t == alg5.phi(W.mul(W.s1, v)), v

    def test_unit_is_two_sided(self, alg7):
        rng = random.Random(71)
        for _ in range(80):
            x = alg7.symbol_element(rand_symbol(rng, alg7, rng.randint(0, 3), 5))
            assert multiply(alg7.one(), x) == x
            assert multiply(x, alg7.one()) == x

    def test_degree_overflow_is_zero(self, alg5):
        rng = random.Random(73)
        for _ in range(50):
            da = rng.randint(1, 3)
            db = rng.randint(max(1, 4 - da), 3)
            x = alg5.symbol_element(rand_symbol(rng, alg5, da, 4))
            y = alg5.symbol_element(rand_symbol(rng, alg5, db, 4))
            assert multiply(x, y).is_zero

    def test_fourth_tensor_power_vanishes(self, alg5):
        rng = random.Random(79)
        for _ in range(40):
            a, b, c, d = (
                alg5.symbol_element(rand_symbol(rng, alg5, 1, 4)) for _ in range(4)
            )
            ab = multiply(a, b)
            assert multiply(ab, multiply(c, d)).is_zero
            assert multiply(multiply(ab, c), d).is_zero

    def test_associativity_random_sample(self, alg5):
        rng = random.Random(83)
        count = 0
        while count < 400:
            degs = [rng.randint(0, 3) for _ in range(3)]
            if sum(degs) > 3 and rng.random() < 0.7:
                continue
            x, y, z = (
                alg5.symbol_element(rand_symbol(rng, alg5, d, 5)) for d in degs
            )
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
            count += 1

    def test_involution_graded_antihomomorphism(self, alg5):
        rng = random.Random(89)
        for _ in range(200):
            da, db = rng.randint(0, 3), rng.randint(0, 3)
            x = alg5.symbol_element(rand_symbol(rng, alg5, da, 4))
            y = alg5.symbol_element(rand_symbol(rng, alg5, db, 4))
            sign = -1 if (da * db) % 2 else 1
            assert alg5.involution(multiply(x, y)) == multiply(
                alg5.involution(y), alg5.involution(x)
            ).scale(sign)
            assert alg5.uniformizer_conj(multiply(x, y)) == multiply(
                alg5.uniformizer_conj(x), alg5.uniformizer_conj(y)
            )


class TestDuality:
    def test_phi_tau_dual_bases(self, alg5):
        W = alg5.weyl
        w = W.element(1, (S0, S1))
        v = W.element(1, (S0,))
        assert duality_pairing(alg5.phi(w), alg5.tau(w)) == 1
        assert duality_pairing(alg5.phi(w), alg5.tau(v)) == 0
        assert duality_pairing(alg5.tau(w), alg5.phi(w)) == 1

    def test_beta_alpha_dual(self, alg5):
        w = alg5.weyl.element(2, (S1, S0))
        for sa in (-1, 0, 1):
            for sb in (-1, 0, 1):
                assert duality_pairing(alg5.beta(sa, w), alg5.alpha(sb, w)) == (
                    1 if sa == sb else 0
                )

    def test_derived_value_via_triple_cup_expansion(self, alg5):
        # <beta^-_w, alpha^-_w> forced to 1 by expanding alpha^- = beta^0 cup beta^+
        w = alg5.weyl.element(0, (S0, S1, S0))
        expansion = cup_summand(alg5, BasisSymbol(1, 0, w), BasisSymbol(1, 1, w))
        (sym, c), = expansion.coeffs.items()
        direct = duality_pairing(alg5.beta(-1, w), alg5.alpha(-1, w))
        via_cup = cup_summand(alg5, BasisSymbol(1, -1, w), sym).scale(c)
        assert via_cup == alg5.phi(w)
        assert direct == 1

    def test_degree_mismatch_rejected(self, alg5):
        with pytest.raises(ValueError):
            duality_pairing(alg5.tau(alg5.weyl.s0), alg5.tau(alg5.weyl.s0))

    def test_the_errors_and_the_zero_operand(self, alg5):
        w = alg5.weyl.element(1, (S0,))
        mixed = alg5.tau(w) + alg5.phi(w)
        for x, y in ((mixed, alg5.phi(w)), (alg5.phi(w), mixed), (mixed, mixed)):
            with pytest.raises(ValueError, match="^pairing requires homogeneous elements$"):
                duality_pairing(x, y)
        with pytest.raises(ValueError, match="^pairing requires complementary degrees, got 1 and 1$"):
            duality_pairing(alg5.beta(0, w), alg5.beta(1, w) + alg5.beta(-1, w))
        # a zero operand pairs to 0 before any degree is read
        assert duality_pairing(alg5.zero(), mixed) == duality_pairing(mixed, alg5.zero()) == 0

    def test_multi_term_pairing_is_bilinear(self, alg5):
        rng = random.Random(31)
        W = alg5.weyl
        supports = [W.element(e, word) for e in (0, 3) for word in ((), (S0,), (S1, S0))]
        for _ in range(60):
            d = rng.randint(0, 3)
            terms = []
            for degree in (d, 3 - d):
                syms = [s for s in alg5.basis_symbols(2, (degree,)) if s.support in supports]
                terms.append({s: rng.randrange(1, 5) for s in rng.sample(syms, rng.randint(1, 4))})
            x, y = (alg5.element(t) for t in terms)
            expected = sum(ca * cb * duality_pairing(alg5.symbol_element(sa), alg5.symbol_element(sb))
                           for sa, ca in terms[0].items() for sb, cb in terms[1].items()) % 5
            assert duality_pairing(x, y) == expected, (x, y)

    @pytest.mark.parametrize("p", [5, 13])
    def test_the_lookup_by_key_equals_the_pairing_by_support(self, p):
        alg = algebra(p)
        rng = random.Random(p)
        # few supports, so that most pairs meet on some support
        supports = [rand_weyl(rng, alg.weyl, 3) for _ in range(4)] + [alg.weyl.identity]
        pools = [[s for s in alg.basis_symbols(3, (d,)) if s.support in supports] for d in range(4)]

        def random_element(degree):
            syms = rng.sample(pools[degree], rng.randint(1, min(5, len(pools[degree]))))
            return alg.element({s: rng.randrange(1, p) for s in syms})

        nonzero = 0
        for _ in range(150):
            d = rng.randint(0, 3)
            x, y = random_element(d), random_element(3 - d)
            got = duality_pairing(x, y)
            assert got == pairing_by_support(x, y), (x, y)
            nonzero += got != 0
        assert nonzero > 30

    def test_the_oracle_refuses_what_the_pairing_refuses(self, alg5):
        w = alg5.weyl.element(1, (S0,))
        mixed = alg5.tau(w) + alg5.phi(w)
        for x, y, message in (
            (mixed, alg5.phi(w), "homogeneous"),
            (alg5.phi(w), mixed, "homogeneous"),
            (alg5.beta(0, w), alg5.beta(1, w), "complementary degrees, got 1 and 1"),
        ):
            for pairing in (duality_pairing, pairing_by_support):
                with pytest.raises(ValueError, match=message):
                    pairing(x, y)

    def test_twisted_module_law(self, alg5):
        H = alg5.hecke
        rng = random.Random(97)
        for _ in range(80):
            h = rand_hecke(rng, alg5, 3)
            d = rng.randint(0, 3)
            x = alg5.symbol_element(rand_symbol(rng, alg5, d, 4))
            y = alg5.symbol_element(rand_symbol(rng, alg5, 3 - d, 4))
            assert duality_pairing(alg5.act_left(h, x), y) == duality_pairing(
                x, alg5.act_left(H.involution(h), y)
            )
            assert duality_pairing(alg5.act_right(x, h), y) == duality_pairing(
                x, alg5.act_right(y, H.involution(h))
            )


class TestTorusCupIndependentRoute:
    def test_shift_route_agrees(self, alg5):
        W, H = alg5.weyl, alg5.hecke
        for e in range(W.n):
            omega = W.omega(e)
            for sx in (-1, 1):
                x = alg5.beta(sx, omega)
                for sy in (-1, 1):
                    y = alg5.alpha(sy, omega)
                    s = W.s0 if sy == -1 else W.s1
                    other = alg5.alpha(-sy, W.mul(W.inv(s), omega))
                    xi = alg5.act_left(H.tau(s), other) + y
                    assert xi.support_lengths() <= {1}
                    route2 = multiply(x, xi) - multiply(
                        alg5.act_right(x, H.tau(s)), other
                    )
                    assert multiply(x, y) == route2, (e, sx, sy)


def _twisted_meeting(a, b) -> bool:
    """Whether a.b is a meeting pair of total degree <= 3 with a torus
    exponent on either factor: the pairs _pair derives from their pair at
    exponent 0."""
    (da, _, (ea, wa)), (db, _, (eb, wb)) = a, b
    return bool((ea or eb) and da + db < 4 and wa and wb and wa[-1] == wb[0])


def _at_exponent_0(a, b) -> tuple:
    return tuple(BasisSymbol(d, sign, WeylElement(None, 0, w.word)) for d, sign, w in (a, b))


class TestPairMemoSelection:
    """A pair miss that is a closed form (total degree >= 4, or words that do
    not meet) is computed and stored alone; a meeting pair with a torus
    exponent is derived from its pair at exponent 0, read through the pair
    memo."""

    @pytest.mark.parametrize("a, b", [
        ((1, 1, (0, (S0,))), (1, -1, (0, (S1,)))),      # a good pair
        ((2, 0, (0, (S0,))), (2, -1, (0, (S0,)))),      # a zero pair, total degree 4
        ((0, None, (2, (S1,))), (1, -1, (0, (S0,)))),   # degree 0, words that do not meet
    ])
    def test_a_closed_form_miss_stores_one_entry(self, a, b):
        alg = ExtAlgebra(5)
        a, b = (BasisSymbol(d, sign, alg.weyl.element(*w)) for d, sign, w in (a, b))
        out = _pair(alg, a, b)
        assert alg._pair_cache == {(a, b): out}
        assert out == product._pair_uncached(alg, a, b)

    @staticmethod
    def _counted(monkeypatch) -> list:
        """The pairs the dispatch _pair_uncached is called on, from now on."""
        dispatch, calls = product._pair_uncached, []

        def counted(alg, a, b):
            calls.append((a, b))
            return dispatch(alg, a, b)

        monkeypatch.setattr(product, "_pair_uncached", counted)
        return calls

    def test_a_twisted_meeting_pair_stores_itself_and_its_pair_at_exponent_0(self, monkeypatch):
        alg = ExtAlgebra(5)
        W = alg.weyl
        tau_s0, bm = BasisSymbol(0, None, W.s0), BasisSymbol(1, -1, W.s0)
        twist = BasisSymbol(0, None, W.element(1, (S0,)))
        expected = product._pair_uncached(ExtAlgebra(5), twist, bm)
        calls = self._counted(monkeypatch)
        # the torus twist tau_{omega s0} bm_{s0} computes tau_{s0} bm_{s0} only
        assert _pair(alg, twist, bm) == expected
        assert calls == [(tau_s0, bm)]
        assert alg._pair_cache.keys() == {(twist, bm), (tau_s0, bm)}

    def test_a_second_twist_of_the_pair_calls_the_dispatch_zero_times(self, monkeypatch):
        alg = ExtAlgebra(5)
        W = alg.weyl
        tau_s0, bm = BasisSymbol(0, None, W.s0), BasisSymbol(1, -1, W.s0)
        twists = [(BasisSymbol(0, None, W.element(1, (S0,))), bm),
                  (tau_s0, BasisSymbol(1, -1, W.element(3, (S0,))))]
        expected = [product._pair_uncached(ExtAlgebra(5), a, b) for a, b in twists]
        _pair(alg, *twists[0])
        calls = self._counted(monkeypatch)
        assert _pair(alg, *twists[1]) == expected[1] and calls == []
        assert len(alg._pair_cache) == 3 and _pair(alg, *twists[0]) == expected[0]


class TestMemoValuesAreReadOnly:
    def test_in_place_edits_of_memo_values_raise(self):
        alg = ExtAlgebra(5)
        W = alg.weyl
        # a bad sign-0 pair reaches the base square, the J table and the pair memo;
        # a Hecke letter acting on the left fills the letter memo; a twisted
        # meeting pair is derived from its pair at exponent 0
        square = multiply(alg.beta(0, W.s0), alg.beta(0, W.s0))
        multiply(alg.tau(W.s1), alg.beta(-1, W.s1))
        multiply(alg.tau(W.element(1, (S1,))), alg.beta(-1, W.element(2, (S1,))))
        # a bad 1x2 pair is transported through J; a shortening letter on two
        # symbols of one torus orbit, on either side, read by _act_left or
        # _act_right (the public actions read the pair memo), fills the
        # letter memo; the first read of coeffs expands the base square's
        # character keys through the expansion memo; a section fills the
        # section memo
        multiply(alg.beta(1, W.s0), alg.alpha(-1, W.s0))
        assert 4 in map(len, square.row)
        square.coeffs
        for exp in (0, 3):
            alg._act_right(BasisSymbol(1, -1, W.element(exp, (S1,))), W.s1)
            alg._act_left(W.s0, BasisSymbol(2, 1, W.element(exp, (S0,))))
        section_deg2(alg.alpha(1, W.s0))
        memos = {
            "_pair_cache": alg._pair_cache,
            "_letter_cache": alg._letter_cache,
            "_j_cache": alg._j_cache,
            "_char_cache": alg._char_cache,
            "_section_cache": alg._section_cache,
        }
        # every table ExtAlgebra declares is listed, so a new memo fails here
        # until it is
        assert set(memos) == {name for name, memo in vars(alg).items() if isinstance(memo, dict)}
        for name, memo in memos.items():
            assert memo, f"the {name} memo is empty"
            for value in memo.values():
                with pytest.raises(TypeError):
                    value[next(iter(value), 0)] = 1
                # a result hands out neither its row nor its coeffs from a memo
                assert value is not square.row and value is not square.coeffs, name
        # each twisted meeting pair the pair memo holds was derived from its
        # pair at exponent 0, which the memo holds too
        twisted = [key for key in alg._pair_cache if _twisted_meeting(*key)]
        assert twisted and all(_at_exponent_0(*key) in alg._pair_cache for key in twisted)

    def test_derived_products_of_one_support_have_equal_keys(self):
        alg = ExtAlgebra(5)
        W = alg.weyl
        one, bp = BasisSymbol(0, None, W.identity), BasisSymbol(1, 1, W.s0)
        # two closed forms with the same product support: _adds_left builds
        # its image directly or through the torus shift
        left = _pair(alg, BasisSymbol(0, None, W.omega(1)), bp)
        right = _pair(alg, one, BasisSymbol(1, 1, W.element(1, (S0,))))
        assert left.keys() == right.keys()
        # two twists of one meeting pair with the same product support are
        # derived from that pair at exponent 0, and have the same keys
        tau_s0, bm = BasisSymbol(0, None, W.s0), BasisSymbol(1, -1, W.s0)
        left = _pair(alg, BasisSymbol(0, None, W.element(1, (S0,))), bm)
        right = _pair(alg, tau_s0, BasisSymbol(1, -1, W.element(3, (S0,))))
        assert list(left) == list(right) and len(alg._pair_cache) == 5
        assert (tau_s0, bm) in alg._pair_cache
        plain = [key for key in left if len(key) == 3]
        assert plain == [BasisSymbol(1, 1, W.omega(3))]

    def test_a_hit_returns_the_stored_value_without_a_copy(self):
        alg = ExtAlgebra(5)
        a, b = BasisSymbol(1, 0, alg.weyl.s0), BasisSymbol(1, 0, alg.weyl.s0)
        assert _pair(alg, a, b) is _pair(alg, a, b)

    def test_every_zero_product_is_one_empty_map(self):
        # zero closed forms, zero meeting pairs at exponent 0 and zero derived
        # pairs all store the one shared empty map
        alg = ExtAlgebra(13)
        verify.run(alg, "all")
        empty = [value for value in alg._pair_cache.values() if not value]
        assert len(empty) > 1000 and len({id(value) for value in empty}) == 1
        meeting = [key for key in alg._pair_cache if _twisted_meeting(*key)]
        assert any(not alg._pair_cache[key] for key in meeting)
        assert any(not alg._pair_cache[_at_exponent_0(*key)] for key in meeting)


def _sign0_cores(alg, lengths):
    """Each sign-0 symbol z at every exponent and these support lengths,
    with the sign-0 generator g of its last letter: the bad cores of
    route (3) beyond the base quadratic."""
    W = alg.weyl
    for length in lengths:
        for first in (S0, S1):
            word = _alternating_word(first, length)
            g = BasisSymbol(1, 0, W.simple(word[-1]))
            for e in range(W.n):
                yield BasisSymbol(1, 0, W.element(e, word)), g


class TestRoute3AgainstThePeel:
    """Route (3) factors a bad sign-0 left factor through
    factor_through_generators; tests/peel_oracle.py peels it one letter."""

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_every_sign0_core_of_length_2_to_6(self, p):
        alg, oracle = ExtAlgebra(p), ExtAlgebra(p)
        cases = list(_sign0_cores(alg, range(2, 7)))
        assert len(cases) == 10 * (p - 1)
        for z, g in cases:
            got = alg._expand(product._deg1_times_generator(alg, z, g))
            assert got == oracle._expand(deg1_times_generator_by_peel(oracle, z, g)), (z, g)

    def test_512_letter_supports(self):
        alg, oracle = ExtAlgebra(7), ExtAlgebra(7)
        for z, g in _sign0_cores(alg, [512]):
            got = alg._expand(product._deg1_times_generator(alg, z, g))
            assert got and got == oracle._expand(deg1_times_generator_by_peel(oracle, z, g)), z
