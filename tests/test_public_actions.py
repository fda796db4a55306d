"""The public Hecke actions are pair products.

act_left(h, x) multiplies h, read as a degree-0 row, with x, and
act_right(x, h) multiplies x with it: a term tau_w of h is the symbol
tau_w, and a whole torus orbit c e_m tau_u is one degree-0 character key.
So a warm call reads the pair memo.  Both are checked here against the
letter walk of tests/walk_oracle.py on a fresh algebra (its walk on the
expanded coeffs), on a cold algebra and on one whose pair memo was filled
in another order, and the hit path is pinned: a repeated call grows no
memo and applies no letter.  On a whole orbit h = 2 e_m tau_u, each action
must be the sum of the actions on the terms of h, checked exhaustively at
small length.
"""

from __future__ import annotations

import random

import pytest

from heckext import ExtAlgebra, verify
from heckext.coeff import add_into
from heckext.graded import GradedElement
from heckext.weyl import S0, S1

from test_product import _twisted_meeting
from test_verify import _public_act_right_compress_slipped
from walk_oracle import WalkAlgebra

PRIMES = [5, 7, 13]
WORDS = ((), (S0,), (S1, S0), (S0, S1, S0))


def operands(alg: ExtAlgebra) -> list[tuple]:
    """Seeded pairs (h, x), the same for every algebra of one p.  h has
    several terms, among them whole torus orbits c e_m tau_u; x has several
    terms, and its row holds a character key, or is plain with a whole
    orbit, or plain without one."""
    p, W, H = alg.field.p, alg.weyl, alg.hecke
    rng = random.Random(f"public actions:{p}")
    out = []
    for i in range(24):
        h = verify._random_hecke(rng, alg, 4)
        for _ in range(rng.randint(1, 2)):
            u = W.element(rng.randrange(W.n), rng.choice(WORDS))
            h = h + H.mul(H.idempotent(rng.randrange(W.n)), H.tau(u)).scale(rng.randrange(1, p))
        row = {verify._random_symbol(rng, alg, rng.randint(0, 3), 4): rng.randrange(1, p)
               for _ in range(3)}
        other = alg.symbol_element(verify._random_symbol(rng, alg, rng.randint(0, 3), 4))
        row.update(alg.idempotent_times(rng.randrange(W.n), other).row)
        if i % 3 == 0:
            x = GradedElement(alg, row)
        elif i % 3 == 1:
            x = GradedElement(alg, alg._expand(row))
        else:
            x = GradedElement(alg, {k: c for k, c in row.items() if len(k) == 3})
        out.append((h, x))
    return out


def walked(oracle: WalkAlgebra, h, x: GradedElement) -> tuple[dict, dict]:
    """h x and x h through the letter walk of oracle, on expanded coeffs."""
    xs = oracle._expand(x.row)
    hs = dict(h.coeffs)
    return oracle._expand(oracle._walk_left(hs, xs)), oracle._expand(oracle._walk_right(xs, hs))


@pytest.mark.parametrize("p", PRIMES)
def test_public_actions_equal_the_letter_walk_of_a_fresh_algebra(p):
    oracle, cold, warm = WalkAlgebra(p), ExtAlgebra(p), ExtAlgebra(p)
    cases = operands(cold)
    expected = [walked(oracle, h, x) for h, x in cases]
    # some h compress to character keys, and some x hold one or compress
    assert any(len(k) == 4 for h, _ in cases for k in cold._operand(cold.embed(h)))
    assert any(len(k) == 4 for _, x in cases[1::3] for k in cold._operand(x))
    # the warm-up fills the pair memo in the reverse order, by torus twists
    # of each h, so warm computes its pairs in another order than cold
    warm_cases = operands(warm)
    H, W = warm.hecke, warm.weyl
    for h, x in reversed(warm_cases):
        t = H.tau(W.omega(1))
        warm.act_left(H.mul(t, h), x)
        warm.act_right(x, H.mul(h, t))
    for alg, pairs in ((cold, cases), (warm, warm_cases)):
        for (h, x), (left, right) in zip(pairs, expected):
            assert alg.act_left(h, x).coeffs == left, (h, x)
            assert alg.act_right(x, h).coeffs == right, (x, h)
    # warm holds twisted meeting pairs that cold never read, and every pair
    # both memos hold has one value
    assert any(_twisted_meeting(*key) for key in warm._pair_cache.keys() - cold._pair_cache.keys())
    shared = cold._pair_cache.keys() & warm._pair_cache.keys()
    assert shared and all(cold._pair_cache[k] == warm._pair_cache[k] for k in shared)


def orbit_law_failures(alg: ExtAlgebra) -> list[tuple]:
    """The cases (side, x, h) where a public action on a whole torus orbit
    h = 2 e_m tau_u (u bare, |u| <= 2), one character key, differs from the
    sum of the actions on its terms, sum_t c_t tau_t: every basis symbol x
    of support length <= 2, on either side."""
    H, W, p = alg.hecke, alg.weyl, alg.field.p
    hs = [H.mul(H.idempotent(m), H.tau(u)).scale(2)
          for m in range(W.n) for u in W.elements(2) if not u.exp]
    failures = []
    for sym in alg.basis_symbols(2):
        x = alg.symbol_element(sym)
        for h in hs:
            left, right = {}, {}
            for t, c in h.coeffs.items():
                add_into(left, alg.act_left(H.tau(t), x).coeffs.items(), c, p)
                add_into(right, alg.act_right(x, H.tau(t)).coeffs.items(), c, p)
            if alg.act_left(h, x).coeffs != left:
                failures.append(("left", sym, h))
            if alg.act_right(x, h).coeffs != right:
                failures.append(("right", sym, h))
    return failures


def test_public_actions_on_a_whole_orbit_are_the_sums_over_its_terms(monkeypatch):
    alg = ExtAlgebra(5)
    assert orbit_law_failures(alg) == []
    # a slipped compression of h, e_(m+1) for e_m, fails the law on the right
    # in 2,032 of the 3,040 cases (x, h)
    monkeypatch.setattr(alg, "act_right", _public_act_right_compress_slipped(alg))
    failures = orbit_law_failures(alg)
    assert len(failures) == 2032 and {side for side, _, _ in failures} == {"right"}


def memo_sizes(alg: ExtAlgebra) -> dict:
    return {name: len(memo) for name, memo in vars(alg).items() if isinstance(memo, dict)}


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_repeated_public_action_reads_only_the_pair_memo(monkeypatch, side):
    alg = ExtAlgebra(7)
    cases = operands(alg)
    if side == "left":
        def act(h, x):
            return alg.act_left(h, x)
    else:
        def act(h, x):
            return alg.act_right(x, h)
    first = [act(h, x) for h, x in cases]
    before = memo_sizes(alg)

    def no_letter(i, sym):
        raise AssertionError(f"a repeated action applied letter {i} to {sym!r}")

    monkeypatch.setattr(alg, "_letter_on_symbol", no_letter)
    again = [act(h, x) for h, x in cases]
    assert memo_sizes(alg) == before
    assert [y.row for y in again] == [y.row for y in first]
