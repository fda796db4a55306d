"""The degree-0 actions as chains of table rows, against the letter walk.

_act_left reads tau_u sym from the right as a chain: while a letter
shortens the support, one row of the letter memo, whose character keys
meet the rest of u in closed form and whose one plain term meets the next
letter; _act_right is its transport through J (where lengths add, the
closed form _adds_right, whose rules were transported once).  Both
kernels, one symbol against one Weyl element, must give the rows, exactly, that the
letter-by-letter walk kept in tests/walk_oracle.py gives:
on every symbol against every u, bare or with a torus prefix, on both
sides, and on the full cancellations tau_(w^-1) x_w and x_w tau_(w^-1) of
256-letter supports, where each chain reads one row per letter.
"""

from __future__ import annotations

import pytest

from heckext import ExtAlgebra, graded, verify
from heckext.graded import KIND_NAMES, BasisSymbol

from walk_oracle import WalkAlgebra


def test_a_shortening_row_holds_at_most_one_plain_term():
    # the premise of the chain: a shortening row's character keys sit on the
    # support of the symbol, and only its one plain term meets the next letter
    for (i, d, sign, short), (chars, plain) in graded._LETTER_ROWS.items():
        assert chars and len(plain) <= 1, (i, d, sign, short)


def test_the_letter_memo_is_read_only_where_the_letter_shortens(monkeypatch):
    # the letter table holds no lengths-add row: every row the engine reads
    # while verify all runs is one whose letter shortens the support
    real, calls = ExtAlgebra._letter_on_symbol, []

    def recorded(self, i, sym):
        calls.append((self.weyl, i, sym))
        return real(self, i, sym)

    monkeypatch.setattr(ExtAlgebra, "_letter_on_symbol", recorded)
    verify.run(ExtAlgebra(5), "all", max_length=3, samples=50)
    assert calls
    for W, i, sym in calls:
        assert not W.lengths_add(W.simple(i), sym.support), (i, sym)


@pytest.mark.parametrize("p, max_length", [(5, 6), (7, 5)])
def test_chains_give_the_rows_of_the_walk(p, max_length):
    alg, oracle = ExtAlgebra(p), WalkAlgebra(p)
    W = alg.weyl
    bare = [u for u in W.elements(max_length) if not u.exp]
    words = bare + [W.mul(W.omega(3), u) for u in bare]
    for sym in alg.basis_symbols(max_length):
        for u in words:
            assert alg._act_left(u, sym) == oracle._act_left(u, sym), (u, sym)
            assert alg._act_right(sym, u) == oracle._act_right(sym, u), (sym, u)


@pytest.mark.parametrize("kind", KIND_NAMES, ids=KIND_NAMES.values())
def test_a_full_cancellation_gives_the_rows_of_the_walk(kind):
    alg, oracle = ExtAlgebra(7), WalkAlgebra(7)
    W = alg.weyl
    w = W.element(3, tuple(j % 2 for j in range(256)))
    sym = BasisSymbol(*kind, w)
    u = W.inv(w)
    left = alg._act_left(u, sym, 2)
    assert left and left == oracle._act_left(u, sym, 2)
    right = alg._act_right(sym, u)
    assert right and right == oracle._act_right(sym, u)
    # one row per letter, the same on both sides
    assert len(alg._letter_cache) <= 2 * 256
