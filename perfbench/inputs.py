"""Seeded inputs of the three workloads, as plain data.

Nothing here imports heckext: inputs are made before the program is
imported, so generating them is never part of a measured set-up.  A
term is ``(kind, exp, word, coeff)`` with ``kind`` one of the element
grammar's symbol kinds, or ``("e", m, (), coeff)`` for the torus
idempotent ``e(m)``.  An element is a tuple of terms.
"""

from __future__ import annotations

import random

KINDS_BY_DEGREE = {
    0: ("tau",),
    1: ("bm", "b0", "bp"),
    2: ("am", "a0", "ap"),
    3: ("phi",),
}
SIGN_ZERO_KINDS = ("b0", "a0")  # these need a support of length >= 1

LOW_PAIRS = [(a, b) for a in range(4) for b in range(4) if a + b <= 3]
HIGH_PAIRS = [(a, b) for a in range(4) for b in range(4) if a + b >= 4]

# ops of the session stream, with their share in tenths of a percent
SESSION_MIX = (
    ("multiply", 350),
    ("act_left", 150),
    ("act_right", 150),
    ("involution", 75),
    ("uniformizer_conj", 75),
    ("duality_pairing", 100),
    ("section_deg2", 50),
    ("section_deg3", 50),
)


def alternating(first: int, length: int) -> tuple[int, ...]:
    return tuple((first + j) % 2 for j in range(length))


def random_word(rng: random.Random, max_length: int) -> tuple[int, ...]:
    return alternating(rng.randrange(2), rng.randint(0, max_length))


def random_term(rng: random.Random, p: int, degree: int, word: tuple[int, ...]) -> tuple:
    kinds = KINDS_BY_DEGREE[degree]
    if not word:
        kinds = tuple(k for k in kinds if k not in SIGN_ZERO_KINDS)
    return (rng.choice(kinds), rng.randrange(p - 1), word, rng.randrange(1, p))


def random_element(rng: random.Random, p: int, degree: int, max_length: int) -> tuple:
    """One to three terms of one degree."""
    return tuple(
        random_term(rng, p, degree, random_word(rng, max_length))
        for _ in range(rng.randint(1, 3))
    )


def render_term(term: tuple) -> str:
    kind, exp, word, coeff = term
    if kind == "e":
        return f"{coeff}*e({exp})"
    letters = "".join(f" s{letter}" for letter in word)
    return f"{coeff}*{kind}(w({exp};{letters}))"


def render(element: tuple) -> str:
    """The element in the input grammar of `heckext mul`."""
    return " + ".join(render_term(t) for t in element)


# The mul stream has four request classes, in fixed numbers per stream.
#   zero:     total degree >= 4, ZERO_SHARE of the requests.
#   junction: the supports cancel where they meet, so the product expands
#             through the quadratic relation into torus twists, p-1 terms
#             per expansion.  Two thirds of EXPANDING_SHARE.
#   idem:     one factor is e(m), p-1 torus terms, the other a single term;
#             one third of EXPANDING_SHARE.
#   clean:    the rest; no letter cancels where the supports of the two
#             factors meet, so nothing expands.
# Operands drawn whole by random_element cancel at the junction in 73 % of
# the nonzero requests, which would put the median in the expanding class
# and cost about 150 s per pass of 1,000 requests at p=1009.  EXPANDING_SHARE follows the
# measured profile of a random stream instead (median 0.45 ms, p90 68 ms):
# more than a tenth of the requests expand, less than half.  README.md
# gives the numbers.
# The expanding classes make the tail.  Their structures (kinds and words)
# cycle through fixed lists, since the cost of a product depends on them;
# the seed draws the torus exponents, coefficients and order, and all of
# the clean and zero requests.
ZERO_SHARE = 0.10
EXPANDING_SHARE = 0.15
JUNCTION_STRUCTURES = [
    (KINDS_BY_DEGREE[da][j % len(KINDS_BY_DEGREE[da])],
     KINDS_BY_DEGREE[db][(j + 1) % len(KINDS_BY_DEGREE[db])],
     j)  # the letter where the supports meet
    for da, db in LOW_PAIRS
    for j in range(2)
]
JUNCTION_LENGTHS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1))  # (left, right) support lengths
IDEM_KINDS = [kind for d in range(4) for kind in KINDS_BY_DEGREE[d]]


def _junction(rng: random.Random, p: int, i: int, max_length: int) -> tuple:
    """The i-th junction request: structure i mod 20, lengths by the cycle through them."""
    kind_a, kind_b, letter = JUNCTION_STRUCTURES[i % len(JUNCTION_STRUCTURES)]
    nl, nr = (min(n, max_length) for n in
              JUNCTION_LENGTHS[i // len(JUNCTION_STRUCTURES) % len(JUNCTION_LENGTHS)])
    left = (kind_a, rng.randrange(p - 1), alternating((letter - nl + 1) % 2, nl), rng.randrange(1, p))
    right = (kind_b, rng.randrange(p - 1), alternating(letter, nr), rng.randrange(1, p))
    return (left,), (right,)


def _idem(rng: random.Random, p: int, i: int, max_length: int) -> tuple:
    """The i-th idem request: e(m) on alternating sides of each kind in turn."""
    cycle, kind = divmod(i, len(IDEM_KINDS))
    word = alternating(i % 2, 1 + (i + cycle) % max_length)
    idem = (("e", rng.randrange(p - 1), (), rng.randrange(1, p)),)
    other = ((IDEM_KINDS[kind], rng.randrange(p - 1), word, rng.randrange(1, p)),)
    return (idem, other) if cycle % 2 == 0 else (other, idem)


def _clean(rng: random.Random, p: int, degrees, max_length: int) -> tuple:
    last = rng.randrange(2)  # last letter of every left support; right ones start with 1-last
    left = tuple(
        random_term(rng, p, degrees[0], alternating((last - n + 1) % 2, n))
        for n in (rng.randint(0, max_length) for _ in range(rng.randint(1, 3)))
    )
    right = tuple(
        random_term(rng, p, degrees[1], alternating(1 - last, rng.randint(0, max_length)))
        for _ in range(rng.randint(1, 3))
    )
    return left, right


def mul_class_counts(count: int) -> dict[str, int]:
    """How many of `count` requests fall in each class."""
    zero = round(count * ZERO_SHARE)
    expanding = round(count * EXPANDING_SHARE)
    junction = round(expanding * 2 / 3)
    return {"zero": zero, "junction": junction, "idem": expanding - junction,
            "clean": count - zero - expanding}


def mul_requests(seed: int, p: int, count: int, max_length: int) -> list[tuple[str, str]]:
    """`count` request pairs (left, right) in the element grammar, in seeded order."""
    rng = random.Random(f"mul:{p}:{seed}")
    counts = mul_class_counts(count)
    pairs = [_junction(rng, p, i, max_length) for i in range(counts["junction"])]
    pairs += [_idem(rng, p, i, max_length) for i in range(counts["idem"])]
    for i in range(counts["zero"]):
        da, db = HIGH_PAIRS[i % len(HIGH_PAIRS)]
        pairs.append((random_element(rng, p, da, max_length), random_element(rng, p, db, max_length)))
    for i in range(counts["clean"]):
        pairs.append(_clean(rng, p, LOW_PAIRS[i % len(LOW_PAIRS)], max_length))
    rng.shuffle(pairs)
    return [(render(left), render(right)) for left, right in pairs]


def _fixed_word(i: int, max_length: int) -> tuple[int, ...]:
    """The i-th word of a cycle through every length 0..max_length and both first letters."""
    return alternating((i // (max_length + 1)) % 2, i % (max_length + 1))


def session_inputs(
    seed: int, p: int, count: int, max_length: int, per_degree: int, hecke_count: int
) -> tuple[dict, list, list]:
    """The working set and an op stream of `count` ops over it.

    Returns ``(elements, hecke, ops)``: ``elements[d]`` holds
    ``per_degree`` two-term elements of degree d, ``hecke`` holds two-term
    Hecke elements as tuples of ``(exp, word, coeff)``, and each op is
    ``(name, a, b)`` with indices into the working set.  The cost of an op
    depends on the kinds, words and torus exponents of its operands, so
    those are fixed: they cycle through fixed lists, and the ops of each
    name, in the shares of SESSION_MIX, cycle through the degrees, elements
    and Hecke elements.  The seed draws the coefficients of the working set
    and the order of the ops.
    """
    rng = random.Random(f"session:{p}:{seed}")
    elements = {}
    for d, kinds in KINDS_BY_DEGREE.items():
        terms = []
        for i in range(2 * per_degree):
            kind = kinds[i % len(kinds)]
            word = _fixed_word(i, max_length)
            if kind in SIGN_ZERO_KINDS and not word:
                word = (i % 2,)
            terms.append((kind, (7 * i + d) % (p - 1), word, rng.randrange(1, p)))
        elements[d] = [tuple(terms[2 * k: 2 * k + 2]) for k in range(per_degree)]
    hecke = [
        tuple(
            ((7 * k + t) % (p - 1), _fixed_word(2 * k + t, max_length), rng.randrange(1, p))
            for t in range(2)
        )
        for k in range(hecke_count)
    ]
    total = sum(share for _, share in SESSION_MIX)
    ops = [
        _session_op(name, k, per_degree, hecke_count)
        for name, share in SESSION_MIX
        for k in range(max(1, count * share // total))
    ]
    rng.shuffle(ops)
    return elements, hecke, ops


def _session_op(name: str, k: int, per_degree: int, hecke_count: int) -> tuple:
    """The k-th op named `name`."""
    # i runs through the elements of a degree; with j, through every pair of them
    i = k % per_degree
    j = (k // per_degree + 7 * k) % per_degree
    if name == "multiply":
        da, db = LOW_PAIRS[k % len(LOW_PAIRS)]
        m = k // len(LOW_PAIRS)
        return (name, (da, m % per_degree), (db, (m // per_degree + 7 * m) % per_degree))
    if name in ("act_left", "act_right"):
        return (name, k % hecke_count, ((k // hecke_count) % 4, i))
    if name in ("involution", "uniformizer_conj"):
        return (name, (k % 4, (k // 4) % per_degree), None)
    if name == "duality_pairing":
        return (name, (k % 4, i), (3 - k % 4, j))
    degree = 2 if name == "section_deg2" else 3
    return (name, (degree, i), None)
