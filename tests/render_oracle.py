"""The renderer and the JSON export as they were before an orbit group was
written from its coefficient vectors, kept as a test oracle: each term of
a torus orbit is one tuple (exp, kind name, c), formatted by one f-string.
heckext.grammar's render_element and element_to_json must give the same
text and the same JSON for every element, whether its row holds a
character key or not.
"""

from __future__ import annotations

from heckext.graded import KIND_NAMES, GradedElement, _orbit, _weight
from heckext.grammar import _heads
from heckext.weyl import S0


def _canonical_groups(x: GradedElement):
    """The terms of x in canonical order (degree, word length, word,
    exponent, sign), as groups (word, terms) of one degree and word, each
    term (exp, kind name, c).

    It reads x's row, never its expansion.  A group without a character
    key is sorted as it is.  A group with one gets a length-(p - 1)
    coefficient vector per sign: a key (m, d, sign, word) adds c (p -
    u0^((k - m) b)) at exponent b, as e_m s0 = -sum_b u0^((k - m) b) s_b,
    and a plain term adds c at its exponent; zero sums are skipped."""
    groups: dict = {}
    for key, c in x.row.items():
        if len(key) == 3:
            d, sign, (exp, word) = key
            groups.setdefault((d, len(word), word), ([], []))[0].append((exp, sign, c))
        else:
            m, d, sign, word = key
            groups.setdefault((d, len(word), word), ([], []))[1].append((m, sign, c))
    field = x.algebra.field
    p, n = field.p, field.order
    for group in sorted(groups):
        d, word = group[0], group[2]
        terms, chars = groups[group]
        if not chars:
            # no two terms share (exp, sign), so coefficients are never compared
            terms = [(exp, KIND_NAMES[d, sign], c) for exp, sign, c in sorted(terms)]
        else:
            vectors: dict = {}
            for m, sign, c in chars:
                orbit = _orbit(p, field.u0, (_weight(d, sign) - m) % n)
                vector = vectors.get(sign)
                vectors[sign] = ([c * u for u in orbit] if vector is None
                                 else [v + c * u for v, u in zip(vector, orbit)])
            for exp, sign, c in terms:
                vectors.setdefault(sign, [0] * n)[exp] += c
            columns = [(KIND_NAMES[d, sign], [v % p for v in vector])
                       for sign, vector in sorted(vectors.items())]
            if len(columns) == 1:
                kind, vector = columns[0]
                terms = [(exp, kind, c) for exp, c in enumerate(vector) if c]
            else:
                terms = [(exp, kind, c) for exp in range(n) for kind, vector in columns
                         if (c := vector[exp])]
        yield word, terms


def render_element(x: GradedElement) -> str:
    heads = _heads(x.algebra.field.p)
    parts = []
    for word, terms in _canonical_groups(x):
        tail = ";" + "".join([" s0" if l == S0 else " s1" for l in word]) + "))"
        parts += [f"{heads[c]}{kind}(w({exp}{tail}" for exp, kind, c in terms]
    if not parts:
        return "0"
    # the first term drops its " + ", or keeps its " - " as a bare "-"
    first = parts[0]
    parts[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(parts)


def element_to_json(x: GradedElement) -> dict:
    terms = []
    for word, group in _canonical_groups(x):
        letters = ["s0" if l == S0 else "s1" for l in word]
        for exp, kind, c in group:
            terms.append(
                {
                    "kind": kind,
                    "support": {"exp": exp, "word": list(letters)},
                    "coeff": c,
                }
            )
    return {"terms": terms}
