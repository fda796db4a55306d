"""Text grammar for elements, used by the CLI and by __repr__.

    element := ['-'] term (('+'|'-') term)*
    term    := [int '*'] symbol
    symbol  := kind '(' weyl ')' | 'e' '(' int ')'
    kind    := 'tau'|'bm'|'b0'|'bp'|'am'|'a0'|'ap'|'phi'
    weyl    := 'w(' int ';' [letters] ')'
    letters := ('s0'|'s1') {' ' ('s0'|'s1')}

Rendering is canonical (sorted terms, balanced coefficient signs), and
parse(render(x)) == x; render(parse(s)) == s on canonically rendered
input.  A sum of well-formed terms is read one term per match of the
regular expression _TERM; any other input goes through the scanner
(_parse_scanned), which reads it token by token and raises a ParseError
that carries the offending position.  A parsed c*e(m) is one character
key, also in a sum (graded.py).  The renderer and the JSON export walk
the terms in one canonical order, read from the element's row: a
character key becomes a coefficient vector over its torus orbit, so a
lazy element is rendered without building its p - 1 symbols.  Each term's
coefficient prefix is read from a table per p (_heads).
"""

from __future__ import annotations

import re
from functools import cache, lru_cache

from .coeff import _root_powers, add_into
from .graded import KIND_NAMES, BasisSymbol, ExtAlgebra, GradedElement, _weight
from .weyl import S0, S1, WeylElement

__all__ = ["ParseError", "parse_element", "parse_weyl", "render_element", "element_to_json"]

_KINDS = {
    "tau": (0, None),
    "bm": (1, -1),
    "b0": (1, 0),
    "bp": (1, 1),
    "am": (2, -1),
    "a0": (2, 0),
    "ap": (2, 1),
    "phi": (3, None),
}


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        # ASCII digits only: str.isdigit also accepts superscripts and other scripts' digits
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError as exc:  # beyond the interpreter's digit limit
            raise ParseError("integer has too many digits", start) from exc

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a symbol name", start)
        return self.text[start:self.pos]

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_weyl(sc: _Scanner, alg: ExtAlgebra) -> WeylElement:
    name = sc.ident()
    if name != "w":
        raise ParseError(f"expected 'w', got {name!r}", sc.pos)
    sc.expect("(")
    exp = sc.integer()
    sc.expect(";")
    letters = []
    while sc.peek() not in (")", ""):
        lit = sc.ident()
        if lit == "s0":
            letters.append(S0)
        elif lit == "s1":
            letters.append(S1)
        else:
            raise ParseError(f"expected 's0' or 's1', got {lit!r}", sc.pos)
    sc.expect(")")
    try:
        return alg.weyl.element(exp, letters)
    except ValueError as exc:
        raise ParseError(str(exc), sc.pos) from exc


def parse_weyl(alg: ExtAlgebra, text: str) -> WeylElement:
    sc = _Scanner(text)
    w = _parse_weyl(sc, alg)
    if not sc.done():
        raise ParseError("trailing input", sc.pos)
    return w


def _parse_term(sc: _Scanner, alg: ExtAlgebra) -> GradedElement:
    coeff = 1
    if "0" <= sc.peek() <= "9":
        coeff = sc.integer()
        if sc.peek() != "*":
            raise ParseError("expected '*' after a coefficient", sc.pos)
        sc.expect("*")
    name = sc.ident()
    if name == "e":
        sc.expect("(")
        m = sc.integer()
        sc.expect(")")
        return alg.idempotent(m, coeff)
    if name not in _KINDS:
        raise ParseError(f"unknown symbol kind {name!r}", sc.pos)
    degree, sign = _KINDS[name]
    sc.expect("(")
    w = _parse_weyl(sc, alg)
    sc.expect(")")
    try:
        sym = BasisSymbol(degree, sign, w)
    except ValueError as exc:
        raise ParseError(str(exc), sc.pos) from exc
    return alg.symbol_element(sym).scale(coeff)


# One well-formed term with its operator and the whitespace around it:
# [op] [int '*'] (kind '(' weyl | 'e' '(' int) ')'.  Integers are ASCII
# digits, as in the scanner; \s is str.isspace and \w the scanner's
# identifier characters, so a letter run into a name ("s0s1") fails.
_TERM = re.compile(r"""
    \s* ([+-]?) \s*
    (?: ([0-9]+) \s* \* \s* )?
    (?: (tau|bm|b0|bp|am|a0|ap|phi) \s* \( \s* w \s* \( \s* ([+-]?[0-9]+) \s* ;
            ((?: \s* s[01] (?!\w) )*) \s* \)
      | e \s* \( \s* ([+-]?[0-9]+) )
    \s* \) \s*
""", re.VERBOSE)
_LETTERS = {"s0": S0, "s1": S1}


def parse_element(alg: ExtAlgebra, text: str) -> GradedElement:
    """The element that text writes in the grammar above; a ParseError
    carries the position of the first error."""
    try:
        x = _parse_terms(alg, text)
    except ValueError:  # an invalid symbol, or an integer past int()'s digit limit
        x = None
    return _parse_scanned(alg, text) if x is None else x


def _parse_terms(alg: ExtAlgebra, text: str) -> GradedElement | None:
    """The element of a sum of well-formed terms, or None where the text is
    not one: a term _TERM does not match, a leading '+' or a missing
    operator.  The scanner decides those.  An e(m) is summed as its
    character key, so a sum that holds one is lazy."""
    weyl, p = alg.weyl, alg.field.p
    total: dict = {}
    pos = 0
    while True:
        term = _TERM.match(text, pos)
        if term is None or term[1] == ("" if pos else "+"):
            return None
        c = int(term[2]) if term[2] else 1
        if term[1] == "-":
            c = -c
        if term[3] is None:
            pairs = alg.idempotent(int(term[6])).row.items()
        else:
            degree, sign = _KINDS[term[3]]
            w = weyl.element(int(term[4]), [_LETTERS[l] for l in term[5].split()])
            pairs = ((BasisSymbol(degree, sign, w), 1),)
        add_into(total, pairs, c, p)
        pos = term.end()
        if pos == len(text):
            return alg._result(total)


def _parse_scanned(alg: ExtAlgebra, text: str) -> GradedElement:
    sc = _Scanner(text)
    if sc.done():
        raise ParseError("empty input", 0)
    if sc.peek() == "0":
        save = sc.pos
        sc.integer()
        if sc.done():
            return alg.zero()
        sc.pos = save
    negate = False
    if sc.peek() == "-":
        sc.expect("-")
        negate = True
    total = _parse_term(sc, alg)
    if negate:
        total = -total
    while not sc.done():
        op = sc.peek()
        if op == "+":
            sc.expect("+")
            total = total + _parse_term(sc, alg)
        elif op == "-":
            sc.expect("-")
            total = total - _parse_term(sc, alg)
        else:
            raise ParseError(f"expected '+' or '-', got {op!r}", sc.pos)
    return total


# --- rendering ---


def _letters(word: tuple[int, ...]) -> str:
    return "".join([" s0" if l == S0 else " s1" for l in word])


def render_weyl(w: WeylElement) -> str:
    return f"w({w.exp};{_letters(w.word)})"


def _canonical_groups(x: GradedElement):
    """The terms of x in canonical order (degree, word length, word,
    exponent, sign), as groups (word, terms) of one degree and word, each
    term (exp, kind name, c).

    It reads x's row, so a lazy element is never expanded.  A group without
    a character key is sorted as it is.  A group with one gets a
    length-(p - 1) coefficient vector per sign: a key (m, d, sign, word)
    adds c (p - u0^((k - m) b)) at exponent b, as e_m s0 = -sum_b
    u0^((k - m) b) s_b, and a plain term adds c at its exponent; zero sums
    are skipped."""
    row = x.row
    if row is None:
        row = x.coeffs
    groups: dict = {}
    for key, c in row.items():
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


@lru_cache(maxsize=256)
def _orbit(p: int, u0: int, step: int) -> tuple[int, ...]:
    """p - u0^(b step), b in [0, p - 1): the orbit vector of step k - m;
    p - 1 references an entry, so the cache is bounded (2 MB at p=1009)."""
    first = [p - u for u in _root_powers(p, u0)] if step == 1 else _orbit(p, u0, 1)
    return tuple([first[b * step % (p - 1)] for b in range(p - 1)])


@cache
def _heads(p: int) -> tuple[str, ...]:
    """The prefix of a term of coefficient c, for each c in [0, p): the
    balanced sign, " + c*" or " - (p - c)*", with a unit factor left out."""
    half = (p - 1) // 2
    return tuple(
        (" + " if c == 1 else f" + {c}*") if c <= half
        else (" - " if c == p - 1 else f" - {p - c}*")
        for c in range(p)
    )


def render_element(x: GradedElement) -> str:
    heads = _heads(x.algebra.field.p)
    parts = []
    for word, terms in _canonical_groups(x):
        tail = f";{_letters(word)}))"
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
