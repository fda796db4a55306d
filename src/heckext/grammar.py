"""Text grammar for elements, used by the CLI and by __repr__.

    element := '0' | ['-'] term (('+'|'-') term)*
    term    := [int '*'] symbol
    symbol  := kind '(' weyl ')' | 'e' '(' int ')'
    kind    := 'tau'|'bm'|'b0'|'bp'|'am'|'a0'|'ap'|'phi'
    weyl    := 'w(' int ';' [letters] ')'
    letters := ('s0'|'s1') {' ' ('s0'|'s1')}

An int is a run of ASCII digits, signed in a weyl or e(m) by a sign right
before it.  parse_element reads the tokens of one findall of _TOKEN in one
pass and sums the terms into one row, a c*e(m) as one character key
(graded.py), which is the parsed element.  A ParseError carries the
position of the first error; positions are found only for an error or a
signed int.  Rendering is canonical (sorted terms, balanced coefficient
signs), parse(render(x)) == x, and render(parse(s)) == s on canonically
rendered input.  The renderer and the JSON export read the element's row,
so a character key is rendered without building its p - 1 symbols.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .coeff import add_into
from .graded import KIND_NAMES, BasisSymbol, ExtAlgebra, GradedElement, _orbit, _shifted, _weight
from .weyl import S0, S1, _alternating, _weyl

__all__ = ["ParseError", "parse_element", "render_element", "element_to_json"]

_KINDS = {name: kind for kind, name in KIND_NAMES.items()}
_LETTERS = {"s0": S0, "s1": S1}
# One token after optional whitespace (\s, that is str.isspace): a run of
# ASCII digits, a run of identifier characters (\w: str.isalnum or '_') or
# one other character.  The end is one more, empty token, so trailing
# whitespace is skipped once, not retried from each of its characters.
_TOKEN = re.compile(r"\s*([0-9]+|\w+|\S|\Z)")


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def parse_element(alg: ExtAlgebra, text: str) -> GradedElement:
    """The element that text writes in the grammar above; a ParseError
    carries the position of the first error."""
    tokens = _TOKEN.findall(text)
    if not tokens[0]:
        raise ParseError("empty input", 0)
    if tokens[0] == "0" and not tokens[1]:
        return alg.zero()
    total: dict = {}
    p, n = alg.field.p, alg.weyl.n
    sign, i = (-1, 1) if tokens[0] == "-" else (1, 0)
    while True:  # a term, then its operator
        c, name = 1, tokens[i]
        if "0" <= name < ":":  # starts with an ASCII digit: a digit token
            try:
                c = int(name)
            except ValueError:  # beyond the interpreter's digit limit
                raise ParseError("integer has too many digits", _starts(text)[i]) from None
            if tokens[i + 1] != "*":
                raise ParseError("expected '*' after a coefficient", _starts(text)[i + 1])
            i += 2
            name = tokens[i]
        if name != "e" and name not in _KINDS:
            raise _name_error(text, i, "unknown symbol kind {!r}")
        if tokens[i + 1] != "(":
            raise ParseError("expected '('", _starts(text)[i + 1])
        if name == "e":  # 'e' '(' int ')'
            m, i = _integer(text, tokens, i + 2)
            if tokens[i] != ")":
                raise ParseError("expected ')'", _starts(text)[i])
            add_into(total, alg.idempotent(m).row.items(), sign * c, p)
        else:  # kind '(' 'w(' int ';' [letters] ')' ')'
            if tokens[i + 2] != "w":
                raise _name_error(text, i + 2, "expected 'w', got {!r}")
            if tokens[i + 3] != "(":
                raise ParseError("expected '('", _starts(text)[i + 3])
            exp, i = _integer(text, tokens, i + 4)
            if tokens[i] != ";":
                raise ParseError("expected ';'", _starts(text)[i])
            try:
                word = _word(tuple(tokens[i + 1:(end := tokens.index(")", i))]))
            except (KeyError, ValueError) as exc:
                raise _letters_error(text, tokens, i + 1, exc) from exc
            i = end + 1
            if tokens[i] != ")":
                raise ParseError("expected ')'", _starts(text)[i])
            d, s = _KINDS[name]
            w = _weyl((exp % n, word))
            try:  # BasisSymbol refuses b0 and a0 at a torus element, and no other
                sym = BasisSymbol(d, s, w) if s == 0 and not word else _shifted((d, s, w))
            except ValueError as exc:
                raise ParseError(str(exc), _starts(text)[i] + 1) from exc
            add_into(total, ((sym, 1),), sign * c, p)
        op = tokens[i + 1]
        if not op:
            return GradedElement(alg, total)
        if op not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', got {op[0]!r}", _starts(text)[i + 1])
        sign, i = -1 if op == "-" else 1, i + 2


@lru_cache(maxsize=256)
def _word(letters: tuple) -> tuple:
    """The word that a run of letter tokens spells: a KeyError at a token
    that is no letter, a ValueError where a letter repeats.  Only two words
    of each length pass, so the cache holds every word in use."""
    return _alternating([_LETTERS[letter] for letter in letters])


def _integer(text: str, tokens: list, i: int):
    """The integer at token i and the index after it: a digit token, after
    a sign token that touches it, if any."""
    digits, end = tokens[i], i + 1
    if not "0" <= digits < ":":
        start = _starts(text)[i]
        if digits not in ("+", "-") or not "0" <= text[start + 1:start + 2] < ":":
            raise ParseError("expected an integer", start)
        digits, end = digits + tokens[end], end + 1
    try:
        return int(digits), end
    except ValueError as exc:  # beyond the interpreter's digit limit
        raise ParseError("integer has too many digits", _starts(text)[i]) from exc


@lru_cache(maxsize=1)
def _starts(text: str) -> list[int]:
    """Where each token of text starts, past the whitespace before it, the
    end token at len(text).  Only an error or a signed integer asks."""
    return [match.start(1) for match in _TOKEN.finditer(text)]


def _letters_error(text: str, tokens: list, i: int, exc: ValueError) -> ParseError:
    """The error in the letters from token i on: at the first token that is
    no letter, or exc (a letter repeats) just after the ')' that ends them."""
    while tokens[i] in _LETTERS:
        i += 1
    if tokens[i] == ")":
        return ParseError(str(exc), _starts(text)[i] + 1)
    if not tokens[i]:
        return ParseError("expected ')'", len(text))
    return _name_error(text, i, "expected 's0' or 's1', got {!r}")


def _name_error(text: str, i: int, message: str) -> ParseError:
    """The error at the name that token i starts: all the identifier
    characters there, as a digit token runs into a name after it ("5x")."""
    start = _starts(text)[i]
    name = re.match(r"\w*", text[start:])[0]
    if not name:
        return ParseError("expected a symbol name", start)
    return ParseError(message.format(name), start + len(name))


# --- rendering ---


def _canonical_groups(x: GradedElement):
    """The terms of x in canonical order (degree, word length, word,
    exponent, sign), as groups (word, terms, columns) of one degree and
    word.

    It reads x's row, never its expansion.  A group without a character
    key comes as its sorted terms (exp, kind name, c), columns None.  A
    group with one comes as its columns (kind name, vector), in sign order,
    terms None: a length-(p - 1) coefficient vector mod p per sign, where a
    key (m, d, sign, word) adds c times _orbit of step k - m, as e_m s0 =
    -sum_b u0^((k - m) b) s_b, and a plain term adds c at its exponent; a
    zero entry is no term."""
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
            yield word, [(exp, KIND_NAMES[d, sign], c) for exp, sign, c in sorted(terms)], None
            continue
        vectors: dict = {}
        for m, sign, c in chars:
            orbit = _orbit(p, field.u0, (_weight(d, sign) - m) % n)
            vector = vectors.get(sign)
            vectors[sign] = ([c * u % p for u in orbit] if vector is None
                             else [(v + c * u) % p for v, u in zip(vector, orbit)])
        for exp, sign, c in terms:
            vector = vectors.setdefault(sign, [0] * n)
            vector[exp] = (vector[exp] + c) % p
        yield word, None, [(KIND_NAMES[d, sign], vector) for sign, vector in sorted(vectors.items())]


@lru_cache(maxsize=16)
def _heads(p: int) -> tuple[str, ...]:
    """The prefix of a term of coefficient c, for each c in [0, p): the
    balanced sign, " + c*" or " - (p - c)*", with a unit factor left out.
    An entry is p strings, 64 KB at p=1009, so the cache is bounded."""
    half = (p - 1) // 2
    return tuple(
        (" + " if c == 1 else f" + {c}*") if c <= half
        else (" - " if c == p - 1 else f" - {p - c}*")
        for c in range(p)
    )


@lru_cache(maxsize=16)
def _exponents(n: int) -> tuple[str, ...]:
    """The text "(w(b" that opens the support of a term at exponent b, for
    each b in [0, n), n = p - 1; an entry is as large as one of _heads."""
    return tuple([f"(w({b}" for b in range(n)])


def render_element(x: GradedElement) -> str:
    field = x.algebra.field
    heads, exps = _heads(field.p), _exponents(field.order)
    parts = []
    for word, terms, columns in _canonical_groups(x):
        tail = ";" + "".join([" s0" if l == S0 else " s1" for l in word]) + "))"
        if columns is None:
            parts += [f"{heads[c]}{kind}(w({exp}{tail}" for exp, kind, c in terms]
        elif len(columns) == 1:
            (kind, vector), = columns
            parts += [f"{heads[c]}{kind}{e}{tail}" for e, c in zip(exps, vector) if c]
        else:  # the signs of one exponent in a row
            parts += [f"{heads[c]}{kind}{e}{tail}" for exp, e in enumerate(exps)
                      for kind, vector in columns if (c := vector[exp])]
    if not parts:
        return "0"
    # the first term drops its " + ", or keeps its " - " as a bare "-"
    first = parts[0]
    parts[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(parts)


def element_to_json(x: GradedElement) -> dict:
    terms = []
    for word, group, columns in _canonical_groups(x):
        letters = ["s0" if l == S0 else "s1" for l in word]
        if columns is not None:
            group = [(exp, kind, c) for exp in range(x.algebra.field.order)
                     for kind, vector in columns if (c := vector[exp])]
        for exp, kind, c in group:
            terms.append(
                {
                    "kind": kind,
                    "support": {"exp": exp, "word": list(letters)},
                    "coeff": c,
                }
            )
    return {"terms": terms}
