"""Text grammar for elements, used by the CLI and by __repr__.

    element := ['-'] term (('+'|'-') term)*
    term    := [int '*'] symbol
    symbol  := kind '(' weyl ')' | 'e' '(' int ')'
    kind    := 'tau'|'bm'|'b0'|'bp'|'am'|'a0'|'ap'|'phi'
    weyl    := 'w(' int ';' [letters] ')'
    letters := ('s0'|'s1') {' ' ('s0'|'s1')}

Rendering is canonical (sorted terms, balanced coefficient signs), and
parse(render(x)) == x; render(parse(s)) == s on canonically rendered
input.  Parse errors carry the offending position.
"""

from __future__ import annotations

from .graded import BasisSymbol, ExtAlgebra, GradedElement
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
_KIND_ORDER = {name: i for i, name in enumerate(_KINDS)}


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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

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
    if sc.peek().isdigit():
        coeff = sc.integer()
        if sc.peek() != "*":
            raise ParseError("expected '*' after a coefficient", sc.pos)
        sc.expect("*")
    name = sc.ident()
    if name == "e":
        sc.expect("(")
        m = sc.integer()
        sc.expect(")")
        return alg.embed(alg.hecke.idempotent(m)).scale(coeff)
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


def parse_element(alg: ExtAlgebra, text: str) -> GradedElement:
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


def render_weyl(w: WeylElement) -> str:
    letters = " ".join("s0" if l == S0 else "s1" for l in w.word)
    return f"w({w.exp};{(' ' + letters) if letters else ''})"


def _symbol_key(sym: BasisSymbol):
    return (
        sym.degree,
        sym.support.length,
        sym.support.word,
        sym.support.exp,
        -1 if sym.sign is None else sym.sign,
    )


def render_element(x: GradedElement) -> str:
    if x.is_zero:
        return "0"
    p = x.algebra.field.p
    parts = []
    for sym, c in sorted(x.coeffs.items(), key=lambda kv: _symbol_key(kv[0])):
        # balanced sign: render p - c as a subtraction when that is smaller
        if c <= (p - 1) // 2:
            sign, mag = "+", c
        else:
            sign, mag = "-", p - c
        body = f"{sym.kind}({render_weyl(sym.support)})"
        if mag != 1:
            body = f"{mag}*{body}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def element_to_json(x: GradedElement) -> dict:
    terms = []
    for sym, c in sorted(x.coeffs.items(), key=lambda kv: _symbol_key(kv[0])):
        terms.append(
            {
                "kind": sym.kind,
                "support": {
                    "exp": sym.support.exp,
                    "word": ["s0" if l == S0 else "s1" for l in sym.support.word],
                },
                "coeff": c,
            }
        )
    return {"terms": terms}
