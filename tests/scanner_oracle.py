"""The character scanner that read element text before the token reader,
kept as a test oracle: the reader in heckext.grammar must give the same
element, a character key held as one, or the same ParseError message and
position.

The one change from that scanner: only a lone '0' reads as zero, where
any integer starting with '0' ("05", "00") once did.
"""

from heckext.graded import BasisSymbol, ExtAlgebra, GradedElement
from heckext.grammar import _KINDS, ParseError
from heckext.weyl import S0, S1, WeylElement


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
        return alg.idempotent(m).scale(coeff)
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


def _parse_scanned(alg: ExtAlgebra, text: str) -> GradedElement:
    sc = _Scanner(text)
    if sc.done():
        raise ParseError("empty input", 0)
    if sc.peek() == "0":
        save = sc.pos
        sc.integer()
        if sc.pos == save + 1 and sc.done():
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
