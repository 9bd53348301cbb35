"""Text and JSON formats for structure equations, forms and metrics.

Grammar of the structure-equation DSL (UTF-8; statements split on newlines
or ';'):

    source  := stmt (separator stmt)*
    stmt    := "n" ":" INT  |  "dw" INT ":" expr
    expr    := "0" | term (("+" | "-") term)*
    term    := [coef "*"] mono
    mono    := gen ("^" gen)*
    gen     := "w" INT | "~w" INT
    coef    := "(" complex ")" | complex
    complex := rat | [rat] "i" | rat ("+"|"-") [rat] "i"
    rat     := ["-"] INT ["/" INT]

Example:  n:3; dw1:0; dw2:0; dw3: w1^w2 + w1^~w1 + (1/2+1/4i)*w1^~w2
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import DimensionMismatch, DslSyntaxError
from .forms import Form, conj_rank, format_form, holo_rank
from .hermitian import Metric
from .scalars import ComplexRational
from .structures import StructureEquations

# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_PUNCT = {"+", "-", "*", "^", ":", "(", ")", "/", ";", "~"}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # 'int' | 'name' | punctuation | 'end'
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}({self.text!r})"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            tokens.append(_Token(";", ";", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < len(text) and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch.isdigit():
            start = i
            startcol = col
            while i < len(text) and text[i].isdigit():
                i += 1
                col += 1
            tokens.append(_Token("int", text[start:i], line, startcol))
            continue
        if ch.isalpha():
            start = i
            startcol = col
            while i < len(text) and text[i].isalpha():
                i += 1
                col += 1
            tokens.append(_Token("name", text[start:i], line, startcol))
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(line, col, f"unexpected character {ch!r}")
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind=None) -> _Token:
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise DslSyntaxError(
                tok.line, tok.col, f"expected {kind!r}, found {tok.text!r}"
            )
        self.pos += 1
        return tok

    def error(self, msg: str):
        tok = self.peek()
        raise DslSyntaxError(tok.line, tok.col, msg)

    # -- grammar -------------------------------------------------------------

    def parse_source(self) -> Tuple[int, Dict[int, Form]]:
        n = None
        equations: Dict[int, Form] = {}
        while True:
            while self.peek().kind == ";":
                self.take()
            if self.peek().kind == "end":
                break
            tok = self.take("name")
            if tok.text == "n":
                self.take(":")
                if n is not None:
                    raise DslSyntaxError(tok.line, tok.col, "duplicate 'n' header")
                n = int(self.take("int").text)
                if n < 1:
                    raise DslSyntaxError(tok.line, tok.col, "n must be >= 1")
            elif tok.text == "dw":
                j = int(self.take("int").text)
                self.take(":")
                if n is None:
                    raise DslSyntaxError(tok.line, tok.col, "'n' header must come first")
                if not 1 <= j <= n:
                    raise DslSyntaxError(
                        tok.line, tok.col, f"generator w{j} outside 1..{n}"
                    )
                if j in equations:
                    raise DslSyntaxError(tok.line, tok.col, f"duplicate dw{j}")
                equations[j] = self.parse_expr(n)
            else:
                raise DslSyntaxError(
                    tok.line, tok.col, f"expected 'n' or 'dw<j>', found {tok.text!r}"
                )
        if n is None:
            raise DslSyntaxError(1, 1, "missing 'n' header")
        missing = [j for j in range(1, n + 1) if j not in equations]
        if missing:
            raise DslSyntaxError(1, 1, f"missing equations for dw{missing}")
        return n, equations

    def parse_expr(self, n: int) -> Form:
        tok = self.peek()
        if tok.kind == "int" and tok.text == "0" and self.tokens[self.pos + 1].kind in (";", "end"):
            self.take()
            return Form.zero()
        sign = 1
        if tok.kind == "-":
            self.take()
            sign = -1
        out = self.parse_term(n, sign)
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.take().kind == "+" else -1
            out = out + self.parse_term(n, sign)
        return out

    def parse_term(self, n: int, sign: int) -> Form:
        coeff = ComplexRational(sign)
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            coeff = coeff * self.parse_complex()
            self.take(")")
            self.take("*")
        elif tok.kind == "int":
            coeff = coeff * self.parse_complex()
            self.take("*")
        mono = self.parse_mono(n)
        return mono.scale(coeff)

    def parse_mono(self, n: int) -> Form:
        ranks = [self.parse_gen(n)]
        while self.peek().kind == "^":
            self.take()
            ranks.append(self.parse_gen(n))
        return Form.monomial(ranks)

    def parse_gen(self, n: int) -> int:
        conj = False
        if self.peek().kind == "~":
            self.take()
            conj = True
        tok = self.take("name")
        if tok.text != "w":
            raise DslSyntaxError(tok.line, tok.col, f"expected generator, found {tok.text!r}")
        j = int(self.take("int").text)
        if not 1 <= j <= n:
            raise DslSyntaxError(tok.line, tok.col, f"generator w{j} outside 1..{n}")
        return conj_rank(j) if conj else holo_rank(j)

    def _take_bare_i(self) -> bool:
        tok = self.peek()
        if tok.kind == "name" and tok.text == "i":
            self.take()
            return True
        return False

    def parse_complex(self) -> ComplexRational:
        if self._take_bare_i():
            return ComplexRational(0, 1)
        if self.peek().kind == "-" and self.tokens[self.pos + 1].text == "i":
            self.take()
            self.take()
            return ComplexRational(0, -1)
        first = self.parse_signed_rational()
        if self._take_bare_i():
            return ComplexRational(0, first)
        tok = self.peek()
        if tok.kind in ("+", "-"):
            # lookahead: '[rat] i' continues the literal, else back off
            save = self.pos
            sign = 1 if self.take().kind == "+" else -1
            if self._take_bare_i():
                return ComplexRational(first, sign)
            try:
                second = self.parse_signed_rational()
            except DslSyntaxError:
                self.pos = save
                return ComplexRational(first)
            if self._take_bare_i():
                return ComplexRational(first, sign * second)
            self.pos = save
        return ComplexRational(first)

    def parse_signed_rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "-":
            self.take()
            sign = -1
        num = int(self.take("int").text)
        if self.peek().kind == "/":
            self.take()
            den = int(self.take("int").text)
            if den == 0:
                self.error("zero denominator")
            return Fraction(sign * num, den)
        return Fraction(sign * num)


def parse_structure(text: str) -> StructureEquations:
    """Parse DSL source; validates Jacobi and integrability on construction."""
    n, equations = _Parser(text).parse_source()
    return StructureEquations(n, [equations[j] for j in range(1, n + 1)])


def parse_complex_literal(text: str) -> ComplexRational:
    """Parse a standalone complex literal such as '1/2+1/4i' or '-2i'."""
    parser = _Parser(text)
    value = parser.parse_complex()
    parser.take("end")
    return value


def format_structure(se: StructureEquations) -> str:
    """Canonical DSL text; reparsing yields an identical StructureEquations."""
    lines = [f"n: {se.n}"]
    for j, df in enumerate(se.d_of, start=1):
        lines.append(f"dw{j}: {format_form(df)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON mirrors (rationals as strings)
# ---------------------------------------------------------------------------


def _mon_to_json(mon) -> list:
    out = []
    for r in mon:
        if r & 1:
            out.append(["w", (r + 1) // 2])
        else:
            out.append(["cw", r // 2])
    return out


def _mon_from_json(spec) -> tuple:
    ranks = []
    for kind, j in spec:
        if kind == "w":
            ranks.append(holo_rank(int(j)))
        elif kind == "cw":
            ranks.append(conj_rank(int(j)))
        else:
            raise ValueError(f"bad generator kind {kind!r}")
    return tuple(ranks)


def form_to_json(f: Form) -> list:
    return [
        {
            "re": str(c.re),
            "im": str(c.im),
            "mon": _mon_to_json(mon),
        }
        for mon in sorted(f.terms)
        for c in (f.terms[mon],)
    ]


def form_from_json(spec) -> Form:
    out = Form.zero()
    for term in spec:
        c = ComplexRational(term["re"], term["im"])
        out = out + Form.monomial(_mon_from_json(term["mon"]), c)
    return out


def structure_to_json(se: StructureEquations) -> dict:
    return {"n": se.n, "equations": [form_to_json(df) for df in se.d_of]}


def structure_from_json(spec) -> StructureEquations:
    n = int(spec["n"])
    return StructureEquations(n, [form_from_json(e) for e in spec["equations"]])


def real_form_to_json(f: Form) -> list:
    out = []
    for mon in sorted(f.terms):
        c = f.terms[mon]
        out.append({"coef": str(c.real_part()), "mon": list(mon)})
    return out


def real_form_from_json(spec) -> Form:
    out = Form.zero()
    for term in spec:
        out = out + Form.monomial(
            tuple(int(r) for r in term["mon"]),
            ComplexRational(term["coef"]),
        )
    return out


def metric_to_json(metric: Metric) -> dict:
    """{"n": n, "X": rows of {"re", "im"} rational strings}."""
    return {
        "n": metric.n,
        "X": [
            [{"re": str(v.re), "im": str(v.im)} for v in row]
            for row in metric.x
        ],
    }


def metric_from_json(spec) -> Metric:
    rows = spec["X"]
    if "n" in spec and int(spec["n"]) != len(rows):
        raise DimensionMismatch(f"metric has n = {spec['n']} but {len(rows)} rows")
    for j, row in enumerate(rows):
        if len(row) != len(rows):
            raise DimensionMismatch(f"metric row {j} has {len(row)} entries, not {len(rows)}")
    return Metric(
        [[ComplexRational(cell["re"], cell["im"]) for cell in row] for row in rows]
    )
