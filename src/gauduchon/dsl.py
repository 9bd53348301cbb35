"""Text and JSON formats for structure equations, forms and metrics.

Grammar of the structure-equation DSL.  Tokens are ASCII: INT is [0-9]+,
with no more digits than the interpreter converts (4300 by default), and
a name is [A-Za-z]+.  Blanks, tabs, CR and '#' comments (to the end of the
line) may sit between any two tokens, and a newline or ';' ends a statement:

    source  := stmt (separator stmt)*
    stmt    := "n" ":" INT  |  "dw" INT ":" expr      (expr 0 or a 2-form)
    expr    := "0" | term (("+" | "-") term)*     (nonzero terms of one degree)
    term    := [coef "*"] mono
    mono    := gen ("^" gen)*
    gen     := "w" INT | "~w" INT
    coef    := "(" complex ")" | complex      (unbracketed, it starts with INT)
    complex := rat | [rat] "i" | rat ("+"|"-") [rat] "i"
    rat     := ["-"] INT ["/" INT]

Example:  n:3; dw1:0; dw2:0; dw3: w1^w2 + w1^~w1 + (1/2+1/4i)*w1^~w2
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import islice
from typing import Dict, List, Tuple

from .errors import DimensionMismatch, DslSyntaxError
from .forms import Form, conj_rank, format_form, holo_rank
from .hermitian import Metric
from .scalars import ComplexRational
from .structures import StructureEquations

# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# One group per token kind; blanks and comments match no group, and any
# other character is "bad".  A newline ends a statement, as ';' does.
_TOKEN = re.compile(
    r"(?P<int>[0-9]+)|(?P<name>[A-Za-z]+)|(?P<punct>[-+*^:()/;~\n])"
    r"|[ \t\r]+|#[^\n]*|(?P<bad>.)",
    re.DOTALL,
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # (kind, text, offset) tuples; kind is 'int', 'name', 'end' or the punctuation
        self.tokens: List[tuple] = []
        for m in _TOKEN.finditer(text):
            kind, tok = m.lastgroup, m.group()
            if kind == "bad":
                self.fail(m.start(), f"unexpected character {tok!r}")
            if kind == "int":
                try:
                    int(tok)
                except ValueError:  # beyond the interpreter's int-string limit
                    self.fail(m.start(), f"integer literal too long ({len(tok)} digits)")
            if kind == "punct":
                kind = tok = ";" if tok == "\n" else tok
            if kind is not None:
                self.tokens.append((kind, tok, m.start()))
        self.tokens.append(("end", "", len(text)))
        self.pos = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def take(self, kind=None) -> tuple:
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            self.fail(tok[2], f"expected {kind!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def fail(self, offset: int, msg: str):
        """Raise DslSyntaxError at the 1-based line and column of text[offset]."""
        line_start = self.text.rfind("\n", 0, offset) + 1
        raise DslSyntaxError(self.text.count("\n", 0, offset) + 1, offset - line_start + 1, msg)

    # -- grammar -------------------------------------------------------------

    def parse_source(self) -> Tuple[int, Dict[int, Form]]:
        n = None
        equations: Dict[int, Form] = {}
        offsets: Dict[int, int] = {}  # j -> offset of its 'dw' token
        while True:
            while self.peek()[0] == ";":
                self.take()
            if self.peek()[0] == "end":
                break
            tok = self.take("name")
            if tok[1] == "n":
                self.take(":")
                if n is not None:
                    self.fail(tok[2], "duplicate 'n' header")
                n = int(self.take("int")[1])
                if n < 1:
                    self.fail(tok[2], "n must be >= 1")
            elif tok[1] == "dw":
                j = int(self.take("int")[1])
                self.take(":")
                if n is None:
                    self.fail(tok[2], "'n' header must come first")
                if not 1 <= j <= n:
                    self.fail(tok[2], f"generator w{j} outside 1..{n}")
                if j in equations:
                    self.fail(tok[2], f"duplicate dw{j}")
                equations[j] = self.parse_expr(n)
                offsets[j] = tok[2]
            else:
                self.fail(tok[2], f"expected 'n' or 'dw<j>', found {tok[1]!r}")
        if n is None:
            raise DslSyntaxError(1, 1, "missing 'n' header")
        # name the first eight; the first missing index is at most len(equations) + 1
        missing = list(islice((j for j in range(1, n + 1) if j not in equations), 9))
        if missing:
            names = ", ".join(map(str, missing[:8])) + (", ..." if len(missing) > 8 else "")
            raise DslSyntaxError(1, 1, f"missing equations for dw[{names}]")
        # checked once the whole source parses, so a syntax error comes first
        for j, form in equations.items():
            if form and form.degree != 2:
                self.fail(offsets[j], f"dw{j} must be a 2-form, got degree {form.degree}")
        return n, equations

    def parse_expr(self, n: int) -> Form:
        kind, text, _ = self.peek()
        if kind == "int" and text == "0" and self.tokens[self.pos + 1][0] in (";", "end"):
            self.take()
            return Form.zero()
        sign = 1
        if kind == "-":
            self.take()
            sign = -1
        out = self.parse_term(n, sign)
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.take()[0] == "+" else -1
            offset = self.peek()[2]
            term = self.parse_term(n, sign)
            if out and term and term.degree != out.degree:
                self.fail(offset, f"cannot add forms of degrees {out.degree} and {term.degree}")
            out = out + term
        return out

    def parse_term(self, n: int, sign: int) -> Form:
        coeff = ComplexRational(sign)
        kind = self.peek()[0]
        if kind == "(":
            self.take()
            coeff = coeff * self.parse_complex()
            self.take(")")
            self.take("*")
        elif kind == "int":
            coeff = coeff * self.parse_complex()
            self.take("*")
        mono = self.parse_mono(n)
        return mono.scale(coeff)

    def parse_mono(self, n: int) -> Form:
        ranks = [self.parse_gen(n)]
        while self.peek()[0] == "^":
            self.take()
            ranks.append(self.parse_gen(n))
        return Form.monomial(ranks)

    def parse_gen(self, n: int) -> int:
        conj = False
        if self.peek()[0] == "~":
            self.take()
            conj = True
        tok = self.take("name")
        if tok[1] != "w":
            self.fail(tok[2], f"expected generator, found {tok[1]!r}")
        j = int(self.take("int")[1])
        if not 1 <= j <= n:
            self.fail(tok[2], f"generator w{j} outside 1..{n}")
        return conj_rank(j) if conj else holo_rank(j)

    def _take_bare_i(self) -> bool:
        if self.peek()[:2] == ("name", "i"):
            self.take()
            return True
        return False

    def parse_complex(self) -> ComplexRational:
        if self._take_bare_i():
            return ComplexRational(0, 1)
        if self.peek()[0] == "-" and self.tokens[self.pos + 1][1] == "i":
            self.take()
            self.take()
            return ComplexRational(0, -1)
        first = self.parse_signed_rational()
        if self._take_bare_i():
            return ComplexRational(0, first)
        if self.peek()[0] in ("+", "-"):
            # lookahead: '[rat] i' continues the literal, else back off
            save = self.pos
            sign = 1 if self.take()[0] == "+" else -1
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
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        num = int(self.take("int")[1])
        if self.peek()[0] == "/":
            self.take()
            den = int(self.take("int")[1])
            if den == 0:
                self.fail(self.peek()[2], "zero denominator")
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


def _index(value) -> int:
    """A JSON integer field (n, dim, a generator index or rank): an int >= 1."""
    j = operator.index(value)  # a float or a string raises TypeError
    if j < 1:
        raise DimensionMismatch(f"expected an integer >= 1, found {j}")
    return j


def _mon_from_json(spec) -> tuple:
    ranks = []
    for kind, j in spec:
        if kind == "w":
            ranks.append(holo_rank(_index(j)))
        elif kind == "cw":
            ranks.append(conj_rank(_index(j)))
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
    n = _index(spec["n"])
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
            tuple(_index(r) for r in term["mon"]),
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
    if "n" in spec and _index(spec["n"]) != len(rows):
        raise DimensionMismatch(f"metric has n = {spec['n']} but {len(rows)} rows")
    for j, row in enumerate(rows):
        if len(row) != len(rows):
            raise DimensionMismatch(f"metric row {j} has {len(row)} entries, not {len(rows)}")
    return Metric(
        [[ComplexRational(cell["re"], cell["im"]) for cell in row] for row in rows]
    )
