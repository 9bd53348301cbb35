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

Each INT is converted once, by the tokenizer.  The grammar and the JSON
readers sum the terms of a form into one dict (_add_term) and build one
Form from it.  A source error is a DslSyntaxError at its line and column;
the JSON readers read each value through _field, which names the field
(equations[j][t].re, X[j][k].im; indices from 0) in a BadParams; a JSON
boolean is neither an integer nor a rational.  The metric reader reads X in
one pass into the ints that Metric._of_ints takes.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Dict, List, Tuple

from .errors import BadInput, BadParams, DimensionMismatch, DslSyntaxError
from .forms import Form, conj_rank, format_form, holo_rank, sort_ranks
from .hermitian import Metric
from .scalars import ZERO, ComplexRational, _make, _rational_parts
from .structures import StructureEquations


def _add_term(terms: dict, ranks, coeff: ComplexRational) -> None:
    """Add coeff times the wedge of ranks to the sum terms as Form + Form would:
    a zero term adds nothing, a coefficient that cancels drops out, and a
    term of another degree than the sum raises BadParams."""
    sorted_ = sort_ranks(ranks)
    if sorted_ is None or not coeff:
        return
    sign, mon = sorted_
    degree = len(next(iter(terms), mon))
    if len(mon) != degree:
        raise BadParams(f"cannot add forms of degrees {degree} and {len(mon)}")
    coeff = terms.get(mon, ZERO) + (coeff if sign > 0 else -coeff)
    if coeff:
        terms[mon] = coeff
    else:
        del terms[mon]


def _form(terms: dict) -> Form:
    """The Form of a sum that _add_term built."""
    return Form(len(next(iter(terms))) if terms else None, terms)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# One match per token, with the blanks and comment after it (_LEAD skips any
# before the first token); the group that matched is the token's kind, and
# any other character is "bad".  A newline ends a statement, as ';' does.
_TOKEN = re.compile(
    r"(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z]+)|(?P<punct>[-+*^:()/;~\n])|(?P<bad>.))"
    r"[ \t\r]*(?:#[^\n]*)?",
    re.DOTALL,
)
_LEAD = re.compile(r"[ \t\r]*(?:#[^\n]*)?")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # (kind, text, offset, int value or None); kind is 'int', 'name', 'end' or the punctuation
        self.tokens: List[tuple] = []
        for m in _TOKEN.finditer(text, _LEAD.match(text).end()):
            kind = m.lastgroup
            tok = m[kind]
            value = None
            if kind == "int":
                try:
                    value = int(tok)
                except ValueError:  # beyond the interpreter's int-string limit
                    self.fail(m.start(), f"integer literal too long ({len(tok)} digits)")
            elif kind == "punct":
                kind = tok = ";" if tok == "\n" else tok
            elif kind == "bad":
                self.fail(m.start(), f"unexpected character {tok!r}")
            self.tokens.append((kind, tok, m.start(), value))
        self.tokens.append(("end", "", len(text), None))
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
                n = self.take("int")[3]
                if n < 1:
                    self.fail(tok[2], "n must be >= 1")
            elif tok[1] == "dw":
                j = self.take("int")[3]
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
        kind, text = self.peek()[:2]
        if kind == "int" and text == "0" and self.tokens[self.pos + 1][0] in (";", "end"):
            self.take()
            return Form.zero()
        sign = 1
        if kind == "-":
            self.take()
            sign = -1
        terms: Dict[tuple, ComplexRational] = {}
        _add_term(terms, *self.parse_term(n, sign))
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.take()[0] == "+" else -1
            offset = self.peek()[2]
            ranks, coeff = self.parse_term(n, sign)
            try:
                _add_term(terms, ranks, coeff)
            except BadParams as exc:  # a term of another degree than the sum
                self.fail(offset, str(exc))
        return _form(terms)

    def parse_term(self, n: int, sign: int) -> tuple:
        """(ranks, coefficient) of one term."""
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
        return self.parse_mono(n), coeff

    def parse_mono(self, n: int) -> list:
        ranks = [self.parse_gen(n)]
        while self.peek()[0] == "^":
            self.take()
            ranks.append(self.parse_gen(n))
        return ranks

    def parse_gen(self, n: int) -> int:
        conj = False
        if self.peek()[0] == "~":
            self.take()
            conj = True
        tok = self.take("name")
        if tok[1] != "w":
            self.fail(tok[2], f"expected generator, found {tok[1]!r}")
        j = self.take("int")[3]
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
        num = self.take("int")[3]
        if self.peek()[0] == "/":
            self.take()
            den = self.take("int")[3]
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
    if isinstance(value, bool):
        raise TypeError(f"expected an integer >= 1, found {str(value).lower()}")
    j = operator.index(value)  # a float or a string raises TypeError
    if j < 1:
        raise DimensionMismatch(f"expected an integer >= 1, found {j}")
    return j


def _array(value) -> list:
    """A JSON array field; anything else raises TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"expected an array, found {type(value).__name__}")
    return value


_READ_ERRORS = (KeyError, ZeroDivisionError, TypeError, ValueError, BadInput)


def _bad(where: str, exc: Exception) -> BadParams:
    """The BadParams naming the field where for one of _READ_ERRORS."""
    if isinstance(exc, KeyError):
        return BadParams(f"{where}: missing")
    if isinstance(exc, ZeroDivisionError):
        return BadParams(f"{where}: a zero denominator")
    return BadParams(f"{where}: {exc}")


def _field(where: str, read):
    """read(), which reads the one value of the field where: a missing key, a
    wrong type, a bad literal or a zero denominator is BadParams naming it."""
    try:
        return read()
    except _READ_ERRORS as exc:
        raise _bad(where, exc) from None


def _complex(at: str, spec) -> ComplexRational:
    """The number {"re": ..., "im": ...} spec, its parts read as at.re and at.im."""
    p, q = _field(at + ".re", lambda: _rational_parts(spec["re"]))
    r, s = _field(at + ".im", lambda: _rational_parts(spec["im"]))
    return _make(p * s, r * q, q * s)


def _mon_from_json(spec, n: int) -> list:
    ranks = []
    for kind, j in spec:
        if kind not in ("w", "cw"):
            raise BadParams(f"bad generator kind {kind!r}")
        j = _index(j)
        if j > n:
            raise DimensionMismatch(f"generator w{j} outside 1..{n}")
        ranks.append(holo_rank(j) if kind == "w" else conj_rank(j))
    return ranks


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


def form_from_json(spec, n: int, j: int) -> Form:
    """dw^j over n generators from its JSON terms {"re", "im", "mon"}."""
    where = f"equations[{j - 1}]"
    terms: Dict[tuple, ComplexRational] = {}
    for t, term in enumerate(_field(where, lambda: _array(spec))):
        at = f"{where}[{t}]"
        coeff = _complex(at, term)
        mon = _field(at + ".mon", lambda: _mon_from_json(term["mon"], n))
        if len(mon) != 2:
            raise BadParams(f"{at}.mon: dw{j} must be a 2-form, got degree {len(mon)}")
        _add_term(terms, mon, coeff)
    return _form(terms)


def structure_to_json(se: StructureEquations) -> dict:
    return {"n": se.n, "equations": [form_to_json(df) for df in se.d_of]}


def structure_from_json(spec) -> StructureEquations:
    """A field that is missing or does not read raises BadParams naming it:
    n, equations, equations[j], or equations[j][t].re, .im or .mon."""
    n = _field("n", lambda: _index(spec["n"]))
    equations = _field("equations", lambda: _array(spec["equations"]))
    return StructureEquations(n, [form_from_json(e, n, j)
                                  for j, e in enumerate(equations, start=1)])


def real_form_to_json(f: Form) -> list:
    out = []
    for mon in sorted(f.terms):
        c = f.terms[mon]
        out.append({"coef": str(c.real_part()), "mon": list(mon)})
    return out


def real_form_from_json(spec) -> Form:
    terms: Dict[tuple, ComplexRational] = {}
    for term in spec:
        _add_term(terms, [_index(r) for r in term["mon"]], ComplexRational(term["coef"]))
    return _form(terms)


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
    """The metric, read in one pass into the ints that Metric._of_ints takes:
    D is the lcm of the reduced denominators of the cells' parts, as in
    Metric(x).  A field that is missing or does not read raises BadParams
    naming it, the name built only then: n, X, X[j], or X[j][k].re or .im; a
    ragged X is Metric's DimensionMismatch."""
    n = _field("n", lambda: _index(spec["n"]))
    rows = _field("X", lambda: _array(spec["X"]))
    if len(rows) != n:
        raise DimensionMismatch(f"n is {n} but X has {len(rows)} rows")
    cells, dens = [], {1}  # cells[j][k] = (p, q, r, s) for x_jk = p/q + i r/s
    j = k = part = None
    try:
        for j, row in enumerate(rows):
            k = None
            out = []
            for k, cell in enumerate(_array(row)):
                part = "re"
                p, q = _rational_parts(cell["re"])
                part = "im"
                r, s = _rational_parts(cell["im"])
                out.append((p, q, r, s))
                dens.add(q)
                dens.add(s)
            cells.append(out)
    except _READ_ERRORS as exc:
        raise _bad(f"X[{j}]" if k is None else f"X[{j}][{k}].{part}", exc) from None
    den = lcm(*dens)
    return Metric._of_ints([[(p * (den // q), r * (den // s)) for p, q, r, s in row]
                            for row in cells], den)
