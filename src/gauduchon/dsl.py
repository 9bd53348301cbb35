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
    complex := rat | [rat | "-"] "i" | rat ("+"|"-") [rat] "i"
    rat     := ["-"] INT ["/" INT]

Example:  n:3; dw1:0; dw2:0; dw3: w1^w2 + w1^~w1 + (1/2+1/4i)*w1^~w2

The tokenizer is one findall of the token strings, which the grammar walks
by index; both structure readers sum each dw^j in ints (_add_term), the sums
that StructureEquations._of_sums takes.  Only a failed read finds the
tokens' offsets, for its DslSyntaxError's line and column (_syntax_error).
The JSON readers read each value through _field, which names the field
(equations[j][t].re, X[j][k].im; indices from 0) in a BadParams; a JSON
boolean is neither an integer nor a rational.  The metric reader reads X in
one pass into the ints that Metric._of_ints takes.
"""

from __future__ import annotations

import operator
import re
from itertools import islice
from math import lcm
from typing import Dict, List

from .errors import BadInput, BadParams, DimensionMismatch, DslSyntaxError
from .forms import Form, conj_rank, format_form, holo_rank, sort_ranks
from .hermitian import Metric
from .scalars import ComplexRational, _make, _rational_parts, _rational_str
from .structures import StructureEquations


def _add_term(terms: dict, ranks, a: int, b: int, d: int) -> None:
    """Add (a + ib)/d times the wedge of ranks to the int sums terms
    {mon: (a, b, d)}, each unreduced over the lcm of its terms' d, as Form +
    Form would: a zero term adds nothing, a sum that cancels drops out, and a
    term of another degree than the sum raises BadParams."""
    sorted_ = sort_ranks(ranks)
    if sorted_ is None or not (a or b):
        return
    sign, mon = sorted_
    degree = len(next(iter(terms), mon))
    if len(mon) != degree:
        raise BadParams(f"cannot add forms of degrees {degree} and {len(mon)}")
    if sign < 0:
        a, b = -a, -b
    acc = terms.get(mon)
    if acc is not None:
        x, y, e = acc
        if e != d:
            m = lcm(e, d)
            x, y, a, b, d = x * (m // e), y * (m // e), a * (m // d), b * (m // d), m
        a, b = x + a, y + b
    if a or b:
        terms[mon] = a, b, d
    else:
        del terms[mon]


# ---------------------------------------------------------------------------
# tokenizer and grammar: each grammar reader takes the token list and the
# index it starts at, and returns what it read and the index after it
# ---------------------------------------------------------------------------

# One match per token: blanks match nothing, a comment is a match that
# _tokens drops, and a character that starts no other token is a token of its
# own, and a bad one.  A newline ends a statement, as ';' does.
_PUNCT = "-+*^:()/;~\n"
_TOKEN = re.compile(r"[" + re.escape(_PUNCT) + r"]|[0-9]+|[A-Za-z]+|#[^\n]*|[^ \t\r]")


def _tokens(text: str) -> List[str]:
    """The token strings of text, then "" for its end."""
    tokens = _TOKEN.findall(text)
    return ([tok for tok in tokens if tok[0] != "#"] if "#" in text else tokens) + [""]


class _Fail(Exception):
    """A grammar failure: (index of the token it is reported at, message)."""


def _syntax_error(text: str, index: int, message: str) -> DslSyntaxError:
    """The DslSyntaxError of a read that failed with message at token index:
    the first bad character or INT too long to convert anywhere in text, as a
    whole-text tokenizer meets it, else message at the token's position."""
    offset = len(text)
    for k, m in enumerate(m for m in _TOKEN.finditer(text) if m[0][0] != "#"):
        tok = m[0]
        if not (tok.isascii() and (tok.isalnum() or tok in _PUNCT)):
            return _error_at(text, m.start(), f"unexpected character {tok!r}")
        if tok.isdigit():
            try:
                int(tok)
            except ValueError:  # beyond the interpreter's int-string limit
                return _error_at(text, m.start(), f"integer literal too long ({len(tok)} digits)")
        if k == index:
            offset = m.start()
    return _error_at(text, offset, message)


def _error_at(text: str, offset: int, message: str) -> DslSyntaxError:
    """message at the 1-based line and column of text[offset]."""
    line_start = text.rfind("\n", 0, offset) + 1
    return DslSyntaxError(text.count("\n", 0, offset) + 1, offset - line_start + 1, message)


def _expected(what: str, tokens: list, i: int, name: bool = False) -> _Fail:
    """The failure at token i, which is not what, or not a 'name' when what is
    one; a newline shows as ';', the end as ''."""
    tok = tokens[i]
    if name and not tok.isalpha():
        what = "'name'"
    shown = ";" if tok == "\n" else tok
    return _Fail(i, f"expected {what}, found {shown!r}")


def _take(want: str, tokens: list, i: int) -> int:
    """The index after token i, which must be want."""
    if tokens[i] != want:
        raise _expected(repr(want), tokens, i)
    return i + 1


def _int(tokens: list, i: int) -> int:
    tok = tokens[i]
    if tok.isascii():  # int() also reads the digits of other scripts
        try:
            return int(tok)
        except ValueError:  # not an INT, or one too long to convert
            pass
    raise _expected("'int'", tokens, i)


def _rational(tokens: list, i: int) -> tuple:
    """(p, q, i) for rat: p/q, q > 0 and not reduced."""
    sign = -1 if tokens[i] == "-" else 1
    i += sign < 0
    p = sign * _int(tokens, i)
    if tokens[i + 1] != "/":
        return p, 1, i + 1
    q = _int(tokens, i + 2)
    if not q:
        raise _Fail(i + 3, "zero denominator")
    return p, q, i + 3


def _complex(tokens: list, i: int) -> tuple:
    """(a, b, d, i) for complex: (a + ib)/d, d > 0 and not reduced."""
    tok = tokens[i]
    if tok == "i":
        return 0, 1, 1, i + 1
    if tok == "-" and tokens[i + 1] == "i":
        return 0, -1, 1, i + 2
    p, q, i = _rational(tokens, i)
    tok = tokens[i]
    if tok == "i":
        return 0, p, q, i + 1
    if tok == "+" or tok == "-":
        # '[rat] i' continues the literal; anything else ends it before the sign
        if tokens[i + 1] == "i":
            return p, q if tok == "+" else -q, q, i + 2
        try:
            r, s, j = _rational(tokens, i + 1)
        except _Fail:
            return p, 0, q, i
        if tokens[j] == "i":
            return p * s, (r if tok == "+" else -r) * q, q * s, j + 1
    return p, 0, q, i


def _expr(tokens: list, i: int, n: int) -> tuple:
    """(sums, i) for expr: _add_term's sums of its terms."""
    terms: Dict[tuple, tuple] = {}
    if tokens[i] == "0" and tokens[i + 1] in (";", "\n", ""):
        return terms, i + 1
    sign = -1 if tokens[i] == "-" else 1
    i += sign < 0
    while True:
        start = i
        tok = tokens[i]
        if tok == "(":
            a, b, d, i = _complex(tokens, i + 1)
            i = _take("*", tokens, _take(")", tokens, i))
        elif tok.isdigit():  # unbracketed, a coefficient starts with INT
            a, b, d, i = _complex(tokens, i)
            i = _take("*", tokens, i)
        else:
            a, b, d = 1, 0, 1
        ranks = []
        while True:  # mono: gen ("^" gen)*, gen := ["~"] "w" INT
            conj = tokens[i] == "~"
            i += conj
            if tokens[i] != "w":
                raise _expected("generator", tokens, i, name=True)
            j = _int(tokens, i + 1)
            if not 1 <= j <= n:
                raise _Fail(i, f"generator w{j} outside 1..{n}")
            ranks.append(2 * j if conj else 2 * j - 1)
            i += 2
            if tokens[i] != "^":
                break
            i += 1
        try:
            _add_term(terms, ranks, sign * a, sign * b, d)
        except BadParams as exc:  # a term of another degree than the sum
            raise _Fail(start, str(exc)) from None
        tok = tokens[i]
        if tok != "+" and tok != "-":
            return terms, i
        sign = 1 if tok == "+" else -1
        i += 1


def _source(tokens: list) -> tuple:
    """(n, sums of dw^1..dw^n) for source."""
    n = None
    equations: Dict[int, dict] = {}
    at: Dict[int, int] = {}  # j -> index of its 'dw' token
    i = 0
    while True:
        tok = tokens[i]
        if tok == ";" or tok == "\n":
            i += 1
        elif tok == "n":
            _take(":", tokens, i + 1)
            if n is not None:
                raise _Fail(i, "duplicate 'n' header")
            n = _int(tokens, i + 2)
            if n < 1:
                raise _Fail(i, "n must be >= 1")
            i += 3
        elif tok == "dw":
            j = _int(tokens, i + 1)
            _take(":", tokens, i + 2)
            if n is None:
                raise _Fail(i, "'n' header must come first")
            if not 1 <= j <= n:
                raise _Fail(i, f"generator w{j} outside 1..{n}")
            if j in equations:
                raise _Fail(i, f"duplicate dw{j}")
            at[j] = i
            equations[j], i = _expr(tokens, i + 3, n)
        elif tok:
            raise _expected("'n' or 'dw<j>'", tokens, i, name=True)
        else:
            break
    if n is None:
        raise DslSyntaxError(1, 1, "missing 'n' header")
    # name the first eight; the first missing index is at most len(equations) + 1
    missing = list(islice((j for j in range(1, n + 1) if j not in equations), 9))
    if missing:
        names = ", ".join(map(str, missing[:8])) + (", ..." if len(missing) > 8 else "")
        raise DslSyntaxError(1, 1, f"missing equations for dw[{names}]")
    # checked once the whole source parses, so a syntax error comes first
    for j, terms in equations.items():
        mon = next(iter(terms), None)
        if mon is not None and len(mon) != 2:
            raise _Fail(at[j], f"dw{j} must be a 2-form, got degree {len(mon)}")
    return n, [equations[j] for j in range(1, n + 1)]


def parse_structure(text: str) -> StructureEquations:
    """Parse DSL source; validates Jacobi and integrability on construction."""
    try:
        n, sums = _source(_tokens(text))
    except _Fail as fail:
        raise _syntax_error(text, *fail.args) from None
    return StructureEquations._of_sums(n, sums)


def parse_complex_literal(text: str) -> ComplexRational:
    """Parse a standalone complex literal such as '1/2+1/4i' or '-2i'.  It is
    one literal, not DSL source, so a '#' is a bad character, not a comment."""
    if "#" in text:
        raise _error_at(text, text.index("#"), "unexpected character '#'")
    tokens = _tokens(text)
    try:
        a, b, d, i = _complex(tokens, 0)
        if tokens[i]:
            raise _expected("'end'", tokens, i)
    except _Fail as fail:
        raise _syntax_error(text, *fail.args) from None
    return _make(a, b, d)


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


def _number(at: str, spec) -> tuple:
    """(a, b, d): (a + ib)/d is {"re": ..., "im": ...} spec, read as at.re, at.im."""
    p, q = _field(at + ".re", lambda: _rational_parts(spec["re"]))
    r, s = _field(at + ".im", lambda: _rational_parts(spec["im"]))
    return p * s, r * q, q * s


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
            "re": _rational_str(c._a, c._d),
            "im": _rational_str(c._b, c._d),
            "mon": _mon_to_json(mon),
        }
        for mon in sorted(f.terms)
        for c in (f.terms[mon],)
    ]


def _sums_from_json(spec, n: int, j: int) -> dict:
    """_add_term's sums of dw^j over n generators from its {"re", "im", "mon"} terms."""
    where = f"equations[{j - 1}]"
    terms: Dict[tuple, tuple] = {}
    for t, term in enumerate(_field(where, lambda: _array(spec))):
        at = f"{where}[{t}]"
        a, b, d = _number(at, term)
        mon = _field(at + ".mon", lambda: _mon_from_json(term["mon"], n))
        if len(mon) != 2:
            raise BadParams(f"{at}.mon: dw{j} must be a 2-form, got degree {len(mon)}")
        _add_term(terms, mon, a, b, d)
    return terms


def structure_to_json(se: StructureEquations) -> dict:
    return {"n": se.n, "equations": [form_to_json(df) for df in se.d_of]}


def structure_from_json(spec) -> StructureEquations:
    """A field that is missing or does not read raises BadParams naming it:
    n, equations, equations[j], or equations[j][t].re, .im or .mon."""
    n = _field("n", lambda: _index(spec["n"]))
    equations = _field("equations", lambda: _array(spec["equations"]))
    sums = [_sums_from_json(e, n, j) for j, e in enumerate(equations, start=1)]
    return StructureEquations._of_sums(n, sums)


def real_form_to_json(f: Form) -> list:
    out = []
    for mon in sorted(f.terms):
        c = f.terms[mon]
        out.append({"coef": str(c.real_part()), "mon": list(mon)})
    return out


def real_form_from_json(spec) -> Form:
    terms: Dict[tuple, tuple] = {}
    for term in spec:
        p, q = _rational_parts(term["coef"])
        _add_term(terms, [_index(r) for r in term["mon"]], p, 0, q)
    return Form(len(next(iter(terms))) if terms else None,
                {mon: _make(a, b, d) for mon, (a, b, d) in terms.items()})


def metric_to_json(metric: Metric) -> dict:
    """{"n": n, "X": rows of {"re", "im"} rational strings}, read off the ints."""
    den = metric._den
    return {
        "n": metric.n,
        "X": [
            [{"re": _rational_str(a, den), "im": _rational_str(b, den)} for a, b in row]
            for row in metric._num
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
