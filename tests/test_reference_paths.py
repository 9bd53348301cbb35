"""Each collapsed computation path against the slower definition it replaced.

partial/dbar are single derivations over per-structure tables, classify
reads every Gauduchon quantity off del Omega, dbar Omega and ddbar Omega by
the Leibniz split, and omega_power is one loop of the int wedge kernel
(their references are the wedged powers), the search screens samples
with the targets' exact predicates, L* and d* are contractions with
(-iX)^-1 in the structure's own coframe, the Lee form is the contraction
Lambda(d Omega) and det(-iX) is the last of the Sylvester minors; the
references here are the direct definitions, written out in the tests, with
the adjoints taken in the LDL* unitary coframe, whose monomials are
orthogonal, the Lee form solved from theta ^ Omega^{n-1} = d(Omega^{n-1})
and the determinant taken from the LDL* pivots.  The Sasakian product formulas
and the LDL* pivots are plain-int arithmetic; their references are the
Fraction formulas and the Fraction-pivot LDL* they replaced.  wedge, the
derivations, the Lefschetz contraction and the metric minors are
Gaussian-integer kernels; their references are the per-term
ComplexRational loops and the LDL* positivity test they replaced.  The
search's sampler draws from getrandbits, the Gauduchon numerator is read
off the top coefficient's ints and the closing move compares the bumped
scalar with the base; their references are the randint/choice sampler,
the ComplexRational product and the -base/slope rule they replaced.  The
metric reader reads JSON in one pass into the metric's ints; its reference
is Metric of the ComplexRational cells.  The DSL reader is one findall
tokenizer and a grammar that reads its coefficients and sums as ints, and
the JSON structure reader sums in the same ints; their references are the
token-tuple parser they replaced (RefParser, whose Forms StructureEquations
converts), the regex that matched blanks and comments on their own, and
StructureEquations of the Forms.  Metric minors are read by their ids in the
per-n minor plan; their reference is the (rows, cols)-keyed Laplace
recursion the plan replaced (tuple_minor_ints), and the Lee contraction
table over |det X| is checked against linalg.mat_inverse.
"""

import dataclasses
import importlib.util
import itertools
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gauduchon import catalog, dsl, forms, hermitian, linalg, sasakian, search, structures
from gauduchon.errors import (BadK, BadParams, ClaimFailure, DimensionMismatch, DslSyntaxError,
                              GauduchonError, JacobiViolation, NotIntegrable, NotPositive,
                              ensure)
from gauduchon.forms import Form, wedge
from gauduchon.hermitian import (
    CompiledMaps,
    balanced_defect,
    classify,
    gamma_numerator,
    gamma_scalar,
    gauduchon_form,
    lee_form,
    omega_power,
)
from gauduchon.scalars import I, ONE, ZERO, ComplexRational, _to_ints, cr
from gauduchon.search import Target, find_metric, sample_positive_metric
from gauduchon.structures import RealLieAlgebra, StructureEquations
from gauduchon.verify import _standard_entries

from conftest import GauduchonForms, UnitaryFrame, rand_coeff, rand_form

BENCH = Path(__file__).resolve().parent.parent / "bench"


def every_entry():
    """One structure per catalog family, plus a circle-bundle extension."""
    entries = list(_standard_entries())
    entries.append(("solvable5-bundle",
                    sasakian.bundle_extend(catalog.solvable5_contact()).structure))
    return entries


def split_by_bidegree(se, f, dp, dq):
    """The definition of partial (dp=1) and dbar (dq=1) through the full d."""
    out = Form.zero()
    for (p, q), part in f.bidegree_parts().items():
        out = out + se.d(part).component(p + dp, q + dq)
    return out


class TestSplitDifferentials:
    @pytest.mark.parametrize("name, se", every_entry())
    def test_partial_and_dbar_match_the_split_of_d(self, name, se, rng):
        for _ in range(25):
            f = rand_form(rng, se.n, rng.randint(0, 2 * se.n - 1), terms=4)
            assert se.partial(f) == split_by_bidegree(se, f, 1, 0), name
            assert se.dbar(f) == split_by_bidegree(se, f, 0, 1), name
            assert se.ddbar(f) == split_by_bidegree(
                se, split_by_bidegree(se, f, 0, 1), 1, 0
            ), name


CLASSIFY_ENTRIES = [
    ("jt(1/2)", catalog.jt(Fraction(1, 2))),
    ("nonnilpotent6(1,-)", catalog.nonnilpotent6(1, -1)),
    ("iwasawa", catalog.iwasawa()),
    ("abelian(3)", catalog.abelian(3)),
    ("family8(1,2)", catalog.family8(1, 2)),
    ("family8(0,0)", catalog.family8(0, 0)),
    ("abelian(4)", catalog.abelian(4)),
]


class TestClassifyOnePass:
    @pytest.mark.parametrize("name, se", CLASSIFY_ENTRIES)
    def test_matches_the_single_quantity_functions(self, name, se):
        rng = random.Random(name)
        n = se.n
        metrics = [hermitian.Metric.diagonal(n)]
        metrics += [sample_positive_metric(rng, n) for _ in range(3)]
        for metric in metrics:
            report = classify(metric, se)
            omega = metric.fundamental_form()
            assert report.kahler == se.d(omega).is_zero
            assert report.skt == se.ddbar(omega).is_zero
            assert report.astheno == se.ddbar(omega_power(omega, n - 2)).is_zero
            assert report.balanced == se.d(omega_power(omega, n - 1)).is_zero
            for k in range(1, n):
                assert report.gauduchon[k] == gauduchon_form(metric, k, se).is_zero
                assert report.gamma[k] == gamma_scalar(metric, k, se)
            assert report.lee == lee_form(metric, se)

    def test_gauduchon_form_is_the_wedge_of_powers(self, rng):
        for se in (catalog.jt(Fraction(1, 3)), catalog.family8(-1, 2)):
            n = se.n
            metric = sample_positive_metric(rng, n)
            omega = metric.fundamental_form()
            for k in range(1, n):
                ref = wedge(se.ddbar(omega_power(omega, k)), omega_power(omega, n - k - 1))
                assert gauduchon_form(metric, k, se) == ref


def non_unimodular3():
    """dw1 = w1^w3: not unimodular, so gamma_{n-1} need not vanish."""
    return StructureEquations(3, [Form(2, {(1, 5): ComplexRational(1)}), Form.zero(), Form.zero()])


SCREEN_ENTRIES = [
    ("jt(1/2)", catalog.jt(Fraction(1, 2))),
    ("nonnilpotent6(0,+)", catalog.nonnilpotent6(0, 1)),
    ("non-unimodular", non_unimodular3()),
    ("family8(1,2)", catalog.family8(1, 2)),
    ("family8(-1,0)", catalog.family8(-1, 0)),
    ("abelian(3)", catalog.abelian(3)),
]


def every_target(n):
    for k in range(1, n):
        yield from (Target("gamma_negative", k), Target("gamma_positive", k),
                    Target("gauduchon_zero", k))
    yield from (Target("skt"), Target("balanced"))


def target_by_definition(se, target, metric):
    """The target's defining condition, through the public functions."""
    omega = metric.fundamental_form()
    if target.kind == "gamma_negative":
        return gamma_scalar(metric, target.k, se) < 0
    if target.kind == "gamma_positive":
        return gamma_scalar(metric, target.k, se) > 0
    if target.kind == "gauduchon_zero":
        return gauduchon_form(metric, target.k, se).is_zero
    if target.kind == "skt":
        return se.ddbar(omega).is_zero
    return se.d(omega_power(omega, se.n - 1)).is_zero


class TestExactScreen:
    @pytest.mark.parametrize("name, se", SCREEN_ENTRIES)
    def test_holds_agrees_with_verify_for_every_target(self, name, se):
        rng = random.Random(name)
        metrics = [hermitian.Metric.diagonal(se.n)]
        metrics += [sample_positive_metric(rng, se.n) for _ in range(3)]
        for metric in metrics:
            for target in every_target(se.n):
                expected = target_by_definition(se, target, metric)
                assert search._holds(se, target, metric) == expected, (name, target)
                assert search._verify(se, target, metric) == expected, (name, target)

    def test_verify_rejects_a_metric_that_is_not_positive(self):
        se = catalog.jt(1)
        metric = hermitian.Metric.diagonal(3, [1, -1, 1])
        assert search._holds(se, Target("gauduchon_zero", 2), metric)
        assert not search._verify(se, Target("gauduchon_zero", 2), metric)

    def test_non_real_top_fails_the_gamma_targets(self, monkeypatch):
        se, metric = catalog.family8(1, 0), hermitian.Metric.diagonal(4)
        monkeypatch.setattr(CompiledMaps, "top_ints", lambda maps, m, k: (1, 1, 1))
        for target in every_target(4):
            if target.k is not None:
                with pytest.raises(ClaimFailure, match="not real"):
                    search._holds(se, target, metric)

    def test_top_index_is_exercised_off_zero(self):
        se = non_unimodular3()
        metric = sample_positive_metric(random.Random(5), 3)
        assert gamma_numerator(metric, 2, se) != 0

    def test_search_runs_without_coefficient_maps(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the search must stay in exact arithmetic")

        monkeypatch.setattr(Form, "map_coefficients", refuse)
        monkeypatch.setattr(StructureEquations, "map_coefficients", refuse)
        se = catalog.family8(1, 0)
        for kind in ("gamma_negative", "gamma_positive"):
            out = find_metric(se, Target(kind, 1), budget=400, seed=9)
            assert out.status == "witness", kind
        for se, target in ((catalog.iwasawa(), "skt"), (catalog.jt(1), "balanced")):
            out = find_metric(se, Target(target), budget=20, seed=2)
            assert out.status == "exhausted", target


def adjoint_by_sweep(frame, f):
    """The adjoint of L from its definition: <A f, m> = <f, L m> for every monomial m."""
    if f.is_zero or f.degree < 2:
        return Form.zero()
    g = frame.to_unitary(f)
    deg = f.degree - 2
    out = {}
    for mon in itertools.combinations(range(1, 2 * len(frame.diag) + 1), deg):
        val = frame.inner_unitary(g, wedge(frame.omega, Form(deg, {mon: ONE})))
        if val:
            out[mon] = val / frame.weight(mon)
    return frame.from_unitary(Form(deg, out))


def codifferential_in_unitary_frame(metric, se):
    """J(d* Omega) with d* read off orthogonal unitary monomials, one generator at a time."""
    frame = UnitaryFrame(metric)
    omega_u = frame.to_unitary(metric.fundamental_form())
    dstar = {}
    for r in range(1, 2 * se.n + 1):
        dm_u = frame.to_unitary(se.d(frame.from_unitary(Form.gen(r))))
        val = frame.inner_unitary(omega_u, dm_u)
        if val:
            dstar[(r,)] = val / frame.weight((r,))
    dstar = frame.from_unitary(Form(1, dstar))
    return Form(1, {mon: c * (-I if mon[0] & 1 else I) for mon, c in dstar.terms.items()})


class TestLefschetzContraction:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_adjoint_matches_the_sweep(self, n):
        rng = random.Random(n)
        metric = sample_positive_metric(rng, n)
        lef = hermitian.Lefschetz(metric)
        frame = UnitaryFrame(metric)
        forms_seen = [lef.omega, wedge(lef.omega, lef.omega)]
        for degree in range(2 * n + 1):
            forms_seen += [rand_form(rng, n, degree, terms=3) for _ in range(6)]
        for f in forms_seen:
            assert lef.adjoint(f) == adjoint_by_sweep(frame, f), f

    @pytest.mark.parametrize("name, se", list(_standard_entries()))
    def test_codifferential_matches_the_unitary_frame(self, name, se):
        rng = random.Random(name)
        for _ in range(3):
            metric = sample_positive_metric(rng, se.n)
            assert hermitian.lee_form_via_codifferential(metric, se) == (
                codifferential_in_unitary_frame(metric, se)
            ), name


def lee_by_linear_system(metric, se):
    """theta with theta ^ Omega^{n-1} = d(Omega^{n-1}): one exact 2n x 2n solve."""
    n = se.n
    top = omega_power(metric.fundamental_form(), n - 1)
    d_top = se.d(top)
    ranks = range(1, 2 * n + 1)
    holes = [tuple(r for r in ranks if r != hole) for hole in ranks]  # the (2n-1)-monomials
    images = [wedge(Form.gen(r), top) for r in ranks]
    matrix = [[image.terms.get(mon, ZERO) for image in images] for mon in holes]
    rhs = [d_top.terms.get(mon, ZERO) for mon in holes]
    return Form(1, {(r,): c for r, c in zip(ranks, linalg.solve(matrix, rhs))})


def lee_entries():
    """Every standard entry, low and high n, non-unimodular algebras and bundles."""
    entries = list(_standard_entries())
    entries += [("abelian(1)", catalog.abelian(1)), ("abelian(2)", catalog.abelian(2))]
    entries.append(("non-unimodular3", non_unimodular3()))
    entries.append(("non-unimodular1",
                    StructureEquations(1, [Form(2, {(1, 2): ComplexRational(Fraction(1, 2))})])))
    for name, contact in (("solvable5", catalog.solvable5_contact()),
                          ("heisenberg5", catalog.heisenberg5_contact())):
        entries.append((f"{name}-bundle", sasakian.bundle_extend(contact).structure))
    entries.append(("bench/n5.dsl", dsl.parse_structure((BENCH / "n5.dsl").read_text())))
    return entries


class TestLeeContraction:
    @pytest.mark.parametrize("name, se", lee_entries())
    def test_contraction_matches_the_linear_system(self, name, se):
        rng = random.Random(name)
        metrics = [hermitian.Metric.diagonal(se.n)]
        metrics += [sample_positive_metric(rng, se.n) for _ in range(2 if se.n > 4 else 4)]
        for metric in metrics:
            theta = lee_by_linear_system(metric, se)
            assert lee_form(metric, se) == theta, name
            report = classify(metric, se)
            assert report.lee == theta, name
            assert report.kahler == se.d(metric.fundamental_form()).is_zero, name
            balanced = se.d(omega_power(metric.fundamental_form(), se.n - 1)).is_zero
            assert report.balanced == balanced == theta.is_zero, name
            assert search._holds(se, Target("balanced"), metric) == balanced, name

    def test_entries_cover_both_verdicts(self):
        verdicts = {lee_form(hermitian.Metric.diagonal(se.n), se).is_zero
                    for _, se in lee_entries()}
        assert verdicts == {True, False}
        kahler = {classify(hermitian.Metric.diagonal(se.n), se).kahler for _, se in lee_entries()}
        assert kahler == {True, False}


def spell(rng, value):
    """value as one of the JSON rationals the metric reader takes: a JSON
    integer, an unreduced "p/q", a decimal string, "-0" or the plain string."""
    p, q = value.numerator, value.denominator
    kind = rng.randrange(5)
    if kind == 0 and q == 1:
        return p
    if kind == 1:
        f = rng.randint(2, 6)
        return f"{p * f}/{q * f}"
    if kind == 2 and 10**6 % q == 0:
        digits = f"{abs(p) * (10**6 // q):07d}"
        return ("-" if p < 0 else "") + digits[:-6] + "." + digits[-6:]
    if kind == 3 and p == 0:
        return "-0"
    return str(value)


class TestMetricReader:
    """The one-pass reader stores what Metric() of the ComplexRational cells stores."""

    @staticmethod
    def assert_reads_as_the_cells(cells):
        metric = dsl.metric_from_json({"n": len(cells), "X": [
            [{"re": re, "im": im} for re, im in row] for row in cells]})
        ref = hermitian.Metric([[ComplexRational(re, im) for re, im in row] for row in cells])
        assert (metric._num, metric._den) == (ref._num, ref._den)

    @given(st.integers(1, 5), st.integers(0, 2**32))
    def test_sampled_metrics(self, n, seed):
        rng = random.Random(seed)
        value = lambda: Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 5, 7, 8, 10)))
        x = [[None] * n for _ in range(n)]
        for j in range(n):  # x_kj = -conj(x_jk), so re x_jj = 0
            for k in range(j, n):
                re, im = (Fraction(0) if j == k else value()), value()
                x[j][k], x[k][j] = (re, im), (-re, im)
        self.assert_reads_as_the_cells([[(spell(rng, re), spell(rng, im)) for re, im in row]
                                        for row in x])

    def test_every_spelling(self):
        self.assert_reads_as_the_cells([[(0, 3), ("6/4", "-0.25")],
                                        [("-6/4", "-0.25"), ("-0", "0.1")]])
        self.assert_reads_as_the_cells([[("-0", "10/4")]])


# the tokenizer the one-match-per-token regex replaced: blanks and comments
# were matches of their own, with no group
OLD_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z]+)|(?P<punct>[-+*^:()/;~\n])"
                       r"|[ \t\r]+|#[^\n]*|(?P<bad>.)", re.DOTALL)


def tokens_by_old_regex(text):
    """The text of every token up to the first bad character, then the bad
    character's offset, or None."""
    tokens = []
    for m in OLD_TOKEN.finditer(text):
        if m.lastgroup == "bad":
            return tokens, m.start()
        if m.lastgroup is not None:
            tokens.append(m.group())
    return tokens, None


class TestTokenizer:
    """The findall tokenizer yields the old regex's tokens, then "" for the
    end; a bad character is a token of its own, which the read reports."""

    @given(st.text(alphabet=" \t\r\n#;:^*+-/()~w0123456789dwni@\x0b", max_size=60))
    @example("  # lead\n n: 2 # tail\r\ndw1: 0;dw2:0   ")
    def test_tokens_match_the_old_regex(self, text):
        ref, bad = tokens_by_old_regex(text)
        got = dsl._tokens(text)
        if bad is None:
            assert got == ref + [""], text
            return
        assert got[:len(ref) + 1] == ref + [text[bad]], text
        with pytest.raises(DslSyntaxError) as info:
            dsl.parse_structure(text)
        line_start = text.rfind("\n", 0, bad) + 1
        assert (info.value.line, info.value.col, info.value.message) == (
            text.count("\n", 0, bad) + 1, bad - line_start + 1,
            f"unexpected character {text[bad]!r}")


# The token-tuple parser that the findall tokenizer and the int grammar
# replaced: a (kind, text, offset, int value) tuple per token, a Fraction and
# a ComplexRational per coefficient and a Form per differential, which
# StructureEquations(n, d_of) then converts to its int rows.
REF_TOKEN = re.compile(
    r"(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z]+)|(?P<punct>[-+*^:()/;~\n])|(?P<bad>.))"
    r"[ \t\r]*(?:#[^\n]*)?",
    re.DOTALL,
)
REF_LEAD = re.compile(r"[ \t\r]*(?:#[^\n]*)?")


def ref_add_term(terms, ranks, coeff):
    sorted_ = forms.sort_ranks(ranks)
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


class RefParser:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        for m in REF_TOKEN.finditer(text, REF_LEAD.match(text).end()):
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

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            self.fail(tok[2], f"expected {kind!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def fail(self, offset, msg):
        line_start = self.text.rfind("\n", 0, offset) + 1
        raise DslSyntaxError(self.text.count("\n", 0, offset) + 1, offset - line_start + 1, msg)

    def parse_source(self):
        n = None
        equations = {}
        offsets = {}
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
        missing = list(itertools.islice((j for j in range(1, n + 1) if j not in equations), 9))
        if missing:
            names = ", ".join(map(str, missing[:8])) + (", ..." if len(missing) > 8 else "")
            raise DslSyntaxError(1, 1, f"missing equations for dw[{names}]")
        for j, form in equations.items():
            if form and form.degree != 2:
                self.fail(offsets[j], f"dw{j} must be a 2-form, got degree {form.degree}")
        return n, equations

    def parse_expr(self, n):
        kind, text = self.peek()[:2]
        if kind == "int" and text == "0" and self.tokens[self.pos + 1][0] in (";", "end"):
            self.take()
            return Form.zero()
        sign = 1
        if kind == "-":
            self.take()
            sign = -1
        terms = {}
        ref_add_term(terms, *self.parse_term(n, sign))
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.take()[0] == "+" else -1
            offset = self.peek()[2]
            ranks, coeff = self.parse_term(n, sign)
            try:
                ref_add_term(terms, ranks, coeff)
            except BadParams as exc:
                self.fail(offset, str(exc))
        return Form(len(next(iter(terms))) if terms else None, terms)

    def parse_term(self, n, sign):
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

    def parse_mono(self, n):
        ranks = [self.parse_gen(n)]
        while self.peek()[0] == "^":
            self.take()
            ranks.append(self.parse_gen(n))
        return ranks

    def parse_gen(self, n):
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
        return forms.conj_rank(j) if conj else forms.holo_rank(j)

    def _take_bare_i(self):
        if self.peek()[:2] == ("name", "i"):
            self.take()
            return True
        return False

    def parse_complex(self):
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

    def parse_signed_rational(self):
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


def ref_parse_structure(text):
    n, equations = RefParser(text).parse_source()
    return StructureEquations(n, [equations[j] for j in range(1, n + 1)])


def ref_parse_complex_literal(text):
    parser = RefParser(text)
    value = parser.parse_complex()
    parser.take("end")
    return value


def read_outcome(parse, text):
    """parse(text), or what it raised: a DslSyntaxError as (line, col,
    message), any other library error as its class."""
    try:
        return parse(text)
    except DslSyntaxError as exc:
        return exc.line, exc.col, exc.message
    except GauduchonError as exc:
        return type(exc)


def assert_reads_as_the_reference(text):
    """The reader and the reference read text alike, and a structure they
    read has the int tables that StructureEquations builds from the
    reference's Forms; returns the outcome."""
    got, ref = read_outcome(dsl.parse_structure, text), read_outcome(ref_parse_structure, text)
    assert got == ref, text
    if isinstance(ref, StructureEquations):
        assert (got._d_rank, got._del_rank, got._dbar_rank) == (
            ref._d_rank, ref._del_rank, ref._dbar_rank), text
    return ref


@st.composite
def complex_spellings(draw, bracketed):
    """A coefficient literal; unbracketed, it starts with INT."""
    num = st.integers(0, 12).map(str)
    rat = st.one_of(num, st.builds("{}/{}".format, num, st.integers(1, 9)))
    shape = draw(st.one_of(rat, st.builds("{}i".format, rat), st.builds(
        "{}{}{}i".format, rat, st.sampled_from("+-"), st.one_of(st.just(""), rat))))
    if bracketed:  # a leading '-', or a bare i or -i
        return draw(st.sampled_from(["", "-"])) + shape if draw(st.booleans()) else (
            draw(st.sampled_from(["i", "-i"])))
    return shape


@st.composite
def dsl_texts(draw):
    """DSL source from the grammar: dw^j = 0 for j <= m, the other dw^j sums of
    terms in w1..wm and their conjugates (so Jacobi holds), now and then with
    a (0,2) term; every coefficient spelling, reversed, repeated, cancelling and
    w1^w1 monomials, comments, CR and both separators."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n - 1))
    blank = st.sampled_from(["", "", " ", "\t", "  "])

    def gen(k, conj):
        return f"{'~' if conj else ''}{draw(blank)}w{k}"

    def term(low):
        a, b = draw(st.integers(1, low)), draw(st.integers(1, low))
        # a (0,2) term, ~w^~w, is the rare one
        ca, cb = draw(st.sampled_from([(0, 1), (1, 0), (0, 0), (0, 1), (1, 0), (1, 1)]))
        mono = gen(a, ca) + draw(blank) + "^" + draw(blank) + gen(b, cb)
        coef = draw(st.sampled_from(["", "bracket", "bare"]))
        if coef == "bracket":
            return f"({draw(complex_spellings(True))}){draw(blank)}*{draw(blank)}{mono}"
        if coef == "bare":
            return f"{draw(complex_spellings(False))}*{mono}"
        return mono

    statements = {}
    for j in range(1, n + 1):
        if j <= m:
            expr = draw(st.sampled_from(["0", "w1^~w1 - w1^~w1", "0*w1^w1", "w1^w1"]))
        else:
            terms = [term(m) for _ in range(draw(st.integers(1, 4)))]
            if draw(st.booleans()):  # the same term again, added or taken away
                terms.append(draw(st.sampled_from(terms)))
            signs = [draw(st.sampled_from(["-", ""]))] + [
                draw(st.sampled_from([" + ", " - ", "+", "-"])) for _ in terms[1:]]
            expr = "".join(sign + t for sign, t in zip(signs, terms))
        statements[j] = f"dw{j}:{draw(blank)}{expr}"
    order = draw(st.permutations(list(statements)))
    parts = [f"n:{draw(blank)}{n}"] + [statements[j] for j in order]
    separators = st.sampled_from([";", "\n", "\r\n", " ; ", "  # note\n", ";;\n", "\t\n\n"])
    text = draw(st.sampled_from(["", "# header\n", "  "])) + parts[0]
    for part in parts[1:]:
        text += draw(separators) + part
    return text + draw(st.sampled_from(["", "\n", "  # end", ";"]))


# tokens an edit puts in, among them a bad character, a comment and an INT
# beyond the interpreter's int-string limit
EDIT_TOKENS = ["n", "dw", "w", "~", "i", "x", "0", "1", "3", "(", ")", "*", "^", "+", "-", "/",
               ":", ";", "\n", "@", " # c\n", "9" * 4400]


class TestReferenceParser:
    """The findall tokenizer and int grammar read text as the token-tuple
    parser did: equal structures and int tables, the same DslSyntaxError
    (line, column, message) or the same structure error."""

    @settings(max_examples=200, deadline=None)
    @given(dsl_texts())
    @example("n:3; dw1:0; dw2:0; dw3: ~w2^w1 + w1^~w1 - (1/2-3/4i)*w2^~w1 + 2-3/4i*~w1^w1")
    @example("n:2\r\ndw1: 0 # c\r\ndw2: -(i)*w1^w1 + (-i)*w1^~w1 + 2/4*w1^~w1")
    def test_valid_texts(self, text):
        # Jacobi holds on every drawn text, so only a (0,2) term fails it
        ref = assert_reads_as_the_reference(text)
        assert isinstance(ref, StructureEquations) or ref is NotIntegrable

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=" \t\r\n#;:^*+-/()~w0123456789dwni@\x0b", max_size=60))
    def test_character_texts(self, text):
        assert_reads_as_the_reference(text)

    @settings(max_examples=250, deadline=None)
    @given(dsl_texts(), st.data())
    def test_one_token_edits(self, text, data):
        # each token's span without the blanks after it, then the end's
        spans = [(m.start(), m.end(m.lastgroup))
                 for m in REF_TOKEN.finditer(text, REF_LEAD.match(text).end())]
        at, end = data.draw(st.sampled_from(spans + [(len(text), len(text))]), label="token")
        edit = data.draw(st.sampled_from(["delete", "replace", "insert"]), label="edit")
        new = "" if edit == "delete" else data.draw(st.sampled_from(EDIT_TOKENS), label="new")
        if edit == "insert":
            end = at
        assert_reads_as_the_reference(text[:at] + new + text[end:])

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=" \t\n0123456789/+-i()*#x", max_size=12))
    @example("1#+5i")
    def test_complex_literals(self, text):
        got = read_outcome(dsl.parse_complex_literal, text)
        if "#" in text:  # one literal, in which '#' starts no comment
            at = text.index("#")
            assert got == (text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at),
                           "unexpected character '#'")
        else:
            assert got == read_outcome(ref_parse_complex_literal, text), text


def compiled_entries():
    """Every catalog family, abelian(1..5), both non-unimodular algebras, both
    circle-bundle extensions and the n = 5 bench structure."""
    return lee_entries() + [("abelian(4)", catalog.abelian(4)), ("abelian(5)", catalog.abelian(5))]


def compiled_top(maps, metric, k):
    """The k-th Gauduchon top coefficient, off CompiledMaps.top_ints."""
    return hermitian._make(*maps.top_ints(metric, k))


class TestCompiledMaps:
    @pytest.mark.parametrize("name, se", compiled_entries())
    def test_every_predicate_matches_the_wedged_forms(self, name, se):
        rng = random.Random(name)
        n = se.n
        maps = CompiledMaps.of(se)
        metrics = [hermitian.Metric.diagonal(n, range(1, n + 1))]
        metrics += [sample_positive_metric(rng, n) for _ in range(2 if n > 4 else 4)]
        for metric in metrics:
            ref = GauduchonForms(metric, se)
            report = classify(metric, se)
            for k in range(1, n):
                top = compiled_top(maps, metric, k)
                assert top == ref.top(k), (name, k)
                ensure(((I / 2) * (-I) ** n * top).im == 0, f"{name}: gamma{k} top is not real")
                assert gauduchon_form(metric, k, se) == ref.form(k), (name, k)
                assert gamma_numerator(metric, k, se) == ref.numerator(k), (name, k)
                assert gamma_scalar(metric, k, se) == report.gamma[k] == ref.gamma(k), (name, k)
                assert report.gauduchon[k] == ref.form(k).is_zero, (name, k)
            for p in (1, 2)[:n - 1]:  # the compiled maps; every top reads these two
                assert maps.ddbar_power(metric, p) == ref.ddbar(p), (name, p)
            assert report.astheno == (ref.ddbar(n - 2).is_zero if n >= 3 else True), name
            d_top = se.d(ref.power(n - 1))
            assert maps.d_top(metric) == balanced_defect(metric, se) == d_top, name
            assert report.balanced == d_top.is_zero, name
            for target in every_target(n):
                assert search._holds(se, target, metric) == target_by_reference(
                    se, target, metric, ref), (name, target)

    def test_entries_exercise_nonzero_maps(self):
        sizes = {name: sum(map(len, CompiledMaps.of(se)._ddbar_map(1)[1].values()))
                 for name, se in compiled_entries() if se.n >= 3}
        assert sizes["abelian(5)"] == 0
        assert sizes["family8(1,0)"] > 0 and sizes["bench/n5.dsl"] > 0

    def test_maps_are_cached_on_the_structure(self):
        se = catalog.family8(1, 2)
        maps = CompiledMaps.of(se)
        gamma_scalar(hermitian.Metric.diagonal(4), 1, se)
        assert CompiledMaps.of(se) is maps
        assert CompiledMaps.of(catalog.family8(1, 2)) is not maps
        assert maps._ddbar_map(2) is maps._ddbar_map(2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_minors_match_elimination(self, n):
        metric = sample_positive_metric(random.Random(n), n)
        x, memo = metric.x, {}
        for rows, cols in index_pairs(n):
            assert metric.minor(rows, cols) == ref_minor(x, rows, cols, memo)


def family2n(coeffs):
    """dw_n = sum_j a_j w^j ^ ~w^j over j < n, every other dw_j = 0 (n = len + 1)."""
    n = len(coeffs) + 1
    last = Form(2, {(2 * j + 1, 2 * j + 2): cr(a) for j, a in enumerate(coeffs)})
    return StructureEquations(n, [Form.zero()] * (n - 1) + [last])


def dense_two_step(n, twist=0):
    """dw_{n-1} = sum_{a,b <= n-2} w^a ^ ~w^b and dw_n the same sum with the
    coefficients 1 + twist (a - b), every other dw_j = 0.  With twist 0 both
    are u ^ ~u for u = w^1 + ... + w^{n-2}, so every metric is SKT."""
    last, dense = Form.zero(), Form.zero()
    for a in range(n - 2):
        for b in range(n - 2):
            mon = (2 * a + 1, 2 * b + 2)  # Form.monomial sorts it, with its sign
            dense = dense + Form.monomial(mon)
            last = last + Form.monomial(mon, cr(1 + twist * (a - b)))
    return StructureEquations(n, [Form.zero()] * (n - 2) + [dense, last])


class TestTwoMaps:
    """Every Gauduchon top from the p = 1 and p = 2 maps (hermitian._leibniz)."""

    def test_weights_are_the_leibniz_coefficients(self):
        # top_k = k A + k(k-1) B with top_1 = A and top_2 = 2A + 2B
        for k in range(1, 9):
            w = dict(hermitian._leibniz(k, k + 1))
            w1, w2 = w.get(1, 0), w.get(2, 0)
            assert w1 + 2 * w2 == k and 2 * w2 == k * (k - 1), k
            assert 0 not in w.values() and list(w) == sorted(w), k  # no pass with weight 0
        for k, n in ((0, 4), (4, 4), (2, 2)):  # k outside 1..n-1
            with pytest.raises(BadK):
                hermitian._leibniz(k, n)

    def test_only_the_p1_and_p2_maps_are_compiled(self):
        structures = [catalog.family8(1, 2), dsl.parse_structure((BENCH / "n5.dsl").read_text())]
        for se in structures:
            n, maps = se.n, CompiledMaps.of(se)
            metric = sample_positive_metric(random.Random(n), n)
            for k in range(1, n):
                compiled_top(maps, metric, k)
                maps.rays(metric, k)
                gamma_scalar(metric, k, se)
            assert set(maps._ddbar) == set(maps._rays) == {1, 2}, n  # no per-k compile
            with pytest.raises(BadK):
                maps.ddbar_power(metric, 3)

    def test_unimodular_gamma_k_is_proportional_to_gamma_1(self):
        # gamma_{n-1} = 0 on unimodular algebras, so (n-2) gamma_k = k(n-k-1) gamma_1
        def failures(se, metric):
            n, gamma1 = se.n, gamma_scalar(metric, 1, se)
            return [k for k in range(2, n)
                    if (n - 2) * gamma_scalar(metric, k, se) != k * (n - k - 1) * gamma1]

        structures = [
            ("bench/n5.dsl", dsl.parse_structure((BENCH / "n5.dsl").read_text())),
            ("family2n(5)", family2n([ComplexRational(1, 2), -2, ComplexRational(-1, 1), 3])),
            ("family2n(6)", family2n([ComplexRational(-3, 1), 1, ComplexRational(2, -1),
                                      Fraction(-1, 2), ComplexRational(0, 1)])),
            ("family2n(7)", family2n([1, ComplexRational(-1, 2), -1, ComplexRational(3, 1),
                                      Fraction(1, 3), ComplexRational(-2, -1)])),
            ("dense(5)", dense_two_step(5)),
            ("dense(5, twist 1)", dense_two_step(5, 1)),
        ]
        for name, se in structures:
            n = se.n
            assert se.is_unimodular(), name
            rng = random.Random(name)
            metrics = [hermitian.Metric.diagonal(n, range(1, n + 1)),
                       sample_positive_metric(rng, n), sample_positive_metric(rng, n)]
            # not 0 = 0, but on the SKT dense(5), where every gamma_k vanishes
            assert any(gamma_scalar(metric, 1, se) for metric in metrics) != (
                name == "dense(5)"), name
            for metric in metrics:
                assert failures(se, metric) == [], name
        se = non_unimodular3()
        metric = sample_positive_metric(random.Random(5), 3)
        assert not se.is_unimodular() and failures(se, metric) == [2]


def ray_value(den, t0, t1, t2, t):
    """(T0 + T1 t + T2 t^2)/den for Gaussian-int pairs (re, im)."""
    re, im = (a + b * t + c * t * t for a, b, c in zip(t0, t1, t2))
    return ComplexRational(Fraction(re) / den, Fraction(im) / den)


class TestRays:
    """CompiledMaps.rays against top at the bumped metrics, and the search's
    ray closing against close_scalar_zero on gamma_numerator."""

    @pytest.mark.parametrize("name, se", compiled_entries())
    def test_ray_polynomials_match_the_bumped_tops(self, name, se):
        rng = random.Random(name)
        n = se.n
        maps = CompiledMaps.of(se)
        for metric in (hermitian.Metric.diagonal(n, range(1, n + 1)),
                       sample_positive_metric(rng, n)):
            for k in range(1, n):
                den, t0, rays = maps.rays(metric, k)
                assert len(rays) == n
                assert ray_value(den, t0, (0, 0), (0, 0), 0) == compiled_top(maps, metric, k), (
                    name, k)
                for j, (t1, t2) in enumerate(rays):
                    for t in (1, 2, Fraction(1, 3), Fraction(7, 2)):
                        bumped = metric.bump_diagonal(j, t)
                        want = compiled_top(maps, bumped, k)
                        assert ray_value(den, t0, t1, t2, t) == want, (name, k, j, t)

    def test_entries_exercise_every_ray_term(self):
        # a quadratic ray (the solvable5 bundle along x_33), and linear terms
        # from the entries' minors and from the complement's on family8
        entries = dict(compiled_entries())
        metric = sample_positive_metric(random.Random(2), 3)
        _, _, rays = CompiledMaps.of(entries["solvable5-bundle"]).rays(metric, 1)
        assert [t2 != (0, 0) for _, t2 in rays] == [False, False, True]
        metric = sample_positive_metric(random.Random(2), 4)
        _, _, rays = CompiledMaps.of(entries["family8(1,0)"]).rays(metric, 1)
        assert all(t1 != (0, 0) for t1, _ in rays)

    @pytest.mark.parametrize("name, se", [e for e in compiled_entries() if e[1].n >= 2] + [
        ("family8(2,0)", catalog.family8(2, 0)), ("family8(1,1)", catalog.family8(1, 1))])
    def test_ray_closing_matches_close_scalar_zero(self, name, se):
        # only family8 with p > 0 has a Gaussian-rational zero off the base;
        # the solvable5 bundle's quadratic ray yields candidates that miss
        rng = random.Random(name)
        maps = CompiledMaps.of(se)
        closed = 0
        for k in range(1, se.n):
            scalar = lambda m: gamma_numerator(m, k, se)  # noqa: E731
            for _ in range(60):
                metric = sample_positive_metric(rng, se.n)
                got = search._close_gauduchon(maps, metric, k)
                want = search.close_scalar_zero(metric, scalar)
                assert (got is None) is (want is None), (name, k)
                if got is not None:
                    assert (got._num, got._den) == (want._num, want._den), (name, k)
                    assert search._verify(se, Target("gauduchon_zero", k), got), (name, k)
                    closed += got is not metric
        assert (closed > 0) is (name in ("family8(1,0)", "family8(2,0)", "family8(1,1)")), name


def leibniz_forms(metric, se):
    """classify's d Omega, ddbar Omega and P = del Omega ^ dbar Omega as Forms,
    from the int sums of hermitian._derivatives."""
    _, d_sums, ddbar, p, dt = hermitian._derivatives(metric, se)
    den = metric._den
    return (forms._form_of_sums(3, d_sums, den * dt),
            forms._form_of_sums(4, ddbar, den * dt * dt),
            forms._form_of_sums(6, p, den * den * dt * dt))


def astheno_form(metric, se):
    """Omega^{n-4} ^ (Omega ^ ddbar Omega + (n-3) P) from classify's int sums, n >= 4."""
    n = se.n
    omega, _, ddbar, p, dt = hermitian._derivatives(metric, se)
    sums = hermitian._astheno_sums(omega, ddbar, p, n)
    return forms._form_of_sums(2 * n - 2, sums, metric._den ** (n - 2) * dt * dt)


def family8_astheno_metrics(rng, count):
    """Non-Kahler astheno-Kahler metrics at n = 4, built as prop-4.7 builds
    them: family8(p, 0) with p > 0 at a zero of the obstruction V."""
    out = []
    while len(out) < count:
        p = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        zero = search.close_scalar_zero(
            sample_positive_metric(rng, 4),
            lambda m: catalog.gauduchon_obstruction_family8(p, 0, m))
        if zero is not None:
            out.append((catalog.family8(p, 0), zero))
    return out


class TestLeibniz:
    @pytest.mark.parametrize("name, se", compiled_entries())
    def test_split_matches_the_wedged_powers(self, name, se):
        rng = random.Random(name)
        n = se.n
        metrics = [hermitian.Metric.diagonal(n, range(1, n + 1))]
        metrics += [sample_positive_metric(rng, n) for _ in range(2 if n > 4 else 3)]
        for metric in metrics:
            ref = GauduchonForms(metric, se)
            omega = ref.power(1)
            d_omega, ddbar, p = leibniz_forms(metric, se)
            assert d_omega == se.d(omega), name
            assert ddbar == se.ddbar(omega) == ref.ddbar(1), name
            assert p == wedge(se.partial(omega), se.dbar(omega)), name
            for k in range(1, n):
                split = wedge(ref.power(k - 1), ddbar).scale(cr(k))
                if k > 1:
                    split = split + wedge(ref.power(k - 2), p).scale(cr(k * (k - 1)))
                assert split == ref.ddbar(k), (name, k)
            if n >= 4:
                assert astheno_form(metric, se) == ref.ddbar(n - 2).scale(
                    cr(Fraction(1, n - 2))), name

    def test_entries_exercise_both_terms(self):
        entries = dict(compiled_entries())
        for name in ("family8(-1,2)", "bench/n5.dsl", "jt(1/2)"):
            se = entries[name]
            _, ddbar, p = leibniz_forms(hermitian.Metric.diagonal(se.n), se)
            assert ddbar and p, name

    def test_astheno_metrics_that_are_not_kahler(self):
        for se, metric in family8_astheno_metrics(random.Random(47), 4):
            report = classify(metric, se)
            assert report.astheno and not report.kahler and not report.skt
            ref = GauduchonForms(metric, se)
            assert astheno_form(metric, se).is_zero and ref.ddbar(2).is_zero
            _, ddbar, p = leibniz_forms(metric, se)
            assert p and wedge(ref.power(1), ddbar) == -p
            for k in range(1, 4):
                assert report.gamma[k] == ref.gamma(k), k

    @pytest.mark.parametrize("name, se", compiled_entries())
    def test_omega_power_matches_repeated_wedge(self, name, se):
        omega = sample_positive_metric(random.Random(name), se.n).fundamental_form()
        power = Form.scalar(1)
        for k in range(se.n + 1):
            assert omega_power(omega, k) == power, (name, k)
            power = wedge(power, omega)

    def test_omega_power_of_other_forms(self, rng):
        one_form = rand_form(rng, 3, 1, terms=3)
        assert omega_power(one_form, 2).is_zero and omega_power(one_form, 1) == one_form
        assert omega_power(Form.zero(), 3).is_zero and omega_power(Form.zero(), 0) == Form.scalar(1)
        two_form = rand_form(rng, 4, 2, terms=3)
        assert omega_power(two_form, 3) == wedge(wedge(two_form, two_form), two_form)


def map_by_basis_monomials(se, op, p):
    """op(Omega^p) by the per-monomial compile the kernel replaced:
    {monomial: {(rows, cols): coefficient}}, op applied to the Form of each
    basis monomial m_JK and scaled by p!."""
    out = {}
    for rows in itertools.combinations(range(se.n), p):
        for cols in itertools.combinations(range(se.n), p):
            basis = Form.monomial(r for j, k in zip(rows, cols)
                                  for r in (forms.holo_rank(j + 1), forms.conj_rank(k + 1)))
            for mon, c in op(basis).terms.items():
                out.setdefault(mon, {})[(rows, cols)] = c * factorial(p)
    return out


def map_as_rationals(lmap, n):
    """A compiled (D, {rank mask: [(minor id, a, b)]}, ...) as {monomial:
    {(rows, cols): (a + ib)/D}}, each id read back through the n x n minor plan."""
    d, entries_of = lmap[:2]
    keys = hermitian._plan(n).keys
    return {forms._ranks(mask): {(forms._ranks(keys[i][0]), forms._ranks(keys[i][1])):
                                 ComplexRational(Fraction(a, d), Fraction(b, d))
                                 for i, a, b in entries}
            for mask, entries in entries_of.items()}


class TestKernelCompile:
    @pytest.mark.parametrize("name, se", compiled_entries())
    def test_maps_match_the_per_monomial_compile(self, name, se):
        n = se.n
        maps = CompiledMaps.of(se)
        for p in range(1, n):
            assert map_as_rationals(maps._ddbar_map(p), n) == map_by_basis_monomials(
                se, se.ddbar, p), (name, p)
        maps.d_top(hermitian.Metric.diagonal(n))
        assert map_as_rationals(maps._d_top, n) == map_by_basis_monomials(se, se.d, n - 1), name

    def test_entries_exercise_nonzero_maps_of_every_kind(self):
        entries = dict(compiled_entries())
        n5, nonuni, jt = entries["bench/n5.dsl"], entries["non-unimodular3"], entries["jt(1/2)"]
        assert all(map_by_basis_monomials(n5, n5.ddbar, p) for p in (1, 2, 3))
        assert map_by_basis_monomials(nonuni, nonuni.ddbar, 2)  # p = n - 1
        assert map_by_basis_monomials(jt, jt.d, 2)


def _rank_table(d_of_rank):
    """Rank-level differentials as ints over one denominator, for _derive,
    converted from their Forms: (D, rows), where rows[r] lists (mask, parity
    mask, a, b) for every term (a + ib)/D of the differential of rank r
    (rows[0] is unused)."""
    d, nums = _to_ints(((rank, mon), c) for rank, f in enumerate(d_of_rank, start=1)
                       for mon, c in f.terms.items())
    rows = [[] for _ in range(len(d_of_rank) + 1)]
    for (rank, mon), a, b in nums:
        rows[rank].append((forms._mask(mon), forms._parity_mask(mon), a, b))
    return d, rows


def tables_by_forms(n, d_of):
    """The constructor's tables by the route it replaced: each dw^j and its
    conjugate Form through _rank_table, then the (0,2) components and the
    Form d(dw^j); (d, del, dbar) tables, or the NotIntegrable or
    JacobiViolation raised, as (type, generator, residual)."""
    d_rank = []
    for df in d_of:
        d_rank += [df, df.conjugate()]
    table = _rank_table(d_rank)
    for j, df in enumerate(d_of, start=1):
        if df.component(0, 2):
            return NotIntegrable, j, df.component(0, 2)
    for j, df in enumerate(d_of, start=1):
        res = structures._derivation(df, (table,), 2 * n)
        if res:
            return JacobiViolation, j, res
    holo = sum(1 << r for r in range(1, 2 * n, 2))
    den, rows = table
    return table, *((den, [[e for e in row if (e[0] & holo).bit_count() == (rank & 1) + p]
                           for rank, row in enumerate(rows)]) for p in (1, 0))


def tables_by_constructor(n, d_of):
    """tables_by_forms(n, d_of), from StructureEquations."""
    try:
        se = StructureEquations(n, d_of)
    except (NotIntegrable, JacobiViolation) as exc:
        return type(exc), exc.generator, exc.residual
    return se._d_rank, se._del_rank, se._dbar_rank


def real_algebras():
    """(name, algebra) for every real algebra the package builds: jt_real, the
    contact algebras, and the S^1-bundles that bundle_extend assembles over
    solvable5 and heisenberg5 (the contact d plus d theta = F)."""
    contacts = {name: getattr(catalog, f"{name}_contact")()
                for name in ("solvable5", "heisenberg5", "broken5")}
    return ([(f"jt_real({t})", catalog.jt_real(t))
             for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)]
            + [(name, c.algebra) for name, c in contacts.items()]
            + [(f"{name} bundle", RealLieAlgebra(6, c.algebra.d_of + [c.F]))
               for name, c in contacts.items() if name != "broken5"])


def random_structure(rng, n):
    """Structure equations with random Gaussian-rational coefficients.

    Either two-step nilpotent (dw^j = 0 for j <= k, and the other dw^j in the
    2-forms of w1..wk, so Jacobi holds), sometimes with a (0,2) term; or dw^j
    in the 2-forms of the generators below j, where Jacobi mostly fails.
    """
    k = rng.randint(1, n)
    low = range(1, 2 * k + 1) if rng.random() < 0.6 else None
    d_of = []
    for j in range(1, n + 1):
        ranks = range(1, 2 * j - 1) if low is None else (low if j > k else ())
        df = Form.zero()
        for _ in range(rng.randint(0, 4) if len(ranks) > 1 else 0):
            df = df + Form.monomial(rng.sample(ranks, 2), rand_coeff(rng))
        d_of.append(df)
    if rng.random() < 0.2:  # a (0,2) term on one generator
        j = rng.randint(1, n)
        d_of[j - 1] = d_of[j - 1] + Form.monomial(
            [forms.conj_rank(rng.randint(1, n)), forms.conj_rank(rng.randint(1, n))],
            rand_coeff(rng))
    return d_of


def sampled_catalog_points(rng):
    for _ in range(6):
        yield catalog.nilpotent6(rng.randint(0, 1), rng.randint(0, 1),
                                 *(rand_coeff(rng) for _ in range(4)))
        yield catalog.reduced6(rng.randint(0, 1), rand_coeff(rng), rand_coeff(rng).re,
                               rand_coeff(rng).im)
        yield catalog.family8(rand_coeff(rng).re, rand_coeff(rng).im)
        yield catalog.jt(rand_coeff(rng).re or 1)


class TestConstructorTables:
    @pytest.mark.parametrize("name, se", compiled_entries())
    def test_every_entry_matches_the_form_route(self, name, se):
        assert tables_by_forms(se.n, se.d_of) == tables_by_constructor(se.n, se.d_of), name

    def test_sampled_catalog_points_match_the_form_route(self):
        for se in sampled_catalog_points(random.Random(19)):
            assert tables_by_forms(se.n, se.d_of) == tables_by_constructor(se.n, se.d_of), se

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_random_structures_match_the_form_route(self, n):
        rng = random.Random(n)
        kinds = set()
        for _ in range(150):
            d_of = random_structure(rng, n)
            expected = tables_by_forms(n, d_of)
            assert tables_by_constructor(n, d_of) == expected, d_of
            kinds.add(expected[0] if isinstance(expected[0], type) else "valid")
        # a (0,2) term needs two generators, and a Jacobi failure three
        assert kinds == {"valid", *[NotIntegrable, JacobiViolation][:n - 1]}

    @pytest.mark.parametrize("d_of, error, generator, residual", [
        pytest.param([Form.zero(), Form(2, {(2, 4): ONE})], NotIntegrable, 2,
                     Form(2, {(2, 4): ONE}), id="dw2 = ~w1^~w2"),
        pytest.param([Form(2, {(4, 6): I}), Form.zero(), Form(2, {(2, 4): ONE, (1, 2): ONE})],
                     NotIntegrable, 1, Form(2, {(4, 6): I}), id="the first of two"),
        # d(w2^~w2) = w1^~w1^~w2 + w1^~w1^w2, so only the last generator fails
        pytest.param([Form.zero(), Form(2, {(1, 2): ONE}), Form(2, {(3, 4): ONE})],
                     JacobiViolation, 3, Form(3, {(1, 2, 4): ONE, (1, 2, 3): ONE}),
                     id="dw3 = w2^~w2"),
        pytest.param([Form.zero(), Form(2, {(1, 2): ONE}), Form(2, {(1, 4): ONE}),
                      Form(2, {(3, 6): ONE})],
                     JacobiViolation, 4, Form(3, {(1, 2, 6): ONE}),
                     id="dw4 = w2^~w3"),
    ])
    def test_crafted_failures_raise_as_before(self, d_of, error, generator, residual):
        expected = (error, generator, residual)
        assert tables_by_forms(len(d_of), d_of) == expected
        assert tables_by_constructor(len(d_of), d_of) == expected

    @pytest.mark.parametrize("name, alg", real_algebras())
    def test_real_algebras_match_the_form_route(self, name, alg):
        assert alg._d_rank == _rank_table(alg.d_of), name

    def test_size_errors_come_before_integrability(self):
        # dw1 has a (0,2) term; dw2 reaches past the coframe, dw3 is a 1-form
        d_of = [Form(2, {(2, 4): ONE}), Form(2, {(1, 7): ONE}), Form(1, {(1,): ONE})]
        with pytest.raises(DimensionMismatch, match="^dw2 uses ranks beyond the coframe$"):
            StructureEquations(3, d_of)
        with pytest.raises(BadParams, match="^dw3 must be a 2-form, got degree 1$"):
            StructureEquations(3, d_of[:1] + [Form.zero()] + d_of[2:])


def json_terms(rng, form):
    """The JSON terms of form, each coefficient split into two pieces spelled
    as unreduced "p/q" strings, some monomials with their ranks reversed (and
    the sign flipped), and a term that cancels."""
    pieces = []  # (coefficient, monomial)
    for mon, c in form.terms.items():
        piece = rand_coeff(rng)
        for part in (piece, c - piece):
            sign = rng.choice((1, -1))
            pieces.append((part * sign, mon[::sign]))
    if pieces:
        c, mon = rng.choice(pieces)
        pieces += [(c, mon), (-c, mon)]
    rng.shuffle(pieces)

    def spell(value):
        f = rng.randint(1, 3)
        return f"{value.numerator * f}/{value.denominator * f}"

    return [{"re": spell(c.re), "im": spell(c.im), "mon": dsl._mon_to_json(mon)}
            for c, mon in pieces]


def sorted_tables(se):
    """The d, del and dbar tables of se, each row sorted: a reader lists a
    row's terms in the order it reads them."""
    return tuple((den, [sorted(row) for row in rows])
                 for den, rows in (se._d_rank, se._del_rank, se._dbar_rank))


def tables_by_json(n, d_of, rng):
    """sorted_tables of structure_from_json of json_terms of d_of, or the
    NotIntegrable or JacobiViolation raised, as in tables_by_forms."""
    spec = {"n": n, "equations": [json_terms(rng, df) for df in d_of]}
    try:
        return sorted_tables(dsl.structure_from_json(spec))
    except (NotIntegrable, JacobiViolation) as exc:
        return type(exc), exc.generator, exc.residual


class TestStructureJsonReader:
    """structure_from_json sums each dw^j in ints into the int rows, and the
    tables, that StructureEquations builds from the Forms."""

    @staticmethod
    def assert_round_trips(se):
        back = dsl.structure_from_json(dsl.structure_to_json(se))
        assert back.d_of == se.d_of
        assert sorted_tables(back) == sorted_tables(se)

    @pytest.mark.parametrize("name, se", compiled_entries())
    def test_every_entry_round_trips(self, name, se):
        self.assert_round_trips(se)

    def test_random_nilpotent6_points_round_trip(self):
        rng = random.Random(25)
        for _ in range(50):
            self.assert_round_trips(catalog.nilpotent6(
                rng.randint(0, 1), rng.randint(0, 1), *(rand_coeff(rng) for _ in range(4))))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_split_repeated_and_unreduced_terms(self, n):
        rng = random.Random(100 + n)
        for _ in range(60):
            d_of = random_structure(rng, n)
            try:
                expected = sorted_tables(StructureEquations(n, d_of))
            except (NotIntegrable, JacobiViolation) as exc:
                expected = type(exc), exc.generator, exc.residual
            assert tables_by_json(n, d_of, rng) == expected, d_of


class TestBumpDiagonal:
    def test_bumped_metric_starts_from_the_empty_minor(self):
        metric = sample_positive_metric(random.Random(104), 4)
        for rows, cols in index_pairs(4):
            metric.minor(rows, cols)
        assert len(metric._minors) == comb(8, 4)
        for amount in (1, Fraction(1, 3)):
            assert metric.bump_diagonal(2, amount)._minors == {0: (1, 0)}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_bumped_minors_match_fresh_ones(self, n):
        metric = sample_positive_metric(random.Random(100 + n), n)
        subsets = [c for p in range(n + 1) for c in itertools.combinations(range(n), p)]
        pairs = [(rows, cols) for rows in subsets for cols in subsets
                 if len(rows) == len(cols)]
        for rows, cols in pairs:  # memoise every minor of the base first
            metric.minor(rows, cols)
        for j in range(n):
            for amount in (1, Fraction(1, 3), Fraction(7, 2)):
                bumped = metric.bump_diagonal(j, amount)
                assert bumped.x[j][j] == metric.x[j][j] + ComplexRational(0, amount)
                x, memo = bumped.x, {}
                fresh = hermitian.Metric(x)
                for rows, cols in pairs:
                    want = ref_minor(x, rows, cols, memo)
                    assert bumped.minor(rows, cols) == fresh.minor(rows, cols) == want


def randint_sample_positive_metric(rng, n):
    """The sampler as it drew through randint(-8, 8) and choice((1, 2, 4))."""
    def entry():
        p, q = rng.randint(-8, 8), rng.choice((1, 2, 4))
        r, s = rng.randint(-8, 8), rng.choice((1, 2, 4))
        return 4 // q * p, 4 // s * r

    g = [[entry() for _ in range(n)] for _ in range(n)]
    d = search.POSITIVITY_PADDING.denominator
    x = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            re = im = 0
            for (a, b), (c, e) in zip(g[j], g[k]):
                re += a * c + b * e
                im += b * c - a * e
            re, im = d // 16 * re + (j == k), d // 16 * im
            x[j][k] = (-im, re)
            if j != k:
                x[k][j] = (im, re)
    return hermitian.Metric._of_ints(x, d)


class TestSamplerDraws:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_getrandbits_draws_match_randint_and_choice(self, n):
        for seed in range(200):
            new_rng, old_rng = random.Random(seed), random.Random(seed)
            for _ in range(2):  # the second call starts mid-stream
                new = sample_positive_metric(new_rng, n)
                old = randint_sample_positive_metric(old_rng, n)
                assert (new._num, new._den) == (old._num, old._den), (n, seed)
                assert new_rng.getstate() == old_rng.getstate(), (n, seed)

    def test_one_sample_literally(self):
        metric = sample_positive_metric(random.Random(1), 3)
        assert metric._den == 1024
        assert metric._num == [
            [(0, 48641), (-25984, 19968), (-14848, 14592)],
            [(25984, 19968), (0, 37761), (27776, 37120)],
            [(14848, 14592), (-27776, 37120), (0, 91393)],
        ]


def numerator_by_ints(top, n):
    """(i/2) (-i)^n top read off top's ints (a + ib)/d, as the engine reads it."""
    return Fraction(hermitian._turned(top._a, top._b, n), 2 * top._d)


def numerator_by_product(top, n):
    """(i/2) (-i)^n top, multiplied out in ComplexRational."""
    return ((I / cr(2)) * (-I) ** n * top).real_part()


class TestNumerator:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])  # every n mod 4, and 0 again
    def test_matches_the_complex_product(self, n):
        rng = random.Random(n)
        for _ in range(50):
            value = rand_rational(rng)
            # top = 2 (-i)^-n (-i) value makes (i/2) (-i)^n top = value real
            top = cr(2) * cr(value) * I ** n * (-I)
            assert numerator_by_ints(top, n) == numerator_by_product(top, n) == value
        assert numerator_by_ints(ZERO, n) == 0

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_non_real_product_fails_the_check(self, n):
        top = cr(2) * I ** n * (-I) * ComplexRational(1, Fraction(1, 3))
        with pytest.raises(ClaimFailure):
            numerator_by_ints(top, n)
        with pytest.raises(ValueError):
            numerator_by_product(top, n)

    def test_non_real_product_fails_under_python_O(self):
        src = str(Path(hermitian.__file__).resolve().parents[1])
        code = ("from gauduchon import hermitian\n"
                "from gauduchon.errors import ClaimFailure\n"
                "for n in range(4):\n"
                "    try:\n"
                "        hermitian._turned(1, 1, n)\n"
                "    except ClaimFailure:\n"
                "        continue\n"
                "    raise SystemExit(f'no ClaimFailure at n = {n}')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env={"PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr


def close_by_slope(metric, scalar):
    """close_scalar_zero as it tested a separate slope Fraction and took -base/slope."""
    base = scalar(metric)
    if base == 0:
        return metric
    for j in range(metric.n):
        slope = scalar(metric.bump_diagonal(j, 1)) - base
        if slope != 0 and (slope > 0) != (base > 0):
            candidate = metric.bump_diagonal(j, -base / slope)
            if candidate.is_positive() and scalar(candidate) == 0:
                return candidate
    return None


def last_diagonal(offset, sign):
    """sign (u_n - offset) for -iX = (u_jk): flat along every other diagonal entry."""
    def scalar(metric):
        return sign * (metric.minus_i_x()[-1][-1].real_part() - offset)
    return scalar


class TestClosingStep:
    @pytest.mark.parametrize("sign", [1, -1], ids=["u_n - c", "c - u_n"])
    def test_flat_slopes_come_before_the_root(self, sign):
        # every bump but u_n's is flat; the base is negative for sign 1 and c
        # above u_n, or sign -1 and c below, and positive otherwise
        rng = random.Random(7)
        for n in (2, 3, 4):
            for _ in range(5):
                metric = sample_positive_metric(rng, n)
                u = metric.minus_i_x()[-1][-1].real_part()
                for offset in (u + Fraction(5, 3), u - Fraction(1, 7)):
                    scalar = last_diagonal(offset, sign)
                    out = search.close_scalar_zero(metric, scalar)
                    assert out == close_by_slope(metric, scalar)
                    # raising u_n reaches the zero only when c lies above u_n
                    assert (out is not None) is (offset > u)
                    assert out is None or scalar(out) == 0

    def test_zero_base_returns_the_metric(self):
        metric = sample_positive_metric(random.Random(3), 3)
        u = metric.minus_i_x()[-1][-1].real_part()
        assert search.close_scalar_zero(metric, last_diagonal(u, 1)) is metric

    @pytest.mark.parametrize("se, k, sign, closes", [
        pytest.param(catalog.family8(2, 0), 1, 1, True, id="family8(2,0) falling"),
        pytest.param(catalog.family8(2, 0), 1, -1, True, id="family8(2,0) rising"),
        pytest.param(catalog.family8(-1, 1), 1, 1, False, id="family8(-1,1) no slope rises"),
        pytest.param(sasakian.bundle_extend(catalog.solvable5_contact()).structure, 1, 1, False,
                     id="solvable5-bundle quadratic along x_33"),
        pytest.param(dsl.parse_structure((BENCH / "n5.dsl").read_text()), 2, 1, False,
                     id="bench/n5.dsl"),
    ])
    def test_gamma_numerator_zeros_match_the_slope_rule(self, se, k, sign, closes):
        rng = random.Random(11)
        scalar = lambda m: sign * gamma_numerator(m, k, se)  # noqa: E731
        for _ in range(8):
            metric = sample_positive_metric(rng, se.n)
            out = search.close_scalar_zero(metric, scalar)
            assert out == close_by_slope(metric, scalar)
            assert (out is not None) is closes
            if closes:
                assert out.is_positive() and scalar(out) == 0 != scalar(metric)


def target_by_reference(se, target, metric, ref):
    """The target's defining condition on the wedged-out reference forms."""
    if target.kind == "gamma_negative":
        return ref.numerator(target.k) < 0
    if target.kind == "gamma_positive":
        return ref.numerator(target.k) > 0
    if target.kind == "gauduchon_zero":
        return ref.form(target.k).is_zero
    if target.kind == "skt":
        return ref.ddbar(1).is_zero
    return se.d(ref.power(se.n - 1)).is_zero


class TestDeterminantFromPivots:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_elimination_on_positive_metrics(self, n):
        rng = random.Random(n)
        for metric in [hermitian.Metric.diagonal(n, range(1, n + 1))] + [
                sample_positive_metric(rng, n) for _ in range(5)]:
            positive, det = ref_positivity(metric)
            assert positive
            assert metric.det_minus_i_x() == det > 0

    @pytest.mark.parametrize("metric", [
        hermitian.Metric.diagonal(3, [1, -1, 1]),
        hermitian.Metric.diagonal(2, [1, 0]),
        hermitian.Metric.diagonal(2, [-1, -1]),  # det(-iX) = 1 > 0, still not positive
        hermitian.Metric([[I, 2 * I], [2 * I, I]]),
    ])
    def test_raises_on_metrics_that_are_not_positive(self, metric):
        with pytest.raises(NotPositive):
            metric.det_minus_i_x()
        with pytest.raises(NotPositive):
            hermitian.volume_coefficient(metric)


class TestExactScalars:
    @pytest.mark.parametrize("other", [0.5, 1j, 2.0 + 1j])
    def test_float_operands_raise(self, other):
        one = ComplexRational(1)
        with pytest.raises(TypeError):
            one * other
        with pytest.raises(TypeError):
            other * one
        with pytest.raises(TypeError):
            one + other
        with pytest.raises(TypeError):
            one - other
        with pytest.raises(TypeError):
            other - one
        with pytest.raises(TypeError):
            one / other


# -- the product formulas and the LDL* pivots in Fraction arithmetic ----------


def ref_coefficient_C(n, s, a, b):
    return ref_coefficient_C_sq(n, s, a, Fraction(b) ** 2)


def ref_coefficient_C_sq(n, s, a, b_squared):
    if n < 4:
        raise BadParams("coefficient table needs n >= 4")
    if not 0 <= s <= n - 1:
        raise BadParams(f"s must be in 0..{n - 1}")
    a = Fraction(a)
    m = Fraction(a * a) + Fraction(b_squared)
    c0, c1, c2 = (comb(n - 3, s - j) if s >= j else 0 for j in range(3))
    return Fraction(c0) + 2 * a * c1 + m * c2


def ref_product_obstruction(n1, n2, a, b_squared):
    a = Fraction(a)
    m = a * a + Fraction(b_squared)
    return Fraction(n1 * (n1 - 1)) + 2 * a * n1 * n2 + m * n2 * (n2 - 1)


def ref_check_params(n1, n2, b, t):
    """ProductParams.__post_init__ with t/b > 0 tested by dividing."""
    if n1 < 1 or n2 < 1:
        raise BadParams("factor parameters must be positive integers")
    if b == 0:
        raise BadParams("b must be nonzero")
    if t / b <= 0:
        raise BadParams("need t/b > 0 for a positive metric")


def ref_product_report(params):
    n = params.n1 + params.n2 + 1
    a, b, t = params.a, params.b, params.t
    if n == 3:
        return sasakian.ProductReport(n=n, obstruction=None, first_gauduchon=(a == 0),
                                      astheno=(a == 0), ratio=None, gamma1=a * t / (3 * b),
                                      skt=(a == 0))
    q = ref_product_obstruction(params.n1, params.n2, a, b * b)
    denom = Fraction(params.n1 * (params.n1 - 1) + 2 * params.n1 * params.n2
                     + params.n2 * (params.n2 - 1))
    ratio = Fraction(n - 2) * t / (n * b) * (q / denom)
    return sasakian.ProductReport(n=n, obstruction=q, first_gauduchon=(q == 0),
                                  astheno=(q == 0), ratio=ratio, gamma1=None, skt=None)


def ref_ldl(h):
    """LDL* with every pivot turned into a Fraction and coerced back per use."""
    n = len(h)
    lower = linalg.identity(n)
    diag = []
    for j in range(n):
        pivot = h[j][j]
        for k in range(j):
            pivot = pivot - lower[j][k] * lower[j][k].conjugate() * diag[k]
        d = pivot.real_part()
        if d <= 0:
            raise ValueError("matrix is not positive definite")
        diag.append(d)
        for i in range(j + 1, n):
            val = h[i][j]
            for k in range(j):
                val = val - lower[i][k] * lower[j][k].conjugate() * diag[k]
            lower[i][j] = val / cr(d)
    return lower, diag


def outcome(fn, *args):
    """fn(*args), or the class and message of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError, TypeError, BadParams) as exc:
        return type(exc), str(exc)


def exact(value):
    """value with its type, so that 1 and Fraction(1), or 0.5 and 1/2, differ."""
    return value if isinstance(value, tuple) else (type(value), value)


fractions = st.one_of(
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(10**25), 10**25), st.integers(1, 10**15)),
)
rationals = st.one_of(st.integers(-30, 30), fractions)
# what Fraction() reads: ints, Fractions and "p/q" strings, reduced or not
rational_inputs = st.one_of(
    rationals,
    rationals.map(str),
    st.builds("{}/{}".format, st.integers(-60, 60), st.integers(1, 60)),
)


class TestIntegerProductFormulas:
    @given(st.integers(1, 7), st.integers(1, 7), rational_inputs, rational_inputs)
    def test_product_obstruction(self, n1, n2, a, b_squared):
        got = sasakian.product_obstruction(n1, n2, a, b_squared)
        assert exact(got) == exact(ref_product_obstruction(n1, n2, a, b_squared))

    @given(st.integers(2, 10), st.integers(-1, 10), rational_inputs, rational_inputs)
    def test_coefficient_C_sq(self, n, s, a, b_squared):
        got = outcome(sasakian.coefficient_C_sq, n, s, a, b_squared)
        assert exact(got) == exact(outcome(ref_coefficient_C_sq, n, s, a, b_squared))

    @given(st.integers(2, 10), st.integers(-1, 10), rational_inputs, rational_inputs)
    def test_coefficient_C(self, n, s, a, b):
        got = outcome(sasakian.coefficient_C, n, s, a, b)
        assert exact(got) == exact(outcome(ref_coefficient_C, n, s, a, b))

    @pytest.mark.parametrize("bad", ["x", "1/0", "1.5.2", None, 1j, ComplexRational(1, 1)])
    def test_bad_input_raises_as_before(self, bad):
        for fn, ref in ((sasakian.product_obstruction, ref_product_obstruction),
                        (lambda n, s, a, b: sasakian.coefficient_C_sq(n + 3, s, a, b),
                         lambda n, s, a, b: ref_coefficient_C_sq(n + 3, s, a, b))):
            assert outcome(fn, 2, 1, bad, 1) == outcome(ref, 2, 1, bad, 1)
            assert outcome(fn, 2, 1, 1, bad) == outcome(ref, 2, 1, 1, bad)
        assert (outcome(sasakian.coefficient_C, 5, 1, 1, bad)
                == outcome(ref_coefficient_C, 5, 1, 1, bad))

    # a float raises TypeError (0.1 would enter as its binary fraction);
    # a decimal string is exact and reads as Fraction reads it
    @pytest.mark.parametrize("a, b_squared, error", [
        (0.5, 3, TypeError), (1, 0.25, TypeError), ("0.5", "3/4", None)])
    def test_decimal_strings_read_exactly_and_floats_raise(self, a, b_squared, error):
        if error:
            with pytest.raises(error, match=r"^float 0\.\d+ is not an exact rational$"):
                sasakian.product_obstruction(3, 2, a, b_squared)
            return
        got = sasakian.product_obstruction(3, 2, a, b_squared)
        assert exact(got) == exact(ref_product_obstruction(3, 2, a, b_squared))

    @pytest.mark.parametrize("bad", [0.1, True], ids=["float", "bool"])
    @pytest.mark.parametrize("build", [
        lambda x: sasakian.coefficient_C(4, 1, x, 1),
        lambda x: sasakian.coefficient_C(4, 1, 1, x),
        lambda x: sasakian.coefficient_C_sq(4, 1, 1, x),
        lambda x: sasakian.product_obstruction(2, 1, x, 1),
        lambda x: sasakian.product_report(sasakian.ProductParams(1, 2, x, 1, 1)),
        lambda x: catalog.reduced6(1, 1, x, 0),
        lambda x: catalog.jt(x),
        lambda x: catalog.jt_real(x),
        lambda x: catalog.jt_coframe(x),
        lambda x: catalog.family8(x, 0),
        lambda x: catalog.family8(0, x),
        lambda x: search.balanced_feasibility_jt(x),
    ], ids=["C-a", "C-b", "C_sq", "obstruction", "report", "reduced6", "jt", "jt_real",
            "jt_coframe", "family8-p", "family8-q", "balanced-jt"])
    def test_float_and_bool_parameters_raise(self, build, bad):
        with pytest.raises(TypeError, match="is not an exact rational$"):
            build(bad)

    @given(st.integers(0, 3), st.integers(0, 3), rationals, rationals)
    @example(1, 1, 1, 0)
    @example(1, 1, Fraction(-1, 2), 0)
    @example(2, 2, 0, 3)
    def test_product_params_reject_the_same_pairs(self, n1, n2, b, t):
        expected = outcome(ref_check_params, n1, n2, b, t)
        try:
            sasakian.ProductParams(n1, n2, Fraction(1), b, t)
        except BadParams as exc:
            assert expected == (BadParams, str(exc))
        else:
            assert expected is None

    @given(st.integers(1, 6), st.integers(1, 6), rationals, rationals, rationals)
    def test_product_report_every_field(self, n1, n2, a, b, t):
        if n1 + n2 == 2:
            # the reference's a t / (3 b) is a float on int fields
            a, b, t = Fraction(a), Fraction(b), Fraction(t)
        assume(b != 0 and t / b > 0)
        params = sasakian.ProductParams(n1, n2, a, b, t)
        got, ref = sasakian.product_report(params), ref_product_report(params)
        for field in dataclasses.fields(got):
            name = field.name
            assert exact(getattr(got, name)) == exact(getattr(ref, name)), name

    def test_product_report_is_exact_on_int_fields(self):
        report = sasakian.product_report(sasakian.ProductParams(1, 1, 1, 1, 1))
        assert exact(report.gamma1) == (Fraction, Fraction(1, 3))


def hermitian_matrix(rng, n, span=3):
    """A random Hermitian matrix over the Gaussian rationals, definite or not."""
    h = linalg.zeros(n, n)
    for i in range(n):
        h[i][i] = ComplexRational(Fraction(rng.randint(-span, 4 * span), rng.choice((1, 2))))
        for j in range(i):
            z = ComplexRational(Fraction(rng.randint(-span, span), rng.choice((1, 2))),
                                Fraction(rng.randint(-span, span), rng.choice((1, 2))))
            h[i][j], h[j][i] = z, z.conjugate()
    return h


class TestIntegerPivots:
    @given(st.integers(2, 5), st.integers(0, 2**32))
    def test_same_factors_on_sampled_metrics(self, n, seed):
        h = sample_positive_metric(random.Random(seed), n).minus_i_x()
        lower, diag = linalg.ldl(h)
        ref_lower, ref_diag = ref_ldl(h)
        assert lower == ref_lower
        assert [exact(d) for d in diag] == [exact(d) for d in ref_diag]

    @given(st.integers(1, 5), st.integers(0, 2**32))
    def test_same_outcome_on_hermitian_matrices(self, n, seed):
        h = hermitian_matrix(random.Random(seed), n)
        assert outcome(linalg.ldl, h) == outcome(ref_ldl, h)

    @pytest.mark.parametrize("rows, message", [
        ([[1, 2], [2, 1]], "matrix is not positive definite"),  # pivot 1 - 4 = -3
        ([[1, 1], [1, 1]], "matrix is not positive definite"),  # pivot 0
        ([[-2]], "matrix is not positive definite"),
        ([[1, 0], [0, ComplexRational(1, 1)]], "1+1i is not real"),
        ([[2, 1], [1, ComplexRational(3, 1)]], "5/2+1i is not real"),  # 3 + i - 1/2
    ])
    def test_same_error_on_a_bad_pivot(self, rows, message):
        h = linalg.mat(rows)
        assert outcome(linalg.ldl, h) == outcome(ref_ldl, h) == (ValueError, message)


# -- the per-term kernels the Gaussian-integer kernels replaced ---------------
#
# wedge, the derivations behind d, partial and dbar, the Lefschetz contraction
# and the metric's minors are integer kernels now, and positivity is
# Sylvester's criterion on those minors.  The references are the per-term
# ComplexRational loops they replaced and the LDL* positivity test.


def ref_merge_ranks(a, b):
    """(sign, merged) of two rank tuples, or None when they share a rank."""
    i, j, sign = 0, 0, 1
    out = []
    la = len(a)
    while i < la and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            if (la - i) & 1:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def ref_wedge(a, b):
    if a.is_zero or b.is_zero:
        return Form.zero()
    terms = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            merged = ref_merge_ranks(ma, mb)
            if merged is None:
                continue
            sign, mon = merged
            c = ca * cb
            if sign < 0:
                c = -c
            acc = terms.get(mon)
            terms[mon] = c if acc is None else acc + c
    return Form(a.degree + b.degree, terms)


def ref_derivation(f, d_of_rank):
    """The odd derivation extending d_of_rank[r - 1] = d(rank r), term by term."""
    if f.is_zero:
        return Form.zero()
    terms = {}
    for mon, c in f.terms.items():
        for t, rank in enumerate(mon):
            rest = mon[:t] + mon[t + 1:]
            base = -c if t & 1 else c
            for m2, c2 in d_of_rank[rank - 1].terms.items():
                merged = ref_merge_ranks(m2, rest)
                if merged is None:
                    continue
                sign, mm = merged
                val = base * c2
                if sign < 0:
                    val = -val
                acc = terms.get(mm)
                terms[mm] = val if acc is None else acc + val
    return Form(f.degree + 1, terms) if terms else Form.zero()


def ref_rank_forms(se):
    """d, partial and dbar of every rank of a complex structure, as forms."""
    d_rank = []
    for df in se.d_of:
        d_rank += [df, df.conjugate()]
    parity = [rank & 1 for rank in range(1, 2 * se.n + 1)]
    return (d_rank,
            [dr.component(p + 1, 1 - p) for dr, p in zip(d_rank, parity)],
            [dr.component(p, 2 - p) for dr, p in zip(d_rank, parity)])


def ref_adjoint(metric, f):
    """The bare adjoint of L from (-iX)^-1 by elimination, term by term."""
    if f.is_zero or f.degree < 2:
        return Form.zero()
    n = metric.n
    h_inv = linalg.mat_inverse(metric.minus_i_x())
    lam = {(2 * a + 1, 2 * b + 2): -I * h_inv[b][a]
           for a in range(n) for b in range(n) if h_inv[b][a]}
    out = {}
    for mon, c in f.terms.items():
        for p, r in enumerate(mon):
            rest = mon[:p] + mon[p + 1:]
            for q, s in enumerate(rest):
                factor = lam.get((r, s))
                if factor is None:
                    continue
                m = rest[:q] + rest[q + 1:]
                v = -(c * factor) if (p + q) & 1 else c * factor
                acc = out.get(m)
                out[m] = v if acc is None else acc + v
    return Form(f.degree - 2, out)


def ref_minor(x, rows, cols, memo):
    """det x_{rows, cols} by ComplexRational Laplace expansion along the first row."""
    key = (rows, cols)
    if key not in memo:
        val = ONE
        if rows:
            row, below = x[rows[0]], rows[1:]
            val = ZERO
            for i, col in enumerate(cols):
                if row[col]:
                    term = row[col] * ref_minor(x, below, cols[:i] + cols[i + 1:], memo)
                    val = val - term if i & 1 else val + term
        memo[key] = val
    return memo[key]


def ref_positivity(metric):
    """(True, det(-iX)) from the LDL* pivots, or (False, None)."""
    try:
        pivots = linalg.ldl(metric.minus_i_x())[1]
    except ValueError:
        return False, None
    det = Fraction(1)
    for d in pivots:
        det *= d
    return True, det


def index_pairs(n):
    subsets = [c for p in range(n + 1) for c in itertools.combinations(range(n), p)]
    return [(rows, cols) for rows in subsets for cols in subsets if len(rows) == len(cols)]


def assert_metric_matches_reference(metric):
    memo = {}
    for rows, cols in index_pairs(metric.n):
        assert metric.minor(rows, cols) == ref_minor(metric.x, rows, cols, memo), (rows, cols)
    positive, det = ref_positivity(metric)
    assert metric.is_positive() is positive
    if positive:
        assert exact(metric.det_minus_i_x()) == exact(det)
    else:
        with pytest.raises(NotPositive):
            metric.det_minus_i_x()


# small and large numerators over small, prime and huge denominators, so
# that the inputs of one kernel call rarely share a denominator
DENOMINATORS = (1, 1, 2, 3, 4, 7, 12, 2**40, 10**12 + 39, 3**30)


def rand_rational(rng):
    if rng.random() < 0.2:
        return Fraction(0)
    num = rng.randint(-9, 9) if rng.random() < 0.6 else rng.randint(-(10**20), 10**20)
    return Fraction(num, rng.choice(DENOMINATORS))


def rand_complex(rng):
    return ComplexRational(rand_rational(rng), rand_rational(rng))


def rand_kernel_form(rng, n, degree, terms):
    """Up to `terms` monomials of one degree with mixed and large coefficients."""
    ranks = range(1, 2 * n + 1)
    return Form(degree, {tuple(sorted(rng.sample(ranks, degree))): rand_complex(rng)
                         for _ in range(terms)})


def kernel_structures():
    """Structures at n = 1..5, two of them with mixed and huge denominators."""
    big = ComplexRational(Fraction(10**20 + 1, 3**30), Fraction(-7, 2**40))
    entries = [
        ("big-denominator2", StructureEquations(2, [Form.zero(), Form(2, {(1, 2): big})])),
        ("big-denominator3", StructureEquations(3, [
            Form.zero(), Form.zero(),
            Form(2, {(1, 2): big, (1, 4): ComplexRational(Fraction(1, 3)),
                     (3, 4): ComplexRational(0, Fraction(5, 7))})])),
    ]
    return entries + [(name, se) for name, se in compiled_entries()
                      if name not in ("abelian(3)", "abelian(4)", "abelian(5)")]


KERNEL_STRUCTURES = kernel_structures()


def rand_metric(rng, n):
    """A sampled positive metric, then bumped by mixed and huge denominators."""
    metric = sample_positive_metric(rng, n)
    for _ in range(rng.randint(0, 2)):
        amount = abs(rand_rational(rng)) + Fraction(1, rng.choice(DENOMINATORS))
        metric = metric.bump_diagonal(rng.randrange(n), amount)
    return metric


class TestIntegerKernels:
    @given(st.integers(1, 5), st.integers(0, 2**32))
    def test_wedge_matches_the_per_term_product(self, n, seed):
        rng = random.Random(seed)
        for _ in range(4):
            p = rng.randint(0, 2 * n)
            q = rng.randint(0, 2 * n - p)
            a = rand_kernel_form(rng, n, p, rng.randint(0, 6))
            b = rand_kernel_form(rng, n, q, rng.randint(0, 6))
            assert wedge(a, b) == ref_wedge(a, b)
            assert wedge(a, b).degree == ref_wedge(a, b).degree

    @given(st.integers(1, 5), st.integers(0, 2**32))
    def test_wedge_sums_that_cancel_to_zero(self, n, seed):
        rng = random.Random(seed)
        odd = rand_kernel_form(rng, n, rng.choice(range(1, 2 * n + 1, 2)), rng.randint(2, 6))
        assert wedge(odd, odd).is_zero and ref_wedge(odd, odd).is_zero
        a = rand_kernel_form(rng, n, rng.randint(0, n), rng.randint(1, 4))
        b = rand_kernel_form(rng, n, rng.randint(0, n), rng.randint(1, 4))
        c = rand_kernel_form(rng, n, b.degree or 0, rng.randint(1, 4))
        # b + c - b: the b terms cancel inside one kernel call
        assert wedge(a, (b + c) - b) == wedge(a, c) == ref_wedge(a, c)
        sign = (-1) ** ((a.degree or 0) * (b.degree or 0))
        assert (wedge(a, b) - wedge(b, a).scale(cr(sign))).is_zero

    @given(st.sampled_from(KERNEL_STRUCTURES), st.integers(0, 2**32))
    def test_derivations_match_the_per_term_sums(self, entry, seed):
        name, se = entry
        rng = random.Random(seed)
        d_rank, del_rank, dbar_rank = ref_rank_forms(se)
        for _ in range(3):
            degree = rng.randint(0, 2 * se.n)
            f = rand_kernel_form(rng, se.n, degree, rng.randint(0, 5))
            assert se.d(f) == ref_derivation(f, d_rank), name
            assert se.partial(f) == ref_derivation(f, del_rank), name
            assert se.dbar(f) == ref_derivation(f, dbar_rank), name
            assert se.d(se.d(f)).is_zero and ref_derivation(ref_derivation(f, d_rank), d_rank).is_zero

    @pytest.mark.parametrize("alg", [catalog.jt_real(Fraction(1, 3)),
                                     catalog.solvable5_contact().algebra], ids=["jt", "solvable5"])
    def test_real_derivation_matches_the_per_term_sum(self, alg, rng):
        for _ in range(30):
            degree = rng.randint(0, alg.m)
            f = Form(degree, {tuple(sorted(rng.sample(range(1, alg.m + 1), degree))):
                              ComplexRational(rand_rational(rng)) for _ in range(3)})
            assert alg.d(f) == ref_derivation(f, alg.d_of)

    @given(st.integers(1, 5), st.integers(0, 2**32))
    def test_adjoint_matches_the_per_term_contraction(self, n, seed):
        rng = random.Random(seed)
        metric = rand_metric(rng, n)
        lef = hermitian.Lefschetz(metric)
        for _ in range(3):
            f = rand_kernel_form(rng, n, rng.randint(0, 2 * n), rng.randint(0, 5))
            assert lef.adjoint(f) == ref_adjoint(metric, f)
        assert lef.adjoint(metric.fundamental_form()) == Form.scalar(n)

    @given(st.integers(1, 4), st.integers(0, 2**32))
    def test_minors_and_positivity_on_sampled_and_bumped_metrics(self, n, seed):
        assert_metric_matches_reference(rand_metric(random.Random(seed), n))

    @given(st.integers(1, 4), st.integers(0, 2**32), st.sampled_from(("definite", "semidefinite",
                                                                        "indefinite")))
    def test_minors_and_positivity_on_hermitian_matrices(self, n, seed, kind):
        rng = random.Random(seed)
        if kind == "indefinite":
            h = hermitian_matrix(rng, n)
        else:  # M M*, of full rank plus the identity, or of rank below n
            rank = n if kind == "definite" else rng.randint(0, n - 1)
            m = [[rand_complex(rng) for _ in range(rank)] for _ in range(n)]
            h = [[sum((m[i][t] * m[j][t].conjugate() for t in range(rank)), ZERO)
                  + (ONE if kind == "definite" and i == j else ZERO)
                  for j in range(n)] for i in range(n)]
        metric = hermitian.Metric([[I * v for v in row] for row in h])
        assert_metric_matches_reference(metric)
        if kind != "indefinite":
            assert metric.is_positive() is (kind == "definite")

    @given(st.integers(2, 4), st.integers(0, 2**32))
    def test_bumps_that_change_the_denominator_match_the_reference(self, n, seed):
        rng = random.Random(seed)
        metric = sample_positive_metric(rng, n)
        pairs = index_pairs(n)
        for _ in range(3):
            for rows, cols in pairs:  # memoise every minor before the bump
                metric.minor(rows, cols)
            metric.is_positive()
            # odd denominators: D starts as a power of two, so the first bump moves it
            amount = Fraction(rng.randint(-(10**6), 10**6), rng.choice((3, 7, 10**12 + 39, 3**30)))
            bumped = metric.bump_diagonal(rng.randrange(n), amount)
            assert bumped._den == lcm(metric._den, amount.denominator)
            assert_metric_matches_reference(bumped)
            assert bumped == hermitian.Metric(bumped.x)
            metric = bumped

    def test_empty_metric_is_positive_with_determinant_one(self):
        metric = hermitian.Metric([])
        assert ref_positivity(metric) == (True, 1)
        assert metric.is_positive() is True
        assert metric.det_minus_i_x() == 1
        assert metric.minor((), ()) == ONE


def tuple_minor_ints(num, rows, cols, memo):
    """(re, im) with det X_{rows, cols} = (re + i im)/D^p: the (rows, cols)-keyed
    first-row Laplace recursion over a metric's ints that the minor plan replaced."""
    key = (rows, cols)
    val = memo.get(key)
    if val is None:
        if len(rows) < 2:
            val = num[rows[0]][cols[0]] if rows else (1, 0)
        else:
            row, below = num[rows[0]], rows[1:]
            re = im = 0
            for i, col in enumerate(cols):
                a, b = row[col]
                if a or b:
                    c, e = tuple_minor_ints(num, below, cols[:i] + cols[i + 1:], memo)
                    if i & 1:
                        re -= a * c - b * e
                        im -= a * e + b * c
                    else:
                        re += a * c - b * e
                        im += a * e + b * c
            val = (re, im)
        memo[key] = val
    return val


class TestMinorPlan:
    """Metric minors by plan id against the tuple-keyed recursion and ref_minor."""

    @staticmethod
    def assert_every_id_matches(metric):
        plan, n = metric._plan, metric.n
        for rows, cols in index_pairs(n):  # name every minor, so every id is checked
            plan.id(forms._mask(rows), forms._mask(cols))
        assert len(plan.keys) == comb(2 * n, n)  # sum_p C(n, p)^2 ids, none twice
        x, memo, ref_memo = metric.x, {}, {}
        for i, masks in enumerate(plan.keys):
            rows, cols = map(forms._ranks, masks)
            assert all(sub < i for _, sub, _ in plan.terms[i][1])
            assert metric._minor(i) == tuple_minor_ints(metric._num, rows, cols, memo), masks
            assert metric.minor(rows, cols) == ref_minor(x, rows, cols, ref_memo), masks

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_id_matches_on_sampled_and_bumped_metrics(self, n):
        rng = random.Random(2600 + n)
        metric = sample_positive_metric(rng, n)
        self.assert_every_id_matches(metric)
        # every minor of the base is memoised now; each bump computes its own
        for j, amount in ((0, 3), (n - 1, Fraction(5, 3)), (n // 2, Fraction(-1, 10**12 + 39))):
            bumped = metric.bump_diagonal(j, amount)
            assert bumped._den == lcm(metric._den, Fraction(amount).denominator)
            self.assert_every_id_matches(bumped)
            metric = bumped

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_empty_minor_is_one(self, n):
        metric = sample_positive_metric(random.Random(n), n) if n else hermitian.Metric([])
        assert metric.minor((), ()) == ONE
        if n:
            assert metric.bump_diagonal(0, Fraction(1, 3)).minor((), ()) == ONE


def lee_table_matches_inverse(metric):
    """Whether _cofactor_table over its denominator is X^-1, transposed, exactly."""
    table, den = hermitian._cofactor_table(metric)
    inv = linalg.mat_inverse(metric.x)
    for a in range(metric.n):
        for b in range(metric.n):
            uv = table[forms.holo_rank(a + 1)][forms.conj_rank(b + 1)]  # None: a zero cofactor
            entry = ZERO if uv is None else ComplexRational(*(Fraction(u, den) for u in uv))
            if entry != inv[b][a]:
                return False
    return den > 0


class TestLeeTable:
    """The contraction table over |det X| against linalg.mat_inverse(X)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])  # every n mod 4
    def test_table_over_its_denominator_is_the_inverse(self, n):
        rng = random.Random(2650 + n)
        for metric in (hermitian.Metric.diagonal(n, range(1, n + 1)),
                       sample_positive_metric(rng, n), rand_metric(rng, n), rand_metric(rng, n)):
            assert lee_table_matches_inverse(metric)

    @pytest.mark.parametrize("unit, fails_at", [
        (lambda n, a, b: (-n + 2 * (a + b)) & 3, {1, 3, 5}),  # i^n for (-i)^n
        (lambda n, a, b: (n + 1 + 2 * (a + b)) & 3, {1, 2, 3, 4, 5}),
        (lambda n, a, b: n & 3, {2, 3, 4, 5}),  # the cofactor sign dropped
    ], ids=["i^n", "(-i)^(n+1)", "no-sign"])
    def test_a_wrong_unit_fails(self, monkeypatch, unit, fails_at):
        for n in range(1, 6):
            plan = hermitian._plan(n)
            monkeypatch.setattr(plan, "cofactors", [(r, s, i, unit(n, (r - 1) // 2, (s - 2) // 2))
                                                    for r, s, i, _ in plan.cofactors])
        failed = {n for n in range(1, 6)
                  if not lee_table_matches_inverse(sample_positive_metric(random.Random(n), n))}
        assert failed == fails_at


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchBindings:
    def test_traced_methods_exist(self):
        spans = load_bench_module("spans")
        modules = {"forms": forms, "structures": structures, "hermitian": hermitian,
                   "search": search}
        for layer, classes in spans.METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    assert meth in cls.__dict__, f"{layer}.{cls_name}.{meth}"

    def test_scaling_names_exist(self):
        for module, name in [
            (forms, "wedge"), (hermitian, "omega_power"), (hermitian, "gamma_scalar"),
            (hermitian, "gamma_numerator"), (hermitian, "gauduchon_form"),
            (hermitian, "lee_form"), (hermitian, "classify"), (hermitian, "Lefschetz"),
            (linalg, "ldl"), (search, "sample_positive_metric"),
        ]:
            assert callable(getattr(module, name)), name
        assert callable(hermitian.Lefschetz.Lstar)
