from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauduchon import catalog, dsl
from gauduchon.errors import (BadParams, DimensionMismatch, DslSyntaxError, JacobiViolation,
                              NotIntegrable)
from gauduchon.forms import Form
from gauduchon.scalars import ComplexRational, cr


# Each input with its canonical format_structure text, its DslSyntaxError
# (line, col, message), or the class that the structure checks raise on it.
GOLDEN = [
    ('n:2; dw1:0; dw2:0', 'n: 2\ndw1: 0\ndw2: 0\n'),
    ('n:1; dw1: 0', 'n: 1\ndw1: 0\n'),
    ('n:3; dw1:0; dw2:0; dw3: w1^w2 + w1^~w1 + w1^~w2 + (1)*w2^~w2',
     'n: 3\ndw1: 0\ndw2: 0\ndw3: w1^~w1 + w1^w2 + w1^~w2 + w2^~w2\n'),
    ('# header\nn: 2\n\ndw1: 0  # trailing\ndw2: 0\n', 'n: 2\ndw1: 0\ndw2: 0\n'),
    ('n:\t2\r\ndw1:\t0\r\ndw2: 0\r\n', 'n: 2\ndw1: 0\ndw2: 0\n'),
    ('n: 3\ndw1: 0\ndw2: 0\ndw3: (1 / 2 + 3 i)*w1^w2',
     'n: 3\ndw1: 0\ndw2: 0\ndw3: (1/2+3i)*w1^w2\n'),
    ('n:2 dw1: 0; dw2: 0', 'n: 2\ndw1: 0\ndw2: 0\n'),
    ('n:2;;; dw1:0;;dw2:0;', 'n: 2\ndw1: 0\ndw2: 0\n'),
    ('n:3; dw1:0; dw2:0; dw3: -w1^w2', 'n: 3\ndw1: 0\ndw2: 0\ndw3: (-1)*w1^w2\n'),
    ('n:3; dw1:0; dw2:0; dw3: -i*w1^~w1', (1, 26, "expected generator, found 'i'")),
    ('n:3; dw1:0; dw2:0; dw3: i*w1^~w1', (1, 25, "expected generator, found 'i'")),
    ('n:3; dw1:0; dw2:0; dw3: 2-3/4i*w1^~w2', 'n: 3\ndw1: 0\ndw2: 0\ndw3: (2-3/4i)*w1^~w2\n'),
    ('n:3; dw1:0; dw2:0; dw3: 3i*w1^w2', 'n: 3\ndw1: 0\ndw2: 0\ndw3: (3i)*w1^w2\n'),
    ('n:3; dw1:0; dw2:0; dw3: 1+i*w1^w2', 'n: 3\ndw1: 0\ndw2: 0\ndw3: (1+1i)*w1^w2\n'),
    ('n:3; dw1:0; dw2:0; dw3: 1 - 2 i * w1^w2', 'n: 3\ndw1: 0\ndw2: 0\ndw3: (1-2i)*w1^w2\n'),
    ('n:3\ndw3: w1^w2\ndw1: 0\ndw2: 0', 'n: 3\ndw1: 0\ndw2: 0\ndw3: w1^w2\n'),
    ('n:3; dw1:0; dw2:0; dw3: 0 ', 'n: 3\ndw1: 0\ndw2: 0\ndw3: 0\n'),
    ('n:3; dw1:0; dw2:0; dw3: 0*w1^w2', 'n: 3\ndw1: 0\ndw2: 0\ndw3: 0\n'),
    ('n:2; dw1: 0; dw2: w1^~w1 - w1^~w1', 'n: 2\ndw1: 0\ndw2: 0\n'),
    ('n:3; dw1:0; dw2:0; dw3: (-1/2-1/3i)*w1^~w2',
     'n: 3\ndw1: 0\ndw2: 0\ndw3: (-1/2-1/3i)*w1^~w2\n'),
    ('n:3; dw1:0; dw2:0; dw3: (-i)*w1^w2', 'n: 3\ndw1: 0\ndw2: 0\ndw3: (-1i)*w1^w2\n'),
    ('n:3; dw1:0; dw2:0; dw3: (2/4)*w1^w2 + (6/-3)*w1^~w1', (1, 42, "expected 'int', found '-'")),
    ('n:3; dw1:0; dw2:0; dw3: 1/2i*w1^w2', 'n: 3\ndw1: 0\ndw2: 0\ndw3: (1/2i)*w1^w2\n'),
    ('n:3; dw1:0; dw2:0; dw3: w1^w2 # comment, no newline', 'n: 3\ndw1: 0\ndw2: 0\ndw3: w1^w2\n'),
    ('n:3; dw1:0; dw2:0; dw3: ~ w1 ^ w2 - w2 ^ ~w1', 'n: 3\ndw1: 0\ndw2: 0\ndw3: (2)*~w1^w2\n'),
    ('n:3; dw1:0; dw2:0; dw3: (1+i)*w1^w2 + (2+3/4i)*w1^~w1 - (5i)*w2^~w2',
     'n: 3\ndw1: 0\ndw2: 0\ndw3: (2+3/4i)*w1^~w1 + (1+1i)*w1^w2 + (-5i)*w2^~w2\n'),
    ('n:3\n\n# blank lines and comments\n\ndw1: 0\n  dw2: 0   \ndw3: w1^w2 +\tw1^~w1\n\n',
     'n: 3\ndw1: 0\ndw2: 0\ndw3: w1^~w1 + w1^w2\n'),
    ('n 3; dw1: 0', (1, 3, "expected ':', found '3'")),
    ('n: x', (1, 4, "expected 'int', found 'x'")),
    ('n:3; dw1:0; dw2:0; dw3: w1^', (1, 28, "expected 'name', found ''")),
    ('n:2\ndw1: 0\ndw2: w1^\n', (3, 9, "expected 'name', found ';'")),
    ('n:3; dw1:0; dw2:0; dw3: (1/0)*w1^w2', (1, 29, 'zero denominator')),
    ('n:3; dw1:0; dw2:0; dw3: (1/0i)*w1^w2', (1, 29, 'zero denominator')),
    ('n:3; dw1:0; dw2:0; dw3: (1+1/0i)*w1^w2', (1, 27, "expected ')', found '+'")),
    ('n:3; dw1:0; dw2:0; dw3: 1+1/0i*w1^w2', (1, 26, "expected '*', found '+'")),
    ('n:3; dw1:0; dw2:0; dw3: 2 + w1^w2', (1, 27, "expected '*', found '+'")),
    ('n:3; dw1:0; dw2:0; dw3: (1/2+1/4)*w1^w2', (1, 29, "expected ')', found '+'")),
    ('n:2; n:2; dw1:0; dw2:0', (1, 6, "duplicate 'n' header")),
    ('n:0', (1, 1, 'n must be >= 1')),
    ('dw1: 0', (1, 1, "'n' header must come first")),
    ('n:2; dw1:0; dw5: 0', (1, 13, 'generator w5 outside 1..2')),
    ('n:2; dw0: 0', (1, 6, 'generator w0 outside 1..2')),
    ('n:2; dw1:0; dw2: 0; dw2: 0', (1, 21, 'duplicate dw2')),
    ('n:2; w1: 0', (1, 6, "expected 'n' or 'dw<j>', found 'w'")),
    ('m: 2', (1, 1, "expected 'n' or 'dw<j>', found 'm'")),
    ('', (1, 1, "missing 'n' header")),
    ('# only a comment\n', (1, 1, "missing 'n' header")),
    (';;\n;', (1, 1, "missing 'n' header")),
    ('n:2; dw1:0', (1, 1, 'missing equations for dw[2]')),
    ('n:3', (1, 1, 'missing equations for dw[1, 2, 3]')),
    ('n: 99999999999999999999999999; dw1: 0',
     (1, 1, 'missing equations for dw[2, 3, 4, 5, 6, 7, 8, 9, ...]')),
    ('n:9; dw2: 0', (1, 1, 'missing equations for dw[1, 3, 4, 5, 6, 7, 8, 9]')),
    # INT literals beyond the interpreter's 4300-digit int-string limit
    ('n: ' + '9' * 5000 + '; dw1: 0', (1, 4, 'integer literal too long (5000 digits)')),
    ('n:3; dw1:0; dw2:0\ndw3: (1+' + '7' * 5000 + 'i)*w1^w2',
     (2, 9, 'integer literal too long (5000 digits)')),
    ('n:3; dw1:0; dw2:0; dw3: w1^~w1 + w1', (1, 34, 'cannot add forms of degrees 2 and 1')),
    ('n:3; dw1:0; dw2:0; dw3: w1 - (1/2)*w1^~w1', (1, 30, 'cannot add forms of degrees 1 and 2')),
    ('n:3; dw1:0; dw2:0; dw3: w1 - w1 + w1^~w1', 'n: 3\ndw1: 0\ndw2: 0\ndw3: w1^~w1\n'),
    ('n:2; dw1:0; dw2: x1^w1', (1, 18, "expected generator, found 'x'")),
    ('n:2; dw1: 0; dw2: i*w1', (1, 19, "expected generator, found 'i'")),
    ('n:2; dw1:0; dw2: w1^w9', (1, 21, 'generator w9 outside 1..2')),
    ('n:2; dw1:0; dw2: w0^w1', (1, 18, 'generator w0 outside 1..2')),
    ('n: 2\r\ndw1:\t0\r\ndw2:\tw1 ^ w9\r\n', (3, 11, 'generator w9 outside 1..2')),
    ('n:2; dw1:0; dw2: w1 @ w2', (1, 21, "unexpected character '@'")),
    ('n:2; dw1:0; dw2: w1.w2', (1, 20, "unexpected character '.'")),
    ('n 2; dw1: 0 $', (1, 13, "unexpected character '$'")),
    ('n:2\ndw1: 0\n\tdw2: w1 ^ w2 \x0c', (3, 15, "unexpected character '\\x0c'")),
    ('n:2; dw1: 0; dw2: w1^w2 )', (1, 25, "expected 'name', found ')'")),
    ('n:2; dw1: 0; dw2: w1 w2', (1, 22, "expected 'n' or 'dw<j>', found 'w'")),
    # a differential that is not a 2-form, reported at its dw token
    ('n:2; dw1:0; dw2: w1', (1, 13, 'dw2 must be a 2-form, got degree 1')),
    ('n:2; dw1: 0; dw2: --w1^w2', (1, 20, "expected 'name', found '-'")),
    ('n:2; dw1:0; dw2: ~w1^~w2', NotIntegrable),
    ('n:3; dw1: w2^w3; dw2: w1^w3; dw3: 0', 'n: 3\ndw1: w2^w3\ndw2: w1^w3\ndw3: 0\n'),
    ('n:2; dw1: w2^~w2; dw2: w1^~w1', JacobiViolation),
]


@pytest.mark.parametrize("text, expected", GOLDEN)
def test_golden_corpus(text, expected):
    if isinstance(expected, str):
        assert dsl.format_structure(dsl.parse_structure(text)) == expected
    elif isinstance(expected, tuple):
        with pytest.raises(DslSyntaxError) as info:
            dsl.parse_structure(text)
        assert (info.value.line, info.value.col, info.value.message) == expected
    else:
        with pytest.raises(expected):
            dsl.parse_structure(text)


def test_tokens_are_ascii():
    # str.isdigit() holds for the Arabic-Indic three, which int() reads as 3
    with pytest.raises(DslSyntaxError) as info:
        dsl.parse_structure("n: \u0663; dw1: 0; dw2: 0; dw3: 0")
    assert (info.value.line, info.value.col) == (1, 4)
    assert info.value.message == "unexpected character '\u0663'"


class TestParse:
    def test_jt_at_one(self):
        text = "n:3; dw1:0; dw2:0; dw3: w1^w2 + w1^~w1 + w1^~w2 + (1)*w2^~w2"
        assert dsl.parse_structure(text) == catalog.jt(1)

    def test_abelian(self):
        se = dsl.parse_structure("n:2; dw1:0; dw2:0")
        assert se == catalog.abelian(2)

    def test_pure_02_term_rejected(self):
        with pytest.raises(NotIntegrable) as info:
            dsl.parse_structure("n:2; dw1:0; dw2: ~w1^~w2")
        assert info.value.generator == 2
        assert info.value.residual == Form(2, {(2, 4): cr(1)})

    def test_complex_literals(self):
        se = dsl.parse_structure("n: 3\ndw1: 0\ndw2: 0\ndw3: (1/2+1/4i)*w1^~w2")
        assert se.d_of[2] == Form(2, {(1, 4): ComplexRational(Fraction(1, 2), Fraction(1, 4))})
        for lit, expected in [
            ("i", ComplexRational(0, 1)),
            ("-i", ComplexRational(0, -1)),
            ("1+i", ComplexRational(1, 1)),
            ("2-3/4i", ComplexRational(2, Fraction(-3, 4))),
            ("-5/2", ComplexRational(Fraction(-5, 2))),
            ("3i", ComplexRational(0, 3)),
        ]:
            assert dsl.parse_complex_literal(lit) == expected

    def test_minus_separates_terms(self):
        se = dsl.parse_structure("n:2; dw1:0; dw2: w1^w2 - w1^~w1")
        assert se.d_of[1] == Form(2, {(1, 3): cr(1), (1, 2): cr(-1)})

    def test_mixed_denominators_sum_over_their_lcm(self):
        # 150 each of 1/2 and 1/3 on w1^~w1, alternating: the sum stays over 6
        expr = " + ".join(["1/2*w1^~w1", "1/3*w1^~w1"] * 150)
        assert dsl._expr(dsl._tokens(expr), 0, 2)[0] == {(1, 2): (750, 0, 6)}
        se = dsl.parse_structure("n: 2; dw1: 0; dw2: " + expr)
        assert se.d_of[1] == Form(2, {(1, 2): cr(125)})

    def test_comments_and_blank_lines(self):
        text = "# header comment\nn: 2\n\ndw1: 0  # trailing\ndw2: 0\n"
        assert dsl.parse_structure(text) == catalog.abelian(2)

    @pytest.mark.parametrize(
        "text, line, col",
        [
            ("n:3; dw1:0; dw2:0; dw3: w1^", 1, 28),
            ("dw1: 0", 1, 1),
            ("n:2; dw1:0; dw5: 0", 1, 13),
            ("n:2; dw1:0; dw2: w1^w9", 1, 21),
            ("n:2; dw1:0", 1, 1),
            ("n:2; dw1:0; dw2: 0; dw2: 0", 1, 21),
        ],
    )
    def test_errors_carry_position(self, text, line, col):
        with pytest.raises(DslSyntaxError) as info:
            dsl.parse_structure(text)
        assert info.value.line == line
        assert info.value.col == col

    def test_unexpected_character(self):
        with pytest.raises(DslSyntaxError):
            dsl.parse_structure("n:2; dw1:0; dw2: w1 @ w2")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "se",
        [
            catalog.iwasawa(),
            catalog.jt(Fraction(1, 2)),
            catalog.nonnilpotent6(1, -1),
            catalog.family8(Fraction(3, 2), Fraction(-1, 3)),
            catalog.abelian(4),
            catalog.nilpotent6(1, 0, 0, ComplexRational(1, 2), ComplexRational(0, -1), 0),
        ],
    )
    def test_print_parse_identity(self, se):
        assert dsl.parse_structure(dsl.format_structure(se)) == se

    @pytest.mark.parametrize(
        "se",
        [catalog.iwasawa(), catalog.family8(1, 1), catalog.nonnilpotent6(0, 1)],
    )
    def test_json_mirror(self, se):
        spec = dsl.structure_to_json(se)
        assert spec["n"] == se.n
        assert dsl.structure_from_json(spec) == se

    def test_json_uses_rational_strings(self):
        spec = dsl.structure_to_json(catalog.jt(Fraction(1, 3)))
        flat = [term for eq in spec["equations"] for term in eq]
        assert {"re": "3", "im": "0", "mon": [["w", 2], ["cw", 2]]} in flat

    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    @settings(max_examples=40, deadline=None)
    @given(
        rho=st.integers(0, 1),
        b=st.builds(ComplexRational, rationals, rationals),
        x=rationals,
        y=rationals,
    )
    def test_random_reduced_family_round_trips(self, rho, b, x, y):
        se = catalog.reduced6(rho, b, x, y)
        assert dsl.parse_structure(dsl.format_structure(se)) == se
        assert dsl.structure_from_json(dsl.structure_to_json(se)) == se

    def test_real_form_json(self):
        f = Form(2, {(1, 4): cr(2), (2, 3): cr(Fraction(-1, 2))})
        assert dsl.real_form_from_json(dsl.real_form_to_json(f)) == f


class TestJsonIntegers:
    """n, dim, generator indices and real-form ranks are ints >= 1."""

    def abelian2(self, mon):
        return {"n": 2, "equations": [[], [{"re": "1", "im": "0", "mon": mon}]]}

    @pytest.mark.parametrize("j", [0, -1])
    def test_generator_index_below_one(self, j):
        with pytest.raises(BadParams, match=rf"^equations\[1\]\[0\]\.mon: expected an "
                                             rf"integer >= 1, found {j}$"):
            dsl.structure_from_json(self.abelian2([["w", j], ["cw", 1]]))

    @pytest.mark.parametrize("bad", [1.9, 1.0, "1", None])
    def test_index_that_is_not_an_int(self, bad):
        with pytest.raises(BadParams, match=r"^equations\[1\]\[0\]\.mon: "):
            dsl.structure_from_json(self.abelian2([["w", bad], ["cw", 1]]))
        with pytest.raises(BadParams, match="^n: "):
            dsl.structure_from_json({"n": bad, "equations": [[]]})

    def test_real_form_rank_below_one(self):
        with pytest.raises(DimensionMismatch):
            dsl.real_form_from_json([{"coef": "1", "mon": [0, 2]}])

    def test_metric_n_below_one(self):
        with pytest.raises(BadParams, match="^n: expected an integer >= 1, found 0$"):
            dsl.metric_from_json({"n": 0, "X": []})
