from fractions import Fraction

import pytest

from gauduchon import catalog, dsl
from gauduchon.catalog import Nilpotent6Params, Reduced6Params, classify_reduced6
from gauduchon.errors import BadParams, DimensionMismatch, UnknownFamily
from gauduchon.forms import Form
from gauduchon.hermitian import Metric, gamma_scalar
from gauduchon.scalars import ComplexRational, cr
from gauduchon.search import (
    Target,
    _holds,
    close_scalar_zero,
    find_metric,
    parse_target,
    sample_positive_metric,
)
from gauduchon.structures import StructureEquations

I = ComplexRational(0, 1)


class TestBuilders:
    def test_jt_unit_matches_dsl(self):
        text = "n:3; dw1:0; dw2:0; dw3: w1^w2 + w1^~w1 + w1^~w2 + (1)*w2^~w2"
        assert catalog.build("jt", t=1) == dsl.parse_structure(text)

    def test_family8_origin(self):
        se = catalog.build("family8", p=0, q=0)
        assert se.d_of[3] == Form(2, {(3, 4): cr(-1), (5, 6): cr(-1)})

    def test_iwasawa_entry(self):
        se = catalog.build("iwasawa")
        assert se.d_of[2] == Form(2, {(1, 3): cr(1)})
        assert se.d_of[0].is_zero and se.d_of[1].is_zero

    def test_reduced_is_specialized_nilpotent(self):
        assert catalog.reduced6(1, I, Fraction(1, 2), 2) == catalog.nilpotent6(
            0, 1, 1, I, 0, ComplexRational(Fraction(1, 2), 2)
        )

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            catalog.build("nope")

    def test_bad_params(self):
        with pytest.raises(BadParams):
            catalog.build("jt", t=0)
        with pytest.raises(BadParams):
            catalog.build("nilpotent6", eps=2, rho=0, A=0, B=0, C=0, D=0)
        with pytest.raises(BadParams):
            catalog.build("jt", s=1)

    @pytest.mark.parametrize("name, params", [
        ("jt", {}), ("jt", {"t": 1, "s": 1}), ("iwasawa", {"t": 1}),
        ("family8", {"p": 1}),
    ])
    def test_build_takes_exactly_the_declared_params(self, name, params):
        with pytest.raises(BadParams, match=f"^{name} takes "):
            catalog.build(name, **params)

    @pytest.mark.parametrize("n", [0, -1])
    def test_abelian_needs_positive_n(self, n):
        with pytest.raises(BadParams):
            catalog.abelian(n)
        with pytest.raises(BadParams):
            catalog.build("abelian", n=n)

    def test_list_families(self):
        fams = catalog.list_families()
        assert "jt" in fams and "params" in fams["jt"]

    def test_every_family_validates(self):
        catalog.nonnilpotent6(1, 1)
        catalog.nonnilpotent6(1, -1)
        catalog.nilpotent6(1, 1, cr(5), I, -I, cr(3))
        catalog.family8(Fraction(-7, 2), Fraction(5, 3))


class TestClassifier:
    @pytest.mark.parametrize(
        "rho, B, x, y, label",
        [
            (1, 1, 1, 2, "h2"),          # (a1)
            (0, 0, 1, 0, "h3"),          # (a2)
            (1, 1, 1, 0, "h4"),          # (a3)
            (1, 1, 0, 0, "h6"),          # (a4)
            (0, 0, 0, 0, "h8"),          # (a5)
            (0, 0, 1, 5, "h2"),          # (b1): 100 > 0*4
            (1, 0, 2, Fraction(3, 2), "h4"),  # (b2): 9 = 1*9
            (1, 0, 2, 0, "h5"),          # (b3): 0 < 9
        ],
    )
    def test_case_table(self, rho, B, x, y, label):
        params = Reduced6Params(rho, cr(B), Fraction(x), Fraction(y))
        assert classify_reduced6(params) == label

    def test_total_on_random_points(self, rng):
        labels = set()
        for _ in range(300):
            params = Reduced6Params(
                rng.randint(0, 1),
                ComplexRational(Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 2)),
                Fraction(rng.randint(-4, 4), rng.choice((1, 2))),
                Fraction(rng.randint(-4, 4), rng.choice((1, 2))),
            )
            labels.add(classify_reduced6(params))
        assert labels <= {"h2", "h3", "h4", "h5", "h6", "h8"}

    def test_nonreal_modulus_one(self):
        # |B| = 1 with B = 3/5 + 4/5 i lands in case (a)
        params = Reduced6Params(1, ComplexRational(Fraction(3, 5), Fraction(4, 5)),
                                Fraction(0), Fraction(0))
        assert classify_reduced6(params) == "h6"


class TestClosedForms:
    def test_skt_scalar_examples(self):
        p = Nilpotent6Params(0, 1, cr(1), cr(1), cr(0), cr(1))
        assert catalog.skt_scalar_nilpotent6(p) == 0
        assert catalog.skt_scalar_nilpotent6(
            Reduced6Params(0, cr(0), Fraction(1), Fraction(0)).as_nilpotent6()) == -2

    def test_jt_scalar(self):
        for t in (Fraction(1, 4), Fraction(2), Fraction(1)):
            red = Reduced6Params(1, cr(1), 1 / t, Fraction(0))
            assert catalog.jt_point(t) == red
            assert catalog.skt_scalar_nilpotent6(red.as_nilpotent6()) == 2 - 2 / t
            assert catalog.jt(t) == catalog.reduced6(1, 1, 1 / t, 0)

    def test_family8_gauduchon_zero_point(self):
        m = Metric.diagonal(4, [2, 1, 1, 1])
        assert catalog.gauduchon_obstruction_family8(1, 0, m) == 0
        assert catalog.gauduchon_obstruction_family8(2, 0, m) == -4

    def test_gamma_predictions_match_engine(self, rng):
        for _ in range(20):
            params = Nilpotent6Params(
                rng.randint(0, 1), rng.randint(0, 1),
                ComplexRational(rng.randint(-2, 2), rng.randint(-2, 2)),
                ComplexRational(rng.randint(-2, 2), rng.randint(-2, 2)),
                ComplexRational(rng.randint(-2, 2), rng.randint(-2, 2)),
                ComplexRational(rng.randint(-2, 2), rng.randint(-2, 2)),
            )
            se = catalog.nilpotent6(params.eps, params.rho, params.A, params.B,
                                    params.C, params.D)
            m = sample_positive_metric(rng, 3)
            assert gamma_scalar(m, 1, se) == catalog.gamma1_nilpotent6(params, m)
        for sign in (1, -1):
            se = catalog.nonnilpotent6(0, sign)
            m = sample_positive_metric(rng, 3)
            assert gamma_scalar(m, 1, se) == catalog.gamma1_nonnilpotent6(m)
        se = catalog.family8(Fraction(1, 2), Fraction(-3))
        m = sample_positive_metric(rng, 4)
        assert gamma_scalar(m, 1, se) == catalog.gamma1_family8(
            Fraction(1, 2), Fraction(-3), m
        )

    def test_balanced_oracle_matches_engine(self, rng):
        from gauduchon.forms import wedge

        for p, q in ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(2)),
                     (Fraction(-1), Fraction(0))):
            se = catalog.family8(p, q)
            for _ in range(10):
                m = sample_positive_metric(rng, 4)
                omega = m.fundamental_form()
                engine = se.d(wedge(wedge(omega, omega), omega)).is_zero
                assert engine == catalog.balanced_obstruction_family8(p, q, m)["holds"]


class TestExactOnlyOracles:
    """The closed-form oracles read their params as exact rationals: a float
    or a bool raises TypeError, and a decimal string stays exact."""

    def test_certified_jt(self):
        for t in (0.1, True):
            with pytest.raises(TypeError):
                catalog.certified("jt", t)
        assert catalog.certified("jt", "0.5")["skt"]["K"] == "-2"
        assert catalog.certified("jt", "1/10")["skt"]["K"] == "-18"

    def test_gauduchon_obstruction_family8(self):
        m = Metric.diagonal(4, [2, 1, 1, 1])
        for p, q in ((0.1, 0), (1, 0.0), (True, 0)):
            with pytest.raises(TypeError):
                catalog.gauduchon_obstruction_family8(p, q, m)
        assert catalog.gauduchon_obstruction_family8("0.5", "0", m) == \
            catalog.gauduchon_obstruction_family8(Fraction(1, 2), 0, m) == 2

    def test_balanced_obstruction_family8(self):
        m = Metric.diagonal(4, [2, 1, 1, 1])
        for p, q in ((0.5, 0), (1, 0.0), (1, False)):
            with pytest.raises(TypeError):
                catalog.balanced_obstruction_family8(p, q, m)
        assert catalog.balanced_obstruction_family8("0.5", "0", m) == \
            catalog.balanced_obstruction_family8(Fraction(1, 2), 0, m)

    def test_certified(self):
        for params in ((0.1, 0), (1, 0.5), (True, 0)):
            with pytest.raises(TypeError):
                catalog.certified("family8", params)
        assert catalog.certified("family8", ("-0.5", "0")) == \
            catalog.certified("family8", (Fraction(-1, 2), 0))

    def test_closing_scalar(self):
        for params in ((0.5, 0), (1, 0.0), (1, False)):
            with pytest.raises(TypeError):
                catalog.closing_scalar("family8", params, "balanced")
        m = Metric.diagonal(4, [2, 1, 1, 1])
        scalar = catalog.closing_scalar("family8", ("0.5", "0"), "balanced")
        assert scalar(m) == catalog.balanced_obstruction_family8(Fraction(1, 2), 0, m)["defect"]


class TestOracleDomains:
    """Params outside a family's domain raise BadParams (a BadInput, so exit 2
    through the CLI) with the builder's message, never a bare builtin error."""

    @pytest.mark.parametrize("call", [
        lambda t: catalog.jt(t),
        lambda t: catalog.jt_real(t),
        lambda t: catalog.jt_coframe(t),
        lambda t: catalog.certified("jt", t),
    ], ids=["jt", "jt_real", "jt_coframe", "certified"])
    @pytest.mark.parametrize("t", [0, "0/5", Fraction(0)])
    def test_jt_at_zero(self, call, t):
        with pytest.raises(BadParams, match="^t must be nonzero$"):
            call(t)

    @pytest.mark.parametrize("params", [(1,), (1, 2, 3), 1, None],
                             ids=["one", "three", "int", "none"])
    @pytest.mark.parametrize("call", [
        lambda params: catalog.certified("family8", params),
        lambda params: catalog.closing_scalar("family8", params, "balanced"),
    ], ids=["certified", "closing_scalar"])
    def test_family8_needs_a_pair(self, call, params):
        with pytest.raises(BadParams, match=r"^family8 takes a pair \(p, q\), got "):
            call(params)

    # params of the wrong shape, read by each closed-form entry point through
    # the family's one reader: BadParams names the family and what it takes
    @pytest.mark.parametrize("call, message", [
        (lambda: catalog.certified("reduced6", None), "reduced6 takes a Reduced6Params, got None"),
        (lambda: catalog.certified("nilpotent6", (1, 2)),
         r"nilpotent6 takes a Nilpotent6Params, got \(1, 2\)"),
        (lambda: catalog.certified("nonnilpotent6", 5), "nonnilpotent6 takes no params, got 5"),
        (lambda: catalog.certified("jt", (1, 2)), r"jt takes a nonzero rational t, got \(1, 2\)"),
        (lambda: catalog.certified("jt", None), "jt takes a nonzero rational t, got None"),
        (lambda: catalog.jt(None), "jt takes a nonzero rational t, got None"),
        (lambda: catalog.closing_scalar("reduced6", 1, "balanced"),
         "reduced6 takes a Reduced6Params, got 1"),
        (lambda: catalog.closing_scalar("nilpotent6", Reduced6Params(1, cr(1), 0, 0), "skt"),
         "nilpotent6 takes a Nilpotent6Params, got Reduced6Params"),
        (lambda: catalog.family_params("reduced6", catalog.jt(1), (1, 2)),
         r"reduced6 takes a Reduced6Params, got \(1, 2\)"),
        (lambda: catalog.family_params("jt", catalog.jt(1), (1, 2)),
         r"jt takes a nonzero rational t, got \(1, 2\)"),
        (lambda: find_metric(catalog.jt(1), Target("skt"), budget=1, family="reduced6",
                             params=(1, 2)), r"reduced6 takes a Reduced6Params, got \(1, 2\)"),
        (lambda: find_metric(catalog.iwasawa(), Target("skt"), budget=1, family="nilpotent6",
                             params=5), "nilpotent6 takes a Nilpotent6Params, got 5"),
        (lambda: find_metric(catalog.nonnilpotent6(0, 1), Target("skt"), budget=1,
                             family="nonnilpotent6", params=(0, 1)),
         r"nonnilpotent6 takes no params, got \(0, 1\)"),
    ], ids=["certified-reduced6", "certified-nilpotent6", "certified-nonnilpotent6",
            "certified-jt-pair", "certified-jt-none", "jt-none", "closing-reduced6",
            "closing-nilpotent6", "family_params-reduced6", "family_params-jt",
            "find_metric-reduced6", "find_metric-nilpotent6", "find_metric-nonnilpotent6"])
    def test_params_of_the_wrong_shape(self, call, message):
        with pytest.raises(BadParams, match=f"^{message}"):
            call()


class TestOracleDimensions:
    """The closed forms that read a metric raise DimensionMismatch on one of
    another n than their family's: 3 for the six-dimensional ones, 4 for family8."""

    @pytest.mark.parametrize("call, n", [
        (lambda m: catalog.gamma1_nilpotent6(Nilpotent6Params(0, 1, *[cr(0)] * 4), m), 3),
        (catalog.gamma1_nonnilpotent6, 3),
        (lambda m: catalog.gauduchon_obstruction_family8(1, 0, m), 4),
        (lambda m: catalog.gamma1_family8(1, 0, m), 4),
        (lambda m: catalog.balanced_obstruction_family8(1, 0, m), 4),
    ], ids=["gamma1_nilpotent6", "gamma1_nonnilpotent6", "gauduchon_obstruction_family8",
            "gamma1_family8", "balanced_obstruction_family8"])
    @pytest.mark.parametrize("shift", [-1, 1], ids=["smaller", "larger"])
    def test_dimension_mismatch(self, call, n, shift):
        with pytest.raises(DimensionMismatch,
                           match=f"^metric has n = {n + shift}, the structure n = {n}$"):
            call(Metric.diagonal(n + shift))


class TestContactEntries:
    def test_solvable5_contact_data_valid(self):
        c = catalog.solvable5_contact()
        assert c.m == 5
        assert c.algebra.d(c.Phi).is_zero

    def test_heisenberg_is_sasakian(self):
        c = catalog.heisenberg5_contact()
        assert c.algebra.d(c.eta) == c.Phi

    def test_custom_curvature_validated(self):
        from gauduchon.errors import NotQuasiSasakian

        not_closed = Form(2, {(2, 4): cr(1)})  # d(e24) = e134 on solvable5
        with pytest.raises(NotQuasiSasakian, match="not closed"):
            catalog.solvable5_contact(F=not_closed)
        not_invariant = Form(2, {(1, 2): cr(1)})  # closed but not phi-invariant
        with pytest.raises(NotQuasiSasakian, match="phi-invariant"):
            catalog.solvable5_contact(F=not_invariant)


# (family, build, params as the closed forms take them): every family, both
# eps, K of each sign, complex and negative parameters
FACT_POINTS = [
    ("nilpotent6", catalog.nilpotent6(0, 1, 1, Fraction(1, 2), 0, 2),
     Nilpotent6Params(0, 1, cr(1), cr(Fraction(1, 2)), cr(0), cr(2))),
    ("nilpotent6", catalog.nilpotent6(0, 0, 1, ComplexRational(-1, 1), 0, 1),
     Nilpotent6Params(0, 0, cr(1), ComplexRational(-1, 1), cr(0), cr(1))),
    ("nilpotent6", catalog.nilpotent6(1, 0, 0, 0, 2 * I, 0),
     Nilpotent6Params(1, 0, cr(0), cr(0), 2 * I, cr(0))),
    ("nilpotent6", catalog.nilpotent6(1, 1, 0, -I, 0, 0),
     Nilpotent6Params(1, 1, cr(0), -I, cr(0), cr(0))),
    ("reduced6", catalog.reduced6(1, 0, 1, 0), Reduced6Params(1, cr(0), Fraction(1), Fraction(0))),
    ("reduced6", catalog.reduced6(1, 1, 0, 0), Reduced6Params(1, cr(1), Fraction(0), Fraction(0))),
    ("reduced6", catalog.reduced6(0, I, Fraction(-1, 2), 3),
     Reduced6Params(0, I, Fraction(-1, 2), Fraction(3))),
    ("jt", catalog.jt(Fraction(1, 2)), Fraction(1, 2)),
    ("jt", catalog.jt(1), Fraction(1)),
    ("jt", catalog.jt(-1), Fraction(-1)),
    ("family8", catalog.family8(1, 0), (Fraction(1), Fraction(0))),
    ("family8", catalog.family8(1, 2), (Fraction(1), Fraction(2))),
    ("family8", catalog.family8(Fraction(-1, 2), 0), (Fraction(-1, 2), Fraction(0))),
    ("family8", catalog.family8(0, 0), (Fraction(0), Fraction(0))),
    ("family8", catalog.family8(-2, 1), (Fraction(-2), Fraction(1))),
    ("nonnilpotent6", catalog.nonnilpotent6(0, 1), None),
    ("nonnilpotent6", catalog.nonnilpotent6(1, -1), None),
]


class TestCertifiedFacts:
    """catalog.certified against sampling: a fact about every metric must
    hold on each of 30 sampled positive metrics."""

    @pytest.fixture(scope="class")
    def samples(self):
        import random

        rng = random.Random(0xFAC7)
        return {n: [sample_positive_metric(rng, n) for _ in range(30)] for n in (3, 4)}

    @pytest.mark.parametrize("family, se, params", FACT_POINTS,
                             ids=[f"{f}-{i}" for i, (f, _, _) in enumerate(FACT_POINTS)])
    def test_facts_hold_on_samples(self, samples, family, se, params):
        facts = catalog.certified(family, params)
        assert facts
        for text, cert in facts.items():
            target = parse_target(text)
            held = [_holds(se, target, m) for m in samples[se.n]]
            if cert is None:
                assert all(held), text
            else:
                assert not any(held), text
                assert cert["name"] and cert["reason"]

    @pytest.mark.parametrize("family, se, params", FACT_POINTS,
                             ids=[f"{f}-{i}" for i, (f, _, _) in enumerate(FACT_POINTS)])
    def test_params_are_read_off_the_build(self, family, se, params):
        assert catalog.family_params(family, se) == params

    def test_nilpotent6_with_eps_one_reads_a_and_d_as_zero(self):
        se = catalog.nilpotent6(1, 1, 5, 1, 0, I)
        assert catalog.family_params("nilpotent6", se) == Nilpotent6Params(
            1, 1, cr(0), cr(1), cr(0), cr(0))

    @pytest.mark.parametrize("family, se", [
        ("nonnilpotent6", catalog.jt(Fraction(1, 2))),
        ("jt", catalog.family8(1, 2)),
        ("jt", catalog.reduced6(1, 1, 0, 0)),  # D = 0: no t
        ("jt", catalog.reduced6(1, 1, 2, 1)),  # D not real
        ("reduced6", catalog.nilpotent6(0, 1, 2, 1, 0, 1)),  # A != 1
        ("nilpotent6", StructureEquations(  # eps = 2
            3, [Form.zero(), Form(2, {(1, 2): cr(2)}), Form.zero()])),
        ("family8", catalog.iwasawa()),
        ("family8", catalog.abelian(4)),
    ])
    def test_not_a_build(self, family, se):
        with pytest.raises(BadParams, match=f"not a build of {family}"):
            catalog.family_params(family, se)

    @pytest.mark.parametrize("family", ["iwasawa", "abelian", "bogus"])
    def test_no_closed_forms(self, family):
        with pytest.raises(UnknownFamily):
            catalog.family_params(family, catalog.iwasawa())
        assert catalog.certified(family, None) == {}

    def test_closing_scalar_zero_is_balanced(self, rng):
        balanced = parse_target("balanced")
        closed = 0
        for p in (Fraction(1), Fraction(3, 2), Fraction(5)):
            se = catalog.family8(p, 0)
            scalar = catalog.closing_scalar("family8", (p, Fraction(0)), "balanced")
            for _ in range(5):
                zero = close_scalar_zero(sample_positive_metric(rng, 4), scalar)
                if zero is not None:
                    assert zero.is_positive() and _holds(se, balanced, zero)
                    closed += 1
        assert closed >= 5
        assert catalog.closing_scalar("family8", (Fraction(1), Fraction(2)), "balanced") is None
        assert catalog.closing_scalar("family8", (Fraction(1), Fraction(0)), "skt") is None
        assert catalog.closing_scalar("jt", Fraction(1), "balanced") is None
