import inspect
import typing
from fractions import Fraction

import pytest

from gauduchon import catalog, hermitian, search
from gauduchon.catalog import Reduced6Params
from gauduchon.errors import BadK, BadParams
from gauduchon.hermitian import gamma_scalar, gauduchon_form, omega_power
from gauduchon.sasakian import bundle_extend
from gauduchon.scalars import cr
from gauduchon.search import (
    Target,
    balanced_feasibility_jt,
    close_scalar_zero,
    find_metric,
    parse_target,
    sample_positive_metric,
)


class TestTargets:
    @pytest.mark.parametrize(
        "text, kind, k",
        [
            ("gamma1<0", "gamma_negative", 1),
            ("gamma2>0", "gamma_positive", 2),
            ("gauduchon1=0", "gauduchon_zero", 1),
            ("skt", "skt", None),
            ("balanced", "balanced", None),
        ],
    )
    def test_parse(self, text, kind, k):
        target = parse_target(text)
        assert target.kind == kind and target.k == k
        assert target.describe() == text

    # (kind, k, describe()) per string, or None for BadParams; k is read by int(), so
    # blanks, a sign and an underscore inside the index are accepted
    @pytest.mark.parametrize(
        "text, parsed",
        [
            ("  skt\n", ("skt", None, "skt")),
            ("gamma 1<0", ("gamma_negative", 1, "gamma1<0")),
            ("gamma1_0<0", ("gamma_negative", 10, "gamma10<0")),
            ("gamma-1<0", ("gamma_negative", -1, "gamma-1<0")),
            ("gamma+2>0", ("gamma_positive", 2, "gamma2>0")),
            ("gauduchon 3 =0", ("gauduchon_zero", 3, "gauduchon3=0")),
            ("gamma1>0 ", ("gamma_positive", 1, "gamma1>0")),
            ("gamma<0", None),
            ("gauduchon=0", None),
            ("gamma1=0", None),
            ("SKT", None),
            ("gauduchon1<0", None),
            ("gamma1<0<0", None),
            ("balanced1", None),
            ("", None),
        ],
    )
    def test_parse_table(self, text, parsed):
        if parsed is None:
            with pytest.raises(BadParams):
                parse_target(text)
        else:
            target = parse_target(text)
            assert (target.kind, target.k, target.describe()) == parsed

    def test_parse_rejects_garbage(self):
        with pytest.raises(BadParams):
            parse_target("gamma<0")
        with pytest.raises(BadParams):
            Target("gamma_negative")  # missing k

    # an int k (not a bool) exactly for the kinds spelled with {k}; the range
    # 1..n-1 is find_metric's check (BadK), as it needs n
    @pytest.mark.parametrize("kind, k, error", [
        ("gamma_negative", True, "needs an int k, got True"),
        ("gamma_positive", 1.0, "needs an int k, got 1.0"),
        ("gauduchon_zero", "1", "needs an int k, got '1'"),
        ("gamma_negative", None, "needs an int k, got None"),
        ("skt", 5, "takes no k, got 5"),
        ("balanced", 0, "takes no k, got 0"),
        ("skt", False, "takes no k, got False"),
        ("gamma_negative", 2, None),
        ("gamma_negative", -1, None),
        ("balanced", None, None),
    ])
    def test_k_checked(self, kind, k, error):
        if error is None:
            assert Target(kind, k).k == k
        else:
            with pytest.raises(BadParams, match=f"^target {kind} {error}$"):
                Target(kind, k)


class TestSampling:
    def test_samples_are_positive(self, rng):
        import random

        r = random.Random(11)
        for n in (2, 3, 4):
            for _ in range(20):
                assert sample_positive_metric(r, n).is_positive()

    def test_determinism(self):
        se = catalog.reduced6(1, 0, 1, 0)
        a = find_metric(se, Target("gamma_negative", 1), budget=50, seed=123)
        b = find_metric(se, Target("gamma_negative", 1), budget=50, seed=123)
        assert a.to_json() == b.to_json()

    def test_budget_validated(self):
        with pytest.raises(BadParams, match="^budget must be positive$"):
            find_metric(catalog.abelian(2), Target("skt"), budget=0)

    @pytest.mark.parametrize("budget", [True, 1.0])
    def test_budget_is_an_int(self, budget):
        # budget=True used to sample once and write "budget": true
        with pytest.raises(TypeError, match=r"^budget must be an int, got "):
            find_metric(catalog.iwasawa(), Target("skt"), budget=budget)

    @pytest.mark.parametrize("k", [0, 3, 9])
    def test_k_out_of_range_rejected_before_sampling(self, k):
        with pytest.raises(BadK):
            find_metric(catalog.jt(1), Target("gamma_negative", k), budget=10**9)


class TestCertificates:
    def test_h5_point_witness_on_first_sample(self):
        params = Reduced6Params(1, cr(0), Fraction(1), Fraction(0))
        assert catalog.classify_reduced6(params) == "h5"
        se = catalog.reduced6(1, 0, 1, 0)
        out = find_metric(se, Target("gamma_negative", 1), family="reduced6",
                          params=params)
        assert out.status == "witness" and out.samples_used == 0
        assert gamma_scalar(out.witness, 1, se) < 0

    def test_h6_certified_infeasible(self):
        params = Reduced6Params(1, cr(1), Fraction(0), Fraction(0))
        se = catalog.reduced6(1, 1, 0, 0)
        out = find_metric(se, Target("gamma_negative", 1), family="reduced6",
                          params=params)
        assert out.status == "infeasible_certified"
        assert Fraction(out.certificate["K"]) == 2

    def test_family8_negative_p_certificates(self):
        se = catalog.family8(-1, 0)
        for target in (Target("gauduchon_zero", 1), Target("balanced"), Target("skt")):
            out = find_metric(se, target, family="family8", params=(-1, 0))
            assert out.status == "infeasible_certified", target.kind

    def test_family8_q_nonzero_balanced_certificate(self):
        se = catalog.family8(1, 1)
        out = find_metric(se, Target("balanced"), family="family8", params=(1, 1))
        assert out.status == "infeasible_certified"
        assert out.certificate["name"] == "conjugate pair"

    def test_nonnilpotent_gamma_negative_certified(self):
        se = catalog.nonnilpotent6(0, 1)
        out = find_metric(se, Target("gamma_negative", 1), family="nonnilpotent6",
                          params=None)
        assert out.status == "infeasible_certified"
        out = find_metric(se, Target("gamma_positive", 1), family="nonnilpotent6",
                          params=None)
        assert out.status == "witness"


class TestFamilyParams:
    """find_metric certifies only from params that rebuild its structure."""

    def test_params_of_another_build_are_rejected(self):
        # diagonal gamma1 of jt(1/2) is -1/6, while K = 1 at these params
        se = catalog.jt(Fraction(1, 2))
        assert gamma_scalar(hermitian.Metric.diagonal(3), 1, se) == Fraction(-1, 6)
        with pytest.raises(BadParams, match="not a build of reduced6"):
            find_metric(se, Target("gamma_negative", 1), family="reduced6",
                        params=Reduced6Params(1, 0, 0, 0))

    def test_nilpotent6_with_eps_one_ignores_a_and_d(self):
        # eps = 1 drops A and D from the build, so these params rebuild se
        params = catalog.Nilpotent6Params(1, 1, cr(5), cr(1), cr(0), cr(3))
        se = catalog.nilpotent6(1, 1, 0, 1, 0, 0)
        out = find_metric(se, Target("gamma_positive", 1), family="nilpotent6", params=params)
        assert out.status == "witness" and out.samples_used == 0

    def test_params_left_out_are_read_off_the_structure(self):
        se = catalog.jt(Fraction(1, 2))
        out = find_metric(se, Target("skt"), family="jt")
        assert out.status == "infeasible_certified"
        assert Fraction(out.certificate["K"]) == -2


class TestWitnessSearch:
    def test_gauduchon_zero_witness_family8(self):
        se = catalog.family8(1, 0)
        out = find_metric(se, Target("gauduchon_zero", 1), budget=50, seed=5,
                          family="family8", params=(1, 0))
        assert out.status == "witness"
        assert gauduchon_form(out.witness, 1, se).is_zero
        assert out.witness.is_positive()

    def test_balanced_witness_family8(self):
        se = catalog.family8(2, 0)
        out = find_metric(se, Target("balanced"), budget=50, seed=5,
                          family="family8", params=(2, 0))
        assert out.status == "witness"
        omega = out.witness.fundamental_form()
        assert se.d(omega_power(omega, 3)).is_zero

    def test_gamma_sign_witness_without_family(self):
        se = catalog.family8(1, 0)
        for kind in ("gamma_negative", "gamma_positive"):
            out = find_metric(se, Target(kind, 1), budget=400, seed=9)
            assert out.status == "witness", kind
            gamma = gamma_scalar(out.witness, 1, se)
            assert (gamma < 0) == (kind == "gamma_negative")

    def test_exhausted_is_honest(self):
        # balanced metrics form a measure-zero set; sampling cannot hit one
        se = catalog.iwasawa()
        out = find_metric(se, Target("skt"), budget=30, seed=2)
        assert out.status == "exhausted"
        assert out.samples_used == 30
        assert out.witness is None and out.certificate is None

    def test_close_scalar_zero_stays_positive(self, rng):
        import random

        r = random.Random(31)
        for _ in range(10):
            m = sample_positive_metric(r, 4)
            fn = lambda mm: catalog.gauduchon_obstruction_family8(2, 0, mm)
            out = close_scalar_zero(m, fn)
            assert out is not None
            assert out.is_positive() and fn(out) == 0

    def test_gamma_numerator_not_affine_in_every_diagonal_entry(self, rng):
        # on the solvable5 bundle x_33 lies in both minors of some term of
        # sum c det X_a det X_b, so the numerator is quadratic along that bump
        se = bundle_extend(catalog.solvable5_contact()).structure

        def second_difference(m, j):
            f = [hermitian.gamma_numerator(m.bump_diagonal(j, t), 1, se) for t in (0, 1, 2)]
            return f[2] - 2 * f[1] + f[0]

        for _ in range(5):
            m = sample_positive_metric(rng, 3)
            assert [second_difference(m, j) for j in range(3)] == [0, 0, Fraction(-3, 2)]

    def test_closing_reads_one_ray_evaluation_per_sample(self, monkeypatch):
        # for p < 0 no diagonal ray points toward zero, so an exhausted sample
        # costs one evaluation of the compiled rays and builds no bumped metric
        se, budget, calls = catalog.family8(-1, 1), 6, []
        rays, bump = hermitian.CompiledMaps.rays, hermitian.Metric.bump_diagonal

        def counting_rays(maps, metric, k):
            calls.append("rays")
            return rays(maps, metric, k)

        def counting_bump(metric, j, amount):
            calls.append("bump")
            return bump(metric, j, amount)

        monkeypatch.setattr(hermitian.CompiledMaps, "rays", counting_rays)
        monkeypatch.setattr(hermitian.Metric, "bump_diagonal", counting_bump)
        out = find_metric(se, Target("gauduchon_zero", 1), budget=budget)
        assert out.status == "exhausted"
        assert calls == ["rays"] * budget


class TestFeasibility:
    @pytest.mark.parametrize(
        "rho, B, x, y, feasible, label",
        [
            (0, 0, 1, 5, True, "h2"),
            (1, 1, 1, 0, False, "h4"),   # boundary: 2x = 2 = rho + |B|^2
            (1, 0, 1, 0, True, "h5"),
        ],
    )
    def test_reduced6(self, rho, B, x, y, feasible, label):
        # the catalog's fact decides feasibility; any diagonal metric is then a witness
        params = Reduced6Params(rho, cr(B), Fraction(x), Fraction(y))
        assert (catalog.certified("reduced6", params)["gamma1<0"] is None) == feasible
        assert catalog.classify_reduced6(params) == label
        out = find_metric(catalog.reduced6(rho, B, x, y), Target("gamma_negative", 1),
                          family="reduced6", params=params)
        assert out.samples_used == 0
        assert out.status == ("witness" if feasible else "infeasible_certified")

    @pytest.mark.parametrize(
        "t, coeffs",
        [
            (Fraction(1), [1, 1, 1]),
            (Fraction(1, 2), [1, 3, 4]),
            (Fraction(1, 4), [1, 7, 16]),
        ],
    )
    def test_jt_balanced_certificates(self, t, coeffs):
        out = balanced_feasibility_jt(t)
        assert not out.feasible
        got = [Fraction(c) for c in out.certificate["quadratic_in_mu_lambda"]]
        assert got == coeffs
        assert Fraction(out.certificate["discriminant"]) < 0
        assert out.certificate == catalog.certified("jt", t)["balanced"]

    @pytest.mark.parametrize("t", [Fraction(1), Fraction(1, 2), Fraction(1, 4)])
    def test_find_metric_reads_the_jt_balanced_certificate(self, t):
        # one path: the search answers from the catalog's certificate, unsampled
        out = find_metric(catalog.jt(t), Target("balanced"), budget=1, family="jt")
        assert (out.status, out.samples_used) == ("infeasible_certified", 0)
        assert out.certificate == balanced_feasibility_jt(t).certificate
        assert out.certificate["name"] and out.certificate["reason"]

    @pytest.mark.parametrize("t", [Fraction(2), Fraction(-1)])
    def test_jt_balanced_left_to_sampling_outside_the_certified_range(self, t):
        assert "balanced" not in catalog.certified("jt", t)

    def test_jt_range_checked(self):
        for t in (Fraction(0), Fraction(2), Fraction(-1)):
            with pytest.raises(BadParams):
                balanced_feasibility_jt(t)

    def test_search_never_contradicts_certificates(self):
        # fuzz: whenever the closed form certifies infeasibility, an
        # unassisted search must not find a witness
        for rho, B, x, y in ((1, 1, 0, 0), (0, 0, 0, 0), (1, 0, 0, 3)):
            params = Reduced6Params(rho, cr(B), Fraction(x), Fraction(y))
            se = catalog.reduced6(rho, B, x, y)
            certified = find_metric(se, Target("gamma_negative", 1),
                                    family="reduced6", params=params)
            if certified.status != "infeasible_certified":
                continue
            blind = find_metric(se, Target("gamma_negative", 1), budget=60, seed=17)
            assert blind.status == "exhausted"


class TestAnnotations:
    @pytest.mark.parametrize("module", [search, hermitian, catalog])
    def test_every_annotation_resolves(self, module):
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).values() if isinstance(value, type) else ()
            for fn in (value, *members):
                if inspect.isfunction(fn):
                    typing.get_type_hints(fn)
