"""The bundled reproduction suite: every catalogued identity, machine-checked.

Each claim is a named, seeded, self-contained check over the catalog
families; run_verify_paper executes them all and reports one record per
claim.  The test suite's acceptance module drives exactly these functions,
so the CLI gate and pytest agree by construction.

A claim's seed is the suite's seed xor the CRC-32 of its id, so it does not
depend on the order the claims run in, nor on the process that runs one.
When more than one claim is selected, ``os.fork`` exists, the process may
use two or more CPUs and no other thread is running, run_verify_paper forks
one worker: both processes take claims off one queue, heaviest first, and
the worker sends its records back.  Otherwise (``--only`` among these) the
same loop runs in this process alone.  Each record's ``elapsed`` is its own
claim's time; the report's ``wall`` is the whole run's, which is less than
their sum when two claims overlap.
"""

from __future__ import annotations

import functools
import os
import random
import threading
import time
import zlib
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import factorial
from typing import List, Optional

from . import catalog, dsl, linalg, sasakian, search
from .errors import BadParams, ClaimFailure, NotIntegrable, ensure
from .forms import Form, wedge
from .hermitian import (
    CompiledMaps,
    Lefschetz,
    Metric,
    balanced_defect,
    classify,
    gamma_scalar,
    gauduchon_form,
    gauduchon_reduction_check,
    lee_form,
    lee_form_via_codifferential,
    omega_power,
    top_coefficient,
    volume_coefficient,
)
from .scalars import I, ONE, ZERO, ComplexRational, cr
from .search import Target, find_metric, sample_positive_metric
from .structures import StructureEquations, complex_frame_from_real, structure_from_coframe

DEFAULT_SEED = search.DEFAULT_SEED


# ---------------------------------------------------------------------------
# shared random generators
# ---------------------------------------------------------------------------


def _rat(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice((1, 2)))


def _cplx(rng: random.Random, span: int = 4) -> ComplexRational:
    return ComplexRational(_rat(rng, span), _rat(rng, span))


def random_form(rng: random.Random, n: int, degree: int) -> Form:
    out = Form.zero()
    ranks = list(range(1, 2 * n + 1))
    for _ in range(2):
        mon = rng.sample(ranks, degree) if degree else []
        out = out + Form.monomial(mon, _cplx(rng))
    return out


def random_pure_form(rng: random.Random, n: int, p: int, q: int) -> Form:
    holo = [2 * j - 1 for j in range(1, n + 1)]
    conj = [2 * j for j in range(1, n + 1)]
    out = Form.zero()
    for _ in range(2):
        mon = rng.sample(holo, p) + rng.sample(conj, q)
        out = out + Form.monomial(mon, _cplx(rng))
    return out


def _random_nilpotent6(rng: random.Random):
    params = catalog.Nilpotent6Params(
        eps=rng.randint(0, 1),
        rho=rng.randint(0, 1),
        A=_cplx(rng, 3),
        B=_cplx(rng, 3),
        C=_cplx(rng, 3),
        D=_cplx(rng, 3),
    )
    se = catalog.nilpotent6(params.eps, params.rho, params.A, params.B, params.C, params.D)
    return params, se


def _standard_entries() -> List[tuple]:
    """Fixed catalog points used by several claims."""
    return [
        ("iwasawa", catalog.iwasawa()),
        ("nonnilpotent6(0,+)", catalog.nonnilpotent6(0, 1)),
        ("nonnilpotent6(1,-)", catalog.nonnilpotent6(1, -1)),
        ("reduced6(0,0,1,0)", catalog.reduced6(0, 0, 1, 0)),
        ("jt(1/2)", catalog.jt(Fraction(1, 2))),
        ("nilpotent6(eps=1)", catalog.nilpotent6(1, 1, 0, 1, 1, 0)),
        ("abelian(3)", catalog.abelian(3)),
        ("family8(1,0)", catalog.family8(1, 0)),
        ("family8(-1,2)", catalog.family8(-1, 2)),
        ("family8(0,0)", catalog.family8(0, 0)),
    ]


# ---------------------------------------------------------------------------
# the claims
# ---------------------------------------------------------------------------


def check_lemma_33i(seed: int) -> dict:
    """ddbar(Omega) collapses to x33 K w1^~w1^w2^~w2 on the nilpotent family."""
    rng = random.Random(seed)
    samples = 200
    for _ in range(samples):
        params, se = _random_nilpotent6(rng)
        metric = sample_positive_metric(rng, 3)
        got = se.ddbar(metric.fundamental_form())
        K = catalog.skt_scalar_nilpotent6(params)
        expected = Form(4, {(1, 2, 3, 4): metric.x[2][2] * cr(K)})
        ensure(got == expected, f"ddbar mismatch at {params}")
        ensure(gamma_scalar(metric, 1, se) == catalog.gamma1_nilpotent6(params, metric))
    return {"samples": samples}


def check_lemma_33ii(seed: int) -> dict:
    """The non-nilpotent family: fixed ddbar(Omega) and gamma1 > 0 always."""
    rng = random.Random(seed)
    samples = 200
    structures = {(e, s): catalog.nonnilpotent6(e, s) for e in (0, 1) for s in (1, -1)}
    for idx in range(samples):
        eps = idx % 2
        sign = 1 if (idx // 2) % 2 == 0 else -1
        se = structures[eps, sign]
        metric = sample_positive_metric(rng, 3)
        got = se.ddbar(metric.fundamental_form())
        expected = Form(
            4,
            {
                (1, 2, 3, 4): cr(2) * metric.x[2][2],
                (1, 2, 5, 6): cr(2) * metric.x[1][1],
            },
        )
        ensure(got == expected, f"ddbar mismatch at eps={eps}, sign={sign}")
        gamma = gamma_scalar(metric, 1, se)
        ensure(gamma > 0)
        ensure(gamma == catalog.gamma1_nonnilpotent6(metric))
    return {"samples": samples}


def check_prop_35(seed: int) -> dict:
    """Negative-gamma witnesses exist exactly for the h2, h3, h4, h5 points."""
    points = [  # (case, params, label, the certificate's K or None for a witness)
        ("a1", catalog.Reduced6Params(1, cr(1), Fraction(2), Fraction(1)), "h2", None),
        ("a2", catalog.Reduced6Params(0, cr(0), Fraction(1), Fraction(0)), "h3", None),
        ("b2", catalog.Reduced6Params(1, cr(0), Fraction(2), Fraction(3, 2)), "h4", None),
        ("b3", catalog.Reduced6Params(1, cr(0), Fraction(2), Fraction(0)), "h5", None),
        ("a4", catalog.Reduced6Params(1, cr(1), Fraction(0), Fraction(0)), "h6", 2),
        ("a5", catalog.Reduced6Params(0, cr(0), Fraction(0), Fraction(0)), "h8", 0),
    ]
    target = Target("gamma_negative", 1)
    for case, params, label, kval in points:
        ensure(catalog.classify_reduced6(params) == label, case)
        se = catalog.reduced6(params.rho, params.B, params.x, params.y)
        outcome = find_metric(se, target, seed=seed, family="reduced6", params=params)
        feas = search.reduced6_feasibility(params)
        if kval is None:
            ensure(outcome.status == "witness", case)
            ensure(gamma_scalar(outcome.witness, 1, se) < 0)
            ensure(feas.feasible and feas.label == label)
        else:
            ensure(outcome.status == "infeasible_certified", case)
            ensure(Fraction(outcome.certificate["K"]) == kval)
            ensure(not feas.feasible)
    return {"samples": len(points)}


def check_example_38(seed: int) -> dict:
    """The one-parameter deformation: pluriclosed scalar, gamma sign, balanced."""
    rng = random.Random(seed)
    checked = 0
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        se = catalog.jt(t)
        K = catalog.skt_scalar_nilpotent6(catalog.Reduced6Params(1, ONE, 1 / t, 0).as_nilpotent6())
        ensure(K == 2 - 2 / t)
        diag = Metric.diagonal(3)
        gamma = gamma_scalar(diag, 1, se)
        if t == 1:
            ensure(K == 0 and gamma == 0)
            outcome = find_metric(
                se, Target("gamma_negative", 1), seed=seed, family="jt", params=t
            )
            ensure(outcome.status == "infeasible_certified")
        else:
            ensure(K < 0 and gamma < 0)
        feas = search.balanced_feasibility_jt(t)
        ensure(not feas.feasible)
        coeffs = [Fraction(c) for c in feas.certificate["quadratic_in_mu_lambda"]]
        ensure(coeffs == [1, (2 - t) / t, 1 / t**2])
        ensure(all(c > 0 for c in coeffs))
        ensure(Fraction(feas.certificate["discriminant"]) == (t - 4) / t < 0)

        # the balanced constraint in the reduced gauge pins x12 and breaks
        # positivity through the 2x2 minor
        lam, mu, nu = Fraction(1), Fraction(2), Fraction(1)
        x12 = ComplexRational(0, mu + lam / t)
        constrained = Metric(
            [
                [ComplexRational(0, lam), x12, ZERO],
                [x12, ComplexRational(0, mu), ZERO],
                [ZERO, ZERO, ComplexRational(0, nu)],
            ]
        )
        omega = constrained.fundamental_form()
        ensure(se.d(wedge(omega, omega)).is_zero)  # balanced as a form identity
        ensure(not constrained.is_positive())
        # and no positive metric is balanced, reduced gauge or not
        for _ in range(25):
            m = sample_positive_metric(rng, 3)
            om = m.fundamental_form()
            ensure(not se.d(wedge(om, om)).is_zero)
            checked += 1

        # real presentation transports to exactly the same equations
        frame = structure_from_coframe(catalog.jt_real(t), catalog.jt_coframe(t))
        ensure(frame.structure == se)
        greedy = complex_frame_from_real(catalog.jt_real(t))
        ensure(linalg.rref(greedy.rows) == linalg.rref(frame.rows))
        checked += 1
    return {"samples": checked}


def check_prop_47(seed: int) -> dict:
    """The eight-dimensional family: never pluriclosed, four-way equivalence,
    balanced characterization, one-signed certificates for p < 0."""
    rng = random.Random(seed)
    sigma = tuple(range(1, 9))
    samples = 0
    family8 = functools.cache(catalog.family8)  # one structure per distinct (p, q)

    def draws():
        # random parameter points plus engineered zeros of both obstructions
        for _ in range(470):
            p = _rat(rng, 3)
            q = _rat(rng, 3)
            yield p, q, sample_positive_metric(rng, 4)
        for _ in range(30):
            p = abs(_rat(rng, 3)) + 1
            base = sample_positive_metric(rng, 4)
            zero = search.close_scalar_zero(
                base, lambda m: catalog.gauduchon_obstruction_family8(p, 0, m)
            )
            ensure(zero is not None)  # some diagonal slope always opposes V
            yield p, Fraction(0), zero
        for _ in range(30):
            p = abs(_rat(rng, 3)) + 1
            base = sample_positive_metric(rng, 4)
            zero = search.close_scalar_zero(
                base,
                lambda m: catalog.balanced_obstruction_family8(p, 0, m)["defect"],
            )
            if zero is not None:
                yield p, Fraction(0), zero

    for p, q, metric in draws():
        se = family8(p, q)
        ensure(not se.ddbar(metric.fundamental_form()).is_zero,
               "pluriclosed metric should not exist")
        v = catalog.gauduchon_obstruction_family8(p, q, metric)
        g1 = gauduchon_form(metric, 1, se)
        flags = (g1.is_zero, gauduchon_form(metric, 2, se).is_zero,
                 CompiledMaps.of(se).ddbar_power(metric, 2).is_zero, v == 0)
        ensure(len(set(flags)) == 1, f"four-way equivalence broke: {flags}")
        ensure(g1.terms.get(sigma, ZERO) == cr(2) * metric.x[3][3] * cr(v))
        ensure(gamma_scalar(metric, 1, se) == catalog.gamma1_family8(p, q, metric))
        balanced_engine = balanced_defect(metric, se).is_zero
        oracle = catalog.balanced_obstruction_family8(p, q, metric)
        ensure(balanced_engine == oracle["holds"])
        samples += 1
    ensure(samples >= 500)

    for p, q in ((Fraction(-1), Fraction(0)), (Fraction(-2), Fraction(1))):
        se = family8(p, q)
        for kind, k in (("gauduchon_zero", 1), ("balanced", None)):
            outcome = find_metric(
                se, Target(kind, k), seed=seed, family="family8", params=(p, q)
            )
            ensure(outcome.status == "infeasible_certified", (p, q, kind))
        outcome = find_metric(
            se, Target("skt"), seed=seed, family="family8", params=(p, q)
        )
        ensure(outcome.status == "infeasible_certified")
    return {"samples": samples}


def check_lemma_46(seed: int) -> dict:
    """(n-2) gamma_k = k(n-k-1) gamma_1 for k = 2..n-1, one sample per k, on
    every unimodular catalog entry: an extension of the lemma's duality, from
    gamma_{n-1} = 0 (d vanishes on (2n-1)-forms) and hermitian._leibniz."""
    rng = random.Random(seed)
    samples = 0
    for name, se in _standard_entries():
        ensure(se.is_unimodular(), name)
        n = se.n
        for _ in range(200):
            metric = sample_positive_metric(rng, n)
            g1 = gamma_scalar(metric, 1, se) if n > 3 else 0  # k(n-k-1) = 0 at n = 3
            for k in range(2, n):
                ensure((n - 2) * gamma_scalar(metric, k, se) == k * (n - k - 1) * g1, (name, k))
                samples += 1
    return {"samples": samples}


def check_theorem_42(seed: int) -> dict:
    """Product coefficients: Q = (n1! n2! / (n1+n2-2)!) C(n, n2) exactly,
    the proportionality ratio has the sign of Q, and the six-dimensional
    scalar is a t / (3 b)."""
    count = 0
    a_grid = [Fraction(k, 2) for k in range(-11, 11)]
    b_grid = [(Fraction(k, 3), Fraction(k * k, 9)) for k in range(-10, 11) if k]  # (b, b^2)
    for n1 in range(1, 6):
        for n2 in range(1, 6):
            if n1 + n2 + 1 <= 3:
                continue
            fact = Fraction(factorial(n1) * factorial(n2), factorial(n1 + n2 - 2))
            for a in a_grid:
                for b, b2 in b_grid:
                    q = sasakian.product_obstruction(n1, n2, a, b2)
                    c = sasakian.coefficient_C_sq(n1 + n2 + 1, n2, a, b2)
                    ensure(q == fact * c)
                    ensure((q == 0) == (c == 0))
                    report = sasakian.product_report(
                        sasakian.ProductParams(n1, n2, a, b, b)  # t = b keeps t/b > 0
                    )
                    if q == 0:
                        ensure(report.ratio == 0 and report.first_gauduchon)
                    else:
                        ensure((report.ratio > 0) == (q > 0))
                    count += 1
    ensure(count >= 10_000)

    # n = 3 products: scalar a t / (3 b), sign of a
    for a in (Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(3, 2)):
        for b, t in ((Fraction(1), Fraction(2)), (Fraction(-2), Fraction(-1))):
            report = sasakian.product_report(sasakian.ProductParams(1, 1, a, b, t))
            ensure(report.gamma1 == a * t / (3 * b))
            ensure((report.gamma1 < 0) == (a < 0))
            ensure(report.skt == (a == 0))

    # coefficient table boundaries and the admissible sets
    for n in range(4, 8):
        for a, b in ((Fraction(1), Fraction(1)), (Fraction(-3, 2), Fraction(2))):
            m = a * a + b * b
            ensure(sasakian.coefficient_C(n, 0, a, b) == 1)
            ensure(sasakian.coefficient_C(n, 1, a, b) == n - 3 + 2 * a)
            ensure(sasakian.coefficient_C(n, n - 1, a, b) == m)
            ensure(sasakian.coefficient_C(n, n - 2, a, b) == 2 * a + m * (n - 3))
    ensure(sasakian.coefficient_C(6, 2, 1, 1) == 11)
    line = sasakian.solve_admissible(2, 1)
    ensure(line.kind == "line" and line.a0 == Fraction(-1, 2))
    quad = sasakian.solve_admissible(2, 2)
    ensure(quad.kind == "quadratic" and quad.quad == (2, 8, 2))
    ensure(quad.discriminant == 48 and quad.rational_roots is None)
    ensure(sasakian.product_obstruction(2, 2, -2, 3) == 0)
    ensure(sasakian.product_obstruction(2, 1, Fraction(-1, 2), 7) == 0)
    return {"samples": count}


def check_solvable5_bundle(seed: int) -> dict:
    """The five-dimensional solvable example and its circle-bundle relatives."""
    ext = sasakian.bundle_extend(catalog.solvable5_contact())
    ensure(ext.criterion_form == Form(4, {(1, 2, 3, 4): cr(-6)}))
    ensure(ext.criterion_scalar == -6)
    ensure(ext.metric.is_positive())
    gamma = gamma_scalar(ext.metric, 1, ext.structure)
    ensure(gamma == Fraction(-1, 4))
    ensure((gamma < 0) == (ext.criterion_scalar < 0))
    ensure(ext.structure.is_unimodular())

    # trivial bundle over a Sasakian model: criterion never vanishes
    triv = sasakian.bundle_extend(catalog.heisenberg5_contact())
    ensure(triv.criterion_form == Form(4, {(1, 2, 3, 4): cr(2)}))
    ensure(not triv.criterion_form.is_zero)
    gamma_triv = gamma_scalar(triv.metric, 1, triv.structure)
    ensure(gamma_triv == Fraction(-1, 12))
    ensure((gamma_triv < 0) == (triv.criterion_scalar < 0))

    # F = +-(d eta) keeps the criterion away from zero as well
    sas = catalog.heisenberg5_contact()
    deta = sas.algebra.d(sas.eta)
    for sign in (1, -1):
        ext2 = sasakian.bundle_extend(
            catalog.heisenberg5_contact(F=deta.scale(cr(sign)))
        )
        ensure(ext2.criterion_form == wedge(deta, deta).scale(cr(2)))
        ensure(not ext2.criterion_form.is_zero)

    # a curvature tuned to cancel the criterion produces a pluriclosed metric
    skt_ext = sasakian.bundle_extend(
        catalog.solvable5_contact(F=Form(2, {(1, 4): ONE, (2, 3): -ONE}))
    )
    ensure(skt_ext.criterion_form.is_zero and skt_ext.criterion_scalar == 0)
    omega = skt_ext.metric.fundamental_form()
    ensure(skt_ext.structure.ddbar(omega).is_zero)
    ensure(gamma_scalar(skt_ext.metric, 1, skt_ext.structure) == 0)

    # a non-normal structure surfaces as a non-integrable extension
    try:
        sasakian.bundle_extend(catalog.broken5_contact())
        raise ClaimFailure("expected NotIntegrable")
    except NotIntegrable:
        pass
    return {"samples": 5}


def check_lefschetz(seed: int) -> dict:
    """Commutation identity, the L*-power reduction, and the invariant
    balanced+Gauduchon => Kaehler implication."""
    rng = random.Random(seed)
    residuals = 0
    for n in (2, 3, 4):
        metrics = [Metric.diagonal(n), sample_positive_metric(rng, n)]
        for metric in metrics:
            lef = Lefschetz(metric)
            omega = metric.fundamental_form()
            # pinned base cases
            ensure(lef.Lstar(Form.scalar(1)).is_zero)
            ensure(lef.Lstar(omega) == Form.scalar(cr(4 * n)))
            ensure(lef.Lstar(omega_power(omega, 2)) == omega.scale(cr(8 * (n - 1))))
            ensure(lef.Lstar_power(lef.L_power(Form.scalar(1), 2), 2)
                   == Form.scalar(cr(32 * n * (n - 1))))
            forms = [Form.scalar(1)]
            for _ in range(5):
                p = rng.randint(0, min(4, n))
                q = rng.randint(0, min(4 - p, n))
                forms.append(random_pure_form(rng, n, p, q))
            for f in forms:
                for r in range(1, 4):
                    for s in range(r, 4):
                        ensure(lef.commutation_residual(r, s, f).is_zero, (n, r, s))
                        residuals += 1

    # the degree-lowering reduction on the n = 4 entries
    rng2 = random.Random(seed ^ 0xA5A5)
    for p, q in ((1, 0), (-1, 2), (0, 0), (Fraction(3, 2), Fraction(-1, 2))):
        se = catalog.family8(p, q)
        for metric in (Metric.diagonal(4), sample_positive_metric(rng2, 4)):
            data = gauduchon_reduction_check(metric, se)
            ensure(not data["residual"], (p, q))
            ensure(data["constant_display"] == 64 * data["constant_calibrated"])

    # invariant restatement: balanced and first-Gauduchon together force
    # Kaehler (non-vacuously witnessed by the abelian entries)
    checked = 0
    for name, se in _standard_entries():
        for _ in range(30):
            metric = sample_positive_metric(rng, se.n)
            report = classify(metric, se)
            if report.balanced and report.gauduchon[1]:
                ensure(report.kahler, name)
            checked += 1
    for n in (2, 3):
        se = catalog.abelian(n)
        metric = sample_positive_metric(rng, n)
        report = classify(metric, se)
        ensure(report.kahler and report.balanced and report.gauduchon[1])
    return {"samples": residuals + checked}


def check_infrastructure(seed: int) -> dict:
    """d^2 = 0, wedge axioms, the volume identity, parser round-trips."""
    rng = random.Random(seed)
    entries = _standard_entries()
    samples = 0

    for name, se in entries:
        n = se.n
        for _ in range(100):
            f = random_form(rng, n, rng.randint(0, 2 * n - 2))
            ensure(se.d(se.d(f)).is_zero, name)
            samples += 1
        # conjugation intertwines the split differentials
        for _ in range(20):
            p = rng.randint(0, n)
            q = rng.randint(0, n - 1)
            f = random_pure_form(rng, n, p, q)
            ensure(se.dbar(f.conjugate()) == se.partial(f).conjugate())
            samples += 1

    for _ in range(300):
        n = rng.choice((2, 3, 4))
        deg = rng.randint(0, 2)
        a = random_form(rng, n, deg)
        b = random_form(rng, n, deg)
        c = random_form(rng, n, rng.randint(0, 2))
        sign = (-1) ** ((a.degree or 0) * (c.degree or 0))
        ensure(wedge(a, c) == wedge(c, a).scale(cr(sign)))
        ensure(wedge(wedge(a, b), c) == wedge(a, wedge(b, c)))
        ensure(wedge(a + b, c) == wedge(a, c) + wedge(b, c))
        samples += 1

    named = dict(entries)
    for _ in range(1000):
        n = rng.choice((2, 3, 4))
        metric = sample_positive_metric(rng, n)
        ensure(metric.det_minus_i_x() > 0)
        omega_n = omega_power(metric.fundamental_form(), n)
        ensure(volume_coefficient(metric) == top_coefficient(omega_n, n))
        # conformal rescaling divides the scalar by the factor; sign invariant
        if n >= 3:
            c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            se = named["iwasawa" if n == 3 else "family8(1,0)"]
            ensure(gamma_scalar(metric.scale(cr(c)), 1, se)
                   == gamma_scalar(metric, 1, se) / c)
        samples += 1

    # parser and JSON round-trips: catalog entries plus random family points
    for name, se in entries:
        ensure(dsl.parse_structure(dsl.format_structure(se)) == se)
        ensure(dsl.structure_from_json(dsl.structure_to_json(se)) == se)
    for _ in range(300):
        _, se = _random_nilpotent6(rng)
        ensure(dsl.parse_structure(dsl.format_structure(se)) == se)
        ensure(dsl.structure_from_json(dsl.structure_to_json(se)) == se)
        samples += 1

    # positivity and Lee-form touchstones
    ensure(Metric.diagonal(3).is_positive())
    ensure(not Metric([[-I, ZERO, ZERO], [ZERO, I, ZERO], [ZERO, ZERO, I]]).is_positive())
    iw = catalog.iwasawa()
    diag = Metric.diagonal(3)
    ensure(lee_form(diag, iw).is_zero)
    report = classify(diag, iw)
    ensure(report.balanced and not report.skt and not report.kahler)
    ensure(lee_form(diag, catalog.abelian(3)).is_zero)
    red = catalog.reduced6(0, 0, 1, 0)
    theta = lee_form(diag, red)
    ensure(theta == Form(1, {(5,): cr(2), (6,): cr(2)}))
    ensure(gamma_scalar(diag, 1, red) == Fraction(-1, 6))
    for name, se in entries[:6]:
        for _ in range(5):
            metric = sample_positive_metric(rng, se.n)
            ensure(lee_form_via_codifferential(metric, se) == lee_form(metric, se))
            samples += 1

    # a non-unimodular toy for contrast
    affine = StructureEquations(
        1, [Form(2, {(1, 2): ComplexRational(Fraction(1, 2))})]
    )
    ensure(not affine.is_unimodular())
    for name, se in entries:
        ensure(se.is_unimodular())
    return {"samples": samples}


CLAIMS: List[tuple] = [
    ("lemma-3.3i", "nilpotent family: collapsed ddbar form", check_lemma_33i),
    ("lemma-3.3ii", "non-nilpotent family: ddbar form and positive scalar", check_lemma_33ii),
    ("prop-3.5", "negative-scalar witnesses and exclusions", check_prop_35),
    ("example-3.8", "deformation family: pluriclosed scalar and balanced exclusion",
     check_example_38),
    ("prop-4.7", "eight-dimensional family: equivalences and certificates", check_prop_47),
    ("lemma-4.6", "Gauduchon-index duality on unimodular entries", check_lemma_46),
    ("theorem-4.2", "Sasakian products: coefficient identity and scalars", check_theorem_42),
    ("solvable5-bundle", "circle-bundle criterion and sign agreement", check_solvable5_bundle),
    ("lefschetz", "Lefschetz commutation, reduction, balanced+Gauduchon", check_lefschetz),
    ("infrastructure", "exterior-algebra axioms, volume identity, round-trips",
     check_infrastructure),
]


@dataclass
class ClaimRecord:
    claim: str
    title: str
    status: str  # pass | fail
    samples: int
    elapsed: float
    message: Optional[str] = None

    def to_json(self) -> dict:
        return {**asdict(self), "elapsed": round(self.elapsed, 3)}


@dataclass
class ReproductionReport:
    records: List[ClaimRecord] = field(default_factory=list)
    seed: int = DEFAULT_SEED
    wall: float = 0.0  # seconds of the whole run; not in the JSON report

    @property
    def overall(self) -> bool:
        return all(r.status == "pass" for r in self.records)

    def first_failure(self) -> Optional[ClaimRecord]:
        return next((r for r in self.records if r.status != "pass"), None)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "overall": "pass" if self.overall else "fail",
            "records": [r.to_json() for r in self.records],
        }

    def to_text(self) -> str:
        lines = []
        width = max(len(c) for c, _, _ in CLAIMS)
        for r in self.records:
            mark = "PASS" if r.status == "pass" else "FAIL"
            line = (f"{mark}  {r.claim:<{width}}  {r.samples:>6} samples  "
                    f"{r.elapsed:7.2f}s  {r.title}")
            if r.message:
                line += f"\n      {r.message}"
            lines.append(line)
        lines.append(
            f"{'PASS' if self.overall else 'FAIL'}  overall"
            f"  ({self.wall:.2f}s, seed {self.seed:#x})"
        )
        return "\n".join(lines)


def _run_claim(index: int, seed: int) -> ClaimRecord:
    """Run CLAIMS[index] on its own seed; an exception it raises fails it."""
    claim_id, title, fn = CLAIMS[index]
    start = time.perf_counter()
    try:
        status, info, message = "pass", fn(seed ^ zlib.crc32(claim_id.encode())), None
    except Exception as exc:  # a claim failure, not a crash of the runner
        status, info, message = "fail", {}, f"{type(exc).__name__}: {exc}"
    return ClaimRecord(claim_id, title, status, info.get("samples", 0),
                       time.perf_counter() - start, message)


def _may_fork(claims: int) -> bool:
    """Whether a worker may take some of ``claims`` claims off this process."""
    if claims < 2 or not hasattr(os, "fork"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # a fork while another thread runs can deadlock the child
    return (cpus or 1) >= 2 and threading.active_count() == 1


def _pull(queue: int):
    """Claim indices off the queue pipe until it is empty.

    A one-byte read from a pipe is atomic, so two processes pulling from the
    same pipe never take the same claim.
    """
    while byte := os.read(queue, 1):
        yield byte[0]


def _fork_worker(queue: int, seed: int) -> Optional[tuple]:
    """Fork a worker that runs claims off the queue and writes each record as a
    JSON line to a pipe.  Returns its pid and the pipe's read end, or None
    when no process can be forked."""
    import json  # only a run with a worker ships records

    pipe, sink = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # this process runs every claim
        os.close(pipe)
        os.close(sink)
        return None
    if pid:
        os.close(sink)
        return pid, pipe
    code = 1
    try:
        os.close(pipe)
        with open(sink, "w", encoding="utf-8") as out:
            for index in _pull(queue):
                out.write(json.dumps([index, asdict(_run_claim(index, seed))]) + "\n")
                out.flush()
        code = 0
    finally:
        # never return into the caller's stack, nor flush the caller's stdio
        os._exit(code)


def _join_worker(pid: int, pipe: int, taken: List[int], abort: bool) -> dict:
    """Reap the worker and return its record of each claim index in ``taken``.

    A claim it took and never sent back (it died mid-claim) gets a fail
    record naming how the worker ended.  With ``abort`` the worker is
    killed and its records are not read.
    """
    import json

    records = {}
    try:
        if abort:
            import signal

            os.kill(pid, signal.SIGKILL)
        else:
            with open(pipe, encoding="utf-8", closefd=False) as stream:
                lines = stream.read().split("\n")[:-1]  # drops a line torn by a death
            records = {index: ClaimRecord(**fields) for index, fields in map(json.loads, lines)}
    finally:
        os.close(pipe)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    ended = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
    return {index: records.get(index) or ClaimRecord(
                *CLAIMS[index][:2], "fail", 0, 0.0,
                f"the worker process {ended} before returning this claim")
            for index in taken}


def run_verify_paper(seed: int = DEFAULT_SEED, only: Optional[str] = None) -> ReproductionReport:
    """Run the full reproduction suite (or a single claim) deterministically.

    The records come in CLAIMS order whichever process ran each claim.
    """
    start = time.perf_counter()
    selected = [i for i, (claim_id, _, _) in enumerate(CLAIMS) if only in (None, claim_id)]
    if only is not None and not selected:
        raise BadParams(f"unknown claim id {only!r}")
    queue, feed = os.pipe()
    # one byte per claim index, heaviest first: infrastructure, about half of
    # the suite, is last in CLAIMS
    os.write(feed, bytes(reversed(selected)))
    os.close(feed)
    records, worker, drained = {}, None, False
    try:
        if _may_fork(len(selected)):
            worker = _fork_worker(queue, seed)
        for index in _pull(queue):
            records[index] = _run_claim(index, seed)
        drained = True
    finally:
        os.close(queue)
        if worker is not None:
            taken = [i for i in selected if i not in records]
            records.update(_join_worker(*worker, taken, abort=not drained))
    return ReproductionReport([records[i] for i in selected], seed, time.perf_counter() - start)
