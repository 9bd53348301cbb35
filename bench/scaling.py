"""Scaling cases: single calls on fixed seeded metrics at n = 3, 4 and 5.

The n = 3 point is jt(1/2), the n = 4 point family8(1, 2), and the n = 5
point is the structure in ``n5.dsl`` next to this file, which is defined here
rather than in the catalog.  The metrics come from a fixed seed, not from the
workload seed, so these figures compare across runs and commits.  Each call
gets fresh arguments (a Metric caches its positivity test) and is repeated
until ``MIN_REPEAT_S`` has passed or ``MAX_REPEATS`` calls were made; the
median is reported in milliseconds.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

from workloads import random_x, to_metric

SCALING_SEED = 0x5CA1E
MIN_REPEAT_S = 0.1
MIN_REPEATS = 3
MAX_REPEATS = 200
SCALAR_OPS = 2_000

N5_DSL = Path(__file__).with_name("n5.dsl")


def structures(g) -> dict:
    return {
        3: g.catalog.jt(Fraction(1, 2)),
        4: g.catalog.family8(1, 2),
        5: g.dsl.parse_structure(N5_DSL.read_text(encoding="utf-8")),
    }


def _median_ms(fn, make_args) -> float:
    times = []
    total = 0.0
    while len(times) < MAX_REPEATS and (len(times) < MIN_REPEATS or total < MIN_REPEAT_S):
        args = make_args()
        start = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        total += elapsed
    return statistics.median(times) * 1e3


def cases(g, n, se, x):
    """(metric name stem, function, argument factory) for one dimension."""
    h, forms, linalg = g.hermitian, g.forms, g.linalg

    def metric():
        return to_metric(g, x)

    omega = metric().fundamental_form()
    omega2 = forms.wedge(omega, omega)
    lef = h.Lefschetz(metric())
    text = g.dsl.format_structure(se)
    minus_i_x = metric().minus_i_x()
    return [
        ("forms.wedge", forms.wedge, lambda: (omega, omega)),
        ("structures.ddbar", se.ddbar, lambda: (omega,)),
        ("hermitian.omega_power", h.omega_power, lambda: (omega, n)),
        ("hermitian.gamma_scalar", h.gamma_scalar, lambda: (metric(), 1, se)),
        ("hermitian.gamma_numerator", h.gamma_numerator, lambda: (metric(), 1, se)),
        ("hermitian.lee_form", h.lee_form, lambda: (metric(), se)),
        ("hermitian.classify", h.classify, lambda: (metric(), se)),
        ("hermitian.Lefschetz", h.Lefschetz, lambda: (metric(),)),
        ("hermitian.Lefschetz.Lstar", lef.Lstar, lambda: (omega2,)),
        ("linalg.ldl", linalg.ldl, lambda: (minus_i_x,)),
        ("search.sample_positive_metric", g.search.sample_positive_metric,
         lambda: (random.Random(SCALING_SEED), n)),
        ("dsl.parse_structure", g.dsl.parse_structure, lambda: (text,)),
    ]


def scalar_ns(g, x4, se4) -> dict:
    """ns per ComplexRational product and sum on classify-sized coefficients.

    The operands are the coefficients of the n = 4 first Gauduchon form and
    of Omega^3, the sizes a classify-mix request multiplies and adds.
    """
    h = g.hermitian
    m = to_metric(g, x4)
    omega = m.fundamental_form()
    pool = list(h.gauduchon_form(m, 1, se4).terms.values())
    pool += list(h.omega_power(omega, 3).terms.values())
    rng = random.Random(SCALING_SEED)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(SCALAR_OPS)]
    out = {}
    for name, op in (("scalars.mul_ns", lambda a, b: a * b), ("scalars.add_ns", lambda a, b: a + b)):
        runs = []
        for _ in range(5):
            start = time.perf_counter()
            for a, b in pairs:
                op(a, b)
            runs.append((time.perf_counter() - start) / SCALAR_OPS * 1e9)
        out[name] = statistics.median(runs)
    return out


def run(g) -> dict:
    """Every scaling metric, keyed by its per-layer name."""
    rng = random.Random(SCALING_SEED)
    out = {}
    points = {n: (se, random_x(rng, n)) for n, se in structures(g).items()}
    for n, (se, x) in points.items():
        for stem, fn, make_args in cases(g, n, se, x):
            out[f"{stem}.n{n}_ms"] = _median_ms(fn, make_args)
    se4, x4 = points[4]
    out.update(scalar_ns(g, x4, se4))
    return out
