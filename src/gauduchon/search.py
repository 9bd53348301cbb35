"""Feasibility search over metric-coefficient space.

Sampling draws -iX = M M* + delta I with small rational M, which is positive
definite by construction and computed in plain ints (4M is Gaussian-integral).
The entries of M are drawn straight from rng.getrandbits, with the calls that
randint(-8, 8) and choice((1, 2, 4)) make, so a seed gives the same stream.
Each target kind is one entry of _TARGETS: its CLI spelling and its exact
test.  Every sample is tested in exact arithmetic, with the target's test
first and the positivity check (Sylvester's criterion on the metric's minors)
only on a hit.  Balanced reads the compiled d(Omega^{n-1}) map; classify
reads the Lee form instead, which cost 1.9-2.6 ms against 0.39-0.53 ms for
one structure plus 8 samples when compiled (one probe, 2-vCPU VM), and the
reference tests check that the two agree.  For targets asking a scalar to
vanish, the closing move raises one diagonal entry, which keeps positivity;
_close is its one rule.  Along x_jj + it the Gauduchon numerator is
N0 + N1 t + N2 t^2, and a pass over each of the compiled ddbar(Omega) and
ddbar(Omega^2) maps gives every ray's coefficients in ints
(CompiledMaps.rays), so a sample builds a bumped metric only at an exact
zero.  N2 vanishes unless j is in the rows and the columns of both minors
of some term c det X_a det X_b, so the affine root is only a candidate, and
the exact zero test decides; the witness is then re-checked on the top
path.  The catalog's oracle scalars close through close_scalar_zero, on
bumped metrics, each a new Metric that computes its own minors.

When the structure is a build of a catalog family, catalog.certified may
decide the target for every metric at once: either every positive metric
meets it (the diagonal metric is the witness, checked like any other) or
none does, and the catalog's certificate is the answer.  Infeasibility is
only ever claimed that way; otherwise the outcome is 'exhausted'.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .catalog import (
    Reduced6Params,
    certified,
    classify_reduced6,
    closing_scalar,
    family_params,
    skt_scalar_nilpotent6,
)
from .dsl import metric_to_json
from .errors import BadK, BadParams, ensure
from .hermitian import CompiledMaps, Metric, _numerator, _turned
from .scalars import _rational_parts
from .structures import StructureEquations

DEFAULT_BUDGET = 10_000
DEFAULT_SEED = 0x5EED
POSITIVITY_PADDING = Fraction(1, 1024)


def _vanishes(entries_of: dict, metric: Metric) -> bool:
    """Whether every int sum of a compiled map is zero at the metric."""
    return not any(re or im for re, im in CompiledMaps._image(entries_of, metric).values())


# kind -> (CLI spelling, "{k}" standing for the Gauduchon index; exact test on
# (structure, metric, k), positivity aside), each read off the compiled maps'
# ints: the gamma targets the Gauduchon numerator's int, over a positive
# denominator, which vanishes exactly with the Gauduchon form.
_TARGETS = {
    "gamma_negative": ("gamma{k}<0", lambda se, m, k: _numerator(m, k, se)[0] < 0),
    "gamma_positive": ("gamma{k}>0", lambda se, m, k: _numerator(m, k, se)[0] > 0),
    "gauduchon_zero": ("gauduchon{k}=0", lambda se, m, k: _numerator(m, k, se)[0] == 0),
    "skt": ("skt", lambda se, m, k: _vanishes(CompiledMaps.of(se)._ddbar_map(1)[1], m)),
    "balanced": ("balanced", lambda se, m, k: _vanishes(CompiledMaps.of(se)._d_top_map()[1], m)),
}


@dataclass(frozen=True)
class Target:
    """What the search is looking for.

    kind: a key of _TARGETS
    k:    the Gauduchon index for the gamma/gauduchon kinds
    """

    kind: str
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _TARGETS:
            raise BadParams(f"unknown target kind {self.kind!r}")
        if "{k}" in _TARGETS[self.kind][0] and self.k is None:
            raise BadParams(f"target {self.kind} needs k")

    def describe(self) -> str:
        return _TARGETS[self.kind][0].format(k=self.k)


def parse_target(text: str) -> Target:
    """Parse CLI target syntax: gamma1<0, gamma2>0, gauduchon1=0, skt, balanced."""
    text = text.strip()
    for kind, (spelling, _) in _TARGETS.items():
        head, has_k, tail = spelling.partition("{k}")
        if not has_k and text == spelling:
            return Target(kind)
        if has_k and text.startswith(head) and text.endswith(tail):
            try:
                k = int(text[len(head):len(text) - len(tail)])
            except ValueError:
                break
            return Target(kind, k=k)
    raise BadParams(f"cannot parse target {text!r}")


@dataclass
class SearchOutcome:
    status: str  # witness | infeasible_certified | exhausted
    target: str
    seed: int
    budget: int
    samples_used: int
    witness: Optional[Metric] = None
    certificate: Optional[dict] = None
    replay: Optional[str] = None

    def to_json(self) -> dict:
        witness = None if self.witness is None else metric_to_json(self.witness)
        return {**vars(self), "witness": witness}


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_positive_metric(rng: random.Random, n: int) -> Metric:
    """X = i (M M* + delta I) with small rational M; exactly positive.

    Each entry p/q + i r/s of M has p, r in -8..8 and q, s in {1, 2, 4},
    drawn in the order p, q, r, s as randint(-8, 8) and choice((1, 2, 4))
    draw them, but straight from rng.getrandbits: the same calls, so the
    same stream (a 5-bit draw redrawn while >= 17, then a 2-bit draw redrawn
    while 3).  4M is then a matrix of Gaussian integers, 4 p/q = p << (2 - e)
    for q = 2**e, and D H = (D/16) (4M)(4M)* + I, for delta = 1/D, is plain
    int arithmetic; X = iH is handed to the Metric as Gaussian-int
    numerators over D, skew-Hermitian by construction.
    """
    bits = rng.getrandbits
    parts = []  # 4p/q, 4r/s, ... for the entries of M row by row
    for _ in range(2 * n * n):
        p = bits(5)
        while p >= 17:
            p = bits(5)
        e = bits(2)
        while e == 3:
            e = bits(2)
        parts.append((p - 8) << (2 - e))
    entries = list(zip(parts[::2], parts[1::2]))
    g = [entries[n * j:n * (j + 1)] for j in range(n)]
    d = POSITIVITY_PADDING.denominator
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
    return Metric._of_ints(x, d)


# ---------------------------------------------------------------------------
# exact verification and the closing move
# ---------------------------------------------------------------------------


def _holds(se: StructureEquations, target: Target, metric: Metric) -> bool:
    """The target's exact test from _TARGETS, positivity aside."""
    return _TARGETS[target.kind][1](se, metric, target.k)


def _verify(se: StructureEquations, target: Target, metric: Metric) -> bool:
    return metric.is_positive() and _holds(se, target, metric)


def _close(metric: Metric, base, moves, zero_at) -> Optional[Metric]:
    """The closing rule on a scalar along the diagonal rays of a metric.

    base is the scalar at the metric, moves yields (j, moved) with moved the
    scalar one unit along x_jj + it, and zero_at(j, t) is the metric bumped
    by t along ray j where the scalar vanishes there, else None.  Raising a
    diagonal entry of -iX preserves positivity.  Where a unit bump moves the
    scalar from the base strictly in the direction of zero, the affine root
    t = base / (base - moved) > 0 is a candidate; the scalar may be quadratic
    in t, so the candidate is kept only if the scalar is zero there and the
    bumped metric is positive.
    """
    if base == 0:
        return metric
    rising = base < 0  # the root lies where a unit bump moves the scalar up
    for j, moved in moves:
        if base < moved if rising else moved < base:
            candidate = zero_at(j, Fraction(base, base - moved))
            if candidate is not None and candidate.is_positive():
                return candidate
    return None


def close_scalar_zero(
    metric: Metric, scalar: Callable[[Metric], Fraction]
) -> Optional[Metric]:
    """Exact zero of the scalar along a diagonal ray, or None (_close).

    The scalar is evaluated on the metric, on each unit bump until a root
    is taken, and on each candidate; the oracle scalars of catalog and
    verify close this way.
    """
    def zero_at(j, t):
        candidate = metric.bump_diagonal(j, t)
        return candidate if scalar(candidate) == 0 else None

    moves = ((j, scalar(metric.bump_diagonal(j, 1))) for j in range(metric.n))
    return _close(metric, scalar(metric), moves, zero_at)


def _close_gauduchon(maps: CompiledMaps, metric: Metric, k: int) -> Optional[Metric]:
    """close_scalar_zero on the gamma_k numerator, read off maps.rays in ints.

    Along ray j the numerator is N0 + N1 t + N2 t^2 over one positive
    denominator, so base and moved are ints, and at t = p/q the zero test is
    N0 q^2 + N1 p q + N2 p^2 = 0; a Metric is built only where it holds.
    """
    n = metric.n
    _, t0, rays = maps.rays(metric, k)
    base = _turned(*t0, n)
    slopes = [(_turned(*t1, n), _turned(*t2, n)) for t1, t2 in rays]

    def zero_at(j, t):
        n1, n2 = slopes[j]
        p, q = t.numerator, t.denominator
        return metric.bump_diagonal(j, t) if (base * q + n1 * p) * q + n2 * p * p == 0 else None

    moves = ((j, base + n1 + n2) for j, (n1, n2) in enumerate(slopes))
    return _close(metric, base, moves, zero_at)


def find_metric(
    se: StructureEquations,
    target: Target,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    family: Optional[str] = None,
    params=None,
) -> SearchOutcome:
    """Deterministic search for a positive metric meeting the target.

    family and its params let the catalog's closed forms certify the answer
    without sampling, and give family8's balanced target its closing scalar.
    se must be the family's build at params, read off se when left out
    (catalog.family_params), or BadParams is raised.  Witnesses always pass
    the exact predicate; sampling failure is 'exhausted', never nonexistence.
    """
    if budget <= 0:
        raise BadParams("budget must be positive")
    if target.k is not None and not 1 <= target.k <= se.n - 1:
        raise BadK(f"target {target.describe()}: k must be in 1..{se.n - 1}")
    if family is not None:
        params = family_params(family, se, params)
    used = 0

    def finish(status, witness=None, cert=None):
        return SearchOutcome(status, target.describe(), seed, budget, used, witness, cert)

    facts = certified(family, params)
    if target.describe() in facts:
        cert = facts[target.describe()]
        if cert is not None:
            return finish("infeasible_certified", cert=cert)
        witness = Metric.diagonal(se.n)  # every positive metric meets the target
        ensure(_verify(se, target, witness), f"diagonal metric misses {target.describe()}")
        return finish("witness", witness)

    rng = random.Random(seed)
    n = se.n

    scalar_fn = closing_scalar(family, params, target.describe())
    close = None if scalar_fn is None else lambda m: close_scalar_zero(m, scalar_fn)
    if target.kind == "gauduchon_zero":
        maps = CompiledMaps.of(se)
        close = lambda m: _close_gauduchon(maps, m, target.k)  # noqa: E731

    for _ in range(budget):
        used += 1
        metric = sample_positive_metric(rng, n)
        if close is not None:
            witness = close(metric)
            if witness is not None and _verify(se, target, witness):
                return finish("witness", witness)
        elif _holds(se, target, metric) and metric.is_positive():
            return finish("witness", metric)
    return finish("exhausted")


# ---------------------------------------------------------------------------
# dedicated feasibility answers
# ---------------------------------------------------------------------------


@dataclass
class Feasibility:
    feasible: bool
    threshold: Optional[Fraction] = None
    witness_recipe: Optional[str] = None
    label: Optional[str] = None
    certificate: Optional[dict] = None


def reduced6_feasibility(params: Reduced6Params) -> Feasibility:
    """Existence of a metric with negative first Gauduchon scalar.

    gamma1 has the metric-independent sign of K = rho + |B|^2 - 2x, so it is
    feasible iff 2x > K + 2x = rho + |B|^2, and any positive diagonal metric
    is then a witness.
    """
    K = skt_scalar_nilpotent6(params.as_nilpotent6())
    threshold = K + 2 * params.x
    feasible = K < 0
    return Feasibility(
        feasible=feasible,
        threshold=threshold,
        witness_recipe="any positive diagonal metric" if feasible else None,
        label=classify_reduced6(params),
        certificate=None
        if feasible
        else {"name": "sign-fixed scalar", "K": str(K)},
    )


def balanced_feasibility_jt(t) -> Feasibility:
    """No invariant balanced metric exists for the jt family, t in (0, 1].

    The balanced constraint pins x12 = i (mu + lambda/t), whose 2x2 minor
    defect mu^2 + ((2-t)/t) lambda mu + lambda^2/t^2 is positive for all
    lambda, mu > 0: the quadratic has positive coefficients and negative
    discriminant (t-4)/t, contradicting positive definiteness.
    """
    t = Fraction(*_rational_parts(t))
    if not 0 < t <= 1:
        raise BadParams(f"t must be in (0, 1], got {t}")
    coeffs = (Fraction(1), (2 - t) / t, 1 / t**2)
    discriminant = (t - 4) / t
    ensure(all(c > 0 for c in coeffs) and discriminant < 0,
           f"jt({t}) certificate quadratic is not positive")
    return Feasibility(
        feasible=False,
        certificate={
            "name": "determinant quadratic",
            "quadratic_in_mu_lambda": [str(c) for c in coeffs],
            "discriminant": str(discriminant),
        },
    )
