"""The three workloads: seeded inputs, one request each, exact output checks.

Every workload is a closed loop with one caller: the next request is sent
only after the previous one returned.  Requests go through the public front
door, ``gauduchon.cli.main(argv)``, in process; the program sees only the
generated structure DSL files, metric JSON files and argv.  Outputs are
checked exactly against the catalog's closed forms and public predicates,
outside the timed region.

Inputs come in blocks.  A block holds one request for each entry of its
workload's ``kinds`` (some classes twice), so every block is the same mix
and a run of whole blocks has the mix exactly; block ``i`` of seed ``s`` is
always the same block.  Requests
never repeat within a run, so a cache across requests finds nothing to
reuse except what two catalog points genuinely share.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

F = Fraction

# The program's own sampler draws -iX = M M* + delta I from these; the
# benchmark keeps its own copy so that its inputs do not move when the
# program's sampler changes.
_ENTRY_NUMERATORS = range(-8, 9)
_ENTRY_DENOMINATORS = (1, 2, 4)
_PADDING = F(1, 1024)

SEARCH_BUDGET = 8


@dataclass
class Request:
    """One call of the CLI plus what its output must satisfy."""

    kind: str
    argv: List[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    samples: int
    why: Optional[str] = None


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def random_x(rng: random.Random, n: int) -> list:
    """X = i (M M* + delta I) as (re, im) pairs; positive by construction."""
    m = [
        [
            (F(rng.choice(_ENTRY_NUMERATORS), rng.choice(_ENTRY_DENOMINATORS)),
             F(rng.choice(_ENTRY_NUMERATORS), rng.choice(_ENTRY_DENOMINATORS)))
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    x = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            re = sum(m[j][t][0] * m[k][t][0] + m[j][t][1] * m[k][t][1] for t in range(n))
            im = sum(m[j][t][1] * m[k][t][0] - m[j][t][0] * m[k][t][1] for t in range(n))
            if j == k:
                re += _PADDING
            x[j][k] = (-im, re)  # i * (re + i im)
    return x


def metric_json(x: list) -> dict:
    return {"n": len(x), "X": [[{"re": str(re), "im": str(im)} for re, im in row] for row in x]}


def to_metric(g, x):
    cr = g.scalars.ComplexRational
    return g.hermitian.Metric([[cr(re, im) for re, im in row] for row in x])


def _rat(rng, span=3):
    return F(rng.randint(-span, span), rng.choice((1, 2)))


def _cplx(g, rng, span=3):
    return g.scalars.ComplexRational(_rat(rng, span), _rat(rng, span))


def _pos(rng):
    return F(rng.randint(1, 8), rng.choice((1, 2, 4)))


def _nilpotent6(g, rng, k_sign=None):
    """A random nilpotent6 point; ``k_sign`` +1 or -1 fixes the sign of K,
    0 asks for any nonzero K."""
    while True:
        params = g.catalog.Nilpotent6Params(
            rng.randint(0, 1), rng.randint(0, 1),
            _cplx(g, rng), _cplx(g, rng), _cplx(g, rng), _cplx(g, rng),
        )
        k = g.catalog.skt_scalar_nilpotent6(params)
        if k_sign is None or (k != 0 and k_sign in (0, (k > 0) - (k < 0))):
            break
    se = g.catalog.nilpotent6(params.eps, params.rho, params.A, params.B, params.C, params.D)
    return se, params


def _reduced6(g, rng, feasible=False):
    rho = rng.randint(0, 1)
    b = _cplx(g, rng, 2)
    if feasible:  # 2x > rho + |B|^2 makes gamma1 < 0 for every metric
        x = (rho + b.re**2 + b.im**2) / 2 + _pos(rng)
    else:
        x = _rat(rng)
    params = g.catalog.Reduced6Params(rho, b, x, _rat(rng))
    return g.catalog.reduced6(params.rho, params.B, params.x, params.y), params


def _family8_params(rng, p_sign=None):
    p = _rat(rng)
    if p_sign == "pos":
        p = abs(p) + F(1, 2)
    elif p_sign == "nonpos":
        p = -abs(p)
    return p, (F(0) if p_sign == "pos" else _rat(rng))


class Workload:
    """A workload writes its blocks under ``workdir`` and checks outputs."""

    name = ""
    kinds: tuple = ()
    setup_blocks = 4  # generated during set-up; later blocks on demand

    def __init__(self, g, seed: int, workdir: Path):
        self.g = g
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def _write(self, stem: str, text: str) -> str:
        path = self.workdir / stem
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _files(self, tag: str, se, x) -> tuple:
        s = self._write(f"{tag}.dsl", self.g.dsl.format_structure(se))
        m = self._write(f"{tag}.json", json.dumps(metric_json(x))) if x is not None else None
        return s, m

    def block(self, index: int) -> List[Request]:
        rng = random.Random(self.seed * 1_000_003 + index)
        return [self.request(kind, rng, f"b{index}-{j}") for j, kind in enumerate(self.kinds)]

    def request(self, kind: str, rng: random.Random, tag: str) -> Request:
        raise NotImplementedError

    def check(self, req: Request, code: int, out: str) -> Outcome:
        raise NotImplementedError

    def results(self, req: Request, code: int, out: str) -> List[Outcome]:
        """One Outcome for each thing the request attempted."""
        return [self.check(req, code, out)]

    def trace_block(self, block: List[Request]) -> List[Request]:
        """The requests that stand for ``block`` in a traced run."""
        return block

    def priced(self, req: Request) -> bool:
        """Whether a traced run re-sends ``req`` untraced to price tracing."""
        return True


# ---------------------------------------------------------------------------
# classify-mix
# ---------------------------------------------------------------------------


class ClassifyMix(Workload):
    """``classify --json`` on catalog points with seeded positive metrics.

    Three quarters of each block are n = 3 points, one quarter n = 4.
    """

    name = "classify-mix"
    kinds = ("iwasawa", "nilpotent6", "nonnilpotent6", "reduced6", "jt",
             "nilpotent6", "family8", "family8")

    def request(self, kind, rng, tag):
        g = self.g
        cat = g.catalog
        if kind == "iwasawa":
            zero = g.scalars.ZERO
            se, params = cat.iwasawa(), cat.Nilpotent6Params(0, 1, zero, zero, zero, zero)
        elif kind == "nilpotent6":
            se, params = _nilpotent6(g, rng)
        elif kind == "nonnilpotent6":
            se, params = cat.nonnilpotent6(rng.randint(0, 1), rng.choice((1, -1))), None
        elif kind == "reduced6":
            se, red = _reduced6(g, rng)
            params = red.as_nilpotent6()
        elif kind == "jt":
            t = _pos(rng)
            se = cat.jt(t)
            params = cat.Reduced6Params(1, g.scalars.ComplexRational(1), 1 / t, F(0)).as_nilpotent6()
        else:
            p, q = _family8_params(rng)
            se, params = cat.family8(p, q), (p, q)
        x = random_x(rng, se.n)
        metric = to_metric(g, x)
        if kind == "nonnilpotent6":
            gamma1 = cat.gamma1_nonnilpotent6(metric)
        elif kind == "family8":
            gamma1 = cat.gamma1_family8(params[0], params[1], metric)
        else:
            gamma1 = cat.gamma1_nilpotent6(params, metric)
        s, m = self._files(tag, se, x)
        argv = ["classify", "--structure", s, "--metric", m, "--json"]
        return Request(kind, argv, {"n": se.n, "gamma1": gamma1})

    def check(self, req, code, out):
        if code != 0:
            return Outcome(False, 1, f"exit code {code}")
        try:
            rep = json.loads(out)
            n = req.expect["n"]
            gamma = {int(k): F(v) for k, v in rep["gamma"].items()}
            flags = rep["gauduchon"]
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(False, 1, f"unreadable report: {exc!r}")
        if set(gamma) != set(range(1, n)):
            return Outcome(False, 1, f"gamma indices {sorted(gamma)}")
        if gamma[1] != req.expect["gamma1"]:
            return Outcome(False, 1, f"gamma1 {gamma[1]} != oracle {req.expect['gamma1']}")
        if any(gamma[k] != gamma[n - k - 1] for k in range(1, n - 1)):
            return Outcome(False, 1, "gamma_k != gamma_(n-k-1) (Lemma 4.6)")
        if gamma[n - 1] != 0:
            return Outcome(False, 1, f"gamma{n - 1} = {gamma[n - 1]} on a unimodular entry")
        if rep.get("balanced") and flags.get("1") and not rep.get("kahler"):
            return Outcome(False, 1, "balanced and gauduchon1 but not kahler")
        return Outcome(True, 1)


# ---------------------------------------------------------------------------
# search-mix
# ---------------------------------------------------------------------------


class SearchMix(Workload):
    """``search`` without ``--family``, so every request samples.

    Float-screened sign targets, float-screened form-zero targets and exact
    gauduchon1=0 targets with the closing move; each request has budget
    SEARCH_BUDGET and its own seed.  What the catalog certifies about each
    request is worked out at set-up through ``find_metric`` with the family
    named: "impossible" (certified infeasible), "always" (certified that
    every positive metric is a witness) or "open".
    """

    name = "search-mix"
    # Twelve requests a block, weighted so that the median latency falls
    # inside the cluster of n = 3 exhausted float screens (requests 4 to 7
    # of 12 by cost) and the p90 inside the exact n = 4 closing moves
    # (requests 11 and 12), not in a gap between two classes, where it would
    # jump with a few slow or fast requests.
    kinds = ("reduced6-gamma-neg", "nil-gamma-pos", "nonnil-gamma-pos",
             "jt-balanced", "jt-balanced", "nonnil-gamma-neg", "nonnil-gamma-neg",
             "family8-skt", "family8-zero-feasible", "nil-zero",
             "family8-zero-nonpos", "family8-zero-nonpos")

    def request(self, kind, rng, tag):
        g = self.g
        cat = g.catalog
        if kind.startswith("nonnil-gamma"):
            eps, sign = rng.randint(0, 1), rng.choice((1, -1))
            target = "gamma1<0" if kind.endswith("neg") else "gamma1>0"
            se, family, params = cat.nonnilpotent6(eps, sign), "nonnilpotent6", None
        elif kind == "reduced6-gamma-neg":
            se, red = _reduced6(g, rng, feasible=True)
            target, family, params = "gamma1<0", "reduced6", red
        elif kind == "nil-gamma-pos":
            # K > 0, so every metric is a witness: a random sign of K would
            # move requests between the cheap and the exhausted cluster
            se, params = _nilpotent6(g, rng, k_sign=1)
            target, family = "gamma1>0", "nilpotent6"
        elif kind == "family8-skt":
            p, q = _family8_params(rng)
            se, target, family, params = cat.family8(p, q), "skt", "family8", (p, q)
        elif kind == "jt-balanced":
            t = F(rng.randint(1, 4), 4)  # the jt balanced certificate needs t in (0, 1]
            se, target, family, params = cat.jt(t), "balanced", "jt", t
        elif kind == "family8-zero-feasible":
            p, q = _family8_params(rng, "pos")
            se, target, family, params = cat.family8(p, q), "gauduchon1=0", "family8", (p, q)
        elif kind == "family8-zero-nonpos":
            p, q = _family8_params(rng, "nonpos")
            se, target, family, params = cat.family8(p, q), "gauduchon1=0", "family8", (p, q)
        else:
            se, params = _nilpotent6(g, rng, k_sign=0)
            target, family = "gauduchon1=0", "nilpotent6"
        s, _ = self._files(tag, se, None)
        seed = rng.getrandbits(32)
        argv = ["search", "--structure", s, "--target", target,
                "--budget", str(SEARCH_BUDGET), "--seed", hex(seed)]
        return Request(kind, argv, {"target": target, "route": self.route(se, target, family, params),
                                    "structure": s})

    def route(self, se, target_text, family, params):
        search = self.g.search
        target = search.parse_target(target_text)
        # certificates never sample, so a budget of one keeps set-up cheap
        out = search.find_metric(se, target, budget=1, seed=0, family=family, params=params)
        if out.samples_used == 0:
            return "impossible" if out.status == "infeasible_certified" else "always"
        if target.kind == "balanced" and family == "jt":
            if not search.balanced_feasibility_jt(params).feasible:
                return "impossible"
        return "open"

    def check(self, req, code, out):
        if code != 0:
            return Outcome(False, 0, f"exit code {code}")
        try:
            res = json.loads(out)
            status, used = res["status"], int(res["samples_used"])
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(False, 0, f"unreadable outcome: {exc!r}")
        if status not in ("witness", "exhausted") or not 1 <= used <= SEARCH_BUDGET:
            return Outcome(False, used, f"status {status} after {used} samples")
        route = req.expect["route"]
        if status == "witness":
            if route == "impossible":
                return Outcome(False, used, "witness for a certified-impossible target")
            try:
                holds = self.witness_holds(req, res["witness"])
            except (ValueError, KeyError, TypeError, ArithmeticError, self.g.errors.GauduchonError):
                holds = False
            if not holds:
                return Outcome(False, used, "witness fails exact re-verification")
        elif route == "always":
            return Outcome(False, used, "exhausted although every positive metric is a witness")
        return Outcome(True, used)

    def witness_holds(self, req, spec) -> bool:
        g = self.g
        h = g.hermitian
        with open(req.expect["structure"], encoding="utf-8") as fh:
            se = g.dsl.parse_structure(fh.read())
        cr = g.scalars.ComplexRational
        metric = h.Metric([[cr(F(c["re"]), F(c["im"])) for c in row] for row in spec["X"]])
        if metric.n != se.n or not metric.is_positive():
            return False
        target = g.search.parse_target(req.expect["target"])
        if target.kind == "gamma_negative":
            return h.gamma_scalar(metric, target.k, se) < 0
        if target.kind == "gamma_positive":
            return h.gamma_scalar(metric, target.k, se) > 0
        if target.kind == "gauduchon_zero":
            return h.gamma_scalar(metric, target.k, se) == 0 and h.gauduchon_form(metric, target.k, se).is_zero
        omega = metric.fundamental_form()
        if target.kind == "skt":
            return se.ddbar(omega).is_zero
        return se.d(h.omega_power(omega, se.n - 1)).is_zero


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------


class VerifyPaper(Workload):
    """``verify-paper --json --seed 0x5eed``: the 10-claim reproduction suite.

    One block is one suite run, a single request whose outcomes are the
    claims, so ``ok_frac`` counts claims.  The suite always runs on
    SUITE_SEED, the seed of the acceptance gate, whatever the workload seed:
    the claims sample random metrics, and their time moves by about a tenth
    from one suite seed to the next (37.5 s to 45.7 s over seeds 1 to 5 on a
    2-vCPU VM), which one suite per run cannot average out.
    """

    name = "verify-paper"
    kinds = ("suite",)
    setup_blocks = 1
    SUITE_SEED = 0x5EED
    # The claims that take under a second: a traced run re-sends only these
    # untraced, since a second full suite would not fit in a run.
    OVERHEAD_CLAIMS = ("lemma-3.3i", "lemma-3.3ii", "prop-3.5", "example-3.8",
                       "theorem-4.2", "solvable5-bundle")

    def request(self, kind, rng, tag):
        return Request(kind, ["verify-paper", "--json", "--seed", hex(self.SUITE_SEED)],
                       {"claims": [cid for cid, _, _ in self.g.verify.CLAIMS]})

    def trace_block(self, block):
        """One ``--only`` request per claim, so claims can be priced alone."""
        return [Request("claim", req.argv + ["--only", cid], {"claims": [cid]})
                for req in block for cid in req.expect["claims"]]

    def priced(self, req):
        return set(req.expect["claims"]) <= set(self.OVERHEAD_CLAIMS)

    def results(self, req, code, out):
        """One Outcome per expected claim."""
        try:
            records = {r["claim"]: r for r in json.loads(out)["records"]}
        except (ValueError, KeyError, TypeError):
            records = {}
        outcomes = []
        for cid in req.expect["claims"]:
            rec = records.get(cid)
            if rec is None:
                outcomes.append(Outcome(False, 0, f"{cid}: missing from the report"))
            elif rec.get("status") != "pass" or code != 0:
                why = f"{cid}: {rec.get('status')} ({rec.get('message')}), exit code {code}"
                outcomes.append(Outcome(False, 0, why))
            else:
                outcomes.append(Outcome(True, int(rec["samples"])))
        return outcomes


WORKLOADS = {w.name: w for w in (ClassifyMix, SearchMix, VerifyPaper)}
