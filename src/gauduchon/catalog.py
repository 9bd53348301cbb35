"""Builders for the catalog of structure families and their closed forms.

Complex families (six real dimensions unless noted):

  nilpotent6     dw3 = rho w12 + (1-eps)A w1~1 + B w1~2 + C w2~1 + (1-eps)D w2~2,
                 dw2 = eps w1~1                             (eps, rho in {0,1})
  nonnilpotent6  dw2 = w13 + w1~3, dw3 = i eps w1~1 +- i (w1~2 - w2~1)
  reduced6       nilpotent6 with eps=0, A=1, C=0, D=x+iy
  jt             reduced6 with rho=1, B=1, D=1/t             (t != 0)
  iwasawa        nilpotent6 with rho=1, everything else 0
  family8        n=4: dw4 = A w1~1 - w2~2 - w3~3             (A = p+iq)
  abelian        n arbitrary, all differentials zero

skt_scalar_nilpotent6, gamma1_* and the family8 obstructions are the
independent hand-derived closed forms the engine is tested against (a metric
of another n raises DimensionMismatch); classify_reduced6 names the
underlying real nilpotent Lie algebra for the reduced family.  For
`search --family`, family_params reads a build's parameters back off its
structure equations, certified turns the closed forms (jt's balanced
determinant quadratic among them) into facts about every metric, and
closing_scalar gives family8's balanced closing move.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional

from .errors import BadParams, UnknownFamily
from .forms import Form, conj_rank, holo_rank
from .hermitian import Metric
from .sasakian import ContactData
from .scalars import I, ONE, ZERO, ComplexRational, _rational_parts, cr
from .structures import (
    RealLieAlgebra,
    StructureEquations,
    complex_structure_from_coframe,
)


@dataclass(frozen=True)
class Nilpotent6Params:
    eps: int
    rho: int
    A: ComplexRational
    B: ComplexRational
    C: ComplexRational
    D: ComplexRational

    def __post_init__(self):
        if self.eps not in (0, 1) or self.rho not in (0, 1):
            raise BadParams("eps and rho must be 0 or 1")


@dataclass(frozen=True)
class Reduced6Params:
    rho: int
    B: ComplexRational
    x: Fraction
    y: Fraction

    def __post_init__(self):
        if self.rho not in (0, 1):
            raise BadParams("rho must be 0 or 1")

    def as_nilpotent6(self) -> Nilpotent6Params:
        return Nilpotent6Params(
            eps=0,
            rho=self.rho,
            A=ONE,
            B=cr(self.B),
            C=ZERO,
            D=ComplexRational(self.x, self.y),
        )


# the monomials of the builders, in canonical rank order
_W12 = (holo_rank(1), holo_rank(2))
_W1B1 = (holo_rank(1), conj_rank(1))
_W1B2 = (holo_rank(1), conj_rank(2))
_B1W2 = (conj_rank(1), holo_rank(2))
_W2B2 = (holo_rank(2), conj_rank(2))
_W3B3 = (holo_rank(3), conj_rank(3))


def nilpotent6(eps: int, rho: int, A, B, C, D) -> StructureEquations:
    params = Nilpotent6Params(eps, rho, cr(A), cr(B), cr(C), cr(D))
    dw2 = Form(2, {_W1B1: cr(params.eps)}) if params.eps else Form.zero()
    one_minus_eps = cr(1 - params.eps)
    terms = {
        _W12: cr(params.rho),
        _W1B1: one_minus_eps * params.A,
        _W1B2: params.B,
        _B1W2: -params.C,  # C w2^~w1 = -C (~w1^w2) canonically
        _W2B2: one_minus_eps * params.D,
    }
    dw3 = Form(2, {m: c for m, c in terms.items() if c})
    return StructureEquations(3, [Form.zero(), dw2, dw3])


def nonnilpotent6(eps: int, sign: int) -> StructureEquations:
    if eps not in (0, 1) or sign not in (1, -1):
        raise BadParams("eps in {0,1}, sign in {+1,-1}")
    dw2 = Form(2, {(holo_rank(1), holo_rank(3)): ONE, (holo_rank(1), conj_rank(3)): ONE})
    s = cr(sign) * I
    # - sign * i * w2^~w1 = + sign * i * (~w1 ^ w2) in canonical order
    dw3 = Form(2, {_W1B1: I * cr(eps), _W1B2: s, _B1W2: s})
    return StructureEquations(3, [Form.zero(), dw2, dw3])


def reduced6(rho: int, B, x, y) -> StructureEquations:
    params = Reduced6Params(rho, cr(B), *(Fraction(*_rational_parts(v)) for v in (x, y)))
    p = params.as_nilpotent6()
    return nilpotent6(p.eps, p.rho, p.A, p.B, p.C, p.D)


def _jt_t(t) -> Fraction:
    """jt's parameter, exact; jt has no member at t = 0."""
    try:
        t = Fraction(*_rational_parts(t))
    except TypeError:
        if isinstance(t, (bool, float)):
            raise
        raise BadParams(f"jt takes a nonzero rational t, got {t!r}") from None
    if t == 0:
        raise BadParams("t must be nonzero")
    return t


def _family8_pq(params) -> tuple:
    """family8's parameters (p, q), exact, from a pair."""
    try:
        p, q = params
    except (TypeError, ValueError):
        raise BadParams(f"family8 takes a pair (p, q), got {params!r}") from None
    return Fraction(*_rational_parts(p)), Fraction(*_rational_parts(q))


def jt_point(t) -> Reduced6Params:
    """jt(t) as a reduced6 point: rho = 1, B = 1, D = 1/t."""
    return Reduced6Params(1, ONE, 1 / _jt_t(t), Fraction(0))


def jt(t) -> StructureEquations:
    p = jt_point(t)
    return reduced6(p.rho, p.B, p.x, p.y)


def iwasawa() -> StructureEquations:
    return nilpotent6(eps=0, rho=1, A=0, B=0, C=0, D=0)


def family8(p, q) -> StructureEquations:
    dw4 = Form(2, {_W1B1: ComplexRational(p, q), _W2B2: -ONE, _W3B3: -ONE})
    return StructureEquations(4, [Form.zero(), Form.zero(), Form.zero(), dw4])


def abelian(n: int) -> StructureEquations:
    return StructureEquations(n, [Form.zero()] * n)


_FAMILIES = {
    "nilpotent6": {
        "builder": nilpotent6,
        "params": {"eps": "0|1", "rho": "0|1", "A": "complex", "B": "complex",
                   "C": "complex", "D": "complex"},
        "doc": "six-dimensional nilpotent family (reduced triangular coframe)",
    },
    "nonnilpotent6": {
        "builder": nonnilpotent6,
        "params": {"eps": "0|1", "sign": "1|-1"},
        "doc": "six-dimensional non-nilpotent family (two sign choices)",
    },
    "reduced6": {
        "builder": reduced6,
        "params": {"rho": "0|1", "B": "complex", "x": "rational", "y": "rational"},
        "doc": "reduced nilpotent family with A=1, C=0, D=x+iy",
    },
    "jt": {
        "builder": jt,
        "params": {"t": "nonzero rational"},
        "doc": "one-parameter deformation dw3 = w12 + w1~1 + w1~2 + (1/t) w2~2",
    },
    "iwasawa": {
        "builder": iwasawa,
        "params": {},
        "doc": "bi-invariant structure dw3 = w12",
    },
    "family8": {
        "builder": family8,
        "params": {"p": "rational", "q": "rational"},
        "doc": "eight-dimensional family dw4 = (p+iq) w1~1 - w2~2 - w3~3",
    },
    "abelian": {
        "builder": abelian,
        "params": {"n": "int"},
        "doc": "abelian algebra, all differentials zero",
    },
}


def list_families() -> Dict[str, dict]:
    return {
        name: {"params": spec["params"], "doc": spec["doc"]}
        for name, spec in _FAMILIES.items()
    }


def build(name: str, **params) -> StructureEquations:
    """The family's build at params, which must name its declared parameters."""
    spec = _FAMILIES.get(name)
    if spec is None:
        raise UnknownFamily(f"unknown family {name!r}; see list_families()")
    if params.keys() != spec["params"].keys():
        raise BadParams(f"{name} takes {', '.join(spec['params']) or 'no parameters'}, "
                        f"not {', '.join(params) or 'none'}")
    return spec["builder"](**params)


# ---------------------------------------------------------------------------
# the reduced-family classifier
# ---------------------------------------------------------------------------


def classify_reduced6(params: Reduced6Params) -> str:
    """Name of the real nilpotent Lie algebra underlying a reduced6 point.

    Exact case analysis on (rho, |B|^2, x, y); boundary equalities decide by
    equality, never tolerance.
    """
    rho = params.rho
    b2 = params.B.re**2 + params.B.im**2  # |B|^2, rational
    x, y = params.x, params.y
    if b2 == rho:  # |B| = rho since both sides are 0 or 1
        if y != 0:
            return "h2"
        if rho == 0 and x != 0:
            return "h3"
        if rho == 1 and x != 0:
            return "h4"
        if rho == 1:
            return "h6"
        return "h8"
    lhs = 4 * y**2
    rhs = (rho - b2) * (4 * x + rho - b2)
    if lhs > rhs:
        return "h2"
    if lhs == rhs:
        return "h4"
    return "h5"


def jt_real(t) -> RealLieAlgebra:
    """Real presentation of the jt family: the h4 coframe with J_t.

    The (1,0)-coframe is w1 = e1 + i e4, w2 = e2 + i t (e3 - e4),
    w3 = 2(e5 - i e6) over de5 = e12, de6 = e14 + e23.
    """
    alg_d = [Form.zero()] * 4 + [
        Form(2, {(1, 2): ONE}),
        Form(2, {(1, 4): ONE, (2, 3): ONE}),
    ]
    J = complex_structure_from_coframe(jt_coframe(t), 6)
    return RealLieAlgebra(6, alg_d, J=J)


def jt_coframe(t) -> list:
    t = _jt_t(t)
    it = ComplexRational(0, t)
    return [
        [ONE, ZERO, ZERO, I, ZERO, ZERO],
        [ZERO, ONE, it, -it, ZERO, ZERO],
        [ZERO, ZERO, ZERO, ZERO, cr(2), ComplexRational(0, -2)],
    ]


# ---------------------------------------------------------------------------
# odd-dimensional contact entries for the circle-bundle construction
# ---------------------------------------------------------------------------


def _contact5(d_of, phi_images, Phi: Form, F: Form) -> ContactData:
    """Contact data over de1..de5 = d_of with eta = e5 and xi = e5.

    phi_images[a - 1] = +-t says phi(e_a) = +-e_t for a = 1..4; phi(e5) = 0.
    """
    phi = [[ZERO] * 5 for _ in range(5)]
    for a, image in enumerate(phi_images):
        phi[abs(image) - 1][a] = ONE if image > 0 else -ONE
    return ContactData(RealLieAlgebra(5, d_of), Form(1, {(5,): ONE}),
                       [ZERO] * 4 + [ONE], phi, Phi, F)


def solvable5_contact(F: Optional[Form] = None) -> ContactData:
    """The five-dimensional solvable entry with its invariant contact data.

    de2 = e13, de3 = -e12, de5 = e14 + e23; phi sends e1 -> e4, e2 -> -e3,
    eta = e5, g the standard metric.  The default curvature is 2e14 - 2e23.
    """
    d_of = [
        Form.zero(),
        Form(2, {(1, 3): ONE}),
        Form(2, {(1, 2): -ONE}),
        Form.zero(),
        Form(2, {(1, 4): ONE, (2, 3): ONE}),
    ]
    if F is None:
        F = Form(2, {(1, 4): cr(2), (2, 3): cr(-2)})
    return _contact5(d_of, (4, -3, 2, -1), Form(2, {(1, 4): ONE, (2, 3): -ONE}), F)


def heisenberg5_contact(F: Optional[Form] = None) -> ContactData:
    """The five-dimensional Heisenberg entry: d(eta) equals the fundamental
    form, so this is the Sasakian model; default curvature is zero."""
    Phi = Form(2, {(1, 2): ONE, (3, 4): ONE})
    return _contact5([Form.zero()] * 4 + [Phi], (2, -1, 4, -3), Phi,
                     Form.zero() if F is None else F)


def broken5_contact() -> ContactData:
    """Contact data passing every form-level check but failing normality:
    the bundle extension over it is not integrable."""
    return _contact5([Form.zero()] * 4 + [Form(2, {(1, 3): ONE})], (2, -1, 4, -3),
                     Form(2, {(1, 2): ONE, (3, 4): ONE}), Form(2, {(1, 2): ONE}))


# the contact entries `catalog list` shows and `catalog emit` writes as JSON
CONTACT_ENTRIES: Dict[str, Callable[[], ContactData]] = {
    "solvable5": solvable5_contact,
    "heisenberg5": heisenberg5_contact,
}


# ---------------------------------------------------------------------------
# closed-form obstruction scalars (independent oracles)
# ---------------------------------------------------------------------------


def skt_scalar_nilpotent6(params: Nilpotent6Params) -> Fraction:
    """K with ddbar(Omega) = x_{33} K w1^~w1^w2^~w2 for every metric."""
    b2 = params.B.re**2 + params.B.im**2
    c2 = params.C.re**2 + params.C.im**2
    re_ad = params.A.re * params.D.re + params.A.im * params.D.im  # Re(A conj(D))
    return params.rho + b2 + c2 - 2 * (1 - params.eps) * re_ad


def gamma1_nilpotent6(params: Nilpotent6Params, metric: Metric) -> Fraction:
    """Exact prediction of the k=1 scalar: mu3^2 K / (12 det(-iX))."""
    metric.require_n(3)
    mu3 = (-I * metric.x[2][2]).real_part()
    return mu3**2 * skt_scalar_nilpotent6(params) / (12 * metric.det_minus_i_x())


def gamma1_nonnilpotent6(metric: Metric) -> Fraction:
    """Exact prediction (mu2^2 + mu3^2) / (6 det(-iX)); always positive."""
    metric.require_n(3)
    mu2 = (-I * metric.x[1][1]).real_part()
    mu3 = (-I * metric.x[2][2]).real_part()
    return (mu2**2 + mu3**2) / (6 * metric.det_minus_i_x())


def gauduchon_obstruction_family8(p, q, metric: Metric) -> Fraction:
    """The bracket scalar whose vanishing is the k=1 (and k=2) condition.

    V = 2p (x22 x44 + x33 x44 + |x24|^2 + |x34|^2) - 2 (x11 x44 + |x14|^2);
    the engine form ddbar(Omega) ^ Omega^2 equals x44 V times the top
    monomial (through 2 x44 [bracket] with bracket real).
    """
    p, q = (Fraction(*_rational_parts(v)) for v in (p, q))
    metric.require_n(4)
    x = metric.x

    def group(j: int) -> ComplexRational:
        return x[j][j] * x[3][3] + x[j][3] * x[j][3].conjugate()

    A_plus_conj = cr(2 * p)
    val = A_plus_conj * (group(1) + group(2)) - cr(2) * group(0)
    return val.real_part()


def gamma1_family8(p, q, metric: Metric) -> Fraction:
    """Exact k=1 scalar prediction: -mu4 V / (24 det(-iX))."""
    v = gauduchon_obstruction_family8(p, q, metric)
    mu4 = (-I * metric.x[3][3]).real_part()
    return -(mu4 * v) / (24 * metric.det_minus_i_x())


def balanced_obstruction_family8(p, q, metric: Metric) -> dict:
    """Balanced holds iff q = 0 and p*c0 = c1 + c2 with the positive minors
    c0 = i det X_{234}, c1 = i det X_{124}, c2 = i det X_{134}."""
    p, q = (Fraction(*_rational_parts(v)) for v in (p, q))
    metric.require_n(4)
    c0, c1, c2 = ((I * metric.minor(ix, ix)).real_part()
                  for ix in ((1, 2, 3), (0, 1, 3), (0, 2, 3)))  # 0-based
    defect = p * c0 - c1 - c2
    return {
        "q": q,
        "defect": defect,
        "holds": q == 0 and defect == 0,
    }


# ---------------------------------------------------------------------------
# what the closed forms decide for every metric at once
# ---------------------------------------------------------------------------


def _read_nilpotent6(se: StructureEquations) -> Nilpotent6Params:
    # eps from dw2, the rest from dw3; with eps = 1 the builder drops A and D
    dw2, dw3 = se.d_of[1].terms, se.d_of[2].terms
    eps, rho, A, B, C, D = (dw.get(mon, ZERO) for dw, mon in (
        (dw2, _W1B1), (dw3, _W12), (dw3, _W1B1), (dw3, _W1B2), (dw3, _B1W2), (dw3, _W2B2)))
    return Nilpotent6Params(int(eps.re), int(rho.re), A, B, -C, D)


def _read_reduced6(se: StructureEquations) -> Reduced6Params:
    p = _read_nilpotent6(se)
    return Reduced6Params(p.rho, p.B, p.D.re, p.D.im)


def _read_family8(se: StructureEquations) -> tuple:
    A = se.d_of[3].terms.get(_W1B1, ZERO)
    return A.re, A.im


def _given(family: str, cls: type) -> Callable:
    """The take of a family whose params must be a cls (None: no params)."""
    def take(params):
        if not isinstance(params, cls):
            what = "no params" if cls is type(None) else f"a {cls.__name__}"
            raise BadParams(f"{family} takes {what}, got {params!r}")
        return params
    return take


# family -> (n, take: the params as given, as the closed forms read them, or
# BadParams; read: the params off a structure; builds: the builds at params);
# read only looks, and the comparison with the builds decides
ClosedForms = namedtuple("ClosedForms", "n take read builds")
CLOSED_FORM_FAMILIES = {
    "nilpotent6": ClosedForms(3, _given("nilpotent6", Nilpotent6Params), _read_nilpotent6,
                              lambda p: [nilpotent6(p.eps, p.rho, p.A, p.B, p.C, p.D)]),
    "reduced6": ClosedForms(3, _given("reduced6", Reduced6Params), _read_reduced6,
                            lambda p: [reduced6(p.rho, p.B, p.x, p.y)]),
    # D = 1/t: D = 0 reads as no t, which builds nothing
    "jt": ClosedForms(3, _jt_t, lambda se: 1 / D if (D := _read_nilpotent6(se).D.re) else None,
                      lambda t: [jt(t)] if t else []),
    "family8": ClosedForms(4, _family8_pq, _read_family8, lambda pq: [family8(*pq)]),
    # its closed form holds for every eps and sign, so it takes no params
    "nonnilpotent6": ClosedForms(3, _given("nonnilpotent6", type(None)), lambda se: None,
                                 lambda _: [nonnilpotent6(e, s) for e in (0, 1) for s in (1, -1)]),
}


def family_params(family: str, se: StructureEquations, params=None):
    """The params the family's closed forms take at se, confirmed by rebuilding.

    Left out, they are read off the structure: nilpotent6, reduced6 and jt
    from the dw2 and dw3 coefficients, family8 from the w1^~w1 coefficient
    of dw4; nonnilpotent6 has none.  Given or read, se must be among their
    builds (not equal params: with eps = 1 nilpotent6 drops A and D).
    """
    spec = CLOSED_FORM_FAMILIES.get(family)
    if spec is None:
        raise UnknownFamily(f"no closed forms for family {family!r}; "
                            f"known: {', '.join(CLOSED_FORM_FAMILIES)}")
    params = None if params is None else spec.take(params)
    try:
        if se.n == spec.n:
            if params is None:
                params = spec.read(se)
            if se in spec.builds(params):
                return params
    except BadParams:  # params read outside the family's domain
        pass
    raise BadParams(f"the structure is not a build of {family}")


def certified(family: Optional[str], params) -> Dict[str, Optional[dict]]:
    """What the family's closed forms decide for every metric, by search target.

    Keys are targets as search writes them ("gamma1<0", "skt", ...).  None
    means every positive metric meets the target; a dict means none does,
    and is the certificate.  Targets left out are not decided.
    """
    if family not in CLOSED_FORM_FAMILIES:
        return {}
    params = CLOSED_FORM_FAMILIES[family].take(params)
    if family in ("nilpotent6", "reduced6", "jt"):
        point = jt_point(params) if family == "jt" else params
        K = skt_scalar_nilpotent6(point if family == "nilpotent6" else point.as_nilpotent6())

        def sign_fixed(every: bool, reason: str) -> Optional[dict]:
            return None if every else {"name": "sign-fixed scalar", "K": str(K), "reason": reason}

        zero = sign_fixed(K == 0, "K != 0 is metric-independent")
        facts = {"gamma1<0": sign_fixed(K < 0, "K >= 0 forces gamma1 >= 0 for every metric"),
                 "gamma1>0": sign_fixed(K > 0, "K <= 0 forces gamma1 <= 0 for every metric"),
                 "gauduchon1=0": zero, "skt": zero}
        if family == "jt" and 0 < params <= 1:
            # the minor defect mu^2 + ((2-t)/t) lambda mu + lambda^2/t^2 has positive
            # coefficients and discriminant (t-4)/t < 0: positive for lambda, mu > 0
            t = params
            facts["balanced"] = {
                "name": "determinant quadratic",
                "quadratic_in_mu_lambda": [str(c) for c in (1, (2 - t) / t, 1 / t**2)],
                "discriminant": str((t - 4) / t),
                "reason": "balanced pins x12 = i(mu + lambda/t); the 2x2 minor defect is "
                          "then positive definite in lambda, mu, against positivity"}
        return facts
    if family == "nonnilpotent6":
        positive = {"name": "positive-definite scalar",
                    "reason": "gamma1 = (mu2^2 + mu3^2) / (6 det(-iX)) > 0 always"}
        return {"gamma1>0": None, "gamma1<0": positive, "gauduchon1=0": positive,
                "skt": positive}
    p, q = params
    facts = {"skt": {"name": "fixed nonzero component",
                     "reason": "ddbar(Omega) has the term -2 x44 w2^~w2^w3^~w3 "
                               "and x44 != 0 for positive metrics"}}
    if p <= 0:
        facts["gauduchon1=0"] = facts["gauduchon2=0"] = {
            "name": "one-signed obstruction",
            "reason": "for p <= 0 every summand of the obstruction "
                      "scalar has the same sign on positive metrics"}
    if q != 0:
        facts["balanced"] = {"name": "conjugate pair",
                             "reason": "balanced forces the coefficient p+iq real"}
    elif p <= 0:
        facts["balanced"] = {"name": "positive minors",
                             "reason": "p c0 = c1 + c2 with c0, c1, c2 > 0 needs p > 0"}
    return facts


def closing_scalar(family: Optional[str], params,
                   target: str) -> Optional[Callable[[Metric], Fraction]]:
    """A scalar, affine in each diagonal entry, whose zeros meet the target.

    Only family8 at q = 0 has one: it is balanced exactly where the minor
    defect p c0 - c1 - c2 vanishes.  None elsewhere.
    """
    if family in CLOSED_FORM_FAMILIES:
        params = CLOSED_FORM_FAMILIES[family].take(params)
    if family == "family8" and target == "balanced" and params[1] == 0:
        return lambda m: balanced_obstruction_family8(*params, m)["defect"]
    return None
