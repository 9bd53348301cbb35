"""Products of Sasakian-type structures and S^1-bundle extensions.

The product layer is formula-level: for factors of real dimension 2n1+1 and
2n2+1 carrying the two-parameter complex structure (a, b) and the metric
family Omega = Phi1 + Phi2 + t eta1 ^ eta2, the degree-(n-2) wedge collapses
to the single coefficient

    C(n,s) = C(n-3,s) + 2a C(n-3,s-1) + (a^2+b^2) C(n-3,s-2),

and the first-Gauduchon condition to C(n,n2) = 0, equivalently
Q = n1(n1-1) + 2a n1 n2 + (a^2+b^2) n2(n2-1) = 0.  Each formula is evaluated
as one integer numerator over one integer denominator; Fraction appears
only in the values returned.  Their rational inputs (ProductParams' read when
it is built) pass scalars._rational_parts: a float or a bool raises TypeError,
as does a size or index that is not an int; a factor size below 1 BadParams.

The bundle layer is fully constructive: odd-dimensional invariant contact
data (phi, xi, eta, g, Phi) plus a closed phi-invariant curvature 2-form F
extends to a 2n-dimensional algebra with d(theta) = F, the complex
structure acting as phi on ker(eta) ∩ ker(theta) with J xi = -T, J T = xi,
and the metric h = g + theta ⊗ theta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Optional

from .dsl import _array, _field, _index, real_form_from_json, real_form_to_json
from .errors import BadParams, DimensionMismatch, NotQuasiSasakian
from .forms import Form, wedge
from .hermitian import Metric, metric_from_form, omega_power
from .linalg import Matrix, identity, mat, mat_add, mat_eq, mat_mul, transpose, zeros
from .scalars import I, ONE, ZERO, _rational_parts, cr
from .structures import ComplexFrame, RealLieAlgebra, complex_frame_from_real


def _collapse(c0: int, c1: int, c2: int, a: tuple, b_squared: tuple) -> Fraction:
    """c0 + 2a c1 + (a^2+b^2) c2 for a = p/q and b^2 = r/s, over q^2 s."""
    (p, q), (r, s) = a, b_squared
    return Fraction((c0 * q + 2 * p * c1) * q * s + (p * p * s + r * q * q) * c2, q * q * s)


def coefficient_C(n: int, s: int, a, b) -> Fraction:
    """The collapsed wedge coefficient for 0 <= s <= n-1, n >= 4."""
    p, q = _rational_parts(b)
    return coefficient_C_sq(n, s, a, Fraction(p * p, q * q))


def coefficient_C_sq(n: int, s: int, a, b_squared) -> Fraction:
    """coefficient_C with b entering only through b^2 (which may be any
    positive rational, covering irrational b with rational square)."""
    if type(n) is not int or type(s) is not int:
        _check_ints("table index", n, s)
    if n < 4:
        raise BadParams("coefficient table needs n >= 4")
    if not 0 <= s <= n - 1:
        raise BadParams(f"s must be in 0..{n - 1}")
    c0, c1, c2 = (comb(n - 3, s - j) if s >= j else 0 for j in range(3))
    return _collapse(c0, c1, c2, _rational_parts(a), _rational_parts(b_squared))


def _check_ints(what: str, *values) -> None:
    """The one int check on sizes and indices: a bool or a non-int raises TypeError."""
    for value in values:
        if type(value) is not int:
            raise TypeError(f"{what} {value!r} is not an int")


def _q_coefficients(n1: int, n2: int) -> tuple:
    """Q's (c0, c1, c2), after the one check on factor sizes: ints, not bools, >= 1."""
    if type(n1) is not int or type(n2) is not int or n1 < 1 or n2 < 1:
        _check_ints("factor size", n1, n2)
        raise BadParams("factor parameters must be positive integers")
    return n1 * (n1 - 1), n1 * n2, n2 * (n2 - 1)


def product_obstruction(n1: int, n2: int, a, b_squared) -> Fraction:
    """Q = c0 + 2a c1 + (a^2+b^2) c2 (_q_coefficients); zero iff 1st Gauduchon."""
    return _collapse(*_q_coefficients(n1, n2), _rational_parts(a), _rational_parts(b_squared))


@dataclass(frozen=True)
class ProductParams:
    n1: int
    n2: int
    a: Fraction
    b: Fraction
    t: Fraction

    def __post_init__(self):
        _q_coefficients(self.n1, self.n2)
        for name in "abt":
            if not isinstance(value := getattr(self, name), Fraction):
                object.__setattr__(self, name, Fraction(*_rational_parts(value)))
        if self.b == 0:
            raise BadParams("b must be nonzero")
        if self.t == 0 or (self.t > 0) != (self.b > 0):
            raise BadParams("need t/b > 0 for a positive metric")


@dataclass
class ProductReport:
    n: int
    obstruction: Optional[Fraction]  # Q, for n > 3
    first_gauduchon: Optional[bool]
    astheno: Optional[bool]
    ratio: Optional[Fraction]  # the Omega^n proportionality factor, n > 3
    gamma1: Optional[Fraction]  # the n = 3 scalar a t / (3 b)
    skt: Optional[bool]


def product_report(params: ProductParams) -> ProductReport:
    """Gauduchon data for the product metric Phi1 + Phi2 + t eta1 ^ eta2."""
    n = params.n1 + params.n2 + 1
    (p, q), (u, v), (w, z) = ((x.numerator, x.denominator) for x in (params.a, params.t, params.b))
    if n == 3:  # astheno and SKT coincide for n = 3
        return ProductReport(n=n, obstruction=None, first_gauduchon=p == 0, astheno=p == 0,
                             ratio=None, gamma1=Fraction(p * u * z, 3 * q * v * w), skt=p == 0)
    obs = _collapse(*_q_coefficients(params.n1, params.n2), (p, q), (w * w, z * z))
    # ratio = (n-2) t / (n b) * Q / Q(a = 1, b = 0), and Q(1, 0) = (n-1)(n-2)
    ratio = Fraction(u * z * obs.numerator, n * (n - 1) * v * w * obs.denominator)
    return ProductReport(n=n, obstruction=obs, first_gauduchon=obs == 0, astheno=obs == 0,
                         ratio=ratio, gamma1=None, skt=None)


@dataclass
class AdmissibleSet:
    """Solution set of Q(a, b) = 0 in exact form.

    kind 'line':      a = a0, b free nonzero.
    kind 'quadratic': b^2 = -(quad[0] a^2 + quad[1] a + quad[2]) / scale with
                      the open a-interval where b^2 > 0 given by the roots of
                      the monic-cleared quadratic (rational roots reported
                      exactly; otherwise coefficient/discriminant data).
    kind 'empty':     no admissible (a, b).
    """

    kind: str
    a0: Optional[Fraction] = None
    quad: Optional[tuple] = None  # (alpha, beta, gamma) with Q = alpha a^2 + ...
    discriminant: Optional[Fraction] = None
    rational_roots: Optional[tuple] = None


def solve_admissible(n1: int, n2: int) -> AdmissibleSet:
    """Describe all (a, b) with Q = 0 for factors of the given sizes."""
    c0, c1, c2 = _q_coefficients(n1, n2)
    if n1 == n2 == 1:
        raise BadParams("n1 = n2 = 1 is the n = 3 case")
    if n2 == 1:
        # c2 = 0: Q = c0 + 2a c1, independent of b
        return AdmissibleSet(kind="line", a0=Fraction(-c0, 2 * c1))
    disc = 4 * (c1 * c1 - c2 * c0)  # 4 n1 n2 (n1 + n2 - 1) > 0
    root = isqrt(disc)
    roots = None
    if root * root == disc:
        roots = (Fraction(-2 * c1 - root, 2 * c2), Fraction(-2 * c1 + root, 2 * c2))
    return AdmissibleSet(
        kind="quadratic",
        quad=(Fraction(c2), Fraction(2 * c1), Fraction(c0)),
        discriminant=Fraction(disc),
        rational_roots=roots,
    )


# ---------------------------------------------------------------------------
# circle-bundle extension
# ---------------------------------------------------------------------------


class ContactData:
    """Odd-dimensional invariant almost-contact metric data plus curvature.

    Carries (algebra, eta, xi, phi, Phi, F) over a real coframe e1..e_{2n-1};
    the compatible metric g = Phi(., phi .) + eta ⊗ eta is derived.
    Construction verifies the quasi-Sasakian-level identities:
      eta(xi) = 1, phi(xi) = 0, eta∘phi = 0, phi^2 = -Id + xi ⊗ eta,
      g symmetric positive definite (Sylvester), which gives Phi = g(phi ., .),
      dPhi = 0, dF = 0, F(xi, .) = 0, F(phi X, Y) + F(X, phi Y) = 0,
      and (d eta)(xi, .) = 0.
    Normality is not checked directly; the bundle extension surfaces its
    failure as a non-integrable complex structure.
    """

    def __init__(self, algebra: RealLieAlgebra, eta: Form, xi: list, phi: list,
                 Phi: Form, F: Form):
        self.algebra = algebra
        self.m = algebra.m
        if self.m % 2 == 0 or self.m < 3:
            raise BadParams(f"contact data needs odd dimension >= 3, got {self.m}")
        if len(xi) != self.m or len(phi) != self.m or any(len(r) != self.m for r in phi):
            raise DimensionMismatch(f"xi needs {self.m} entries and phi {self.m} x {self.m}")
        for form, name, degree in ((eta, "eta", 1), (Phi, "Phi", 2), (F, "F", 2)):
            if form and form.degree != degree:
                raise BadParams(f"{name} must be a {degree}-form, got degree {form.degree}")
            if form.max_rank() > self.m:
                raise DimensionMismatch(f"{name} uses ranks beyond the coframe")
        self.eta = eta
        self.xi = [cr(v) for v in xi]
        self.phi = mat(phi)
        self.Phi = Phi
        self.F = F
        self._check()

    def _check(self):
        """Raise NotQuasiSasakian on the first identity that fails.

        Phi = g(phi ., .), i.e. phi^T g = Phi, needs no check of its own: it
        follows from the others.  g = Phi phi + eta^T eta symmetric makes
        Phi phi symmetric, and Phi is skew, so phi^T Phi = -Phi phi.  Then
        phi^T (Phi xi) = -Phi phi xi = 0 puts Phi xi in ker phi^T, which
        phi^2 = -Id + xi eta makes the span of eta^T; xi^T Phi xi = 0 and
        eta(xi) = 1 make that multiple zero, so Phi xi = 0.  With eta phi = 0,
        phi^T g = phi^T Phi phi = -Phi phi^2 = Phi - Phi xi eta = Phi.
        """
        m = self.m
        eta = [[self.eta.terms.get((r,), ZERO) for r in range(1, m + 1)]]
        xi = [[v] for v in self.xi]
        phi = self.phi
        if mat_mul(eta, xi)[0][0] != 1:
            raise NotQuasiSasakian("eta(xi) != 1")
        if _nonzero(mat_mul(phi, xi)):
            raise NotQuasiSasakian("phi(xi) != 0")
        if _nonzero(mat_mul(eta, phi)):
            raise NotQuasiSasakian("eta ∘ phi != 0")
        if not mat_eq(mat_add(mat_mul(phi, phi), identity(m)), mat_mul(xi, eta)):
            raise NotQuasiSasakian("phi^2 != -Id + xi ⊗ eta")
        # derived metric g = Phi(., phi .) + eta ⊗ eta must be symmetric PD
        Phi = _skew(self.Phi, m)
        g = mat_add(mat_mul(Phi, phi), mat_mul(transpose(eta), eta))
        if not mat_eq(g, transpose(g)) or any(not v.is_real for row in g for v in row):
            raise NotQuasiSasakian("derived metric is not symmetric real")
        if not Metric([[I * v for v in row] for row in g]).is_positive():
            raise NotQuasiSasakian("derived metric is not positive definite")
        self.g = g
        if not self.algebra.d(self.Phi).is_zero:
            raise NotQuasiSasakian("dPhi != 0")
        if not self.algebra.d(self.F).is_zero:
            raise NotQuasiSasakian("F is not closed")
        F = _skew(self.F, m)
        for form, name in ((F, "F"), (_skew(self.algebra.d(self.eta), m), "d eta")):
            if _nonzero(mat_mul(transpose(xi), form)):
                raise NotQuasiSasakian(f"{name}(xi, .) != 0")
        if _nonzero(mat_add(mat_mul(transpose(phi), F), mat_mul(F, phi))):
            raise NotQuasiSasakian("F is not phi-invariant")


def _skew(form: Form, m: int) -> Matrix:
    """The matrix form(e_a, e_b) of a 2-form over e1..em."""
    out = zeros(m, m)
    for (a, b), c in form.terms.items():
        out[a - 1][b - 1], out[b - 1][a - 1] = c, -c
    return out


def _nonzero(a: Matrix) -> bool:
    return any(v for row in a for v in row)


def contact_to_json(contact: "ContactData") -> dict:
    """Serialize contact data with exact rational strings."""
    return {
        "dim": contact.m,
        "d": [real_form_to_json(f) for f in contact.algebra.d_of],
        "eta": real_form_to_json(contact.eta),
        "xi": [str(v.real_part()) for v in contact.xi],
        "phi": [[str(v.real_part()) for v in row] for row in contact.phi],
        "Phi": real_form_to_json(contact.Phi),
        "F": real_form_to_json(contact.F),
    }


def contact_from_json(spec: dict) -> "ContactData":
    """A field that is missing or does not read raises BadParams naming it:
    dim, d, d[j], eta, xi, xi[j], phi, phi[j], phi[j][k], Phi or F."""
    dim = _field("dim", lambda: _index(spec["dim"]))
    d = [_field(f"d[{j}]", lambda: real_form_from_json(e))
         for j, e in enumerate(_field("d", lambda: _array(spec["d"])))]
    eta, Phi, F = (_field(key, lambda: real_form_from_json(spec[key]))
                   for key in ("eta", "Phi", "F"))
    xi = [_field(f"xi[{j}]", lambda: cr(v))
          for j, v in enumerate(_field("xi", lambda: _array(spec["xi"])))]
    phi = [[_field(f"phi[{j}][{k}]", lambda: cr(v))
            for k, v in enumerate(_field(f"phi[{j}]", lambda: _array(row)))]
           for j, row in enumerate(_field("phi", lambda: _array(spec["phi"])))]
    return ContactData(RealLieAlgebra(dim, d), eta, xi, phi, Phi, F)


@dataclass
class BundleExtension:
    """Result of the S^1-extension of contact data by a curvature form."""

    frame: ComplexFrame
    metric: Metric
    criterion_form: Form  # (d eta ^ d eta + F ^ F) ^ Phi^{n-3}, on the base
    criterion_scalar: Fraction  # against the complex orientation

    @property
    def structure(self):
        return self.frame.structure


def bundle_extend(contact: ContactData) -> BundleExtension:
    """Extend contact data to a complex structure with d(theta) = F.

    Raises NotIntegrable when the induced J fails integrability, which is
    how a non-normal contact structure surfaces at this level.
    """
    m = contact.m          # 2n - 1
    dim = m + 1            # 2n
    n = dim // 2
    # d on the extension: old equations plus d(theta) = F
    d_of = list(contact.algebra.d_of) + [contact.F]
    eta_row = [contact.eta.terms.get((r,), ZERO) for r in range(1, m + 1)]
    # J = [[phi, xi], [-eta, 0]]: phi on ker eta ∩ ker theta, J T = xi and
    # theta(J e_b) = -eta(e_b), so J xi = -T
    J = [row + [v] for row, v in zip(contact.phi, contact.xi)]
    J.append([-v for v in eta_row] + [ZERO])
    algebra = RealLieAlgebra(dim, d_of, J=J)
    frame = complex_frame_from_real(algebra)

    # fundamental form of h = g + theta ⊗ theta: Omega(X, Y) = h(JX, Y) = J^T h
    h = [row + [ZERO] for row in contact.g] + [[ZERO] * m + [ONE]]
    omega = mat_mul(transpose(J), h)
    omega_real = Form(2, {(a + 1, b + 1): omega[a][b]
                          for a in range(dim) for b in range(a + 1, dim)})
    metric = metric_from_form(frame.to_complex(omega_real), n)

    d_eta = contact.algebra.d(contact.eta)
    crit = wedge(d_eta, d_eta) + wedge(contact.F, contact.F)
    crit = wedge(crit, omega_power(contact.Phi, max(n - 3, 0)))

    # scalar against the complex orientation: crit ^ eta ^ theta compared
    # with the positively oriented real volume i^n sigma
    theta = Form.gen(dim)
    top = wedge(wedge(crit, contact.eta), theta)
    full = tuple(range(1, dim + 1))
    raw = top.terms.get(full, ZERO)
    orientation = _orientation_sign(frame, n, dim)
    scalar = (raw * orientation).real_part()
    return BundleExtension(frame, metric, crit, scalar)


def _orientation_sign(frame: ComplexFrame, n: int, dim: int) -> Fraction:
    """Sign of e^{1..2n} against the complex volume i^n w1^~w1^...^wn^~wn."""
    top_complex = frame.to_complex(Form(dim, {tuple(range(1, dim + 1)): ONE}))
    sigma = tuple(range(1, dim + 1))
    c = top_complex.terms.get(sigma, ZERO)
    val = (I ** n / c).real_part()
    return Fraction(1) if val > 0 else Fraction(-1)
