"""ADE classification of the marked double point.

Two independent routes are implemented:

* ``classify_a`` walks the closed-form criteria ladder ``a_criteria`` on
  the named coefficients of a rank-2 quartic, mirroring the point blowups
  of the resolution.
* ``classify_local`` actually performs the blowups on a local equation,
  locating singular points on the exceptional curve with the Jacobian
  criterion and univariate gcds.  It doubles as a brute-force cross-check
  for the A chain.

A rank-1 point takes both routes at once: ``de_coarse`` splits it into
D4 / D>4 / E by the discriminant and Hessian of the cubic p1, and
``classify_de`` confirms that class with the blowup chain, which also
gives the exact index; a disagreement is a ``ConsistencyViolation``.

Both work entirely over Q(i); the only failure mode is a tangent cone
whose splitting needs a missing square root (FieldExtensionRequired).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .blowup import mirror_chart, point_chart
from .errors import ClassificationError, ConsistencyViolation, GeometryError, NonNormalInput
from .poly import (
    Polynomial,
    order_along,
    squarefree_excess,
    substitute,
    unique_multiple_root,
)
from .quartic import (
    NormalizedQuartic,
    X2X3,
    X3SQ,
    CoefficientTable,
    coefficients,
    normalize_cone,
    quadratic_rank,
)

MAX_REFINE_DEPTH = 4
# the chain decides A2/A3 after one blowup, A4/A5 after two, A6/A7 after
# three; anything that survives three is reported as A>=8, matching the
# closed-form criteria, which also stop there
A_CHAIN_BLOWUPS = 3


@dataclass(frozen=True)
class TypeTag:
    """A singularity type: family A/D/E, index, and exactness.

    ``exact=False`` means "at least this index"; the classifier bottoms
    out at A>=8 and D>=11 because the criteria chain stops there.
    """

    family: str
    index: int
    exact: bool = True

    def __post_init__(self):
        if self.family not in ("A", "D", "E"):
            raise ValueError(f"unknown family {self.family!r}")
        bounds = {"A": (1, 8), "D": (4, 11), "E": (6, 8)}[self.family]
        if not bounds[0] <= self.index <= bounds[1]:
            raise ValueError(f"index {self.index} out of range for {self.family}")

    def label(self) -> str:
        prefix = "" if self.exact else ">="
        return f"{self.family}{prefix}{self.index}"

    def resolution_point_blowups(self) -> int:
        """Number of point blowups needed to resolve this type."""
        if self.family == "A":
            return (self.index + 1) // 2
        if self.family == "D":
            return 2 * ((self.index - 1) // 2)
        return {6: 4, 7: 7, 8: 8}[self.index]

    def to_json(self) -> dict:
        return {"family": self.family, "index": self.index, "exact": self.exact}


@dataclass(frozen=True)
class CertEntry:
    name: str
    value: str
    verdict: str
    step: int = 0

    def to_json(self) -> dict:
        return {"name": self.name, "value": self.value, "verdict": self.verdict, "step": self.step}


@dataclass
class Certificate:
    entries: list = field(default_factory=list)

    def add(self, name, value, verdict, step=0):
        self.entries.append(CertEntry(name, str(value), verdict, step))

    def steps_consumed(self) -> int:
        return max((e.step for e in self.entries), default=0)

    def refinement_chain(self) -> list:
        return [e.value for e in self.entries if e.name == "refine"]

    def to_json(self) -> list:
        return [e.to_json() for e in self.entries]


# -- the A_n criteria chain -------------------------------------------------------
# B = b0*x1^3 + x1^2*(beta2*x2 + beta3*x3) + x1*b2 + b3 and C = c0*x1^4 + x1^3*c1 + x1^2*c2
# + x1*c3 + c4, with b_k, c_k binary forms of degree k in (x2, x3); "at beta" means at
# (x2, x3) = (beta3, beta2).  The chain quantities come in four stages, one per criterion
# from the third on; each stage forms its products once and passes on those later ones read.


def _twice(x):
    return x + x


def _quadratic(k, p):
    """k0*x^2 + k1*x*y + k2*y^2, given the products p = (x^2, x*y, y^2)."""
    return k[0] * p[0] + k[1] * p[1] + k[2] * p[2]


def _quadratic_gradient(k, x, y):
    """The gradient of k0*x^2 + k1*x*y + k2*y^2 at (x, y)."""
    return _twice(k[0] * x) + k[1] * y, k[1] * x + _twice(k[2] * y)


def _cubic(k, p, x, y):
    """k0*x^3 + k1*x^2*y + k2*x*y^2 + k3*y^3, given p = (x^2, x*y, y^2)."""
    return p[0] * (k[0] * x + k[1] * y) + p[2] * (k[2] * x + k[3] * y)


def _cubic_gradient(k, p):
    """The gradient of the cubic of ``_cubic``, given p = (x^2, x*y, y^2)."""
    a, d = k[0] * p[0], k[3] * p[2]
    return a + _twice(a + k[1] * p[1]) + k[2] * p[2], d + _twice(d + k[2] * p[1]) + k[1] * p[0]


def _zeta_stage(t: CoefficientTable, b23):
    """zeta = b2 - c1 at beta, and the products bp = (beta3^2, beta2*beta3, beta2^2)."""
    bp = (t.beta3 * t.beta3, b23, t.beta2 * t.beta2)
    zeta = _quadratic((t.rho2, t.rho23, t.rho3), bp) - t.delta2 * t.beta3 - t.delta3 * t.beta2
    return zeta, bp


def _alpha_stage(t: CoefficientTable, bp):
    """xi = grad(c1 - b2) at beta, x23 = xi2*xi3, and alpha = c2 - b3 at beta."""
    r2, r3 = _quadratic_gradient((t.rho2, t.rho23, t.rho3), t.beta3, t.beta2)
    xi2, xi3 = t.delta2 - r2, t.delta3 - r3
    sigma = (t.sigma0, t.sigma1, t.sigma2, t.sigma3)
    alpha = _quadratic((t.eps2, t.eps23, t.eps3), bp) - _cubic(sigma, bp, t.beta3, t.beta2)
    return xi2, xi3, xi2 * xi3, alpha


def _theta_stage(t: CoefficientTable, bp, xi2, xi3, x23):
    """omega and eta, the derivatives of -b3 and c2 at beta along (xi3, xi2), theta =
    b2(xi3, xi2) + omega + eta - c3 at beta, and the carry the mu stage reads."""
    g2, g3 = _cubic_gradient((t.sigma0, t.sigma1, t.sigma2, t.sigma3), bp)
    e2, e3 = _quadratic_gradient((t.eps2, t.eps23, t.eps3), t.beta3, t.beta2)
    omega = -(xi3 * g2 + xi2 * g3)
    eta = xi3 * e2 + xi2 * e3
    xp = (xi3 * xi3, x23, xi2 * xi2)
    tau = _cubic((t.tau0, t.tau1, t.tau2, t.tau3), bp, t.beta3, t.beta2)
    theta = _quadratic((t.rho2, t.rho23, t.rho3), xp) + omega + eta - tau
    return (omega, eta, theta), (xp, g2 - e2, g3 - e3)


def _mu_stage(t: CoefficientTable, bp, xi2, xi3, carry):
    """gamma2, gamma3 and mu, from the theta stage's carry.

    gamma = grad(b3 - c2) at beta - grad b2 at (xi3, xi2).  mu = c4 at beta, plus
    the second-order term of c2 - b3 and minus the first-order term of c3, both
    at beta along (xi3, xi2)."""
    xx, xy, yy = bp
    xp, d2, d3 = carry
    r2, r3 = _quadratic_gradient((t.rho2, t.rho23, t.rho3), xi3, xi2)
    s0, s3 = t.sigma0 * t.beta3, t.sigma3 * t.beta2
    second = (
        t.eps2 - s0 - _twice(s0) - t.sigma1 * t.beta2,
        t.eps23 - _twice(t.sigma1 * t.beta3 + t.sigma2 * t.beta2),
        t.eps3 - s3 - _twice(s3) - t.sigma2 * t.beta3,
    )
    h2, h3 = _cubic_gradient((t.tau0, t.tau1, t.tau2, t.tau3), bp)
    c4 = xx * (t.lam0 * xx + t.lam1 * xy + t.lam2 * yy) + yy * (t.lam3 * xy + t.lam4 * yy)
    return d2 - r2, d3 - r3, _quadratic(second, xp) - xi3 * h2 - xi2 * h3 + c4


_A_CHAIN_NAMES = "zeta xi2 xi3 alpha omega eta theta gamma2 gamma3 mu".split()


def a_chain_quantities(t: CoefficientTable) -> dict:
    """All named quantities of the criteria chain, evaluated exactly."""
    zeta, bp = _zeta_stage(t, t.beta2 * t.beta3)
    xi2, xi3, x23, alpha = _alpha_stage(t, bp)
    stage3, carry = _theta_stage(t, bp, xi2, xi3, x23)
    values = (zeta, xi2, xi3, alpha, *stage3, *_mu_stage(t, bp, xi2, xi3, carry))
    return dict(zip(_A_CHAIN_NAMES, values))


def a_criteria(t: CoefficientTable):
    """The A_n criteria ladder, as (value, label when nonzero, label when zero).

    Criterion k (in yield order) settles A_{k+2} when nonzero and A>=k+3
    when zero, at criteria step (k+3)//2.  The ladder runs stage by stage:
    a criterion's closed forms are computed when a reader reaches it.
    """
    yield t.b0, "b0 (*1)", "b0 (*1)"
    b23 = t.beta2 * t.beta3
    yield t.c0 - b23, "c0 - beta2*beta3 (*2)", "c0 - beta2*beta3 (*2)"
    zeta, bp = _zeta_stage(t, b23)
    yield zeta, "zeta", "zeta (*3)"
    xi2, xi3, x23, alpha = _alpha_stage(t, bp)
    yield x23 - alpha, "xi2*xi3 - alpha (*4)", "xi2*xi3 - alpha (*4)"
    (_, _, theta), carry = _theta_stage(t, bp, xi2, xi3, x23)
    yield theta, "theta", "theta (*5)"
    gamma2, gamma3, mu = _mu_stage(t, bp, xi2, xi3, carry)
    yield gamma2 * gamma3 - mu, "gamma2*gamma3 - mu", "gamma2*gamma3 - mu"


def classify_a(q: NormalizedQuartic):
    """A-family index of a rank-2 quartic in normal form (A = x2*x3).

    Walks the criteria ladder; each step settles two indices, mirroring one
    point blowup of the resolution.
    """
    if q.A != X2X3:
        raise GeometryError("classify_a requires the normal form A = x2*x3")
    cert = Certificate()
    for k, (value, nonzero, zero) in enumerate(a_criteria(coefficients(q))):
        if value:
            cert.add(nonzero, value, f"nonzero: A{k + 2}", step=(k + 3) // 2)
            return TypeTag("A", k + 2), cert
        cert.add(zero, value, f"zero: A>={k + 3}", step=(k + 3) // 2)
    return TypeTag("A", 8, exact=False), cert


# -- local germs and actual blowups -------------------------------------------------

_X1 = Polynomial.variable(1)
_X2 = Polynomial.variable(2)
_X3 = Polynomial.variable(3)


def line_slice(h: Polynomial) -> list:
    """Coefficients in x2 of the x1-linear, x3-free part of a chart equation.

    The roots are exactly the singular points of {h = 0} on the line
    {x1 = x3 = 0} when the chart equation has pure x1-free part x3^2.
    """
    coeffs = [h.coefficient((0, 1, e, 0)) for e in range(h.total_degree())]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def cone_slots(g: Polynomial) -> tuple:
    """The x1*x2, x1*x3 and x1^2 coefficients of a germ's quadratic part."""
    return g.coefficient((0, 1, 1, 0)), g.coefficient((0, 1, 0, 1)), g.coefficient((0, 2, 0, 0))


def a_chain_walk(g: Polynomial):
    """Iterated point blowups of a germ with rank-2 tangent cone.

    Yields, per blowup, the gradient of the chart equation at the node and
    the defect a*b - c of the exceptional conic
    x2*x3 + a*x1*x2 + b*x1*x3 + c*x1^2, whose Gram determinant is
    (a*b - c)/4.  A nonzero gradient means a smooth point; a nonzero
    defect means a node.  Otherwise the conic splits, and the next step
    shears its node back to the origin before blowing up again.
    """
    g, _ = normalize_cone(g)
    while True:
        h = point_chart(g)
        a, b, c = cone_slots(h)
        yield h.coefficient((0, 1, 0, 0)), a * b - c
        g = substitute(h, {2: _X2 - _X1.scale(b), 3: _X3 - _X1.scale(a)})


def _a_chain(g: Polynomial, cert: Certificate):
    """Classify a germ with rank-2 tangent cone along its A-chain walk."""
    walk = a_chain_walk(g)
    for count in range(1, A_CHAIN_BLOWUPS + 1):
        node_gradient, defect = next(walk)
        if node_gradient:
            cert.add("chain smooth point", node_gradient, f"A{2 * count}", step=count)
            return TypeTag("A", 2 * count)
        if defect:
            step = count + 1 if count == A_CHAIN_BLOWUPS else count
            cert.add("chain node rank", 3, f"A{2 * count + 1}", step=step)
            return TypeTag("A", 2 * count + 1)
    cert.add("chain exhausted", A_CHAIN_BLOWUPS, "A>=8", step=A_CHAIN_BLOWUPS + 1)
    return TypeTag("A", 8, exact=False)


# the D/E refinement ladder: the germ each D/E point blows up to at the
# multiple point of its exceptional line
SUB_GERM = {
    TypeTag("D", 5): TypeTag("A", 3),
    **{TypeTag("D", k): TypeTag("D", k - 2) for k in range(6, 11)},
    TypeTag("E", 6): TypeTag("A", 5),
    TypeTag("E", 7): TypeTag("D", 6),
    TypeTag("E", 8): TypeTag("E", 7),
}


def _de_chain(g: Polynomial, cert: Certificate, depth: int):
    """Blowup of a rank-1 germ: the coarse split, then the type one rung up
    ``SUB_GERM`` from the germ at the multiple point of the exceptional line."""
    g, _ = normalize_cone(g)
    if order_along(g, (2, 3)) >= 2:
        raise NonNormalInput("the surface is singular along the x1-axis of a germ")
    h1 = point_chart(g)
    p = line_slice(h1)
    if not p:
        raise NonNormalInput(
            "the blown-up surface is singular along the exceptional line"
        )
    # p is the binary cubic of the singular points on the exceptional line,
    # read in the first chart; the mirror chart holds it reversed, so 3 - deg p
    # roots lie at infinity, and it is built only to descend to one of them
    degree = len(p) - 1
    mult_inf = 3 - degree
    excess = squarefree_excess(p)

    if mult_inf <= 1 and excess == 0:
        cert.add("line singularities", f"d={degree}, simple roots", "D4")
        return TypeTag("D", 4)

    if depth <= 0:
        cert.add("refine", "depth cap", "D>=11")
        return TypeTag("D", 11, exact=False)

    # a nonzero cubic has at most one multiple root, so a finite one is found
    # by unique_multiple_root; a triple root makes E
    if mult_inf >= 2:
        distinguished = "infinity"
        coarse = "E" if mult_inf == 3 else "D>4"
        germ = mirror_chart(g)
    else:
        coarse = "E" if excess == 2 else "D>4"
        t0 = unique_multiple_root(p)
        distinguished = str(t0)
        germ = substitute(h1, {2: _X2 + Polynomial.constant(t0)})
    cert.add("line singularities", f"d={degree}, multiple at {distinguished}", coarse)

    sub = _classify_germ(germ, cert, depth - 1)
    lifts = {over: tag for tag, over in SUB_GERM.items() if tag.family == coarse[0]}
    if sub in lifts:
        tag = lifts[sub]
    elif coarse == "D>4" and sub.family == "D":
        # D9, D10 and D>=11 lift past the last index the chain tells apart
        tag = TypeTag("D", 11, exact=False)
    elif coarse == "D>4" and sub.family == "E":
        raise ClassificationError("a D-type point cannot refine to an E-type point")
    else:
        raise ClassificationError(
            f"{'an E' if coarse == 'E' else 'a D'}-type point cannot sit over "
            f"{sub.label()}; input is not canonical"
        )
    cert.add("refine", f"{tag.label()} <- {sub.label()}", "one-blowup lift")
    return tag


def _classify_germ(g: Polynomial, cert: Certificate, depth: int) -> TypeTag:
    """Dispatch a local double point by the rank of its tangent cone."""
    if g.is_zero() or not g.coefficient((0, 0, 0, 0)).is_zero():
        raise ClassificationError("germ does not vanish at the origin")
    mult = order_along(g, (0, 1, 2, 3))
    if mult == 1:
        raise ClassificationError("germ is nonsingular")
    if mult > 2:
        raise ClassificationError("germ multiplicity exceeds 2; not canonical")
    rank = quadratic_rank(g.homogeneous_component(2))
    if rank == 3:
        cert.add("germ tangent cone rank", 3, "A1")
        return TypeTag("A", 1)
    if rank == 2:
        return _a_chain(g, cert)
    return _de_chain(g, cert, depth)


def classify_local(g: Polynomial):
    """Classify a local double point at the origin by explicit blowups."""
    cert = Certificate()
    tag = _classify_germ(g, cert, MAX_REFINE_DEPTH)
    return tag, cert


# -- the D-E coarse split ----------------------------------------------------------
# p1 = B(x1, x2, 0) = sigma0*s^3 + rho2*s^2*t + beta2*s*t^2 + b0*t^3 is the binary cubic whose
# roots are the singular points of the first blowup on the exceptional line: three simple
# roots make D4, a double root D>4 and a triple root E, as for cubic surfaces (Bruce and
# Wall).  Its discriminant and Hessian covariant see roots at infinity too, so the split
# needs no degree cases and no divisions.


def de_coarse(t: CoefficientTable, cert: Certificate) -> str:
    """Coarse D4 / D>4 / E class of a rank-1 quartic from the invariants of p1.

    D4 when the discriminant is nonzero, E when the Hessian vanishes (a
    triple root), D>4 otherwise (one double root).
    """
    a, b, c, d = t.sigma0, t.rho2, t.beta2, t.b0
    if not (a or b or c or d):
        raise NonNormalInput("p1 vanishes identically: not normal, or not a Du Val point")
    bc, ad = b * c, a * d
    disc = bc * bc - a * c * c * c * 4 - b * b * b * d * 4 - ad * ad * 27 + bc * ad * 18
    if disc:
        cert.add("disc(p1)", disc, "nonzero: D4")
        return "D4"
    cert.add("disc(p1)", disc, "zero: D>4 or E")
    hessian = (b * b - a * c * 3, bc - ad * 9, c * c - b * d * 3)
    value = ", ".join(map(str, hessian))
    if any(hessian):
        cert.add("Hessian(p1)", value, "nonzero: D>4")
        return "D>4"
    cert.add("Hessian(p1)", value, "zero: E")
    return "E"


def classify_de(q: NormalizedQuartic):
    """D/E type of a rank-1 quartic in normal form (A = x3^2).

    ``de_coarse`` gives the coarse class in closed form and the blowup
    chain the exact type; the chain must confirm the coarse class at
    every point, D4 included.
    """
    if q.A != X3SQ:
        raise GeometryError("classify_de requires the normal form A = x3^2")
    cert = Certificate()
    coarse = de_coarse(coefficients(q), cert)
    tag = _de_chain(q.affine_equation(), cert, MAX_REFINE_DEPTH)
    chained = "E" if tag.family == "E" else "D4" if tag == TypeTag("D", 4) else "D>4"
    if chained != coarse:
        raise ConsistencyViolation(
            f"the invariants of p1 give {coarse} but the blowup chain gives {tag.label()}"
        )
    return tag, cert


# -- the public entry point ---------------------------------------------------------


def classify(q: NormalizedQuartic):
    """Full classification: dispatch on the normal-form A, then the
    matching criteria."""
    if q.A == X2X3:
        return classify_a(q)
    if q.A == X3SQ:
        return classify_de(q)
    cert = Certificate()
    # any other A has rank 3, the data of the first blowup: an irreducible
    # exceptional conic resolves the point at once
    cert.add("tangent cone rank", 3, "A1", step=1)
    return TypeTag("A", 1), cert


def brute_force_classify(q: NormalizedQuartic):
    """Independent oracle: classify by explicit blowups only."""
    return classify_local(q.affine_equation())


def classification_to_json(tag: TypeTag, cert: Certificate) -> dict:
    return {
        "family": tag.family,
        "index": tag.index,
        "exact": tag.exact,
        "certificate": cert.to_json(),
    }
