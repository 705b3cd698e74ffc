"""Normalization of a quartic surface at a marked double point.

Given a homogeneous quartic F and a point P on it, the surface is moved to
coordinates with P = (1:0:0:0) and written as x0^2*A + x0*B + C with A, B,
C of degrees 2, 3, 4 in x1, x2, x3, with A in normal form: literally
x2*x3 (rank 2), literally x3^2 (rank 1), or of rank 3.  These are the
three branches the classifier knows.  ``normalize_cone`` brings the tangent
cone of a quartic (``normal_form``) or of a local germ to x2*x3 or x3^2:
it splits the cone, with ``complete_square`` as the one square completion,
and ``frame_sending`` builds the one frame that puts each split form in its
target row.

All changes of coordinates are recorded as an invertible 4x4 matrix so the
normalized equation can be audited against the input.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .errors import ConsistencyViolation, FieldExtensionRequired, GeometryError
from .field import GaussianRational, ONE, ZERO, coeff_sort_key, sqrt_if_exists
from .poly import (
    Polynomial,
    dehomogenize,
    format_poly,
    linear_change,
    parse,
    parse_coeff,
    permute_variables,
    shear,
    substitute,
)

# -- small exact linear algebra ------------------------------------------------


def mat_identity(n: int):
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(n)), ZERO) for j in range(n)
        )
        for i in range(n)
    )


def _gauss_jordan(rows, width: int) -> int:
    """Reduce ``rows`` in place on their first ``width`` columns; returns the rank."""
    n = len(rows)
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(n):
            if r != rank and not rows[r][col].is_zero():
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def mat_inverse(a):
    """Exact inverse by Gauss-Jordan; raises on a singular matrix."""
    n = len(a)
    work = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    if _gauss_jordan(work, n) < n:
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in work)


def mat_rank(a) -> int:
    return _gauss_jordan([list(r) for r in a], len(a[0]))


# -- quadratic forms in x1, x2, x3 ----------------------------------------------


def quad_monomial(i: int, j: int) -> tuple:
    """Exponents of the monomial x_i * x_j."""
    mono = [0, 0, 0, 0]
    mono[i] += 1
    mono[j] += 1
    return tuple(mono)


def gram_matrix(q: Polynomial):
    """Symmetric 3x3 Gram matrix of a quadratic form in x1, x2, x3."""
    half = GaussianRational.of(1) / 2
    g = [[ZERO] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            c = q.coefficient(quad_monomial(i + 1, j + 1))
            g[i][j] = c if i == j else c * half
    return tuple(tuple(row) for row in g)


def quadratic_rank(q: Polynomial) -> int:
    return mat_rank(gram_matrix(q))


def _linear_form(vec) -> Polynomial:
    p = Polynomial.zero()
    for i, c in enumerate(vec):
        if not GaussianRational.of(c).is_zero():
            p = p + Polynomial.variable(i + 1).scale(c)
    return p


def complete_square(q: Polynomial):
    """(c, L) for the first x_k^2 of ``q`` with a coefficient c != 0, where
    L = x_k + (the other x_k terms of q)/(2c) as a 3-vector, so that
    q - c*L^2 is free of x_k; None when ``q`` has no square term."""
    for k in range(1, 4):
        c = q.coefficient(quad_monomial(k, k))
        if not c.is_zero():
            lvec = tuple(
                ONE if o == k else q.coefficient(quad_monomial(k, o)) / (c * 2)
                for o in range(1, 4)
            )
            return c, lvec
    return None


def factor_rank2(q: Polynomial):
    """Write a rank-2 quadratic form as a product of two linear forms.

    Output is a pair of 3-vectors (f, g) over (x1, x2, x3) with
    _linear_form(f) * _linear_form(g) == q exactly.
    """
    square = complete_square(q)
    if square is None:
        # pure cross terms: a12 x1x2 + a13 x1x3 + a23 x2x3 with one product
        # vanishing (rank 2), so the split is rational
        a = {
            (i, j): q.coefficient(quad_monomial(i + 1, j + 1))
            for i in range(3)
            for j in range(i, 3)
        }
        pairs = [((0, 1), 2), ((0, 2), 1), ((1, 2), 0)]
        for (i, j), k in pairs:
            if not a[(i, j)].is_zero():
                f = [ZERO, ZERO, ZERO]
                g = [ZERO, ZERO, ZERO]
                f[i] = a[(i, j)]
                f[k] = a[(min(j, k), max(j, k))]
                g[j] = ONE
                g[k] = a[(min(i, k), max(i, k))] / a[(i, j)]
                if _linear_form(f) * _linear_form(g) == q:
                    return tuple(f), tuple(g)
        raise ValueError(f"{format_poly(q)} is not a rank-2 quadratic form")

    # q = d*L^2 + (a binary form in the other two variables), which rank 2
    # forces to be c*M^2
    d, lvec = square
    lpoly = _linear_form(lvec)
    c, mvec = rank1_square(q - (lpoly * lpoly).scale(d))
    # q = d L^2 + c M^2 = d (L + sM)(L - sM) with s^2 = -c/d
    s = sqrt_if_exists(-(c / d))
    if s is None:
        raise FieldExtensionRequired(
            "tangent cone does not split into linear forms over Q(i)"
        )
    f = tuple(d * (lv + s * mv) for lv, mv in zip(lvec, mvec))
    g = tuple(lv - s * mv for lv, mv in zip(lvec, mvec))
    if _linear_form(f) * _linear_form(g) != q:
        raise ConsistencyViolation("internal factorization check failed")
    return f, g


def rank1_square(q: Polynomial):
    """Write a rank-1 quadratic form as c * L^2 with L a rational 3-vector."""
    square = complete_square(q)
    if square is not None:
        c, lvec = square
        lpoly = _linear_form(lvec)
        if (lpoly * lpoly).scale(c) == q:
            return square
    raise ValueError(f"{format_poly(q)} is not a rank-1 quadratic form")


def frame_sending(forms):
    """4x4 substitution S fixing x0 with form(S x) = x_t for each target t.

    ``forms`` maps a target index in 1..3 to a 3-vector over (x1, x2, x3).
    The frame has e0 as row 0 and each form in its target row; each free
    row, in target order, takes the next unit vector that keeps the rows
    independent.  S is the frame's inverse; dependent forms raise
    ValueError.
    """
    rows = {t: tuple(vec) for t, vec in forms.items()}
    units = (tuple(ONE if i == e else ZERO for i in range(3)) for e in range(3))
    for t in range(1, 4):
        if t not in rows:
            rows[t] = next(
                (u for u in units if mat_rank((*rows.values(), u)) == len(rows) + 1),
                (ZERO,) * 3,
            )
    return mat_inverse([(ONE, ZERO, ZERO, ZERO)] + [(ZERO,) + rows[t] for t in range(1, 4)])


# -- the normalized quartic -------------------------------------------------------

X2X3 = parse("x2*x3")
X3SQ = parse("x3^2")


@dataclass(frozen=True)
class NormalizedQuartic:
    """A quartic x0^2*A + x0*B + C at P = (1:0:0:0) in normal form, plus
    provenance.

    A is literally x2*x3 (rank 2), literally x3^2 (rank 1) or of rank 3;
    the constructor refuses any other A.  ``change`` is the substitution
    matrix that turns the original input into this representative:
    F_stored(x) = F_input(change . x) up to a constant factor (normalizing
    a rank-1 cone divides by one).  The constructor also sums the chart
    A + B + C once; it is kept outside the fields, so equality, hashing and
    the JSON form see A, B, C and ``change`` only.
    """

    A: Polynomial
    B: Polynomial
    C: Polynomial
    change: tuple

    def __post_init__(self):
        if self.A.is_zero():
            raise GeometryError("multiplicity at the point exceeds 2")
        for part, deg in ((self.A, 2), (self.B, 3), (self.C, 4)):
            if part.is_zero():
                continue
            if not part.is_homogeneous() or part.total_degree() != deg or 0 in part.variables():
                raise GeometryError(f"part of degree {deg} is malformed")
        if self.A != X2X3 and self.A != X3SQ and quadratic_rank(self.A) != 3:
            raise GeometryError("tangent cone is not in normal form (x2*x3, x3^2 or rank 3)")
        object.__setattr__(self, "_affine", self.A + self.B + self.C)

    def full_equation(self) -> Polynomial:
        x0 = Polynomial.variable(0)
        return x0 * x0 * self.A + x0 * self.B + self.C

    def affine_equation(self) -> Polynomial:
        """The chart {x0 != 0}: A + B + C, the one object the constructor built."""
        return self._affine

    def to_json(self) -> dict:
        return {
            "A": format_poly(self.A),
            "B": format_poly(self.B),
            "C": format_poly(self.C),
            "change": [[str(c) for c in row] for row in self.change],
        }

    @staticmethod
    def from_json(data: dict) -> "NormalizedQuartic":
        change = tuple(
            tuple(parse_coeff(c) for c in row) for row in data["change"]
        )
        return NormalizedQuartic(
            A=parse(data["A"]), B=parse(data["B"]), C=parse(data["C"]), change=change
        )


def normalize_at_point(f: Polynomial, point) -> NormalizedQuartic:
    """Move ``point`` to (1:0:0:0) and return the quartic in normal form.

    Rejects points off the surface, nonsingular points, and points of
    multiplicity 3 or more; only double points are in the canonical range.
    """
    if f.is_zero() or not f.is_homogeneous() or f.total_degree() != 4:
        raise GeometryError("input must be a nonzero homogeneous quartic")
    point = [GaussianRational.of(c) for c in point]
    if len(point) != 4 or all(c.is_zero() for c in point):
        raise GeometryError("a projective point needs 4 coordinates, not all zero")

    pivot = next(i for i, c in enumerate(point) if not c.is_zero())
    others = [j for j in range(4) if j != pivot]
    columns = [point] + [[ONE if i == j else ZERO for i in range(4)] for j in others]
    matrix = tuple(tuple(columns[j][i] for j in range(4)) for i in range(4))
    # f(matrix . x) without a dense change: x_pivot -> p_pivot*x0 and, for
    # the coordinate x_j that column c holds, x_j -> x_c + p_j*x0.  The
    # scaling of x0 comes before the shears, whose new x0 terms it must miss.
    perm = [0] * 4
    for c, j in enumerate(others, 1):
        perm[j] = c
    g = permute_variables(f, perm)
    if not point[pivot].is_one():
        g = substitute(g, {0: Polynomial.monomial((1, 0, 0, 0), point[pivot])})
    for c, j in enumerate(others, 1):
        g = shear(g, c, point[j])
    g = dehomogenize(g, 0)
    if not g.homogeneous_component(0).is_zero():
        raise GeometryError("the point does not lie on the quartic")
    if not g.homogeneous_component(1).is_zero():
        raise GeometryError("the point is a nonsingular point of the quartic")
    return normal_form(g, matrix)


def normalize_cone(g: Polynomial):
    """Bring the quadratic part of ``g`` to literally x2*x3 or x3^2.

    The quadratic part must have rank 2 or 1.  A rank-2 cone is split into
    two linear forms; the one with the larger leading coefficient becomes
    x2.  A rank-1 cone c*L^2 is reached by dividing ``g`` by c, which
    leaves the surface unchanged and needs no square root of c.  Raises
    FieldExtensionRequired only for a rank-2 cone that does not split over
    Q(i).  Returns the changed polynomial and the 4x4 substitution.
    """
    quad = g.homogeneous_component(2)
    if quad == X2X3 or quad == X3SQ:
        return g, mat_identity(4)
    if quadratic_rank(quad) == 2:
        f, h = factor_rank2(quad)
        lead_f = next(c for c in f if not c.is_zero())
        lead_h = next(c for c in h if not c.is_zero())
        if coeff_sort_key(lead_f) < coeff_sort_key(lead_h):
            f, h = h, f
        m4 = frame_sending({2: f, 3: h})
        target = X2X3
    else:
        c, lvec = rank1_square(quad)
        g = g.scale(c.inverse())
        m4 = frame_sending({3: lvec})
        target = X3SQ
    out = linear_change(g, m4)
    if out.homogeneous_component(2) != target:
        raise ConsistencyViolation("internal normal form check failed")
    return out, m4


def normal_form(g: Polynomial, change) -> NormalizedQuartic:
    """The normalized quartic of an affine equation ``g`` at a double point
    at the origin, reached from the input by the substitution ``change``.

    A cone of rank 2 or 1 that is not yet literally x2*x3 or x3^2 is brought
    there by ``normalize_cone``, whose substitution is composed onto
    ``change``; any other cone is left as it is for the constructor to
    accept (rank 3) or refuse.  Then ``g`` splits into A, B, C.
    """
    quad = g.homogeneous_component(2)
    if quad != X2X3 and quad != X3SQ and 0 < quadratic_rank(quad) < 3:
        g, m4 = normalize_cone(g)
        change = mat_mul(change, m4)
    return NormalizedQuartic(
        A=g.homogeneous_component(2),
        B=g.homogeneous_component(3),
        C=g.homogeneous_component(4),
        change=change,
    )


# -- named coefficients -----------------------------------------------------------

# exponents (e1, e2, e3) of the monomial each named coefficient sits on: degree
# 3 is B, degree 4 is C.  COEFF_NAMES keeps this order, in which the generator
# draws its random coefficients.
SLOTS = {
    "b0": (3, 0, 0),
    "beta2": (2, 1, 0),
    "beta3": (2, 0, 1),
    "rho2": (1, 2, 0),
    "rho23": (1, 1, 1),
    "rho3": (1, 0, 2),
    "sigma0": (0, 3, 0),
    "sigma1": (0, 2, 1),
    "sigma2": (0, 1, 2),
    "sigma3": (0, 0, 3),
    "c0": (4, 0, 0),
    "delta2": (3, 1, 0),
    "delta3": (3, 0, 1),
    "eps2": (2, 2, 0),
    "eps23": (2, 1, 1),
    "eps3": (2, 0, 2),
    "tau0": (1, 3, 0),
    "tau1": (1, 2, 1),
    "tau2": (1, 1, 2),
    "tau3": (1, 0, 3),
    "lam0": (0, 4, 0),
    "lam1": (0, 3, 1),
    "lam2": (0, 2, 2),
    "lam3": (0, 1, 3),
    "lam4": (0, 0, 4),
}
COEFF_NAMES = tuple(SLOTS)


class CoefficientTable(namedtuple("CoefficientTable", COEFF_NAMES, defaults=(ZERO,) * len(SLOTS))):
    """The named coefficients of B and C in normal-form coordinates; an
    immutable tuple in ``COEFF_NAMES`` order, zero where a name is not given."""

    __slots__ = ()

    def __new__(cls, **values):
        unknown = values.keys() - SLOTS.keys()
        if unknown:
            raise TypeError(f"unknown coefficient names: {', '.join(sorted(unknown))}")
        return super().__new__(cls, **{n: GaussianRational.of(v) for n, v in values.items()})

    def part(self, degree: int) -> Polynomial:
        """B (degree 3) or C (degree 4) from the named coefficients."""
        return Polynomial(
            {(0,) + e: getattr(self, name) for name, e in SLOTS.items() if sum(e) == degree}
        )


def coefficients(q: NormalizedQuartic) -> CoefficientTable:
    """Extract the named coefficient table; requires normal-form A."""
    if q.A != X2X3 and q.A != X3SQ:
        raise GeometryError("coefficient table requires A = x2*x3 or A = x3^2")
    parts = {3: q.B, 4: q.C}
    return CoefficientTable(
        **{name: parts[sum(e)].coefficient((0,) + e) for name, e in SLOTS.items()}
    )


def quartic_from_table(a: Polynomial, table: CoefficientTable) -> NormalizedQuartic:
    """Assemble a normal-form quartic from A and a coefficient table."""
    return NormalizedQuartic(A=a, B=table.part(3), C=table.part(4), change=mat_identity(4))
