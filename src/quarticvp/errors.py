"""Error types shared across the package.

Every class carries the command line's exit code and stderr label.
``QuarticVPError`` is the base of the refusals (exit 3 unless a subclass
says otherwise); ``ConsistencyViolation`` is a bug (exit 5) and sits outside
it, so an ``except QuarticVPError`` never catches a bug.
"""


class QuarticVPError(Exception):
    """Base class of the refusals: inputs the engine does not decide."""

    exit_code = 3
    label = "error"


class PolyParseError(QuarticVPError):
    """Malformed polynomial text.  Carries the byte offset of the failure."""

    exit_code = 2
    label = "parse error"

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class GeometryError(QuarticVPError):
    """A geometric precondition failed (point not on the surface,
    nonsingular point, multiplicity worse than a double point, ...)."""


class ReducibleInput(GeometryError):
    """The surface revealed itself as reducible or non-normal during a
    blowup: the exceptional divisor absorbed a component of the strict
    transform."""


class NonNormalInput(GeometryError):
    """The strict transform is singular along a whole curve: the surface is
    not normal, or the point is not a Du Val point (a simple elliptic point
    such as x3^2 + x1^4 + x2^4 blows up to a curve of singular points)."""


class FieldExtensionRequired(QuarticVPError):
    """A rank-2 tangent cone does not split into linear forms over Q(i):
    the square root it needs does not exist there."""

    exit_code = 4
    label = "field extension required"


class ClassificationError(QuarticVPError):
    """The refinement walked into a configuration no Du Val singularity
    produces; the input is outside the canonical range."""


class ConsistencyViolation(Exception):
    """An internal cross-check failed: the direct discrepancy formula and
    the stepwise toric description disagreed, the blowup chain did not
    confirm the D4 / D>4 / E class of the invariants of p1, or a computed
    normal form or factorization did not reproduce its input.  This is an
    internal bug, never a property of the input."""

    exit_code = 5
    label = "consistency violation"


class GenerationError(QuarticVPError):
    """The witness generator exhausted its retry budget for a stratum."""
