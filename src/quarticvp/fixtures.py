"""Checked-in ground-truth fixtures.

The quartic with a single A19 point is unique up to automorphisms of P^3;
it ships in two coordinate systems together with the projective change
that connects them, and anchors the classification and vp suites.
"""

from __future__ import annotations

from importlib import resources

from .field import rational
from .poly import Polynomial, parse, substitute


def _load(name: str) -> Polynomial:
    text = resources.files("quarticvp").joinpath("data", name).read_text()
    return parse(text.strip())


def a19_original() -> Polynomial:
    """The A19 quartic in its original coordinates."""
    return _load("a19_original.txt")


def a19_tangent_cone_form() -> Polynomial:
    """The same quartic with the tangent cone at P moved to x2*x3."""
    return _load("a19_tangent_cone_form.txt")


def a19_coordinate_change(f: Polynomial) -> Polynomial:
    """Apply x1 -> (x2+x3)/8, x2 -> i(x2-x3)/8, x3 -> x1.

    Maps the original form onto the tangent-cone form, exactly.
    """
    eighth = rational(1, 8)
    i_eighth = rational(1, 8, imaginary=True)
    x1, x2, x3 = (Polynomial.variable(k) for k in (1, 2, 3))
    return substitute(
        f,
        {
            1: (x2 + x3).scale(eighth),
            2: (x2 - x3).scale(i_eighth),
            3: x1,
        },
    )
