from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quarticvp.field import GaussianRational, ONE, ZERO
from quarticvp.poly import Polynomial
from quarticvp.quartic import mat_inverse


@pytest.fixture(scope="session")
def a19_pair():
    from quarticvp import fixtures

    return fixtures.a19_original(), fixtures.a19_tangent_cone_form()


@pytest.fixture(scope="session")
def witness_corpus():
    """The session's one witness catalogue: (spec, witness or None) for the
    generic stratum of every generator target at seeds 0-7 and every colored
    cell at seeds 0-2."""
    from quarticvp.generator import corpus

    return corpus(seed=0, generic_seeds=8, special_seeds=3)


def random_coeff(rng: random.Random, complex_parts=True) -> GaussianRational:
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    im = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if complex_parts and rng.random() < 0.4 else 0
    return GaussianRational(re, im)


def random_poly(rng: random.Random, max_terms=6, max_degree=4) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0, 0, 0, 0]
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(4)] += 1
        terms[tuple(mono)] = random_coeff(rng)
    return Polynomial(terms)


def random_point_fixing_frame(rng: random.Random):
    """An invertible 4x4 matrix over Q(i) whose first column is e0, so the
    change x -> M x keeps the marked point (1:0:0:0); its other entries are
    random."""
    while True:
        matrix = [[ZERO] * 4 for _ in range(4)]
        matrix[0][0] = ONE
        for j in range(1, 4):
            matrix[0][j] = random_coeff(rng)
            for i in range(1, 4):
                matrix[i][j] = random_coeff(rng)
        matrix = tuple(tuple(row) for row in matrix)
        try:
            mat_inverse(matrix)
        except ValueError:
            continue
        return matrix
