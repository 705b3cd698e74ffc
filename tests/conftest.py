from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quarticvp.field import GaussianRational
from quarticvp.poly import Polynomial


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
