"""The staged A_n criteria ladder against the closed forms it replaced.

``singclass`` evaluates the chain quantities in four stages (zeta; xi2,
xi3, alpha; omega, eta, theta; gamma2, gamma3, mu) with shared products.
The oracle below is the earlier one-shot evaluation, copied verbatim, so the
stages are checked against formulas that share nothing with them.  The
laziness tests read which named coefficients a reader of the ladder touches.
"""

import random
from fractions import Fraction

from quarticvp import generator, singclass
from quarticvp.field import GaussianRational
from quarticvp.generator import GenSpec
from quarticvp.quartic import COEFF_NAMES, CoefficientTable, coefficients
from quarticvp.singclass import TypeTag, a_chain_quantities, a_criteria, classify_a

# -- oracle: the one-shot closed forms --------------------------------------------


def _b2(t, x, y):
    return t.rho2 * x * x + t.rho23 * x * y + t.rho3 * y * y


def _b3(t, x, y):
    return t.sigma0 * x**3 + t.sigma1 * x * x * y + t.sigma2 * x * y * y + t.sigma3 * y**3


def _c1(t, x, y):
    return t.delta2 * x + t.delta3 * y


def _c2(t, x, y):
    return t.eps2 * x * x + t.eps23 * x * y + t.eps3 * y * y


def _c3(t, x, y):
    return t.tau0 * x**3 + t.tau1 * x * x * y + t.tau2 * x * y * y + t.tau3 * y**3


def _c4(t, x, y):
    return (
        t.lam0 * x**4
        + t.lam1 * x**3 * y
        + t.lam2 * x * x * y * y
        + t.lam3 * x * y**3
        + t.lam4 * y**4
    )


def oracle_quantities(t) -> dict:
    zeta = _b2(t, t.beta3, t.beta2) - _c1(t, t.beta3, t.beta2)
    xi2 = -t.rho2 * t.beta3 * 2 - t.rho23 * t.beta2 + t.delta2
    xi3 = -t.rho3 * t.beta2 * 2 - t.rho23 * t.beta3 + t.delta3
    alpha = -_b3(t, t.beta3, t.beta2) + _c2(t, t.beta3, t.beta2)
    omega = (
        -t.sigma0 * 3 * xi3 * t.beta3**2
        + t.sigma1 * (-xi3 * t.beta2 * t.beta3 * 2 - xi2 * t.beta3**2)
        + t.sigma2 * (-xi3 * t.beta2**2 - xi2 * t.beta2 * t.beta3 * 2)
        - t.sigma3 * 3 * xi2 * t.beta2**2
    )
    eta = (
        t.eps2 * 2 * xi3 * t.beta3
        + t.eps23 * xi3 * t.beta2
        + t.eps23 * xi2 * t.beta3
        + t.eps3 * 2 * xi2 * t.beta2
    )
    theta = _b2(t, xi3, xi2) + omega + eta - _c3(t, t.beta3, t.beta2)
    gamma2 = (
        -t.rho2 * 2 * xi3
        - t.rho23 * xi2
        + t.sigma0 * 3 * t.beta3**2
        + t.sigma1 * 2 * t.beta2 * t.beta3
        + t.sigma2 * t.beta2**2
        - t.eps2 * 2 * t.beta3
        - t.eps23 * t.beta2
    )
    gamma3 = (
        -t.rho23 * xi3
        - t.rho3 * 2 * xi2
        + t.sigma3 * 3 * t.beta2**2
        + t.sigma2 * 2 * t.beta2 * t.beta3
        + t.sigma1 * t.beta3**2
        - t.eps3 * 2 * t.beta2
        - t.eps23 * t.beta3
    )
    mu = (
        -t.sigma0 * 3 * t.beta3 * xi3**2
        - t.sigma3 * 3 * t.beta2 * xi2**2
        - t.sigma1 * 2 * t.beta3 * xi2 * xi3
        - t.sigma2 * 2 * t.beta2 * xi2 * xi3
        - t.sigma1 * xi3**2 * t.beta2
        - t.sigma2 * xi2**2 * t.beta3
        + t.eps2 * xi3**2
        + t.eps23 * xi2 * xi3
        + t.eps3 * xi2**2
        - t.tau0 * 3 * t.beta3**2 * xi3
        - t.tau3 * 3 * t.beta2**2 * xi2
        + t.tau1 * (-t.beta2 * t.beta3 * xi3 * 2 - t.beta3**2 * xi2)
        + t.tau2 * (-xi3 * t.beta2**2 - t.beta2 * t.beta3 * xi2 * 2)
        + _c4(t, t.beta3, t.beta2)
    )
    return {
        "zeta": zeta,
        "xi2": xi2,
        "xi3": xi3,
        "alpha": alpha,
        "omega": omega,
        "eta": eta,
        "theta": theta,
        "gamma2": gamma2,
        "gamma3": gamma3,
        "mu": mu,
    }


def oracle_criteria(t) -> list:
    d = oracle_quantities(t)
    return [
        (t.b0, "b0 (*1)", "b0 (*1)"),
        (t.c0 - t.beta2 * t.beta3, "c0 - beta2*beta3 (*2)", "c0 - beta2*beta3 (*2)"),
        (d["zeta"], "zeta", "zeta (*3)"),
        (d["xi2"] * d["xi3"] - d["alpha"], "xi2*xi3 - alpha (*4)", "xi2*xi3 - alpha (*4)"),
        (d["theta"], "theta", "theta (*5)"),
        (d["gamma2"] * d["gamma3"] - d["mu"], "gamma2*gamma3 - mu", "gamma2*gamma3 - mu"),
    ]


def _random_entry(rng: random.Random) -> GaussianRational:
    kind = rng.random()
    if kind < 0.3:
        return GaussianRational(0)
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    if kind < 0.65:
        return GaussianRational(re)
    return GaussianRational(re, Fraction(rng.randint(-9, 9), rng.randint(1, 7)))


def random_tables(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [
        CoefficientTable(**{name: _random_entry(rng) for name in COEFF_NAMES})
        for _ in range(count)
    ]


def test_staged_chain_quantities_match_the_one_shot_formulas():
    tables = random_tables(seed=15, count=150)
    for t in tables:
        assert a_chain_quantities(t) == oracle_quantities(t), t
    # the draws cover zero, real and complex entries
    values = [getattr(t, n) for t in tables for n in COEFF_NAMES]
    assert any(v.is_zero() for v in values)
    assert any(v and v.is_real() for v in values)
    assert any(not v.is_real() for v in values)


def test_staged_ladder_yields_the_same_six_criteria():
    for t in random_tables(seed=16, count=150):
        assert list(a_criteria(t)) == oracle_criteria(t), t


# -- laziness: a reader of criterion k reads no coefficient past its stage ---------


class RecordingTable:
    """A coefficient table that records every named coefficient read from it."""

    def __init__(self, table: CoefficientTable):
        self._table = table
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._table, name)


def _families(names) -> set:
    return {name.rstrip("0123456789") for name in names}


def _dense_table() -> CoefficientTable:
    return CoefficientTable(
        **{name: GaussianRational(i + 1, 1) for i, name in enumerate(COEFF_NAMES)}
    )


def test_criterion_0_reads_only_b0():
    table = RecordingTable(_dense_table())
    value, _, _ = next(a_criteria(table))
    assert value == table.b0
    table.read.discard("b0")
    assert not table.read


def _record_tables(monkeypatch, module) -> list:
    """Make ``module.coefficients`` hand out recording tables, kept in the list returned."""
    tables = []

    def recording_coefficients(quartic):
        tables.append(RecordingTable(coefficients(quartic)))
        return tables[-1]

    monkeypatch.setattr(module, "coefficients", recording_coefficients)
    return tables


def test_generic_a3_never_reads_tau_or_lam(witness_corpus, monkeypatch):
    q = dict(witness_corpus)[GenSpec(TypeTag("A", 3), "generic", 0)]
    tables = _record_tables(monkeypatch, singclass)
    tag, _ = classify_a(q)
    assert tag == TypeTag("A", 3)
    assert len(tables) == 1
    assert not _families(tables[0].read) & {"tau", "lam"}, tables[0].read


def test_criterion_defect_2_never_reads_the_later_stages():
    table = RecordingTable(_dense_table())
    assert generator._criterion_defect(2)(table) is not None
    read = _families(table.read)
    assert not read & {"sigma", "eps", "tau", "lam"}, table.read
    assert {"rho", "delta", "beta"} <= read
