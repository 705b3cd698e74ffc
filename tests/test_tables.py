import pytest

from quarticvp import tables
from quarticvp.blowup import run_toric_description
from quarticvp.errors import ConsistencyViolation
from quarticvp.field import GaussianRational
from quarticvp.generator import conforming_instance
from quarticvp.poly import parse
from quarticvp.quartic import normalize_at_point
from quarticvp.tables import (
    CONDITIONS_A,
    CONDITIONS_DE,
    DEGENERATE_DE_RAYS,
    claimed_link_table,
    claimed_vp_table,
    prior_conditions,
    ray_step_verdict,
)
from quarticvp.vpanalyzer import vp_conditions

P0 = (1, 0, 0, 0)


def test_prior_conditions_accumulate():
    # the side conditions of the earlier rays, not the ray's own
    assert prior_conditions((1, 2, 4), CONDITIONS_DE) == ()
    assert prior_conditions((1, 2, 5), CONDITIONS_DE) == ("beta3",)
    assert prior_conditions((1, 3, 7), CONDITIONS_DE) == ("delta3",)
    assert prior_conditions((1, 4, 5), CONDITIONS_DE) == ()
    assert all(prior_conditions(ray, CONDITIONS_A) == () for ray in CONDITIONS_A)


def test_ray_step_verdict_reads_single_steps():
    q = normalize_at_point(parse("x0^2*x2*x3 + x0*x1^3 + x2^4"), P0)
    assert ray_step_verdict(q, (1, 1, 1)).vp
    assert ray_step_verdict(q, (1, 1, 2)).vp
    # b0 != 0 blocks the second point blowup
    assert not ray_step_verdict(q, (1, 2, 2)).vp


def test_claimed_tables_shape():
    vp = claimed_vp_table()
    assert vp["A1"]["black"] == [[1, 1, 1]]
    assert vp["A6"]["colored"] == [[1, 1, 3], [1, 2, 3], [1, 2, 5], [1, 3, 4]]
    assert vp["D9"]["colored"][-1] == [1, 4, 5]
    links = claimed_link_table()
    assert links["A>=6"] == [[1, 1, 1], [1, 1, 2], [1, 2, 3], [1, 2, 5]]
    assert links["E8"] == [[1, 1, 1], [1, 1, 2], [1, 2, 3]]


def test_toggle_check_never_records_a_bug(monkeypatch):
    # a failed cross-check on a toggled instance is a bug, not a row note
    real = tables.ray_step_verdict
    conforming = conforming_instance("A", (1, 2, 3), seed=0)

    def verdict(q, ray):
        if tuple(ray) == (1, 2, 3) and q != conforming:
            raise ConsistencyViolation("direct and stepwise routes disagree")
        return real(q, ray)

    monkeypatch.setattr(tables, "ray_step_verdict", verdict)
    with pytest.raises(ConsistencyViolation):
        tables.compute_condition_table("A")


def test_degenerate_rows_mark_reducibility():
    # on the two rays the condition table flags with
    # "x1 divides the strict transform", conforming instances make the
    # walk abort with the reducibility contradiction
    import pytest
    from quarticvp.errors import ReducibleInput

    for ray in DEGENERATE_DE_RAYS:
        q = conforming_instance("DE", ray, seed=0)
        with pytest.raises(ReducibleInput):
            run_toric_description(q, ray)


def test_conforming_instances_meet_their_conditions():
    from quarticvp.quartic import coefficients

    q = conforming_instance("A", (1, 2, 4), seed=2)
    table = coefficients(q)
    for name in ("b0", "beta2", "c0", "rho2", "delta2"):
        assert getattr(table, name) == GaussianRational(0)


def test_condition_tables_are_the_weighted_order_inequality():
    # the equalities met up to ray w = (1,c,d) along its chain are exactly
    # vp_conditions(w): the step is vp iff wt_w(f) reaches c + d
    for table in (CONDITIONS_A, CONDITIONS_DE):
        for ray in table:
            _, c, d = ray
            chain = [(1, i, i) for i in range(1, c + 1)] + [(1, c, j) for j in range(c + 1, d + 1)]
            met = [name for r in chain for name in table.get(r, ((), ()))[0]]
            assert sorted(met) == sorted(vp_conditions(ray)), ray
