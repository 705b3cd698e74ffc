import pytest

from quarticvp import tables
from quarticvp.errors import ConsistencyViolation
from quarticvp.field import GaussianRational
from quarticvp.poly import parse
from quarticvp.quartic import normalize_at_point
from quarticvp.tables import (
    CONDITIONS_A,
    CONDITIONS_DE,
    DEGENERATE_DE_RAYS,
    claimed_link_table,
    claimed_vp_table,
    conforming_instance,
    prior_conditions,
    ray_step_verdict,
    ray_walk,
)

P0 = (1, 0, 0, 0)


def test_prior_conditions_accumulate():
    assert prior_conditions((1, 2, 5), CONDITIONS_A) == (
        "b0",
        "beta2",
        "c0",
        "rho2",
        "delta2",
    )
    assert prior_conditions((1, 1, 3), CONDITIONS_A) == ()
    assert prior_conditions((1, 4, 5), CONDITIONS_DE) == (
        "b0",
        "c0",
        "beta2",
        "beta3",
        "delta2",
        "delta3",
    )


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
            ray_walk(q, ray)


def test_conforming_instances_meet_their_conditions():
    from quarticvp.quartic import coefficients

    q = conforming_instance("A", (1, 2, 4), seed=2)
    table = coefficients(q)
    for name in ("b0", "beta2", "c0", "rho2", "delta2"):
        assert getattr(table, name) == GaussianRational(0)


def test_condition_tables_are_the_weighted_order_inequality():
    # the conditions met up to ray w = (1,c,d) are exactly the named slots
    # e with e . w < c + d: the step is vp iff wt_w(f) reaches c + d
    from quarticvp.quartic import SLOTS

    for table in (CONDITIONS_A, CONDITIONS_DE):
        for ray, (own, _) in table.items():
            _, c, d = ray
            below = {
                name
                for name, slot in SLOTS.items()
                if sum(w * e for w, e in zip(ray, slot)) < c + d
            }
            assert set(prior_conditions(ray, table) + own) == below, ray
