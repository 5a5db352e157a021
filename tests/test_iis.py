"""IIS extraction: family identification and minimality."""

from dataclasses import replace

import numpy as np
import pytest

from corpus import make_capacity_starved, make_compute_starved
from optiloop import iis, lp
from optiloop.errors import NotInfeasible
from optiloop.iis import compute_iis, _feasible
from optiloop.loop import _all_on, _assignment_modes


def _hand_problem(rows, n_vars=1, objective=None):
    """Tiny LpProblem straight from coefficient lists (no scenario)."""
    variables = tuple(lp.VarRef("transit", (f"c{i}", "e", "A", "A")) for i in range(n_vars))
    cons = tuple(
        lp.LinearConstraint((cid_family, (f"r{k}",)), terms, sense, rhs)
        for k, (cid_family, terms, sense, rhs) in enumerate(rows)
    )
    import numpy as np

    return lp.LpProblem(
        variables=variables,
        var_index={ref: i for i, ref in enumerate(variables)},
        pins=np.zeros(0, dtype=np.int8),  # no binaries
        constraints=cons,
        objective=np.asarray(objective if objective is not None else np.zeros(n_vars)),
        traffic_scale=1.0,
    )


def _all_on_problem(s):
    p = lp.build_problem(s)
    x, y, d = _all_on(s)
    return lp._with_modes(p, _assignment_modes(p, x, y, d))


def test_two_constraint_conflict_reports_both():
    # x >= 3 (family 9 stand-in) and x <= 1 (family 4 stand-in)
    p = _hand_problem(
        [
            (9, ((0, -1.0),), "le", -3.0),
            (4, ((0, 1.0),), "le", 1.0),
        ]
    )
    report = compute_iis(p)
    assert set(report.constraint_ids) == {(9, ("r0",)), (4, ("r1",))}
    assert report.families == frozenset({4, 9})


def test_superfluous_constraints_filtered_out():
    p = _hand_problem(
        [
            (9, ((0, -1.0),), "le", -3.0),
            (4, ((0, 1.0),), "le", 1.0),
            (4, ((0, 1.0),), "le", 100.0),  # slack, must not appear
            (5, ((0, 1.0),), "le", 50.0),
        ]
    )
    report = compute_iis(p)
    assert set(report.constraint_ids) == {(9, ("r0",)), (4, ("r1",))}


def test_not_infeasible_raises(vepc):
    p = lp.build_problem(vepc)
    with pytest.raises(NotInfeasible):
        compute_iis(p)


@pytest.mark.parametrize("seed", range(6))
def test_capacity_starved_contains_family_4(seed):
    fp = _all_on_problem(make_capacity_starved(seed))
    report = compute_iis(fp)
    assert 4 in report.families


@pytest.mark.parametrize("seed", range(6))
def test_compute_starved_contains_family_7(seed):
    fp = _all_on_problem(make_compute_starved(seed))
    report = compute_iis(fp)
    assert 7 in report.families


def test_minimality_every_member_essential():
    for seed in range(3):
        for maker in (make_capacity_starved, make_compute_starved):
            fp = _all_on_problem(maker(seed))
            report = compute_iis(fp)
            id_to_row = {con.cid: r for r, con in enumerate(fp.constraints)}
            rows = sorted(id_to_row[cid] for cid in report.constraint_ids)
            assert not _feasible(fp, rows)  # the set itself conflicts
            for drop in rows:
                remaining = [r for r in rows if r != drop]
                assert _feasible(fp, remaining), (
                    f"member {fp.constraints[drop].cid} is not essential"
                )


def test_feasible_from_one_block_poses_each_subset_as_its_own_assembly(monkeypatch):
    # _feasible solves each trial on rows of the problem's one assembled
    # block, with the problem's column bounds; the rows passed to the
    # solver must be those the trial subset assembles to, bit for bit.
    posed = []
    real = iis.solve_dense

    def spy(c, A, rhs, senses, **kwargs):
        posed.append((c, A, rhs, list(senses), kwargs["lo"], kwargs["hi"]))
        return real(c, A, rhs, senses, **kwargs)

    monkeypatch.setattr(iis, "solve_dense", spy)
    rng = np.random.default_rng(31)
    verdicts = set()
    for seed in range(4):
        for maker in (make_capacity_starved, make_compute_starved):
            fp = _all_on_problem(maker(seed))
            lo, hi = lp._bounds(fp)
            n = len(fp.constraints)
            for share in (0.3, 0.7, 0.95, 1.0):
                rows = sorted(np.flatnonzero(rng.random(n) < share).tolist())
                q = replace(fp, constraints=tuple(fp.constraints[r] for r in rows))
                want = lp._base(q)
                posed.clear()
                verdicts.add(_feasible(fp, rows))
                [(c_got, A_got, rhs_got, senses_got, lo_got, hi_got)] = posed
                assert np.array_equal(c_got, fp.objective)
                assert np.array_equal(A_got, want.A)
                assert np.array_equal(rhs_got, want.rhs)
                assert senses_got == want.senses
                assert np.array_equal(lo_got, lo) and np.array_equal(hi_got, hi)
    assert verdicts == {True, False}


def test_loop_solution_saves_the_opening_solve():
    for seed in range(50):
        for maker in (make_capacity_starved, make_compute_starved):
            fp = _all_on_problem(maker(seed))
            fresh = compute_iis(fp)
            given = compute_iis(fp, solution=lp.solve(fp))
            assert given.constraint_ids == fresh.constraint_ids
            assert given.families == fresh.families
            assert given.solves == fresh.solves - 1


def test_non_minimal_report_is_the_verified_support():
    # The loop's call: one solve verifies the certificate's support, which
    # contains the minimal IIS and so carries its actionable families.
    for seed in range(50):
        for maker in (make_capacity_starved, make_compute_starved):
            fp = _all_on_problem(maker(seed))
            minimal = compute_iis(fp)
            report = compute_iis(fp, lp.solve(fp), minimal=False)
            id_to_row = {con.cid: r for r, con in enumerate(fp.constraints)}
            assert not _feasible(fp, sorted(id_to_row[cid] for cid in report.constraint_ids))
            assert set(minimal.constraint_ids) <= set(report.constraint_ids)
            assert report.families & {4, 7} == minimal.families & {4, 7}
            assert report.solves == 1


def test_non_minimal_report_falls_back_to_the_sweep(monkeypatch):
    # Without a verified support there is nothing to stop at: the sweep runs
    # and the report is the one the default call gives on the same inputs,
    # with the IIS of ``compute_iis(fp)`` (its solves count the opening solve
    # and a sweep over the support alone).
    real = iis._feasible
    calls = []

    def support_solves(p, rows):
        calls.append(rows)
        return len(calls) == 1 or real(p, rows)

    for seed in range(3):
        for maker in (make_capacity_starved, make_compute_starved):
            fp = _all_on_problem(maker(seed))
            iis_ids = compute_iis(fp).constraint_ids
            sol = lp.solve(fp)
            no_duals = replace(sol, row_duals=None)
            report = compute_iis(fp, no_duals, minimal=False)
            assert report == compute_iis(fp, no_duals)
            assert report.constraint_ids == iis_ids
            with monkeypatch.context() as m:
                m.setattr(iis, "_feasible", support_solves)
                calls.clear()
                swept = compute_iis(fp, sol, minimal=False)
                calls.clear()
                assert swept == compute_iis(fp, sol)
            assert swept.constraint_ids == iis_ids
            assert swept.solves == len(fp.constraints) + 1


def test_deterministic_output():
    fp = _all_on_problem(make_compute_starved(1))
    r1 = compute_iis(fp)
    r2 = compute_iis(fp)
    assert r1.constraint_ids == r2.constraint_ids
    assert r1.families == r2.families
