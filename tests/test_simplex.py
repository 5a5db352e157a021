"""The built-in solver against hand cases, an independent reference and a
frozen copy of its earlier kernel (``reference_simplex``)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import reference_simplex
from corpus import make_capacity_starved, make_compute_starved, make_toy
from optiloop import lp, simplex
from optiloop.errors import SolverStall
from optiloop.loop import _all_on, _assignment_modes, _assignment_problem
from optiloop.scenario import GeneratorParams, generate
from optiloop.simplex import _pivot_once, solve_dense

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _highs(c, A, b, senses, bounds=(0, None), **options):
    """HiGHS's result (``linprog``) for the LP ``solve_dense`` takes."""
    le = [i for i, sn in enumerate(senses) if sn == "le"]
    eq = [i for i, sn in enumerate(senses) if sn == "eq"]
    return linprog(
        c,
        A_ub=A[le] if le else None,
        b_ub=b[le] if le else None,
        A_eq=A[eq] if eq else None,
        b_eq=b[eq] if eq else None,
        bounds=bounds,
        method="highs",
        options=options or None,
    )


def test_min_x_at_least_three():
    # min x  s.t.  x >= 3  (as -x <= -3)
    res = solve_dense(np.array([1.0]), np.array([[-1.0]]), np.array([-3.0]), ["le"])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(3.0)
    assert res.objective == pytest.approx(3.0)


def test_two_constraint_conflict_is_infeasible():
    A = np.array([[-1.0], [1.0]])
    b = np.array([-3.0, 1.0])
    res = solve_dense(np.array([0.0]), A, b, ["le", "le"])
    assert res.status == "infeasible"
    assert res.phase1_objective > 1e-7


def test_unbounded_detected():
    res = solve_dense(np.array([-1.0]), np.array([[0.0]]), np.array([1.0]), ["le"])
    assert res.status == "unbounded"


def test_equality_rows():
    # min x1 + x2  s.t.  x1 + x2 = 2, x1 - x2 <= 0
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([2.0, 0.0])
    res = solve_dense(np.array([1.0, 1.0]), A, b, ["eq", "le"])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0)


def test_degenerate_instance_terminates():
    # classic cycling-prone setup; Bland fallback must terminate it
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    A = np.array(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    res = solve_dense(c, A, b, ["le", "le", "le"])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05, abs=1e-9)
    _assert_same_result(res, reference_simplex.solve_dense(c, A, b, ["le", "le", "le"]))


def test_feasible_point_within_tolerance():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m, n = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        A = rng.normal(size=(m, n))
        x0 = np.abs(rng.normal(size=n))
        b = A @ x0 + np.where(rng.random(m) < 0.5, 0.0, np.abs(rng.normal(size=m)))
        senses = ["le"] * m
        res = solve_dense(rng.normal(size=n), A, b, senses)
        if res.status != "optimal":
            continue
        assert np.all(A @ res.x - b <= 1e-7 * np.maximum(1.0, np.abs(b)))
        assert np.all(res.x >= -1e-9)


def test_matches_reference_solver_on_random_lps():
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(150):
        m, n = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        A = np.round(rng.normal(size=(m, n)), 3)
        if trial % 2:
            b = np.round(rng.normal(size=m), 3)  # arbitrary: often infeasible
            c = np.round(rng.normal(size=n), 3)
        else:
            x0 = np.round(np.abs(rng.normal(size=n)), 3)
            b = np.round(A @ x0, 6)  # feasible by construction
            c = np.round(np.abs(rng.normal(size=n)), 3)  # bounded below
        senses = ["le" if u < 0.7 else "eq" for u in rng.random(m)]
        ref = _highs(c, A, b, senses)
        mine = solve_dense(c, A, b, senses)
        assert _STATUS.get(ref.status) == mine.status
        if mine.status == "optimal":
            assert mine.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)
            checked += 1
    assert checked > 50


def test_strong_duality_audit():
    rng = np.random.default_rng(17)
    audited = 0
    for _ in range(80):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        A = np.round(rng.normal(size=(m, n)), 3)
        b = np.round(rng.normal(size=m), 3)
        c = np.round(np.abs(rng.normal(size=n)), 3)
        senses = ["le" if u < 0.6 else "eq" for u in rng.random(m)]
        res = solve_dense(c, A, b, senses)
        if res.status != "optimal":
            continue
        dual_obj = float(res.row_duals @ b)
        assert dual_obj == pytest.approx(res.objective, rel=1e-5, abs=1e-7)
        audited += 1
    assert audited > 20


def test_infeasible_certificate_support_is_meaningful():
    # x >= 3 and x <= 1 conflict: both rows must carry nonzero duals
    A = np.array([[-1.0], [1.0]])
    b = np.array([-3.0, 1.0])
    res = solve_dense(np.array([0.0]), A, b, ["le", "le"])
    assert res.status == "infeasible"
    assert np.all(np.abs(res.row_duals) > 1e-9)


def test_deterministic():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(8, 6))
    b = rng.normal(size=8)
    c = rng.normal(size=6)
    senses = ["le"] * 6 + ["eq"] * 2
    r1 = solve_dense(c, A.copy(), b.copy(), list(senses))
    r2 = solve_dense(c, A.copy(), b.copy(), list(senses))
    assert r1.status == r2.status
    if r1.status == "optimal":
        assert np.array_equal(r1.x, r2.x)
        assert r1.objective == r2.objective


def _pivot_full(D, rows_z, basis, col, row):
    """Pivot subtracting the outer product from every row of the tableau."""
    D[row] /= D[row, col]
    colvals = D[:, col].copy()
    colvals[row] = 0.0
    D -= np.outer(colvals, D[row])
    D[:, col] = 0.0
    D[row, col] = 1.0
    for z in rows_z:
        if z[col] != 0.0:
            z -= z[col] * D[row]
            z[col] = 0.0
    basis[row] = col


def test_row_restricted_pivot_matches_full_update():
    rng = np.random.default_rng(17)
    for _ in range(200):
        m, n = int(rng.integers(2, 40)), int(rng.integers(2, 60))
        # m constraint rows, then the phase-one and phase-two objective rows.
        D = np.where(rng.random((m + 2, n)) < 0.15, rng.normal(size=(m + 2, n)), 0.0)
        row, col = int(rng.integers(m)), int(rng.integers(n - 1))
        D[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        D[m:] = rng.normal(size=(2, n))
        D[m + int(rng.integers(2)), col] = 0.0
        basis = np.arange(m)
        want = (D.copy(), basis.copy())
        _pivot_full(want[0][:m], [want[0][m], want[0][m + 1]], want[1], col, row)
        # The solver's own column-major layout, and a row-major copy.
        for got in (np.asfortranarray(D), D.copy()):
            got_basis = basis.copy()
            _pivot_once(got, got_basis, col, row)
            # Skipped entries keep a -0.0 the full update would have made +0.0.
            assert np.array_equal(got[:m] + 0.0, want[0][:m] + 0.0)
            assert np.array_equal(got[m:] + 0.0, want[0][m:] + 0.0)
            assert np.array_equal(got_basis, want[1])


def _assert_same_result(got, want):
    """Every output of ``solve_dense`` equal to the reference's, bit for bit;
    only the sign of a zero may differ."""
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert got.phase1_objective == want.phase1_objective
    assert got.objective == want.objective
    for mine, ref in ((got.x, want.x), (got.row_duals, want.row_duals)):
        assert (mine is None) == (ref is None)
        if ref is not None:
            assert np.array_equal(mine + 0.0, ref + 0.0)


def test_matches_frozen_reference_bit_for_bit_on_random_lps():
    rng = np.random.default_rng(23)
    statuses = {}
    for trial in range(360):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        A = np.round(rng.normal(size=(m, n)), 2) * (rng.random((m, n)) < 0.6)
        b = np.round(rng.normal(size=m), 2)  # about half negative
        c = np.round(rng.normal(size=n), 2)
        if trial % 3 == 0:
            # Small integers and zero right-hand sides: degenerate vertices
            # and ratio ties.
            A = np.round(2 * A)
            b[rng.random(m) < 0.5] = 0.0
        if trial % 3 == 1:
            c = np.abs(c)  # bounded below, so mostly optimal or infeasible
        senses = ["le" if u < 0.6 else "eq" for u in rng.random(m)]
        feasibility_only = trial % 10 == 0
        want = reference_simplex.solve_dense(c, A, b, senses, feasibility_only)
        got = solve_dense(c, A, b, senses, feasibility_only)
        _assert_same_result(got, want)
        statuses[want.status] = statuses.get(want.status, 0) + 1
    assert min(statuses.get(k, 0) for k in ("optimal", "infeasible", "unbounded")) >= 30


def _degenerate_lp(seed):
    """Small-integer matrix with mostly zero right-hand sides."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(5, 40)), int(rng.integers(5, 60))
    A = np.round(rng.normal(size=(m, n)) * 2) * (rng.random((m, n)) < 0.4)
    b = np.zeros(m)
    b[rng.random(m) < 0.2] = 1.0
    c = np.round(rng.normal(size=n) * 3)
    senses = ["le" if u < 0.5 else "eq" for u in rng.random(m)]
    return c, A, b, senses


@pytest.mark.parametrize("seed", [451, 3910])
def test_matches_frozen_reference_bit_for_bit_under_blands_rule(seed):
    # These stall for more than 10 * (m + 20) pivots, so pricing falls back
    # to Bland's rule; no other input in this file gets that far.  Under the
    # fallback the frozen kernel still picks the leaving row artificial-first,
    # so the pivots may part (seed 451: 528 pivots against its 584) and only
    # the status and objective are compared.
    c, A, b, senses = _degenerate_lp(seed)
    want = reference_simplex.solve_dense(c, A, b, senses)
    got = solve_dense(c, A, b, senses)
    for res in (want, got):
        assert res.iterations > 10 * (A.shape[0] + 20)
    assert got.status == want.status
    assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)


def test_blands_rule_terminates_where_frozen_reference_stalls():
    # The frozen kernel cycles on these even after its fallback, because it
    # picks the leaving row artificial-first; Bland's leaving rule ends them,
    # and HiGHS agrees that all four are infeasible.
    for seed in (1512, 1560, 1863, 2282):
        c, A, b, senses = _degenerate_lp(seed)
        with pytest.raises(SolverStall):
            reference_simplex.solve_dense(c, A, b, senses)
        got = solve_dense(c, A, b, senses)
        assert got.status == _STATUS[_highs(c, A, b, senses).status] == "infeasible"
        assert got.objective == np.inf


def _toy_lps(seed):
    toy = make_toy(seed)
    yield lp.build_problem(toy)
    for s in (toy, make_capacity_starved(seed), make_compute_starved(seed)):
        p = lp.build_problem(s)
        yield lp._with_modes(p, _assignment_modes(p, *_all_on(s)))


def _bound_row_form(p):
    """The LP of ``p`` as the kernel without column bounds took it: the
    pinned binaries folded into the right-hand sides, the relaxed ones kept
    as columns with an ``x <= 1`` row each.  Returns (c, A, b, senses,
    offset); the objective of ``p`` is that LP's plus ``offset``."""
    block = lp._base(p)
    pins = p.pins.astype(float)
    free = np.ones(p.n_vars(), dtype=bool)
    free[: pins.size] = p.pins < 0
    fixed = np.zeros(p.n_vars())
    fixed[: pins.size] = np.where(p.pins < 0, 0.0, pins)
    n_relaxed = int((p.pins < 0).sum())
    A = np.vstack([block.A[:, free], np.eye(n_relaxed, int(free.sum()))])
    b = np.concatenate([block.rhs - block.A @ fixed, np.ones(n_relaxed)])
    senses = list(block.senses) + ["le"] * n_relaxed
    return p.objective[free], A, b, senses, float(p.objective @ fixed)


def _assert_same_lp_answer(p):
    """``p`` on its block with column bounds gets the status and objective
    the frozen kernel gets on the bound-row form; returns that status."""
    c, A, b, senses, offset = _bound_row_form(p)
    want = reference_simplex.solve_dense(c, A, b, senses)
    block = lp._base(p)
    lo, hi = lp._bounds(p)
    got = solve_dense(p.objective, block.A, block.rhs, block.senses, lo=lo, hi=hi)
    assert got.status == want.status
    if want.status == "optimal":
        assert got.objective == pytest.approx(want.objective + offset, rel=1e-9, abs=1e-9)
    return want.status


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_frozen_reference_bit_for_bit_on_generated_lps(seed):
    # The relaxed root and the all-on pinned LP of a generated 2x4
    # instance, against the frozen kernel on the bound-row form of each.
    # The pins are column bounds now, so pivots differ and only the status
    # and the objective are compared.
    p = lp.build_problem(generate(GeneratorParams(n_endpoints=2, n_nodes=4, rng_seed=seed)))
    assert len(p.constraints) > 130
    for q in (p, _assignment_problem(p, np.ones(p.n_binaries(), dtype=np.int8))):
        assert _assert_same_lp_answer(q) == "optimal"


@pytest.mark.parametrize("seed", range(12))
def test_matches_frozen_reference_bit_for_bit_on_toy_lps(seed):
    # As above, on the toys' relaxed roots and all-on pinned LPs.
    assert {_assert_same_lp_answer(p) for p in _toy_lps(seed)} == {"optimal", "infeasible"}


# ---------------------------------------------------------------------------
# Column bounds and restarts


@st.composite
def _bounded_lps(draw):
    """A small LP ``A x (<= | =) b`` over bounded columns, with its costs
    and bounds drawn twice: (A, b, senses, (c, lo, hi), (c, lo, hi))."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    ints = st.integers(-3, 3)
    rows = st.lists(st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m)
    A = np.array(draw(rows), dtype=float)
    b = np.array(draw(st.lists(st.integers(-2, 4), min_size=m, max_size=m)), dtype=float)
    senses = draw(st.lists(st.sampled_from(["le", "le", "eq"]), min_size=m, max_size=m))

    def costs_and_bounds():
        c = np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=float)
        lo = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
        width = draw(st.lists(st.sampled_from([0, 1, 2, np.inf]), min_size=n, max_size=n))
        return c, lo, lo + np.array(width, dtype=float)

    return A, b, senses, costs_and_bounds(), costs_and_bounds()


def _proves_infeasible(y, A, b, senses, lo, hi):
    """Whether ``y`` is a Farkas ray of ``A x (<= | =) b`` over the box
    ``lo <= x <= hi``: at most 0 on the ``le`` rows, and ``y @ b`` above
    every value ``y @ A @ x`` takes in the box."""
    tol = 1e-7 * max(1.0, float(np.abs(y).max()))
    a = y @ A
    le = np.array([sn == "le" for sn in senses])
    if (a[hi == np.inf] > tol).any() or (y[le] > tol).any():
        return False
    top = np.maximum(a * lo, a * np.where(hi == np.inf, lo, hi)).sum()
    return y @ b - top > tol


@settings(max_examples=400, deadline=None, database=None)
@given(case=_bounded_lps())
def test_bounded_solve_matches_highs(case):
    A, b, senses, (c, lo, hi), _ = case
    # HiGHS's presolve reports some unbounded LPs as infeasible.
    bounds = [(low, None if high == np.inf else high) for low, high in zip(lo, hi)]
    ref = _highs(c, A, b, senses, bounds, presolve=False)
    assume(ref.status in _STATUS)  # 4: HiGHS met numerical trouble
    got = solve_dense(c, A, b, senses, lo=lo, hi=hi)
    assert got.status == _STATUS[ref.status]
    if got.status == "optimal":
        assert got.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
        assert (got.x >= lo - 1e-9).all() and (got.x <= hi + 1e-9).all()
    if got.status == "infeasible":
        assert _proves_infeasible(got.row_duals, A, b, senses, lo, hi)


@settings(max_examples=400, deadline=None, database=None)
@given(case=_bounded_lps())
def test_restart_agrees_with_cold_solve(case):
    # From an optimum of the same rows, with other costs and bounds.
    A, b, senses, (c0, lo0, hi0), (c, lo, hi) = case
    start = solve_dense(c0, A, b, senses, lo=lo0, hi=hi0)
    if start.status != "optimal":
        return
    got = solve_dense(c, A, b, senses, start=start.tableau, lo=lo, hi=hi)
    want = solve_dense(c, A, b, senses, lo=lo, hi=hi)
    assert got.status == want.status
    if want.status == "optimal":
        assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)
        assert got.tableau is not None
    if want.status == "infeasible":
        assert _proves_infeasible(got.row_duals, A, b, senses, lo, hi)


@settings(max_examples=400, deadline=None, database=None)
@given(case=_bounded_lps())
def test_every_infeasible_result_carries_a_verified_farkas_ray(case):
    # Cold, feasibility-only, and restarted from an optimum of the same rows
    # under other costs and bounds: the row duals of an infeasible result
    # prove it over the rows as given, within the kernel's own tolerance.
    A, b, senses, (c0, lo0, hi0), (c, lo, hi) = case
    results = [
        solve_dense(c, A, b, senses, lo=lo, hi=hi),
        solve_dense(c, A, b, senses, feasibility_only=True, lo=lo, hi=hi),
    ]
    start = solve_dense(c0, A, b, senses, lo=lo0, hi=hi0)
    if start.status == "optimal":
        results.append(solve_dense(c, A, b, senses, start=start.tableau, lo=lo, hi=hi))
    is_le = np.array([sn == "le" for sn in senses])
    for res in results:
        if res.status == "infeasible":
            y = res.row_duals
            tol = simplex.FEAS_TOL * max(1.0, float(np.abs(y).max()))
            assert simplex._proves_infeasible(y, A, b, is_le, lo, hi, tol)


@settings(max_examples=400, deadline=None, database=None)
@given(case=_bounded_lps(), data=st.data())
def test_a_stored_ray_screens_only_infeasible_boxes(case, data):
    # The screen that spares a solve: an infeasible result's ray, checked
    # against another box of the same rows.  Whenever it claims a proof,
    # the cold solve of that box is infeasible; so it never claims one for
    # a feasible LP.  The boxes are the result's own shrunk at random, as
    # a later shutdown probe pins more binaries, and the other draw's box,
    # which need not lie inside it.
    A, b, senses, (c, lo, hi), (_, lo0, hi0) = case
    res = solve_dense(c, A, b, senses, lo=lo, hi=hi)
    assume(res.status == "infeasible")
    y = res.row_duals
    tol = simplex.FEAS_TOL * max(1.0, float(np.abs(y).max()))
    is_le = np.array([sn == "le" for sn in senses])
    n = lo.size
    raise_lo = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), float)
    width = data.draw(st.lists(st.sampled_from([0, 1, 2, np.inf]), min_size=n, max_size=n))
    lo1 = np.minimum(lo + raise_lo, np.where(hi < np.inf, hi, lo + raise_lo))
    hi1 = np.minimum(hi, lo1 + np.array(width, dtype=float))
    assert (lo <= lo1).all() and (lo1 <= hi1).all() and (hi1 <= hi).all()
    for box_lo, box_hi in ((lo, hi), (lo1, hi1), (lo0, hi0)):
        if simplex._proves_infeasible(y, A, b, is_le, box_lo, box_hi, tol):
            cold = solve_dense(c, A, b, senses, lo=box_lo, hi=box_hi)
            assert cold.status == "infeasible"


def test_restart_from_a_corrupted_tableau_runs_the_cold_solve(monkeypatch):
    c, A, rhs, senses, lo, hi, lowered, start = _restart_case()
    corrupted = replace(start.tableau, D=start.tableau.D.copy())
    corrupted.D[:-2, -1] += 0.5  # a basic point that no longer solves the rows
    colds = _spy_cold(monkeypatch)
    got = solve_dense(c, A, rhs, senses, start=corrupted, lo=lo, hi=lowered)
    assert len(colds) == 1
    want = solve_dense(c, A, rhs, senses, lo=lo, hi=lowered)
    assert got.status == want.status == "optimal"
    assert got.objective == want.objective
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.row_duals, want.row_duals)
    assert got.iterations >= want.iterations
    # The intact tableau restarts without the cold solve.
    colds.clear()
    restarted = solve_dense(c, A, rhs, senses, start=start.tableau, lo=lo, hi=lowered)
    assert colds == []
    assert restarted.objective == pytest.approx(want.objective, rel=1e-9)


def test_lp_restarts_every_lp_of_the_same_base_problem(monkeypatch):
    starts = []
    real = lp.solve_dense

    def spy(*args, start=None, **kwargs):
        starts.append(start)
        return real(*args, start=start, **kwargs)

    monkeypatch.setattr(lp, "solve_dense", spy)
    p = lp.build_problem(make_toy(1))
    guide = lp.solve(p)
    y = p.layout["y"].start
    copied = replace(p, constraints=tuple(list(p.constraints)))
    cases = {
        "pinned to 0": (lp.fix(p, p.variables[y], 0), True),
        "pinned to 1": (lp.fix(p, p.variables[y], 1), True),
        "other objective": (replace(p, objective=p.objective * 2), True),
        "all pinned": (_assignment_problem(p, np.ones(p.n_binaries(), dtype=np.int8)), True),
        "feasibility only": (lp.fix(p, p.variables[y], 0), False),
        "another constraints object": (copied, False),
    }
    for name, (q, restarts) in cases.items():
        starts.clear()
        kwargs = {"feasibility_only": True} if name == "feasibility only" else {}
        got = lp.solve(q, start=guide, **kwargs)
        assert (starts[0] is not None) == restarts, name
        want = lp.solve(q, **kwargs)
        assert got.status == want.status, name
        assert got.objective_value == pytest.approx(want.objective_value, rel=1e-9), name
        assert got.values[p.variables[y]] == want.values[p.variables[y]], name


def _restart_case():
    """Toy 0's relaxed root and its optimal result, with the bounds of its
    last three relaxed binaries lowered to 0: (c, A, b, senses, lo, hi,
    lowered hi, result)."""
    p = lp.build_problem(make_toy(0))
    block = lp._base(p)
    lo, hi = lp._bounds(p)
    lowered = hi.copy()
    lowered[p.n_binaries() - 3 : p.n_binaries()] = 0.0
    c, A, rhs, senses = p.objective, block.A, block.rhs, block.senses
    return c, A, rhs, senses, lo, hi, lowered, solve_dense(c, A, rhs, senses, lo=lo, hi=hi)


def _spy_cold(monkeypatch):
    colds = []
    real_cold = simplex._cold

    def spy_cold(*args):
        colds.append(args)
        return real_cold(*args)

    monkeypatch.setattr(simplex, "_cold", spy_cold)
    return colds


def test_tableaus_are_column_major():
    c, A, rhs, senses, lo, _hi, lowered, start = _restart_case()
    assert start.tableau.D.flags.f_contiguous
    restarted = solve_dense(c, A, rhs, senses, start=start.tableau, lo=lo, hi=lowered)
    assert restarted.iterations > 0
    assert restarted.tableau.D.flags.f_contiguous
    # A row-major start is restarted on a column-major copy.
    row_major = replace(start.tableau, D=np.ascontiguousarray(start.tableau.D))
    again = solve_dense(c, A, rhs, senses, start=row_major, lo=lo, hi=lowered)
    assert again.tableau.D.flags.f_contiguous
    assert again.iterations == restarted.iterations
    assert np.array_equal(again.x, restarted.x)


def test_restart_that_loses_dual_feasibility_runs_the_cold_solve(monkeypatch):
    # A negative reduced cost on a nonbasic column without an upper bound:
    # the dual simplex would end primal feasible but not optimal, which the
    # check against the rows cannot see.
    c, A, rhs, senses, lo, hi, lowered, start = _restart_case()
    t = start.tableau
    m = t.basis.size
    nonbasic = np.setdiff1d(np.arange(c.size, t.n_real), t.basis)  # the slacks
    corrupted = replace(t, D=t.D.copy())
    corrupted.D[m + 1, nonbasic[corrupted.D[m + 1, nonbasic].argmax()]] = -1e-3
    colds = _spy_cold(monkeypatch)
    got = solve_dense(c, A, rhs, senses, start=corrupted, lo=lo, hi=lowered)
    assert len(colds) == 1
    want = solve_dense(c, A, rhs, senses, lo=lo, hi=lowered)
    _assert_same_result(got, want)
    assert np.array_equal(got.tableau.D, want.tableau.D)


def test_restart_past_its_budget_runs_the_cold_solve(monkeypatch):
    c, A, rhs, senses, lo, hi, lowered, start = _restart_case()
    assert solve_dense(c, A, rhs, senses, start=start.tableau, lo=lo, hi=lowered).iterations > 1
    real_dual = simplex._dual_phase

    def one_pivot_budget(D, basis, n_real, cols, maxiter, *rest):
        return real_dual(D, basis, n_real, cols, 0, *rest)

    monkeypatch.setattr(simplex, "_dual_phase", one_pivot_budget)
    colds = _spy_cold(monkeypatch)
    got = solve_dense(c, A, rhs, senses, start=start.tableau, lo=lo, hi=lowered)
    assert len(colds) == 1
    want = solve_dense(c, A, rhs, senses, lo=lo, hi=lowered)
    assert got.status == want.status == "optimal"
    assert got.iterations == want.iterations + 1
    assert got.objective == want.objective
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.row_duals, want.row_duals)
