"""The built-in solver against hand cases and an independent reference."""

import numpy as np
import pytest
from scipy.optimize import linprog

from optiloop.simplex import _pivot_once, solve_dense

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


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
        le = [i for i, sn in enumerate(senses) if sn == "le"]
        eq = [i for i, sn in enumerate(senses) if sn == "eq"]
        ref = linprog(
            c,
            A_ub=A[le] if le else None,
            b_ub=b[le] if le else None,
            A_eq=A[eq] if eq else None,
            b_eq=b[eq] if eq else None,
            bounds=(0, None),
            method="highs",
        )
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
        D = np.where(rng.random((m, n)) < 0.15, rng.normal(size=(m, n)), 0.0)
        row, col = int(rng.integers(m)), int(rng.integers(n - 1))
        D[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        z = rng.normal(size=n)
        basis = np.arange(m)
        want = (D.copy(), z.copy(), basis.copy())
        _pivot_full(want[0], [want[1]], want[2], col, row)
        _pivot_once(D, [z], basis, col, row)
        # Skipped rows keep a -0.0 the full update would have made +0.0.
        assert np.array_equal(D + 0.0, want[0] + 0.0)
        assert np.array_equal(z + 0.0, want[1] + 0.0)
        assert np.array_equal(basis, want[2])
