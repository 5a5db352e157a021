"""Dense two-phase primal simplex.

Solves   min c @ x   s.t.   A x (<= | =) b,   x >= 0

on a full tableau.  Rows are equilibrated (divided by their largest
coefficient) before solving; infeasibility is declared when the phase-one
optimum exceeds ``FEAS_TOL``.  Pivoting uses Dantzig's rule with a
deterministic lowest-index tie-break and falls back to Bland's rule
permanently once the objective stalls, which guarantees termination on
degenerate instances.  Identical inputs always produce identical outputs.

A pivot eliminates the entering column only from the rows where it is
nonzero.  The tableaux of the problems this package builds stay sparse, so
a pivot touches a fraction of the rows (about a quarter on generated 2×4
instances); the rows it skips would only have had zero subtracted from
them, so every entry it does update gets the same floating-point operation
as under a full-tableau update.

The scale of the problems this package builds is a few hundred rows, so a
dense tableau beats anything cleverer.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SolverStall

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7

__all__ = ["SimplexResult", "solve_dense", "PIVOT_TOL", "FEAS_TOL"]


@dataclass
class SimplexResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray
    objective: float
    row_duals: np.ndarray  # one per input row (unscaled); Farkas rays when infeasible
    phase1_objective: float
    iterations: int


def _pivot_once(D, rows_z, basis, col, row):
    piv = D[row, col]
    D[row] /= piv
    rows = np.flatnonzero(D[:, col])
    rows = rows[rows != row]
    D[rows] -= np.outer(D[rows, col], D[row])
    D[:, col] = 0.0
    D[row, col] = 1.0
    for z in rows_z:
        if z[col] != 0.0:
            z -= z[col] * D[row]
            z[col] = 0.0
    basis[row] = col


def _run_phase(D, z, other_z, basis, allowed, is_artificial, maxiter, iters, check_unbounded):
    """Pivot until the reduced costs allowed to enter are nonnegative.

    Returns (status, iterations).  status is 'optimal' or 'unbounded'.
    """
    m = D.shape[0]
    bland = False
    stall = 0
    stall_limit = 10 * (m + 20)
    best = np.inf
    while True:
        rc = z[:-1]
        if bland:
            cand = np.where(allowed & (rc < -PIVOT_TOL))[0]
            if cand.size == 0:
                return "optimal", iters
            col = int(cand[0])
        else:
            masked = np.where(allowed, rc, np.inf)
            col = int(np.argmin(masked))
            if masked[col] >= -PIVOT_TOL:
                return "optimal", iters
        colvals = D[:, col]
        elig = colvals > PIVOT_TOL
        if not np.any(elig):
            if check_unbounded:
                return "unbounded", iters
            # Phase one is bounded below; a ray here is numerical noise.
            return "optimal", iters
        ratios = np.where(elig, D[:, -1] / np.where(elig, colvals, 1.0), np.inf)
        best_ratio = ratios.min()
        near = np.where(ratios <= best_ratio + PIVOT_TOL * (1.0 + abs(best_ratio)))[0]
        # Prefer kicking artificials out of the basis, then lowest basic index.
        row = int(min(near, key=lambda r: (not is_artificial[basis[r]], basis[r])))
        _pivot_once(D, [z] + other_z, basis, col, row)
        iters += 1
        obj = -z[-1]
        if obj < best - 1e-12 * (1.0 + abs(best)):
            best = obj
            stall = 0
        else:
            stall += 1
            if stall > stall_limit:
                bland = True
        if iters > maxiter:
            raise SolverStall(f"simplex exceeded {maxiter} iterations")


def solve_dense(c, A, b, senses, feasibility_only=False, maxiter=None):
    """senses: sequence of 'le' / 'eq' per row."""
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape if A.ndim == 2 else (0, c.size)
    if m == 0:
        if np.any(c < -PIVOT_TOL):
            return SimplexResult("unbounded", np.zeros(n), -np.inf, np.zeros(0), 0.0, 0)
        return SimplexResult("optimal", np.zeros(n), 0.0, np.zeros(0), 0.0, 0)

    senses = list(senses)
    le_rows = [i for i, s in enumerate(senses) if s == "le"]

    # Row equilibration.
    scale = np.abs(A).max(axis=1)
    scale[scale < 1e-12] = 1.0
    A = A / scale[:, None]
    b = b / scale

    # Slack columns, then flip rows with negative rhs.
    n_slack = len(le_rows)
    S = np.zeros((m, n_slack))
    for k, i in enumerate(le_rows):
        S[i, k] = 1.0
    M = np.hstack([A, S])
    flip = np.ones(m)
    neg = b < 0
    flip[neg] = -1.0
    M[neg] *= -1.0
    b = b * flip

    # Artificials where no natural basis column exists: eq rows and flipped
    # le rows (their slack coefficient is now -1).
    slack_col = {i: n + k for k, i in enumerate(le_rows)}
    art_rows = [i for i in range(m) if senses[i] == "eq" or flip[i] < 0]
    n_art = len(art_rows)
    ncols = n + n_slack + n_art
    D = np.zeros((m, ncols + 1))
    D[:, : n + n_slack] = M
    D[:, -1] = b
    basis = np.empty(m, dtype=int)
    art_col = {}
    for k, i in enumerate(art_rows):
        j = n + n_slack + k
        D[i, j] = 1.0
        basis[i] = j
        art_col[i] = j
    for i in range(m):
        if i not in art_col:
            basis[i] = slack_col[i]
    is_artificial = np.zeros(ncols, dtype=bool)
    is_artificial[n + n_slack :] = True

    if maxiter is None:
        maxiter = 500 + 30 * (m + ncols)

    # Phase one: minimize the sum of artificials.
    c1 = np.zeros(ncols + 1)
    c1[n + n_slack :] = 1.0
    c1[-1] = 0.0
    z1 = c1.copy()
    for i in art_rows:
        z1 -= D[i]
    c2 = np.zeros(ncols + 1)
    c2[:n] = c
    z2 = c2.copy()
    basic_cost = c2[basis]
    nz = np.nonzero(basic_cost)[0]
    if nz.size:
        z2 -= basic_cost[nz] @ D[nz]
    allowed = np.ones(ncols, dtype=bool)
    status, iters = _run_phase(
        D, z1, [z2], basis, allowed, is_artificial, maxiter, 0, check_unbounded=False
    )
    phase1_obj = -z1[-1]

    def recover_duals(zrow):
        # Every row holds either a slack or an artificial unit column, so the
        # row's dual is read off that column's reduced cost.
        y = np.zeros(m)
        for i in range(m):
            if i in art_col:
                y[i] = c1[art_col[i]] if zrow is z1 else 0.0
                y[i] -= zrow[art_col[i]]
            else:
                y[i] = -zrow[slack_col[i]]
        return y * flip / scale

    if phase1_obj > FEAS_TOL:
        duals = recover_duals(z1)
        return SimplexResult("infeasible", None, np.inf, duals, phase1_obj, iters)

    if feasibility_only:
        x = np.zeros(ncols)
        x[basis] = D[:, -1]
        return SimplexResult("optimal", x[:n], float(c @ x[:n]), None, phase1_obj, iters)

    # Drive surviving artificials out of the basis where possible; rows where
    # no pivot exists are redundant and their artificial stays basic at zero.
    for i in range(m):
        j = basis[i]
        if is_artificial[j]:
            row = D[i, : n + n_slack]
            cands = np.where(np.abs(row) > PIVOT_TOL)[0]
            if cands.size:
                _pivot_once(D, [z1, z2], basis, int(cands[0]), i)
                iters += 1

    allowed = ~is_artificial
    status, iters = _run_phase(
        D, z2, [z1], basis, allowed, is_artificial, maxiter, iters, check_unbounded=True
    )
    if status == "unbounded":
        return SimplexResult("unbounded", None, -np.inf, None, phase1_obj, iters)

    x = np.zeros(ncols)
    x[basis] = D[:, -1]
    duals = recover_duals(z2)
    return SimplexResult("optimal", x[:n], float(c @ x[:n]), duals, phase1_obj, iters)
