"""Dense two-phase primal simplex.

Solves   min c @ x   s.t.   A x (<= | =) b,   x >= 0

on a full tableau.  Rows are equilibrated (divided by their largest
coefficient) before solving; infeasibility is declared when the phase-one
optimum exceeds ``FEAS_TOL``.  Pivoting uses Dantzig's rule with a
deterministic lowest-index tie-break and falls back to Bland's rule
permanently once the objective stalls.  Bland's rule cannot cycle (Bland,
"New finite pivoting rules for the simplex method", Math. Oper. Res. 1977),
so degenerate instances terminate.  Identical inputs always produce
identical outputs.

Tableau layout.  ``D`` has ``m + 2`` rows and ``ncols + 1`` columns.  Rows
``0..m-1`` are the constraints, row ``m`` is the phase-one objective (the
sum of the artificials) and row ``m + 1`` the phase-two objective; the
columns are the structural variables, the slacks of the ``le`` rows, the
artificials, and the right-hand side last.  ``basis[i]`` is the column basic
in constraint row ``i``.  The artificials are the trailing columns, so the
columns allowed to enter in phase two are a leading slice.

Same operations.  A pivot divides the pivot row by the pivot entry, then
subtracts ``D[i, col] * D[row]`` from every other row ``i`` whose entry in
the pivot column is nonzero, objective rows included, in one rank-1 update.
That is the operation a full-tableau update applies to every entry; the rows
it skips would only have had zero subtracted from them, and an objective row
is updated by the same product as a constraint row.  The tableaux of the
problems this package builds stay sparse, so a pivot touches a fraction of
the rows (about a quarter on generated 2×4 instances).  The ratio test
divides the same right-hand side by the same column entries and keeps the
same tolerance band around the best ratio, so every pivot, and with it every
status, point, objective, dual and iteration count, is the one a
row-by-row implementation of these rules produces; only the sign of a zero
can differ.

Ratio ties.  Until the fallback, among the rows within the band, the
leaving row is the one whose basic variable is artificial, and then the one
with the lowest basic column index.  Basic columns are distinct and every
artificial column index is below ``ncols``, so the key ``b`` for an
artificial basic column ``b`` and ``b + ncols`` for any other orders the
candidates exactly that way without a tie, and one ``argmin`` over it picks
the same row.  Under Bland's rule the lowest basic column index leaves.

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


def _pivot_once(D, basis, col, row):
    D[row] /= D[row, col]
    pivot_col = D[:, col]
    # With the pivot entry at 0 the pivot row is not among the rows to
    # update, and the update leaves the pivot column alone; it is reset
    # after.  Every other updated entry gets D[i, j] - D[i, col] * D[row, j].
    D[row, col] = 0.0
    rows = pivot_col.nonzero()[0]
    D[rows] -= np.outer(pivot_col[rows], D[row])
    pivot_col[:] = 0.0
    D[row, col] = 1.0
    basis[row] = col


def _run_phase(D, z, n_enter, basis, is_artificial, maxiter, iters, check_unbounded):
    """Pivot until the reduced costs of the first ``n_enter`` columns, those
    allowed to enter, are nonnegative; ``z`` is the phase's objective row.

    Returns (status, iterations).  status is 'optimal' or 'unbounded'.
    """
    m = basis.size
    ncols = is_artificial.size
    rc = z[:n_enter]
    rhs = D[:m, -1]
    ratios = np.empty(m)
    bland = False
    stall = 0
    stall_limit = 10 * (m + 20)
    best = np.inf
    while True:
        if bland:
            cand = (rc < -PIVOT_TOL).nonzero()[0]
            if cand.size == 0:
                return "optimal", iters
            col = int(cand[0])
        else:
            col = int(rc.argmin())
            if rc[col] >= -PIVOT_TOL:
                return "optimal", iters
        colvals = D[:m, col]
        elig = colvals > PIVOT_TOL
        if not elig.any():
            if check_unbounded:
                return "unbounded", iters
            # Phase one is bounded below; a ray here is numerical noise.
            return "optimal", iters
        ratios.fill(np.inf)
        np.divide(rhs, colvals, out=ratios, where=elig)
        best_ratio = ratios.min()
        near = (ratios <= best_ratio + PIVOT_TOL * (1.0 + abs(best_ratio))).nonzero()[0]
        # Bland: lowest basic index; else artificials first, then lowest index.
        b = basis[near]
        key = b if bland else np.where(is_artificial[b], b, b + ncols)
        row = int(near[key.argmin()])
        _pivot_once(D, basis, col, row)
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


def solve_dense(c, A, b, senses, feasibility_only=False):
    """senses: sequence of 'le' / 'eq' per row."""
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape if A.ndim == 2 else (0, c.size)
    if m == 0:
        if np.any(c < -PIVOT_TOL):
            return SimplexResult("unbounded", np.zeros(n), -np.inf, np.zeros(0), 0.0, 0)
        return SimplexResult("optimal", np.zeros(n), 0.0, np.zeros(0), 0.0, 0)

    is_le = np.array([s == "le" for s in senses], dtype=bool)
    le_rows = is_le.nonzero()[0]

    # Row equilibration.
    scale = np.abs(A).max(axis=1)
    scale[scale < 1e-12] = 1.0
    A = A / scale[:, None]
    b = b / scale

    # Flip rows with negative rhs.  Artificials go where no natural basis
    # column exists: eq rows and flipped le rows (their slack coefficient is
    # then -1).
    neg = b < 0
    flip = np.where(neg, -1.0, 1.0)
    b = b * flip
    art_rows = (~is_le | neg).nonzero()[0]
    n_slack, n_art = le_rows.size, art_rows.size
    n_real = n + n_slack
    ncols = n_real + n_art
    slack_cols = n + np.arange(n_slack)
    art_cols = n_real + np.arange(n_art)

    D = np.zeros((m + 2, ncols + 1))
    D[:m, :n] = A
    D[le_rows, slack_cols] = 1.0
    D[:m, :n_real][neg] *= -1.0
    D[art_rows, art_cols] = 1.0
    D[:m, -1] = b
    basis = np.empty(m, dtype=int)
    basis[le_rows] = slack_cols
    basis[art_rows] = art_cols
    is_artificial = np.zeros(ncols, dtype=bool)
    is_artificial[n_real:] = True

    maxiter = 500 + 30 * (m + ncols)

    # Phase one minimizes the sum of the artificials; the phase-two row
    # starts at c, since every initial basic column costs 0 there.
    z1, z2 = D[m], D[m + 1]
    z1[n_real:ncols] = 1.0
    for i in art_rows:
        z1 -= D[i]
    z2[:n] = c
    _, iters = _run_phase(
        D, z1, ncols, basis, is_artificial, maxiter, 0, check_unbounded=False
    )
    phase1_obj = -z1[-1]

    # Every row holds either a slack or an artificial unit column, so the
    # row's dual is read off that column's reduced cost: the artificial's for
    # artificial rows, the slack's for the le rows that were not flipped.
    plain_le = le_rows[~neg[le_rows]]
    plain_slack = slack_cols[~neg[le_rows]]

    def recover_duals(zrow, art_cost):
        y = np.zeros(m)
        y[art_rows] = art_cost - zrow[art_cols]
        y[plain_le] = -zrow[plain_slack]
        return y * flip / scale

    if phase1_obj > FEAS_TOL:
        duals = recover_duals(z1, 1.0)
        return SimplexResult("infeasible", None, np.inf, duals, phase1_obj, iters)

    if feasibility_only:
        x = np.zeros(ncols)
        x[basis] = D[:m, -1]
        return SimplexResult("optimal", x[:n], float(c @ x[:n]), None, phase1_obj, iters)

    # Drive surviving artificials out of the basis where possible; rows where
    # no pivot exists are redundant and their artificial stays basic at zero.
    for i in range(m):
        if is_artificial[basis[i]]:
            cands = (np.abs(D[i, :n_real]) > PIVOT_TOL).nonzero()[0]
            if cands.size:
                _pivot_once(D, basis, int(cands[0]), i)
                iters += 1

    status, iters = _run_phase(
        D, z2, n_real, basis, is_artificial, maxiter, iters, check_unbounded=True
    )
    if status == "unbounded":
        return SimplexResult("unbounded", None, -np.inf, None, phase1_obj, iters)

    x = np.zeros(ncols)
    x[basis] = D[:m, -1]
    duals = recover_duals(z2, 0.0)
    return SimplexResult("optimal", x[:n], float(c @ x[:n]), duals, phase1_obj, iters)
