"""Dense two-phase primal simplex, and a dual-simplex restart.

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

Restarts.  An optimal result carries its final tableau (``tableau``).  A
solve of the same ``c``, ``A`` and senses with another ``b`` may pass it as
``start``: the row scales and flips stay those of the start, so the new
right-hand side moves the tableau's rhs column by B⁻¹Δb, where column k of
B⁻¹ is the final tableau's column of row k's initial unit vector (the slack
of an unflipped ``le`` row, else the artificial).  The reduced costs do not
move, so the basis stays dual feasible, and a dual simplex on the phase-two
row restores primal feasibility (Lemke, "The dual method of solving the
linear programming problem", Naval Res. Logist. Q. 1954); HiGHS reoptimizes
the same way after a bound change (Huangfu & Hall, "Parallelizing the dual
revised simplex method", Math. Prog. Comp. 2018).  Basic
artificials are bounded at 0 from both sides.  The most violated row
leaves; the entering column is the one of minimum ratio of reduced cost to
pivot entry, within the same tolerance band as above, with ties going to
the lowest index; after a stall the lowest basic column index leaves
instead, and the cold path's iteration budget applies.  When no column can
enter, the leaving row's entries in the unit
columns are a Farkas ray and the problem is infeasible.  A restart checks
its own answer inside the same call: an optimum must satisfy the
equilibrated rows within ``FEAS_TOL``, and a ray must prove infeasibility
by more than ``FEAS_TOL``; otherwise the cold two-phase solve runs on the
same input.  ``iterations`` then counts both.  A cold solve pivots as if no
restart existed.

The scale of the problems this package builds is a few hundred rows.  At
that scale a dense tableau is fast to pivot, and keeping it whole is what
makes the restart above a copy and a matrix-vector product.
"""

from dataclasses import dataclass, replace

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
    tableau: "_Tableau" = None  # optimal results only; see Restarts


@dataclass(frozen=True, eq=False)
class _Tableau:
    """Final tableau of an optimal solve, in the equilibrated, flipped frame
    of its rows.  ``D[:m, unit]`` is B⁻¹: ``unit[k]`` is the column of row
    k's initial unit vector.  ``rhs`` is the right-hand side the initial
    tableau held.  Shared read-only: a restart copies ``D`` and ``basis``."""

    D: np.ndarray
    basis: np.ndarray
    unit: np.ndarray
    art_rows: np.ndarray
    scale: np.ndarray
    flip: np.ndarray
    rhs: np.ndarray
    n_real: int


def _duals(t, zrow, art_cost):
    """Row duals read off objective row ``zrow``: each row's unit column
    costs ``art_cost`` if artificial, else 0, minus its reduced cost; then
    unflipped and unscaled to the input rows."""
    y = -zrow[t.unit]
    y[t.art_rows] += art_cost
    return y * t.flip / t.scale


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


def _dual_phase(D, basis, n_real, maxiter):
    """Dual simplex on the phase-two row of ``D``, whose reduced costs over
    the first ``n_real`` columns, those allowed to enter, are nonnegative.
    Pivots until every basic value lies within its bounds.

    Returns (status, row, iterations): 'optimal', or 'infeasible' with the
    row that proves it.
    """
    m = basis.size
    rhs = D[:m, -1]
    z = D[m + 1]
    rc = z[:n_real]
    ratios = np.empty(n_real)
    bland = False
    stall = 0
    stall_limit = 10 * (m + 20)
    best = -z[-1]
    iters = 0
    while True:
        # Basic artificials are bounded at 0 from both sides.
        viol = np.where(basis >= n_real, np.abs(rhs), -rhs)
        if bland:
            cand = (viol > PIVOT_TOL).nonzero()[0]
            if cand.size == 0:
                return "optimal", -1, iters
            row = int(cand[basis[cand].argmin()])
        else:
            row = int(viol.argmax())
            if viol[row] <= PIVOT_TOL:
                return "optimal", -1, iters
        # Entries of the sign that moves the basic value towards its bound.
        alpha = D[row, :n_real] * np.sign(rhs[row])
        elig = alpha > PIVOT_TOL
        if not elig.any():
            return "infeasible", row, iters
        ratios.fill(np.inf)
        np.divide(np.maximum(rc, 0.0), alpha, out=ratios, where=elig)
        best_ratio = ratios.min()
        col = int((ratios <= best_ratio + PIVOT_TOL * (1.0 + best_ratio)).argmax())
        _pivot_once(D, basis, col, row)
        iters += 1
        obj = -z[-1]
        if obj > best + 1e-12 * (1.0 + abs(best)):
            best = obj
            stall = 0
        else:
            stall += 1
            if stall > stall_limit:
                bland = True
        if iters > maxiter:
            raise SolverStall(f"dual simplex exceeded {maxiter} iterations")


def _restart(t, c, A, b, is_le):
    """Reoptimize the final tableau ``t`` for the equilibrated rows ``A x
    (<= | =) b``, whose matrix and senses are those ``t`` was solved for.

    Returns (result, iterations); result is None when the answer fails its
    check against the rows.
    """
    D = t.D.copy()
    basis = t.basis.copy()
    m, n = A.shape
    rhs = t.flip * b
    delta = rhs - t.rhs
    moved = delta.nonzero()[0]
    D[:, -1] += D[:, t.unit[moved]] @ delta[moved]
    ncols = D.shape[1] - 1
    status, row, iters = _dual_phase(D, basis, t.n_real, 500 + 30 * (m + ncols))

    if status == "optimal":
        x = np.zeros(ncols)
        x[basis] = D[:m, -1]
        x = x[:n]
        gap = A @ x - b
        viol = np.where(is_le, np.maximum(gap, 0.0), np.abs(gap))
        if viol.max() > FEAS_TOL or x.min(initial=0.0) < -FEAS_TOL:
            return None, iters
        final = replace(t, D=D, basis=basis, rhs=rhs)
        duals = _duals(final, D[m + 1], 0.0)
        return SimplexResult("optimal", x, float(c @ x), duals, 0.0, iters, final), iters

    # Row ``row`` reads u @ (the initial rows) with u = D[row, unit]; signed
    # so that y @ b > 0, while y @ (every column allowed to enter) <= 0.
    violation = D[row, -1]
    y = np.sign(violation) * D[row, t.unit] * t.flip  # over the equilibrated rows
    tol = FEAS_TOL * max(1.0, float(np.abs(y).max()))
    if (
        (y @ A).max(initial=0.0) > tol
        or y[is_le].max(initial=0.0) > tol
        or y @ b <= tol
    ):
        return None, iters
    return SimplexResult("infeasible", None, np.inf, y / t.scale, abs(violation), iters), iters


def solve_dense(c, A, b, senses, feasibility_only=False, start=None):
    """senses: sequence of 'le' / 'eq' per row.

    ``start`` is the ``tableau`` of an optimal result for the same ``c``,
    ``A`` and ``senses``; the solve then restarts from it (see Restarts).
    A feasibility-only solve always runs cold.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape if A.ndim == 2 else (0, c.size)
    if m == 0:
        if np.any(c < -PIVOT_TOL):
            return SimplexResult("unbounded", np.zeros(n), -np.inf, np.zeros(0), 0.0, 0)
        return SimplexResult("optimal", np.zeros(n), 0.0, np.zeros(0), 0.0, 0)

    is_le = np.array([s == "le" for s in senses], dtype=bool)

    # Row equilibration.
    scale = np.abs(A).max(axis=1)
    scale[scale < 1e-12] = 1.0
    A = A / scale[:, None]
    b = b / scale

    if start is None or feasibility_only:
        return _cold(c, A, b, is_le, scale, feasibility_only)
    res, spent = _restart(start, c, A, b, is_le)
    if res is None:
        res = _cold(c, A, b, is_le, scale, feasibility_only)
        res.iterations += spent
    return res


def _cold(c, A, b, is_le, scale, feasibility_only):
    """Two-phase primal simplex on the equilibrated rows ``A x (<= | =) b``;
    ``scale`` holds the row scales the duals are unscaled by."""
    m, n = A.shape
    le_rows = is_le.nonzero()[0]

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
    # Every row holds either a slack or an artificial unit column, so the
    # row's dual is read off that column's reduced cost: the artificial's for
    # artificial rows, the slack's for the le rows that were not flipped.
    unit = np.empty(m, dtype=int)
    unit[le_rows] = slack_cols
    unit[art_rows] = art_cols
    tableau = _Tableau(D, basis, unit, art_rows, scale, flip, b, n_real)

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

    if phase1_obj > FEAS_TOL:
        duals = _duals(tableau, z1, 1.0)
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
    duals = _duals(tableau, z2, 0.0)
    return SimplexResult(
        "optimal", x[:n], float(c @ x[:n]), duals, phase1_obj, iters, tableau
    )
