"""Dense two-phase primal simplex over bounded columns, and restarts.

Solves   min c @ x   s.t.   A x (<= | =) b,   lo <= x <= hi

on a full tableau, with ``lo`` finite (0 by default) and ``hi`` possibly
infinite (the default).  Rows are equilibrated (divided by their largest
coefficient) before solving; infeasibility is declared when the phase-one
optimum exceeds ``FEAS_TOL``.  Pivoting uses Dantzig's rule with a
deterministic lowest-index tie-break, and switches to Bland's rule for the
rest of a phase once the phase has made 10(m + 20) pivots, m the number of
rows.  Bland's rule cannot cycle from any basis (Bland, "New finite pivoting
rules for the simplex method", Math. Oper. Res. 1977), so degenerate
instances terminate.  Identical inputs always produce identical outputs.

Column bounds.  Bounds are handled by Dantzig's upper-bounding technique
(the bounded dual simplex of Koberstein, "The dual simplex method,
techniques for a fast and stable implementation", PhD thesis, Paderborn
2005, treats them the same way): a nonbasic column sits at its lower or at
its upper bound, and the tableau's rhs column holds the basic columns'
values given those.  A column may enter when its reduced cost says that
moving it off its bound lowers the objective; a fixed column (``lo == hi``)
never enters.  The ratio test stops where a basic column reaches either of
its bounds, or where the entering column reaches its other bound first: the
column then flips to that bound without a pivot, which counts as an
iteration.  With every ``lo`` 0 and every ``hi`` infinite no column is ever
at an upper bound, no flip is possible, and every pivot, and with it every
status, point, objective, dual and iteration count, is the one the kernel
without bounds produces; only the sign of a zero can differ.

Tableau layout.  ``D`` has ``m + 2`` rows and ``ncols + 1`` columns and is
stored column-major.  Rows ``0..m-1`` are the constraints, row ``m`` is the
phase-one objective (the sum of the artificials) and row ``m + 1`` the
phase-two objective; the columns are the structural variables, the slacks
of the ``le`` rows, the artificials, and the right-hand side last.
``basis[i]`` is the column basic in constraint row ``i``, and ``upper``
marks the nonbasic columns at their upper bound.  Slacks range over [0, ∞),
artificials over [0, ∞) in phase one and over [0, 0] after it.  The
artificials are the trailing columns, so the columns allowed to enter in
phase two are a leading slice.  Every row's last entry is its right-hand
side less the row's nonbasic entries times their bound values: the basic
value in a constraint row, minus the objective in an objective row.  A
pivot keeps that by a correction for an entering or leaving column whose
bound value is nonzero.

Same operations.  A pivot divides the pivot row by the pivot entry, then
subtracts ``D[i, col] * D[row, j]`` from ``D[i, j]`` for every column ``j``
where the divided pivot row is nonzero, in every row, objective rows
included, in one rank-1 update over those columns.  That is the operation a
full-tableau update applies to every entry; in the columns it skips, as in
the rows whose entry in the pivot column is 0, it subtracts ±0.
Column-major storage makes each gathered column one contiguous block.  The
ratio test divides the same right-hand side by the same column entries and
keeps the same tolerance band around the best ratio, so every pivot is the
one a row-by-row implementation of these rules produces.  The cold solves'
tableaux stay sparse: on generated 2×4 loops a cold pivot row has a nonzero
in 9 to 34 of the 371 columns, a restarted primal one in about 60, and a
dual one in about 160, where the rows of B⁻¹ have filled in.

Ratio ties.  Until the fallback, among the rows within a tolerance band of
the best ratio, the leaving row is the one whose basic variable is
artificial, and then the one with the lowest basic column index.  Basic
columns are distinct and every artificial column index is below ``ncols``,
so the key ``b`` for an artificial basic column ``b`` and ``b + ncols`` for
any other orders the candidates exactly that way without a tie, and one
``argmin`` over it picks the same row.  Each row's key is set when a phase
starts and updated with each pivot.  Under Bland's rule the lowest basic
column index leaves.

Restarts.  An optimal result carries its final tableau (``tableau``), which
fits every other solve of the same ``A``, ``b`` and senses: another ``c``,
``lo`` and ``hi``.  A restart copies it.  Each nonbasic column keeps its
value when that is still its upper bound, and otherwise sits at its lower
one; the rhs column shifts by the moved columns' tableau columns times
their moves.  A cost change moves the phase-two row by Δc less Δc_B times
the constraint rows.  When the basic values then lie within their bounds, a
primal phase two reoptimizes.  Otherwise, when the reduced costs are dual
feasible (every nonbasic column priced in the direction it can move; a
fixed column always is, and a column with two finite bounds becomes so by
moving to the bound its cost favours), a dual simplex restores primal
feasibility (Lemke, "The dual method of solving the linear programming
problem", Naval Res. Logist. Q. 1954) and the primal phase two confirms the
optimum; HiGHS reoptimizes the same way after a bound change (Huangfu &
Hall, "Parallelizing the dual revised simplex method", Math. Prog. Comp.
2018).  In the remaining case the cold solve runs.

The dual simplex lets the most violated row leave, at the bound it
violates; the entering column is the one of minimum ratio of reduced cost
to pivot entry, within the same tolerance band as above, with ties going to
the lowest index; after 10(m + 20) dual pivots, the violated row with the
lowest basic column index leaves instead.  When no column can enter, the
leaving row's entries in the unit columns are a Farkas ray and the problem
is infeasible.

A restart checks itself inside the same call.  Before every dual pivot,
each reduced cost must be at least ``-FEAS_TOL * max(1, max|c|)`` in the
direction its column can move: pivots on an ill-conditioned tableau can
lose dual feasibility, and a primal feasible point is then no optimum,
while the dual objective falls and the restart wanders.  The restart also
gives up past the cold path's iteration budget.  An optimum must satisfy
the equilibrated rows and the bounds within ``FEAS_TOL``, and a ray must
prove infeasibility, bounds included, by more than ``FEAS_TOL``.  When any
of these fails, the cold two-phase solve runs on the same input, and
``iterations`` counts both.  A cold solve pivots as if no restart existed.

The scale of the problems this package builds is a few hundred rows.  At
that scale a dense tableau is fast to pivot when each pivot touches only
the pivot row's nonzero columns, and keeping it whole is what makes the
restart above a copy and a few matrix-vector products.
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
    tableau: "_Tableau" = None  # optimal results only; see Restarts


@dataclass(frozen=True, eq=False)
class _Tableau:
    """Final tableau of an optimal solve, in the equilibrated, flipped frame
    of its rows.  ``D[:m, unit]`` is B⁻¹: ``unit[k]`` is the column of row
    k's initial unit vector.  ``c``, ``lo`` and ``hi`` are the structural
    costs and bounds it was solved for, and ``upper`` marks the columns
    nonbasic at their upper bound.  Shared read-only: a restart copies
    ``D``, ``basis`` and ``upper``."""

    D: np.ndarray
    basis: np.ndarray
    unit: np.ndarray
    art_rows: np.ndarray
    scale: np.ndarray
    flip: np.ndarray
    n_real: int
    c: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    upper: np.ndarray


class _Columns:
    """Bounds and nonbasic state of every tableau column.

    ``dirn`` is the direction a column may move in: 1 nonbasic at its lower
    bound, -1 at its upper, 0 when basic or fixed.  Reduced cost times
    ``dirn`` is then negative exactly for the columns whose move pays.
    ``lo_b`` and ``hi_b`` are the bounds of each row's basic column, and
    ``n_capped`` counts the rows whose basic column has a finite upper one.
    """

    def __init__(self, lo, hi, upper, basis):
        self.lo, self.hi, self.upper = lo, hi, upper
        self.fixed = lo == hi
        self.dirn = np.where(self.fixed, 0.0, np.where(upper, -1.0, 1.0))
        self.dirn[basis] = 0.0
        self.rebase(basis)

    def rebase(self, basis):
        """Read the basic columns' bounds afresh."""
        self.lo_b, self.hi_b = self.lo[basis], self.hi[basis]
        self.n_capped = int(np.isfinite(self.hi_b).sum())

    def values(self):
        return np.where(self.upper, self.hi, self.lo)

    def pivot(self, D, basis, col, row, leaves_up):
        """Pivot ``col`` into ``row``; the leaving column goes to its upper
        bound when ``leaves_up``, else to its lower one."""
        out = basis[row]
        v_in = self.hi[col] if self.upper[col] else self.lo[col]
        v_out = self.hi[out] if leaves_up else self.lo[out]
        _pivot_once(D, basis, col, row)
        if v_out:
            D[:, -1] -= v_out * D[:, out]
        if v_in:
            D[row, -1] += v_in
        self.upper[col] = False
        self.upper[out] = leaves_up
        self.dirn[col] = 0.0
        self.dirn[out] = 0.0 if self.fixed[out] else (-1.0 if leaves_up else 1.0)
        self.n_capped += int(self.hi[col] < np.inf) - int(self.hi_b[row] < np.inf)
        self.lo_b[row], self.hi_b[row] = self.lo[col], self.hi[col]

    def flip(self, D, cols):
        """Move the nonbasic columns ``cols`` (an index array) to their
        other bounds."""
        D[:, -1] -= D[:, cols] @ ((self.hi[cols] - self.lo[cols]) * self.dirn[cols])
        self.upper[cols] = ~self.upper[cols]
        self.dirn[cols] = -self.dirn[cols]


def _duals(t, zrow, art_cost):
    """Row duals read off objective row ``zrow``: each row's unit column
    costs ``art_cost`` if artificial, else 0, minus its reduced cost; then
    unflipped and unscaled to the input rows."""
    y = -zrow[t.unit]
    y[t.art_rows] += art_cost
    return y * t.flip / t.scale


def _pivot_once(D, basis, col, row):
    prow = D[row]
    prow /= prow[col]
    pivot_col = D[:, col]
    # With the pivot entry at 0 the pivot column is not among the columns
    # to update, and the update leaves the pivot row alone (it subtracts
    # 0 times it); the pivot column is reset after.  Every updated entry
    # gets D[i, j] - D[i, col] * D[row, j]; the products are formed
    # column-major, as ``D`` is stored, which halves the time of a dense
    # pivot row's update.
    prow[col] = 0.0
    cols = prow.nonzero()[0]
    D[:, cols] -= np.multiply.outer(prow[cols], pivot_col).T
    pivot_col[:] = 0.0
    D[row, col] = 1.0
    basis[row] = col


def _run_phase(D, z, n_enter, basis, n_real, cols, maxiter, iters, check_unbounded):
    """Pivot until no column among the first ``n_enter``, those allowed to
    enter, can move off its bound at a negative reduced cost; ``z`` is the
    phase's objective row.  The artificials are the columns from ``n_real``
    on.

    Returns (status, iterations).  status is 'optimal' or 'unbounded'.
    """
    m = basis.size
    ncols = D.shape[1] - 1
    rc = z[:n_enter]
    dirn = cols.dirn[:n_enter]
    rhs = D[:m, -1]
    score = np.empty(n_enter)
    room = np.empty(m)
    ratios = np.empty(m)
    # Leaving key of each row, see Ratio ties; kept up to date per pivot.
    key = np.where(basis >= n_real, basis, basis + ncols)
    bland_after = iters + 10 * (m + 20)
    while True:
        bland = iters > bland_after
        np.multiply(rc, dirn, out=score)
        if bland:
            cand = (score < -PIVOT_TOL).nonzero()[0]
            if cand.size == 0:
                return "optimal", iters
            col = int(cand[0])
        else:
            col = int(score.argmin())
            if score[col] >= -PIVOT_TOL:
                return "optimal", iters
        # The basic values fall by ``alpha`` per unit the entering column moves.
        alpha = D[:m, col] if dirn[col] > 0.0 else -D[:m, col]
        ratios.fill(np.inf)
        np.subtract(rhs, cols.lo_b, out=room)
        np.divide(room, alpha, out=ratios, where=alpha > PIVOT_TOL)
        up = None
        if cols.n_capped:
            up = (alpha < -PIVOT_TOL) & (cols.hi_b < np.inf)
            np.subtract(cols.hi_b, rhs, out=room)
            np.divide(room, -alpha, out=ratios, where=up)
        best_ratio = ratios.min()
        span = cols.hi[col] - cols.lo[col]
        if span <= best_ratio and span < np.inf:
            cols.flip(D, [col])
        else:
            if best_ratio == np.inf:
                if check_unbounded:
                    return "unbounded", iters
                # Phase one is bounded below; a ray here is numerical noise.
                return "optimal", iters
            near = (ratios <= best_ratio + PIVOT_TOL * (1.0 + abs(best_ratio))).nonzero()[0]
            # Bland: lowest basic index; else artificials first, then lowest index.
            row = int(near[(basis[near] if bland else key[near]).argmin()])
            cols.pivot(D, basis, col, row, up is not None and bool(up[row]))
            key[row] = col if col >= n_real else col + ncols
        iters += 1
        if iters > maxiter:
            raise SolverStall(f"simplex exceeded {maxiter} iterations")


def _dual_phase(D, basis, n_real, cols, maxiter, rc_tol):
    """Dual simplex on the phase-two row of ``D``, whose reduced costs over
    the first ``n_real`` columns, those allowed to enter, are dual feasible.
    Pivots until every basic value lies within its bounds.

    Returns (status, row, iterations): 'optimal', 'infeasible' with the
    row that proves it, or None once a reduced cost falls below ``-rc_tol``
    in its column's direction or the pivots exceed ``maxiter``.
    """
    m = basis.size
    rhs = D[:m, -1]
    rc = D[m + 1, :n_real]
    dirn = cols.dirn[:n_real]
    ratios = np.empty(n_real)
    iters = 0
    while True:
        priced = rc * dirn
        if priced.min() < -rc_tol or iters > maxiter:
            return None, -1, iters
        above = rhs - cols.hi_b
        viol = np.maximum(cols.lo_b - rhs, above)
        if iters > 10 * (m + 20):
            cand = (viol > PIVOT_TOL).nonzero()[0]
            if cand.size == 0:
                return "optimal", -1, iters
            row = int(cand[basis[cand].argmin()])
        else:
            row = int(viol.argmax())
            if viol[row] <= PIVOT_TOL:
                return "optimal", -1, iters
        leaves_up = bool(above[row] > 0.0)
        # Entries of the columns whose move takes the basic value towards
        # the bound it violates.
        alpha = D[row, :n_real] * dirn
        if not leaves_up:
            alpha = -alpha
        elig = alpha > PIVOT_TOL
        if not elig.any():
            return "infeasible", row, iters
        ratios.fill(np.inf)
        np.divide(np.maximum(priced, 0.0), alpha, out=ratios, where=elig)
        best_ratio = ratios.min()
        col = int((ratios <= best_ratio + PIVOT_TOL * (1.0 + best_ratio)).argmax())
        cols.pivot(D, basis, col, row, leaves_up)
        iters += 1


def _column_bounds(lo, hi, n_real, ncols, art_hi):
    """Bounds of every tableau column: the structural ``lo``/``hi``, slacks
    over [0, ∞) and artificials over [0, ``art_hi``]."""
    lo_all = np.zeros(ncols)
    hi_all = np.full(ncols, np.inf)
    lo_all[: lo.size], hi_all[: hi.size] = lo, hi
    hi_all[n_real:] = art_hi
    return lo_all, hi_all


def _point(D, basis, cols, n):
    """The structural values of the tableau's basic solution."""
    x = cols.values()
    x[basis] = D[: basis.size, -1]
    return x[:n]


def _reprice(z, D, basis, dc, x):
    """Move ``z``, the phase-two row of ``D``, to structural costs changed
    by ``dc``; ``x`` is the structural point, and the last entry stays
    minus the objective there."""
    m, n = basis.size, dc.size
    cb = np.zeros(m)
    structural = basis < n
    cb[structural] = dc[basis[structural]]
    rows = cb.nonzero()[0]
    z[:n] += dc
    z[:-1] -= cb[rows] @ D[rows, :-1]
    z[-1] -= dc @ x


def _proves_infeasible(y, A, b, is_le, lo, hi, tol):
    """Whether ``y`` over the rows ``A x (<= | =) b`` is a Farkas ray: ``y``
    at most 0 on the ``le`` rows, and ``y @ b`` above the largest value of
    ``y @ A @ x`` over the box ``lo <= x <= hi``, both by ``tol``."""
    a = y @ A
    open_up = ~np.isfinite(hi)
    if (a[open_up] > tol).any() or y[is_le].max(initial=0.0) > tol:
        return False
    top = np.maximum(a * lo, a * np.where(open_up, lo, hi)).sum()
    return y @ b - top > tol


def _restart(t, c, A, b, is_le, lo, hi):
    """Reoptimize the final tableau ``t`` for the equilibrated rows ``A x
    (<= | =) b`` with costs ``c`` and bounds ``lo``/``hi``; ``A``, ``b``
    and the senses are those ``t`` was solved for.

    Returns (result, iterations); result is None when no route applies, a
    route gives up, or the answer fails its check.
    """
    D = t.D.copy(order="F")
    basis = t.basis.copy()
    m, n = A.shape
    ncols = D.shape[1] - 1
    n_real = t.n_real
    nonbasic = np.ones(n, dtype=bool)
    nonbasic[basis[basis < n]] = False

    # Nonbasic columns keep their value where it is still their upper
    # bound, and otherwise sit at their lower one.
    old = np.where(t.upper[:n], t.hi, t.lo)
    upper = t.upper.copy()
    upper[:n] = nonbasic & (old == hi)
    delta = np.where(nonbasic, np.where(upper[:n], hi, lo) - old, 0.0)
    moved = delta.nonzero()[0]
    if moved.size:
        D[:, -1] -= D[:, moved] @ delta[moved]
    cols = _Columns(*_column_bounds(lo, hi, n_real, ncols, 0.0), upper, basis)

    dc = c - t.c
    if dc.any():
        _reprice(D[m + 1], D, basis, dc, _point(D, basis, cols, n))
    rc_tol = FEAS_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))
    maxiter = 500 + 30 * (m + ncols)
    iters = 0
    rhs = D[:m, -1]
    if np.maximum(cols.lo_b - rhs, rhs - cols.hi_b).max() > PIVOT_TOL:
        wrong = D[m + 1, :n_real] * cols.dirn[:n_real] < -rc_tol
        if (wrong & (cols.hi[:n_real] == np.inf)).any():
            return None, 0
        # The others have two finite bounds: each goes to the one its cost favours.
        cols.flip(D, wrong.nonzero()[0])
        status, row, iters = _dual_phase(D, basis, n_real, cols, maxiter, rc_tol)
        if status is None:
            return None, iters
        if status == "infeasible":
            # Row ``row`` reads u @ (the initial rows) with u = D[row, unit];
            # signed towards the bound its basic value violates.
            value, out = D[row, -1], basis[row]
            above = value - cols.hi[out]
            sign = 1.0 if above > 0.0 else -1.0
            y = sign * D[row, t.unit] * t.flip  # over the equilibrated rows
            tol = FEAS_TOL * max(1.0, float(np.abs(y).max()))
            if not _proves_infeasible(y, A, b, is_le, lo, hi, tol):
                return None, iters
            gap = max(above, cols.lo[out] - value)
            return SimplexResult("infeasible", None, np.inf, y / t.scale, gap, iters), iters
    try:
        status, iters = _run_phase(D, D[m + 1], n_real, basis, n_real, cols, maxiter, iters, True)
    except SolverStall:
        return None, maxiter
    if status != "optimal":
        return None, iters

    x = _point(D, basis, cols, n)
    gap = A @ x - b
    viol = np.where(is_le, np.maximum(gap, 0.0), np.abs(gap))
    if max(viol.max(), (lo - x).max(), (x - hi).max()) > FEAS_TOL:
        return None, iters
    final = _Tableau(
        D, basis, t.unit, t.art_rows, t.scale, t.flip, n_real, c, lo, hi, cols.upper
    )
    duals = _duals(final, D[m + 1], 0.0)
    return SimplexResult("optimal", x, float(c @ x), duals, 0.0, iters, final), iters


def solve_dense(c, A, b, senses, feasibility_only=False, start=None, *, lo=None, hi=None):
    """senses: sequence of 'le' / 'eq' per row; ``lo`` and ``hi`` are the
    column bounds, 0 and ∞ when None.

    ``start`` is the ``tableau`` of an optimal result for the same ``A``,
    ``b`` and ``senses``; the solve then restarts from it (see Restarts).
    A feasibility-only solve always runs cold.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape if A.ndim == 2 else (0, c.size)
    lo = np.zeros(n) if lo is None else np.asarray(lo, dtype=float)
    hi = np.full(n, np.inf) if hi is None else np.asarray(hi, dtype=float)
    if m == 0:
        x = np.where(c < -PIVOT_TOL, hi, lo)
        if not np.isfinite(x).all():
            return SimplexResult("unbounded", np.zeros(n), -np.inf, np.zeros(0), 0.0, 0)
        return SimplexResult("optimal", x, float(c @ x), np.zeros(0), 0.0, 0)

    is_le = np.array([s == "le" for s in senses], dtype=bool)

    # Row equilibration.
    scale = np.abs(A).max(axis=1)
    scale[scale < 1e-12] = 1.0
    A = A / scale[:, None]
    b = b / scale

    if start is None or feasibility_only:
        return _cold(c, A, b, is_le, scale, feasibility_only, lo, hi)
    res, spent = _restart(start, c, A, b, is_le, lo, hi)
    if res is None:
        res = _cold(c, A, b, is_le, scale, feasibility_only, lo, hi)
        res.iterations += spent
    return res


def _cold(c, A, b, is_le, scale, feasibility_only, lo, hi):
    """Two-phase primal simplex on the equilibrated rows ``A x (<= | =) b``
    over the box ``lo <= x <= hi``; ``scale`` holds the row scales the
    duals are unscaled by."""
    m, n = A.shape
    le_rows = is_le.nonzero()[0]
    at_lo = lo.any()
    if at_lo:
        b = b - A @ lo  # every column starts at its lower bound

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

    D = np.zeros((m + 2, ncols + 1), order="F")
    D[:m, :n] = A
    D[le_rows, slack_cols] = 1.0
    D[:m, :n_real][neg] *= -1.0
    D[art_rows, art_cols] = 1.0
    D[:m, -1] = b
    basis = np.empty(m, dtype=int)
    basis[le_rows] = slack_cols
    basis[art_rows] = art_cols
    # Every row holds either a slack or an artificial unit column, so the
    # row's dual is read off that column's reduced cost: the artificial's for
    # artificial rows, the slack's for the le rows that were not flipped.
    unit = np.empty(m, dtype=int)
    unit[le_rows] = slack_cols
    unit[art_rows] = art_cols
    cols = _Columns(
        *_column_bounds(lo, hi, n_real, ncols, np.inf), np.zeros(ncols, dtype=bool), basis
    )

    maxiter = 500 + 30 * (m + ncols)

    # Phase one minimizes the sum of the artificials; the phase-two row
    # starts at c, since every initial basic column costs 0 there.
    z1, z2 = D[m], D[m + 1]
    z1[n_real:ncols] = 1.0
    for i in art_rows:
        z1 -= D[i]
    z2[:n] = c
    if at_lo:
        z2[-1] = -(c @ lo)
    _, iters = _run_phase(D, z1, ncols, basis, n_real, cols, maxiter, 0, check_unbounded=False)
    phase1_obj = -z1[-1]
    t = _Tableau(D, basis, unit, art_rows, scale, flip, n_real, c, lo, hi, cols.upper)

    if phase1_obj > FEAS_TOL:
        duals = _duals(t, z1, 1.0)
        return SimplexResult("infeasible", None, np.inf, duals, phase1_obj, iters)

    if feasibility_only:
        x = _point(D, basis, cols, n)
        return SimplexResult("optimal", x, float(c @ x), None, phase1_obj, iters)

    # The artificials stay at 0 from here on.
    cols.hi[n_real:] = 0.0
    cols.fixed[n_real:] = True
    cols.dirn[n_real:] = 0.0
    cols.rebase(basis)
    # Drive surviving artificials out of the basis where possible; rows where
    # no column that can move has a pivot are redundant, or hold fixed
    # columns alone, and their artificial stays basic at zero.
    movable = ~cols.fixed[:n_real]
    for i in range(m):
        if basis[i] >= n_real:
            cands = ((np.abs(D[i, :n_real]) > PIVOT_TOL) & movable).nonzero()[0]
            if cands.size:
                cols.pivot(D, basis, int(cands[0]), i, False)
                iters += 1

    status, iters = _run_phase(
        D, z2, n_real, basis, n_real, cols, maxiter, iters, check_unbounded=True
    )
    if status == "unbounded":
        return SimplexResult("unbounded", None, -np.inf, None, phase1_obj, iters)

    x = _point(D, basis, cols, n)
    duals = _duals(t, z2, 0.0)
    return SimplexResult("optimal", x, float(c @ x), duals, phase1_obj, iters, t)
