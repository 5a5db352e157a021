"""Irreducible inconsistent subsystem extraction for infeasible problems.

Works by deletion filtering: drop a constraint row, re-solve for
feasibility, and discard the row permanently when the remainder is still
infeasible.  Each row is its own deletion unit, so the rows that survive
one sweep form a minimal IIS (Chinneck & Dravnieks, ORSA J. Computing
1991).  Variable bounds and fixings are part of the system and are never
deleted.

Two speedups keep this affordable:

* the phase-one duals of the failed solve form a Farkas certificate whose
  support already is an infeasible subsystem; deletion starts from that
  subset whenever it verifies as infeasible;
* feasibility-only solves skip the optimization phase.

The repair loop needs only the families of an infeasible subsystem, not a
minimal one: with ``minimal=False`` the verified support is reported as it
is, after its one verifying solve, and the sweep runs only when no support
verifies.  The support contains an IIS (Gleeson & Ryan, ORSA J. Computing
1990), so every family of some IIS in it is reported.

Deletion order is deterministic, sweeping the actionable families (link
capacity, compute capacity) last so they survive whenever several IISes
overlap; the repair procedure keys its decisions off exactly those
families.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotInfeasible
from .lp import _assemble, _bounds, solve
from .simplex import solve_dense

__all__ = ["IisReport", "compute_iis"]

# Families whose presence triggers a repair action go last in the sweep.
_DELETION_ORDER = {fam: rank for rank, fam in enumerate((1, 2, 3, 5, 6, 8, 9, 4, 7))}


@dataclass(frozen=True)
class IisReport:
    """Constraint ids forming the IIS plus the equation families present.

    From ``compute_iis(..., minimal=False)`` the ids may instead form a
    verified Farkas support: an infeasible subsystem that contains an IIS.
    """

    constraint_ids: tuple
    families: frozenset
    solves: int = 0

    def __contains__(self, family):
        return family in self.families


def _feasible(p, rows):
    """Whether the constraints ``rows`` of ``p`` and its column bounds admit
    a point.

    The rows are those of ``p``'s block, which ``lp`` assembles once per
    base problem; each row of it is built from its own terms, so the rows
    posed here equal those the subset alone assembles to.
    """
    b = _assemble(p)
    rows = np.asarray(rows, dtype=np.intp)
    lo, hi = _bounds(p)
    res = solve_dense(
        p.objective, b.A[rows], b.rhs[rows], [b.senses[r] for r in rows.tolist()],
        feasibility_only=True, lo=lo, hi=hi,
    )  # fmt: skip
    return res.status != "infeasible"


def compute_iis(p, solution=None, *, minimal=True):
    """Extract one deterministic IIS from an infeasible problem.

    ``solution`` is ``lp.solve(p)`` when the caller already has it; the
    opening feasibility solve is then skipped, since phase one, and with it
    the Farkas certificate, is the same with or without the optimization
    phase.  ``IisReport.solves`` counts only the solves made here.

    Raises NotInfeasible when the problem solves.  The result is minimal:
    removing any single reported constraint leaves a feasible remainder
    (given the problem's variable bounds).  With ``minimal=False`` the
    certificate's support, once verified infeasible, is returned without
    the deletion sweep; it contains an IIS but need not be one.  Without
    ``row_duals``, or when the support is every row or solves, the sweep
    runs and the result is minimal all the same.
    """
    solves = 0
    if solution is None:
        solution = solve(p, feasibility_only=True)
        solves = 1
    if solution.status != "infeasible":
        raise NotInfeasible(f"problem status is {solution.status}")

    cids = p.constraints.cids()
    ordered = sorted(
        range(len(cids)), key=lambda r: (_DELETION_ORDER[cids[r][0]], cids[r][1])
    )
    kept = ordered

    # Farkas prefilter: restrict attention to the certificate's support when
    # that support is itself infeasible.  Processing caps are substitutable
    # (per-deployment and per-node rows bound the same variables), so a
    # certificate built on the per-deployment rows also admits the node
    # compute row; pulling those in lets the sweep below keep the compute
    # family, which is the one downstream repair can act on.
    if solution.row_duals is not None:
        support = set(np.flatnonzero(np.abs(solution.row_duals) > 1e-9).tolist())
        row_of = {cid: r for r, cid in enumerate(cids)}
        for r in list(support):
            family, index = cids[r]
            twin = row_of.get((7, (index[0],))) if family == 6 else None
            if twin is not None:
                support.add(twin)
        if support and len(support) < len(kept):
            solves += 1
            if not _feasible(p, sorted(support)):
                kept = [r for r in ordered if r in support]
                if not minimal:
                    return _report(cids, kept, solves)

    # Row-level deletion sweep.
    for r in list(kept):
        trial = [q for q in kept if q != r]
        solves += 1
        if not _feasible(p, sorted(trial)):
            kept = trial

    return _report(cids, kept, solves)


def _report(cids, rows, solves):
    ids = tuple(sorted(cids[r] for r in rows))
    return IisReport(ids, frozenset(cid[0] for cid in ids), solves)
