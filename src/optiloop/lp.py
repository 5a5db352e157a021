"""Linear-program representation of a scenario, with one pin per binary.

The joint activation/placement/routing problem is mixed-integer, but every
strategy in this package only ever solves versions where each binary is
either pinned to a value or relaxed to [0, 1], so each solve is a plain LP.
``LpProblem`` is a plain value: its rows and objective plus ``pins``, one
int8 per binary (0 or 1 pins it, -1 relaxes it to [0, 1]); the flows are
continuous.  ``fix``/``relax`` return modified copies, and each solve
assembles its dense block from the problem's own rows.

The columns open with the binaries, in a fixed layout that ``LpProblem.layout``
records (kind -> column slice): ``x`` over the sorted links, then ``y`` over
the sorted nodes, then ``delta`` over (node, function) pairs, node-major.
Code that holds one value per binary can therefore keep a vector over
columns ``0..n_binaries()-1`` and use it as the pins.

The row space follows the flow variables, which exist only for live
commodities (a demanded first hop or a positive derived flow).  The
per-commodity families 1, 2 and 6 have one row per node and live
commodity, so every row has a flow term except the activation rows of
families 3 and 5; those are the only rows that pinning binaries can empty.

Flow variables are expressed internally in units of the scenario's largest
logical flow (``traffic_scale``), which keeps the tableau well conditioned
when demands are in bit/s; solutions are rescaled on extraction and the
objective is in watts throughout.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as mdl
from .errors import InvalidMode, ShapeMismatch
from .simplex import solve_dense

__all__ = [
    "VarRef",
    "RELAXED",
    "fixed",
    "LpProblem",
    "LpSolution",
    "LinearConstraint",
    "build_problem",
    "fix",
    "relax",
    "solve",
    "to_lp_text",
]

BINARY_KINDS = ("x", "y", "delta")
FLOW_KINDS = ("tau", "transit", "processed")
_ARITY = {"x": 2, "y": 1, "delta": 2, "tau": 5, "transit": 4, "processed": 4}

RELAXED = "relaxed01"


def fixed(value):
    """Mode marker pinning a binary variable to 0 or 1."""
    value = float(value)
    if value not in (0.0, 1.0):
        raise InvalidMode(f"binaries can only be fixed to 0 or 1, got {value}")
    return ("fixed", value)


@dataclass(frozen=True)
class VarRef:
    """Reference to one decision variable: kind plus index tuple."""

    kind: str
    index: tuple

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise InvalidMode(f"unknown variable kind {self.kind!r}")
        if len(self.index) != _ARITY[self.kind]:
            raise InvalidMode(
                f"{self.kind} takes {_ARITY[self.kind]} indices, got {self.index!r}"
            )
        object.__setattr__(self, "index", tuple(self.index))

    def is_binary(self):
        return self.kind in BINARY_KINDS


@dataclass(frozen=True)
class LinearConstraint:
    cid: tuple  # (family, index_tuple)
    terms: tuple  # ((var_position, coefficient), ...)
    sense: str  # 'le' | 'eq'
    rhs: float


@dataclass(frozen=True, eq=False)
class LpProblem:
    variables: tuple
    var_index: dict
    pins: np.ndarray  # int8 per binary column: 0 or 1 pinned, -1 relaxed
    constraints: tuple
    objective: np.ndarray
    traffic_scale: float
    layout: dict = field(default_factory=dict)  # binary kind -> column slice

    def n_vars(self):
        return len(self.variables)

    def n_binaries(self):
        """Number of binary columns; they lead the column space."""
        return self.pins.size

    def mode_of(self, ref):
        pos = self._pos(ref)
        if pos >= self.pins.size:
            return "continuous"
        pin = self.pins[pos]
        return RELAXED if pin < 0 else ("fixed", float(pin))

    def _pos(self, ref):
        try:
            return self.var_index[ref]
        except KeyError:
            raise InvalidMode(f"variable {ref} is not declared in this problem")

    def binary_refs(self):
        return list(self.variables[: self.n_binaries()])


@dataclass(eq=False)
class LpSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    values: dict
    objective_value: float
    iterations: int = 0
    max_residual: float = 0.0
    row_duals: np.ndarray = None
    # Optimal solutions only: the block solved and its final tableau, which
    # ``solve(q, start=...)`` restarts from.
    frame: "_Frame" = None

    @property
    def is_feasible(self):
        return self.status == "optimal"


# ---------------------------------------------------------------------------
# Problem construction


def build_problem(s):
    """Emit the constraint system for a scenario, every binary relaxed.

    Flow variables exist only for live commodities: a demanded first hop
    ``(v, v)`` or a ``(v1, v2)`` with positive derived flow.  Flow on any
    other commodity has no source and could only circulate, so pinning it
    to zero by omission loses nothing.  The rows follow the same rule:
    families 1, 2 and 6 exist once per node and live commodity, so every
    row carries a flow term except the activation rows of families 3 and 5,
    which are also the only rows that pinning the binaries can empty.
    Each activation row has two terms, the gated binary (a link's ``x`` in
    family 3, a placement's ``delta`` in family 5) first and the node's
    ``y`` gating it second; callers read the on/off cascades from them.
    ``fix``, ``relax`` and ``_with_modes`` set the binaries' pins.
    """
    lg, pg = s.logical, s.physical
    eps = s.endpoint_ids()
    nodes = s.node_ids()
    vnfs = s.vnf_ids()
    links = s.link_ids()
    first_hops = {
        e: sorted(
            v for (ep, v), rate in lg.ingress_demand.items() if ep == e and rate > 0.0
        )
        for e in eps
    }
    derived = mdl.derive_logical_flows(lg)
    live = {e: set() for e in eps}
    for e in eps:
        for v in first_hops[e]:
            live[e].add((v, v))
    for (e, v1, v2) in derived:
        live[e].add((v1, v2))
    live_pairs = {e: sorted(live[e]) for e in eps}
    t0 = max([*lg.ingress_demand.values(), *derived.values()], default=0.0)
    t0 = t0 if t0 > 0 else 1.0  # the largest logical flow

    variables, layout = [], {}
    for kind, refs in (
        ("x", [VarRef("x", lk) for lk in links]),
        ("y", [VarRef("y", (c,)) for c in nodes]),
        ("delta", [VarRef("delta", (c, v)) for c in nodes for v in vnfs]),
    ):
        layout[kind] = slice(len(variables), len(variables) + len(refs))
        variables += refs
    nb = len(variables)
    ep_set = lg.endpoints
    for (i, j) in links:
        if j in ep_set:
            continue  # nothing terminates at an endpoint
        if i in ep_set:
            for v in first_hops[i]:
                variables.append(VarRef("tau", (i, j, i, v, v)))
        else:
            for e in eps:
                for (v1, v2) in live_pairs[e]:
                    variables.append(VarRef("tau", (i, j, e, v1, v2)))
    for c in nodes:
        for e in eps:
            for (v1, v2) in live_pairs[e]:
                variables.append(VarRef("transit", (c, e, v1, v2)))
    for c in nodes:
        for e in eps:
            for (v1, v2) in live_pairs[e]:
                variables.append(VarRef("processed", (c, e, v1, v2)))

    var_index = {ref: i for i, ref in enumerate(variables)}
    nv = len(variables)

    def col(kind, *index):
        return var_index[VarRef(kind, tuple(index))]

    def maybe(kind, *index):
        return var_index.get(VarRef(kind, tuple(index)))

    in_links = {c: [] for c in nodes}
    out_links = {c: [] for c in nodes}
    ep_out = {e: [] for e in eps}
    for (i, j) in links:
        if j in in_links:
            in_links[j].append((i, j))
        if i in out_links:
            out_links[i].append((i, j))
        if i in ep_out:
            ep_out[i].append((i, j))

    cons = []

    # Family 1: arrivals split into transit and processed traffic.
    for c in nodes:
        for e in eps:
            for (v1, v2) in live_pairs[e]:
                terms = []
                for (i, j) in in_links[c]:
                    pos = maybe("tau", i, j, e, v1, v2)
                    if pos is not None:
                        terms.append((pos, 1.0))
                terms.append((col("transit", c, e, v1, v2), -1.0))
                terms.append((col("processed", c, e, v1, v2), -1.0))
                cons.append(LinearConstraint((1, (c, e, v1, v2)), tuple(terms), "eq", 0.0))

    # Family 2: departures are transit plus chi-transformed processed traffic.
    for c in nodes:
        for e in eps:
            for (vb, vc) in live_pairs[e]:
                terms = []
                for (i, j) in out_links[c]:
                    pos = maybe("tau", i, j, e, vb, vc)
                    if pos is not None:
                        terms.append((pos, 1.0))
                terms.append((col("transit", c, e, vb, vc), -1.0))
                for va in vnfs:
                    ratio = lg.chi_out(e, va, vb, vc)
                    if ratio > 0.0:
                        pos = maybe("processed", c, e, va, vb)
                        if pos is not None:
                            terms.append((pos, -ratio))
                cons.append(LinearConstraint((2, (c, e, vb, vc)), tuple(terms), "eq", 0.0))

    # Family 3: a link needs both node-side ends active.
    for (i, j) in links:
        xpos = col("x", i, j)
        if i in pg.nodes:
            cons.append(
                LinearConstraint(
                    (3, (i, j, "src")), ((xpos, 1.0), (col("y", i), -1.0)), "le", 0.0
                )
            )
        if j in pg.nodes:
            cons.append(
                LinearConstraint(
                    (3, (i, j, "dst")), ((xpos, 1.0), (col("y", j), -1.0)), "le", 0.0
                )
            )

    # Family 4: link capacity gated by activation.
    for (i, j) in links:
        terms = []
        for e in eps:
            if i in ep_set and e != i:
                continue
            for (v1, v2) in live_pairs[e]:
                pos = maybe("tau", i, j, e, v1, v2)
                if pos is not None:
                    terms.append((pos, 1.0))
        terms.append((col("x", i, j), -pg.links[(i, j)].capacity / t0))
        cons.append(LinearConstraint((4, (i, j)), tuple(terms), "le", 0.0))

    # Family 5: deployment on active nodes only.
    for c in nodes:
        for v in vnfs:
            cons.append(
                LinearConstraint(
                    (5, (c, v)), ((col("delta", c, v), 1.0), (col("y", c), -1.0)), "le", 0.0
                )
            )

    # Family 6: processing needs a deployed instance.
    for c in nodes:
        k = pg.nodes[c].compute / t0
        for e in eps:
            for (v1, v2) in live_pairs[e]:
                terms = ((col("processed", c, e, v1, v2), 1.0), (col("delta", c, v2), -k))
                cons.append(LinearConstraint((6, (c, e, v1, v2)), terms, "le", 0.0))

    # Family 7: compute covers processing plus software switching on egress.
    for c in nodes:
        spec = pg.nodes[c]
        terms = []
        for e in eps:
            for (v1, v2) in live_pairs[e]:
                terms.append(
                    (col("processed", c, e, v1, v2), lg.compute_per_bit[v2])
                )
        if spec.switch_cost > 0.0:
            for (i, j) in out_links[c]:
                for e in eps:
                    for (v1, v2) in live_pairs[e]:
                        pos = maybe("tau", i, j, e, v1, v2)
                        if pos is not None:
                            terms.append((pos, spec.switch_cost))
        cons.append(LinearConstraint((7, (c,)), tuple(terms), "le", spec.compute / t0))

    # Family 8: per-endpoint delay budget (normalized by injected traffic).
    if s.delays_enabled:
        for e in eps:
            bound = s.max_delay.get(e)
            if bound is None:
                continue
            total_l = sum(
                rate for (ep, v), rate in lg.ingress_demand.items() if ep == e
            )
            if total_l <= 0.0:
                continue
            terms = []
            for (i, j) in links:
                d = pg.links[(i, j)].delay
                if d == 0.0:
                    continue
                for (v1, v2) in live_pairs[e]:
                    pos = maybe("tau", i, j, e, v1, v2)
                    if pos is not None:
                        terms.append((pos, d))
            for c in nodes:
                for (v1, v2) in live_pairs[e]:
                    d = lg.per_vnf_delay[v2]
                    if d > 0.0:
                        terms.append((col("processed", c, e, v1, v2), d))
            cons.append(
                LinearConstraint((8, (e,)), tuple(terms), "le", bound * total_l / t0)
            )

    # Family 9: injected traffic equals demand.
    for e in eps:
        for v in first_hops[e]:
            terms = []
            for (i, j) in ep_out[e]:
                pos = maybe("tau", i, j, e, v, v)
                if pos is not None:
                    terms.append((pos, 1.0))
            cons.append(
                LinearConstraint(
                    (9, (e, v)), tuple(terms), "eq", lg.ingress_demand[(e, v)] / t0
                )
            )

    # Objective: the affine energy model, in watts.
    em = s.energy
    objective = np.zeros(nv)
    objective[layout["y"]] = em.idle_power
    objective[layout["delta"]] = em.placement_power
    for pos in range(nb, nv):
        ref = variables[pos]
        if ref.kind == "processed":
            v2 = ref.index[3]
            objective[pos] = em.proc_power_per_unit * lg.compute_per_bit[v2] * t0
        elif ref.kind == "tau":
            i = ref.index[0]
            per_bit = em.link_energy_per_bit
            if i not in ep_set:
                per_bit += em.switch_energy_per_bit
            objective[pos] = per_bit * t0

    return LpProblem(
        variables=tuple(variables),
        var_index=var_index,
        pins=np.full(nb, -1, dtype=np.int8),
        constraints=tuple(cons),
        objective=objective,
        traffic_scale=t0,
        layout=layout,
    )


def _with_modes(p, updates):
    pins = p.pins.copy()
    for ref, mode in updates.items():
        pos = p._pos(ref)
        if not ref.is_binary():
            raise InvalidMode(f"cannot change mode of flow variable {ref}")
        if mode == RELAXED:
            pins[pos] = -1
        elif isinstance(mode, tuple) and len(mode) == 2 and mode[0] == "fixed":
            value = float(mode[1])
            if value not in (0.0, 1.0):
                raise InvalidMode(f"binary {ref} fixed to non-binary value {value}")
            pins[pos] = value
        else:
            raise InvalidMode(f"unrecognized mode {mode!r} for {ref}")
    return replace(p, pins=pins)


def fix(p, ref, value):
    """Pin one binary variable; returns a new problem."""
    return _with_modes(p, {ref: fixed(value)})


def relax(p, ref):
    """Let one binary variable range over [0, 1]; returns a new problem."""
    return _with_modes(p, {ref: RELAXED})


# ---------------------------------------------------------------------------
# Solving


# Beyond this many tableau cells the dense solver would thrash or OOM;
# instances that big call for an external solver behind this seam.
DENSE_CELL_LIMIT = 50_000_000


def _assemble(p):
    """Dense block over the free columns, with the pinned values folded into
    the rhs and [0,1] bound rows appended for the relaxed binaries.

    Rows whose free part vanished and whose rhs is trivially satisfied are
    dropped; ``orig_rows`` maps kept rows back to constraint indices.
    Raises ShapeMismatch before allocating anything when the tableau that
    ``solve_dense`` builds from the block could exceed ``DENSE_CELL_LIMIT``.
    """
    n_rows = len(p.constraints)
    relaxed = p.pins < 0
    n_relaxed = int(relaxed.sum())
    free = np.ones(p.n_vars(), dtype=bool)
    free[: p.pins.size] = relaxed
    n_free = int(free.sum())
    # Tableau: the rows plus two objective rows, by the free columns, at
    # most a slack and an artificial per row, and the rhs.
    m = n_rows + n_relaxed
    cells = (m + 2) * (n_free + 2 * m + 1)
    if cells > DENSE_CELL_LIMIT:
        raise ShapeMismatch(
            f"problem of {n_rows} rows x {n_free} free columns needs up to {cells} "
            f"tableau cells, beyond the built-in dense solver's budget of "
            f"{DENSE_CELL_LIMIT}; plug an external LP solver in for instances of "
            "this scale"
        )
    local = np.where(free, np.cumsum(free) - 1, -1).tolist()  # column -> free column
    pins = p.pins.tolist()
    # Free terms and pinned-column folds, in row and term order; the
    # unbuffered scatters below apply them in that order, as a walk would.
    rows, cols, coefs = [], [], []
    fold_rows, folds = [], []
    for r, con in enumerate(p.constraints):
        for pos, coef in con.terms:
            j = local[pos]
            if j >= 0:
                rows.append(r)
                cols.append(j)
                coefs.append(coef)
            else:
                fold_rows.append(r)
                folds.append(coef * pins[pos])
    A = np.zeros((n_rows, n_free))
    np.add.at(A, (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)), coefs)
    rhs = np.array([con.rhs for con in p.constraints], dtype=float)
    np.subtract.at(rhs, np.array(fold_rows, dtype=np.intp), folds)
    senses = [con.sense for con in p.constraints]
    orig = np.arange(n_rows)
    senses_arr = np.array(senses)
    nonzero = (A != 0.0).any(axis=1)
    trivial = ~nonzero & np.where(
        senses_arr == "eq", np.abs(rhs) <= 1e-12, rhs >= -1e-12
    )
    if trivial.any():
        keep = ~trivial
        A = A[keep]
        rhs = rhs[keep]
        orig = orig[keep]
        senses = [sense for sense, k in zip(senses, keep.tolist()) if k]
    if n_relaxed:
        # The relaxed binaries are the leading free columns.
        A = np.vstack([A, np.eye(n_relaxed, n_free)])
        rhs = np.concatenate([rhs, np.ones(n_relaxed)])
        senses = senses + ["le"] * n_relaxed
    c_free = p.objective[free]
    offset = float(p.objective[~free] @ p.pins[~relaxed].astype(float))
    return A, rhs, senses, c_free, offset, free, orig


@dataclass(frozen=True, eq=False)
class _Frame:
    """The block an optimal solve of ``problem`` ran on, as ``_assemble``
    returned it with the rhs actually solved, and the solve's final tableau.
    A binary that ``problem`` pins at 0 may still be a free column here,
    with a bound row of rhs 0."""

    problem: LpProblem
    A: np.ndarray
    rhs: np.ndarray
    senses: list
    c_free: np.ndarray
    offset: float
    free: np.ndarray
    orig: np.ndarray
    tableau: object


def _restart_rhs(p, f):
    """The rhs that poses ``p`` in frame ``f``, or None when ``p`` is not
    ``f.problem`` with some of the binaries it relaxes pinned to 0."""
    q = f.problem
    if p.constraints is not q.constraints or not np.array_equal(p.objective, q.objective):
        return None
    newly = (q.pins < 0) & (p.pins == 0)
    if not np.array_equal(p.pins[~newly], q.pins[~newly]):
        return None
    # The bound rows follow the kept rows, one per free binary in order.
    bound_row = f.orig.size + np.cumsum(f.free[: q.pins.size]) - 1
    rhs = f.rhs.copy()
    rhs[bound_row[newly]] = 0.0
    return rhs


def solve(p, feasibility_only=False, start=None):
    """Run the built-in simplex on the problem.

    Returns an LpSolution; ``feasibility_only`` skips the optimization phase
    and reports the first feasible point found (used heavily by the IIS
    filter).  Raises SolverStall if the pivot budget runs out.

    ``start`` is an earlier solution.  When it is optimal and ``p`` is its
    LP (same ``constraints`` object, equal objective) with some binaries it
    relaxed pinned to 0, ``p`` is posed in ``start``'s block instead of
    being assembled: the same matrix, costs and senses, with the bound rows
    of the newly pinned columns at rhs 0.  The simplex then restarts from
    ``start``'s final tableau (``simplex`` module, Restarts).  In every
    other case, and for ``feasibility_only``, the solve runs cold.
    """
    f = start.frame if start is not None and not feasibility_only else None
    rhs = None if f is None else _restart_rhs(p, f)
    if rhs is None:
        A, rhs, senses, c_free, offset, free, orig = _assemble(p)
        tableau = None
    else:
        A, senses, c_free, offset = f.A, f.senses, f.c_free, f.offset
        free, orig, tableau = f.free, f.orig, f.tableau
    n_rows = len(p.constraints)
    res = solve_dense(
        c_free, A, rhs, senses, feasibility_only=feasibility_only, start=tableau
    )

    def scatter_duals():
        if res.row_duals is None:
            return None
        duals = np.zeros(n_rows)
        kept = orig.size
        duals[orig] = res.row_duals[:kept]
        return duals

    if res.status == "infeasible":
        return LpSolution("infeasible", {}, math.inf, res.iterations, 0.0, scatter_duals())
    if res.status == "unbounded":
        return LpSolution("unbounded", {}, -math.inf, res.iterations, 0.0, None)

    full = np.zeros(p.n_vars())
    full[free] = res.x
    # Pinned binaries read their pins, also those the block keeps free.
    nb = p.n_binaries()
    full[:nb] = np.where(p.pins < 0, full[:nb], p.pins)
    full[nb:] *= p.traffic_scale  # the flows
    values = dict(zip(p.variables, full.tolist()))
    resid = 0.0
    if A.shape[0]:
        gap = A @ res.x - rhs
        viol = np.where(np.array(senses) == "eq", np.abs(gap), np.maximum(gap, 0.0))
        resid = float(viol.max())
    frame = None
    if res.tableau is not None:
        frame = _Frame(p, A, rhs, senses, c_free, offset, free, orig, res.tableau)
    return LpSolution(
        "optimal", values, res.objective + offset, res.iterations, resid,
        scatter_duals(), frame,
    )


# ---------------------------------------------------------------------------
# Text dump (CPLEX LP format) for cross-checking with external solvers

_FAMILY_SLUG = {
    1: "in",
    2: "out",
    3: "gate",
    4: "link",
    5: "host",
    6: "proc",
    7: "cap",
    8: "delay",
    9: "inject",
}


def _sanitize(part):
    out = []
    for ch in str(part):
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    return "".join(out)


def var_name(ref):
    return "_".join([ref.kind] + [_sanitize(p) for p in ref.index])


def row_name(cid):
    family, index = cid
    return "_".join([f"eq{family}", _FAMILY_SLUG[family]] + [_sanitize(p) for p in index])


def _fmt(x):
    return repr(float(x))


def to_lp_text(p):
    """Serialize the problem (with its current pins) in CPLEX LP format."""
    names = [var_name(ref) for ref in p.variables]
    lines = ["Minimize", " obj:"]
    terms = []
    for name, coef in zip(names, p.objective):
        if coef != 0.0:
            terms.append(f" + {_fmt(coef)} {name}")
    lines[1] += "".join(terms) if terms else " 0"
    lines.append("Subject To")
    for con in p.constraints:
        parts = []
        for pos, coef in con.terms:
            sign = "+" if coef >= 0 else "-"
            parts.append(f" {sign} {_fmt(abs(coef))} {names[pos]}")
        op = "<=" if con.sense == "le" else "="
        lines.append(f" {row_name(con.cid)}:{''.join(parts)} {op} {_fmt(con.rhs)}")
    lines.append("Bounds")
    for name, pin in zip(names, p.pins.tolist()):
        lines.append(f" 0 <= {name} <= 1" if pin < 0 else f" {name} = {_fmt(pin)}")
    lines.append("End")
    return "\n".join(lines) + "\n"
