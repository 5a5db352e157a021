"""Linear-program representation of a scenario, with one pin per binary.

The joint activation/placement/routing problem is mixed-integer, but every
strategy in this package only ever solves versions where each binary is
either pinned to a value or relaxed to [0, 1], so each solve is a plain LP.
``LpProblem`` is a plain value: its rows and objective plus ``pins``, one
int8 per binary (0 or 1 pins it, -1 relaxes it to [0, 1]); the flows are
continuous.  ``fix``/``relax`` return modified copies that share the rows.

A solve poses the pins as column bounds: a pinned binary has both bounds at
its pin, a relaxed one [0, 1].  The dense block (``_Block``) therefore holds
every row and every column of the base problem whatever the pins, so it is
assembled once, at the first solve of any copy, and every LP of the base
problem is solved on it.  An optimal solution keeps the block with its
final tableau as ``frame``, and any other LP of the same base problem, with
other pins or another objective, can restart from it.

The columns open with the binaries, in a fixed layout that ``LpProblem.layout``
records (kind -> column slice): ``x`` over the sorted links, then ``y`` over
the sorted nodes, then ``delta`` over (node, function) pairs, node-major.
Code that holds one value per binary can therefore keep a vector over
columns ``0..n_binaries()-1`` and use it as the pins.

The row space follows the flow variables, which exist only for live
commodities (a demanded first hop or a positive derived flow).  The
per-commodity families 1, 2 and 6 have one row per node and live
commodity, so every row has a flow term except the activation rows of
families 3 and 5, which hold binaries alone.

Flow variables are expressed internally in units of the scenario's largest
logical flow (``traffic_scale``), which keeps the tableau well conditioned
when demands are in bit/s; solutions are rescaled on extraction and the
objective is in watts throughout.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as mdl
from .errors import InvalidMode, InvariantBroken, ShapeMismatch
from .simplex import FEAS_TOL, solve_dense

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
    # id of a constraints tuple -> (the tuple, its ``_Base``).  The copies
    # ``fix``, ``relax`` and ``dataclasses.replace`` make share this dict, so
    # the LPs of one base problem share one block and one record of solves.
    blocks: dict = field(default_factory=dict, repr=False)

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
    # Optimal solutions: the largest violation of a row, divided by the
    # row's largest coefficient.
    max_residual: float = 0.0
    row_duals: np.ndarray = None
    # Optimal solutions only: the base problem's block with the solve's
    # final tableau, which ``solve(q, start=...)`` restarts from for any
    # LP ``q`` of the same base problem.
    frame: "_Block" = None

    @property
    def is_feasible(self):
        return self.status == "optimal"


# ---------------------------------------------------------------------------
# Problem construction


def _refs(kind, indices):
    """The ``VarRef``s of ``kind`` over the index tuples ``indices``, made
    without ``VarRef.__post_init__``, whose checks the refs ``build_problem``
    generates always pass.  Each ref gets both fields, in declaration order,
    before the next one is made: setting one field on every ref first makes
    CPython give each instance of the class its own attribute dict from then
    on, about 3.5 times the memory of a ref."""
    new, put = object.__new__, object.__setattr__
    refs = []
    for index in indices:
        ref = new(VarRef)
        put(ref, "kind", kind)
        put(ref, "index", index)
        refs.append(ref)
    return refs


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

    The rows find their columns by position, never by key.  The live
    commodities ``(e, v1, v2)`` are numbered endpoint-major (``comms``),
    and flow ``f = n * len(comms) + k`` is commodity ``k`` at the n-th node:
    its transit and processed columns are the f-th of their kinds.  Each
    link's tau columns are collected while they are laid out, with the
    commodities the link carries in column order (``carry``): all of them
    on a link out of a node, the demanded first hops on a link out of an
    endpoint, none on a link into one.  Families 1, 2, 4 and 7 list a
    link's tau columns in that same order, so they read them from ``carry``
    instead of probing for columns that mostly do not exist.
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
    comms = [(e, *pair) for e in eps for pair in live_pairs[e]]
    k_of = {comm: k for k, comm in enumerate(comms)}
    n_comms = len(comms)
    every = range(n_comms)

    variables, layout = [], {}
    for kind, indices in (
        ("x", links),
        ("y", [(c,) for c in nodes]),
        ("delta", [(c, v) for c in nodes for v in vnfs]),
    ):
        layout[kind] = slice(len(variables), len(variables) + len(indices))
        variables += _refs(kind, indices)
    nb = len(variables)
    ep_set = lg.endpoints
    # link -> (the commodities it carries, in column order; their tau terms
    # with coefficient 1, which families 1, 2, 4 and 9 share)
    carry = {}
    for lk in links:
        i, j = lk
        if j in ep_set:
            continue  # nothing terminates at an endpoint
        ks = [k_of[(i, v, v)] for v in first_hops[i]] if i in ep_set else every
        start = len(variables)
        variables += _refs("tau", [lk + comms[k] for k in ks])
        carry[lk] = (ks, [(pos, 1.0) for pos in range(start, len(variables))])
    # The index of flow f, in its transit and processed columns and in its
    # rows of families 1, 2 and 6.
    flows = [(c,) + comm for c in nodes for comm in comms]
    transit0 = len(variables)
    variables += _refs("transit", flows)
    processed0 = len(variables)
    variables += _refs("processed", flows)
    var_index = dict(zip(variables, range(len(variables))))
    nv = len(variables)
    y0, delta0, n_vnfs = layout["y"].start, layout["delta"].start, len(vnfs)

    def tau_term(lk, k):
        """The 1.0-weighted term of commodity ``k``'s tau on ``lk``, or None."""
        ks, terms = carry.get(lk, ((), ()))
        return terms[ks.index(k)] if k in ks else None

    def by_commodity(lks):
        """The tau terms of the links ``lks``, in link order, sorted into one
        list per commodity."""
        rows = [[] for _ in every]
        for lk in lks:
            ks, terms = carry.get(lk, ((), ()))
            for k, term in zip(ks, terms):
                rows[k].append(term)
        return rows

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
    add = cons.append
    drain = [(transit0 + f, -1.0) for f in range(len(flows))]  # families 1 and 2

    # Family 1: arrivals split into transit and processed traffic.
    for n, c in enumerate(nodes):
        f = n * n_comms
        for terms in by_commodity(in_links[c]):
            terms.append(drain[f])
            terms.append((processed0 + f, -1.0))
            add(LinearConstraint((1, flows[f]), tuple(terms), "eq", 0.0))
            f += 1

    # Family 2: departures are transit plus chi-transformed processed traffic.
    # The chi terms of commodity (e, vb, vc): (commodity (e, va, vb), -ratio).
    feeds = []
    for (e, vb, vc) in comms:
        feed = []
        for va in vnfs:
            ratio = lg.chi_out(e, va, vb, vc)
            if ratio > 0.0 and (e, va, vb) in k_of:
                feed.append((k_of[(e, va, vb)], -ratio))
        feeds.append(feed)
    for n, c in enumerate(nodes):
        f = n * n_comms
        processed = processed0 + f
        for terms, feed in zip(by_commodity(out_links[c]), feeds):
            terms.append(drain[f])
            for k, coef in feed:
                terms.append((processed + k, coef))
            add(LinearConstraint((2, flows[f]), tuple(terms), "eq", 0.0))
            f += 1

    # Family 3: a link needs both node-side ends active.
    y_col = {c: y0 + n for n, c in enumerate(nodes)}
    for xpos, (i, j) in enumerate(links):
        if i in pg.nodes:
            add(LinearConstraint((3, (i, j, "src")), ((xpos, 1.0), (y_col[i], -1.0)), "le", 0.0))
        if j in pg.nodes:
            add(LinearConstraint((3, (i, j, "dst")), ((xpos, 1.0), (y_col[j], -1.0)), "le", 0.0))

    # Family 4: link capacity gated by activation.
    for xpos, (i, j) in enumerate(links):
        taus = carry.get((i, j), ((), ()))[1]
        terms = (*taus, (xpos, -pg.links[(i, j)].capacity / t0))
        add(LinearConstraint((4, (i, j)), terms, "le", 0.0))

    # Family 5: deployment on active nodes only.
    for n, c in enumerate(nodes):
        for m, v in enumerate(vnfs):
            terms = ((delta0 + n * n_vnfs + m, 1.0), (y0 + n, -1.0))
            add(LinearConstraint((5, (c, v)), terms, "le", 0.0))

    # Family 6: processing needs a deployed instance.
    vnf_at = {v: m for m, v in enumerate(vnfs)}
    hosted = [vnf_at[v2] for (_, _, v2) in comms]
    for n, c in enumerate(nodes):
        cap = pg.nodes[c].compute / t0
        gates = [(delta0 + n * n_vnfs + m, -cap) for m in range(n_vnfs)]
        f = n * n_comms
        for m in hosted:
            terms = ((processed0 + f, 1.0), gates[m])
            add(LinearConstraint((6, flows[f]), terms, "le", 0.0))
            f += 1

    # Family 7: compute covers processing plus software switching on egress.
    per_bit = [lg.compute_per_bit[v2] for (_, _, v2) in comms]
    for n, c in enumerate(nodes):
        spec = pg.nodes[c]
        processed = processed0 + n * n_comms
        terms = [(processed + k, w) for k, w in enumerate(per_bit)]
        if spec.switch_cost > 0.0:
            for lk in out_links[c]:
                taus = carry.get(lk, ((), ()))[1]
                terms += [(pos, spec.switch_cost) for pos, _ in taus]
        add(LinearConstraint((7, (c,)), tuple(terms), "le", spec.compute / t0))

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
            own = [k_of[(e, *pair)] for pair in live_pairs[e]]
            terms = []
            for lk in links:
                d = pg.links[lk].delay
                if d == 0.0:
                    continue
                for k in own:
                    term = tau_term(lk, k)
                    if term is not None:
                        terms.append((term[0], d))
            for n in range(len(nodes)):
                for k in own:
                    d = lg.per_vnf_delay[comms[k][2]]
                    if d > 0.0:
                        terms.append((processed0 + n * n_comms + k, d))
            add(LinearConstraint((8, (e,)), tuple(terms), "le", bound * total_l / t0))

    # Family 9: injected traffic equals demand.
    for e in eps:
        for v in first_hops[e]:
            k = k_of[(e, v, v)]
            terms = []
            for lk in ep_out[e]:
                term = tau_term(lk, k)
                if term is not None:
                    terms.append(term)
            add(LinearConstraint((9, (e, v)), tuple(terms), "eq", lg.ingress_demand[(e, v)] / t0))

    # Objective: the affine energy model, in watts.
    em = s.energy
    objective = np.zeros(nv)
    objective[layout["y"]] = em.idle_power
    objective[layout["delta"]] = em.placement_power
    pos = nb  # the tau columns follow the binaries, link by link
    for (i, _), (_, taus) in carry.items():
        w = em.link_energy_per_bit
        if i not in ep_set:
            w += em.switch_energy_per_bit
        objective[pos : pos + len(taus)] = w * t0
        pos += len(taus)
    objective[processed0:] = [em.proc_power_per_unit * w * t0 for w in per_bit] * len(nodes)

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


@dataclass(frozen=True, eq=False)
class _Block:
    """The dense rows of a base problem: ``A x (senses) rhs`` over every
    column, row r being constraint r, and ``scale``, each row's largest
    coefficient (1 for an empty row).

    The pins are not in it: ``solve`` passes them to the simplex as column
    bounds (``_bounds``), so every LP of the base problem shares one block,
    assembled at its first solve (``_assemble``).  ``tableau`` is None in
    the shared block; an optimal solution's ``frame`` is the block with its
    final tableau, which fits every LP of the same block.
    """

    A: np.ndarray
    rhs: np.ndarray
    senses: list
    scale: np.ndarray
    tableau: object = None


@dataclass(eq=False)
class _Base:
    """What the LPs of one base problem share: the ``block`` of its rows, and
    the record of its solves that ``loop._memo_solve`` alone reads and
    writes.  ``memo`` maps the bytes of an LP's pins and objective to its
    solution without a frame; ``start`` is the latest fresh optimum and
    ``pinned_start`` the latest one of an LP that pins every binary, both
    with their frames."""

    block: _Block
    memo: dict = field(default_factory=dict)
    start: LpSolution = None
    pinned_start: LpSolution = None


def _base(p):
    """The ``_Base`` of ``p``'s constraints tuple, made at its first use and
    shared by every copy of ``p`` that holds the same tuple.

    Raises ShapeMismatch before allocating anything when the tableau that
    ``solve_dense`` builds from the block could exceed ``DENSE_CELL_LIMIT``.
    """
    held = p.blocks.get(id(p.constraints))
    if held is not None:
        return held[1]
    m, n = len(p.constraints), p.n_vars()
    # Tableau: the rows plus two objective rows, by the columns, at most a
    # slack and an artificial per row, and the rhs.
    cells = (m + 2) * (n + 2 * m + 1)
    if cells > DENSE_CELL_LIMIT:
        raise ShapeMismatch(
            f"problem of {m} rows x {n} columns needs up to {cells} tableau "
            f"cells, beyond the built-in dense solver's budget of "
            f"{DENSE_CELL_LIMIT}; plug an external LP solver in for instances of "
            "this scale"
        )
    rows, cols, coefs = [], [], []
    for r, con in enumerate(p.constraints):
        for pos, coef in con.terms:
            rows.append(r)
            cols.append(pos)
            coefs.append(coef)
    A = np.zeros((m, n))
    np.add.at(A, (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)), coefs)
    rhs = np.array([con.rhs for con in p.constraints], dtype=float)
    scale = np.abs(A).max(axis=1, initial=0.0)
    scale[scale < 1e-12] = 1.0
    base = _Base(_Block(A, rhs, [con.sense for con in p.constraints], scale))
    # Holding the tuple keeps its id from being reused.
    p.blocks[id(p.constraints)] = (p.constraints, base)
    return base


def _assemble(p):
    """The ``_Block`` of ``p``'s rows, assembled once per base problem."""
    return _base(p).block


def _bounds(p):
    """Column bounds of ``p``: a pinned binary at its pin, a relaxed one
    over [0, 1], the flows over [0, inf)."""
    n, nb = p.n_vars(), p.n_binaries()
    lo = np.zeros(n)
    hi = np.full(n, np.inf)
    pins = p.pins.astype(float)
    lo[:nb] = np.where(p.pins < 0, 0.0, pins)
    hi[:nb] = np.where(p.pins < 0, 1.0, pins)
    return lo, hi


def solve(p, feasibility_only=False, start=None):
    """Run the built-in simplex on the problem.

    Returns an LpSolution; ``feasibility_only`` skips the optimization phase
    and reports the first feasible point found (used heavily by the IIS
    filter).  Raises SolverStall if the pivot budget runs out, and
    InvariantBroken when the point it would return breaks a row, divided
    by the row's largest coefficient, by more than ``FEAS_TOL``.

    ``start`` is an earlier solution.  When it is optimal and ``p`` shares
    its rows (the same ``constraints`` tuple), whatever the pins and the
    objective, the simplex restarts from the final tableau ``start.frame``
    holds (``simplex`` module, Restarts).  In every other case, and for
    ``feasibility_only``, the solve runs cold.
    """
    block = _assemble(p)
    lo, hi = _bounds(p)
    f = start.frame if start is not None and not feasibility_only else None
    res = solve_dense(
        p.objective, block.A, block.rhs, block.senses,
        feasibility_only=feasibility_only,
        start=f.tableau if f is not None and f.A is block.A else None,
        lo=lo, hi=hi,
    )  # fmt: skip
    if res.status == "infeasible":
        return LpSolution("infeasible", {}, math.inf, res.iterations, 0.0, res.row_duals)
    if res.status == "unbounded":
        return LpSolution("unbounded", {}, -math.inf, res.iterations, 0.0, None)

    resid = 0.0
    if block.A.shape[0]:
        gap = block.A @ res.x - block.rhs
        viol = np.where(np.array(block.senses) == "eq", np.abs(gap), np.maximum(gap, 0.0))
        resid = float((viol / block.scale).max())
    if resid > FEAS_TOL:
        raise InvariantBroken(
            f"the simplex returned a point that breaks a row by {resid:.3g} "
            f"(equilibrated), beyond the tolerance {FEAS_TOL}"
        )
    full = res.x.copy()
    # Pinned binaries read their pins.
    nb = p.n_binaries()
    full[:nb] = np.where(p.pins < 0, full[:nb], p.pins)
    full[nb:] *= p.traffic_scale  # the flows
    values = dict(zip(p.variables, full.tolist()))
    frame = None if res.tableau is None else replace(block, tableau=res.tableau)
    return LpSolution(
        "optimal", values, float(res.objective), res.iterations, resid, res.row_duals, frame
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


def _fmt(x):
    return repr(float(x))


class _Memo(dict):
    """A dict that fills a missing key with ``fn(key)``."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Clean(dict):
    """``_sanitize`` of each id, computed once per distinct string.  Other
    ids are sanitized at every lookup and never stored: 1, 1.0 and True are
    one dict key but print apart."""

    def __missing__(self, part):
        text = _sanitize(part)
        if type(part) is str:
            self[part] = text
        return text


def _distinct(names, originals, what):
    """Raise ShapeMismatch naming the first two ``originals`` that share a name."""
    if len(set(names)) == len(names):
        return
    seen = {}
    for name, original in zip(names, originals):
        if name in seen:
            raise ShapeMismatch(
                f"{what} {seen[name]!r} and {original!r} would both be named "
                f"{name!r} in the LP text"
            )
        seen[name] = original


def to_lp_text(p):
    """Serialize the problem (with its current pins) in CPLEX LP format.

    A name joins the column's kind, or the row's family, with its index's
    ids, each with every character but letters, digits and ``_`` replaced
    by ``_``.  Distinct ids can thus share a name (``n-1`` and ``n_1``, or
    links ``("a_b", "c")`` and ``("a", "b_c")``), which would merge their
    columns or rows: ShapeMismatch is raised instead, naming the two.

    Each distinct id is sanitized once per call, and each distinct
    coefficient and right-hand side formatted once.
    """
    clean = _Clean().__getitem__
    names = ["_".join([ref.kind, *map(clean, ref.index)]) for ref in p.variables]
    _distinct(names, p.variables, "columns")
    heads = {family: f"eq{family}_{slug}" for family, slug in _FAMILY_SLUG.items()}
    cids = [con.cid for con in p.constraints]
    rows = ["_".join([heads[family], *map(clean, index)]) for family, index in cids]
    _distinct(rows, cids, "rows")

    num = _Memo(_fmt)
    # A term's signed coefficient; 0.0 and -0.0, one key, print alike here.
    term = _Memo(lambda c: f" {'+' if c >= 0 else '-'} {_fmt(abs(c))} ")
    zero = {1.0: "0.0", -1.0: "-0.0"}  # a zero's text by its sign
    obj = p.objective.tolist()
    goal = [f" + {num[obj[pos]]} {names[pos]}" for pos in np.flatnonzero(p.objective).tolist()]
    lines = ["Minimize", " obj:" + ("".join(goal) if goal else " 0"), "Subject To"]
    op = {"le": "<=", "eq": "="}
    for row, con in zip(rows, p.constraints):
        rhs = con.rhs
        lines.append(
            f" {row}:{''.join([term[coef] + names[pos] for pos, coef in con.terms])} "
            f"{op.get(con.sense, '=')} {num[rhs] if rhs else zero[math.copysign(1.0, rhs)]}"
        )
    lines.append("Bounds")
    for col, pin in zip(names, p.pins.tolist()):
        lines.append(f" 0 <= {col} <= 1" if pin < 0 else f" {col} = {_fmt(pin)}")
    lines += ["End", ""]
    return "\n".join(lines)
