"""Linear-program representation of a scenario, with one pin per binary.

The joint activation/placement/routing problem is mixed-integer, but every
strategy in this package only ever solves versions where each binary is
either pinned to a value or relaxed to [0, 1], so each solve is a plain LP.
``LpProblem`` is a plain value: its rows, columns and objective plus
``pins``, one int8 per binary (0 or 1 pins it, -1 relaxes it to [0, 1]);
the flows are continuous.  ``fix``/``relax`` return modified copies that
share the rows and columns.

The rows are flat (``_Rows``): compressed sparse rows (``indptr``,
``indices``, ``data``), a right-hand side and a sense per row, and the row
ids as runs of one family over a list of index tuples.  The columns are
runs of one kind over a list of index tuples (``_Columns``).
``LpProblem.constraints``, ``LpProblem.variables`` and
``LpProblem.var_index`` are read-only views of them, a sequence of
``LinearConstraint``s, a sequence of ``VarRef``s and a mapping from a
``VarRef`` to its column, which make each of these objects the first time
it is asked for and keep it with the problem.  A problem built from such
objects by hand is converted to the flat form once, when it is made.  An
``LpSolution`` holds its point as the vector ``x`` over the columns; its
``values`` is the same kind of view, keyed by ``VarRef``.

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
import operator
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from types import MappingProxyType

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


class _Joined(Sequence):
    """Index tuples given as two lists of shorter ones: item ``t`` is
    ``heads[t] + tails[t]``, made when asked for.  The lists hold a few
    distinct tuples many times over, so the builder makes no tuple per
    item and ``to_lp_text`` joins each distinct part's ids once."""

    def __init__(self, heads, tails):
        self.heads, self.tails = heads, tails

    def __len__(self):
        return len(self.heads)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return list(map(operator.add, self.heads[t], self.tails[t]))
        return self.heads[t] + self.tails[t]

    def __iter__(self):
        return map(operator.add, self.heads, self.tails)


class _Runs(Sequence):
    """Items given as runs ``(label, start, indices)``: the ``len(indices)``
    items from ``start`` on carry ``label`` and one index tuple each.  Runs
    are nonempty and in order.  As a sequence, item ``i`` is ``_make(i)``,
    made at its first use and kept."""

    def __init__(self, runs, n):
        self.runs = tuple(runs)
        self._starts = [start for _, start, _ in self.runs]
        self._n = n
        self._made = {}

    @staticmethod
    def _grouped(pairs):
        """Runs of the (label, index) pairs, one per stretch of equal labels."""
        runs = []
        for i, (label, index) in enumerate(pairs):
            if runs and runs[-1][0] == label:
                runs[-1][2].append(index)
            else:
                runs.append((label, i, [index]))
        return runs

    def __len__(self):
        return self._n

    def locate(self, i):
        """(label, index tuple) of item ``i``."""
        label, start, indices = self.runs[bisect_right(self._starts, i) - 1]
        return label, indices[i - start]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(self._n)))
        i = operator.index(i)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(f"{type(self).__name__} index out of range")
        item = self._made.get(i)
        if item is None:
            item = self._made[i] = self._make(i)
        return item

    def __iter__(self):
        return map(self.__getitem__, range(self._n))


class _Columns(_Runs):
    """The columns of a problem: runs of one variable kind.  As a sequence,
    the ``VarRef`` of each column; ``index`` is the read-only mapping back
    from a ``VarRef`` to its column, whose lookup tables are made per kind
    at its first use."""

    def __init__(self, runs, n):
        super().__init__(runs, n)
        self._where = {}
        self.index = _Index(self)

    @classmethod
    def of(cls, refs):
        refs = list(refs)
        return cls(cls._grouped((ref.kind, ref.index) for ref in refs), len(refs))

    def _make(self, i):
        return VarRef(*self.locate(i))

    def position(self, ref):
        """The column of ``ref``; KeyError when it has none."""
        try:
            kind, index = ref.kind, ref.index
        except AttributeError:
            raise KeyError(ref) from None
        where = self._where.get(kind)
        if where is None:
            where = {}
            for label, start, indices in self.runs:
                if label == kind:
                    where.update(zip(indices, range(start, start + len(indices))))
            self._where[kind] = where  # whole, for a concurrent reader
        return where[index]


class _Index(Mapping):
    """``LpProblem.var_index``: each column's ``VarRef`` -> its position."""

    def __init__(self, columns):
        self.columns = columns

    def __getitem__(self, ref):
        return self.columns.position(ref)

    def __iter__(self):
        return iter(self.columns)

    def __len__(self):
        return len(self.columns)


class _Rows(_Runs):
    """The rows of a problem: row ``r`` has the terms ``(indices[k],
    data[k])`` for ``k`` in ``indptr[r]:indptr[r + 1]``, in order, and
    ``senses[r]`` ('le' or 'eq') against ``rhs[r]``.  The runs label the
    row ids by family: row ``r`` of a run is ``(family, indices[r - start])``.
    As a sequence, the ``LinearConstraint`` of each row."""

    def __init__(self, indptr, indices, data, rhs, senses, runs):
        super().__init__(runs, len(senses))
        self.indptr, self.indices, self.data = indptr, indices, data
        self.rhs, self.senses = rhs, senses
        self._cids = self._families = None

    @classmethod
    def of(cls, constraints):
        cons = list(constraints)
        indptr = np.zeros(len(cons) + 1, dtype=np.intp)
        np.cumsum([len(con.terms) for con in cons], out=indptr[1:])
        terms = [term for con in cons for term in con.terms]
        return cls(
            indptr,
            np.array([pos for pos, _ in terms], dtype=np.intp),
            np.array([coef for _, coef in terms], dtype=float),
            np.array([con.rhs for con in cons], dtype=float),
            [con.sense for con in cons],
            cls._grouped(con.cid for con in cons),
        )

    def _make(self, r):
        a, b = self.indptr[r : r + 2].tolist()
        terms = tuple(zip(self.indices[a:b].tolist(), self.data[a:b].tolist()))
        return LinearConstraint(self.locate(r), terms, self.senses[r], self.rhs[r].item())

    def cids(self):
        """Every row's id, in row order."""
        if self._cids is None:
            self._cids = [(family, index) for family, _, indices in self.runs for index in indices]
        return self._cids

    def families(self):
        """Every row's family, in row order."""
        if self._families is None:
            self._families = np.repeat(
                [family for family, _, _ in self.runs],
                [len(indices) for _, _, indices in self.runs],
            )
        return self._families


@dataclass(frozen=True, eq=False)
class LpProblem:
    """``variables``, ``var_index`` and ``constraints`` may be given as
    sequences of ``VarRef`` and ``LinearConstraint``; they are converted to
    the flat form once, here, and ``var_index`` is derived from the
    columns."""

    variables: Sequence
    var_index: Mapping
    pins: np.ndarray  # int8 per binary column: 0 or 1 pinned, -1 relaxed
    constraints: Sequence
    objective: np.ndarray
    traffic_scale: float
    layout: dict = field(default_factory=dict)  # binary kind -> column slice
    # id of a rows object -> (the rows, their ``_Base``).  The copies
    # ``fix``, ``relax`` and ``dataclasses.replace`` make share this dict, so
    # the LPs of one base problem share one block and one record of solves.
    blocks: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        put = object.__setattr__
        if not isinstance(self.variables, _Columns):
            put(self, "variables", _Columns.of(self.variables))
        put(self, "var_index", self.variables.index)
        if not isinstance(self.constraints, _Rows):
            put(self, "constraints", _Rows.of(self.constraints))

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


class _Values(Mapping):
    """``LpSolution.values``: each column's ``VarRef`` -> its value in ``x``."""

    def __init__(self, columns, x):
        self.columns, self.x = columns, x

    def __getitem__(self, ref):
        return self.x[self.columns.position(ref)].item()

    def __iter__(self):
        return iter(self.columns)

    def __len__(self):
        return len(self.columns)


@dataclass(eq=False)
class LpSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    # Optimal solutions: every column's value, flows in bit/s and pinned
    # binaries at their pins.  Empty otherwise.
    x: np.ndarray
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
    # Optimal solutions: the problem's columns, which ``values`` keys ``x`` by.
    columns: _Columns = field(default=None, repr=False)

    @property
    def is_feasible(self):
        return self.status == "optimal"

    @property
    def values(self):
        """Read-only mapping from each column's ``VarRef`` to its value in
        ``x``; empty unless optimal."""
        if self.columns is None:
            return MappingProxyType({})
        return _Values(self.columns, self.x)


# ---------------------------------------------------------------------------
# Problem construction


def _padded(groups, fill):
    """The lists ``groups`` as the rows of an int array, each filled up to
    the longest with ``fill``."""
    out = np.full((len(groups), max(map(len, groups), default=0)), fill, dtype=np.intp)
    for n, group in enumerate(groups):
        out[n, : len(group)] = group
    return out


def _terms(cols, coefs):
    """(terms per row, their columns, their coefficients) of the rows laid
    out along the last axis of ``cols``, where -1 marks no term; ``coefs``
    broadcasts to the shape of ``cols``."""
    held = cols >= 0
    data = np.empty(cols.shape)
    data[...] = coefs
    return held.sum(axis=-1).reshape(-1), cols[held], data[held]


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

    The rows are written straight into the flat form, a family at a time,
    and find their columns by position, never by key.  The live
    commodities ``(e, v1, v2)`` are numbered endpoint-major (``comms``),
    and flow ``f = n * len(comms) + k`` is commodity ``k`` at the n-th node:
    its transit and processed columns are the f-th of their kinds.  Link
    ``l``'s tau columns are ``tau_at[l]:tau_at[l + 1]``, laid out in
    commodity order: every commodity on a link out of a node, the demanded
    first hops on a link out of an endpoint, none on a link into one.
    ``taupos[l, k]`` is the tau column of commodity ``k`` on link ``l``, or
    -1; its last row stands for a link that carries nothing.  The
    per-commodity families 1, 2 and 6 are laid out as arrays over (node,
    commodity, term), with -1 where a row has no such term.
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
    N, V, L, K = len(nodes), len(vnfs), len(links), len(comms)

    # Columns: the binaries, each link's tau columns, then transit and
    # processed over the flows.
    ys = [(c,) for c in nodes]
    deltas = [(c, v) for c in nodes for v in vnfs]
    y0, delta0 = L, L + N
    nb = delta0 + N * V
    layout = {"x": slice(0, y0), "y": slice(y0, delta0), "delta": slice(delta0, nb)}
    ep_set = lg.endpoints
    taupos = np.full((L + 1, K), -1, dtype=np.intp)
    tau_at = np.empty(L + 1, dtype=np.intp)
    taus = _Joined([], [])  # (link, commodity) of each tau column
    pos = nb
    for l, lk in enumerate(links):
        tau_at[l] = pos
        i, j = lk
        if j in ep_set:
            continue  # nothing terminates at an endpoint
        ks = [k_of[(i, v, v)] for v in first_hops[i]] if i in ep_set else range(K)
        taupos[l, ks] = np.arange(pos, pos + len(ks))
        taus.heads += [lk] * len(ks)
        taus.tails += [comms[k] for k in ks] if i in ep_set else comms
        pos += len(ks)
    tau_at[L] = pos
    flows = _Joined([y for y in ys for _ in comms], comms * N)  # (node, commodity)
    transit0 = pos
    processed0 = transit0 + N * K
    nv = processed0 + N * K
    columns = _Columns(
        [
            run
            for run in (
                ("x", 0, links),
                ("y", y0, ys),
                ("delta", delta0, deltas),
                ("tau", nb, taus),
                ("transit", transit0, flows),
                ("processed", processed0, flows),
            )
            if run[2]
        ],
        nv,
    )

    node_no = {c: n for n, c in enumerate(nodes)}
    ins, outs = [[] for _ in nodes], [[] for _ in nodes]
    ep_out = {e: [] for e in eps}
    for l, (i, j) in enumerate(links):
        if j in node_no:
            ins[node_no[j]].append(l)
        if i in node_no:
            outs[node_no[i]].append(l)
        if i in ep_out:
            ep_out[i].append(l)
    flow = np.arange(N * K).reshape(N, K, 1)
    families = []  # (family, ids, (terms per row, columns, coefficients), rhs)

    # Family 1: arrivals split into transit and processed traffic.
    arrive = taupos[_padded(ins, L)].transpose(0, 2, 1)
    cols = np.concatenate([arrive, transit0 + flow, processed0 + flow], axis=2)
    coefs = np.concatenate([np.ones(arrive.shape[2]), [-1.0, -1.0]])
    families.append((1, flows, _terms(cols, coefs), 0.0))

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
    feed_k = _padded([[k for k, _ in feed] for feed in feeds], -1)
    feed_c = np.zeros(feed_k.shape)
    for k, feed in enumerate(feeds):
        feed_c[k, : len(feed)] = [coef for _, coef in feed]
    depart = taupos[_padded(outs, L)].transpose(0, 2, 1)
    fed = np.where(feed_k >= 0, processed0 + K * np.arange(N)[:, None, None] + feed_k, -1)
    cols = np.concatenate([depart, transit0 + flow, fed], axis=2)
    coefs = np.concatenate(
        [np.ones((1, K, depart.shape[2])), np.full((1, K, 1), -1.0), feed_c[None]], axis=2
    )
    families.append((2, flows, _terms(cols, coefs), 0.0))

    # Family 3: a link needs both node-side ends active.
    gates, cols = [], []
    for l, (i, j) in enumerate(links):
        if i in pg.nodes:
            gates.append((i, j, "src"))
            cols.append((l, y0 + node_no[i]))
        if j in pg.nodes:
            gates.append((i, j, "dst"))
            cols.append((l, y0 + node_no[j]))
    cols = np.array(cols, dtype=np.intp).reshape(-1, 2)
    families.append((3, gates, _terms(cols, [1.0, -1.0]), 0.0))

    # Family 4: link capacity gated by activation; each row lists the link's
    # tau columns, then its x.
    width = np.diff(tau_at) + 1
    is_x = np.zeros(width.sum(), dtype=bool)
    is_x[np.cumsum(width) - 1] = True
    cols = np.empty(is_x.size, dtype=np.intp)
    cols[is_x] = np.arange(L)
    cols[~is_x] = np.arange(nb, tau_at[L])
    coefs = np.ones(is_x.size)
    coefs[is_x] = [-pg.links[lk].capacity / t0 for lk in links]
    families.append((4, links, (width, cols, coefs), 0.0))

    # Family 5: deployment on active nodes only.
    cols = np.stack([delta0 + np.arange(N * V), y0 + np.arange(N * V) // V], axis=1)
    families.append((5, deltas, _terms(cols, [1.0, -1.0]), 0.0))

    # Family 6: processing needs a deployed instance.
    vnf_at = {v: m for m, v in enumerate(vnfs)}
    hosted = np.array([vnf_at[v2] for (_, _, v2) in comms], dtype=np.intp)
    gate = delta0 + V * np.arange(N)[:, None] + hosted
    cols = np.stack(np.broadcast_arrays(processed0 + flow[..., 0], gate), axis=2)
    caps = np.array([pg.nodes[c].compute / t0 for c in nodes])
    coefs = np.stack([np.ones(N), -caps], axis=1)[:, None, :]
    families.append((6, flows, _terms(cols, coefs), 0.0))

    # Family 7: compute covers processing plus software switching on egress.
    per_bit = [lg.compute_per_bit[v2] for (_, _, v2) in comms]
    counts, cols, coefs, rhs = [], [np.zeros(0, dtype=np.intp)], [np.zeros(0)], []
    for n, c in enumerate(nodes):
        spec = pg.nodes[c]
        row = [processed0 + n * K + np.arange(K)]
        if spec.switch_cost > 0.0:
            row += [np.arange(tau_at[l], tau_at[l + 1]) for l in outs[n]]
        counts.append(sum(part.size for part in row))
        cols += row
        coefs += [per_bit, np.full(counts[-1] - K, spec.switch_cost)]
        rhs.append(spec.compute / t0)
    families.append((7, ys, (counts, np.concatenate(cols), np.concatenate(coefs)), rhs))

    # Family 8: per-endpoint delay budget (normalized by injected traffic).
    ids, rows, rhs = [], [], []
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
            for l, lk in enumerate(links):
                d = pg.links[lk].delay
                if d == 0.0:
                    continue
                terms += [(pos, d) for pos in taupos[l, own].tolist() if pos >= 0]
            for n in range(N):
                for k in own:
                    d = lg.per_vnf_delay[comms[k][2]]
                    if d > 0.0:
                        terms.append((processed0 + n * K + k, d))
            ids.append((e,))
            rows.append(terms)
            rhs.append(bound * total_l / t0)
    families.append((8, ids, _listed(rows), rhs))

    # Family 9: injected traffic equals demand.
    ids, rows, rhs = [], [], []
    for e in eps:
        for v in first_hops[e]:
            k = k_of[(e, v, v)]
            ids.append((e, v))
            rows.append([(pos, 1.0) for pos in taupos[ep_out[e], k].tolist() if pos >= 0])
            rhs.append(lg.ingress_demand[(e, v)] / t0)
    families.append((9, ids, _listed(rows), rhs))

    # Objective: the affine energy model, in watts.
    em = s.energy
    objective = np.zeros(nv)
    objective[layout["y"]] = em.idle_power
    objective[layout["delta"]] = em.placement_power
    for l, (i, _) in enumerate(links):
        w = em.link_energy_per_bit
        if i not in ep_set:
            w += em.switch_energy_per_bit
        objective[tau_at[l] : tau_at[l + 1]] = w * t0
    objective[processed0:] = [em.proc_power_per_unit * w * t0 for w in per_bit] * N

    return LpProblem(
        variables=columns,
        var_index=columns.index,
        pins=np.full(nb, -1, dtype=np.int8),
        constraints=_stacked(families),
        objective=objective,
        traffic_scale=t0,
        layout=layout,
    )


def _listed(rows):
    """(terms per row, columns, coefficients) of rows given as term lists."""
    terms = [term for row in rows for term in row]
    return (
        [len(row) for row in rows],
        np.array([pos for pos, _ in terms], dtype=np.intp),
        np.array([coef for _, coef in terms], dtype=float),
    )


def _stacked(families):
    """The ``_Rows`` of ``(family, ids, (terms per row, columns,
    coefficients), rhs)`` blocks, in order; ``rhs`` is a scalar for every
    row of its block or a list.  Families 1, 2 and 9 are equalities."""
    runs, senses, rhs = [], [], []
    for family, ids, _, value in families:
        if ids:
            runs.append((family, len(senses), ids))
        senses += ["eq" if family in (1, 2, 9) else "le"] * len(ids)
        rhs.append(value if isinstance(value, list) else np.full(len(ids), value))
    indptr = np.zeros(len(senses) + 1, dtype=np.intp)
    np.cumsum(np.concatenate([per_row for _, _, (per_row, _, _), _ in families]), out=indptr[1:])
    return _Rows(
        indptr,
        np.concatenate([cols for _, _, (_, cols, _), _ in families]).astype(np.intp, copy=False),
        np.concatenate([coefs for _, _, (_, _, coefs), _ in families]).astype(float, copy=False),
        np.concatenate(rhs).astype(float, copy=False),
        senses,
        runs,
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
    """The ``_Base`` of ``p``'s rows, made at its first use and shared by
    every copy of ``p`` that holds the same rows.

    Raises ShapeMismatch before allocating anything when the tableau that
    ``solve_dense`` builds from the block could exceed ``DENSE_CELL_LIMIT``.
    """
    rows = p.constraints
    held = p.blocks.get(id(rows))
    if held is not None:
        return held[1]
    m, n = len(rows), p.n_vars()
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
    A = np.zeros((m, n))
    np.add.at(A, (np.repeat(np.arange(m), np.diff(rows.indptr)), rows.indices), rows.data)
    scale = np.abs(A).max(axis=1, initial=0.0)
    scale[scale < 1e-12] = 1.0
    base = _Base(_Block(A, rows.rhs, rows.senses, scale))
    # Holding the rows keeps their id from being reused.
    p.blocks[id(rows)] = (rows, base)
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
    its rows (the same ``constraints`` object), whatever the pins and the
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
        return LpSolution("infeasible", np.zeros(0), math.inf, res.iterations, 0.0, res.row_duals)
    if res.status == "unbounded":
        return LpSolution("unbounded", np.zeros(0), -math.inf, res.iterations, 0.0, None)

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
    x = res.x.copy()
    # Pinned binaries read their pins.
    nb = p.n_binaries()
    x[:nb] = np.where(p.pins < 0, x[:nb], p.pins)
    x[nb:] *= p.traffic_scale  # the flows
    frame = None if res.tableau is None else replace(block, tableau=res.tableau)
    return LpSolution(
        "optimal", x, float(res.objective), res.iterations, resid, res.row_duals, frame,
        columns=p.variables,
    )  # fmt: skip


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
    """Raise ShapeMismatch naming the first two ``originals`` that share a
    name; ``originals`` is iterated only then."""
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


def _texts(values, text):
    """``text(v)`` for each float ``v`` of ``values``, as an object array,
    called once per distinct value and sign of zero."""
    distinct, which = np.unique(values, return_inverse=True)
    made = [text(v) for v in distinct.tolist()] + [text(0.0), text(-0.0)]
    # np.unique counts 0.0 and -0.0 as one value, kept as either.
    zero = values == 0.0
    which[zero] = distinct.size + np.signbit(values[zero])
    return np.array(made, dtype=object)[which]


def to_lp_text(p):
    """Serialize the problem (with its current pins) in CPLEX LP format.

    A name joins the column's kind, or the row's family, with its index's
    ids, each with every character but letters, digits and ``_`` replaced
    by ``_``.  Distinct ids can thus share a name (``n-1`` and ``n_1``, or
    links ``("a_b", "c")`` and ``("a", "b_c")``), which would merge their
    columns or rows: ShapeMismatch is raised instead, naming the two.

    Each distinct id is sanitized once per call, the ids of each list of
    index tuples that runs of rows or columns share joined once, and each
    distinct coefficient and right-hand side formatted once.
    """
    clean = _Clean().__getitem__
    tails = {}  # id of an index list -> (the list, each index's ids joined)

    def tails_of(indices):
        held = tails.get(id(indices))
        if held is None:
            if isinstance(indices, _Joined):
                text = list(map(operator.add, tails_of(indices.heads), tails_of(indices.tails)))
            else:
                # Once per index object: a list may hold one many times.
                keys = list(map(id, indices))
                made = {
                    key: f"_{'_'.join(map(clean, index))}" if index else ""
                    for key, index in dict(zip(keys, indices)).items()
                }
                text = list(map(made.__getitem__, keys))
            held = tails[id(indices)] = (indices, text)
        return held[1]

    def named(runs, head):
        names = []
        for label, _, indices in runs:
            prefix = head(label)
            names += [prefix + tail for tail in tails_of(indices)]
        return names

    rows = p.constraints
    names = named(p.variables.runs, str)
    _distinct(names, p.variables, "columns")
    heads = {family: f"eq{family}_{slug}" for family, slug in _FAMILY_SLUG.items()}
    row_names = named(rows.runs, heads.__getitem__)
    _distinct(row_names, map(rows.locate, range(len(rows))), "rows")

    # Each text is one join over an array of pieces, and each distinct
    # number is formatted once.
    names_at = np.array(names, dtype=object)
    nonzero = np.flatnonzero(p.objective)
    goal = np.empty((nonzero.size, 2), dtype=object)
    goal[:, 0] = _texts(p.objective[nonzero], lambda c: f" + {_fmt(c)} ")
    goal[:, 1] = names_at[nonzero]
    head = ["Minimize", " obj:" + ("".join(goal.ravel().tolist()) if goal.size else " 0")]
    head += ["Subject To", ""]

    # Per row: its name; per term its signed coefficient (0.0 and -0.0
    # alike) and its column; its sense; its right-hand side.
    m, counts = len(rows), np.diff(rows.indptr)
    pieces = np.empty(2 * rows.data.size + 3 * m, dtype=object)
    starts = 2 * rows.indptr[:-1] + 3 * np.arange(m)
    pieces[starts] = [f" {row}:" for row in row_names]
    at = 2 * np.arange(rows.data.size) + np.repeat(3 * np.arange(m), counts) + 1
    pieces[at] = _texts(rows.data, lambda c: f" {'+' if c >= 0 else '-'} {_fmt(abs(c))} ")
    pieces[at + 1] = names_at[rows.indices]
    ends = starts + 2 * counts
    op = {sense: f" {'<=' if sense == 'le' else '='} " for sense in set(rows.senses)}
    pieces[ends + 1] = list(map(op.__getitem__, rows.senses))
    pieces[ends + 2] = _texts(rows.rhs, lambda c: f"{_fmt(c)}\n")

    tail = ["Bounds"]
    for col, pin in zip(names, p.pins.tolist()):
        tail.append(f" 0 <= {col} <= 1" if pin < 0 else f" {col} = {_fmt(pin)}")
    tail += ["End", ""]
    return "".join(["\n".join(head), *pieces.tolist(), "\n".join(tail)])
