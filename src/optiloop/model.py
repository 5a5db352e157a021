"""Domain model: logical/physical graphs, energy model, configurations.

Traffic lives on two graphs.  The logical graph says how traffic is
transformed as it moves through a chain of network functions: a flow
entering function v2 from v1 emits ``ratio(v1, v2, v3)`` units toward v3
per unit processed.  Ratios different from one break ordinary flow
conservation, so the balance law used throughout is

    l(e, v2, v3) = sum_v1 l(e, v1, v2) * chi(v1, v2, v3)
                   + l(e, v2) * chi(e, v2, v3)

The physical graph carries those flows on capacitated directed links
between compute-capable nodes.  Commodities are keyed ``(e, v1, v2)``:
origin endpoint, last function visited, next function to visit.  Traffic
that has never been processed uses the convention ``v1 == v2`` ("heading
to its first function").

Constraint families referenced by number throughout the package:

    1  node inflow split (arrivals = transit + processed)
    2  node outflow composition (departures = transit + generated)
    3  link end activation gating
    4  link capacity
    5  placement requires an active node
    6  processing requires a deployed instance
    7  node compute capacity (processing + software switching)
    8  per-endpoint delay budget (optional)
    9  endpoint demand injection

All types are immutable after construction; operations are pure.
"""

import math
from dataclasses import dataclass, field

from .errors import CyclicLogicalGraph, ShapeMismatch

__all__ = [
    "LogicalGraph",
    "Node",
    "Link",
    "PhysicalGraph",
    "EnergyModel",
    "Scenario",
    "NetworkConfiguration",
    "EnergyBreakdown",
    "Violation",
    "FAMILY_NAMES",
    "derive_logical_flows",
    "validate_configuration",
    "spare_compute",
    "energy_of",
    "total_ingress",
]

FAMILY_NAMES = {
    1: "node_inflow",
    2: "node_outflow",
    3: "link_gating",
    4: "link_capacity",
    5: "placement_gating",
    6: "processing_gating",
    7: "compute_capacity",
    8: "delay_budget",
    9: "demand_injection",
}


@dataclass(frozen=True, eq=False)
class LogicalGraph:
    """Endpoints, network functions and the transformation ratios between them.

    chi maps ``(prev, at, next) -> ratio``; ``prev`` may be an endpoint id
    for traffic receiving its first processing step.  ingress_demand maps
    ``(endpoint, first function) -> bit/s``.  compute_per_bit is r(v),
    the compute units consumed per bit/s processed; per_vnf_delay is the
    processing delay in seconds (both default for every function when
    omitted).
    """

    endpoints: frozenset
    vnfs: frozenset
    chi: dict
    ingress_demand: dict
    compute_per_bit: dict = None
    per_vnf_delay: dict = None

    def __post_init__(self):
        object.__setattr__(self, "endpoints", frozenset(self.endpoints))
        object.__setattr__(self, "vnfs", frozenset(self.vnfs))
        object.__setattr__(self, "chi", dict(self.chi))
        object.__setattr__(self, "ingress_demand", dict(self.ingress_demand))
        cpb = {v: 1.0 for v in self.vnfs}
        cpb.update(self.compute_per_bit or {})
        object.__setattr__(self, "compute_per_bit", cpb)
        dly = {v: 0.0 for v in self.vnfs}
        dly.update(self.per_vnf_delay or {})
        object.__setattr__(self, "per_vnf_delay", dly)
        self._validate()

    def _validate(self):
        if self.endpoints & self.vnfs:
            raise ShapeMismatch("endpoint and VNF identifier spaces overlap")
        vertices = self.endpoints | self.vnfs
        for (prev, at, nxt), ratio in self.chi.items():
            if prev not in vertices or at not in self.vnfs or nxt not in self.vnfs:
                raise ShapeMismatch(f"chi key ({prev},{at},{nxt}) references unknown vertices")
            if not 0 <= ratio < math.inf:
                raise ShapeMismatch(
                    f"chi({prev},{at},{nxt}) = {ratio} must be finite and nonnegative"
                )
        for (e, v), rate in self.ingress_demand.items():
            if e not in self.endpoints or v not in self.vnfs:
                raise ShapeMismatch(f"ingress demand key ({e},{v}) references unknown vertices")
            if not 0 <= rate < math.inf:
                raise ShapeMismatch(
                    f"ingress demand ({e},{v}) = {rate} must be finite and nonnegative"
                )
        for v in self.vnfs:
            if not 0 <= self.compute_per_bit[v] < math.inf:
                raise ShapeMismatch(f"compute_per_bit({v}) must be finite and nonnegative")
            if not 0 <= self.per_vnf_delay[v] < math.inf:
                raise ShapeMismatch(f"delay of {v} must be finite and nonnegative")
        for e in sorted(self.endpoints):
            self.topological_order(e)  # raises CyclicLogicalGraph

    def topological_order(self, endpoint):
        """Kahn order of the VNF graph as seen by one endpoint's traffic."""
        succ = {v: set() for v in self.vnfs}
        indeg = {v: 0 for v in self.vnfs}
        for (prev, at, nxt), ratio in self.chi.items():
            if ratio <= 0:
                continue
            if prev in self.endpoints and prev != endpoint:
                continue
            if nxt not in succ[at]:
                succ[at].add(nxt)
                indeg[nxt] += 1
        order = sorted(v for v in self.vnfs if indeg[v] == 0)
        queue = list(order)
        while queue:
            v = queue.pop(0)
            for w in sorted(succ[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
                    queue.append(w)
        if len(order) != len(self.vnfs):
            raise CyclicLogicalGraph(
                f"chi graph for endpoint {endpoint} contains a cycle"
            )
        return order

    def chi_out(self, endpoint, v1, v2, v3):
        """Emission ratio toward v3 when commodity (v1, v2) is processed at v2.

        The first-hop convention v1 == v2 looks up the endpoint-keyed ratio.
        """
        if v1 == v2:
            return self.chi.get((endpoint, v2, v3), 0.0)
        return self.chi.get((v1, v2, v3), 0.0)


@dataclass(frozen=True)
class Node:
    """A backhaul/fronthaul node: compute capacity k(c) and per-bit/s switching
    cost rho(c), both in abstract compute units.  compute == 0 marks a pure
    switch that cannot host any function."""

    compute: float
    switch_cost: float = 0.0


@dataclass(frozen=True)
class Link:
    """Directed link with capacity in bit/s and propagation delay in seconds."""

    capacity: float
    delay: float = 0.0


@dataclass(frozen=True, eq=False)
class PhysicalGraph:
    """Nodes keyed by id plus directed links keyed by (src, dst) over
    nodes and endpoints."""

    nodes: dict
    links: dict

    def __post_init__(self):
        object.__setattr__(self, "nodes", dict(self.nodes))
        object.__setattr__(self, "links", dict(self.links))
        for c, node in self.nodes.items():
            if not 0 <= node.compute < math.inf:
                raise ShapeMismatch(f"node {c} compute must be finite and nonnegative")
            if not 0 <= node.switch_cost < math.inf:
                raise ShapeMismatch(f"node {c} switch cost must be finite and nonnegative")
        for (i, j), link in self.links.items():
            if i == j:
                raise ShapeMismatch(f"self-loop link ({i},{j})")
            if not 0 < link.capacity < math.inf:
                raise ShapeMismatch(f"link ({i},{j}) capacity must be finite and positive")
            if not 0 <= link.delay < math.inf:
                raise ShapeMismatch(f"link ({i},{j}) delay must be finite and nonnegative")


@dataclass(frozen=True)
class EnergyModel:
    """Affine power model: constants per active node / deployed instance,
    linear per-bit terms for processing, switching and transport.

    idle_power            watts per active node
    placement_power       watts per deployed instance
    proc_power_per_unit   watts per compute unit consumed by processing
    switch_energy_per_bit joules per bit leaving a node
    link_energy_per_bit   joules per bit carried on any link
    """

    idle_power: float = 0.0
    placement_power: float = 0.0
    proc_power_per_unit: float = 0.0
    switch_energy_per_bit: float = 0.0
    link_energy_per_bit: float = 0.0

    def __post_init__(self):
        for name in (
            "idle_power",
            "placement_power",
            "proc_power_per_unit",
            "switch_energy_per_bit",
            "link_energy_per_bit",
        ):
            if not 0 <= getattr(self, name) < math.inf:
                raise ShapeMismatch(
                    f"energy model field {name} must be finite and nonnegative"
                )


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable problem instance.

    max_delay maps endpoint -> seconds; endpoints absent from the map are
    unbounded.  Delay rows are only built/checked when delays_enabled.
    """

    logical: LogicalGraph
    physical: PhysicalGraph
    energy: EnergyModel
    max_delay: dict = field(default_factory=dict)
    delays_enabled: bool = False
    provenance: dict = None  # generator parameters, carried through to disk

    def __post_init__(self):
        object.__setattr__(self, "max_delay", dict(self.max_delay))
        lg, pg = self.logical, self.physical
        if lg.endpoints & set(pg.nodes):
            raise ShapeMismatch("endpoint ids collide with node ids")
        vertices = lg.endpoints | set(pg.nodes)
        for (i, j) in pg.links:
            if i not in vertices or j not in vertices:
                raise ShapeMismatch(f"link ({i},{j}) references unknown vertices")
        attached = {e: False for e in lg.endpoints}
        for (i, j) in pg.links:
            if i in attached:
                attached[i] = True
            if j in attached:
                attached[j] = True
        for e, ok in attached.items():
            if not ok:
                raise ShapeMismatch(f"endpoint {e} has no attached link")
        for e, bound in self.max_delay.items():
            if e not in lg.endpoints:
                raise ShapeMismatch(f"max_delay references unknown endpoint {e}")
            if not 0 <= bound < math.inf:
                raise ShapeMismatch(f"max_delay({e}) must be finite and nonnegative")

    # Convenience views used all over the package -------------------------

    def node_ids(self):
        return sorted(self.physical.nodes)

    def endpoint_ids(self):
        return sorted(self.logical.endpoints)

    def vnf_ids(self):
        return sorted(self.logical.vnfs)

    def link_ids(self):
        return sorted(self.physical.links)


@dataclass(frozen=True, eq=False)
class NetworkConfiguration:
    """A candidate operating point.

    x: link -> {0,1}; y: node -> {0,1}; delta: (node, vnf) -> {0,1}.
    tau: (i, j, e, v1, v2) -> bit/s on link (i, j).
    transit/processed: (c, e, v1, v2) -> bit/s at node c.
    Absent keys mean zero.  Construction checks domains and signs only;
    the flow equations are the validator's job so that violating
    configurations can be represented and diagnosed.
    """

    x: dict
    y: dict
    delta: dict
    tau: dict = field(default_factory=dict)
    transit: dict = field(default_factory=dict)
    processed: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("x", "y", "delta", "tau", "transit", "processed"):
            object.__setattr__(self, name, dict(getattr(self, name)))
        for key, val in list(self.x.items()) + list(self.delta.items()):
            if val not in (0, 1):
                raise ShapeMismatch(f"binary value {val} at {key} is not 0/1")
        for key, val in self.y.items():
            if val not in (0, 1):
                raise ShapeMismatch(f"binary value {val} at y[{key}] is not 0/1")
        for name in ("tau", "transit", "processed"):
            for key, val in getattr(self, name).items():
                if val < 0:
                    raise ShapeMismatch(f"{name}[{key}] = {val} is negative")

    def active_links(self):
        return sorted(k for k, v in self.x.items() if v == 1)

    def active_nodes(self):
        return sorted(k for k, v in self.y.items() if v == 1)

    def deployments(self):
        return sorted(k for k, v in self.delta.items() if v == 1)


@dataclass(frozen=True)
class EnergyBreakdown:
    """The five power components, in watts."""

    idle: float
    placement: float
    processing: float
    switching: float
    transport: float

    @property
    def total(self):
        return self.idle + self.placement + self.processing + self.switching + self.transport


@dataclass(frozen=True)
class Violation:
    """One violated constraint: family number, its name, the offending index
    tuple and the (raw) residual."""

    family: int
    name: str
    index: tuple
    residual: float


# ---------------------------------------------------------------------------
# Logical flow derivation


def derive_logical_flows(lg: LogicalGraph) -> dict:
    """Propagate ingress demand through the chi graph.

    Returns ``{(e, v1, v2): bit/s}`` for every triple with a positive flow,
    computed in per-endpoint topological order.  Raises CyclicLogicalGraph
    when the order does not exist.
    """
    flows = {}
    for e in sorted(lg.endpoints):
        order = lg.topological_order(e)
        inflow = {}  # (v1, v2) -> rate into v2 from v1, v1 may equal v2 (first hop)
        for (ep, v), rate in lg.ingress_demand.items():
            if ep == e and rate != 0.0:
                inflow[(v, v)] = inflow.get((v, v), 0.0) + rate
        for v2 in order:
            sources = sorted(v1 for (v1, w) in inflow if w == v2)
            for v3 in sorted(lg.vnfs):
                out = 0.0
                for v1 in sources:
                    ratio = lg.chi_out(e, v1, v2, v3)
                    if ratio > 0.0:
                        out += inflow[(v1, v2)] * ratio
                if out != 0.0:
                    flows[(e, v2, v3)] = out
                    inflow[(v2, v3)] = inflow.get((v2, v3), 0.0) + out
    return flows


def total_ingress(s: Scenario) -> float:
    return sum(rate for rate in s.logical.ingress_demand.values())


# ---------------------------------------------------------------------------
# Configuration validation


def _check_shapes(s: Scenario, cfg: NetworkConfiguration):
    lg, pg = s.logical, s.physical
    nodes = set(pg.nodes)
    links = set(pg.links)
    eps = lg.endpoints
    vnfs = lg.vnfs
    for lk in cfg.x:
        if lk not in links:
            raise ShapeMismatch(f"x references unknown link {lk}")
    for c in cfg.y:
        if c not in nodes:
            raise ShapeMismatch(f"y references unknown node {c}")
    for (c, v) in cfg.delta:
        if c not in nodes or v not in vnfs:
            raise ShapeMismatch(f"delta references unknown pair ({c},{v})")
    for key in cfg.tau:
        if len(key) != 5:
            raise ShapeMismatch(f"tau key {key} must be (i, j, e, v1, v2)")
        i, j, e, v1, v2 = key
        if (i, j) not in links or e not in eps or v1 not in vnfs or v2 not in vnfs:
            raise ShapeMismatch(f"tau key {key} references unknown ids")
        if j in eps:
            raise ShapeMismatch(f"tau key {key} routes traffic into an endpoint")
        if i in eps and (i != e or v1 != v2):
            raise ShapeMismatch(
                f"tau key {key}: endpoint links carry only that endpoint's first-hop flow"
            )
    for name in ("transit", "processed"):
        for key in getattr(cfg, name):
            if len(key) != 4:
                raise ShapeMismatch(f"{name} key {key} must be (c, e, v1, v2)")
            c, e, v1, v2 = key
            if c not in nodes or e not in eps or v1 not in vnfs or v2 not in vnfs:
                raise ShapeMismatch(f"{name} key {key} references unknown ids")


def _residual_scale(terms):
    scale = 1.0
    for t in terms:
        a = abs(t)
        if a > scale:
            scale = a
    return scale


def validate_configuration(s: Scenario, cfg: NetworkConfiguration, tol: float = 1e-6):
    """Check every constraint family against the configuration.

    Returns a list of Violation records, empty iff the configuration is
    feasible within ``tol``.  Residuals are compared against
    ``tol * max(1, largest participating magnitude)`` so the tolerance is
    meaningful across traffic scales.  ``tol`` must be finite and
    nonnegative (ShapeMismatch otherwise): a NaN or infinite one would
    accept every configuration.

    The per-commodity families 1, 2 and 6 visit only the keys that can
    break them: a row whose terms are all absent reads 0.
    """
    if not 0 <= tol < math.inf:
        raise ShapeMismatch(f"tol must be finite and nonnegative, got {tol!r}")
    _check_shapes(s, cfg)
    lg, pg = s.logical, s.physical
    nodes = sorted(pg.nodes)
    eps = sorted(lg.endpoints)
    vnfs = sorted(lg.vnfs)
    links = sorted(pg.links)
    viols = []

    def flag(family, index, residual, *terms):
        if abs(residual) > tol * _residual_scale(terms):
            viols.append(Violation(family, FAMILY_NAMES[family], index, residual))

    tau = cfg.tau
    inflow = {}
    outflow = {}
    for (i, j, e, v1, v2), val in tau.items():
        if j not in lg.endpoints:
            inflow[(j, e, v1, v2)] = inflow.get((j, e, v1, v2), 0.0) + val
        if i not in lg.endpoints:
            outflow[(i, e, v1, v2)] = outflow.get((i, e, v1, v2), 0.0) + val

    # Families 1 and 2: per-node inflow split and outflow composition.
    for key in inflow.keys() | cfg.transit.keys() | cfg.processed.keys():
        arr = inflow.get(key, 0.0)
        t = cfg.transit.get(key, 0.0)
        p = cfg.processed.get(key, 0.0)
        flag(1, key, arr - t - p, arr, t, p)
    fed = {}  # (c, e, v2, v3) -> [(v1, chi-transformed processed traffic)]
    for (c, e, v1, v2), p in cfg.processed.items():
        for v3 in vnfs:
            ratio = lg.chi_out(e, v1, v2, v3)
            if ratio > 0.0:
                fed.setdefault((c, e, v2, v3), []).append((v1, ratio * p))
    for key in outflow.keys() | cfg.transit.keys() | fed.keys():
        dep = outflow.get(key, 0.0)
        t = cfg.transit.get(key, 0.0)
        gen = 0.0
        for _, term in sorted(fed.get(key, ())):  # summed in order of v1
            gen += term
        flag(2, key, dep - t - gen, dep, t, gen)

    # Family 3: link gating, one check per node-side end.
    for (i, j) in links:
        xv = cfg.x.get((i, j), 0)
        if i in pg.nodes:
            r = xv - cfg.y.get(i, 0)
            if r > 0:
                flag(3, (i, j, "src"), float(r), 1.0)
        if j in pg.nodes:
            r = xv - cfg.y.get(j, 0)
            if r > 0:
                flag(3, (i, j, "dst"), float(r), 1.0)

    # Family 4: link capacity.
    per_link = {}
    for (i, j, e, v1, v2), val in tau.items():
        per_link[(i, j)] = per_link.get((i, j), 0.0) + val
    for (i, j) in links:
        load = per_link.get((i, j), 0.0)
        cap = pg.links[(i, j)].capacity * cfg.x.get((i, j), 0)
        r = load - cap
        if r > 0:
            flag(4, (i, j), r, load, cap)

    # Family 5: placement requires an active node.
    for (c, v) in sorted(cfg.delta):
        r = cfg.delta[(c, v)] - cfg.y.get(c, 0)
        if r > 0:
            flag(5, (c, v), float(r), 1.0)

    # Family 6: processing requires a deployed instance (bounded by k(c)).
    # An absent key processes 0, which breaks the row only under a negative
    # limit.
    starved = {
        (c, e, v1, v2)
        for (c, v2), on in cfg.delta.items()
        if on * pg.nodes[c].compute < 0
        for e in eps
        for v1 in vnfs
    }
    for key in cfg.processed.keys() | starved:
        c, e, v1, v2 = key
        p = cfg.processed.get(key, 0.0)
        lim = cfg.delta.get((c, v2), 0) * pg.nodes[c].compute
        r = p - lim
        if r > 0:
            flag(6, key, r, p, lim)

    # Family 7: compute capacity covers processing plus software switching.
    for c in nodes:
        spare = spare_compute(s, cfg, c)
        if spare < 0:
            flag(7, (c,), -spare, pg.nodes[c].compute - spare, pg.nodes[c].compute)

    # Family 8: delay budget, only when enabled.
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
            net = sum(
                pg.links[(i, j)].delay * val
                for (i, j, ee, v1, v2), val in tau.items()
                if ee == e
            )
            proc = sum(
                lg.per_vnf_delay[v2] * val
                for (c, ee, v1, v2), val in cfg.processed.items()
                if ee == e
            )
            r = (net + proc) / total_l - bound
            if r > 0:
                flag(8, (e,), r, bound)

    # Family 9: injected traffic matches demand, including guarding against
    # phantom injection of commodities with no demand.
    injected = {}
    for (i, j, e, v1, v2), val in tau.items():
        if i in lg.endpoints:
            injected[(e, v1)] = injected.get((e, v1), 0.0) + val
    for e in eps:
        for v in vnfs:
            want = lg.ingress_demand.get((e, v), 0.0)
            got = injected.get((e, v), 0.0)
            if want == 0.0 and got == 0.0:
                continue
            flag(9, (e, v), got - want, got, want)

    viols.sort(key=lambda w: (w.family, w.index))
    return viols


def spare_compute(s: Scenario, cfg: NetworkConfiguration, c, start=0.0) -> float:
    """``start`` plus k(c), less the compute that processing and software
    switching use at node ``c``: the slack of family 7, negative when it is
    violated.  The terms are subtracted one at a time, processing first, so
    a sum over nodes threaded through ``start`` is one running total."""
    spec = s.physical.nodes[c]
    spare = start + spec.compute
    for (cc, e, v1, v2), p in cfg.processed.items():
        if cc == c:
            spare -= s.logical.compute_per_bit[v2] * p
    if spec.switch_cost > 0.0:
        for (i, j, e, v1, v2), val in cfg.tau.items():
            if i == c:
                spare -= spec.switch_cost * val
    return spare


# ---------------------------------------------------------------------------
# Energy accounting


def energy_of(s: Scenario, cfg: NetworkConfiguration) -> EnergyBreakdown:
    """Evaluate the five power components for a configuration.

    Computes regardless of feasibility; switching is charged on the total
    traffic leaving each node (endpoint egress is injection, not switching,
    but it does count toward transport).
    """
    _check_shapes(s, cfg)
    em = s.energy
    lg = s.logical
    idle = em.idle_power * sum(cfg.y[c] for c in sorted(cfg.y))
    placement = em.placement_power * sum(cfg.delta[k] for k in sorted(cfg.delta))
    proc_units = 0.0
    for key in sorted(cfg.processed):
        v2 = key[3]
        proc_units += lg.compute_per_bit[v2] * cfg.processed[key]
    processing = em.proc_power_per_unit * proc_units
    node_egress = sum(
        cfg.tau[key] for key in sorted(cfg.tau) if key[0] not in lg.endpoints
    )
    switching = em.switch_energy_per_bit * node_egress
    carried = sum(cfg.tau[key] for key in sorted(cfg.tau))
    transport = em.link_energy_per_bit * carried
    return EnergyBreakdown(idle, placement, processing, switching, transport)
