"""Scenario ingestion, synthesis and demand scaling.

The generator synthesizes operator-style instances: a connected core built
as a ring with random chords, endpoints attached to a fixed number of core
nodes, uniform per-endpoint demand, and the standard virtualized packet
core chain (eNB -> gateway -> MME -> HSS) as the logical graph.  Defaults
reflect measured figures for this class of deployment: 65 W node idle
power, negligible instance-placement power, 3.25 nJ/bit software switching,
48 nJ/bit processing, negligible per-link transport energy, 10 Gbit/s
access links, 100 Gbit/s core links and 100 Gbit/s-equivalent node compute.

Scenario files are UTF-8 JSON with the top-level keys ``endpoints``,
``vnfs``, ``chi``, ``demand``, ``nodes``, ``links``, ``energy``,
``max_delay``, ``delays_enabled`` and (for generated instances) a
``generator`` provenance block.  Unknown keys are rejected.
"""

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .errors import CyclicLogicalGraph, GenerationFailed, ScenarioFormatError, ShapeMismatch
from .model import EnergyModel, Link, LogicalGraph, Node, PhysicalGraph, Scenario

__all__ = [
    "GeneratorParams",
    "generate",
    "scale_demand",
    "vepc_logical_graph",
    "vepc_two_node",
    "scenario_to_dict",
    "scenario_from_dict",
    "load_scenario",
    "save_scenario",
    "configuration_to_dict",
    "configuration_from_dict",
    "strategy_result_to_dict",
    "DEFAULT_ENERGY",
]

VEPC_VNFS = ("eNB", "PSGW", "MME", "HSS")

# Control-plane share from eNB toward the MME, and the two published values
# for the gateway's control share: 0.2 in the illustrative chain, 0.32 for
# the operator traffic mix.
ENB_TO_MME = 0.3
GW_TO_MME_ILLUSTRATIVE = 0.2
GW_TO_MME_OPERATOR = 0.32

DEFAULT_ENERGY = EnergyModel(
    idle_power=65.0,
    placement_power=0.0,
    proc_power_per_unit=48e-9,
    switch_energy_per_bit=3.25e-9,
    link_energy_per_bit=0.0,
)


def vepc_logical_graph(demand, gw_to_mme=GW_TO_MME_ILLUSTRATIVE, compute_per_bit=None):
    """The four-function packet-core chain for the given ingress demand.

    ``demand`` maps endpoint id -> bit/s entering at the eNB.  User traffic
    traverses eNB -> PSGW in full; control traffic branches eNB -> MME
    (ratio 0.3) and PSGW -> MME (ratio ``gw_to_mme``), and the MME forwards
    everything to the HSS.
    """
    endpoints = frozenset(demand)
    chi = {}
    for e in sorted(endpoints):
        chi[(e, "eNB", "PSGW")] = 1.0
        chi[(e, "eNB", "MME")] = ENB_TO_MME
    chi[("eNB", "PSGW", "MME")] = gw_to_mme
    chi[("eNB", "MME", "HSS")] = 1.0
    chi[("PSGW", "MME", "HSS")] = 1.0
    return LogicalGraph(
        endpoints=endpoints,
        vnfs=frozenset(VEPC_VNFS),
        chi=chi,
        ingress_demand={(e, "eNB"): rate for e, rate in demand.items()},
        compute_per_bit=compute_per_bit,
    )


def vepc_two_node(demand_bps=1e9, gw_to_mme=GW_TO_MME_ILLUSTRATIVE):
    """Canonical two-node fixture: one endpoint feeding a two-node path.

    Small enough to verify every flow by hand, large enough to exercise the
    whole chain (the second node also serves as the bounce neighbor for
    co-located chain steps).
    """
    logical = vepc_logical_graph({"RRH": demand_bps}, gw_to_mme=gw_to_mme)
    physical = PhysicalGraph(
        nodes={
            "n1": Node(compute=10e9, switch_cost=1.0),
            "n2": Node(compute=10e9, switch_cost=1.0),
        },
        links={
            ("RRH", "n1"): Link(capacity=10e9),
            ("n1", "n2"): Link(capacity=10e9),
            ("n2", "n1"): Link(capacity=10e9),
        },
    )
    return Scenario(logical=logical, physical=physical, energy=DEFAULT_ENERGY)


# ---------------------------------------------------------------------------
# Synthetic generation


@dataclass(frozen=True)
class GeneratorParams:
    n_endpoints: int = 42
    n_nodes: int = 51
    attachments_per_endpoint: int = 2
    endpoint_demand_range: tuple = (74e6, 473e6)
    downlink_fraction: float = 0.82
    endpoint_link_capacity: float = 10e9
    core_link_capacity: float = 100e9
    node_processing_capacity: float = 100e9
    node_switch_cost: float = 1.0
    gw_to_mme: float = GW_TO_MME_OPERATOR
    chord_fraction: float = 0.5
    split_uplink: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_endpoints < 1 or self.n_nodes < 1:
            raise ShapeMismatch("generator needs at least one endpoint and one node")
        if not (1 <= self.attachments_per_endpoint <= self.n_nodes):
            raise ShapeMismatch("attachments_per_endpoint out of range")
        lo, hi = self.endpoint_demand_range
        if not 0 < lo <= hi < np.inf:  # also rejects NaN
            raise ShapeMismatch("endpoint_demand_range must be positive, finite, ordered")
        if not (0.0 <= self.downlink_fraction <= 1.0):
            raise ShapeMismatch("downlink_fraction must lie in [0, 1]")
        for name in (
            "endpoint_link_capacity",
            "core_link_capacity",
            "node_processing_capacity",
        ):
            if getattr(self, name) <= 0:
                raise ShapeMismatch(f"{name} must be positive")


# Verify generated instances by solving the all-on problem only while that
# problem stays desk-sized; above this many flow variables the capacity
# headroom of the defaults has to stand in for the check.
_VERIFY_VAR_LIMIT = 20000


def _estimate_vars(params):
    ne = params.n_endpoints * (2 if params.split_uplink else 1)
    nn = params.n_nodes
    links = 2 * nn + int(nn * params.chord_fraction) + ne * params.attachments_per_endpoint
    v2 = len(VEPC_VNFS) ** 2
    return links * ne * v2 + 2 * nn * ne * v2


def generate(params: GeneratorParams = GeneratorParams(), max_retries: int = 5) -> Scenario:
    """Synthesize a scenario; deterministic per seed.

    The core is a ring plus random chords (connected by construction).
    Each endpoint attaches to ``attachments_per_endpoint`` distinct nodes
    with demand drawn uniformly from the configured range.  Instances small
    enough to solve are verified feasible with everything active, redrawing
    up to ``max_retries`` times.
    """
    rng = np.random.default_rng(params.rng_seed)
    verify = _estimate_vars(params) <= _VERIFY_VAR_LIMIT
    for _ in range(max_retries):
        s = _draw(params, rng)
        if not verify:
            return s
        from .loop import initial_solution  # deferred: loop imports lp, not us
        from .errors import InstanceInfeasible

        try:
            initial_solution(s)
            return s
        except InstanceInfeasible:
            continue
    raise GenerationFailed(
        f"no feasible instance after {max_retries} draws (seed {params.rng_seed})"
    )


def _draw(params, rng):
    nn = params.n_nodes
    width = max(2, len(str(nn - 1)))
    node_ids = [f"n{idx:0{width}d}" for idx in range(nn)]
    links = {}
    for idx in range(nn - 1):
        a, b = node_ids[idx], node_ids[idx + 1]
        links[(a, b)] = Link(capacity=params.core_link_capacity)
        links[(b, a)] = Link(capacity=params.core_link_capacity)
    if nn > 2:
        a, b = node_ids[-1], node_ids[0]
        links[(a, b)] = Link(capacity=params.core_link_capacity)
        links[(b, a)] = Link(capacity=params.core_link_capacity)
        n_chords = int(nn * params.chord_fraction)
        for _ in range(n_chords):
            i, j = rng.integers(0, nn, size=2)
            if i == j:
                continue
            a, b = node_ids[int(i)], node_ids[int(j)]
            links.setdefault((a, b), Link(capacity=params.core_link_capacity))
            links.setdefault((b, a), Link(capacity=params.core_link_capacity))

    ewidth = max(2, len(str(params.n_endpoints - 1)))
    demand = {}
    for idx in range(params.n_endpoints):
        site_demand = rng.uniform(*params.endpoint_demand_range)
        attach = rng.choice(nn, size=params.attachments_per_endpoint, replace=False)
        if params.split_uplink:
            members = [
                (f"e{idx:0{ewidth}d}d", site_demand * params.downlink_fraction),
                (f"e{idx:0{ewidth}d}u", site_demand * (1.0 - params.downlink_fraction)),
            ]
        else:
            members = [(f"e{idx:0{ewidth}d}", site_demand)]
        for eid, rate in members:
            demand[eid] = rate
            for a in sorted(int(v) for v in attach):
                links[(eid, node_ids[a])] = Link(capacity=params.endpoint_link_capacity)

    logical = vepc_logical_graph(demand, gw_to_mme=params.gw_to_mme)
    physical = PhysicalGraph(
        nodes={
            c: Node(
                compute=params.node_processing_capacity,
                switch_cost=params.node_switch_cost,
            )
            for c in node_ids
        },
        links=links,
    )
    provenance = dataclasses.asdict(params)
    provenance["endpoint_demand_range"] = list(params.endpoint_demand_range)
    return Scenario(
        logical=logical,
        physical=physical,
        energy=DEFAULT_ENERGY,
        provenance=provenance,
    )


def scale_demand(s: Scenario, factor: float) -> Scenario:
    """Multiply every ingress demand by ``factor``; everything else as-is."""
    if factor <= 0:
        raise ShapeMismatch("demand factor must be positive")
    demand = {k: rate * factor for k, rate in s.logical.ingress_demand.items()}
    return dataclasses.replace(
        s, logical=dataclasses.replace(s.logical, ingress_demand=demand)
    )


# ---------------------------------------------------------------------------
# JSON serialization

_TOP_KEYS = {
    "endpoints",
    "vnfs",
    "chi",
    "demand",
    "nodes",
    "links",
    "energy",
    "max_delay",
    "delays_enabled",
    "generator",
}


def scenario_to_dict(s: Scenario) -> dict:
    lg, pg = s.logical, s.physical
    doc = {
        "endpoints": sorted(lg.endpoints),
        "vnfs": [
            {
                "id": v,
                "compute_per_bit": lg.compute_per_bit[v],
                "delay": lg.per_vnf_delay[v],
            }
            for v in sorted(lg.vnfs)
        ],
        "chi": [
            {"prev": k[0], "at": k[1], "next": k[2], "ratio": ratio}
            for k, ratio in sorted(lg.chi.items())
        ],
        "demand": [
            {"endpoint": e, "vnf": v, "rate": rate}
            for (e, v), rate in sorted(lg.ingress_demand.items())
        ],
        "nodes": [
            {"id": c, "k": pg.nodes[c].compute, "rho": pg.nodes[c].switch_cost}
            for c in sorted(pg.nodes)
        ],
        "links": [
            {
                "from": i,
                "to": j,
                "capacity": pg.links[(i, j)].capacity,
                "delay": pg.links[(i, j)].delay,
            }
            for (i, j) in sorted(pg.links)
        ],
        "energy": {
            "idle_power": s.energy.idle_power,
            "placement_power": s.energy.placement_power,
            "proc_power_per_unit": s.energy.proc_power_per_unit,
            "switch_energy_per_bit": s.energy.switch_energy_per_bit,
            "link_energy_per_bit": s.energy.link_energy_per_bit,
        },
        "max_delay": {e: s.max_delay[e] for e in sorted(s.max_delay)},
        "delays_enabled": s.delays_enabled,
    }
    if s.provenance is not None:
        doc["generator"] = s.provenance
    return doc


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ScenarioFormatError(f"unknown scenario keys: {sorted(unknown)}")
    try:
        vnf_rows = doc.get("vnfs", [])
        logical = LogicalGraph(
            endpoints=frozenset(doc.get("endpoints", [])),
            vnfs=frozenset(row["id"] for row in vnf_rows),
            chi={
                (row["prev"], row["at"], row["next"]): float(row["ratio"])
                for row in doc.get("chi", [])
            },
            ingress_demand={
                (row["endpoint"], row["vnf"]): float(row["rate"])
                for row in doc.get("demand", [])
            },
            compute_per_bit={
                row["id"]: float(row.get("compute_per_bit", 1.0)) for row in vnf_rows
            },
            per_vnf_delay={row["id"]: float(row.get("delay", 0.0)) for row in vnf_rows},
        )
        physical = PhysicalGraph(
            nodes={
                row["id"]: Node(
                    compute=float(row["k"]), switch_cost=float(row.get("rho", 0.0))
                )
                for row in doc.get("nodes", [])
            },
            links={
                (row["from"], row["to"]): Link(
                    capacity=float(row["capacity"]), delay=float(row.get("delay", 0.0))
                )
                for row in doc.get("links", [])
            },
        )
        energy = doc.get("energy", {})
        if not isinstance(energy, dict):
            raise ScenarioFormatError("energy must be a JSON object")
        energy = EnergyModel(**{name: float(value) for name, value in energy.items()})
        max_delay = doc.get("max_delay", {})
        if not isinstance(max_delay, dict):
            raise ScenarioFormatError("max_delay must be a JSON object")
        max_delay = {
            e: (None if bound is None else float(bound))
            for e, bound in max_delay.items()
        }
        max_delay = {e: b for e, b in max_delay.items() if b is not None}
        delays_enabled = doc.get("delays_enabled", False)
        if not isinstance(delays_enabled, bool):
            raise ScenarioFormatError("delays_enabled must be a JSON boolean")
        return Scenario(
            logical=logical,
            physical=physical,
            energy=energy,
            max_delay=max_delay,
            delays_enabled=delays_enabled,
            provenance=doc.get("generator"),
        )
    except (KeyError, TypeError, ValueError, OverflowError, CyclicLogicalGraph) as exc:
        raise ScenarioFormatError(f"malformed scenario document: {exc}") from exc


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"invalid JSON in {path}: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"{path} is not UTF-8: {exc}") from exc
    except (RecursionError, ValueError) as exc:  # too deep, or an int too long
        raise ScenarioFormatError(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return scenario_from_dict(doc)
    except ShapeMismatch as exc:
        raise ScenarioFormatError(f"invalid scenario in {path}: {exc}") from exc


def save_scenario(s: Scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Configuration serialization (shared with strategy results)


def configuration_to_dict(cfg) -> dict:
    return {
        "x": [[i, j, val] for (i, j), val in sorted(cfg.x.items())],
        "y": [[c, val] for c, val in sorted(cfg.y.items())],
        "delta": [[c, v, val] for (c, v), val in sorted(cfg.delta.items())],
        "tau": [list(k) + [val] for k, val in sorted(cfg.tau.items())],
        "transit": [list(k) + [val] for k, val in sorted(cfg.transit.items())],
        "processed": [list(k) + [val] for k, val in sorted(cfg.processed.items())],
    }


def configuration_from_dict(doc: dict):
    from .model import NetworkConfiguration

    try:
        return NetworkConfiguration(
            x={(i, j): val for i, j, val in doc.get("x", [])},
            y={c: val for c, val in doc.get("y", [])},
            delta={(c, v): val for c, v, val in doc.get("delta", [])},
            tau={tuple(row[:5]): row[5] for row in doc.get("tau", [])},
            transit={tuple(row[:4]): row[4] for row in doc.get("transit", [])},
            processed={tuple(row[:4]): row[4] for row in doc.get("processed", [])},
        )
    except (ValueError, TypeError, IndexError) as exc:
        raise ScenarioFormatError(f"malformed configuration document: {exc}") from exc


def strategy_result_to_dict(result) -> dict:
    e = result.energy
    return {
        "name": result.name,
        "configuration": configuration_to_dict(result.configuration),
        "energy": {
            "idle": e.idle,
            "placement": e.placement,
            "processing": e.processing,
            "switching": e.switching,
            "transport": e.transport,
            "total": e.total,
        },
        "stats": result.stats,
    }
