"""Benchmark metrics and the CSV experiment harness.

One MetricsRow per (strategy, demand factor, seed).  Reported quantities:

* energy total and its five components, in watts;
* savings relative to the all-active baseline (1 - total/baseline);
* spare compute of the active topology: total compute of active nodes
  minus what processing and software switching consume;
* traffic-weighted mean hop count: total carried traffic divided by total
  injected traffic (0 with ``hops_defined=False`` when nothing is
  injected);
* deployed instance counts per function, active element counts and the
  number of LP solves the strategy performed: in ``run_experiment`` a cell
  whose LPs an earlier call on its scenario solved (an earlier cell of its
  demand factor, or ``generate``'s check) reports fewer, while every other
  column is as if the cell ran alone.

CSV output is RFC 4180 (CRLF, fixed header) and byte-reproducible for a
given configuration and seeds; wall-clock timing is therefore kept out of
the file unless explicitly requested with ``include_timings``.
"""

import csv
import time
from dataclasses import dataclass

from . import baselines
from .errors import BaselineMissing, ShapeMismatch
from .model import spare_compute, total_ingress
from .scenario import GeneratorParams, generate, load_scenario, scale_demand

__all__ = ["MetricsRow", "compute_metrics", "ExperimentConfig", "run_experiment", "CSV_HEADER"]

CSV_HEADER = [
    "strategy",
    "demand_factor",
    "seed",
    "total_energy_w",
    "e_idle_w",
    "e_placement_w",
    "e_proc_w",
    "e_switch_w",
    "e_link_w",
    "savings_vs_all_active",
    "spare_ccat",
    "mean_hops",
    "hops_defined",
    "vnf_instances",
    "active_nodes",
    "active_links",
    "lp_solves",
]


@dataclass
class MetricsRow:
    strategy: str
    demand_factor: float
    seed: int
    energy: object
    savings_vs_all_active: float
    spare_ccat: float
    mean_hops: float
    hops_defined: bool
    vnf_instances: dict
    active_nodes: int
    active_links: int
    lp_solves: int
    wall_time: float = 0.0

    def to_csv(self):
        inst = ";".join(f"{v}={n}" for v, n in sorted(self.vnf_instances.items()))
        return [
            self.strategy,
            repr(float(self.demand_factor)),
            str(self.seed),
            repr(self.energy.total),
            repr(self.energy.idle),
            repr(self.energy.placement),
            repr(self.energy.processing),
            repr(self.energy.switching),
            repr(self.energy.transport),
            repr(self.savings_vs_all_active),
            repr(self.spare_ccat),
            repr(self.mean_hops),
            str(self.hops_defined).lower(),
            inst,
            str(self.active_nodes),
            str(self.active_links),
            str(self.lp_solves),
        ]


def compute_metrics(s, result, baseline, demand_factor=1.0, seed=0) -> MetricsRow:
    """Derive one row from a strategy result against the all-active baseline."""
    if baseline is None or baseline.configuration is None:
        raise BaselineMissing("all-active baseline unavailable")
    cfg = result.configuration

    total = result.energy.total
    base_total = baseline.energy.total
    savings = 0.0 if base_total == 0.0 else 1.0 - total / base_total

    spare = 0.0
    for c in s.node_ids():
        if cfg.y.get(c, 0) == 1:
            spare = spare_compute(s, cfg, c, spare)

    injected = total_ingress(s)
    carried = sum(cfg.tau.values())
    if injected > 0.0:
        mean_hops = carried / injected
        hops_defined = True
    else:
        mean_hops = 0.0
        hops_defined = False

    instances = {v: 0 for v in s.vnf_ids()}
    for (c, v), val in cfg.delta.items():
        if val == 1:
            instances[v] += 1

    return MetricsRow(
        strategy=result.name,
        demand_factor=demand_factor,
        seed=seed,
        energy=result.energy,
        savings_vs_all_active=savings,
        spare_ccat=spare,
        mean_hops=mean_hops,
        hops_defined=hops_defined,
        vnf_instances=instances,
        active_nodes=sum(1 for v in cfg.y.values() if v == 1),
        active_links=sum(1 for v in cfg.x.values() if v == 1),
        lp_solves=result.stats.get("lp_solves", 0),
    )


@dataclass
class ExperimentConfig:
    scenario_path: str = None
    generator: GeneratorParams = None
    strategies: tuple = ("all_active", "consolidation", "optiloop", "exact")
    factors: tuple = (1.0,)
    seeds: tuple = (0,)
    rounds: int = 3
    oracle_budget: int = 200000
    out: str = None
    include_timings: bool = False


# Strategy name -> (whether its result depends on the seed, runner taking
# the scaled scenario, the seed and the ExperimentConfig).
STRATEGIES = {
    "all_active": (False, lambda s, seed, c: baselines.all_active(s)),
    "consolidation": (False, lambda s, seed, c: baselines.consolidation(s)),
    "optiloop": (True, lambda s, seed, c: baselines.optiloop_strategy(s, seed, c.rounds)),
    "exact": (False, lambda s, seed, c: baselines.exact_optimum(s, c.oracle_budget)),
}


def run_experiment(config: ExperimentConfig):
    """Run every (strategy, factor, seed) cell and return the MetricsRow list.

    Rows follow the configured strategy order, then factor order, then seed
    order, independent of execution details.  When ``config.out`` is set the
    rows are also written as CSV.

    Every strategy and seed of a factor runs on that factor's one scaled
    scenario, so they share its built LP (``lp.build_problem``) and the LPs
    solved on it (``lp._memo_solve``).  The loop opens on all_active's LP,
    which at factor 1.0 of a generated scenario is ``generate``'s check,
    so that cell solves nothing; and a loop run draws from its seed only
    to repair, which a run that starts all-on at a fixed demand never does,
    so a later seed solves nothing.
    """
    if not set(config.strategies) <= STRATEGIES.keys():
        raise ShapeMismatch(f"unknown strategy in {config.strategies!r}")
    if config.scenario_path:
        base = load_scenario(config.scenario_path)
    else:
        base = generate(config.generator or GeneratorParams())

    scaled = {}
    baseline_by_factor = {}
    cache = {}
    for f in config.factors:
        scaled[f] = scale_demand(base, f) if f != 1.0 else base
        t0 = time.perf_counter()
        baseline_by_factor[f] = baselines.all_active(scaled[f])
        cache[("all_active", f)] = (baseline_by_factor[f], time.perf_counter() - t0)

    rows = []
    for name in config.strategies:
        for f in config.factors:
            for seed in config.seeds:
                seeded, runner = STRATEGIES[name]
                key = (name, f, seed) if seeded else (name, f)
                if key in cache:
                    result, elapsed = cache[key]
                else:
                    t0 = time.perf_counter()
                    result = runner(scaled[f], seed, config)
                    elapsed = time.perf_counter() - t0
                    cache[key] = (result, elapsed)
                row = compute_metrics(
                    scaled[f], result, baseline_by_factor[f], demand_factor=f, seed=seed
                )
                row.wall_time = elapsed
                rows.append(row)

    if config.out:
        write_csv(rows, config.out, include_timings=config.include_timings)
    return rows


def write_csv(rows, path, include_timings=False):
    header = list(CSV_HEADER) + (["wall_time_s"] if include_timings else [])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            rec = row.to_csv()
            if include_timings:
                rec.append(repr(row.wall_time))
            writer.writerow(rec)
