"""The four benchmark workloads.

Every workload is closed-loop: one client, one process, one operation at a
time.  Each has a fixed corpus of instances, drawn at set-up from generator
seeds that do not depend on the run.  The run's seed sets the order in which
a pass visits the corpus and seeds the control loop's random choices, so the
same seed gives the same inputs.  A run measures whole passes.

The corpus is fixed because the instances' costs differ widely: on
``ladder_2x4`` one operation takes 0.8 to 1.9 s depending on the instance.
With instances drawn from the seed, the dozen operations a run has time for
gave medians whose spread across five seeds (interquartile range over median)
was 0.34; with a fixed corpus every run measures the same work.

``prepare`` builds one operation's inputs afresh, untimed.  ``op`` is the
timed call into optiloop's public functions.  ``check`` runs after it,
untimed, and decides whether the output is correct; it also returns the
energy ratios behind the quality metrics.  ``warmup`` runs the operation once
on a small instance outside the corpus, so lazy imports and first-call costs
are paid before timing.

See README.md next to this file for why each workload exists.
"""

import contextlib
import csv
import io
import statistics

import numpy as np

import optiloop
from optiloop import cli
from optiloop.errors import GenerationFailed, InstanceInfeasible
from optiloop.scenario import scenario_to_dict

# Relative tolerance of the oracle sandwich (acceptance criterion 1).
REL_TOL = 1e-5
# Corpus index of the warm-up instance.
WARMUP = 10**6


def _draw_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _sandwich(lower, exact, loop, all_on):
    """relaxed bound <= exact <= loop <= all-active, within REL_TOL."""
    slack = REL_TOL * max(1.0, exact)
    return (
        lower <= exact + slack
        and exact <= loop + slack
        and loop <= all_on + REL_TOL * max(1.0, all_on)
    )


class Workload:
    name = None
    tag = None
    corpus_size = None

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.corpus = [self.draw(np.random.default_rng([self.tag, j]), j)
                       for j in range(self.corpus_size)]  # fmt: skip
        self.order = np.random.default_rng([self.tag, seed]).permutation(self.corpus_size)

    def prepare(self, index):
        """Inputs of operation ``index`` of the run."""
        item = self.corpus[self.order[index % self.corpus_size]]
        return self.inputs(item, np.random.default_rng([self.tag, self.seed, index]))

    def warmup(self):
        rng = np.random.default_rng([self.tag, WARMUP])
        self.op(self.inputs(self.draw(rng, WARMUP, small=True), rng))


class CorpusSweep(Workload):
    """The paper's experiment as users run it, through the CLI."""

    name = "corpus_sweep"
    tag = 1
    corpus_size = 10
    FACTORS = (0.5, 1.0, 2.0)
    SEEDS = (0, 1)
    # Operations whose CLI run is repeated to check the CSV is byte-identical.
    REPEATS = 2

    def _params(self, gen_seed, n_nodes=3):
        return optiloop.GeneratorParams(
            n_endpoints=1,
            n_nodes=n_nodes,
            endpoint_demand_range=(0.3e9, 0.9e9),
            node_processing_capacity=8e9,
            rng_seed=gen_seed,
        )

    def _argv(self, params, out):
        lo, hi = params.endpoint_demand_range
        return [
            "run", "--generate", "--seed", str(params.rng_seed),
            "--gen-endpoints", str(params.n_endpoints), "--gen-nodes", str(params.n_nodes),
            "--gen-demand", f"{lo!r},{hi!r}",
            "--gen-node-capacity", repr(params.node_processing_capacity),
            "--factors", ",".join(map(repr, self.FACTORS)),
            "--strategies", "all_active,consolidation,optiloop,exact",
            "--seeds", ",".join(map(str, self.SEEDS)), "--rounds", "3",
            "--out", str(out),
        ]  # fmt: skip

    def draw(self, rng, j, small=False):
        while True:
            params = self._params(_draw_seed(rng), n_nodes=2 if small else 3)
            try:
                optiloop.generate(params)
            except GenerationFailed:
                continue
            return params

    def inputs(self, params, rng):
        return {"params": params, "out": self.workdir / "sweep.csv"}

    def _main(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def op(self, inp):
        return self._main(self._argv(inp["params"], inp["out"]))

    def check(self, index, inp, rc):
        if rc != 0:
            return False, None
        data = inp["out"].read_bytes()
        if index < self.REPEATS:
            again = self.workdir / "sweep-repeat.csv"
            if self._main(self._argv(inp["params"], again)) != 0 or again.read_bytes() != data:
                return False, None
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        if len(rows) != 4 * len(self.FACTORS) * len(self.SEEDS):
            return False, None
        energy = {}
        for r in rows:
            key = (r["strategy"], float(r["demand_factor"]), int(r["seed"]))
            energy[key] = float(r["total_energy_w"])
        base = optiloop.generate(inp["params"])
        vs_exact, vs_all = [], []
        for f in self.FACTORS:
            lower = optiloop.relaxed_bound(optiloop.scale_demand(base, f) if f != 1.0 else base)
            for seed in self.SEEDS:
                exact = energy[("exact", f, seed)]
                loop = energy[("optiloop", f, seed)]
                all_on = energy[("all_active", f, seed)]
                if not _sandwich(lower, exact, loop, all_on):
                    return False, None
                vs_exact.append(loop / exact)
                vs_all.append(loop / all_on)
        return True, {"vs_exact": vs_exact, "vs_all_active": vs_all}


class DemandShift(Workload):
    """run_loop with the demand rescaled at round 1, on tight capacities."""

    name = "demand_shift"
    tag = 2
    corpus_size = 18

    def draw(self, rng, j, small=False):
        # Strata cycle every six instances: 3 nodes up, 4 up twice, 3 nodes
        # down, 4 down twice.  A third of the instances have 3 nodes, so the
        # median operation falls inside the slower 4-node group rather than
        # in the gap between the two groups' times.
        n_nodes = 3 if j % 3 == 0 else 4
        upward = (j // 3) % 2 == 0
        while True:
            factor = rng.uniform(1.0, 1.8) if upward else rng.uniform(0.5, 1.0)
            factor = float(np.round(factor, 3))
            params = optiloop.GeneratorParams(
                n_endpoints=1,
                n_nodes=n_nodes,
                endpoint_demand_range=(0.3e9, 0.6e9),
                node_processing_capacity=float(rng.uniform(1.5e9, 2e9)),
                endpoint_link_capacity=float(rng.uniform(2e9, 3e9)),
                core_link_capacity=float(rng.uniform(2e9, 3e9)),
                rng_seed=_draw_seed(rng),
            )
            try:
                s = optiloop.generate(params)
                optiloop.initial_solution(optiloop.scale_demand(s, factor))
            except (GenerationFailed, InstanceInfeasible):
                continue
            return params, factor

    def inputs(self, item, rng):
        params, factor = item
        return {
            "scenario": optiloop.generate(params),
            "factor": factor,
            "loop_seed": _draw_seed(rng),
        }

    def op(self, inp):
        s, factor = inp["scenario"], inp["factor"]

        def shift(round_index, state):
            return optiloop.scale_demand(s, factor) if round_index == 1 else None

        return optiloop.run_loop(s, inp["loop_seed"], rounds=2, scenario_hook=shift)

    def check(self, index, inp, state):
        s, cfg = state.scenario, state.current
        if optiloop.validate_configuration(s, cfg) != []:
            return False, None
        energy = optiloop.energy_of(s, cfg).total
        if state.telemetry[-1]["energy_after"] != energy:
            return False, None
        if index >= self.corpus_size:
            return True, None
        exact = optiloop.exact_optimum(s).energy.total
        all_on = optiloop.all_active(s).energy.total
        return True, {"vs_exact": [energy / exact], "vs_all_active": [energy / all_on]}


class Ladder2x4(Workload):
    """Relaxed root plus the control loop on the first ROADMAP ladder rung."""

    name = "ladder_2x4"
    tag = 3
    corpus_size = 6

    def draw(self, rng, j, small=False):
        while True:
            params = optiloop.GeneratorParams(
                n_endpoints=1 if small else 2,
                n_nodes=2 if small else 4,
                rng_seed=_draw_seed(rng),
            )
            try:
                optiloop.generate(params)
            except GenerationFailed:
                continue
            return params

    def inputs(self, params, rng):
        return {"scenario": optiloop.generate(params), "loop_seed": _draw_seed(rng)}

    def op(self, inp):
        s = inp["scenario"]
        lower = optiloop.relaxed_bound(s)
        return lower, optiloop.optiloop_strategy(s, seed=inp["loop_seed"], rounds=3)

    def check(self, index, inp, out):
        lower, result = out
        s = inp["scenario"]
        if optiloop.validate_configuration(s, result.configuration) != []:
            return False, None
        loop = result.energy.total
        exact = optiloop.exact_optimum(s).energy.total
        all_on = optiloop.all_active(s).energy.total
        if not _sandwich(lower, exact, loop, all_on):
            return False, None
        return True, {"vs_exact": [loop / exact], "vs_all_active": [loop / all_on]}


class OperatorBuild(Workload):
    """Operator-scale generation, JSON round trip, LP build and text dump."""

    name = "operator_build"
    tag = 4
    corpus_size = 3

    def draw(self, rng, j, small=False):
        if small:
            return optiloop.GeneratorParams(n_endpoints=2, n_nodes=4, rng_seed=_draw_seed(rng))
        return optiloop.GeneratorParams(rng_seed=_draw_seed(rng))

    def inputs(self, params, rng):
        return {"params": params, "path": self.workdir / "operator.json"}

    def op(self, inp):
        s = optiloop.generate(inp["params"])
        optiloop.save_scenario(s, inp["path"])
        loaded = optiloop.load_scenario(inp["path"])
        p = optiloop.build_problem(loaded)
        return s, loaded, p, optiloop.to_lp_text(p)

    def check(self, index, inp, out):
        s, loaded, p, text = out
        if scenario_to_dict(s) != scenario_to_dict(loaded):
            return False, None
        lines = text.split("\n")
        try:
            start = lines.index("Subject To")
            bounds = lines.index("Bounds")
            end = lines.index("End")
        except ValueError:
            return False, None
        binaries = len(p.binary_refs())
        ok = bounds - start - 1 == len(p.constraints) and end - bounds - 1 == binaries
        return ok, None


WORKLOADS = {w.name: w for w in (CorpusSweep, DemandShift, Ladder2x4, OperatorBuild)}


def quality(records):
    """energy_ratio_vs_exact is the mean and energy_ratio_vs_all_active the
    median of the per-cell ratios of the optiloop strategy's energy."""
    vs_exact = [r for rec in records for r in rec["vs_exact"]]
    vs_all = [r for rec in records for r in rec["vs_all_active"]]
    return statistics.fmean(vs_exact), statistics.median(vs_all)
