"""Fingerprint of the control loop's and the baselines' decisions.

    python3 tools/fingerprint.py <checkout>

Imports optiloop from ``<checkout>/src`` and the toy instances from
``<checkout>/tests/corpus.py``, runs a fixed set of cases, and prints a
SHA-256 over their decisions followed by the total number of LP solves the
control loop made.  Two checkouts decide identically when the hashes match.
The hash leaves out every ``lp_solves`` count, so a change that only saves
solves keeps the hash and shows on the second line.

The cases:

* toy seeds 0-29 x loop seeds 0, 1 x {no shift, demand x0.6, x1.6, x3.0 at
  round 1}, three rounds each: 240 runs; a run that raises contributes its
  error type and message;
* generated 2x4 instances (generator seeds 1-3) through
  ``optiloop_strategy``, ``all_active`` and ``consolidation``;
* one 24-row CLI sweep (4 strategies x 3 demand factors x 2 seeds) on a
  generated 1x3 instance.

A decision enters as the ``repr`` of every binary and every flow of the
final configuration, the loop's telemetry and the strategy stats without
``lp_solves``, and the CSV rows without the ``lp_solves`` column.

The IIS cases are the all-on pinned problems of ``make_capacity_starved``
and ``make_compute_starved`` for seeds 0-49; each enters as its
``compute_iis`` constraint ids and families.  The third and fourth lines
are their hash and inner-solve total.

The fifth line splits the toy runs' LP solves by loop phase, so a change in
the total on the second line shows where it comes from.

The sixth line is the total ``SimplexResult.iterations`` over every
``solve_dense`` call the cases above make, counted by a spy wrapped around
``solve_dense`` wherever an optiloop module has imported it.  Two simplex
kernels that pivot identically print the same total, so a kernel change that
must keep every pivot shows it as one number.
"""

import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from pathlib import Path

TOY_SEEDS = range(30)
LOOP_SEEDS = (0, 1)
SHIFTS = (None, 0.6, 1.6, 3.0)
ROUNDS = 3
STARVED_SEEDS = range(50)
LADDER_SEEDS = (1, 2, 3)
SWEEP_ARGV = [
    "run", "--generate", "--seed", "5", "--gen-endpoints", "1", "--gen-nodes", "3",
    "--gen-demand", "3e8,9e8", "--gen-node-capacity", "8e9",
    "--factors", "0.5,1.0,2.0", "--strategies", "all_active,consolidation,optiloop,exact",
    "--seeds", "0,1", "--rounds", "3",
]  # fmt: skip
CONFIG_FIELDS = ("x", "y", "delta", "tau", "transit", "processed")
PHASES = ("initial", "fix_problems", "save_energy")


def _config(cfg):
    return repr([sorted(getattr(cfg, name).items()) for name in CONFIG_FIELDS])


def _without_solves(record):
    return repr(sorted((k, v) for k, v in record.items() if k != "lp_solves"))


def fingerprint():
    """Decisions hash, loop solve total and per-phase split of the toy runs,
    the ladder strategies and the CLI sweep."""
    from corpus import make_toy
    from optiloop import cli
    from optiloop.baselines import all_active, consolidation, optiloop_strategy
    from optiloop.errors import OptiloopError
    from optiloop.loop import run_loop
    from optiloop.scenario import GeneratorParams, generate, scale_demand

    digest = hashlib.sha256()
    solves = 0
    by_phase = dict.fromkeys(PHASES, 0)

    def feed(*parts):
        digest.update(("\t".join(map(str, parts)) + "\n").encode())

    for toy in TOY_SEEDS:
        s = make_toy(toy)
        for seed in LOOP_SEEDS:
            for factor in SHIFTS:
                seen = []

                def hook(r, state, factor=factor, s=s):
                    seen.append(state)
                    return scale_demand(s, factor) if factor and r == 1 else None

                feed("loop", toy, seed, factor)
                try:
                    run_loop(s, seed, ROUNDS, scenario_hook=hook)
                    outcome = _config(seen[0].current)
                except OptiloopError as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
                state = seen[0]
                solves += state.total_solves()
                for phase, n in state.lp_solves.items():
                    by_phase[phase] += n
                feed(outcome, state.activations, state.deactivations)
                for record in state.telemetry:
                    feed(_without_solves(record))

    for gen_seed in LADDER_SEEDS:
        s = generate(GeneratorParams(n_endpoints=2, n_nodes=4, rng_seed=gen_seed))
        for result in (optiloop_strategy(s, seed=0, rounds=ROUNDS), all_active(s),
                       consolidation(s)):  # fmt: skip
            if result.name == "optiloop":
                solves += result.stats["lp_solves"]
            feed("strategy", gen_seed, result.name, _config(result.configuration),
                 repr(result.energy), _without_solves(result.stats))  # fmt: skip

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(SWEEP_ARGV + ["--out", str(out)])
        feed("sweep", rc)
        rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
    for row in rows:
        if row["strategy"] == "optiloop":
            solves += int(row["lp_solves"])
        feed(_without_solves(row))
    return digest.hexdigest(), solves, by_phase


def iis_fingerprint():
    """Hash and inner-solve total of the IISes on the starved instances."""
    from corpus import make_capacity_starved, make_compute_starved
    from optiloop import lp
    from optiloop.iis import compute_iis
    from optiloop.loop import _all_on, _assignment_modes

    digest = hashlib.sha256()
    solves = 0
    for seed in STARVED_SEEDS:
        for maker in (make_capacity_starved, make_compute_starved):
            s = maker(seed)
            p = lp.build_problem(s)
            report = compute_iis(lp._with_modes(p, _assignment_modes(p, *_all_on(s))))
            solves += report.solves
            parts = (maker.__name__, seed, report.constraint_ids, sorted(report.families))
            digest.update(("\t".join(map(repr, parts)) + "\n").encode())
    return digest.hexdigest(), solves


def _count_iterations():
    """Wrap every optiloop module's ``solve_dense`` in a spy; returns a list
    whose one entry is the running total of simplex iterations."""
    from optiloop import simplex  # the package imports every module that uses it

    total = [0]
    original = simplex.solve_dense

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        total[0] += result.iterations
        return result

    for name, module in list(sys.modules.items()):
        if name.startswith("optiloop") and getattr(module, "solve_dense", None) is original:
            module.solve_dense = spy
    return total


def main(argv):
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]

    iterations = _count_iterations()
    digest, solves, by_phase = fingerprint()
    print(digest)
    print(f"loop LP solves: {solves}")
    digest, solves = iis_fingerprint()
    print(digest)
    print(f"IIS inner solves: {solves}")
    print("toy loop LP solves by phase: "
          + ", ".join(f"{phase} {n}" for phase, n in by_phase.items()))  # fmt: skip
    print(f"simplex iterations: {iterations[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
