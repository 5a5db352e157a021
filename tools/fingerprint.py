"""Fingerprint of the control loop's and the baselines' decisions.

    python3 tools/fingerprint.py <checkout>
    python3 tools/fingerprint.py <parent> <change>

Imports optiloop from ``<checkout>/src`` and the toy instances from
``<checkout>/tests/corpus.py``, runs a fixed set of cases, and prints a
SHA-256 over their decisions followed by the total number of LP solves the
control loop made.  Two checkouts decide identically when the hashes match.
The hash leaves out every ``lp_solves`` count, so a change that only saves
solves keeps the hash and shows on the second line.

Given two checkouts, it compares their decisions by energy instead: each
checkout runs the toy runs and the 2x4 strategies below in its own
subprocess (``fingerprint.py --cases <checkout>``, which prints each case's
outcome, final energy and loop LP solves as JSON).  It prints both sides'
loop LP solves over those cases; how many of the cases both complete end
lower, higher (by more than a relative 1e-9) or equal in energy on the
change, with the median, min and max change/parent ratio; each higher case;
and each case whose outcome (completed, or the error type raised) differs.

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
``solve_dense`` wherever an optiloop module has imported it.  A call that
restarts from an earlier tableau counts its dual simplex pivots, plus the
cold solve's when the restart is discarded.  Two simplex kernels that pivot
identically print the same total, so a kernel change that must keep every
pivot shows it as one number.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import statistics
import subprocess
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


def _toy_runs():
    """(toy, loop seed, factor, state, error) of every toy run; ``error`` is
    the optiloop error the run raised, else None."""
    from corpus import make_toy
    from optiloop.errors import OptiloopError
    from optiloop.loop import run_loop
    from optiloop.scenario import scale_demand

    for toy in TOY_SEEDS:
        s = make_toy(toy)
        for seed in LOOP_SEEDS:
            for factor in SHIFTS:
                seen = []

                def hook(r, state, factor=factor, s=s):
                    seen.append(state)
                    return scale_demand(s, factor) if factor and r == 1 else None

                try:
                    run_loop(s, seed, ROUNDS, scenario_hook=hook)
                    error = None
                except OptiloopError as exc:
                    error = exc
                yield toy, seed, factor, seen[0], error


def _ladder_runs():
    """(generator seed, result) of each strategy on the generated 2x4 instances."""
    from optiloop.baselines import all_active, consolidation, optiloop_strategy
    from optiloop.scenario import GeneratorParams, generate

    for gen_seed in LADDER_SEEDS:
        s = generate(GeneratorParams(n_endpoints=2, n_nodes=4, rng_seed=gen_seed))
        for result in (optiloop_strategy(s, seed=0, rounds=ROUNDS), all_active(s),
                       consolidation(s)):  # fmt: skip
            yield gen_seed, result


def fingerprint():
    """Decisions hash, loop solve total and per-phase split of the toy runs,
    the ladder strategies and the CLI sweep."""
    from optiloop import cli

    digest = hashlib.sha256()
    solves = 0
    by_phase = dict.fromkeys(PHASES, 0)

    def feed(*parts):
        digest.update(("\t".join(map(str, parts)) + "\n").encode())

    for toy, seed, factor, state, error in _toy_runs():
        feed("loop", toy, seed, factor)
        outcome = _config(state.current) if error is None else f"{type(error).__name__}: {error}"
        solves += state.total_solves()
        for phase, n in state.lp_solves.items():
            by_phase[phase] += n
        feed(outcome, state.activations, state.deactivations)
        for record in state.telemetry:
            feed(_without_solves(record))

    for gen_seed, result in _ladder_runs():
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


def cases():
    """{case: [outcome, final energy, loop LP solves]} over the toy runs and
    the ladder strategies; a run that raised has the error type as its
    outcome and no energy."""
    from optiloop.model import energy_of

    found = {}
    for toy, seed, factor, state, error in _toy_runs():
        energy = energy_of(state.scenario, state.current).total if error is None else None
        outcome = "ok" if error is None else type(error).__name__
        found[f"toy {toy} seed {seed} x{factor}"] = [outcome, energy, state.total_solves()]
    for gen_seed, result in _ladder_runs():
        solves = result.stats["lp_solves"] if result.name == "optiloop" else 0
        found[f"2x4 gen {gen_seed} {result.name}"] = ["ok", result.energy.total, solves]
    return found


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


def _run_cases(root):
    """The ``cases`` of the checkout at ``root``, run in a subprocess."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--cases", str(root)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def compare(parent, change):
    """Lines comparing the ``cases`` of two checkouts by final energy."""
    before, after = _run_cases(parent), _run_cases(change)
    lines = [
        "loop LP solves over the toy runs and 2x4 strategies: "
        f"parent {sum(c[2] for c in before.values())}, "
        f"change {sum(c[2] for c in after.values())}"
    ]
    ratios, higher = [], []
    for case, (outcome, energy, _) in before.items():
        new_outcome, new_energy, _ = after[case]
        if outcome != new_outcome:
            lines.append(f"outcome differs: {case}: {outcome} -> {new_outcome}")
        elif energy is not None:
            ratio = new_energy / energy if energy else (1.0 if new_energy == 0 else math.inf)
            ratios.append(ratio)
            if ratio > 1.0 + 1e-9:
                higher.append(f"higher: {case}: {energy:.6g} -> {new_energy:.6g} W "
                              f"({100 * (ratio - 1):+.2f} %)")  # fmt: skip
    lower = sum(r < 1.0 - 1e-9 for r in ratios)
    lines.append(
        f"final energy, change/parent, over the {len(ratios)} cases both complete: "
        f"{lower} lower, {len(higher)} higher, {len(ratios) - lower - len(higher)} equal; "
        f"median {statistics.median(ratios):.4f}, min {min(ratios):.4f}, max {max(ratios):.4f}"
    )
    return lines + higher


def _use_checkout(root):
    sys.path[:0] = [str(root / "src"), str(root / "tests")]


def main(argv):
    if len(argv) == 2 and argv[0] == "--cases":
        _use_checkout(Path(argv[1]).resolve())
        print(json.dumps(cases()))
        return 0
    if len(argv) == 2:
        print("\n".join(compare(*(Path(arg).resolve() for arg in argv))))
        return 0
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    _use_checkout(Path(argv[0]).resolve())

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
