"""Fingerprint of the control loop's and the baselines' decisions.

    python3 tools/fingerprint.py <checkout>
    python3 tools/fingerprint.py <parent> <change>

Imports optiloop from ``<checkout>/src`` and the toy instances from
``<checkout>/tests/corpus.py``, runs a fixed set of cases, and prints a
SHA-256 over their decisions followed by the total number of LP solves the
control loop made.  Two checkouts decide identically when the hashes match.
The hash leaves out every ``lp_solves`` count, so a change that only saves
solves keeps the hash and shows on the second line.  ``lp.build_problem``
keeps one problem per scenario object, and every call on the scenario
shares that problem's record of solves, so a run counts only the solves no
earlier call on its scenario made.  That total includes the optiloop rows'
``lp_solves`` of the CLI sweep below, whose cells of one demand factor run
on one scenario (0 on the second seed's rows).  The toy runs of one toy
share one scenario object across loop seeds and shifts, and ``make_toy``
has already solved its all-on LP, so their ``initial`` phases count 0 and
a later run counts only the LPs no earlier run met; against a checkout
that built a problem per call, the second, fifth and sixth lines fall and
the others stay.

Given two checkouts, it runs each in its own subprocess
(``fingerprint.py --json <checkout>``, which prints the seven lines and each
toy run's and 2x4 strategy's outcome, final energy and loop LP solves, and
each 2x4 relaxed bound, as JSON).  It prints both sides' seven lines and
which of them differ, then compares the decisions by energy: both sides'
loop LP solves over those cases; how many of the cases both complete end
lower, higher (by more than a relative 1e-9) or equal in energy on the
change, with the median, min and max change/parent ratio; each higher case;
and each case whose outcome (completed, or the error type raised) differs.
It exits 1 when a case that completes on the parent raises on the change.

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

The JSON cases also hold ``relaxed_bound`` of each generated 2x4 instance,
named ``2x4 gen <seed> relaxed_bound``, with 0 loop LP solves, so the
comparison by energy covers the lower bound too.  The bound stays out of the
decisions hash, because its last bits follow the simplex's pivot path; its
iterations count in the sixth line.

The IIS cases are the all-on pinned problems of ``make_capacity_starved``
and ``make_compute_starved`` for seeds 0-49; each enters as its
``compute_iis`` constraint ids and families.  The third and fourth lines
are their hash and inner-solve total.

The fifth line splits the toy runs' LP solves by loop phase, so a change in
the total on the second line shows where it comes from.  Its
``fix_problems`` count includes the loop's IIS solves: one per repair whose
Farkas certificate's support verifies (``compute_iis(..., minimal=False)``),
so the count falls against a loop that runs the deletion sweep (510 against
2,807).  The IIS cases above call the default, minimal ``compute_iis``.

The sixth line is the total ``SimplexResult.iterations`` over every
``solve_dense`` call the cases above make, counted by a spy wrapped around
``solve_dense`` wherever an optiloop module has imported it.  A call that
restarts from an earlier optimum's tableau counts its primal and dual
simplex pivots and its bound flips, plus the cold solve's iterations when
the restart is discarded.  Two simplex kernels that pivot identically print
the same total, so a kernel change that must keep every pivot shows it as
one number.

The seventh line is one SHA-256 over ``lp.to_lp_text`` of the generator's
operator-scale default (42 endpoints x 51 nodes, ``rng_seed=123``), fully
relaxed and then all-on pinned: 33,039 rows by 53,071 columns.  Any change
to what ``lp.build_problem`` builds or to how ``lp.to_lp_text`` prints it
moves this line, whether or not a decision above moves.
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
OPERATOR_SEED = 123
LINES = ("decisions hash", "loop LP solves", "IIS hash", "IIS inner solves",
         "LP solves by phase", "simplex iterations", "operator-scale LP text hash")  # fmt: skip


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


def _ladder(gen_seed):
    """The generated 2x4 instance of generator seed ``gen_seed``."""
    from optiloop.scenario import GeneratorParams, generate

    return generate(GeneratorParams(n_endpoints=2, n_nodes=4, rng_seed=gen_seed))


def _ladder_runs():
    """(generator seed, result) of each strategy on the generated 2x4 instances."""
    from optiloop.baselines import all_active, consolidation, optiloop_strategy

    for gen_seed in LADDER_SEEDS:
        s = _ladder(gen_seed)
        for result in (optiloop_strategy(s, seed=0, rounds=ROUNDS), all_active(s),
                       consolidation(s)):  # fmt: skip
            yield gen_seed, result


def _bound_cases():
    """{case: ["ok", relaxed bound, 0]} of the generated 2x4 instances."""
    from optiloop.baselines import relaxed_bound

    return {
        f"2x4 gen {gen_seed} relaxed_bound": ["ok", relaxed_bound(_ladder(gen_seed)), 0]
        for gen_seed in LADDER_SEEDS
    }


def fingerprint():
    """Decisions hash, loop solve total and per-phase split of the toy runs,
    the ladder strategies and the CLI sweep, and the cases: {case: [outcome,
    final energy, loop LP solves]} over the toy runs and the ladder
    strategies, where a run that raised has the error type as its outcome
    and no energy."""
    from optiloop import cli
    from optiloop.model import energy_of

    digest = hashlib.sha256()
    solves = 0
    by_phase = dict.fromkeys(PHASES, 0)
    found = {}

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
        energy = energy_of(state.scenario, state.current).total if error is None else None
        found[f"toy {toy} seed {seed} x{factor}"] = [
            "ok" if error is None else type(error).__name__, energy, state.total_solves()
        ]

    for gen_seed, result in _ladder_runs():
        loop_solves = result.stats["lp_solves"] if result.name == "optiloop" else 0
        solves += loop_solves
        feed("strategy", gen_seed, result.name, _config(result.configuration),
             repr(result.energy), _without_solves(result.stats))  # fmt: skip
        found[f"2x4 gen {gen_seed} {result.name}"] = ["ok", result.energy.total, loop_solves]

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
    return digest.hexdigest(), solves, by_phase, found


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


def lp_text_fingerprint():
    """Hash of the operator-scale instance's LP text, relaxed and all-on
    pinned."""
    from optiloop import lp
    from optiloop.loop import _all_on, _assignment_modes
    from optiloop.scenario import GeneratorParams, generate

    s = generate(GeneratorParams(rng_seed=OPERATOR_SEED))
    p = lp.build_problem(s)
    digest = hashlib.sha256(lp.to_lp_text(p).encode())
    digest.update(lp.to_lp_text(lp._with_modes(p, _assignment_modes(p, *_all_on(s)))).encode())
    return digest.hexdigest()


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


def run():
    """The seven fingerprint lines and the cases of the imported checkout."""
    iterations = _count_iterations()
    digest, solves, by_phase, found = fingerprint()
    found.update(_bound_cases())
    iis_digest, iis_solves = iis_fingerprint()
    lines = [
        digest,
        f"loop LP solves: {solves}",
        iis_digest,
        f"IIS inner solves: {iis_solves}",
        "toy loop LP solves by phase: "
        + ", ".join(f"{phase} {n}" for phase, n in by_phase.items()),
        f"simplex iterations: {iterations[0]}",
        lp_text_fingerprint(),
    ]
    return lines, found


def _run_checkout(root):
    """{"lines": the seven lines, "cases": the cases} of the checkout at
    ``root``, run in a subprocess."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--json", str(root)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def compare(parent, change):
    """Lines giving both checkouts' fingerprint lines and which differ, and
    comparing their cases by final energy; and the number of cases that
    complete on the parent but raise on the change."""
    ran = _run_checkout(parent), _run_checkout(change)
    lines = []
    for side, out in zip(("parent", "change"), ran):
        lines += [f"{side}:"] + [f"  {line}" for line in out["lines"]]
    paired = zip(LINES, *(out["lines"] for out in ran))
    differ = [f"{n} ({name})" for n, (name, a, b) in enumerate(paired, 1) if a != b]
    lines.append(f"fingerprint lines that differ: {', '.join(differ) or 'none'}")
    before, after = (out["cases"] for out in ran)
    lines += [
        "loop LP solves over the toy runs and 2x4 strategies: "
        f"parent {sum(c[2] for c in before.values())}, "
        f"change {sum(c[2] for c in after.values())}"
    ]
    ratios, higher, broken = [], [], 0
    for case, (outcome, energy, _) in before.items():
        new_outcome, new_energy, _ = after[case]
        if outcome != new_outcome:
            lines.append(f"outcome differs: {case}: {outcome} -> {new_outcome}")
            broken += outcome == "ok"
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
    return lines + higher, broken


def _use_checkout(root):
    sys.path[:0] = [str(root / "src"), str(root / "tests")]


def main(argv):
    if len(argv) == 2 and argv[0] == "--json":
        _use_checkout(Path(argv[1]).resolve())
        lines, found = run()
        print(json.dumps({"lines": lines, "cases": found}))
        return 0
    if len(argv) == 2:
        lines, broken = compare(*(Path(arg).resolve() for arg in argv))
        print("\n".join(lines))
        return 1 if broken else 0
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    _use_checkout(Path(argv[0]).resolve())
    print("\n".join(run()[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
