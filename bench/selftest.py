"""Self-test of the benchmark itself.

    python3 bench/selftest.py [--seed N]

Runs every workload twice with the same seed as a traced run (the shortest
run each workload allows, about three minutes in all) and checks that:

* every operation passes its correctness checks;
* the exact counts and both quality metrics are identical between the two
  runs, so a later count-based claim can rest on them;
* the solve_dense spans equal the program's own solve counters;
* the traced run wrapped every binding site the modules import by name;
* the per-layer shares agree with the interaction table in README.md: IIS
  work only on demand_shift, no simplex work on operator_build, and the
  simplex as the largest self time on ladder_2x4.

Exits 1 and lists what failed if any check fails.
"""

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOAD_NAMES

EXACT_COUNTS = (
    "simplex.iterations",
    "simplex.pivot_cells",
    "lp.rows",
    "lp.cols",
    "lp.nnz",
    "iis.inner_solves",
    "loop.lp_solves.fix_problems",
    "loop.lp_solves.save_energy",
)
QUALITY = ("energy_ratio_vs_exact", "energy_ratio_vs_all_active")

# Binding sites a wrapper on the defining module alone would miss.
REQUIRED_SITES = (
    "optiloop.lp.solve_dense",
    "optiloop.iis.solve_dense",
    "optiloop.lp.solve",
    "optiloop.iis.solve",
    "optiloop.loop.compute_iis",
    "optiloop.loop.energy_of",
    "optiloop.loop.validate_configuration",
    "optiloop.baselines.energy_of",
    "optiloop.metrics.generate",
    "optiloop.metrics.scale_demand",
    "optiloop.cli.run_experiment",
    "optiloop.baselines.run_loop",
    "optiloop.run_loop",
    "optiloop.generate",
    "optiloop.build_problem",
    "optiloop.solve",
    "optiloop.compute_iis",
    "optiloop.energy_of",
    "optiloop.validate_configuration",
    "optiloop.all_active",
    "optiloop.exact_optimum",
    "optiloop.optiloop_strategy",
    "optiloop.relaxed_bound",
)


def traced_run(workload, seed):
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=300,
    )  # fmt: skip
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())


def check_workload(name, first, second):
    problems = []
    for label, run in (("first", first), ("second", second)):
        res = run["result"]
        if not res["correct"] or res["failed"]:
            problems.append(f"{label} run: {res['failed']} of {res['attempted']} ops failed")
        layer = run["per_layer"]
        if layer["trace.counter_mismatches"]:
            problems.append(f"{label} run: {layer['trace.counter_mismatches']} counter mismatches")
    for key in EXACT_COUNTS:
        if first["per_layer"][key] != second["per_layer"][key]:
            problems.append(f"{key} differs: {first['per_layer'][key]} vs {second['per_layer'][key]}")
    for key in QUALITY:
        if first["end_to_end"][key] != second["end_to_end"][key]:
            problems.append(f"{key} differs: {first['end_to_end'][key]} vs {second['end_to_end'][key]}")
    missing = sorted(set(REQUIRED_SITES) - set(first["traced_sites"]))
    if missing:
        problems.append(f"binding sites not traced: {missing}")

    layer = first["per_layer"]
    if name != "operator_build" and not layer["trace.counter_checks"]:
        problems.append("no strategy or run_loop span to cross-check")
    if (layer["iis.compute_iis.calls"] > 0) != (name == "demand_shift"):
        problems.append(f"iis.compute_iis.calls is {layer['iis.compute_iis.calls']}")
    if (layer["simplex.solve_dense.calls"] == 0) != (name == "operator_build"):
        problems.append(f"simplex.solve_dense.calls is {layer['simplex.solve_dense.calls']}")
    if name == "ladder_2x4":
        selfs = {k: v for k, v in layer.items() if k.endswith(".self_s") and k.count(".") == 1}
        top = max(selfs, key=selfs.get)
        if top != "simplex.self_s":
            problems.append(f"largest self time is {top}, not simplex")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    failed = False
    for name in WORKLOAD_NAMES:
        first = traced_run(name, args.seed)
        second = traced_run(name, args.seed)
        problems = check_workload(name, first, second)
        shares = {
            k.split(".")[0]: round(v, 3)
            for k, v in first["per_layer"].items()
            if k.endswith(".self_share") and v > 0
        }
        overhead = first["per_layer"]["trace.overhead_share"]
        print(f"{name}: {'FAIL' if problems else 'ok'}  self shares {shares}  "
              f"tracing overhead {overhead:+.3f}")  # fmt: skip
        for p in problems:
            print(f"  - {p}")
        failed |= bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
