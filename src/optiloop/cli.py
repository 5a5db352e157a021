"""Command-line front end.

    optiloop run --scenario net.json --factors 0.5,1,2 \
        --strategies all_active,optiloop --seeds 0,1 --out results.csv

Exit codes: 0 success, 2 scenario parse error, malformed argument or unknown
OPTILOOP_LOG level (before any strategy runs), 3 infeasible instance, 4
enumeration budget exceeded, 5 any other optiloop error (e.g. an instance too
large for the built-in solver, a solver stall, a diverged repair, a failed
generation or a broken loop invariant).  Every error exit prints one
``error:`` line to stderr and no traceback.  Set OPTILOOP_LOG=DEBUG|INFO|WARNING
to control log verbosity (telemetry lines are logged at INFO).
"""

import argparse
import logging
import math
import os
import sys

from .errors import (
    BudgetExceeded,
    InstanceInfeasible,
    OptiloopError,
    ScenarioFormatError,
)
from .metrics import STRATEGIES, ExperimentConfig, run_experiment
from .scenario import GeneratorParams

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4
EXIT_ERROR = 5


def _floats(text):
    return tuple(float(tok) for tok in text.split(",") if tok)


def _ints(text):
    return tuple(int(tok) for tok in text.split(",") if tok)


def _names(text):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def build_parser():
    parser = argparse.ArgumentParser(
        prog="optiloop",
        description="Energy-aware activation, placement and routing benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run strategies over a scenario and emit CSV")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="scenario JSON file")
    src.add_argument(
        "--generate", action="store_true", help="synthesize a scenario instead"
    )
    run.add_argument("--seed", type=int, default=0, help="generator seed")
    run.add_argument("--gen-endpoints", type=int, default=None)
    run.add_argument("--gen-nodes", type=int, default=None)
    run.add_argument("--gen-attachments", type=int, default=None)
    run.add_argument("--gen-node-capacity", type=float, default=None)
    run.add_argument("--gen-core-capacity", type=float, default=None)
    run.add_argument("--gen-endpoint-capacity", type=float, default=None)
    run.add_argument("--gen-demand", type=_floats, default=None, help="lo,hi bit/s")
    run.add_argument("--factors", type=_floats, default=(1.0,))
    run.add_argument(
        "--strategies",
        type=_names,
        default=("all_active", "consolidation", "optiloop", "exact"),
    )
    run.add_argument("--seeds", type=_ints, default=(0,), help="strategy rng seeds")
    run.add_argument("--rounds", type=int, default=3, help="control loop rounds")
    run.add_argument("--oracle-budget", type=int, default=200000)
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument(
        "--timings", action="store_true", help="append a wall_time_s column (non-reproducible)"
    )
    return parser


def _generator_params(args):
    kwargs = {"rng_seed": args.seed}
    if args.gen_endpoints is not None:
        kwargs["n_endpoints"] = args.gen_endpoints
    if args.gen_nodes is not None:
        kwargs["n_nodes"] = args.gen_nodes
    if args.gen_attachments is not None:
        kwargs["attachments_per_endpoint"] = args.gen_attachments
    if args.gen_node_capacity is not None:
        kwargs["node_processing_capacity"] = args.gen_node_capacity
    if args.gen_core_capacity is not None:
        kwargs["core_link_capacity"] = args.gen_core_capacity
    if args.gen_endpoint_capacity is not None:
        kwargs["endpoint_link_capacity"] = args.gen_endpoint_capacity
    if args.gen_demand is not None:
        kwargs["endpoint_demand_range"] = args.gen_demand
    return GeneratorParams(**kwargs)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    level = os.environ.get("OPTILOOP_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        parser.error(f"OPTILOOP_LOG={level!r} is not a log level (DEBUG, INFO, WARNING, ...)")
    logging.basicConfig(level=level, format="%(message)s")
    for name in ("factors", "seeds", "strategies"):
        if not getattr(args, name):
            parser.error(f"--{name} takes at least one value")
    if min(args.seed, args.rounds, *args.seeds) < 0:
        parser.error("--seed, --seeds and --rounds take nonnegative integers")
    if args.gen_demand is not None and len(args.gen_demand) != 2:
        parser.error("--gen-demand takes two numbers, lo,hi")
    if args.oracle_budget < 1:
        parser.error("--oracle-budget takes a positive integer")
    if not all(0.0 < f < math.inf for f in args.factors):
        parser.error("--factors takes finite positive numbers")
    unknown = [name for name in args.strategies if name not in STRATEGIES]
    if unknown:
        parser.error(f"unknown strategy {unknown[0]!r} (known: {', '.join(STRATEGIES)})")
    if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        parser.error(f"--out {args.out!r}: no such directory")
    try:
        config = ExperimentConfig(
            scenario_path=args.scenario,
            generator=None if args.scenario else _generator_params(args),
            strategies=args.strategies,
            factors=args.factors,
            seeds=args.seeds,
            rounds=args.rounds,
            oracle_budget=args.oracle_budget,
            out=args.out,
            include_timings=args.timings,
        )
        rows = run_experiment(config)
    except ScenarioFormatError as exc:
        loc = f" (line {exc.line}, column {exc.column})" if exc.line else ""
        print(f"error: {exc}{loc}", file=sys.stderr)
        return EXIT_PARSE
    except InstanceInfeasible as exc:
        ctx = f" [{exc.context}]" if exc.context else ""
        print(f"error: instance infeasible{ctx}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OptiloopError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
