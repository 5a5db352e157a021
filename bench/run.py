"""optiloop benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a source checkout; the package is imported from
``src/``.  One run sets up, measures closed-loop operations of one workload
in whole passes over its corpus for about ``--seconds`` (at least one pass),
checks every operation's output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with times
normalized for machine speed (speed.py); with ``--trace 1`` they are the
per-layer ones from a traced run.  The line before it is the
environment record, and ``bench/out/<workload>-seed<n>-trace<t>.json`` holds
both plus every operation's wall time.  ``--workload all`` runs each
workload in its own process and prints every end-to-end metric by name and
unit.  See README.md here for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# Wall-time cap on the measuring loop, so a much slower program still ends a
# run well inside three minutes.  A run cut by it ends inside its first pass.
HARD_STOP_S = 140.0
WORKLOAD_NAMES = ("corpus_sweep", "demand_shift", "ladder_2x4", "operator_build")


def _import_package():
    """Import optiloop from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "optiloop" / "__init__.py").is_file():
        sys.exit(f"error: no optiloop sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import optiloop

    if Path(optiloop.__file__).resolve().parent != (src / "optiloop").resolve():
        sys.exit(f"error: imported optiloop from {optiloop.__file__}, not {src}")
    return optiloop


def _workdir(name):
    path = HERE / "out" / f"work-{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_probe(name, seed):
    """One set-up as a user pays it in a fresh process: import, drawing the
    workload's corpus, and a warm-up operation."""
    t0 = time.perf_counter()
    _import_package()
    from workloads import WORKLOADS

    work = WORKLOADS[name](seed, _workdir(name))
    work.warmup()
    elapsed = time.perf_counter() - t0
    _cleanup(work.workdir)
    return elapsed


def measure_setup(name, seed):
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )  # fmt: skip
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times), times


def environment(seed, optiloop):
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps.get(k) for k in ("blas", "lapack")}
    except Exception as exc:  # numpy builds differ in what they report
        blas = f"unavailable: {exc!r}"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "optiloop": optiloop.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _timed(work, inp):
    t = time.perf_counter()
    out = work.op(inp)
    return out, time.perf_counter() - t


def measure(work, seconds, tracer, speed):
    """The closed loop over whole passes of the corpus.  Another pass starts
    only if it is expected to end nearer to ``seconds`` than stopping now."""
    records = []
    start = time.perf_counter()
    n = work.corpus_size
    index = 0
    while True:
        for _ in range(n):
            speed.sample()
            records.append(_operation(work, index, tracer))
            index += 1
            if time.perf_counter() - start >= HARD_STOP_S:
                return records
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / (index // n) >= seconds:
            return records


def _operation(work, index, tracer):
    inp = work.prepare(index)
    rec = {"index": index, "ok": False, "quality": None}
    t_op = time.perf_counter()
    try:
        if tracer is None:
            out, rec["s"] = _timed(work, inp)
        else:
            out = _traced_op(work, inp, index, tracer, rec)
        rec["ok"], rec["quality"] = work.check(index, inp, out)
    except Exception as exc:  # an operation that raises is a failed one
        print(f"op {index} failed: {exc!r}", file=sys.stderr)
        rec.setdefault("s", time.perf_counter() - t_op)
    return rec


def _traced_op(work, inp, index, tracer, rec):
    tracer.op = index
    # The first pass also runs untraced, on the same inputs, to measure the
    # tracing overhead; alternate which side goes first.
    if index < work.corpus_size:
        order = (False, True) if index % 2 == 0 else (True, False)
    else:
        order = (True,)
    for traced in order:
        tracer.active = traced
        try:
            out, dt = _timed(work, inp)
        finally:
            tracer.active = False
        rec["s" if traced else "untraced_s"] = dt
    return out


def _quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(records, setup_s, factor):
    """End-to-end metrics; ``factor`` scales every wall time (see speed.py)."""
    from workloads import quality

    times = [r["s"] * factor for r in records]
    ok = sum(1 for r in records if r["ok"])
    m = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": _quantile(times, 90),
        "setup_s": setup_s * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": ok / len(records),
    }
    graded = [r["quality"] for r in records if r["quality"] is not None]
    if graded:
        m["energy_ratio_vs_exact"], m["energy_ratio_vs_all_active"] = quality(graded)
    else:
        # operator_build solves nothing; 1.0 is the neutral ratio.
        m["energy_ratio_vs_exact"] = m["energy_ratio_vs_all_active"] = 1.0
    return m


def run_one(args):
    optiloop = _import_package()
    from workloads import WORKLOADS

    import tracer as tracing
    from speed import Speed

    env = environment(args.seed, optiloop)
    setup_s, setup_samples = measure_setup(args.workload, args.seed)
    work = WORKLOADS[args.workload](args.seed, _workdir(args.workload))
    work.warmup()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    speed = Speed()
    try:
        records = measure(work, args.seconds, tracer, speed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Quality comes from the first pass only.
    for r in records:
        if r["index"] >= work.corpus_size:
            r["quality"] = None
    failed = sum(1 for r in records if not r["ok"])
    e2e = end_to_end(records, setup_s, speed.factor())
    if tracer is None:
        metrics = e2e
        layer = None
    else:
        op_seconds = {r["index"]: r["s"] for r in records}
        layer = tracing.summarize(tracer.spans, op_seconds, work.corpus_size)
        pairs = [r for r in records if "untraced_s" in r]
        layer["trace.op_s"] = statistics.fmean(op_seconds.values())
        layer["trace.overhead_share"] = (
            sum(r["s"] for r in pairs) / sum(r["untraced_s"] for r in pairs) - 1.0
        )
        metrics = layer
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "corpus_size": work.corpus_size,
        "env": env,
        "setup_samples_s": setup_samples,
        "end_to_end": e2e,
        "end_to_end_raw": end_to_end(records, setup_s, 1.0),
        "reference_kernel_s": speed.samples,
        "per_layer": layer,
        "traced_sites": tracer.sites if tracer is not None else None,
        "ops": [{k: v for k, v in r.items() if k != "quality"} for r in records],
        "result": result,
    }
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    _cleanup(work.workdir)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


def _cleanup(path):
    for f in path.iterdir():
        f.unlink()
    path.rmdir()


def run_all(args):
    """Every workload in its own process; every end-to-end metric by name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )  # fmt: skip
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            print(f"{name:16s} {metric:28s} {v['value']:14.6g} {v['unit']}")
            merged["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(merged, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
    elif args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
