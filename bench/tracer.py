"""Span recorder for the traced benchmark run.

The recorder wraps the calls into each optiloop module from outside; nothing
under ``src/`` is edited.  The modules import each other's functions by name
(``from .simplex import solve_dense``), so wrapping only the defining module
would miss most calls.  ``Tracer.install`` therefore replaces every binding of
each traced function in every loaded ``optiloop`` module, the package-level
re-exports included, and ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the index of
the enclosing span (-1 at the top of an operation), ``op`` the index of the
benchmark operation it belongs to, and ``info`` a small record read off the
call's arguments and return value (iterations, rows, status, ...).  Spans are
kept in memory and only reduced to metrics after the timed loop ends.  Spans
are recorded only while ``active`` is set, so instance preparation and the
correctness checks between operations leave no trace.
"""

import functools
import sys
import time

import numpy as np

# (module, function) pairs whose calls become spans; the span name is
# "<module>.<function>" and the module name is the layer name.
TRACED = (
    ("scenario", "generate"),
    ("scenario", "scale_demand"),
    ("scenario", "save_scenario"),
    ("scenario", "load_scenario"),
    ("model", "validate_configuration"),
    ("model", "energy_of"),
    ("lp", "build_problem"),
    ("lp", "solve"),
    ("lp", "to_lp_text"),
    ("simplex", "solve_dense"),
    ("iis", "compute_iis"),
    ("loop", "run_loop"),
    ("loop", "start_loop"),
    ("loop", "fix_problems"),
    ("loop", "save_energy"),
    ("baselines", "all_active"),
    ("baselines", "consolidation"),
    ("baselines", "exact_optimum"),
    ("baselines", "optiloop_strategy"),
    ("baselines", "relaxed_bound"),
    ("metrics", "run_experiment"),
    ("metrics", "compute_metrics"),
    ("metrics", "write_csv"),
    ("cli", "main"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _ in TRACED))

# Strategy spans whose StrategyResult.stats["lp_solves"] must equal the
# solve_dense spans beneath them.
STRATEGIES = (
    "baselines.all_active",
    "baselines.consolidation",
    "baselines.exact_optimum",
    "baselines.optiloop_strategy",
)


def _dense_info(args, kwargs, result):
    """Iterations plus the tableau shape solve_dense builds: one row per
    constraint row; one column per structural variable, per 'le' slack and
    per artificial (every 'eq' row and every 'le' row with negative rhs),
    plus the rhs column."""
    c, A, b, senses = args[:4]
    A = np.asarray(A)
    m = A.shape[0] if A.ndim == 2 else 0
    if m == 0:
        return (result.iterations, 0, 0)
    s = np.asarray(list(senses))
    le = s == "le"
    negative = np.asarray(b, dtype=float) < 0
    artificial = int(np.count_nonzero(~le | negative))
    cols = A.shape[1] + int(np.count_nonzero(le)) + artificial + 1
    return (result.iterations, m, cols)


def _problem_info(args, kwargs, result):
    nnz = sum(len(con.terms) for con in result.constraints)
    return (len(result.constraints), result.n_vars(), nnz)


def _save_energy_info(args, kwargs, result):
    """(probes accepted, probes tried) in one shutdown phase.  Every accepted
    probe is one deactivation; the phase ends on a rejected probe unless it
    switched everything off."""
    accepted = len(result.telemetry[-1]["deactivated"])
    cfg = result.current
    still_on = any(v == 1 for part in (cfg.x, cfg.y, cfg.delta) for v in part.values())
    return (accepted, accepted + (1 if still_on else 0))


def _loop_info(args, kwargs, result):
    return {
        "lp_solves": dict(result.lp_solves),
        "total_solves": result.total_solves(),
        "activations": result.activations,
        "deactivations": result.deactivations,
    }


def _strategy_info(args, kwargs, result):
    return dict(result.stats)


OBSERVERS = {
    "simplex.solve_dense": _dense_info,
    "lp.build_problem": _problem_info,
    "lp.solve": lambda a, k, r: r.status == "infeasible",
    "lp.to_lp_text": lambda a, k, r: len(r.encode("utf-8")),
    "iis.compute_iis": lambda a, k, r: (r.solves, len(r.constraint_ids)),
    "loop.run_loop": _loop_info,
    "loop.save_energy": _save_energy_info,
    **{name: _strategy_info for name in STRATEGIES},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.active = False
        self.op = -1
        self.sites = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                rec[5] = observe(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every binding of every traced function in loaded optiloop modules."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "optiloop" or name.startswith("optiloop.")
        }
        for layer, fname in TRACED:
            original = getattr(modules[f"optiloop.{layer}"], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for mname in sorted(modules):
                mod = modules[mname]
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                        self.sites.append(f"{mname}.{attr}")

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()


def _per_op(total, n):
    return total / n if n else 0.0


def summarize(spans, op_seconds, count_ops):
    """Reduce spans to the per-layer metrics.

    ``op_seconds`` maps each traced operation index to its wall time.  Time
    metrics are seconds per operation over all traced operations.  Count
    metrics (calls, iterations, sizes, ratios) come from the operations with
    index below ``count_ops`` only, a prefix that is the same in every run of
    a seed, so they repeat exactly.
    """
    n_ops = len(op_seconds)
    n_count = sum(1 for i in op_seconds if i < count_ops)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d

    total = {}
    self_total = {}
    calls = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    spanned = 0.0
    for i, s in enumerate(spans):
        name = s[0]
        total[name] = total.get(name, 0.0) + dur[i]
        own = dur[i] - child[i]
        self_total[name] = self_total.get(name, 0.0) + own
        layer_self[name.split(".", 1)[0]] += own
        if s[3] < 0:
            spanned += dur[i]
        if s[4] < count_ops:
            calls[name] = calls.get(name, 0) + 1

    counted = [s for s in spans if s[4] < count_ops]

    def infos(name):
        return [s[5] for s in counted if s[0] == name and s[5] is not None]

    def t(name):
        return _per_op(total.get(name, 0.0), n_ops)

    def c(name):
        return _per_op(calls.get(name, 0), n_count)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    dense = infos("simplex.solve_dense")
    problems = infos("lp.build_problem")
    iis = infos("iis.compute_iis")
    loops = infos("loop.run_loop")
    probes = infos("loop.save_energy")
    exact = infos("baselines.exact_optimum")
    solves = infos("lp.solve")
    texts = infos("lp.to_lp_text")
    tried = sum(p[1] for p in probes)

    m = {
        "scenario.generate.calls": c("scenario.generate"),
        "scenario.generate.s": t("scenario.generate"),
        "scenario.scale_demand.s": t("scenario.scale_demand"),
        "scenario.save_load.s": t("scenario.save_scenario") + t("scenario.load_scenario"),
        "model.validate_configuration.calls": c("model.validate_configuration"),
        "model.validate_configuration.s": t("model.validate_configuration"),
        "model.energy_of.calls": c("model.energy_of"),
        "model.energy_of.s": t("model.energy_of"),
        "lp.build_problem.calls": c("lp.build_problem"),
        "lp.build_problem.s": t("lp.build_problem"),
        "lp.rows": mean([p[0] for p in problems]),
        "lp.cols": mean([p[1] for p in problems]),
        "lp.nnz": mean([p[2] for p in problems]),
        "lp.solve.calls": c("lp.solve"),
        "lp.solve.s": t("lp.solve"),
        "lp.solve.self_s": _per_op(self_total.get("lp.solve", 0.0), n_ops),
        "lp.solve.infeasible_share": (sum(solves) / len(solves)) if solves else 0.0,
        "lp.to_lp_text.s": t("lp.to_lp_text"),
        "lp.to_lp_text.bytes": mean(texts),
        "simplex.solve_dense.calls": c("simplex.solve_dense"),
        "simplex.solve_dense.s": t("simplex.solve_dense"),
        "simplex.iterations": _per_op(sum(d[0] for d in dense), n_count),
        "simplex.pivot_cells": _per_op(sum(d[0] * d[1] * d[2] for d in dense), n_count),
        "iis.compute_iis.calls": c("iis.compute_iis"),
        "iis.compute_iis.s": t("iis.compute_iis"),
        "iis.compute_iis.self_s": _per_op(self_total.get("iis.compute_iis", 0.0), n_ops),
        "iis.inner_solves": _per_op(sum(r[0] for r in iis), n_count),
        "iis.size": mean([r[1] for r in iis]),
        "loop.start_loop.s": t("loop.start_loop"),
        "loop.fix_problems.calls": c("loop.fix_problems"),
        "loop.fix_problems.s": t("loop.fix_problems"),
        "loop.save_energy.calls": c("loop.save_energy"),
        "loop.save_energy.s": t("loop.save_energy"),
        "loop.lp_solves.fix_problems": _per_op(
            sum(r["lp_solves"].get("fix_problems", 0) for r in loops), n_count
        ),
        "loop.lp_solves.save_energy": _per_op(
            sum(r["lp_solves"].get("save_energy", 0) for r in loops), n_count
        ),
        "loop.activations": _per_op(sum(r["activations"] for r in loops), n_count),
        "loop.deactivations": _per_op(sum(r["deactivations"] for r in loops), n_count),
        "loop.probe_accept_ratio": (sum(p[0] for p in probes) / tried) if tried else 0.0,
        "baselines.all_active.s": t("baselines.all_active"),
        "baselines.consolidation.s": t("baselines.consolidation"),
        "baselines.exact_optimum.s": t("baselines.exact_optimum"),
        "baselines.exact_optimum.assignments": _per_op(
            sum(r["assignments"] for r in exact), n_count
        ),
        "baselines.exact_optimum.pruned": _per_op(sum(r["pruned"] for r in exact), n_count),
        "baselines.optiloop_strategy.s": t("baselines.optiloop_strategy"),
        "baselines.relaxed_bound.s": t("baselines.relaxed_bound"),
        "metrics.run_experiment.s": t("metrics.run_experiment"),
        "metrics.compute_metrics.s": t("metrics.compute_metrics"),
        "metrics.write_csv.s": t("metrics.write_csv"),
        "cli.main.s": t("cli.main"),
    }
    op_total = sum(op_seconds.values())
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _per_op(layer_self[layer], n_ops)
        m[f"{layer}.self_share"] = layer_self[layer] / op_total if op_total else 0.0
    m["unspanned.s"] = _per_op(op_total - spanned, n_ops)
    m["trace.spans"] = _per_op(len(counted), n_count)
    checks, mismatches = cross_check(spans)
    m["trace.counter_checks"] = checks
    m["trace.counter_mismatches"] = mismatches
    return m


def cross_check(spans):
    """Compare solve_dense spans with the program's own solve counters.

    Under every strategy span the solve_dense spans must number
    ``StrategyResult.stats["lp_solves"]``, and under every run_loop span
    ``LoopState.total_solves()``.  Returns (checks made, mismatches).
    """
    below = [0] * len(spans)
    for s in spans:
        if s[0] == "simplex.solve_dense":
            p = s[3]
            while p >= 0:
                below[p] += 1
                p = spans[p][3]
    checks = mismatches = 0
    for i, s in enumerate(spans):
        if s[5] is None:
            continue
        if s[0] in STRATEGIES:
            want = s[5]["lp_solves"]
        elif s[0] == "loop.run_loop":
            want = s[5]["total_solves"]
        else:
            continue
        checks += 1
        mismatches += below[i] != want
    return checks, mismatches
