"""LP-in-the-loop control strategy.

The loop keeps a feasible operating point at all times.  It starts from the
everything-on solution (if any feasible point exists, one exists with every
node, link and instance active, so failure there condemns the instance).
Each round then runs two procedures:

* ``fix_problems`` repairs a configuration that no longer fits the demand:
  solve with all binaries pinned; while infeasible, look at which
  constraint family sits in the IIS.  Link capacity present: relax the
  inactive link/node binaries, solve, and activate one link drawn with
  probability proportional to its relaxed value (plus its node ends).
  Compute capacity present: same with node/placement binaries, activating
  one (node, function) pair drawn proportionally to its relaxed value.

* ``save_energy`` hunts for shutdowns: fix inactive binaries at 0, relax
  active ones, solve, then probe the single active element (link, node or
  placement) with the smallest relaxed value by pinning it to 0 and
  re-solving.  A feasible probe is adopted and the hunt restarts; the
  first rejected probe ends the phase.  Deactivating a node cascades to
  its incident links and hosted instances.  An adopted probe's LP is the
  next guidance LP, so its solution guides the next probe without another
  solve; and a phase that starts where the previous one stopped on a
  rejected probe is skipped, since it would only repeat that rejection.

Ties in the probe argmin are broken link > node > placement, then
lexicographically.  All randomness comes from one seeded generator, so runs
are bit-reproducible.  Each phase emits one JSON telemetry line through the
``optiloop.loop`` logger; its ``lp_solves`` counts the solves performed.
A broken loop invariant raises ``InvariantBroken``.
"""

import json
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import lp
from .errors import InstanceInfeasible, InvariantBroken, RepairDiverged
from .iis import compute_iis
from .model import NetworkConfiguration, energy_of, validate_configuration

logger = logging.getLogger("optiloop.loop")

__all__ = [
    "LoopState",
    "initial_solution",
    "start_loop",
    "fix_problems",
    "save_energy",
    "run_loop",
    "weighted_choice",
]


@dataclass(eq=False)
class LoopState:
    scenario: object
    current: NetworkConfiguration
    rng_seed: int
    rng: np.random.Generator
    base_problem: lp.LpProblem
    round_index: int = 0
    lp_solves: dict = field(default_factory=dict)
    activations: int = 0
    deactivations: int = 0
    telemetry: list = field(default_factory=list)
    # (base_problem, x, y, delta) where the last shutdown phase stopped on a
    # rejected probe; None when it stopped for any other reason.
    shutdown_stop: tuple = None

    def count_solves(self, phase, n=1):
        self.lp_solves[phase] = self.lp_solves.get(phase, 0) + n

    def total_solves(self):
        return sum(self.lp_solves.values())


def _guidance(p, placements="pin"):
    """Copy of the problem with tiny tie-breaking costs on binary columns.

    Relaxed binaries with no energy cost of their own (links always, and
    placements when instance power is zero) otherwise float anywhere
    between their utilization and 1 at an optimal vertex, making the
    relaxed values useless as guidance.  Link and node variables always get
    a positive epsilon, pinning them to the lowest value the flows admit
    (their utilization).

    Placement variables are steered per caller:

    * ``pin``: positive epsilon, value settles at utilization.  The repair
      procedure samples new deployments proportionally to these, so the
      per-pair demand signal matters.
    * ``ceil``: negative (and much smaller) epsilon, value rides up to its
      hosting node's.  The shutdown procedure compares placements against
      links and nodes with a strict argmin; utilization-valued placements
      on large nodes would always win that comparison and get stripped one
      by one, trading nothing (they cost no power) for degraded routing.
      At the ceiling they never undercut their own node, and instances are
      reclaimed when their node is.
    """
    eps = 1e-6 * (1.0 + float(np.max(np.abs(p.objective), initial=0.0)))
    objective = p.objective.copy()
    for ref, pos in p.var_index.items():
        if ref.kind in ("x", "y"):
            objective[pos] += eps
        elif ref.kind == "delta":
            objective[pos] += eps if placements == "pin" else -eps / 100.0
    return replace(p, objective=objective)


def weighted_choice(rng, items, weights):
    """Pick one item with probability proportional to its weight.

    Zero-weight items are excluded unless every weight is zero, in which
    case the choice is uniform.  One rng draw per call.
    """
    if not items:
        raise ValueError("weighted_choice on empty candidate list")
    w = np.asarray(weights, dtype=float)
    w = np.where(w > 0.0, w, 0.0)
    total = w.sum()
    u = rng.random()
    if total <= 0.0:
        return items[min(int(u * len(items)), len(items) - 1)]
    cum = np.cumsum(w / total)
    idx = int(np.searchsorted(cum, u, side="right"))
    return items[min(idx, len(items) - 1)]


# ---------------------------------------------------------------------------
# Binary assignment helpers


def _assignment_modes(p, x, y, delta):
    modes = {}
    for ref in p.variables:
        if ref.kind == "x":
            modes[ref] = lp.fixed(x.get(ref.index, 0))
        elif ref.kind == "y":
            modes[ref] = lp.fixed(y.get(ref.index[0], 0))
        elif ref.kind == "delta":
            modes[ref] = lp.fixed(delta.get(ref.index, 0))
    return modes


def _configuration(s, x, y, delta, solution):
    """Bundle pinned binaries with the flows of an LP solution."""
    scale = max(1.0, lp._flow_scale(s))
    thresh = 1e-12 * scale
    tau, transit, processed = {}, {}, {}
    for ref, val in solution.values.items():
        if ref.kind not in lp.FLOW_KINDS:
            continue
        val = max(val, 0.0)
        if val <= thresh:
            continue
        if ref.kind == "tau":
            tau[ref.index] = val
        elif ref.kind == "transit":
            transit[ref.index] = val
        else:
            processed[ref.index] = val
    return NetworkConfiguration(dict(x), dict(y), dict(delta), tau, transit, processed)


def _all_on(s):
    x = {lk: 1 for lk in s.link_ids()}
    y = {c: 1 for c in s.node_ids()}
    delta = {(c, v): 1 for c in s.node_ids() for v in s.vnf_ids()}
    return x, y, delta


def initial_solution(s, problem=None):
    """Feasible starting point with everything switched on.

    Raises InstanceInfeasible when even the all-on assignment admits no
    flow routing, which condemns the instance as a whole.
    """
    p = problem if problem is not None else lp.build_problem(s)
    x, y, delta = _all_on(s)
    sol = lp.solve(lp._with_modes(p, _assignment_modes(p, x, y, delta)))
    if sol.status != "optimal":
        raise InstanceInfeasible("no feasible routing exists with every element active")
    return _configuration(s, x, y, delta, sol)


def start_loop(s, seed):
    p = lp.build_problem(s)
    cfg = initial_solution(s, p)
    state = LoopState(
        scenario=s,
        current=cfg,
        rng_seed=int(seed),
        rng=np.random.default_rng(int(seed)),
        base_problem=p,
    )
    state.count_solves("initial")
    _emit(state, "initial", energy_before=None, activated=[], deactivated=[])
    return state


def _emit(state, phase, energy_before, activated, deactivated, solves=None):
    energy = energy_of(state.scenario, state.current).total
    record = {
        "phase": phase,
        "round": state.round_index,
        "lp_solves": state.lp_solves.get(phase, 0) if solves is None else solves,
        "activated": [list(map(str, a)) for a in activated],
        "deactivated": [list(map(str, d)) for d in deactivated],
        "energy_before": energy_before,
        "energy_after": energy,
    }
    state.telemetry.append(record)
    logger.info(json.dumps(record, sort_keys=True))


# ---------------------------------------------------------------------------
# fix_problems


def fix_problems(state):
    """Restore feasibility by activating elements, guided by relaxed solves."""
    s = state.scenario
    p0 = state.base_problem
    cfg = state.current
    x = dict(cfg.x)
    y = dict(cfg.y)
    delta = dict(cfg.delta)
    energy_before = energy_of(s, cfg).total
    cap = len(s.link_ids()) + len(s.node_ids()) * len(s.vnf_ids())
    activated = []
    solves_at_entry = state.lp_solves.get("fix_problems", 0)

    fixed_p = lp._with_modes(p0, _assignment_modes(p0, x, y, delta))
    sol = lp.solve(fixed_p)
    state.count_solves("fix_problems")

    while sol.status != "optimal":
        report = compute_iis(fixed_p)
        state.count_solves("fix_problems", report.solves)
        progressed = False
        exhausted = False

        if 4 in report.families:
            candidates = [lk for lk in s.link_ids() if x.get(lk, 0) == 0]
            if not candidates:
                exhausted = True
            else:
                relax_modes = {lp.VarRef("x", lk): lp.RELAXED for lk in candidates}
                relax_modes.update(
                    {
                        lp.VarRef("y", (c,)): lp.RELAXED
                        for c in s.node_ids()
                        if y.get(c, 0) == 0
                    }
                )
                guide = lp.solve(_guidance(lp._with_modes(fixed_p, relax_modes)))
                state.count_solves("fix_problems")
                weights = [
                    guide.values.get(lp.VarRef("x", lk), 0.0) if guide.is_feasible else 0.0
                    for lk in candidates
                ]
                pick = weighted_choice(state.rng, candidates, weights)
                x[pick] = 1
                for end in pick:
                    if end in s.physical.nodes:
                        y[end] = 1
                activated.append(("link", pick))
                state.activations += 1
                progressed = True
                fixed_p = lp._with_modes(p0, _assignment_modes(p0, x, y, delta))

        if 7 in report.families:
            candidates = [
                (c, v)
                for c in s.node_ids()
                for v in s.vnf_ids()
                if delta.get((c, v), 0) == 0
            ]
            if not candidates:
                exhausted = exhausted or not progressed
            else:
                relax_modes = {
                    lp.VarRef("delta", pair): lp.RELAXED for pair in candidates
                }
                relax_modes.update(
                    {
                        lp.VarRef("y", (c,)): lp.RELAXED
                        for c in s.node_ids()
                        if y.get(c, 0) == 0
                    }
                )
                guide = lp.solve(_guidance(lp._with_modes(fixed_p, relax_modes)))
                state.count_solves("fix_problems")
                if guide.is_feasible:
                    weights = [
                        guide.values.get(lp.VarRef("delta", pair), 0.0)
                        for pair in candidates
                    ]
                else:
                    weights = [0.0] * len(candidates)
                if not any(w > 0.0 for w in weights):
                    # uniform fallback, restricted to nodes that can host
                    hostable = [
                        pair for pair in candidates if s.physical.nodes[pair[0]].compute > 0
                    ]
                    if hostable:
                        candidates = hostable
                        weights = [0.0] * len(candidates)
                pick = weighted_choice(state.rng, candidates, weights)
                c, v = pick
                y[c] = 1
                delta[pick] = 1
                activated.append(("placement", pick))
                state.activations += 1
                progressed = True
                fixed_p = lp._with_modes(p0, _assignment_modes(p0, x, y, delta))

        if not progressed:
            if exhausted:
                raise InstanceInfeasible(
                    "repair exhausted activatable elements", context="fix_problems"
                )
            raise RepairDiverged(
                f"IIS families {sorted(report.families)} offer no repair action"
            )
        if len(activated) > cap:
            raise RepairDiverged(f"exceeded activation cap of {cap}")

        sol = lp.solve(fixed_p)
        state.count_solves("fix_problems")

    state.current = _configuration(s, x, y, delta, sol)
    _emit(
        state,
        "fix_problems",
        energy_before,
        activated,
        [],
        solves=state.lp_solves["fix_problems"] - solves_at_entry,
    )
    return state


# ---------------------------------------------------------------------------
# save_energy


def _argmin(values):
    """(value, key) minimum with lexicographic key tie-break; None if empty."""
    best = None
    for key in sorted(values):
        v = values[key]
        if best is None or v < best[0] - 1e-15:
            best = (v, key)
    return best


def save_energy(state):
    """Deactivate elements one probe at a time until a probe fails."""
    s = state.scenario
    p0 = state.base_problem
    cfg = state.current
    x = dict(cfg.x)
    y = dict(cfg.y)
    delta = dict(cfg.delta)
    energy_before = energy_of(s, cfg).total
    stop = state.shutdown_stop
    if stop is not None and stop[0] is p0 and stop[1:] == (x, y, delta):
        # No randomness below: the same start repeats the same rejection.
        _emit(state, "save_energy", energy_before, [], [], solves=0)
        return state
    state.shutdown_stop = None
    deactivated = []
    solves_at_entry = state.lp_solves.get("save_energy", 0)
    guard = sum(x.values()) + sum(y.values()) + sum(delta.values()) + 2
    guide = None

    for _ in range(guard):
        active_links = [lk for lk in s.link_ids() if x.get(lk, 0) == 1]
        active_nodes = [c for c in s.node_ids() if y.get(c, 0) == 1]
        deployed = [pair for pair in sorted(delta) if delta[pair] == 1]
        if not (active_links or active_nodes or deployed):
            break

        if guide is None:
            modes = {}
            for lk in s.link_ids():
                modes[lp.VarRef("x", lk)] = (
                    lp.RELAXED if x.get(lk, 0) == 1 else lp.fixed(0)
                )
            for c in s.node_ids():
                modes[lp.VarRef("y", (c,))] = (
                    lp.RELAXED if y.get(c, 0) == 1 else lp.fixed(0)
                )
                for v in s.vnf_ids():
                    modes[lp.VarRef("delta", (c, v))] = (
                        lp.RELAXED if delta.get((c, v), 0) == 1 else lp.fixed(0)
                    )
            relaxed_p = _guidance(lp._with_modes(p0, modes), placements="ceil")
            guide = lp.solve(relaxed_p)
            state.count_solves("save_energy")
            if not guide.is_feasible:
                raise InvariantBroken(
                    f"shutdown guidance LP is {guide.status} at a feasible operating point"
                )

        best_link = _argmin(
            {lk: guide.values[lp.VarRef("x", lk)] for lk in active_links}
        )
        best_node = _argmin(
            {c: guide.values[lp.VarRef("y", (c,))] for c in active_nodes}
        )
        best_dep = _argmin(
            {pair: guide.values[lp.VarRef("delta", pair)] for pair in deployed}
        )
        ranked = []
        if best_link:
            ranked.append((best_link[0], 0, "link", best_link[1]))
        if best_node:
            ranked.append((best_node[0], 1, "node", best_node[1]))
        if best_dep:
            ranked.append((best_dep[0], 2, "placement", best_dep[1]))
        _, _, kind, target = min(ranked, key=lambda r: (r[0], r[1]))

        probe_modes = {}
        if kind == "link":
            probe_modes[lp.VarRef("x", target)] = lp.fixed(0)
        elif kind == "node":
            probe_modes[lp.VarRef("y", (target,))] = lp.fixed(0)
            for lk in s.link_ids():
                if target in lk:
                    probe_modes[lp.VarRef("x", lk)] = lp.fixed(0)
            for v in s.vnf_ids():
                probe_modes[lp.VarRef("delta", (target, v))] = lp.fixed(0)
        else:
            probe_modes[lp.VarRef("delta", target)] = lp.fixed(0)

        probe_p = lp._with_modes(relaxed_p, probe_modes)
        probe = lp.solve(probe_p)
        state.count_solves("save_energy")
        if not probe.is_feasible:
            state.shutdown_stop = (p0, x, y, delta)
            break

        before_binaries = (dict(x), dict(y), dict(delta))
        if kind == "link":
            x[target] = 0
        elif kind == "node":
            y[target] = 0
            for lk in list(x):
                if target in lk:
                    x[lk] = 0
            for pair in list(delta):
                if pair[0] == target:
                    delta[pair] = 0
        else:
            delta[target] = 0
        state.current = _configuration(s, x, y, delta, probe)
        # Holding flows at the probe's solution, removing an element can only
        # drop nonnegative terms from the energy sum.
        held = _configuration(s, *before_binaries, probe)
        after, limit = energy_of(s, state.current).total, energy_of(s, held).total
        if after > limit + 1e-9:
            raise InvariantBroken(
                f"deactivating {kind} {target} raised the energy at held flows "
                f"from {limit!r} to {after!r}"
            )
        deactivated.append((kind, target))
        state.deactivations += 1
        # The probe's LP is the guidance LP of the new binaries: every pinned
        # element is fixed at 0, the rest relaxed, same objective.
        relaxed_p, guide = probe_p, probe

    if deactivated:
        # The probe's flows optimize a partially relaxed problem; the enacted
        # operating point routes optimally for the binaries actually kept.
        final = lp.solve(lp._with_modes(p0, _assignment_modes(p0, x, y, delta)))
        state.count_solves("save_energy")
        if final.is_feasible:
            state.current = _configuration(s, x, y, delta, final)

    _emit(
        state,
        "save_energy",
        energy_before,
        [],
        deactivated,
        solves=state.lp_solves["save_energy"] - solves_at_entry,
    )
    return state


# ---------------------------------------------------------------------------
# The outer loop


def _check_invariant(state):
    violations = validate_configuration(state.scenario, state.current, tol=1e-6)
    if violations:
        worst = violations[0]
        raise InvariantBroken(
            f"loop invariant broken: {len(violations)} violations, first {worst}"
        )


def run_loop(s, seed, rounds, scenario_hook=None):
    """initial solution, then ``rounds`` of repair-then-save.

    ``scenario_hook(round_index, state)`` may return a replacement Scenario
    (e.g. with rescaled demand) that takes effect before that round's
    repair phase.  The current configuration is re-validated at every
    phase boundary.
    """
    state = start_loop(s, seed)
    _check_invariant(state)
    for r in range(rounds):
        state.round_index = r
        if scenario_hook is not None:
            swapped = scenario_hook(r, state)
            if swapped is not None and swapped is not state.scenario:
                state.scenario = swapped
                state.base_problem = lp.build_problem(swapped)
        fix_problems(state)
        _check_invariant(state)
        save_energy(state)
        _check_invariant(state)
    state.round_index = rounds
    return state
