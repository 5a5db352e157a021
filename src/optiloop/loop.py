"""LP-in-the-loop control strategy.

Every LP the loop solves is the base problem with each binary either pinned
at its current value or relaxed to [0, 1] (``_assignment_modes``).

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
  its incident links and hosted instances.

Every LP goes through ``_solve``, which remembers what this run has solved:
a run never solves the same LP twice.  An adopted probe's LP is the next
guidance LP, a repeated shutdown phase repeats its predecessor's solves, and
a repair round opens on the pinned LP the previous phase closed on; all of
these are memo hits.

Ties in the probe argmin are broken link > node > placement, then
lexicographically.  All randomness comes from one seeded generator, so runs
are bit-reproducible.  Each phase emits one JSON telemetry line through the
``optiloop.loop`` logger; its ``lp_solves`` counts the solves performed, so
a phase whose LPs were all solved before reports 0.  A broken loop
invariant raises ``InvariantBroken``.
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
    # (id of constraints, bytes of modes, fixed values, objective) ->
    # (problem, solution) for every LP this run solved; holding the problem
    # keeps its constraints tuple, and so that id, alive.
    memo: dict = field(default_factory=dict)

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


def _assignment_modes(p, x, y, delta, relax=None):
    """Modes for the binaries of ``p`` at the values ``x``, ``y``, ``delta``.

    ``relax`` maps a binary kind to a value: binaries of that kind holding
    that value are relaxed to [0, 1].  Every other binary is pinned at its
    value; keys absent from a dict read 0.
    """
    values = {"x": x, "y": y, "delta": delta}
    relax = relax or {}
    modes = {}
    for ref in p.variables:
        held = values.get(ref.kind)
        if held is None:
            continue
        value = held.get(ref.index[0] if ref.kind == "y" else ref.index, 0)
        modes[ref] = lp.RELAXED if relax.get(ref.kind) == value else lp.fixed(value)
    return modes


def _assignment_problem(p, x, y, delta, relax=None):
    """``p`` with its binaries set by ``_assignment_modes``."""
    return lp._with_modes(p, _assignment_modes(p, x, y, delta, relax))


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


def _all_on_configuration(s, p, solve):
    """The all-on assignment of ``p`` routed by ``solve``; InstanceInfeasible
    when it admits no flow routing."""
    x, y, delta = _all_on(s)
    sol = solve(_assignment_problem(p, x, y, delta))
    if sol.status != "optimal":
        raise InstanceInfeasible(
            "no feasible routing exists with every element active", context="all_active"
        )
    return _configuration(s, x, y, delta, sol)


def initial_solution(s, problem=None):
    """Feasible starting point with everything switched on.

    Raises InstanceInfeasible when even the all-on assignment admits no
    flow routing, which condemns the instance as a whole.
    """
    p = problem if problem is not None else lp.build_problem(s)
    return _all_on_configuration(s, p, lp.solve)


def _solve(state, phase, p):
    """Solution of ``p``, solved and counted for ``phase`` only the first
    time this run meets that LP."""
    arrays = (p.modes, p.fixed_values, p.objective)
    key = (id(p.constraints), *(a.tobytes() for a in arrays))
    if key not in state.memo:
        state.memo[key] = (p, lp.solve(p))
        state.count_solves(phase)
    return state.memo[key][1]


def start_loop(s, seed):
    state = LoopState(
        scenario=s,
        current=None,
        rng_seed=int(seed),
        rng=np.random.default_rng(int(seed)),
        base_problem=lp.build_problem(s),
    )
    state.current = _all_on_configuration(
        s, state.base_problem, lambda p: _solve(state, "initial", p)
    )
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


def _repair_weights(state, x, y, delta, relax, kind, candidates):
    """Relaxed values of the ``kind`` binaries ``candidates`` in the repair
    guidance LP, which relaxes the binaries ``relax`` names; all 0 when that
    LP is infeasible."""
    p = _assignment_problem(state.base_problem, x, y, delta, relax)
    guide = _solve(state, "fix_problems", _guidance(p))
    if not guide.is_feasible:
        return [0.0] * len(candidates)
    return [guide.values.get(lp.VarRef(kind, key), 0.0) for key in candidates]


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

    while True:
        fixed_p = _assignment_problem(p0, x, y, delta)
        sol = _solve(state, "fix_problems", fixed_p)
        if sol.status == "optimal":
            break
        report = compute_iis(fixed_p, sol)
        state.count_solves("fix_problems", report.solves)
        before = len(activated)

        candidates = [lk for lk in s.link_ids() if x.get(lk, 0) == 0]
        if 4 in report.families and candidates:
            weights = _repair_weights(
                state, x, y, delta, {"x": 0, "y": 0}, "x", candidates
            )
            pick = weighted_choice(state.rng, candidates, weights)
            x[pick] = 1
            for end in pick:
                if end in s.physical.nodes:
                    y[end] = 1
            activated.append(("link", pick))
            state.activations += 1

        candidates = [
            (c, v) for c in s.node_ids() for v in s.vnf_ids() if delta.get((c, v), 0) == 0
        ]
        if 7 in report.families and candidates:
            weights = _repair_weights(
                state, x, y, delta, {"delta": 0, "y": 0}, "delta", candidates
            )
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

        if len(activated) == before:
            if report.families & {4, 7}:
                raise InstanceInfeasible(
                    "repair exhausted activatable elements", context="fix_problems"
                )
            raise RepairDiverged(
                f"IIS families {sorted(report.families)} offer no repair action"
            )
        if len(activated) > cap:
            raise RepairDiverged(f"exceeded activation cap of {cap}")

    state.current = _configuration(s, x, y, delta, sol)
    _emit(
        state,
        "fix_problems",
        energy_before,
        activated,
        [],
        solves=state.lp_solves.get("fix_problems", 0) - solves_at_entry,
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


def _shutdown_problem(p, x, y, delta):
    """Active binaries relaxed, inactive ones pinned at 0, placements steered
    to the ceiling."""
    relaxed = _assignment_problem(p, x, y, delta, relax={"x": 1, "y": 1, "delta": 1})
    return _guidance(relaxed, placements="ceil")


def _switch_off(x, y, delta, kind, target):
    """Copies of the binaries with ``target`` off; a node takes its incident
    links and hosted instances with it."""
    x, y, delta = dict(x), dict(y), dict(delta)
    if kind == "link":
        x[target] = 0
    elif kind == "node":
        y[target] = 0
        for lk in x:
            if target in lk:
                x[lk] = 0
        for pair in delta:
            if pair[0] == target:
                delta[pair] = 0
    else:
        delta[target] = 0
    return x, y, delta


def save_energy(state):
    """Deactivate elements one probe at a time until a probe fails."""
    s = state.scenario
    p0 = state.base_problem
    cfg = state.current
    x = dict(cfg.x)
    y = dict(cfg.y)
    delta = dict(cfg.delta)
    energy_before = energy_of(s, cfg).total
    deactivated = []
    solves_at_entry = state.lp_solves.get("save_energy", 0)
    guard = sum(x.values()) + sum(y.values()) + sum(delta.values()) + 2

    for _ in range(guard):
        # Probe kinds in tie-break rank order: link > node > placement.
        active = (
            ("link", "x", [(lk, lk) for lk in s.link_ids() if x.get(lk, 0) == 1]),
            ("node", "y", [(c, (c,)) for c in s.node_ids() if y.get(c, 0) == 1]),
            ("placement", "delta", [(d, d) for d in sorted(delta) if delta[d] == 1]),
        )
        if not any(keys for _, _, keys in active):
            break

        guide = _solve(state, "save_energy", _shutdown_problem(p0, x, y, delta))
        if not guide.is_feasible:
            raise InvariantBroken(
                f"shutdown guidance LP is {guide.status} at a feasible operating point"
            )

        best = None
        for kind, var, keys in active:
            found = _argmin({key: guide.values[lp.VarRef(var, idx)] for key, idx in keys})
            if found and (best is None or found[0] < best[0]):
                best = (found[0], kind, found[1])
        _, kind, target = best

        after = _switch_off(x, y, delta, kind, target)
        probe = _solve(state, "save_energy", _shutdown_problem(p0, *after))
        if not probe.is_feasible:
            break

        state.current = _configuration(s, *after, probe)
        # Holding flows at the probe's solution, removing an element can only
        # drop nonnegative terms from the energy sum.
        held = _configuration(s, x, y, delta, probe)
        e_after, limit = energy_of(s, state.current).total, energy_of(s, held).total
        if e_after > limit + 1e-9:
            raise InvariantBroken(
                f"deactivating {kind} {target} raised the energy at held flows "
                f"from {limit!r} to {e_after!r}"
            )
        deactivated.append((kind, target))
        state.deactivations += 1
        x, y, delta = after

    if deactivated:
        # The probe's flows optimize a partially relaxed problem; the enacted
        # operating point routes optimally for the binaries actually kept.
        final = _solve(state, "save_energy", _assignment_problem(p0, x, y, delta))
        if final.is_feasible:
            state.current = _configuration(s, x, y, delta, final)

    _emit(
        state,
        "save_energy",
        energy_before,
        [],
        deactivated,
        solves=state.lp_solves.get("save_energy", 0) - solves_at_entry,
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
                state.memo.clear()  # no LP of the old problem recurs
        fix_problems(state)
        _check_invariant(state)
        save_energy(state)
        _check_invariant(state)
    state.round_index = rounds
    return state
