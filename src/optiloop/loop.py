"""LP-in-the-loop control strategy.

A phase holds the binaries as one 0/1 vector ``b`` over the problem's
leading columns (``LpProblem.layout``: links, nodes, placements).  Every LP
it solves is the base problem with each binary pinned at its value in ``b``
or relaxed to [0, 1] (``_assignment_problem``); switching one follows the
activation rows (``_switch``), and ``_configuration`` hands results out.
Solutions are read by column from their vector ``x``: the relaxed values
that order and weight the candidates, and the flows of an operating point.

The loop keeps a feasible operating point at all times.  It starts from the
everything-on solution (if any feasible point exists, one exists with every
node, link and instance active, so failure there condemns the instance).
Each round then runs two procedures:

* ``fix_problems`` repairs a configuration that no longer fits the demand:
  solve with all binaries pinned; while infeasible, look at which
  constraint families sit in the support of the solve's Farkas
  certificate, once one solve has verified that support infeasible (an
  infeasible subsystem containing an IIS; ``compute_iis(minimal=False)``,
  which falls back to the minimal IIS when no support verifies).  Link
  capacity present: relax the inactive link/node binaries, solve, and
  activate one link drawn with probability proportional to its relaxed
  value (plus its node ends).  Compute capacity present: same with
  node/placement binaries, activating one (node, function) pair drawn
  proportionally to its relaxed value.

* ``save_energy`` hunts for shutdowns among the active elements that draw
  fixed power (nodes, and placements when instance power is positive):
  fix inactive binaries at 0, relax active ones, solve, then probe those
  elements in order of their relaxed values by pinning each to 0 (with
  the links and placements it gates) and re-solving.  The first feasible
  probe is adopted and the hunt restarts; the phase ends when every such
  element still on has been probed and rejected.  Links and unpowered
  placements draw no fixed power, so switching one off can only lengthen
  routes; they go off only with their nodes.

Every LP is its base problem with other pins and, for the guides,
tie-break costs.  ``_memo_solve`` solves each such LP once per built
problem, however many runs share the problem, and keeps that record with
the problem (``lp._Base``).  An adopted probe's LP, met again as the next
guide, a repeated shutdown phase and a repair round's opening check
therefore cost no solve.  A fresh solve restarts from the problem's latest
optimum (``lp.solve``'s ``start``): a shutdown guide widens the pinned LP
before it, which a primal simplex continues, and a probe pins some of its
guide's binaries to 0, which a dual simplex repairs.

Probes with equal relaxed values run in column order (a stable sort).  All
randomness comes from one seeded generator, so runs are bit-reproducible.
Each phase emits one JSON telemetry line through the ``optiloop.loop``
logger; its ``lp_solves`` counts the solves performed, so a phase whose LPs
were all solved before reports 0, and a shutdown phase's ``rejected`` lists
the powered elements it probed and left on.  A broken loop invariant raises
``InvariantBroken``.
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

    def count_solves(self, phase, n=1):
        self.lp_solves[phase] = self.lp_solves.get(phase, 0) + n

    def total_solves(self):
        return sum(self.lp_solves.values())


def _guidance(p):
    """Copy of the problem with tiny tie-breaking costs on binary columns.

    Relaxed binaries with no energy cost of their own (links always, and
    placements when instance power is zero) otherwise float anywhere
    between their utilization and 1 at an optimal vertex, making the
    relaxed values useless as guidance.  A positive epsilon on every
    binary pins each one to the lowest value the flows admit (its
    utilization): repair samples new deployments proportionally to these,
    and shutdown probes its candidates in their order.
    """
    eps = 1e-6 * (1.0 + float(np.max(np.abs(p.objective), initial=0.0)))
    objective = p.objective.copy()
    objective[: p.n_binaries()] += eps
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

_ELEMENT = {"x": "link", "y": "node", "delta": "placement"}


def _key(kind, index):
    """Configuration key of a binary column: a node's id, else the index."""
    return index[0] if kind == "y" else index


def _element(p, col):
    """(element kind, configuration key) of binary column ``col`` of ``p``."""
    kind, index = p.variables.locate(col)
    return _ELEMENT[kind], _key(kind, index)


def _binary_runs(p):
    """(kind, first column, configuration keys) of each run of binary
    columns of ``p``."""
    nb = p.n_binaries()
    for kind, start, indices in p.variables.runs:
        if start >= nb:
            break
        yield kind, start, [_key(kind, index) for index in indices[: nb - start]]


def _binaries(p, x, y, delta):
    """0/1 vector over the binary columns of ``p`` holding the values of the
    dicts ``x``, ``y``, ``delta``; keys absent from a dict read 0."""
    held = {"x": x, "y": y, "delta": delta}
    values = []
    for kind, _, keys in _binary_runs(p):
        values += [held[kind].get(key, 0) for key in keys]
    return np.array(values, dtype=np.int8)


def _assignment_problem(p, b, relax=None):
    """``p`` with every binary pinned at its value in ``b``, except those
    ``relax`` names: it maps a binary kind to a value, and binaries of that
    kind holding that value are relaxed to [0, 1]."""
    free = np.zeros(b.size, dtype=bool)
    for kind, value in (relax or {}).items():
        cols = p.layout[kind]
        free[cols] = b[cols] == value
    return replace(p, pins=np.where(free, -1, b))


def _assignment_modes(p, x, y, delta, relax=None):
    """The binary modes of ``_assignment_problem`` at the values ``x``,
    ``y``, ``delta``, as a map from each binary ``VarRef`` to its mode."""
    q = _assignment_problem(p, _binaries(p, x, y, delta), relax)
    return {ref: q.mode_of(ref) for ref in p.binary_refs()}


def _gates(p):
    """(gated, gate) column arrays of the activation rows of families 3 and
    5, which list the gated binary first: a link is gated by its node ends,
    a placement by its node."""
    rows = p.constraints
    first = rows.indptr[np.flatnonzero(np.isin(rows.families(), (3, 5)))]
    return np.stack([rows.indices[first], rows.indices[first + 1]])


def _switch(b, col, value, gates):
    """Set binary ``col`` of ``b`` to ``value`` in place, keeping the
    activation rows: switching on turns on the gates ``col`` needs,
    switching off turns off every binary ``col`` gates."""
    gated, gate = gates
    b[col] = value
    b[gate[gated == col] if value else gated[gate == col]] = value


def _configuration(p, b, solution):
    """The operating point of the binaries ``b`` of ``p`` with the flows of
    ``solution``; flows at or below 1e-9 traffic scales read 0.  The LP
    solves to about 1e-12 of a traffic scale, and noise kept on one term of
    a row but dropped on the terms that balance it would break the row."""
    thresh = 1e-9 * max(1.0, p.traffic_scale)
    binaries = {kind: {} for kind in lp.BINARY_KINDS}
    for kind, start, keys in _binary_runs(p):
        binaries[kind].update(zip(keys, b[start : start + len(keys)].tolist()))
    flows = {kind: {} for kind in lp.FLOW_KINDS}
    for kind, start, indices in p.variables.runs:
        if kind in flows:
            x = solution.x[start : start + len(indices)]
            hot = np.flatnonzero(x > thresh)
            flows[kind].update(zip([indices[i] for i in hot.tolist()], x[hot].tolist()))
    return NetworkConfiguration(binaries["x"], binaries["y"], binaries["delta"], **flows)


def _all_on(s):
    x = {lk: 1 for lk in s.link_ids()}
    y = {c: 1 for c in s.node_ids()}
    delta = {(c, v): 1 for c in s.node_ids() for v in s.vnf_ids()}
    return x, y, delta


def _all_on_configuration(p, solve):
    """The all-on assignment of ``p`` routed by ``solve``; InstanceInfeasible
    when it admits no flow routing."""
    b = np.ones(p.n_binaries(), dtype=np.int8)
    sol = solve(_assignment_problem(p, b))
    if sol.status != "optimal":
        raise InstanceInfeasible(
            "no feasible routing exists with every element active", context="all_active"
        )
    return _configuration(p, b, sol)


def initial_solution(s):
    """Feasible starting point with everything switched on.

    Raises InstanceInfeasible when even the all-on assignment admits no
    flow routing, which condemns the instance as a whole.
    """
    return _all_on_configuration(lp.build_problem(s), lp.solve)


def _memo_solve(p):
    """(solution of ``p``, whether it was solved now): an LP of a base
    problem is solved only the first time any copy of the problem meets it.

    The only code that reads or writes a base problem's record
    (``lp._Base``).  A fresh solve of an LP that pins every binary restarts
    from the record's ``pinned_start`` and any other from its ``start``
    (also a pinned one while there is no pinned start).  The tableau of an
    optimum with every binary pinned stays sparse, and from it the next
    pinned LP, which only moves some pins, is a few dual pivots away; from
    a relaxed LP's optimum the dual simplex first has to pivot every
    fractional binary out, on rows of that much denser tableau.  A fresh
    optimum becomes the start of its kind, so the record holds at most two
    frames; the memo keeps every solution without its frame.
    """
    base = lp._base(p)
    key = (p.pins.tobytes(), p.objective.tobytes())
    sol = base.memo.get(key)
    if sol is not None:
        return sol, False
    pinned = not (p.pins < 0).any()
    start = base.pinned_start if pinned and base.pinned_start else base.start
    sol = lp.solve(p, start=start)
    base.memo[key] = replace(sol, frame=None)
    if sol.frame is not None:
        base.start = sol
        if pinned:
            base.pinned_start = sol
    return sol, True


def _solve(state, phase, p):
    """``_memo_solve``, counting a fresh solve for ``phase``."""
    sol, fresh = _memo_solve(p)
    if fresh:
        state.count_solves(phase)
    return sol


def start_loop(s, seed, *, problem=None):
    """A loop state holding the all-on configuration of ``s``; ``problem``
    is the built LP of ``s`` (built here when None)."""
    p = lp.build_problem(s) if problem is None else problem
    state = LoopState(
        scenario=s,
        current=None,
        rng_seed=int(seed),
        rng=np.random.default_rng(int(seed)),
        base_problem=p,
    )
    state.current = _all_on_configuration(p, lambda q: _solve(state, "initial", q))
    _emit(state, "initial", energy_before=None, activated=[], deactivated=[])
    return state


def _emit(state, phase, energy_before, activated, deactivated, solves=None, rejected=()):
    energy = energy_of(state.scenario, state.current).total
    record = {
        "phase": phase,
        "round": state.round_index,
        "lp_solves": state.lp_solves.get(phase, 0) if solves is None else solves,
        "activated": [list(map(str, a)) for a in activated],
        "deactivated": [list(map(str, d)) for d in deactivated],
        "rejected": [list(map(str, r)) for r in rejected],
        "energy_before": energy_before,
        "energy_after": energy,
    }
    state.telemetry.append(record)
    logger.info(json.dumps(record, sort_keys=True))


# ---------------------------------------------------------------------------
# fix_problems

# Repair actions in the order they run: the reported family that calls for one,
# the binary kind it switches on, and what its guidance LP relaxes.
_REPAIRS = ((4, "x", {"x": 0, "y": 0}), (7, "delta", {"delta": 0, "y": 0}))


def fix_problems(state):
    """Restore feasibility by activating elements, guided by relaxed solves."""
    s = state.scenario
    p0 = state.base_problem
    cfg = state.current
    b = _binaries(p0, cfg.x, cfg.y, cfg.delta)
    gates = _gates(p0)
    energy_before = energy_of(s, cfg).total
    cap = len(s.link_ids()) + len(s.node_ids()) * len(s.vnf_ids())
    activated = []
    solves_at_entry = state.lp_solves.get("fix_problems", 0)

    while True:
        fixed_p = _assignment_problem(p0, b)
        sol = _solve(state, "fix_problems", fixed_p)
        if sol.status == "optimal":
            break
        report = compute_iis(fixed_p, sol, minimal=False)
        state.count_solves("fix_problems", report.solves)
        before = len(activated)

        for family, kind, relax in _REPAIRS:
            cols = p0.layout[kind]
            candidates = (cols.start + np.flatnonzero(b[cols] == 0)).tolist()
            if family not in report.families or not candidates:
                continue
            col_of = {_key(*p0.variables.locate(col)): col for col in candidates}
            keys = list(col_of)
            # The candidates' relaxed values; an infeasible guide has none.
            guide = _solve(state, "fix_problems", _guidance(_assignment_problem(p0, b, relax)))
            weights = guide.x[candidates] if guide.is_feasible else np.zeros(len(candidates))
            if kind == "delta" and not (weights > 0.0).any():
                # uniform fallback, restricted to nodes that can host
                hostable = [key for key in keys if s.physical.nodes[key[0]].compute > 0]
                if hostable:
                    keys, weights = hostable, np.zeros(len(hostable))
            pick = weighted_choice(state.rng, keys, weights)
            _switch(b, col_of[pick], 1, gates)
            activated.append((_ELEMENT[kind], pick))
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

    state.current = _configuration(p0, b, sol)
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


def _shutdown_problem(p, b):
    """Active binaries relaxed, inactive ones pinned at 0."""
    return _guidance(_assignment_problem(p, b, relax={"x": 1, "y": 1, "delta": 1}))


def save_energy(state):
    """Deactivate powered elements one probe at a time until every powered
    element still on has been probed and rejected."""
    s = state.scenario
    p0 = state.base_problem
    cfg = state.current
    b = _binaries(p0, cfg.x, cfg.y, cfg.delta)
    gates = _gates(p0)
    energy_before = energy_of(s, cfg).total
    deactivated = []
    solves_at_entry = state.lp_solves.get("save_energy", 0)
    # Only a binary with fixed power can lower the energy by going off; links
    # and unpowered placements go off with their nodes (``_switch``).
    powered = p0.objective[: p0.n_binaries()] > 0.0

    while True:
        candidates = np.flatnonzero(powered & (b == 1))
        if not candidates.size:
            break

        guide = _solve(state, "save_energy", _shutdown_problem(p0, b))
        if not guide.is_feasible:
            raise InvariantBroken(
                f"shutdown guidance LP is {guide.status} at a feasible operating point"
            )
        candidates = candidates[np.argsort(guide.x[candidates], kind="stable")]

        for col in candidates.tolist():
            after = b.copy()
            _switch(after, col, 0, gates)
            probe = _solve(state, "save_energy", _shutdown_problem(p0, after))
            if probe.is_feasible:
                break
        else:
            break  # every candidate rejected

        kind, target = _element(p0, col)
        state.current = _configuration(p0, after, probe)
        # Holding flows at the probe's solution, removing an element can only
        # drop nonnegative terms from the energy sum.
        held = _configuration(p0, b, probe)
        e_after, limit = energy_of(s, state.current).total, energy_of(s, held).total
        if e_after > limit + 1e-9:
            raise InvariantBroken(
                f"deactivating {kind} {target} raised the energy at held flows "
                f"from {limit!r} to {e_after!r}"
            )
        deactivated.append((kind, target))
        state.deactivations += 1
        b = after

    if deactivated:
        # The probe's flows optimize a partially relaxed problem; the enacted
        # operating point routes optimally for the binaries actually kept.
        final = _solve(state, "save_energy", _assignment_problem(p0, b))
        if final.is_feasible:
            state.current = _configuration(p0, b, final)

    _emit(
        state,
        "save_energy",
        energy_before,
        [],
        deactivated,
        solves=state.lp_solves.get("save_energy", 0) - solves_at_entry,
        rejected=[_element(p0, col) for col in candidates.tolist()],
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


def run_loop(s, seed, rounds, scenario_hook=None, *, problem=None):
    """initial solution, then ``rounds`` of repair-then-save.

    ``scenario_hook(round_index, state)`` may return a replacement Scenario
    (e.g. with rescaled demand) that takes effect before that round's
    repair phase.  The current configuration is re-validated at every
    phase boundary.  ``problem`` is passed to ``start_loop``.
    """
    state = start_loop(s, seed, problem=problem)
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
