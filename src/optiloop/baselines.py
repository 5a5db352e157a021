"""Comparison strategies: all-active, consolidation, and an exact optimum.

The exact optimum enumerates node activation sets and LP-solves each one.
Links never appear in the objective, and enlarging the active link set only
relaxes constraints, so every activation set is evaluated with all links
between active ends switched on.  The same argument covers instances with
zero placement power (the default): deploying everywhere on active compute
nodes is free and only relaxes constraints, so placements are only
enumerated when they actually cost something.  Assignments are visited in
increasing committed-cost order and pruned against the incumbent using the
fact that processing energy is identical for every feasible point (all
demand gets processed exactly once).
"""

import itertools
from collections import deque
from dataclasses import dataclass

from . import lp
from .errors import BudgetExceeded, InstanceInfeasible
from .loop import (
    _all_on_configuration,
    _all_on_problem,
    _assignment_problem,
    _binaries,
    _configuration,
    run_loop,
)
from .model import EnergyBreakdown, derive_logical_flows, energy_of

__all__ = [
    "StrategyResult",
    "all_active",
    "consolidation",
    "exact_optimum",
    "optiloop_strategy",
    "relaxed_bound",
]

ENUMERABLE_NODES = 22  # 2^n activation sets beyond this is hopeless


@dataclass(frozen=True)
class StrategyResult:
    name: str
    configuration: object
    energy: EnergyBreakdown
    stats: dict


def all_active(s, *, problem=None) -> StrategyResult:
    """Today's practice: every element on, flows routed by one LP solve.

    ``problem`` is the built LP of ``s`` (``lp.build_problem(s)`` when
    None).  The LP goes through the record of the problem's solves
    (``lp._memo_solve``), so it is solved once per scenario, and not at all
    after ``initial_solution`` (so ``generate``'s check) on ``s``; a loop
    run on the same problem opens on that solve.
    """
    p = lp.build_problem(s) if problem is None else problem
    fresh = []

    def solve(q):
        sol, solved = lp._memo_solve(q)
        fresh.append(solved)
        return sol

    cfg = _all_on_configuration(p, solve)
    return StrategyResult("all_active", cfg, energy_of(s, cfg), {"lp_solves": sum(fresh)})


def relaxed_bound(s) -> float:
    """Objective of the fully relaxed problem: a lower bound on any
    binary-feasible operating point.

    The relaxation restarts from the optimum of the all-on pinned LP
    instead of running a cold phase one.  At that vertex every nonbasic
    binary sits at 1, still its upper bound once relaxed to [0, 1], so the
    restart is a primal phase two from a feasible point.  On generated 2x4
    instances the two solves take about as many pivots as one cold solve of
    the relaxation, in half to two thirds of its time, and from 4x8 on
    fewer pivots too.

    The all-on LP goes through the record of the scenario's problem
    (``lp._memo_solve``), so on a scenario that ``generate`` or
    ``initial_solution`` has checked it costs no solve: while it is one of
    the record's starts, the memo returns it with its frame.  Once later
    solves (a loop run's) have moved the starts on, the memo holds it
    without a frame, and it is solved once more, cold, to restart from.
    The relaxation is solved with ``lp.solve``, which writes no start, so a
    loop run on ``s`` afterwards restarts from the same optima as without
    this call.

    The binaries only gate (rows of families 3 to 6), so raising every
    binary of a relaxed-feasible point to 1 keeps it feasible: the
    relaxation is feasible exactly when the all-on LP is, and an
    infeasible all-on LP raises InstanceInfeasible with no further solve.
    """
    p = lp.build_problem(s)
    q = _all_on_problem(p)
    on, _ = lp._memo_solve(q)
    if on.status == "optimal" and on.frame is None:
        on = lp.solve(q)
    sol = lp.solve(p, start=on) if on.status == "optimal" else on
    if sol.status != "optimal":
        raise InstanceInfeasible("relaxed problem infeasible")
    return sol.objective_value


def optiloop_strategy(s, seed=0, rounds=3, *, problem=None) -> StrategyResult:
    """Adapter running the control loop as a benchmark strategy;
    ``problem`` is passed to ``run_loop``."""
    state = run_loop(s, seed, rounds, problem=problem)
    cfg = state.current
    return StrategyResult(
        "optiloop",
        cfg,
        energy_of(s, cfg),
        {
            "lp_solves": state.total_solves(),
            "activations": state.activations,
            "deactivations": state.deactivations,
            "seed": state.rng_seed,
            "rounds": rounds,
        },
    )


# ---------------------------------------------------------------------------
# Consolidation heuristic


def _usable_pred(s, amount, link_ok, residual_cap, residual_k):
    pg = s.physical

    def usable(lk):
        if not link_ok(lk):
            return False
        if residual_cap[lk] + 1e-9 < amount:
            return False
        a = lk[0]
        if a in pg.nodes:
            rho = pg.nodes[a].switch_cost
            if rho > 0.0 and residual_k[a] + 1e-9 < rho * amount:
                return False
        return True

    return usable


def _bfs_paths(s, src, usable):
    """Hop-count shortest paths (as link lists) from src to every reachable
    node vertex.  Endpoints never relay, so only nodes are expanded."""
    pg = s.physical
    out_by_vertex = {}
    for lk in sorted(pg.links):
        out_by_vertex.setdefault(lk[0], []).append(lk)
    paths = {}
    frontier = deque()
    for lk in out_by_vertex.get(src, []):
        if usable(lk) and lk[1] in pg.nodes and lk[1] not in paths:
            paths[lk[1]] = [lk]
            frontier.append(lk[1])
    while frontier:
        v = frontier.popleft()
        for lk in out_by_vertex.get(v, []):
            w = lk[1]
            if w in pg.nodes and w not in paths and usable(lk):
                paths[w] = paths[v] + [lk]
                frontier.append(w)
    return paths


def _bounce_path(s, node, usable):
    """Shortest positive-length walk node -> node; co-located chain steps
    still have to traverse the network."""
    pg = s.physical
    best = None
    for lk in sorted(pg.links):
        if lk[0] != node or lk[1] not in pg.nodes or not usable(lk):
            continue
        back = _bfs_paths(s, lk[1], usable).get(node)
        if back is None:
            continue
        cand = [lk] + back
        if best is None or len(cand) < len(best):
            best = cand
    return best


def consolidation(s, *, problem=None) -> StrategyResult:
    """Three-stage packing heuristic.

    Every flow chunk, in endpoint order and chain-topological order, is
    routed (1) to an already-deployed instance reachable over active links
    with residual capacity, else (2) a new instance goes onto the reachable
    active node with the most residual compute, else (3) onto the best node
    reachable over the full graph, activating the nodes and links of the
    connecting path.  Flows are then re-solved by one LP with the resulting
    binaries pinned.  ``problem`` is the built LP of ``s``
    (``lp.build_problem(s)`` when None).
    """
    lg, pg = s.logical, s.physical
    active_nodes = set()
    active_links = set()
    deployed = {}
    residual_cap = {lk: pg.links[lk].capacity for lk in pg.links}
    residual_k = {c: pg.nodes[c].compute for c in pg.nodes}
    stage_counts = {"reuse": 0, "deploy": 0, "activate": 0}

    def paths_from(src, amount, link_ok):
        usable = _usable_pred(s, amount, link_ok, residual_cap, residual_k)
        paths = _bfs_paths(s, src, usable)
        if src in pg.nodes and src not in paths:
            bounce = _bounce_path(s, src, usable)
            if bounce is not None:
                paths[src] = bounce
        return paths

    for e in sorted(lg.endpoints):
        order = lg.topological_order(e)
        rank = {v: i for i, v in enumerate(order)}
        pending = []
        for (ep, v), rate in sorted(lg.ingress_demand.items()):
            if ep == e and rate > 0.0:
                pending.append((rank[v], "", e, None, v, rate))
        while pending:
            pending.sort()
            _, _, src, vprev, vtgt, amount = pending.pop(0)
            r_need = lg.compute_per_bit[vtgt] * amount

            chosen = None
            chosen_path = None
            stage = None

            reach_active = paths_from(src, amount, lambda lk: lk in active_links)
            cands = [
                n
                for n in reach_active
                if vtgt in deployed.get(n, set()) and residual_k[n] + 1e-9 >= r_need
            ]
            if cands:
                chosen = min(cands, key=lambda n: (len(reach_active[n]), n))
                chosen_path = reach_active[chosen]
                stage = "reuse"

            if chosen is None and deployed:
                # an instance exists but is cut off over active links: reuse it
                # anyway, wiring up the connecting path
                reach_all = paths_from(src, amount, lambda lk: True)
                cands = [
                    n
                    for n in reach_all
                    if vtgt in deployed.get(n, set())
                    and residual_k[n] + 1e-9 >= r_need
                ]
                if cands:
                    chosen = min(cands, key=lambda n: (len(reach_all[n]), n))
                    chosen_path = reach_all[chosen]
                    stage = "reuse"

            if chosen is None:
                cands = [
                    n
                    for n in reach_active
                    if n in active_nodes
                    and pg.nodes[n].compute > 0
                    and residual_k[n] + 1e-9 >= r_need
                ]
                if cands:
                    chosen = min(cands, key=lambda n: (-residual_k[n], n))
                    chosen_path = reach_active[chosen]
                    stage = "deploy"

            if chosen is None:
                reach_all = paths_from(src, amount, lambda lk: True)
                cands = [
                    n
                    for n in reach_all
                    if pg.nodes[n].compute > 0 and residual_k[n] + 1e-9 >= r_need
                ]
                if cands:
                    chosen = min(
                        cands, key=lambda n: (len(reach_all[n]), -residual_k[n], n)
                    )
                    chosen_path = reach_all[chosen]
                    stage = "activate"

            if chosen is None:
                raise InstanceInfeasible(
                    f"no node can serve {amount:g} of {vtgt} for {e}",
                    context=f"consolidation:{stage_counts}",
                )

            for lk in chosen_path:
                active_links.add(lk)
                for end in lk:
                    if end in pg.nodes:
                        active_nodes.add(end)
                residual_cap[lk] -= amount
                a = lk[0]
                if a in pg.nodes:
                    residual_k[a] -= pg.nodes[a].switch_cost * amount
            active_nodes.add(chosen)
            deployed.setdefault(chosen, set()).add(vtgt)
            residual_k[chosen] -= r_need
            stage_counts[stage] += 1

            v1_eff = vprev if vprev is not None else vtgt
            for v3 in sorted(lg.vnfs):
                ratio = lg.chi_out(e, v1_eff, vtgt, v3)
                if ratio > 0.0:
                    pending.append((rank[v3], vtgt, chosen, vtgt, v3, amount * ratio))

    p = lp.build_problem(s) if problem is None else problem
    b = _binaries(
        p,
        dict.fromkeys(active_links, 1),
        dict.fromkeys(active_nodes, 1),
        {(c, v): 1 for c, vnfs in deployed.items() for v in vnfs},
    )
    sol = lp.solve(_assignment_problem(p, b))
    if sol.status != "optimal":
        raise InstanceInfeasible(
            "consolidation produced an infeasible activation set",
            context="consolidation:finalize",
        )
    cfg = _configuration(p, b, sol)
    return StrategyResult(
        "consolidation", cfg, energy_of(s, cfg), {"lp_solves": 1, "stages": stage_counts}
    )


# ---------------------------------------------------------------------------
# Exact optimum by pruned enumeration


def _processing_units(s):
    """Total compute consumed by processing, identical for every feasible
    point: each logical flow is processed exactly once."""
    lg = s.logical
    units = 0.0
    for (e, v), rate in sorted(lg.ingress_demand.items()):
        units += lg.compute_per_bit[v] * rate
    for (e, v1, v2), rate in sorted(derive_logical_flows(lg).items()):
        units += lg.compute_per_bit[v2] * rate
    return units


def exact_optimum(s, budget=200000, *, problem=None) -> StrategyResult:
    """Minimum-energy binary assignment, exact within LP tolerance.

    ``budget`` caps the number of LP-evaluated assignments; exceeding it
    raises BudgetExceeded carrying the best (non-exact) result so far.
    ``problem`` is the built LP of ``s`` (``lp.build_problem(s)`` when
    None).  Each LP is solved through no memo, since an enumeration can pose ``budget`` of
    them, and restarts from the previous optimum: assignments differ only
    in pinned binaries, so every restart is dual feasible.  An assignment
    whose box a Farkas ray held in the problem's record proves infeasible
    (``lp._screen``), a ray left by an earlier infeasible solve of this
    enumeration or of any run sharing ``problem``, is rejected with no
    solve.  ``stats["lp_solves"]`` counts the solves made and
    ``stats["assignments"]`` every assignment evaluated, screened or
    solved, which is what ``budget`` caps.
    """
    lg, pg = s.logical, s.physical
    nodes = s.node_ids()
    vnfs = s.vnf_ids()
    em = s.energy
    if len(nodes) > ENUMERABLE_NODES:
        raise BudgetExceeded(
            f"{len(nodes)} nodes is beyond exhaustive enumeration", best=None
        )
    p = lp.build_problem(s) if problem is None else problem
    proc_units = _processing_units(s)
    proc_floor = em.proc_power_per_unit * proc_units
    demand_attach = {}
    for (e, v), rate in lg.ingress_demand.items():
        if rate > 0.0:
            demand_attach.setdefault(e, set())
            for (i, j) in pg.links:
                if i == e and j in pg.nodes:
                    demand_attach[e].add(j)

    state = {
        "best": None, "best_obj": float("inf"), "assignments": 0, "lp_solves": 0, "pruned": 0
    }
    last = None  # the latest optimum, which the next solve restarts from

    def finish(found, exact):
        cfg = _configuration(p, *found)
        return StrategyResult(
            "exact",
            cfg,
            energy_of(s, cfg),
            {
                "lp_solves": state["lp_solves"],
                "assignments": state["assignments"],
                "pruned": state["pruned"],
                "exact": exact,
            },
        )

    def links_for(active):
        return {
            (i, j): 1
            for (i, j) in pg.links
            if (i not in pg.nodes or i in active) and (j not in pg.nodes or j in active)
        }

    subsets = []
    for bits in range(1 << len(nodes)):
        active = frozenset(nodes[i] for i in range(len(nodes)) if bits >> i & 1)
        subsets.append((em.idle_power * len(active), len(active), bits, active))
    subsets.sort(key=lambda t: (t[0], t[1], t[2]))
    hostable = [c for c in nodes if pg.nodes[c].compute > 0]

    for idle_cost, _, _, active in subsets:
        if idle_cost + proc_floor >= state["best_obj"] - 1e-9:
            state["pruned"] += 1
            continue
        if any(not (attach & active) for attach in demand_attach.values()):
            state["pruned"] += 1
            continue
        if sum(pg.nodes[c].compute for c in active) < proc_units - 1e-9:
            state["pruned"] += 1
            continue

        host_active = [c for c in hostable if c in active]
        if em.placement_power == 0.0:
            delta_choices = [tuple((c, v) for c in host_active for v in vnfs)]
        else:
            pairs = [(c, v) for c in host_active for v in vnfs]
            delta_choices = []
            for size in range(len(pairs) + 1):
                if (
                    idle_cost + em.placement_power * size + proc_floor
                    >= state["best_obj"] - 1e-9
                ):
                    break
                delta_choices.extend(itertools.combinations(pairs, size))

        for chosen in delta_choices:
            committed = idle_cost + em.placement_power * len(chosen) + proc_floor
            if committed >= state["best_obj"] - 1e-9:
                state["pruned"] += 1
                continue
            if state["assignments"] >= budget:
                best = finish(state["best"], exact=False) if state["best"] else None
                raise BudgetExceeded(
                    f"enumeration budget {budget} exhausted",
                    best=best,
                    assignments=state["assignments"],
                )
            state["assignments"] += 1
            b = _binaries(
                p, links_for(active), dict.fromkeys(active, 1), dict.fromkeys(chosen, 1)
            )
            q = _assignment_problem(p, b)
            sol = lp._screen(q)
            if sol is None:
                sol = lp.solve(q, start=last)
                state["lp_solves"] += 1
            if sol.status != "optimal":
                continue
            last = sol
            if sol.objective_value < state["best_obj"] - 1e-9:
                state["best_obj"] = sol.objective_value
                state["best"] = (b, sol)

    if state["best"] is None:
        raise InstanceInfeasible("no activation set is feasible", context="exact_optimum")
    return finish(state["best"], exact=True)
