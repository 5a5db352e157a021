"""Control loop: initial solution, repair, shutdown hunting, determinism."""

import contextlib
import dataclasses
import gc
import json
import logging
import weakref

import numpy as np
import pytest

from conftest import single_vnf_scenario
from corpus import make_toy
from optiloop import iis, loop, lp, simplex
from optiloop.errors import InstanceInfeasible, InvariantBroken, RepairDiverged
from optiloop.iis import IisReport, _feasible
from optiloop.loop import (
    LoopState,
    _assignment_modes,
    _assignment_problem,
    _binaries,
    _configuration,
    _guidance,
    fix_problems,
    initial_solution,
    run_loop,
    save_energy,
    start_loop,
    weighted_choice,
)
from optiloop.model import (
    EnergyModel,
    Link,
    LogicalGraph,
    Node,
    PhysicalGraph,
    Scenario,
    Violation,
    energy_of,
    validate_configuration,
)
from optiloop.scenario import GeneratorParams, generate, scale_demand, vepc_two_node

GIG = 1e9


def _state_for(s, cfg, seed=0):
    return LoopState(
        scenario=s,
        current=cfg,
        rng_seed=seed,
        rng=np.random.default_rng(seed),
        base_problem=lp.build_problem(s),
    )


def _zero_demand_vepc():
    s = vepc_two_node()
    return dataclasses.replace(
        s, logical=dataclasses.replace(s.logical, ingress_demand={("RRH", "eNB"): 0.0})
    )


# ---------------------------------------------------------------------------
# initial_solution


def test_initial_zero_demand_pays_full_fixed_cost():
    s = _zero_demand_vepc()
    cfg = initial_solution(s)
    e = energy_of(s, cfg)
    C = len(s.physical.nodes)
    V = len(s.logical.vnfs)
    assert e.total == C * s.energy.idle_power + C * V * s.energy.placement_power
    assert cfg.tau == {}


def test_initial_on_fixture_is_feasible(vepc):
    cfg = initial_solution(vepc)
    assert validate_configuration(vepc, cfg, tol=1e-6) == []
    assert all(v == 1 for v in cfg.y.values())
    assert all(v == 1 for v in cfg.x.values())
    assert all(v == 1 for v in cfg.delta.values())


def test_initial_detects_doomed_instance():
    # demand exceeds every attached link capacity
    s = single_vnf_scenario(
        demand=5.0 * GIG, caps={("e0", "m1"): 1.0 * GIG}
    )
    with pytest.raises(InstanceInfeasible):
        initial_solution(s)


# ---------------------------------------------------------------------------
# fix_problems


def test_noop_on_feasible_state_solves_once(vepc):
    # Right after start_loop the pinned check is the all-on LP already
    # solved; on a problem of its own, built from a copy of the scenario,
    # it is solved exactly once.
    started = start_loop(vepc, seed=0)
    fresh = _state_for(dataclasses.replace(vepc), started.current)
    for state, solves in ((started, 0), (fresh, 1)):
        cfg_before = state.current
        fix_problems(state)
        assert state.lp_solves.get("fix_problems", 0) == solves
        assert state.telemetry[-1]["lp_solves"] == solves
        assert state.current.x == cfg_before.x
        assert state.current.y == cfg_before.y
        assert state.current.delta == cfg_before.delta
        assert state.activations == 0


def _two_path_scenario():
    """Direct link m1->m2 capacity 1.2G; alternate m1->m3->m2 same size."""
    logical = LogicalGraph(
        endpoints={"e0"},
        vnfs={"A"},
        chi={},
        ingress_demand={("e0", "A"): 1.0 * GIG},
    )
    physical = PhysicalGraph(
        nodes={"m1": Node(0.0), "m2": Node(8.0 * GIG), "m3": Node(0.0)},
        links={
            ("e0", "m1"): Link(8.0 * GIG),
            ("m1", "m2"): Link(1.2 * GIG),
            ("m2", "m1"): Link(1.2 * GIG),
            ("m1", "m3"): Link(1.2 * GIG),
            ("m3", "m2"): Link(1.2 * GIG),
        },
    )
    return Scenario(
        logical=logical,
        physical=physical,
        energy=EnergyModel(idle_power=10.0, proc_power_per_unit=1e-9,
                           switch_energy_per_bit=0.1e-9),
    )


def test_capacity_repair_activates_second_path():
    s = _two_path_scenario()
    x = {lk: 0 for lk in s.link_ids()}
    x[("e0", "m1")] = 1
    x[("m1", "m2")] = 1
    y = {"m1": 1, "m2": 1, "m3": 0}
    delta = {(c, v): 0 for c in s.node_ids() for v in s.vnf_ids()}
    delta[("m2", "A")] = 1
    p = lp.build_problem(s)
    sol = lp.solve(lp._with_modes(p, _assignment_modes(p, x, y, delta)))
    assert sol.status == "optimal"
    cfg = _configuration(p, _binaries(p, x, y, delta), sol)

    doubled = scale_demand(s, 2.0)
    state = _state_for(doubled, cfg, seed=5)
    fix_problems(state)
    assert state.activations >= 1
    assert state.current.x[("m1", "m3")] == 1
    assert state.current.x[("m3", "m2")] == 1
    assert state.current.y["m3"] == 1
    assert validate_configuration(doubled, state.current, tol=1e-6) == []


def test_compute_repair_deploys_on_idle_node():
    s = single_vnf_scenario(demand=1.0 * GIG, k=(1.2 * GIG, 1.2 * GIG))
    x = {("e0", "m1"): 1, ("m1", "m2"): 0, ("m2", "m1"): 0}
    y = {"m1": 1, "m2": 0}
    delta = {("m1", "A"): 1, ("m2", "A"): 0}
    p = lp.build_problem(s)
    sol = lp.solve(lp._with_modes(p, _assignment_modes(p, x, y, delta)))
    assert sol.status == "optimal"
    cfg = _configuration(p, _binaries(p, x, y, delta), sol)

    doubled = scale_demand(s, 2.0)
    state = _state_for(doubled, cfg, seed=1)
    fix_problems(state)
    assert state.current.delta[("m2", "A")] == 1
    assert state.current.y["m2"] == 1
    assert validate_configuration(doubled, state.current, tol=1e-6) == []


def test_configuration_drops_balanced_lp_noise():
    # The LP solves to about 1e-12 of a traffic scale.  A row that balances
    # noise on one term against noise on others must not become a
    # violation: here an inflow a into one node is balanced by an inflow of
    # -b and a processed flow c (a = b + c), with c < 1e-12 t0 < a.
    s = generate(GeneratorParams(n_endpoints=2, n_nodes=4, rng_seed=1))
    p = lp.build_problem(s)
    t0 = p.traffic_scale
    assert t0 >= 1e8
    b = np.ones(p.n_binaries(), dtype=np.int8)
    sol = lp.solve(_assignment_problem(p, b))
    assert validate_configuration(s, _configuration(p, b, sol), tol=1e-6) == []
    into = {}
    for ref in p.variables:
        if ref.kind == "tau":
            into.setdefault(ref.index[1:], []).append(ref)
    key = next(
        k
        for k, refs in into.items()
        if k[0] in s.physical.nodes
        and len(refs) >= 2
        and lp.VarRef("processed", k) in p.var_index
        and all(sol.values[ref] == 0.0 for ref in refs)
    )
    noisy = sol.x.copy()
    noisy[p.var_index[into[key][0]]] = 2e-12 * t0
    noisy[p.var_index[into[key][1]]] = -1.5e-12 * t0
    noisy[p.var_index[lp.VarRef("processed", key)]] = 0.5e-12 * t0
    cfg = _configuration(p, b, dataclasses.replace(sol, x=noisy))
    assert validate_configuration(s, cfg, tol=1e-6) == []


def test_unfixable_instance_raises():
    s = single_vnf_scenario(demand=1.0 * GIG)
    cfg = initial_solution(s)
    state = _state_for(scale_demand(s, 100.0), cfg, seed=0)
    # everything already active: demand 100x exceeds total compute, nothing to add
    with pytest.raises(InstanceInfeasible):
        fix_problems(state)


def _rule_problem(p, x, y, delta, relaxed_kinds=()):
    """A repair LP as the procedure documents it: binaries of the relaxed
    kinds that are off range over [0, 1], every other binary is pinned."""
    modes = {}
    for ref in p.variables:
        on = {"x": x, "y": y, "delta": delta}.get(ref.kind)
        if on is not None:
            value = on.get(ref.index[0] if ref.kind == "y" else ref.index, 0)
            off = value == 0 and ref.kind in relaxed_kinds
            modes[ref] = lp.RELAXED if off else lp.fixed(value)
    return lp._with_modes(p, modes)


def test_repair_problems_follow_the_rule(monkeypatch):
    events = []
    real_solve, real_choice = lp.solve, loop.weighted_choice

    def spy_solve(p, *args, **kwargs):
        events.append(("solve", p))
        return real_solve(p, *args, **kwargs)

    def spy_choice(rng, items, weights):
        pick = real_choice(rng, items, weights)
        events.append(("pick", pick))
        return pick

    monkeypatch.setattr(lp, "solve", spy_solve)
    monkeypatch.setattr(loop, "weighted_choice", spy_choice)
    checked = {"pinned": 0, "x": 0, "delta": 0}
    for seed in range(8):
        s = make_toy(seed)
        state = start_loop(s, seed=0)
        save_energy(state)
        state.scenario = scale_demand(s, 3.0)
        state.base_problem = p0 = lp.build_problem(state.scenario)
        x, y, delta = (dict(b) for b in (state.current.x, state.current.y, state.current.delta))
        events.clear()
        with contextlib.suppress(InstanceInfeasible):
            fix_problems(state)
        links = set(s.link_ids())
        guide = None
        for what, item in events:
            if what == "solve" and item.objective is p0.objective:
                rebuilt = _rule_problem(p0, x, y, delta)
                assert np.array_equal(rebuilt.pins, item.pins)
                checked["pinned"] += 1
            elif what == "solve":
                guide = item
            else:
                # Each guide LP is followed by the activation it guided.
                kind = "x" if item in links else "delta"
                rebuilt = _guidance(_rule_problem(p0, x, y, delta, (kind, "y")))
                assert np.array_equal(rebuilt.pins, guide.pins)
                assert np.array_equal(rebuilt.objective, guide.objective)
                checked[kind] += 1
                if kind == "x":
                    x[item] = 1
                    y.update({end: 1 for end in item if end in s.physical.nodes})
                else:
                    y[item[0]] = 1
                    delta[item] = 1
    assert checked["x"] >= 7 and checked["delta"] >= 7
    assert checked["pinned"] > checked["x"]


def test_repair_without_actionable_family_diverges(monkeypatch):
    s = single_vnf_scenario(demand=1.0 * GIG)
    cfg = initial_solution(s)
    state = _state_for(scale_demand(s, 100.0), cfg, seed=0)
    # An IIS of flow-balance rows only names nothing to switch on.
    monkeypatch.setattr(
        loop,
        "compute_iis",
        lambda p, solution=None, *, minimal=True: IisReport(((1, ("m1",)),), frozenset({1}), 3),
    )
    with pytest.raises(RepairDiverged, match=r"IIS families \[1\]"):
        fix_problems(state)
    assert state.lp_solves["fix_problems"] == 4


def test_repair_from_the_certificate_decides_as_the_minimal_iis(monkeypatch):
    # The loop reads only the families of its report; the verified support
    # must lead to the same decisions as the minimal IIS, with fewer solves.
    # Every solve of a repair phase is one ``solve_dense`` call, in ``lp``
    # or in ``iis``, and counted in the phase's ``lp_solves``.
    real_fix, real_dense = loop.fix_problems, simplex.solve_dense
    dense_calls = [0]
    phases = []  # (solve_dense calls, lp_solves increase) per repair phase

    def spy_dense(*args, **kwargs):
        dense_calls[0] += 1
        return real_dense(*args, **kwargs)

    def spy_fix(state):
        calls, solves = dense_calls[0], state.lp_solves.get("fix_problems", 0)
        try:
            return real_fix(state)
        finally:
            phases.append((
                dense_calls[0] - calls, state.lp_solves.get("fix_problems", 0) - solves
            ))

    def minimal_sweep(p, solution=None, *, minimal=True):
        return iis.compute_iis(p, solution)

    monkeypatch.setattr(lp, "solve_dense", spy_dense)
    monkeypatch.setattr(iis, "solve_dense", spy_dense)
    monkeypatch.setattr(loop, "fix_problems", spy_fix)

    def outcomes():
        runs = []
        for toy in range(12):
            s = make_toy(toy)
            for seed in (0, 1):
                for factor in (1.6, 3.0):
                    hook = lambda r, st, s=s, factor=factor: (
                        scale_demand(s, factor) if r == 1 else None)
                    try:
                        state = run_loop(s, seed=seed, rounds=2, scenario_hook=hook)
                    except (InstanceInfeasible, RepairDiverged) as exc:
                        runs.append(type(exc))
                        continue
                    cfg = state.current
                    telemetry = [
                        {k: v for k, v in rec.items() if k != "lp_solves"}
                        for rec in state.telemetry
                    ]
                    runs.append((cfg.x, cfg.y, cfg.delta, cfg.tau, telemetry))
        return runs

    certified = outcomes()
    first_pass = len(phases)
    with monkeypatch.context() as m:
        m.setattr(loop, "compute_iis", minimal_sweep)
        swept = outcomes()
    assert certified == swept
    assert len(phases) == 2 * first_pass
    assert all(calls == solves for calls, solves in phases), phases
    certified_solves = sum(solves for _, solves in phases[:first_pass])
    assert certified_solves < sum(solves for _, solves in phases[first_pass:])


# ---------------------------------------------------------------------------
# save_energy


def test_redundant_switch_gets_deactivated(vepc):
    # add a third, switch-only node hanging off n2, away from any demand
    pg = vepc.physical
    extended = dataclasses.replace(
        vepc,
        physical=PhysicalGraph(
            nodes={**pg.nodes, "n3": Node(compute=0.0, switch_cost=0.0)},
            links={
                **pg.links,
                ("n2", "n3"): Link(10 * GIG),
                ("n3", "n2"): Link(10 * GIG),
            },
        ),
    )
    state = start_loop(extended, seed=0)
    save_energy(state)
    assert state.current.y["n3"] == 0
    assert state.current.x[("n2", "n3")] == 0
    assert state.current.x[("n3", "n2")] == 0
    assert validate_configuration(extended, state.current, tol=1e-6) == []


def test_exactly_sized_configuration_survives():
    # single path carrying demand at full capacity: first probe must reject
    s = single_vnf_scenario(
        demand=1.0 * GIG,
        k=(0.0, 1.0 * GIG),
        caps={("e0", "m1"): 1.0 * GIG, ("m1", "m2"): 1.0 * GIG, ("m2", "m1"): 1.0 * GIG},
    )
    x = {("e0", "m1"): 1, ("m1", "m2"): 1, ("m2", "m1"): 0}
    y = {"m1": 1, "m2": 1}
    delta = {("m1", "A"): 0, ("m2", "A"): 1}
    p = lp.build_problem(s)
    sol = lp.solve(lp._with_modes(p, _assignment_modes(p, x, y, delta)))
    cfg = _configuration(p, _binaries(p, x, y, delta), sol)
    state = _state_for(s, cfg, seed=0)
    save_energy(state)
    assert state.current.x == cfg.x
    assert state.current.y == cfg.y
    assert state.current.delta == cfg.delta
    assert state.deactivations == 0


def test_zero_demand_drains_to_zero_energy():
    s = _zero_demand_vepc()
    state = start_loop(s, seed=0)
    save_energy(state)
    assert energy_of(s, state.current).total == 0.0
    assert state.current.active_nodes() == []
    assert state.current.active_links() == []
    assert state.current.deployments() == []


def _shutdown_guidance(p, x, y, delta):
    """The shutdown guidance problem as the procedure documents it: active
    binaries relaxed, the rest pinned at 0."""
    modes = {}
    for ref in p.variables:
        on = {"x": x, "y": y, "delta": delta}.get(ref.kind)
        if on is not None:
            key = ref.index[0] if ref.kind == "y" else ref.index
            modes[ref] = lp.RELAXED if on.get(key, 0) == 1 else lp.fixed(0)
    return _guidance(lp._with_modes(p, modes))


def test_accepted_probe_is_next_guidance_problem(monkeypatch):
    solved = {}
    adopted = []
    real_solve, real_configuration = lp.solve, loop._configuration

    def spy_solve(p, *args, **kwargs):
        sol = real_solve(p, *args, **kwargs)
        solved[id(sol)] = (p, sol)
        return sol

    def spy_configuration(p, b, solution):
        cfg = real_configuration(p, b, solution)
        adopted.append((cfg.x, cfg.y, cfg.delta, id(solution)))
        return cfg

    monkeypatch.setattr(lp, "solve", spy_solve)
    monkeypatch.setattr(loop, "_configuration", spy_configuration)
    checked = 0
    for seed in range(12):
        s = make_toy(seed)
        state = start_loop(s, seed=0)
        adopted.clear()
        save_energy(state)
        seen = set()
        for x, y, delta, sol_id in adopted:
            # The first configuration built from a probe carries the
            # binaries that probe's acceptance produced.
            if sol_id in seen or sol_id not in solved:
                continue
            seen.add(sol_id)
            probe_p, probe = solved[sol_id]
            if probe_p.objective is state.base_problem.objective:
                continue  # the closing all-pinned solve, not a probe
            rebuilt = _shutdown_guidance(state.base_problem, x, y, delta)
            assert np.array_equal(rebuilt.pins, probe_p.pins)
            assert np.array_equal(rebuilt.objective, probe_p.objective)
            checked += 1
    assert checked >= 12


def test_repeated_shutdown_phase_is_skipped(monkeypatch):
    skipped = 0
    for seed in range(8):
        state = start_loop(make_toy(seed), seed=0)
        save_energy(state)
        if not (state.current.active_links() or state.current.active_nodes()
                or state.current.deployments()):
            continue  # drained everything; nothing was rejected
        solves = state.lp_solves["save_energy"]
        cfg = state.current
        save_energy(state)
        assert state.lp_solves["save_energy"] == solves
        assert state.telemetry[-1]["lp_solves"] == 0
        assert state.telemetry[-1]["deactivated"] == []
        assert state.current is cfg
        # Running the phase for real from the same start solves the guide
        # and rejects every powered element still on again: each probe by
        # the Farkas ray that rejected it before, with no solve.
        p0 = state.base_problem
        b = _binaries(p0, cfg.x, cfg.y, cfg.delta)
        powered_on = int(((p0.objective[: p0.n_binaries()] > 0.0) & (b == 1)).sum())
        lp._base(p0).memo.clear()
        screens = []

        def spy_screen(p, real=lp._screen):
            screens.append(real(p))
            return screens[-1]

        monkeypatch.setattr(lp, "_screen", spy_screen)
        save_energy(state)
        monkeypatch.undo()
        assert state.lp_solves["save_energy"] == solves + 1
        assert len(screens) == powered_on and None not in screens
        assert (state.current.x, state.current.y, state.current.delta) == (
            cfg.x, cfg.y, cfg.delta)
        skipped += 1
    assert skipped >= 4


def test_shutdown_skip_does_not_survive_demand_swap(vepc):
    relaxed = scale_demand(vepc, 0.9)
    state = run_loop(
        vepc, seed=0, rounds=3, scenario_hook=lambda r, st: relaxed if r == 1 else None
    )
    shutdown = [rec for rec in state.telemetry if rec["phase"] == "save_energy"]
    assert [rec["round"] for rec in shutdown] == [0, 1, 2]
    assert shutdown[1]["lp_solves"] > 0  # new base problem: solved afresh
    assert shutdown[2]["lp_solves"] == 0  # same problem, same binaries: skipped


@pytest.mark.parametrize("factor", [None, 3.0])
def test_run_never_solves_the_same_lp_twice(monkeypatch, factor):
    solved = []  # (key, problem); the problem keeps its constraints' id alive
    real_solve = lp.solve

    def spy_solve(p, *args, **kwargs):
        key = (id(p.constraints), p.pins.tobytes(), p.objective.tobytes())
        solved.append((key, p))
        return real_solve(p, *args, **kwargs)

    monkeypatch.setattr(lp, "solve", spy_solve)
    for seed in range(30):
        s = make_toy(seed)
        solved.clear()
        with contextlib.suppress(InstanceInfeasible):
            run_loop(s, seed=0, rounds=3, scenario_hook=lambda r, st, s=s: (
                scale_demand(s, factor) if factor and r == 1 else None))
        keys = [key for key, _ in solved]
        assert len(keys) == len(set(keys)), f"toy {seed} repeats a solve"


def test_demand_swap_drops_the_old_problems_solutions():
    s = make_toy(3)
    records = []

    def hook(r, st):
        records.append(weakref.ref(lp._base(st.base_problem)))
        return scale_demand(s, 1.0 + r / 10)

    # The run's scenario is a copy that nothing else holds: a scenario
    # keeps its problem and so its record, and ``s`` would keep the first.
    state = run_loop(dataclasses.replace(s), seed=0, rounds=4, scenario_hook=hook)
    gc.collect()
    # Each swap built a new problem; nothing holds an old one's record.
    assert len(records) == 4 and all(ref() is None for ref in records)
    assert lp._base(state.base_problem).memo


def test_demand_swap_keeps_a_shared_memo():
    s = make_toy(3)
    p = lp.build_problem(s)
    run_loop(s, 0, rounds=1, problem=p)
    record = lp._base(p)
    held = dict(record.memo)
    assert held
    state = run_loop(
        s,
        1,
        rounds=3,
        scenario_hook=lambda r, st: scale_demand(s, 1.3) if r == 1 else None,
        problem=p,
    )
    assert state.base_problem is not p
    # Round 0 repeats the first run's LPs; the LPs after the swap go to the
    # new problem's record.
    assert lp._base(p) is record and record.memo == held
    assert lp._base(state.base_problem) is not record
    assert lp._base(state.base_problem).memo


def test_infeasible_shutdown_guidance_raises(vepc, monkeypatch):
    state = start_loop(vepc, seed=0)
    monkeypatch.setattr(
        lp, "solve", lambda p, **kw: lp.LpSolution("infeasible", {}, float("inf"))
    )
    with pytest.raises(InvariantBroken):
        save_energy(state)


def test_infeasible_final_pinned_solve_raises(monkeypatch):
    # The adopted probe's point with its relaxed active binaries raised to 1
    # is feasible for the pinned LP of the binaries kept; that LP's solve
    # failing breaks the loop instead of keeping the probe's flows.
    state = start_loop(make_toy(0), seed=0)
    p0 = state.base_problem
    real_solve = lp.solve
    finals = []

    def spy_solve(p, **kwargs):
        if (p.pins >= 0).all() and np.array_equal(p.objective, p0.objective):
            finals.append(p)
            return lp.LpSolution("infeasible", np.zeros(0), float("inf"))
        return real_solve(p, **kwargs)

    monkeypatch.setattr(lp, "solve", spy_solve)
    with pytest.raises(InvariantBroken, match="adopted shutdowns is infeasible"):
        save_energy(state)
    assert len(finals) == 1 and state.deactivations > 0


def test_record_is_freed_with_its_problem_without_the_collector():
    # The record keeps its starts, whose frames hold the dense rows ``A``
    # and not the record, and the problem holds no reference to its
    # scenario, so no cycle runs through either: dropping the loop state,
    # the problem and its copies, and the scenario, which keeps its
    # problem, frees the record by reference counts alone.  The scenario is
    # a copy of the toy, not solved yet, with a record of its own.
    s = dataclasses.replace(make_toy(3))
    p = lp.build_problem(s)
    gc.collect()
    gc.disable()
    try:
        state = run_loop(s, seed=0, rounds=2, problem=p)
        record = weakref.ref(lp._base(p))
        assert record().start.frame is not None and record().pinned_start is not None
        del state, p, s
        assert record() is None
    finally:
        gc.enable()


def test_restarted_probes_agree_with_cold_solves(monkeypatch):
    # Every fresh solve after its base problem's first optimum restarts from
    # a frame of that problem's block, never falls back to the cold solve,
    # and agrees with the cold solve.  Every probe that a stored Farkas ray
    # rejects without a solve is infeasible solved cold.  The cold solves
    # run on a copy with a record of its own, so they leave no ray behind.
    restarts = {"optimal": 0, "infeasible": 0}
    screened = []
    colds = []
    solved = {}  # id -> record, of the records with an optimum so far
    real_solve, real_cold, real_screen = lp.solve, simplex._cold, lp._screen

    def cold_solve(p, *args, **kwargs):
        fresh = dataclasses.replace(p, constraints=tuple(p.constraints))
        return real_solve(fresh, *args, **kwargs)

    def spy_screen(p):
        sol = real_screen(p)
        if sol is not None:
            assert sol.status == "infeasible" and sol.iterations == 0
            assert cold_solve(p).status == "infeasible"
            screened.append(p)
        return sol

    def spy_cold(*args):
        colds.append(args)
        return real_cold(*args)

    def spy_solve(p, *args, start=None, **kwargs):
        block = lp._base(p)
        if id(block) not in solved:
            sol = real_solve(p, *args, start=start, **kwargs)
            if sol.is_feasible:
                solved[id(block)] = block
            return sol
        assert start is not None and start.frame.A is block.A
        colds.clear()
        sol = real_solve(p, *args, start=start, **kwargs)
        assert colds == [], "the restart fell back to the cold solve"
        cold = cold_solve(p, *args, **kwargs)
        assert sol.status == cold.status
        if cold.is_feasible:
            assert sol.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
            assert sol.max_residual <= 1e-9
        else:
            support = np.flatnonzero(np.abs(sol.row_duals) > 1e-9).tolist()
            assert support and not _feasible(p, support)
        restarts[sol.status] += 1
        return sol

    monkeypatch.setattr(lp, "solve", spy_solve)
    monkeypatch.setattr(simplex, "_cold", spy_cold)
    monkeypatch.setattr(lp, "_screen", spy_screen)
    for toy in range(12):
        s = make_toy(toy)
        for seed in (0, 1, 2):
            for factor in (None, 3.0):
                problems = []

                def hook(r, state, s=s, factor=factor):
                    problems.append(state.base_problem)
                    return scale_demand(s, factor) if factor and r == 1 else None

                # A copy of the scenario, not solved yet, with a record of
                # its own, as every run had before scenarios kept their
                # problems.
                with contextlib.suppress(InstanceInfeasible):
                    state = run_loop(
                        dataclasses.replace(s), seed=seed, rounds=3, scenario_hook=hook
                    )
                    problems.append(state.base_problem)
                # Each problem's record holds at most two frames, its
                # starts'; every memo entry is frameless.
                for p in problems:
                    record = lp._base(p)
                    assert all(sol.frame is None for sol in record.memo.values())
                    held = [*record.memo.values(), record.start, record.pinned_start]
                    assert sum(sol is not None and sol.frame is not None for sol in held) <= 2
    assert restarts["optimal"] >= 200 and restarts["infeasible"] >= 150, restarts
    assert len(screened) >= 50, len(screened)


# ---------------------------------------------------------------------------
# run_loop


def test_broken_invariant_raises_typed_error(vepc, monkeypatch):
    broken = [Violation(4, "link capacity", ("n1", "n2"), 1.0)]
    monkeypatch.setattr(loop, "validate_configuration", lambda *a, **kw: broken)
    with pytest.raises(InvariantBroken, match="loop invariant broken"):
        run_loop(vepc, seed=0, rounds=1)


def test_zero_rounds_returns_all_on(vepc):
    state = run_loop(vepc, seed=9, rounds=0)
    assert all(v == 1 for v in state.current.y.values())
    assert all(v == 1 for v in state.current.x.values())
    assert state.total_solves() == 1


def test_seed_determinism(vepc):
    a = run_loop(vepc, seed=123, rounds=3)
    b = run_loop(vepc, seed=123, rounds=3)
    assert a.current.x == b.current.x
    assert a.current.y == b.current.y
    assert a.current.delta == b.current.delta
    assert a.current.tau == b.current.tau
    assert energy_of(vepc, a.current).total == energy_of(vepc, b.current).total


def test_fixture_loop_lands_near_enumeration_optimum(vepc):
    from optiloop.baselines import exact_optimum

    state = run_loop(vepc, seed=1, rounds=3)
    final = energy_of(vepc, state.current).total
    best = exact_optimum(vepc).energy.total
    assert best <= final + 1e-5 * best
    assert final <= 1.10 * best


def test_demand_swap_between_rounds_repairs():
    s = _two_path_scenario()
    doubled = scale_demand(s, 2.0)
    state = run_loop(
        s, seed=7, rounds=2, scenario_hook=lambda r, st: doubled if r == 1 else None
    )
    assert state.scenario is doubled
    assert validate_configuration(doubled, state.current, tol=1e-6) == []


def test_phase_telemetry_is_json(vepc, caplog):
    with caplog.at_level(logging.INFO, logger="optiloop.loop"):
        run_loop(vepc, seed=0, rounds=1)
    records = [json.loads(r.message) for r in caplog.records]
    phases = [r["phase"] for r in records]
    assert phases == ["initial", "fix_problems", "save_energy"]
    for rec in records:
        assert {"phase", "round", "lp_solves", "activated", "deactivated",
                "energy_before", "energy_after"} <= set(rec)


def test_energy_never_increases_with_flows_held(vepc):
    """Each accepted shutdown can only drop terms at the adopted flows."""
    state = start_loop(vepc, seed=0)
    save_energy(state)  # the in-procedure check raises InvariantBroken otherwise
    assert validate_configuration(vepc, state.current, tol=1e-6) == []


def test_shutdown_probes_only_powered_binaries(monkeypatch):
    """Links and unpowered placements are never probed on their own: they
    draw no fixed power, so switching one off cannot lower the energy."""
    probed = []
    real_switch = loop._switch

    def spy_switch(b, col, value, gates):
        if value == 0:
            probed.append(col)
        real_switch(b, col, value, gates)

    monkeypatch.setattr(loop, "_switch", spy_switch)
    for seed in range(12):
        state = start_loop(make_toy(seed), seed=0)
        probed.clear()
        save_energy(state)
        assert probed, f"toy {seed} probed nothing"
        objective = state.base_problem.objective
        assert all(objective[col] > 0.0 for col in probed), f"toy {seed}"


def test_no_shutdown_phase_raises_the_energy():
    checked = 0
    for toy in range(30):
        s = make_toy(toy)
        tripled = scale_demand(s, 3.0)
        for seed in (0, 1):
            try:
                state = run_loop(
                    s, seed=seed, rounds=3,
                    scenario_hook=lambda r, st, tripled=tripled: tripled if r == 1 else None,
                )
            except InstanceInfeasible:
                continue  # repair ran out of elements at x3.0
            for rec in state.telemetry:
                if rec["phase"] != "save_energy":
                    continue
                before, after = rec["energy_before"], rec["energy_after"]
                assert after <= before * (1.0 + 1e-9), (toy, seed, rec["round"], before, after)
                checked += 1
    assert checked >= 150


def test_rejected_lists_powered_elements_left_on():
    for seed in range(8):
        state = run_loop(make_toy(seed), seed=0, rounds=1)
        p0, cfg = state.base_problem, state.current
        b = _binaries(p0, cfg.x, cfg.y, cfg.delta)
        left_on = np.flatnonzero((p0.objective[: p0.n_binaries()] > 0.0) & (b == 1))
        expected = [list(map(str, loop._element(p0, col))) for col in left_on.tolist()]
        shutdown = state.telemetry[-1]
        assert shutdown["phase"] == "save_energy"
        assert expected, f"toy {seed} left no powered element on"
        assert sorted(shutdown["rejected"]) == sorted(expected)
        assert all(rec["rejected"] == [] for rec in state.telemetry[:-1])


# ---------------------------------------------------------------------------
# sampling


def test_weighted_choice_matches_weights_within_3_sigma():
    rng = np.random.default_rng(99)
    items = ["a", "b", "c", "d"]
    weights = [0.1, 0.0, 0.7, 0.2]
    n = 10_000
    counts = {k: 0 for k in items}
    for _ in range(n):
        counts[weighted_choice(rng, items, weights)] += 1
    assert counts["b"] == 0  # zero-weight candidates are excluded
    for item, w in zip(items, weights):
        if w == 0.0:
            continue
        expect = n * w
        sigma = (n * w * (1 - w)) ** 0.5
        assert abs(counts[item] - expect) <= 3 * sigma


def test_weighted_choice_uniform_fallback():
    rng = np.random.default_rng(4)
    items = ["a", "b", "c"]
    counts = {k: 0 for k in items}
    for _ in range(3000):
        counts[weighted_choice(rng, items, [0.0, 0.0, 0.0])] += 1
    for item in items:
        assert abs(counts[item] - 1000) < 3 * (3000 * (1 / 3) * (2 / 3)) ** 0.5


# ---------------------------------------------------------------------------
# The binary vector


def _switched_by_rule(s, x, y, delta, kind, key, value):
    """Copies of the binaries with ``key`` of ``kind`` at ``value``: a node
    off takes its incident links and its instances off, a link on turns its
    node ends on, a placement on turns its node on."""
    x, y, delta = dict(x), dict(y), dict(delta)
    {"x": x, "y": y, "delta": delta}[kind][key] = value
    if kind == "y" and not value:
        x.update({lk: 0 for lk in x if key in lk})
        delta.update({pair: 0 for pair in delta if pair[0] == key})
    elif kind == "x" and value:
        y.update({end: 1 for end in key if end in s.physical.nodes})
    elif kind == "delta" and value:
        y[key[0]] = 1
    return x, y, delta


def test_binary_vector_matches_mode_rule_and_cascades():
    cases = [make_toy(seed) for seed in range(12)] + [
        generate(GeneratorParams(n_endpoints=2, n_nodes=4, rng_seed=seed))
        for seed in (1, 2, 3)
    ]
    relax_maps = (None, {"x": 0, "y": 0}, {"delta": 0, "y": 0}, {"x": 1, "y": 1, "delta": 1})
    rng = np.random.default_rng(7)
    cascaded = 0
    for s in cases:
        p = lp.build_problem(s)
        gates = loop._gates(p)
        for _ in range(3):
            x = {lk: int(rng.integers(2)) for lk in s.link_ids()}
            y = {c: int(rng.integers(2)) for c in s.node_ids()}
            delta = {(c, v): int(rng.integers(2)) for c in s.node_ids() for v in s.vnf_ids()}
            b = _binaries(p, x, y, delta)
            held = {"x": x, "y": y, "delta": delta}
            for relax in relax_maps:
                rule = {}
                for kind, values in held.items():
                    for key, value in values.items():
                        ref = lp.VarRef(kind, (key,) if kind == "y" else key)
                        off = (relax or {}).get(kind) == value
                        rule[ref] = lp.RELAXED if off else lp.fixed(value)
                want = lp._with_modes(p, rule)
                for got in (
                    _assignment_problem(p, b, relax),
                    lp._with_modes(p, _assignment_modes(p, x, y, delta, relax)),
                ):
                    assert np.array_equal(got.pins, want.pins)
            for kind, values in held.items():
                for key in values:
                    col = p.var_index[lp.VarRef(kind, (key,) if kind == "y" else key)]
                    for value in (0, 1):
                        got = b.copy()
                        loop._switch(got, col, value, gates)
                        want = _binaries(
                            p, *_switched_by_rule(s, x, y, delta, kind, key, value)
                        )
                        assert np.array_equal(got, want), (kind, key, value)
                        cascaded += int(np.abs(got - b).sum() > 1)
    assert cascaded > 100
