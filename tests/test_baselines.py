"""Benchmark strategies: closed forms, hand traces, the enumeration oracle."""

import contextlib
import dataclasses
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from conftest import single_vnf_scenario
from corpus import make_capacity_starved, make_compute_starved, make_toy
from optiloop import baselines, lp
from optiloop.baselines import (
    all_active,
    consolidation,
    exact_optimum,
    optiloop_strategy,
    relaxed_bound,
)
from optiloop.errors import BudgetExceeded, InstanceInfeasible
from optiloop.loop import run_loop
from optiloop.model import (
    EnergyModel,
    Link,
    LogicalGraph,
    Node,
    PhysicalGraph,
    Scenario,
    validate_configuration,
)
from optiloop.scenario import (
    GeneratorParams,
    configuration_to_dict,
    generate,
    scale_demand,
    strategy_result_to_dict,
    vepc_two_node,
)

GIG = 1e9
GOLDEN = Path(__file__).parent / "golden"


def _zero_demand(s):
    lg = s.logical
    zeroed = {k: 0.0 for k in lg.ingress_demand}
    return dataclasses.replace(
        s, logical=dataclasses.replace(lg, ingress_demand=zeroed)
    )


# ---------------------------------------------------------------------------
# all_active


def test_all_active_zero_demand_closed_form(vepc):
    s = _zero_demand(vepc)
    res = all_active(s)
    C = len(s.physical.nodes)
    V = len(s.logical.vnfs)
    assert res.energy.total == C * s.energy.idle_power + C * V * s.energy.placement_power
    assert res.energy.placement == 0.0  # instance power is zero by default


def test_all_active_counts_placement_power(vepc):
    pricey = dataclasses.replace(
        vepc, energy=dataclasses.replace(vepc.energy, placement_power=2.0)
    )
    s = _zero_demand(pricey)
    res = all_active(s)
    assert res.energy.placement == 2.0 * len(s.physical.nodes) * len(s.logical.vnfs)


def test_all_active_fixture_hand_value(vepc):
    """Optimal routing splits the MME between the two nodes: 2 Gbit/s total
    node egress, so 130 idle + 144 processing + 6.5 switching."""
    res = all_active(vepc)
    assert res.energy.total == pytest.approx(280.5, abs=1e-6)
    assert res.energy.idle == 130.0
    assert res.energy.processing == pytest.approx(144.0, abs=1e-9)
    assert res.energy.switching == pytest.approx(6.5, abs=1e-9)


def test_all_active_dominates_loop(vepc):
    aa = all_active(vepc)
    ol = optiloop_strategy(vepc, seed=0, rounds=2)
    # both nodes are load-bearing here, so the loop can only match or pay
    # a small routing penalty for the zero-cost instances it sheds
    assert aa.energy.total <= ol.energy.total + 1.0
    assert validate_configuration(vepc, ol.configuration, tol=1e-6) == []


def test_all_active_counts_only_the_solves_it_makes(vepc):
    p = lp.build_problem(vepc)
    first = all_active(vepc, problem=p)
    again = all_active(vepc, problem=p)  # the problem holds its LP's solution now
    assert (first.stats["lp_solves"], again.stats["lp_solves"]) == (1, 0)
    assert again.energy == first.energy
    # A copy of the problem with a record of its own solves the LP again.
    own = all_active(vepc, problem=dataclasses.replace(p, constraints=tuple(p.constraints)))
    assert own.stats["lp_solves"] == 1 and own.energy == first.energy


def test_loop_after_all_active_opens_on_its_solve(caplog):
    def without_solves(result):
        stats = {k: v for k, v in result.stats.items() if k != "lp_solves"}
        return dataclasses.asdict(result.configuration), result.energy, stats

    for toy in range(6):
        s = make_toy(toy)
        p = lp.build_problem(s)
        all_active(s, problem=p)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="optiloop.loop"):
            shared = optiloop_strategy(s, 0, 3, problem=p)
        records = [json.loads(r.getMessage()) for r in caplog.records]
        assert [r["lp_solves"] for r in records if r["phase"] == "initial"] == [0], toy
        # A copy of the scenario is another object, with a build and a
        # record of its own.
        alone = optiloop_strategy(dataclasses.replace(s), 0, 3)
        assert shared.stats["lp_solves"] == alone.stats["lp_solves"] - 1, toy
        assert without_solves(shared) == without_solves(alone), toy


def test_all_active_infeasible_instance():
    s = single_vnf_scenario(demand=5.0 * GIG, caps={("e0", "m1"): 1.0 * GIG})
    with pytest.raises(InstanceInfeasible):
        all_active(s)


def test_all_active_infeasibility_is_tagged():
    s = single_vnf_scenario(demand=5.0 * GIG, caps={("e0", "m1"): 1.0 * GIG})
    with pytest.raises(InstanceInfeasible) as err:
        all_active(s)
    assert err.value.context == "all_active"


# ---------------------------------------------------------------------------
# consolidation


def test_consolidation_single_flow_minimal_chain():
    """One flow through a two-step chain: one instance per function, nothing
    beyond the needed path activated."""
    logical = LogicalGraph(
        endpoints={"e0"},
        vnfs={"A", "B"},
        chi={("e0", "A", "B"): 1.0},
        ingress_demand={("e0", "A"): 1.0 * GIG},
    )
    physical = PhysicalGraph(
        nodes={
            "m1": Node(10 * GIG),
            "m2": Node(10 * GIG),
            "m3": Node(10 * GIG),
        },
        links={
            ("e0", "m1"): Link(10 * GIG),
            ("m1", "m2"): Link(10 * GIG),
            ("m2", "m1"): Link(10 * GIG),
            ("m2", "m3"): Link(10 * GIG),
            ("m3", "m2"): Link(10 * GIG),
        },
    )
    s = Scenario(
        logical=logical,
        physical=physical,
        energy=EnergyModel(idle_power=65.0, proc_power_per_unit=48e-9,
                           switch_energy_per_bit=3.25e-9),
    )
    res = consolidation(s)
    counts = {}
    for (c, v), val in res.configuration.delta.items():
        counts[v] = counts.get(v, 0) + val
    assert counts == {"A": 1, "B": 1}
    assert res.configuration.y["m3"] == 0  # never needed
    assert validate_configuration(s, res.configuration, tol=1e-6) == []
    assert res.stats["stages"]["activate"] >= 1


def test_consolidation_reuses_instances_on_second_flow():
    logical = LogicalGraph(
        endpoints={"e0", "e1"},
        vnfs={"A"},
        chi={},
        ingress_demand={("e0", "A"): 1.0 * GIG, ("e1", "A"): 1.0 * GIG},
    )
    physical = PhysicalGraph(
        nodes={"m1": Node(8 * GIG), "m2": Node(8 * GIG)},
        links={
            ("e0", "m1"): Link(8 * GIG),
            ("e1", "m1"): Link(8 * GIG),
            ("m1", "m2"): Link(8 * GIG),
            ("m2", "m1"): Link(8 * GIG),
        },
    )
    s = Scenario(logical=logical, physical=physical,
                 energy=EnergyModel(idle_power=65.0, proc_power_per_unit=48e-9))
    res = consolidation(s)
    assert sum(res.configuration.delta.values()) == 1  # one shared instance
    assert res.stats["stages"]["reuse"] >= 1
    assert res.stats["stages"]["activate"] == 1


def test_consolidation_zero_demand_activates_nothing(vepc):
    res = consolidation(_zero_demand(vepc))
    assert res.energy.total == 0.0
    assert res.configuration.active_nodes() == []


def test_consolidation_deterministic(vepc):
    r1 = consolidation(vepc)
    r2 = consolidation(vepc)
    assert r1.configuration.x == r2.configuration.x
    assert r1.configuration.delta == r2.configuration.delta
    assert r1.energy.total == r2.energy.total


def test_consolidation_dead_end_reports_stage():
    s = single_vnf_scenario(demand=2.0 * GIG, k=(0.5 * GIG, 0.5 * GIG))
    with pytest.raises(InstanceInfeasible) as err:
        consolidation(s)
    assert "consolidation" in (err.value.context or "")


# ---------------------------------------------------------------------------
# exact_optimum


def test_exact_zero_demand_all_off(vepc):
    res = exact_optimum(_zero_demand(vepc))
    assert res.energy.total == 0.0
    assert res.configuration.active_nodes() == []
    assert res.stats["exact"] is True


def test_exact_avoids_switching_heavy_host():
    """Hosting the first function on the high-switching-cost node would
    exhaust its compute, so the optimum processes it on the other node."""
    logical = LogicalGraph(
        endpoints={"e0"},
        vnfs={"A", "B"},
        chi={("e0", "A", "B"): 1.0},
        ingress_demand={("e0", "A"): 1.0 * GIG},
    )
    physical = PhysicalGraph(
        nodes={
            "m1": Node(compute=2.5 * GIG, switch_cost=2.0),
            "m2": Node(compute=2.5 * GIG, switch_cost=0.0),
        },
        links={
            ("e0", "m1"): Link(8 * GIG),
            ("e0", "m2"): Link(8 * GIG),
            ("m1", "m2"): Link(8 * GIG),
            ("m2", "m1"): Link(8 * GIG),
        },
    )
    s = Scenario(logical=logical, physical=physical,
                 energy=EnergyModel(idle_power=65.0, proc_power_per_unit=48e-9,
                                    switch_energy_per_bit=3.25e-9))
    res = exact_optimum(s)
    assert res.energy.total == pytest.approx(130 + 96 + 3.25, abs=1e-6)
    processed_a_at = {
        c for (c, e, v1, v2), val in res.configuration.processed.items()
        if v2 == "A" and val > 1e-3
    }
    assert processed_a_at == {"m2"}


def test_exact_placement_power_prunes_spares():
    """With instance power on, the optimum deploys exactly what it uses."""
    s = single_vnf_scenario(
        demand=1.0 * GIG,
        energy=EnergyModel(idle_power=10.0, placement_power=3.0,
                           proc_power_per_unit=1e-9),
    )
    res = exact_optimum(s)
    assert sum(res.configuration.delta.values()) == 1
    assert res.energy.placement == 3.0
    assert res.energy.total == pytest.approx(10.0 + 3.0 + 1.0)


def test_exact_budget_exceeded_carries_best(vepc):
    with pytest.raises(BudgetExceeded) as err:
        exact_optimum(vepc, budget=1)
    assert err.value.assignments == 1
    if err.value.best is not None:
        assert err.value.best.stats["exact"] is False


def test_exact_rejects_too_many_nodes_before_building(vepc, monkeypatch):
    builds = []
    monkeypatch.setattr(lp, "build_problem", lambda s: builds.append(s))
    monkeypatch.setattr(baselines, "ENUMERABLE_NODES", len(vepc.node_ids()) - 1)
    with pytest.raises(BudgetExceeded):
        exact_optimum(vepc)
    assert builds == []


def test_exact_restarts_each_assignment_from_the_previous_optimum(monkeypatch):
    calls = []
    real = lp.solve

    def spy(p, start=None, **kwargs):
        sol = real(p, start=start, **kwargs)
        calls.append((start, sol))
        return sol

    for toy in range(4):
        s = make_toy(toy)
        monkeypatch.setattr(lp, "solve", spy)
        calls.clear()
        res = exact_optimum(s)
        monkeypatch.undo()
        # An assignment that a stored Farkas ray proves infeasible is not
        # solved, so the solves can fall short of the assignments.
        assert len(calls) == res.stats["lp_solves"] <= res.stats["assignments"]
        assert res.stats["assignments"] > 1
        latest = None
        for start, sol in calls:
            assert start is latest
            if sol.is_feasible:
                latest = sol
        assert calls[-1][0] is not None
        # Solved cold, the enumeration finds the same optimum.
        monkeypatch.setattr(lp, "solve", lambda p, start=None, **kw: real(p, **kw))
        assert exact_optimum(s).energy.total == pytest.approx(res.energy.total, rel=1e-9)
        monkeypatch.undo()


def test_exact_skips_assignments_the_loop_proved_infeasible(monkeypatch):
    # The CLI sweep's order on one built LP of a 1x3 instance: the loop's
    # rejected probes leave Farkas rays in the problem's record, and those
    # prove some of the enumeration's assignments infeasible unsolved.
    s = generate(GeneratorParams(
        n_endpoints=1, n_nodes=3, endpoint_demand_range=(0.3 * GIG, 0.9 * GIG),
        node_processing_capacity=8 * GIG, rng_seed=1,
    ))  # fmt: skip
    alone = exact_optimum(s)
    p = lp.build_problem(s)
    all_active(s, problem=p)
    for seed in (0, 1):
        optiloop_strategy(s, seed, 3, problem=p)
    screened = []

    def spy_screen(q, real=lp._screen):
        sol = real(q)
        if sol is not None:
            screened.append(q)
        return sol

    monkeypatch.setattr(lp, "_screen", spy_screen)
    shared = exact_optimum(s, problem=p)
    monkeypatch.undo()
    assert shared.stats["assignments"] == alone.stats["assignments"]
    assert len(screened) == shared.stats["assignments"] - shared.stats["lp_solves"] > 0
    assert configuration_to_dict(shared.configuration) == configuration_to_dict(
        alone.configuration
    )
    assert shared.energy == alone.energy
    for q in screened:
        fresh = dataclasses.replace(q, constraints=tuple(q.constraints))
        assert lp.solve(fresh).status == "infeasible"


def test_exact_golden_regression(vepc):
    res = exact_optimum(vepc)
    got = strategy_result_to_dict(res)
    want = json.loads((GOLDEN / "exact_vepc_two_node.json").read_text())
    assert got == want


def test_sandwich_on_toys():
    for seed in (0, 1, 2):
        s = make_toy(seed)
        lb = relaxed_bound(s)
        ex = exact_optimum(s)
        aa = all_active(s)
        ol = optiloop_strategy(s, seed=seed, rounds=2)
        cons = consolidation(s)
        slack = 1e-5 * max(1.0, ex.energy.total)
        assert lb <= ex.energy.total + slack
        assert ex.energy.total <= ol.energy.total + slack
        assert ex.energy.total <= cons.energy.total + slack
        assert ol.energy.total <= aa.energy.total + slack


def test_strategy_configurations_validate():
    s = make_toy(5)
    for res in (all_active(s), consolidation(s), exact_optimum(s),
                optiloop_strategy(s, seed=5, rounds=2)):
        assert validate_configuration(s, res.configuration, tol=1e-6) == [], res.name


def test_all_active_pays_most_when_a_node_is_dispensable():
    """With idle power on and a clearly spare node, everything-on loses to
    every other strategy."""
    pg = vepc_two_node().physical
    base = vepc_two_node()
    s = dataclasses.replace(
        base,
        physical=PhysicalGraph(
            nodes={**pg.nodes, "n3": Node(compute=0.0, switch_cost=0.0)},
            links={**pg.links, ("n2", "n3"): Link(10 * GIG), ("n3", "n2"): Link(10 * GIG)},
        ),
    )
    aa = all_active(s).energy.total
    for res in (consolidation(s), exact_optimum(s), optiloop_strategy(s, seed=0, rounds=2)):
        assert res.energy.total < aa, res.name


# ---------------------------------------------------------------------------
# relaxed_bound


def _relaxed_root_instances():
    yield from (make_toy(seed) for seed in range(30))
    for seed in (1, 2, 3):
        yield generate(GeneratorParams(n_endpoints=2, n_nodes=4, rng_seed=seed))
    yield generate(GeneratorParams(n_endpoints=4, n_nodes=8, rng_seed=1))


def _all_on_pinned(p):
    return baselines._assignment_problem(p, np.ones(p.n_binaries(), dtype=np.int8))


def test_relaxed_bound_restarts_from_the_all_on_optimum(monkeypatch):
    """The bound is the cold relaxed root's objective.  On a scenario not
    solved yet the one cold solve behind it is the all-on pinned LP: every
    binary column fixed.  A second call on the same scenario makes no cold
    solve and returns the same bound, bit for bit."""
    calls = []  # (start, lo, hi) of each solve_dense call

    def spy(*args, real=lp.solve_dense, **kwargs):
        calls.append((kwargs.get("start"), kwargs["lo"], kwargs["hi"]))
        return real(*args, **kwargs)

    for s in _relaxed_root_instances():
        p = lp.build_problem(s)
        cold = lp.solve(p)
        assert cold.status == "optimal"
        fresh = dataclasses.replace(s)  # another object: a record of its own
        monkeypatch.setattr(lp, "solve_dense", spy)
        bound = relaxed_bound(fresh)
        monkeypatch.undo()
        assert bound == pytest.approx(cold.objective_value, rel=1e-9, abs=1e-9)
        nb = p.n_binaries()
        cold_calls = [(lo, hi) for start, lo, hi in calls if start is None]
        assert len(cold_calls) == 1
        lo, hi = cold_calls[0]
        assert (lo[:nb] == hi[:nb]).all()
        calls.clear()
        monkeypatch.setattr(lp, "solve_dense", spy)
        again = relaxed_bound(fresh)
        monkeypatch.undo()
        assert [start for start, _, _ in calls if start is None] == []
        assert again == bound
        calls.clear()


def test_relaxed_root_is_feasible_exactly_when_the_all_on_lp_is():
    """Raising every binary to 1 keeps a relaxed-feasible point feasible, so
    the cold relaxed root and the all-on pinned LP agree on feasibility;
    relaxed_bound raises on the infeasible ones with its usual message."""
    makers = (make_capacity_starved, make_compute_starved)
    starved = [make(seed) for seed in range(50) for make in makers]
    infeasible = 0
    for s in starved + [make_toy(seed) for seed in range(30)]:
        p = lp.build_problem(s)
        cold = lp.solve(p).status
        assert cold == lp.solve(_all_on_pinned(p)).status
        if cold == "infeasible":
            infeasible += 1
            with pytest.raises(InstanceInfeasible, match="^relaxed problem infeasible$"):
                relaxed_bound(s)
    assert infeasible == len(starved)


# ---------------------------------------------------------------------------
# Calls sharing one scenario


_CALLS = (
    ("relaxed_bound", relaxed_bound),
    ("exact", exact_optimum),
    ("optiloop seed 0", lambda s: optiloop_strategy(s, 0, 3)),
    ("optiloop seed 1", lambda s: optiloop_strategy(s, 1, 3)),
    ("all_active", all_active),
    ("consolidation", consolidation),
)


def _decided(call, s):
    """The bound of ``call(s)``, or its configuration field for field and
    its energy; "infeasible" when it raises InstanceInfeasible."""
    try:
        result = call(s)
    except InstanceInfeasible:
        return "infeasible"
    if isinstance(result, float):
        return result
    return dataclasses.asdict(result.configuration), result.energy


def test_results_do_not_depend_on_call_history():
    """Every call on a scenario shares its built problem and the record of
    its solves, and returns what the same call returns on a fresh copy of
    the scenario, whichever calls ran on it before: the bound bit for bit.
    The toys and the generated scenario come checked, so their all-on LP
    is solved before the first call.  Every call does so on a scenario that
    a loop run swapped to as well, since that run solved on a problem of its
    own."""
    instances = [make_toy(toy) for toy in range(12)]
    instances.append(generate(GeneratorParams(n_endpoints=2, n_nodes=4, rng_seed=1)))
    for n, s in enumerate(instances):
        alone = {name: _decided(call, dataclasses.replace(s)) for name, call in _CALLS}
        for order in (_CALLS, _CALLS[::-1]):
            for name, call in order:
                assert _decided(call, s) == alone[name], (n, name, order[0][0])
        for factor in (1.6, 3.0):
            shifted = scale_demand(s, factor)
            with contextlib.suppress(InstanceInfeasible):
                run_loop(s, 0, 3, scenario_hook=lambda r, state: shifted if r == 1 else None)
            for name, call in _CALLS:
                want = _decided(call, dataclasses.replace(shifted))
                assert _decided(call, shifted) == want, (n, name, factor)
