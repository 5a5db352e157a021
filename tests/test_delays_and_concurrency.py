"""Delay budgets (optional family) and the safe-concurrency claims."""

import dataclasses
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import single_vnf_scenario
from corpus import make_toy
from optiloop import lp
from optiloop.loop import _all_on, _assignment_modes, initial_solution, run_loop
from optiloop.model import (
    Link,
    NetworkConfiguration,
    PhysicalGraph,
    energy_of,
    validate_configuration,
)
from optiloop.scenario import GeneratorParams, generate

GIG = 1e9


def _delayed_scenario(bound):
    s = single_vnf_scenario(demand=1.0 * GIG, k=(0.0, 10 * GIG))
    slow = PhysicalGraph(
        nodes=s.physical.nodes,
        links={
            ("e0", "m1"): Link(10 * GIG, delay=0.004),
            ("m1", "m2"): Link(10 * GIG, delay=0.006),
            ("m2", "m1"): Link(10 * GIG, delay=0.006),
        },
    )
    return dataclasses.replace(
        s, physical=slow, delays_enabled=True, max_delay={"e0": bound}
    )


def test_delay_budget_gates_feasibility():
    # the only route is e0 -> m1 -> m2: 10 ms of network delay per bit
    tight = _delayed_scenario(bound=0.009)
    p = lp.build_problem(tight)
    x, y, d = _all_on(tight)
    sol = lp.solve(lp._with_modes(p, _assignment_modes(p, x, y, d)))
    assert sol.status == "infeasible"

    loose = _delayed_scenario(bound=0.011)
    assert initial_solution(loose) is not None


def test_delay_violation_reported_by_validator():
    tight = _delayed_scenario(bound=0.009)
    cfg = NetworkConfiguration(
        x={("e0", "m1"): 1, ("m1", "m2"): 1, ("m2", "m1"): 0},
        y={"m1": 1, "m2": 1},
        delta={("m2", "A"): 1},
        tau={
            ("e0", "m1", "e0", "A", "A"): 1.0 * GIG,
            ("m1", "m2", "e0", "A", "A"): 1.0 * GIG,
        },
        transit={("m1", "e0", "A", "A"): 1.0 * GIG},
        processed={("m2", "e0", "A", "A"): 1.0 * GIG},
    )
    fams = {v.family for v in validate_configuration(tight, cfg, tol=1e-9)}
    assert fams == {8}
    # same configuration, delays ignored: clean
    ignored = dataclasses.replace(tight, delays_enabled=False)
    assert validate_configuration(ignored, cfg, tol=1e-9) == []


def test_per_vnf_processing_delay_counts():
    s = _delayed_scenario(bound=0.012)
    slowproc = dataclasses.replace(
        s, logical=dataclasses.replace(s.logical, per_vnf_delay={"A": 0.005})
    )
    p = lp.build_problem(slowproc)
    x, y, d = _all_on(slowproc)
    sol = lp.solve(lp._with_modes(p, _assignment_modes(p, x, y, d)))
    assert sol.status == "infeasible"  # 10 ms network + 5 ms processing > 12 ms


def test_concurrent_solves_match_serial(vepc):
    p = lp.build_problem(vepc)
    serial = lp.solve(p)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: lp.solve(p), range(4)))
    for r in results:
        assert r.objective_value == serial.objective_value
        assert r.values == serial.values


def test_concurrent_first_reads_of_a_problem_agree():
    # A built problem makes its refs, rows and lookup tables at their first
    # use, and threads may share it: every reader must see them whole.  Each
    # iteration builds from a copy of the scenario, a problem not read yet.
    s = generate(GeneratorParams(n_endpoints=4, n_nodes=8, rng_seed=1))
    want = lp.build_problem(s)
    refs, rows = list(want.variables), list(want.constraints)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            p = lp.build_problem(dataclasses.replace(s))
            start = threading.Barrier(8)

            def read(k):
                # Reader k starts k eighths of the way in, at another kind of
                # column and another family of rows, and reads them all.
                cols = np.roll(np.arange(len(refs)), -k * len(refs) // 8).tolist()
                at = np.roll(np.arange(len(rows)), -k * len(rows) // 8).tolist()
                start.wait(timeout=60)
                positions = [p.var_index[refs[i]] for i in cols]
                return cols, positions, [p.constraints[r] for r in at], at

            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(read, k) for k in range(8)]
                for future in futures:
                    cols, positions, got, at = future.result(timeout=60)
                    assert positions == cols
                    assert got == [rows[r] for r in at]
            assert p.constraints.cids() == [con.cid for con in rows]
    finally:
        sys.setswitchinterval(old)


def _at_once(use, n=8):
    """The results of ``use()`` in ``n`` threads released together."""
    start = threading.Barrier(n)

    def run(_):
        start.wait(timeout=60)
        return use()

    with ThreadPoolExecutor(max_workers=n) as pool:
        futures = [pool.submit(run, k) for k in range(n)]
        return [future.result(timeout=60) for future in futures]


def test_threads_meeting_a_scenario_first_share_its_problem_and_record(monkeypatch):
    # Each thread's first use makes a problem, or a record, of its own, and
    # all of them must get the one stored first, which a check-then-set under
    # a lock publishes: a sleep in front of each make holds the window open.
    real_build, real_add_at = lp._build, np.add.at

    def slow_build(s):
        time.sleep(0.05)
        return real_build(s)

    def slow_add_at(*args):
        time.sleep(0.05)
        return real_add_at(*args)

    monkeypatch.setattr(lp, "_build", slow_build)
    monkeypatch.setattr(lp.np.add, "at", slow_add_at)
    p = lp.build_problem(dataclasses.replace(make_toy(0)))
    records = _at_once(lambda: lp._base(p))
    assert len({id(record) for record in records}) == 1 and p.constraints.record is records[0]
    s = dataclasses.replace(make_toy(0))
    problems = _at_once(lambda: lp.build_problem(s))
    assert len({id(q) for q in problems}) == 1 and lp.build_problem(s) is problems[0]


def test_concurrent_loops_are_independent(vepc):
    def one(seed):
        state = run_loop(vepc, seed=seed, rounds=2)
        return energy_of(vepc, state.current).total

    serial = [one(seed) for seed in (1, 2, 3)]
    with ThreadPoolExecutor(max_workers=3) as pool:
        threaded = list(pool.map(one, (1, 2, 3)))
    assert threaded == serial
