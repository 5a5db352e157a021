"""Benchmark metrics, the CSV harness, and the command-line front end."""

import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import make_toy
from optiloop.baselines import all_active, exact_optimum, optiloop_strategy
import optiloop
from optiloop import baselines, cli, iis, lp
from optiloop.errors import (
    BaselineMissing,
    GenerationFailed,
    InvariantBroken,
    OptiloopError,
    RepairDiverged,
    ShapeMismatch,
    SolverStall,
)
from optiloop.metrics import (
    CSV_HEADER,
    ExperimentConfig,
    compute_metrics,
    run_experiment,
)
from optiloop.scenario import (
    GeneratorParams,
    load_scenario,
    save_scenario,
    scale_demand,
    vepc_two_node,
)

GIG = 1e9


def _zero_demand(s):
    lg = s.logical
    return dataclasses.replace(
        s,
        logical=dataclasses.replace(lg, ingress_demand={k: 0.0 for k in lg.ingress_demand}),
    )


def test_baseline_row_has_zero_savings(vepc):
    aa = all_active(vepc)
    row = compute_metrics(vepc, aa, aa)
    assert row.savings_vs_all_active == 0.0
    assert row.lp_solves == 1


def test_zero_demand_degenerate_row(vepc):
    s = _zero_demand(vepc)
    ex = exact_optimum(s)
    aa = all_active(s)
    row = compute_metrics(s, ex, aa)
    assert row.spare_ccat == 0.0
    assert row.mean_hops == 0.0
    assert row.hops_defined is False
    assert row.savings_vs_all_active == 1.0


def test_fixture_hops_match_hand_count(vepc):
    """Optimal embedding: 1 Gbit/s injected, 2 Gbit/s between the nodes."""
    ex = exact_optimum(vepc)
    aa = all_active(vepc)
    row = compute_metrics(vepc, ex, aa)
    assert row.mean_hops == pytest.approx(3.0, rel=1e-9)
    assert row.hops_defined is True


def test_spare_ccat_accounts_processing_and_switching(vepc):
    ex = exact_optimum(vepc)
    row = compute_metrics(vepc, ex, all_active(vepc))
    # 20 Gbit/s of compute, 3 Gbit/s processed, 2 Gbit/s switched at rho=1
    assert row.spare_ccat == pytest.approx(20 * GIG - 3 * GIG - 2 * GIG, rel=1e-9)


def test_vnf_instance_counts(vepc):
    ol = optiloop_strategy(vepc, seed=0, rounds=1)
    row = compute_metrics(vepc, ol, all_active(vepc))
    assert set(row.vnf_instances) == set(vepc.logical.vnfs)
    for v, n in row.vnf_instances.items():
        assert 0 <= n <= len(vepc.physical.nodes)


def test_missing_baseline_raises(vepc):
    with pytest.raises(BaselineMissing):
        compute_metrics(vepc, all_active(vepc), None)


# ---------------------------------------------------------------------------
# run_experiment


def _experiment(tmp_path, **overrides):
    defaults = dict(
        generator=GeneratorParams(n_endpoints=1, n_nodes=3, rng_seed=4,
                                  endpoint_demand_range=(0.8 * GIG, 1.2 * GIG),
                                  node_processing_capacity=20 * GIG),
        strategies=("all_active", "consolidation", "optiloop", "exact"),
        factors=(0.5, 1.0, 2.0),
        seeds=(0, 1),
        rounds=2,
        out=str(tmp_path / "out.csv"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_experiment_grid_and_ordering(tmp_path):
    config = _experiment(tmp_path, factors=(0.5, 1.0, 2.0, 3.0))
    rows = run_experiment(config)
    assert len(rows) == 4 * 4 * 2  # 16 cells per seed
    keys = [(r.strategy, r.demand_factor, r.seed) for r in rows]
    expect = [
        (name, f, seed)
        for name in config.strategies
        for f in config.factors
        for seed in config.seeds
    ]
    assert keys == expect


def test_experiment_runs_all_active_once_per_factor(tmp_path, monkeypatch):
    calls = []
    real = baselines.all_active

    def spy(s, **kwargs):
        calls.append(s)
        return real(s, **kwargs)

    monkeypatch.setattr(baselines, "all_active", spy)
    rows = run_experiment(_experiment(tmp_path, strategies=("all_active",)))
    assert len(calls) == 3
    assert [(r.demand_factor, r.seed) for r in rows] == [
        (f, seed) for f in (0.5, 1.0, 2.0) for seed in (0, 1)
    ]
    # At factor 1.0 the scenario is the generated one, whose all-on LP
    # ``generate`` solved to check it.
    assert [r.lp_solves for r in rows] == [1, 1, 0, 0, 1, 1]
    assert all(r.savings_vs_all_active == 0.0 for r in rows)


def test_shared_problem_and_memo_change_no_decision(tmp_path):
    """Every row equals the row of its strategy run alone on a fresh
    scenario, field for field except the solve count and the time."""
    factors, seeds, rounds = (0.6, 1.0, 1.3), (0, 1, 2), 3
    alone = {
        "all_active": lambda s, seed: all_active(s),
        "optiloop": lambda s, seed: optiloop_strategy(s, seed, rounds),
        "exact": lambda s, seed: exact_optimum(s),
    }
    for toy in range(12):
        path = tmp_path / f"toy{toy}.json"
        save_scenario(make_toy(toy), path)
        rows = run_experiment(ExperimentConfig(
            scenario_path=str(path), strategies=tuple(alone), factors=factors,
            seeds=seeds, rounds=rounds,
        ))  # fmt: skip
        assert len(rows) == len(alone) * len(factors) * len(seeds)
        base = load_scenario(path)
        for row in rows:
            f = row.demand_factor
            s = scale_demand(base, f) if f != 1.0 else base
            # A copy of the scenario is another object, with a problem and
            # a record of its own, so each call here runs alone.
            fresh = dataclasses.replace(s)
            want = compute_metrics(
                s, alone[row.strategy](fresh, row.seed), all_active(dataclasses.replace(s)), f, row.seed
            )
            assert dataclasses.replace(row, lp_solves=0, wall_time=0.0) == dataclasses.replace(
                want, lp_solves=0
            ), (toy, row.strategy, f, row.seed)
            if row.strategy == "optiloop" and row.seed > 0:
                assert row.lp_solves == 0  # no repair: seed 0 solved every LP


def test_experiment_solve_counts_match_solver_calls(tmp_path, monkeypatch):
    """Under each strategy call the dense solves equal the result's
    ``lp_solves``, and under each loop run its ``total_solves()``; each
    demand factor's LP is built once, factor 1.0's by generate's check."""
    dense = [0]

    def spy_dense(*args, real=lp.solve_dense, **kwargs):
        dense[0] += 1
        return real(*args, **kwargs)

    for module in (lp, iis):
        monkeypatch.setattr(module, "solve_dense", spy_dense)
    builds = []

    def spy_build(s, real=lp._build):
        builds.append(s)
        return real(s)

    monkeypatch.setattr(lp, "_build", spy_build)
    calls = []
    for name in ("all_active", "consolidation", "optiloop_strategy", "exact_optimum"):

        def spy(*args, real=getattr(baselines, name), **kwargs):
            before = dense[0]
            result = real(*args, **kwargs)
            calls.append((result.name, dense[0] - before, result.stats["lp_solves"]))
            return result

        monkeypatch.setattr(baselines, name, spy)
    loops = []

    def spy_loop(*args, real=baselines.run_loop, **kwargs):
        before = dense[0]
        state = real(*args, **kwargs)
        loops.append((dense[0] - before, state.total_solves()))
        return state

    monkeypatch.setattr(baselines, "run_loop", spy_loop)

    config = _experiment(tmp_path)
    rows = run_experiment(config)
    n_factors, n_seeds = len(config.factors), len(config.seeds)
    assert sorted(name for name, _, _ in calls) == sorted(
        ["all_active", "consolidation", "exact"] * n_factors + ["optiloop"] * n_factors * n_seeds
    )
    assert [(made, reported) for _, made, reported in calls if made != reported] == []
    assert len(loops) == n_factors * n_seeds
    assert [(made, reported) for made, reported in loops if made != reported] == []
    assert len(builds) == n_factors and len({id(s) for s in builds}) == n_factors
    assert [r.lp_solves for r in rows if r.strategy == "optiloop" and r.seed == 1] == [0] * 3


def test_experiment_rows_satisfy_sandwich(tmp_path):
    rows = run_experiment(_experiment(tmp_path, factors=(0.5, 1.0, 2.0, 3.0)))
    by_cell = {(r.strategy, r.demand_factor, r.seed): r.energy.total for r in rows}
    for f in (0.5, 1.0, 2.0, 3.0):
        for seed in (0, 1):
            ex = by_cell[("exact", f, seed)]
            ol = by_cell[("optiloop", f, seed)]
            aa = by_cell[("all_active", f, seed)]
            cons = by_cell[("consolidation", f, seed)]
            assert ex <= ol + 1e-5 * max(1, ex)
            assert ex <= cons + 1e-5 * max(1, ex)
            assert ol <= aa + 1e-5 * max(1, aa)


def test_csv_components_sum_to_total(tmp_path):
    config = _experiment(tmp_path, factors=(1.0,), seeds=(0,))
    run_experiment(config)
    with open(config.out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and list(rows[0]) == CSV_HEADER
    for row in rows:
        parts = sum(
            float(row[k])
            for k in ("e_idle_w", "e_placement_w", "e_proc_w", "e_switch_w", "e_link_w")
        )
        assert abs(parts - float(row["total_energy_w"])) <= 1e-6 * max(1.0, parts)


def test_experiment_rejects_unknown_strategy(tmp_path):
    with pytest.raises(OptiloopError):
        run_experiment(_experiment(tmp_path, strategies=("all_active", "bogus")))
    assert not (tmp_path / "out.csv").exists()


def test_processing_power_scales_linearly_with_factor(tmp_path):
    rows = run_experiment(_experiment(tmp_path, strategies=("all_active",), seeds=(0,)))
    by_factor = {r.demand_factor: r.energy.processing for r in rows}
    base = by_factor[1.0]
    assert by_factor[0.5] == pytest.approx(0.5 * base, rel=1e-9)
    assert by_factor[2.0] == pytest.approx(2.0 * base, rel=1e-9)


def test_repeated_experiment_is_byte_identical(tmp_path):
    c1 = _experiment(tmp_path, factors=(1.0, 2.0), out=str(tmp_path / "a.csv"))
    c2 = _experiment(tmp_path, factors=(1.0, 2.0), out=str(tmp_path / "b.csv"))
    run_experiment(c1)
    run_experiment(c2)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# ---------------------------------------------------------------------------
# CLI


def _env(**extra):
    """Environment for a CLI subprocess that imports this same optiloop."""
    src = str(Path(optiloop.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "optiloop.cli", *args],
        capture_output=True,
        text=True,
        env=_env(),
    )


def test_cli_single_row_fixture(tmp_path):
    scen = tmp_path / "fixture.json"
    save_scenario(vepc_two_node(), scen)
    out = tmp_path / "r.csv"
    res = _cli("run", "--scenario", str(scen), "--strategies", "all_active",
               "--factors", "1.0", "--out", str(out))
    assert res.returncode == 0, res.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["strategy"] == "all_active"
    assert float(rows[0]["savings_vs_all_active"]) == 0.0


def test_cli_generate_reruns_identically(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [sys.executable, "-m", "optiloop.cli", "run", "--generate", "--seed", "3",
            "--gen-endpoints", "1", "--gen-nodes", "3", "--gen-demand", "0.6e9,1.0e9",
            "--strategies", "all_active,optiloop", "--factors", "0.5,1.5",
            "--seeds", "0,1", "--rounds", "2"]
    # distinct hash seeds: byte-identical output must not lean on hash order
    r1 = subprocess.run(args + ["--out", str(a)], capture_output=True, text=True,
                        env=_env(PYTHONHASHSEED="1"))
    r2 = subprocess.run(args + ["--out", str(b)], capture_output=True, text=True,
                        env=_env(PYTHONHASHSEED="31337"))
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stderr
    assert a.read_bytes() == b.read_bytes()


def test_cli_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    res = _cli("run", "--scenario", str(bad), "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert "line" in res.stderr


@pytest.mark.parametrize("case", [
    "nan_demand", "nan_max_delay", "nan_link_delay", "neg_link_delay", "nan_vnf_delay",
    "neg_vnf_delay", "string_delays_enabled",
])  # fmt: skip
def test_cli_nan_demand_exit_2(tmp_path, case):
    from test_scenario_io import write_malformed

    scen = tmp_path / "nan.json"
    write_malformed(scen, case)
    out = tmp_path / "x.csv"
    res = _cli("run", "--scenario", str(scen), "--strategies", "optiloop", "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert not out.exists()


def test_cli_infeasible_exit_3(tmp_path):
    from optiloop.scenario import scenario_to_dict
    import json as _json

    s = vepc_two_node()
    doc = scenario_to_dict(s)
    for row in doc["links"]:
        if row["from"] == "RRH":
            row["capacity"] = 1.0  # 1 bit/s: nothing fits
    scen = tmp_path / "doomed.json"
    scen.write_text(_json.dumps(doc))
    res = _cli("run", "--scenario", str(scen), "--strategies", "all_active",
               "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 3
    assert "infeasible" in res.stderr


def test_cli_budget_exit_4(tmp_path):
    scen = tmp_path / "fixture.json"
    save_scenario(vepc_two_node(), scen)
    res = _cli("run", "--scenario", str(scen), "--strategies", "exact",
               "--oracle-budget", "1", "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 4


@pytest.mark.parametrize(
    "error", [ShapeMismatch, SolverStall, RepairDiverged, GenerationFailed, InvariantBroken]
)
def test_cli_other_errors_exit_5(tmp_path, monkeypatch, capsys, error):
    def fail(config):
        raise error("synthetic failure")

    monkeypatch.setattr(cli, "run_experiment", fail)
    code = cli.main(["run", "--generate", "--out", str(tmp_path / "x.csv")])
    assert code == cli.EXIT_ERROR == 5
    err = capsys.readouterr().err
    assert err == f"error: {error.__name__}: synthetic failure\n"


def test_cli_operator_scale_generate_exits_5(tmp_path):
    # The 42x51 default is beyond the built-in dense solver.
    res = _cli("run", "--generate", "--strategies", "all_active",
               "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 5
    assert res.stderr.startswith("error: ShapeMismatch:")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "extra, code",
    [
        (["--strategies", "bogus"], 2),
        (["--gen-demand", "5"], 2),
        (["--seeds=-1"], 2),
        (["--seed=-3"], 2),
        (["--rounds=-1"], 2),
        (["--out", "missing/x.csv"], 2),
        (["--gen-nodes", "0"], 5),
        (["--gen-demand", "5,1"], 5),
        (["--gen-demand", "nan,1"], 5),
        (["--gen-demand", "1,inf"], 5),
        (["--oracle-budget", "0"], 2),
        (["--oracle-budget=-5"], 2),
        (["--factors", "nan"], 2),
        (["--factors", "inf"], 2),
        (["--factors", "0"], 2),
        (["--factors=-1"], 2),
        (["--factors", ","], 2),
        (["--seeds", ","], 2),
        (["--strategies", ","], 2),
        (["--gen-core-capacity", "nan"], 5),
        (["--gen-node-capacity", "inf"], 5),
    ],
)
def test_cli_malformed_argument_exits_without_traceback(tmp_path, extra, code):
    out = tmp_path / "x.csv"
    extra = [str(tmp_path / arg) if arg == "missing/x.csv" else arg for arg in extra]
    res = _cli("run", "--generate", "--gen-endpoints", "1", "--gen-nodes", "3",
               "--strategies", "all_active", "--out", str(out), *extra)
    assert res.returncode == code
    assert "Traceback" not in res.stderr
    if code == 2:  # argparse: usage, then what is wrong
        assert res.stderr.splitlines()[-1].startswith("optiloop: error: ")
    else:
        assert res.stderr.startswith("error: ShapeMismatch:")
        assert res.stderr.count("\n") == 1
    assert not out.exists()  # rejected before any strategy ran


def test_runtime_path_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: importing its HiGHS costs a fresh
    # process about a third of a second and tens of MB of memory.
    script = f"""
import sys
import optiloop
from optiloop import cli, lp
from optiloop.scenario import GeneratorParams, generate

code = cli.main(["run", "--generate", "--gen-endpoints", "1", "--gen-nodes", "3",
                 "--out", {str(tmp_path / "r.csv")!r}])
assert code == 0, code
p = lp.build_problem(generate(GeneratorParams(n_endpoints=2, n_nodes=4, rng_seed=1)))
assert lp.to_lp_text(p).endswith("End\\n")
assert lp.solve(p).status == "optimal"
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_env(), cwd=tmp_path
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


def test_cli_log_verbosity_env(tmp_path):
    scen = tmp_path / "fixture.json"
    save_scenario(vepc_two_node(), scen)
    env = _env(OPTILOOP_LOG="INFO")
    res = subprocess.run(
        [sys.executable, "-m", "optiloop.cli", "run", "--scenario", str(scen),
         "--strategies", "optiloop", "--rounds", "1", "--out", str(tmp_path / "v.csv")],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0
    assert '"phase": "save_energy"' in res.stderr  # telemetry surfaces at INFO


def test_cli_unknown_log_level_exits_2(tmp_path):
    out = tmp_path / "x.csv"
    res = subprocess.run(
        [sys.executable, "-m", "optiloop.cli", "run", "--generate", "--gen-endpoints", "1",
         "--gen-nodes", "3", "--strategies", "all_active", "--out", str(out)],
        capture_output=True, text=True, env=_env(OPTILOOP_LOG="LOUD"),
    )
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert res.stderr.splitlines()[-1].startswith("optiloop: error: OPTILOOP_LOG=")
    assert not out.exists()  # rejected before any strategy ran


def test_cli_timings_column_opt_in(tmp_path):
    scen = tmp_path / "fixture.json"
    save_scenario(vepc_two_node(), scen)
    out = tmp_path / "t.csv"
    res = _cli("run", "--scenario", str(scen), "--strategies", "all_active",
               "--out", str(out), "--timings")
    assert res.returncode == 0
    header = out.read_text().splitlines()[0]
    assert header.endswith("wall_time_s")
