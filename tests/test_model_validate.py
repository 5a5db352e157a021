"""Configuration validation against the constraint families."""

import contextlib
import dataclasses
import hashlib

import numpy as np
import pytest

from corpus import make_toy
from optiloop import loop
from optiloop.errors import InstanceInfeasible, ShapeMismatch
from optiloop.loop import initial_solution
from optiloop.model import (
    Link,
    NetworkConfiguration,
    Node,
    PhysicalGraph,
    spare_compute,
    validate_configuration,
)
from optiloop.scenario import scale_demand
from reference_checker import check_all

GIG = 1e9


def test_all_zero_configuration_is_valid(vepc):
    cfg = NetworkConfiguration(x={}, y={}, delta={})
    zero_demand = dataclasses.replace(
        vepc,
        logical=dataclasses.replace(
            vepc.logical, ingress_demand={("RRH", "eNB"): 0.0}
        ),
    )
    assert validate_configuration(zero_demand, cfg) == []


def test_hand_embedding_is_valid(vepc, vepc_config):
    assert validate_configuration(vepc, vepc_config, tol=1e-9) == []


def test_capacity_cut_flags_exactly_that_link(vepc, vepc_config):
    # the n1->n2 link carries 1.5 Gbit/s in the hand embedding
    squeezed = dataclasses.replace(
        vepc,
        physical=PhysicalGraph(
            nodes=vepc.physical.nodes,
            links={**vepc.physical.links, ("n1", "n2"): Link(capacity=1.4 * GIG)},
        ),
    )
    viols = validate_configuration(squeezed, vepc_config, tol=1e-9)
    assert [(v.family, v.index) for v in viols] == [(4, ("n1", "n2"))]
    assert viols[0].residual == pytest.approx(0.1 * GIG)


def test_compute_overload_flags_the_node_by_its_spare_compute(vepc, vepc_config):
    n1 = vepc.physical.nodes["n1"]
    used = n1.compute - spare_compute(vepc, vepc_config, "n1")
    squeezed = dataclasses.replace(
        vepc,
        physical=PhysicalGraph(
            nodes={**vepc.physical.nodes, "n1": Node(used - 0.1 * GIG, n1.switch_cost)},
            links=vepc.physical.links,
        ),
    )
    viols = validate_configuration(squeezed, vepc_config, tol=1e-9)
    assert [(v.family, v.index) for v in viols] == [(7, ("n1",))]
    assert viols[0].residual == -spare_compute(squeezed, vepc_config, "n1")
    assert viols[0].residual == pytest.approx(0.1 * GIG)


def test_missing_demand_injection_flagged(vepc, vepc_config):
    starved = dataclasses.replace(
        vepc_config,
        tau={
            k: v
            for k, v in vepc_config.tau.items()
            if k != ("RRH", "n1", "RRH", "eNB", "eNB")
        },
    )
    viols = validate_configuration(vepc, starved, tol=1e-9)
    fams = {v.family for v in viols}
    assert 9 in fams  # nothing injected
    assert 1 in fams  # n1 still claims to process the missing arrival


def test_phantom_injection_flagged(vepc, vepc_config):
    phantom = dict(vepc_config.tau)
    phantom[("RRH", "n1", "RRH", "MME", "MME")] = 0.4 * GIG
    cfg = dataclasses.replace(vepc_config, tau=phantom)
    viols = validate_configuration(vepc, cfg, tol=1e-9)
    assert any(v.family == 9 and v.index == ("RRH", "MME") for v in viols)


def test_inactive_elements_flagged(vepc, vepc_config):
    dark = dataclasses.replace(vepc_config, y={"n1": 1, "n2": 0})
    fams = {v.family for v in validate_configuration(vepc, dark)}
    assert 3 in fams and 5 in fams


def test_shape_mismatch_on_unknown_ids(vepc, vepc_config):
    with pytest.raises(ShapeMismatch):
        validate_configuration(
            vepc, dataclasses.replace(vepc_config, y={"n1": 1, "bogus": 1})
        )
    with pytest.raises(ShapeMismatch):
        bad = dict(vepc_config.tau)
        bad[("n2", "n1", "RRH", "eNB", "nope")] = 1.0
        validate_configuration(vepc, dataclasses.replace(vepc_config, tau=bad))
    with pytest.raises(ShapeMismatch):
        # traffic into an endpoint is outside the model
        bad = dict(vepc_config.tau)
        bad[("n1", "RRH", "RRH", "eNB", "eNB")] = 1.0
        validate_configuration(vepc, dataclasses.replace(vepc_config, tau=bad))


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    s = make_toy(0)
    empty = NetworkConfiguration({}, {}, {})
    assert len(validate_configuration(s, empty)) == 1
    with pytest.raises(ShapeMismatch, match="tol"):
        validate_configuration(s, empty, tol=tol)


def _loop_configurations(monkeypatch, seed):
    """(scenario, configuration) at each phase boundary of a 2-round loop
    on toy ``seed``, with demand x1.6 from round 1."""
    s = make_toy(seed)
    seen = []
    real = loop.validate_configuration

    def spy(sc, cfg, *args, **kwargs):
        seen.append((sc, cfg))
        return real(sc, cfg, *args, **kwargs)

    monkeypatch.setattr(loop, "validate_configuration", spy)
    with contextlib.suppress(InstanceInfeasible):
        loop.run_loop(s, 0, 2, scenario_hook=lambda r, st: scale_demand(s, 1.6) if r else None)
    monkeypatch.undo()
    return seen


def _perturbed(rng, s, cfg):
    """``cfg`` with flows scaled or dropped, two processed keys added, maybe
    a node off, and maybe a placement at -1, which only a configuration
    changed after its construction holds."""

    def shaken(flows):
        out = {}
        for key, val in flows.items():
            u = rng.random()
            if u < 0.1:
                continue
            out[key] = val * rng.uniform(0.5, 1.5) if u < 0.4 else val
        return out

    nodes, eps, vnfs = s.node_ids(), sorted(s.logical.endpoints), s.vnf_ids()
    top = max(s.logical.ingress_demand.values())
    processed = shaken(cfg.processed)
    for _ in range(2):
        key = (nodes[rng.integers(len(nodes))], eps[rng.integers(len(eps))],
               vnfs[rng.integers(len(vnfs))], vnfs[rng.integers(len(vnfs))])  # fmt: skip
        processed[key] = float(rng.uniform(0.0, 2.0) * top)
    y = dict(cfg.y)
    if rng.random() < 0.5:
        y[nodes[rng.integers(len(nodes))]] = 0
    bad = NetworkConfiguration(cfg.x, y, cfg.delta, shaken(cfg.tau), shaken(cfg.transit), processed)
    if rng.random() < 0.3:
        # Processing nothing under a negative limit breaks family 6 on every
        # absent key.
        bad.delta[(nodes[rng.integers(len(nodes))], vnfs[rng.integers(len(vnfs))])] = -1
    return bad


# SHA-256 of the violation lists (reprs, so residuals to the bit) of each
# toy's loop configurations and three perturbations of each, as the checker
# that visits every (node, endpoint, function, function) key read them.
_VIOLATIONS = [
    "768b5fb4818080f6a4fe42cc2d5964c75d52099d6f5470300dd2686d9ace9f00",
    "d0312d0c504062cb538d0fe1bf511474c4c5a78ee55aac3e8a14040d1b3957ef",
    "0d1450bfebc9d25ae92a7862f42b54aaa93124ea7714728c920844bf26d26b8f",
    "3458336d2553755288e52b8b40cea40b2304814650a45effe9164e1f3ff1b648",
    "ad0f56c6ca2fdea4d5082daa6f1afddcba619d5dcdc826a963e62d7514295dde",
    "c31c2605837426321fe6ade4b224372946239e6795098563eec5750998b0a652",
    "eeaecb3d25f89bcfe6cf405bedc0fe16c63ff4d679cc12aa56ffc0eed34eff93",
    "63d051a4187af17c3f3b098c6ced58bdda62cfc9f6aeabb4ba8a7475cf75b261",
    "a9bb030a2e4082df73829a304c40e798a4ae6a698ab308ec4aca79eb643e4048",
    "fdd6b0120d1373a174722e3d5ab26d5d293c252412c4a54c135806b1b652d856",
    "b0768ef0f9d7b0f1258777a1189f4141d4e9603678532e452eb7f150fdde2516",
    "450bdc04a4c7296fe91260acbc5df746f519b346ba650274602707335224f5ac",
]


def test_violations_are_pinned_on_loop_configurations(monkeypatch):
    families = set()
    for seed, want in enumerate(_VIOLATIONS):
        rng = np.random.default_rng(seed)
        text = []
        for s, cfg in _loop_configurations(monkeypatch, seed):
            for c in (cfg, *(_perturbed(rng, s, cfg) for _ in range(3))):
                viols = validate_configuration(s, c, tol=1e-6)
                families |= {v.family for v in viols}
                text.append(repr(viols))
        assert len(text) == 20
        assert hashlib.sha256("\n".join(text).encode()).hexdigest() == want, seed
    assert families == {1, 2, 3, 5, 6, 7, 9}


def _corrupt(rng, cfg):
    """Flip one flow entry or one binary, returning a new configuration."""
    which = rng.integers(0, 3)
    if which == 0 and cfg.tau:
        key = sorted(cfg.tau)[rng.integers(0, len(cfg.tau))]
        tau = dict(cfg.tau)
        tau[key] = tau[key] * 3.0 + 1.0
        return dataclasses.replace(cfg, tau=tau)
    if which == 1 and cfg.processed:
        key = sorted(cfg.processed)[rng.integers(0, len(cfg.processed))]
        p = dict(cfg.processed)
        p[key] = p[key] + 0.7 * GIG
        return dataclasses.replace(cfg, processed=p)
    actives = cfg.active_nodes()
    if not actives:
        return cfg
    node = actives[rng.integers(0, len(actives))]
    y = dict(cfg.y)
    y[node] = 0
    return dataclasses.replace(cfg, y=y)


def test_agrees_with_independent_checker_on_random_instances():
    """Both checkers must flag the same (family, index) set, for intact
    solutions and corrupted ones."""
    rng = np.random.default_rng(2024)
    for seed in range(12):
        s = make_toy(seed)
        cfg = initial_solution(s)
        tol_abs = 1e-6 * max(1.0, max(s.logical.ingress_demand.values(), default=1.0))
        mine = {(v.family, v.index) for v in validate_configuration(s, cfg, tol=1e-6)}
        ref = check_all(s, cfg, tol=tol_abs)
        assert mine == ref == set()
        for _ in range(3):
            bad = _corrupt(rng, cfg)
            mine = {(v.family, v.index) for v in validate_configuration(s, bad, tol=1e-6)}
            ref = check_all(s, bad, tol=tol_abs)
            assert mine == ref


def test_injection_matches_demand_at_zero_tolerance():
    """With no transformation beyond the first hop and exactly-representable
    rates, a valid configuration injects exactly the demand total."""
    from conftest import single_vnf_scenario

    s = single_vnf_scenario(demand=2.0)
    cfg = NetworkConfiguration(
        x={("e0", "m1"): 1, ("m1", "m2"): 0, ("m2", "m1"): 0},
        y={"m1": 1, "m2": 0},
        delta={("m1", "A"): 1, ("m2", "A"): 0},
        tau={("e0", "m1", "e0", "A", "A"): 2.0},
        processed={("m1", "e0", "A", "A"): 2.0},
    )
    assert validate_configuration(s, cfg, tol=0.0) == []
    injected = sum(
        val for (i, j, e, v1, v2), val in cfg.tau.items() if i in s.logical.endpoints
    )
    assert injected == sum(s.logical.ingress_demand.values())


def test_lp_solutions_inject_total_demand():
    for seed in (3, 4):
        s = make_toy(seed)
        cfg = initial_solution(s)
        injected = sum(
            val for (i, j, e, v1, v2), val in cfg.tau.items() if i in s.logical.endpoints
        )
        assert injected == pytest.approx(sum(s.logical.ingress_demand.values()), rel=1e-9)
