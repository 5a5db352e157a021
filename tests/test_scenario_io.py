"""Scenario generation, scaling and the JSON wire format."""

import dataclasses
import importlib.resources
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optiloop.errors import ScenarioFormatError, ShapeMismatch
from optiloop.model import derive_logical_flows
from optiloop.scenario import (
    GeneratorParams,
    configuration_from_dict,
    configuration_to_dict,
    generate,
    load_scenario,
    save_scenario,
    scale_demand,
    scenario_from_dict,
    scenario_to_dict,
    vepc_two_node,
)

GIG = 1e9


# ---------------------------------------------------------------------------
# generator


def test_default_params_reproduce_reference_counts():
    p = GeneratorParams()
    assert p.n_endpoints == 42
    assert p.n_nodes == 51
    assert p.attachments_per_endpoint == 2
    assert p.endpoint_demand_range == (74e6, 473e6)
    assert p.downlink_fraction == 0.82
    assert p.endpoint_link_capacity == 10e9
    assert p.core_link_capacity == 100e9
    assert p.node_processing_capacity == 100e9


def test_generate_default_shape():
    s = generate(GeneratorParams(rng_seed=1))
    assert len(s.logical.endpoints) == 42
    assert len(s.physical.nodes) == 51
    ep_links = [lk for lk in s.physical.links if lk[0] in s.logical.endpoints]
    assert len(ep_links) == 42 * 2
    # core is connected: every node reachable from node 0 over core links
    nodes = sorted(s.physical.nodes)
    adj = {c: set() for c in nodes}
    for (i, j) in s.physical.links:
        if i in adj and j in adj:
            adj[i].add(j)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert seen == set(nodes)
    for rate in s.logical.ingress_demand.values():
        assert 74e6 <= rate <= 473e6
    assert s.energy.idle_power == 65.0
    assert s.energy.switch_energy_per_bit == 3.25e-9
    assert s.energy.proc_power_per_unit == 48e-9
    assert s.energy.placement_power == 0.0
    assert s.energy.link_energy_per_bit == 0.0
    assert not s.delays_enabled
    assert s.provenance["rng_seed"] == 1


def test_generate_deterministic_per_seed():
    a = generate(GeneratorParams(rng_seed=7))
    b = generate(GeneratorParams(rng_seed=7))
    assert scenario_to_dict(a) == scenario_to_dict(b)
    c = generate(GeneratorParams(rng_seed=8))
    assert scenario_to_dict(a) != scenario_to_dict(c)


def test_generate_minimal_shape_is_verified_feasible():
    s = generate(GeneratorParams(n_endpoints=1, n_nodes=2, rng_seed=3))
    assert len(s.logical.endpoints) == 1
    assert len(s.physical.nodes) == 2
    from optiloop.loop import initial_solution

    initial_solution(s)  # must not raise


def test_generate_split_uplink_mode():
    s = generate(GeneratorParams(n_endpoints=4, n_nodes=3, rng_seed=2, split_uplink=True))
    assert len(s.logical.endpoints) == 8
    down = sorted(e for e in s.logical.endpoints if e.endswith("d"))
    up = sorted(e for e in s.logical.endpoints if e.endswith("u"))
    for d, u in zip(down, up):
        dd = s.logical.ingress_demand[(d, "eNB")]
        uu = s.logical.ingress_demand[(u, "eNB")]
        assert dd / (dd + uu) == pytest.approx(0.82)


def test_generate_uses_operator_control_ratio():
    s = generate(GeneratorParams(n_endpoints=1, n_nodes=2, rng_seed=0))
    assert s.logical.chi[("eNB", "PSGW", "MME")] == 0.32


def test_generator_params_validated():
    with pytest.raises(ShapeMismatch):
        GeneratorParams(n_endpoints=0)
    with pytest.raises(ShapeMismatch):
        GeneratorParams(attachments_per_endpoint=99)
    with pytest.raises(ShapeMismatch):
        GeneratorParams(endpoint_demand_range=(5.0, 1.0))


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_nodes", 3.0),
        ("n_endpoints", True),
        ("rng_seed", -1),
        ("endpoint_demand_range", (1e6,)),
        ("downlink_fraction", math.nan),
        ("chord_fraction", math.nan),
        ("chord_fraction", -1.0),
        ("chord_fraction", 1.5),
        ("endpoint_link_capacity", math.inf),
        ("core_link_capacity", math.nan),
        ("node_processing_capacity", math.inf),
        ("node_processing_capacity", 0.0),
        ("node_switch_cost", -1.0),
        ("node_switch_cost", math.nan),
        ("node_switch_cost", math.inf),
        ("gw_to_mme", -0.5),
        ("gw_to_mme", math.nan),
        ("gw_to_mme", math.inf),
    ],
)
def test_generator_params_reject_each_bad_field_by_name(field, value):
    with pytest.raises(ShapeMismatch, match=field):
        GeneratorParams(**{"n_endpoints": 1, "n_nodes": 3, field: value})


def test_generator_params_accept_the_ends_of_each_range():
    edges = dict(chord_fraction=0.0, node_switch_cost=0.0, gw_to_mme=0.0, downlink_fraction=1.0)
    s = generate(GeneratorParams(n_endpoints=1, n_nodes=3, **edges))
    assert {node.switch_cost for node in s.physical.nodes.values()} == {0.0}
    GeneratorParams(n_endpoints=1, n_nodes=3, chord_fraction=1.0)


# ---------------------------------------------------------------------------
# demand scaling


def test_scale_identity_and_composition(vepc):
    same = scale_demand(vepc, 1.0)
    assert same.logical.ingress_demand == vepc.logical.ingress_demand
    twice_then_thrice = scale_demand(scale_demand(vepc, 2.0), 3.0)
    six = scale_demand(vepc, 6.0)
    assert twice_then_thrice.logical.ingress_demand == six.logical.ingress_demand


def test_scale_doubles_derived_flows(vepc):
    base = derive_logical_flows(vepc.logical)
    doubled = derive_logical_flows(scale_demand(vepc, 2.0).logical)
    assert set(base) == set(doubled)
    for key in base:
        assert doubled[key] == pytest.approx(2.0 * base[key], rel=1e-12)


def test_scale_changes_only_the_demand():
    base = generate(GeneratorParams(n_endpoints=2, n_nodes=4, rng_seed=1))
    vnfs = sorted(base.logical.vnfs)
    s = dataclasses.replace(
        base,
        logical=dataclasses.replace(
            base.logical,
            compute_per_bit={v: 0.5 + i for i, v in enumerate(vnfs)},
            per_vnf_delay={v: 1e-3 * (i + 1) for i, v in enumerate(vnfs)},
        ),
        max_delay={e: 0.25 for e in base.logical.endpoints},
        delays_enabled=True,
    )
    scaled = scale_demand(s, 2.5)
    demand = s.logical.ingress_demand
    assert scaled.logical.ingress_demand == {k: 2.5 * rate for k, rate in demand.items()}
    for f in dataclasses.fields(s.logical):
        if f.name != "ingress_demand":
            assert getattr(scaled.logical, f.name) == getattr(s.logical, f.name), f.name
    for f in dataclasses.fields(s):
        if f.name != "logical":
            assert getattr(scaled, f.name) == getattr(s, f.name), f.name
    assert scaled.physical is s.physical and scaled.energy is s.energy
    assert scaled.provenance is not None and scaled.delays_enabled


def test_scale_rejects_nonpositive(vepc):
    with pytest.raises(ShapeMismatch):
        scale_demand(vepc, 0.0)


# ---------------------------------------------------------------------------
# JSON round trips


def test_scenario_round_trip(tmp_path, vepc):
    path = tmp_path / "s.json"
    save_scenario(vepc, path)
    again = load_scenario(path)
    assert scenario_to_dict(again) == scenario_to_dict(vepc)


def test_shipped_fixture_matches_builder():
    ref = importlib.resources.files("optiloop") / "data" / "vepc_two_node.json"
    doc = json.loads(ref.read_text())
    assert scenario_from_dict(doc) is not None
    assert doc == scenario_to_dict(vepc_two_node())


def test_unknown_keys_rejected(tmp_path):
    doc = scenario_to_dict(vepc_two_node())
    doc["surprise"] = 1
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(doc)


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "endpoints": [,]\n}\n')
    with pytest.raises(ScenarioFormatError) as err:
        load_scenario(path)
    assert err.value.line == 2
    assert err.value.column is not None


NAN, INF = float("nan"), float("inf")
MALFORMED = {  # case -> (path into the fixture's document, value put there)
    "max_delay_list": (("max_delay",), ["RRH", 1.0]),
    "nan_demand": (("demand", 0, "rate"), NAN),
    "inf_demand": (("demand", 0, "rate"), INF),
    "nan_chi": (("chi", 0, "ratio"), NAN),
    "inf_compute_per_bit": (("vnfs", 0, "compute_per_bit"), INF),
    "nan_node_compute": (("nodes", 0, "k"), NAN),
    "inf_switch_cost": (("nodes", 0, "rho"), INF),
    "inf_capacity": (("links", 0, "capacity"), INF),
    "nan_energy": (("energy", "idle_power"), NAN),
    "neg_inf_energy": (("energy", "switch_energy_per_bit"), -INF),
    "nan_max_delay": (("max_delay", "RRH"), NAN),
    "inf_max_delay": (("max_delay", "RRH"), INF),
    "neg_max_delay": (("max_delay", "RRH"), -1.0),
    "nan_link_delay": (("links", 0, "delay"), NAN),
    "neg_link_delay": (("links", 0, "delay"), -1.0),
    "nan_vnf_delay": (("vnfs", 0, "delay"), NAN),
    "neg_vnf_delay": (("vnfs", 0, "delay"), -1.0),
    "string_delays_enabled": (("delays_enabled",), "false"),
    "rate_overflows_float": (("demand", 0, "rate"), 10**400),
    "energy_overflows_float": (("energy", "idle_power"), 10**400),
}
RAW = {  # case -> file text that json.load itself rejects
    "nested_too_deep": "[" * 200_000,
    "int_too_long": '{"demand": [{"rate": ' + "9" * 5001 + "}]}",
}
CYCLE_ROW = {"prev": "HSS", "at": "MME", "next": "eNB", "ratio": 1.0}


def write_malformed(path, case):
    """Write the two-node fixture's document spoiled as ``case`` says."""
    doc = scenario_to_dict(vepc_two_node())
    if case == "not_utf8":
        path.write_bytes(json.dumps(doc).replace("RRH", "RRH\xe9").encode("latin-1"))
        return
    if case in RAW:
        path.write_text(RAW[case])
        return
    if case == "cyclic_chi":
        doc["chi"].append(CYCLE_ROW)
    else:
        (*where, last), value = MALFORMED[case]
        target = doc
        for key in where:
            target = target[key]
        target[last] = value
    path.write_text(json.dumps(doc))  # NaN and Infinity tokens load back as floats


@pytest.mark.parametrize("case", ["not_utf8", "cyclic_chi", *RAW, *MALFORMED])
def test_malformed_documents_raise_format_error(tmp_path, case):
    path = tmp_path / "bad.json"
    write_malformed(path, case)
    with pytest.raises(ScenarioFormatError):
        load_scenario(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated_fixture(draw):
    """The fixture's document with one value, at any depth, replaced."""
    doc = scenario_to_dict(vepc_two_node())
    target = doc
    while True:
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        key = draw(st.sampled_from(keys))
        child = target[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            target = child
        else:
            target[key] = draw(JSON_VALUES)
            return doc


@settings(max_examples=300, deadline=None, database=None)
@given(doc=JSON_VALUES | mutated_fixture())
def test_any_json_document_loads_or_raises_format_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_scenario(path)
        except ScenarioFormatError:
            pass


def test_generated_scenario_round_trips_with_provenance(tmp_path):
    s = generate(GeneratorParams(n_endpoints=2, n_nodes=3, rng_seed=5))
    path = tmp_path / "gen.json"
    save_scenario(s, path)
    again = load_scenario(path)
    assert again.provenance == s.provenance
    assert again.provenance["n_endpoints"] == 2


def test_configuration_round_trip(vepc, vepc_config):
    doc = configuration_to_dict(vepc_config)
    again = configuration_from_dict(json.loads(json.dumps(doc)))
    assert again.x == vepc_config.x
    assert again.y == vepc_config.y
    assert again.delta == vepc_config.delta
    assert again.tau == vepc_config.tau
    assert again.transit == vepc_config.transit
    assert again.processed == vepc_config.processed
