"""``tools/fingerprint.py <parent> <change>``: its verdict on two checkouts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def _tool():
    spec = importlib.util.spec_from_file_location("fingerprint_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_exits_1_only_when_a_completing_case_raises(monkeypatch, capsys):
    tool = _tool()
    lines = [f"line {n}" for n in range(1, 8)]
    parent = {"a": ["ok", 10.0, 3], "b": ["InstanceInfeasible", None, 2], "c": ["ok", 5.0, 1]}
    changes = {
        "same": (dict(parent), 0),
        "higher": ({**parent, "c": ["ok", 5.5, 1]}, 0),
        "now completes": ({**parent, "b": ["ok", 7.0, 2]}, 0),
        "now raises": ({**parent, "a": ["RepairDiverged", None, 4]}, 1),
    }
    runs = {"parent": {"lines": lines, "cases": parent}}
    for name, (cases, _) in changes.items():
        # Every change but "same" moves the sixth line.
        moved = lines if name == "same" else [*lines[:5], f"line 6 of {name}", lines[6]]
        runs[name] = {"lines": moved, "cases": cases}
    monkeypatch.setattr(tool, "_run_checkout", lambda root: runs[root.name])
    for name, (_, code) in changes.items():
        assert tool.main(["parent", name]) == code, name
        out = capsys.readouterr().out
        assert ("outcome differs" in out) == (name in ("now completes", "now raises"))
        # Both sides' seven lines, then which of them differ.
        shown = out.splitlines()
        assert shown[:8] == ["parent:", *(f"  {line}" for line in lines)]
        assert shown[8:16] == ["change:", *(f"  {line}" for line in runs[name]["lines"])]
        differ = "none" if name == "same" else "6 (simplex iterations)"
        assert shown[16] == f"fingerprint lines that differ: {differ}", name


def test_each_2x4_relaxed_bound_is_a_case_with_no_loop_solves():
    from optiloop.baselines import relaxed_bound

    tool = _tool()
    cases = tool._bound_cases()
    assert list(cases) == [f"2x4 gen {seed} relaxed_bound" for seed in tool.LADDER_SEEDS]
    for seed, case in zip(tool.LADDER_SEEDS, cases.values()):
        assert case == ["ok", relaxed_bound(tool._ladder(seed)), 0]
