"""``tools/fingerprint.py <parent> <change>``: its verdict on two case sets."""

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
    parent = {"a": ["ok", 10.0, 3], "b": ["InstanceInfeasible", None, 2], "c": ["ok", 5.0, 1]}
    changes = {
        "same": (dict(parent), 0),
        "higher": ({**parent, "c": ["ok", 5.5, 1]}, 0),
        "now completes": ({**parent, "b": ["ok", 7.0, 2]}, 0),
        "now raises": ({**parent, "a": ["RepairDiverged", None, 4]}, 1),
    }
    runs = {"parent": parent, **{name: cases for name, (cases, _) in changes.items()}}
    monkeypatch.setattr(tool, "_run_cases", lambda root: runs[root.name])
    for name, (_, code) in changes.items():
        assert tool.main(["parent", name]) == code, name
        out = capsys.readouterr().out
        assert ("outcome differs" in out) == (name in ("now completes", "now raises"))
