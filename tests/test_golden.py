"""The scenario files' outputs against their golden record, tests/golden/scenarios.json.

Verdicts, counters and exit statuses must match exactly, floats to ``REL``
relative.  A change that moves an output regenerates the record with
``tests/golden/regenerate.py`` and lists the moved values in CHANGES.md.
"""
import importlib.util
import json
import math
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-12


def _regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _moved(want, got, path="") -> list:
    """Every leaf where ``got`` differs from ``want``, as one line each."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = [f"{path}/{k}: {'missing' if k in want else 'new'}"
               for k in sorted(set(want) ^ set(got))]
        for k in sorted(set(want) & set(got)):
            out += _moved(want[k], got[k], f"{path}/{k}")
        return out
    floats = type(want) is float and type(got) is float
    if floats and (want == got or (math.isnan(want) and math.isnan(got))
                   or abs(got - want) <= REL * max(abs(want), abs(got))):
        return []
    if not floats and type(want) is type(got) and want == got:
        return []
    rel = f" (rel {abs(got - want) / max(abs(want), 1e-300):.3g})" if floats else ""
    return [f"{path}: {want!r} -> {got!r}{rel}"]


def test_moved_reports_every_leaf_that_moved():
    want = {"a": 1.0, "b": {"passed": True, "n": 3}, "c": [1, 2], "gone": 0.0}
    got = {"a": 1.0 + 1e-13, "b": {"passed": False, "n": 3.0}, "c": [1, 2], "new": 0.0}
    assert _moved(want, want) == []
    assert _moved(want, got) == ["/gone: missing", "/new: new", "/b/n: 3 -> 3.0",
                                 "/b/passed: True -> False"]
    assert _moved({"x": 1.0}, {"x": 1.0 + 1e-11}) == ["/x: 1.0 -> 1.00000000001 (rel 1e-11)"]
    assert _moved({"x": math.nan}, {"x": math.nan}) == []


def test_scenario_outputs_match_the_golden_record(tmp_path):
    want = json.loads((GOLDEN / "scenarios.json").read_text())
    got = _regenerate().collect(tmp_path)
    moved = _moved(want, got)
    print("\n".join(moved))
    assert not moved, f"{len(moved)} value(s) moved from the golden record:\n" + "\n".join(moved)
