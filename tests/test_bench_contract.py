"""The repository benchmark must still find everything it measures.

``perfbench/`` wraps program functions by name for its traced pass and
leaves a metric out when its wrap target or backend is gone, while the
run itself still succeeds.  These checks make such a rename or deletion
fail here instead.  They read ``perfbench/`` and ``BENCHMARK.json`` and
change neither.
"""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from trajindex.temporal import BACKENDS

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def wrap_targets():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return spans.TARGETS


@pytest.mark.parametrize("module_name, path", [(m, p) for m, p, _, _ in wrap_targets()])
def test_wrap_target_resolves_to_a_callable(module_name, path):
    owner = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    raw = inspect.getattr_static(owner, attr)
    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    assert callable(func), f"{module_name}.{path} is not callable"


def test_declared_backends_are_registered():
    named = {m["name"].split(".")[1] for m in DECLARED["per_layer"]
             if m["name"].startswith("temporal.") and m["name"].count(".") == 2}
    assert named, "BENCHMARK.json names no per-backend metric"
    assert named <= set(BACKENDS), f"declared but not registered: {sorted(named - set(BACKENDS))}"


def _no_constant(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


def test_traced_run_reports_every_declared_metric():
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "grid_window", "--seed", "3",
           "--seconds", "0.5", "--trace", "1", "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:]
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last, parse_constant=_no_constant)
    assert result["correct"] and result["failed"] == 0
    for metric in DECLARED["per_layer"]:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"metric {metric['name']} missing"
        assert got["unit"] == metric["unit"], metric["name"]
    # the spatial level's metrics time calls TrajIndex makes; a renamed wrap target would read 0
    for name in ("rtree.build_s", "rtree.to_bytes_s", "rtree.from_bytes_s", "rtree.window_query_ms",
                 "rtree.candidates"):
        assert result["metrics"][name]["value"] > 0, name
