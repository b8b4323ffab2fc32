"""tools/layer_costs.py: the per-side minimum, and one probe of this tree.

The harness is loaded from its file; only the probe test starts a process.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "layer_costs.py"


@pytest.fixture(scope="module")
def lc():
    spec = importlib.util.spec_from_file_location("layer_costs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_side_keeps_its_fastest_process_per_layer(lc):
    runs = [
        {"process": 0, "side": "parent", "us": {"step": 50.004, "pack": 2.0}},
        {"process": 0, "side": "change", "us": {"step": 47.0, "pack": 1.9}},
        {"process": 1, "side": "change", "us": {"step": 46.996, "pack": 2.2}},
        {"process": 1, "side": "parent", "us": {"step": 51.0, "pack": 1.8}},
    ]
    assert lc.combine(runs) == {"parent": {"step": 50.0, "pack": 1.8}, "change": {"step": 47.0, "pack": 1.9}}


def test_the_probe_times_every_layer_of_this_tree():
    cmd = [sys.executable, str(TOOL), "--probe", str(ROOT), "2", "1"]  # 2 calls, 1 timing
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    us = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(us) == {
        "step_no_frame", "step_frame", "step_handed_fix", "solve_frame", "build_system",
        "se23_exp", "se23_exp_zero_v", "build_triads", "pack",
    }
    assert all(v > 0.0 for v in us.values())
