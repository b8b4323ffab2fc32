"""tools/layer_costs.py: the per-layer summary over rounds, and one probe of this tree against itself.

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


def test_each_layer_reports_both_sides_over_the_rounds_and_the_rounds_the_change_won(lc):
    rounds = [
        {"parent": {"step": 50.004, "pack": 2.0}, "change": {"step": 47.0, "pack": 2.0}},
        {"parent": {"step": 51.0, "pack": 1.8}, "change": {"step": 46.996, "pack": 2.2}},
        {"parent": {"step": 49.0, "pack": 1.9}, "change": {"step": 49.5, "pack": 1.7}},
    ]
    assert lc.summarise(rounds) == {
        "step": {"parent": {"min": 49.0, "median": 50.0}, "change": {"min": 47.0, "median": 47.0}, "change_faster": 2},
        "pack": {"parent": {"min": 1.8, "median": 1.9}, "change": {"min": 1.7, "median": 2.0}, "change_faster": 1},
    }


def test_the_probe_times_every_layer_of_this_tree():
    # This tree on both sides, each imported as its own set of modules: 2 rounds of 1 timing of 2 calls.
    cmd = [sys.executable, str(TOOL), "--probe", str(ROOT), str(ROOT), "2", "2", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rounds = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(rounds) == 2
    for row in rounds:
        assert set(row) == {"parent", "change"}
        for us in row.values():
            assert set(us) == {
                "step_no_frame", "step_frame", "step_handed_fix", "step_handed_rows", "solve_frame", "build_system",
                "solve_stream", "se23_exp", "se23_exp_zero_v", "compose", "build_triads", "body_rows", "body_rows_table",
                "load_dataset", "load_dataset_messy", "derive_velocity", "derive_velocity_jittered",
                "truth_track", "imu_stream", "tdoa_table", "so3_exp",
            }
            assert all(v > 0.0 for v in us.values())
