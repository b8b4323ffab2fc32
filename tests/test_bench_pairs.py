"""The statistics of tools/bench_pairs.py on fixed numbers.

The harness is loaded from its file; it runs nothing here.
"""

import importlib.util
import platform
from importlib import metadata
from pathlib import Path

import pytest

import uwbnav

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bp():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_uses_inclusive_quartiles_and_keeps_every_run(bp):
    s = bp.summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["q1"], s["median"], s["q3"], s["n"]) == (2.0, 3.0, 4.0, 5)
    assert s["runs"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    s = bp.summary([4.0, 1.0, 3.0, 2.0])
    assert (s["q1"], s["median"], s["q3"]) == (1.75, 2.5, 3.25)
    assert bp.summary([7.0])["q1"] == bp.summary([7.0])["q3"] == 7.0


def test_pair_wins_count_ties_for_neither_side(bp):
    parent = [10.0, 10.0, 10.0, 10.0]
    change = [11.0, 9.0, 10.0, 12.0]
    assert bp.pair_wins(parent, change, "higher") == (2, 1)
    assert bp.pair_wins(parent, change, "lower") == (1, 1)


PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]  # IQR 4.5


def test_a_gain_needs_nine_of_ten_pairs(bp):
    nine = [p + 20.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
    result = bp.compare(PARENT, nine, "higher")
    assert (result["change_better_in_pairs"], result["pairs"], result["gain"]) == (9, 10, True)
    eight = nine[:8] + [PARENT[8], PARENT[9] - 1.0]  # one tie, one loss
    result = bp.compare(PARENT, eight, "higher")
    assert (result["change_better_in_pairs"], result["equal_in_pairs"], result["gain"]) == (8, 1, False)


def test_a_gain_needs_medians_apart_by_more_than_the_parent_iqr(bp):
    assert bp.compare(PARENT, [p + 4.6 for p in PARENT], "higher")["gain"]
    assert not bp.compare(PARENT, [p + 4.5 for p in PARENT], "higher")["gain"]
    # For a lower-is-better metric the change must come out lower.
    assert bp.compare(PARENT, [p - 5.0 for p in PARENT], "lower")["gain"]
    assert not bp.compare(PARENT, [p + 5.0 for p in PARENT], "lower")["gain"]


def test_bounds_and_unresolved_spreads(bp):
    # 10 % worse on a higher-is-better metric: inside a 0.15 bound, outside 0.05.
    worse = [p * 0.9 for p in PARENT]
    result = bp.compare(PARENT, worse, "higher", bound=0.15)
    assert result["worse_by"] == pytest.approx(0.1)
    assert result["within_bound"] and not result["unresolved"]
    assert not bp.compare(PARENT, worse, "higher", bound=0.05)["within_bound"]
    # A parent spread (IQR/median = 4.5/104.5) wider than the bound is
    # unresolved unless every change run beats every parent run.
    assert bp.compare(PARENT, PARENT, "lower", bound=0.04)["unresolved"]
    assert not bp.compare(PARENT, [50.0] * 10, "lower", bound=0.04)["unresolved"]


def test_parse_seeds(bp):
    assert bp.parse_seeds("531-535") == [531, 532, 533, 534, 535]
    assert bp.parse_seeds("1,4-5,9") == [1, 4, 5, 9]


def test_machine_line_names_the_numpy_and_scipy_builds(bp):
    line = bp.machine()
    assert f"Python {platform.python_version()}" in line
    assert f"numpy {metadata.version('numpy')}" in line
    assert f"scipy {metadata.version('scipy')}" in line


def test_code_size_counts_source_lines_and_public_names(bp, tmp_path):
    pkg = tmp_path / "src" / "uwbnav"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text('"""Doc."""\n\nfrom .a import f\n\n__all__ = [\n    "f",\n    # g\n    "g",\n]\n')
    (pkg / "a.py").write_text("def f():\n    return 1\n")
    (tmp_path / "src" / "notes.py").write_text("not in the package\n")
    assert bp.code_size(tmp_path) == {"src_lines": 11, "public_names": 2}
    assert bp.code_size(bp.ROOT)["public_names"] == len(uwbnav.__all__)


def test_cli_import_modules_counts_what_the_import_adds(bp, tmp_path):
    # The package, its cli and the one module the cli imports; nothing the
    # fresh interpreter had loaded before the import counts.
    pkg = tmp_path / "src" / "uwbnav"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("")
    (pkg / "cli.py").write_text("from . import a\n")
    assert bp.cli_import_modules(tmp_path) == 3
    assert bp.cli_import_modules(bp.ROOT) > 3


def fake_git(stash: str):
    """``git`` answering ``stash create`` with ``stash`` and ``rev-parse R`` with "sha-R"."""

    def git(*args):
        return stash if args[:2] == ("stash", "create") else f"sha-{args[-1]}"

    return git


def test_no_paired_run_executes_in_the_repository_root(bp, tmp_path, monkeypatch):
    # Both sides run from a snapshot of a commit exported to a temporary
    # directory: the parent's, and the change's `git stash create` commit,
    # or HEAD when the tree is clean.
    exported, roots = [], []

    def checkout(ref, dest):
        exported.append(ref)
        dest.mkdir(parents=True)
        return dest

    def run_side(root, *args):
        roots.append(root)
        return {"returncode": 0, "correct": True, "attempted": 1, "failed": 0, "metrics": {}, "stderr_tail": []}

    monkeypatch.setattr(bp, "checkout", checkout)
    monkeypatch.setattr(bp, "run_side", run_side)
    monkeypatch.setattr(bp, "code_size", lambda root: {})
    monkeypatch.setattr(bp, "cli_import_modules", lambda root: 0)
    for stash, change in (("5ta5h", "5ta5h"), ("", "sha-HEAD")):
        monkeypatch.setattr(bp, "git", fake_git(stash))
        exported.clear(), roots.clear()
        bp.main(["--parent", "p", "--workload", "sim-sweep", "--seeds", "1-2", "--out", str(tmp_path / "b.json")])
        assert exported == ["sha-p", change]
        assert len(roots) == 4 and len(set(roots)) == 2
        for root in roots:
            assert root != bp.ROOT and bp.ROOT not in root.parents, root
