"""Paired benchmark runs: a parent commit against this tree, on one workload.

    python3 tools/bench_pairs.py --parent 809ef05 --workload sim-sweep \
        --seeds 531-540 --seconds 10 --claim steps_per_s --out BENCH_5.json

Both sides run from the same kind of snapshot: the files of a commit,
exported by ``git archive`` into a temporary directory removed afterwards.
The parent side is the parent ref's commit.  The change side is the commit
``git stash create`` makes of the working tree and index when they differ
from HEAD, else HEAD itself; a new file is in it only once it is staged
(``git add``), and nothing runs in the repository itself.  For each seed,
``navbench/run.py`` runs once on each side, alternating which goes first.
Every run is kept.  The output file holds, per metric, each side's median and
inclusive quartiles, the pairs the change won and, for the claimed metric, the
verdict: a gain needs at least nine tenths of the pairs won (ties count for
neither side) and medians that differ by more than the parent's interquartile
range.  Every other metric is checked against its bound in BENCHMARK.json.
``--trace 1`` runs the traced variant and reports the per-layer metrics the
same way.  An existing output file keeps its other workloads.  Its ``machine``
line names the numpy and scipy versions next to Python's: the package runs on
numpy alone (its step and TDOA solve on Python floats, each anchor set's SVD
on numpy's LAPACK), and navbench's replay workload imports ``scipy.signal``
while it sets up.  Its
``code`` entry gives, for the parent and this tree, the ``wc -l
src/uwbnav/*.py`` total, the number of names in ``uwbnav.__all__`` and the
number of modules ``import uwbnav.cli`` loads in a fresh interpreter.

Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


# --- statistics ---------------------------------------------------------------


def summary(values) -> dict:
    """Median and inclusive quartiles of a sample, with every value kept."""
    xs = sorted(values)
    if len(xs) > 1:
        q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    else:
        q1 = median = q3 = xs[0]
    return {"q1": q1, "median": median, "q3": q3, "n": len(xs), "runs": xs}


def pair_wins(parent, change, better: str) -> tuple[int, int]:
    """Pairs the change won, and pairs tied, with ``better`` "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0.0)
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    return wins, ties


def compare(parent, change, better: str, bound: float | None = None) -> dict:
    """Both sides' summaries, the pair wins and the verdicts for one metric.

    ``gain``: the change won at least 9 of every 10 pairs and its median is
    better than the parent's by more than the parent's interquartile range.
    ``within_bound``: the change's median is no worse than the parent's by
    more than ``bound`` (a fraction of the parent's median).  ``unresolved``:
    the parent's own spread (IQR over median) is wider than the bound and
    not every change run is better than every parent run.
    """
    p, c = summary(parent), summary(change)
    wins, ties = pair_wins(parent, change, better)
    pairs = len(parent)
    sign = 1.0 if better == "higher" else -1.0
    gain_by = sign * (c["median"] - p["median"])
    out = {
        "parent": p,
        "change": c,
        "pairs": pairs,
        "change_better_in_pairs": wins,
        "equal_in_pairs": ties,
        "gain": bool(pairs and 10 * wins >= 9 * pairs and gain_by > p["q3"] - p["q1"]),
    }
    if bound is not None:
        scale = abs(p["median"])
        worse_by = -gain_by / scale if scale else (0.0 if gain_by >= 0.0 else math.inf)
        spread = (p["q3"] - p["q1"]) / scale if scale else 0.0
        every_run_better = all(sign * (x - y) > 0.0 for x in change for y in parent)
        out["worse_by"] = worse_by
        out["within_bound"] = worse_by <= bound
        out["unresolved"] = spread > bound and not every_run_better
    return out


def parse_seeds(text: str) -> list[int]:
    """"531-540" or "531,533,535" (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


# --- running ------------------------------------------------------------------


def run_side(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One navbench run in ``root``: its JSON result line, or the failure."""
    cmd = [sys.executable, str(root / "navbench" / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    except json.JSONDecodeError:
        result = {}
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return {
        "returncode": proc.returncode,
        "correct": result.get("correct", False),
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed"),
        "metrics": metrics,
        "stderr_tail": proc.stderr.strip().splitlines()[-5:],
    }


def machine() -> str:
    """Platform, CPU count, and the Python, numpy and scipy versions of this interpreter."""
    versions = [f"Python {platform.python_version()}"]
    for dist in ("numpy", "scipy"):
        try:
            versions.append(f"{dist} {metadata.version(dist)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{dist} not installed")
    return f"{platform.platform()}, {os.cpu_count()} CPUs, " + ", ".join(versions)


def code_size(root: Path) -> dict:
    """``src_lines``: the ``wc -l src/uwbnav/*.py`` total; ``public_names``: ``len(uwbnav.__all__)``.

    ``__all__`` is read from the source of ``src/uwbnav/__init__.py``; nothing is imported.
    """
    pkg = root / "src" / "uwbnav"
    lines = sum(path.read_bytes().count(b"\n") for path in sorted(pkg.glob("*.py")))
    tree = ast.parse((pkg / "__init__.py").read_text())
    names = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )
    return {"src_lines": lines, "public_names": len(names)}


def cli_import_modules(root: Path) -> int:
    """The modules ``import uwbnav.cli`` adds to ``sys.modules`` in a fresh interpreter, from ``root/src``."""
    code = "import sys; n = len(sys.modules); sys.path.insert(0, sys.argv[1]); import uwbnav.cli; print(len(sys.modules) - n)"
    cmd = [sys.executable, "-I", "-c", code, str(root / "src")]
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return int(proc.stdout)


def git(*args) -> str:
    proc = subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True)
    return proc.stdout.strip()


def change_ref() -> str:
    """The commit the change side runs from: ``git stash create``'s snapshot of
    the working tree and index (tracked and staged files) when either differs
    from HEAD, else HEAD."""
    return git("stash", "create") or git("rev-parse", "HEAD")


def checkout(ref: str, dest: Path) -> Path:
    """The files committed at ``ref``, written into the new directory ``dest`` by ``git archive``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_pairs(roots: dict, workload: str, seeds, seconds: float, trace: int, log=print) -> list[dict]:
    """Alternate the "parent" and "change" roots over ``seeds``; pair i runs the parent first when i is even."""
    runs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            run = {"seed": seed, "side": side, "first": position == 0}
            run.update(run_side(roots[side], workload, seed, seconds, trace))
            runs.append(run)
            log(f"{workload} seed {seed} {side}: correct={run['correct']} failed={run['failed']}"
                f" {json.dumps({k: round(v, 3) for k, v in run['metrics'].items()})}")
    return runs


def report(runs, declared: dict, claim: str | None) -> dict:
    """Per metric, ``compare`` over the seeds both sides ran successfully."""
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run
    pairs = [
        (s["parent"], s["change"]) for s in by_seed.values() if s["parent"]["metrics"] and s["change"]["metrics"]
    ]
    out = {}
    for name, spec in declared.items():
        if not pairs or not all(name in p["metrics"] and name in c["metrics"] for p, c in pairs):
            continue
        parent = [p["metrics"][name] for p, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        entry = compare(parent, change, spec["better"], spec.get("bound"))
        entry["unit"] = spec["unit"]
        if name == claim:
            entry["claimed"] = True
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help='e.g. "531-540"')
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--claim", help="the end-to-end metric a gain is claimed on")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write or update")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    parent_sha, change_sha = git("rev-parse", args.parent), change_ref()
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: checkout(sha, Path(tmp) / side) for side, sha in (("parent", parent_sha), ("change", change_sha))}
        code = {side: {**code_size(root), "cli_import_modules": cli_import_modules(root)} for side, root in roots.items()}
        runs = run_pairs(roots, args.workload, args.seeds, args.seconds, args.trace,
                         log=lambda line: print(line, flush=True))

    out_path = Path(args.out)
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    doc.setdefault("machine", machine())
    doc["method"] = (
        "tools/bench_pairs.py: navbench/run.py --seconds S per seed, parent and change alternating"
        " which runs first, each from a git archive snapshot; medians and inclusive quartiles over"
        " the seeds both sides completed"
    )
    doc["parent"] = parent_sha
    doc["change"] = f"{change_sha} (git stash create of the working tree at {git('rev-parse', 'HEAD')}, or HEAD)"
    doc["code"] = code
    section = "per_layer" if args.trace else "end_to_end"
    doc.setdefault(section, {})[args.workload] = {
        "seeds": args.seeds,
        "seconds": args.seconds,
        "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
        "metrics": report(runs, declared, None if args.trace else args.claim),
        "runs": runs,
    }
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    c = doc[section][args.workload]["metrics"].get(args.claim or "", {})
    if c:
        p, ch = c["parent"], c["change"]
        print(f"{args.claim}: gain={c['gain']} ({c['change_better_in_pairs']}/{c['pairs']} pairs won,"
              f" median {p['median']:.6g} -> {ch['median']:.6g}, parent IQR {p['q3'] - p['q1']:.6g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
