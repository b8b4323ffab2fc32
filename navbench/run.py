"""uwbnav benchmark: one workload, timed end to end, or traced per module.

    python3 navbench/run.py --workload sim-sweep --seed 1 --seconds 20 --trace 0

Workloads (see navbench/README.md):

* sim-sweep        `uwbnav sim --scenario figure8 --runs 6`, criterion 6's set-up;
* replay-trial     `uwbnav replay` over three 60 s figure-eight trials exported from seeded runs;
* observer-stream  `observer.step` over in-memory inputs, a TDOA frame on every IMU sample.

The workload runs in a fresh interpreter (worker.py) with BLAS pinned to one
thread.  Times are scaled to a reference machine speed (speed.py); the raw
times are printed next to them.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--short`` shrinks
every workload so that it runs in seconds (used by the self-tests).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-sweep", "replay-trial", "observer-stream")
# Set-up is measured in this many fresh interpreters (the timed one included),
# after one untimed interpreter has filled the bytecode and file caches.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150


def worker(args, mode, work):
    """Run worker.py in a fresh interpreter and return its JSON result line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--work", str(work), "--inputs", str(work / "trials")]
    if args.short:
        cmd.append("--short")
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="uwbnav benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="small inputs, for the self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "uwbnav" / "__init__.py").is_file():
        print(f"no uwbnav sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "replay-trial":
            worker(args, "generate", work)
        setup = []
        if not args.trace:
            samples = 2 if args.short else SETUP_SAMPLES
            if not args.short:
                worker(args, "probe", work)  # untimed: fills the caches
            setup = [worker(args, "probe", work) for _ in range(samples - 1)]
        result = worker(args, "run", work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, raw = result["metrics"], result["raw"]
    if not args.trace:
        setup.append(result)
        metrics["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setup), "unit": "s"}
        raw["setup_s"] = statistics.median(s["setup_raw_s"] for s in setup)
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    for name, m in metrics.items():
        note = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
