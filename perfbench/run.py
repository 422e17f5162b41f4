"""Benchmark entry point: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
Before and after the workload process, PROBES fresh processes are started
that only import ``translate_kiss.cli``; ``setup_s`` is the median, over those
and the workload process, of the time from spawn to "ready".  The workload process
then runs operations for --seconds (see worker.py) with numpy/BLAS threads
pinned to 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The line
before it records the run's environment.  ``failed / attempted`` is the
share of operations that failed an output check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("certify", "lemma2", "explain")
PROBES = 5  # set-up probes before and again after the workload process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKER_TIMEOUT_S = 170


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(args: list[str], env: dict[str, str]) -> tuple[subprocess.Popen, float]:
    """Start the worker and wait for its "ready" line; return it and set-up time."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker's output; a worker that overruns is killed."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker ran longer than {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def _probe(count: int, env: dict[str, str]) -> list[float]:
    """Set-up times of processes that only import translate_kiss.cli."""
    setups = []
    for _ in range(count):
        proc, setup = _spawn(["--probe"], env)
        _finish(proc, 60)
        setups.append(setup)
    return setups


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    env = _env()
    probes = 0 if trace else PROBES
    setups = _probe(probes, env)
    proc, setup = _spawn([workload, str(seed), str(seconds), "1" if trace else "0"], env)
    setups.append(setup)
    out = _finish(proc, WORKER_TIMEOUT_S)
    setups += _probe(probes, env)
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    env_record = {
        **result["env"],
        "commit": _commit(),
        "setup_samples_s": setups,
        "attempted": result["attempted"],
        "fail_frac": result["failed"] / result["attempted"],
        "problems": result["problems"],
        "counters": result.get("counters"),
        "samples": result.get("samples"),
    }
    line = {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return env_record, line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "translate_kiss" / "__init__.py").is_file():
        print(f"error: no translate_kiss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        env_record, line = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": env_record}))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
