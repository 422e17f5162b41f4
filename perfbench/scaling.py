"""One-off scaling record, written to SCALING.json next to this file.

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 perfbench/scaling.py

Not a gated workload.  It runs the certify operation (m = n) for n = 8..12
and the lemma2 operation for k = 3..5 as one traced round each of the
benchmark harness (the CLI operation, its output checks, the library calls
without the CLI, and the staged replay), and times
``theorem_pair_witness(n, n, 1, n)`` for n = 10..13 (median of 3).  Sizes
run in ascending order in one process, so ``peak_rss_mb`` after a point is
that point's peak as long as memory grows with size.
"""

from __future__ import annotations

import json
import shutil
import statistics
from pathlib import Path
from time import perf_counter

from translate_kiss import theorem_pair_witness

import workloads
import harness
import run
from spans import Tracer


def _round(name: str, m: int, n: int, tmp: Path) -> dict:
    ctx = workloads.Ctx(name, m, n, workloads.FULL, tmp, {})
    wl = workloads.WORKLOADS[name]
    if name == "certify":
        # No digest is recorded at these sizes: the library's own bytes stand in.
        data = wl.direct(ctx)["data"]
        ctx = workloads.Ctx(name, m, n, workloads.FULL, tmp, {ctx.digest_key("certificate"): workloads.sha256(data)})
    r = harness._round(wl, ctx, Tracer())
    return {"m": m, "n": n, **{k: v for k, v in r.items() if v}, "peak_rss_mb": harness._peak_rss_mb()}


def main() -> None:
    tmp = harness.OUT / "scaling-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    record: dict = {"certify": [], "lemma2": [], "theorem_pair_witness": []}
    try:
        for n in range(8, 13):
            record["certify"].append(_round("certify", n, n, tmp))
            print(record["certify"][-1], flush=True)
        for k in range(3, 6):
            record["lemma2"].append(_round("lemma2", k, k, tmp))
            print(record["lemma2"][-1], flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for n in range(10, 14):
        times = []
        for _ in range(3):
            t0 = perf_counter()
            theorem_pair_witness(n, n, 1, n)
            times.append(perf_counter() - t0)
        record["theorem_pair_witness"].append({"m": n, "n": n, "i": 1, "j": n, "median_s": statistics.median(times), "samples_s": times})
        print(record["theorem_pair_witness"][-1], flush=True)
    ctx = workloads.Ctx("scaling", 0, 0, workloads.FULL, tmp, {})
    env = {k: v for k, v in harness.environment(ctx).items() if k not in ("workload", "m", "n", "sizes")}
    env["commit"] = run._commit()
    record["env"] = env
    out = Path(__file__).resolve().parent / "SCALING.json"
    out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
