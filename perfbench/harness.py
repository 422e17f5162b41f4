"""The measurement loop run inside the workload process (see worker.py).

Untraced, each operation is the workload as users run it, checked after the
clock stops.  Traced, each round runs that operation, the same library calls
made without the CLI, and a staged replay that records spans around each
module's public functions; the three must produce the same bytes, and the
replay's work counters must repeat exactly.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from run import THREAD_VARS
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Timed spans reported as <name>_s, and spans whose call counts are reported.
SPAN_TIMES = [
    "rect.contacts", "rect.disjoint",
    "disk.build", "disk.sub_copy", "disk.extract",
    "ruler.table", "ruler.lemma1",
    "placement.place", "placement.witness", "placement.lemma2",
    "verify.certify", "verify.touching",
    "serial.serialize", "serial.parse",
    "render.svg",
]
SPAN_CALLS = ["rect.contacts", "rect.disjoint", "disk.sub_copy", "disk.extract"]
# Exact work counters recorded by the staged replays, with their units.
COUNTERS = {
    "rect.contacts_found": "count", "rect.contacts_a0": "count",
    "disk.pieces_built": "count",
    "ruler.table_terms": "count", "ruler.windows_checked": "count",
    "placement.witness_copies_scanned": "count", "placement.lemma2_cases": "count",
    "verify.pairs_checked": "count",
    "serial.bytes_out": "bytes", "serial.bytes_in": "bytes",
    "render.svg_bytes": "bytes", "render.rects_drawn": "count",
}
COUNTER_KEYS = [f"{s}_calls" for s in SPAN_CALLS] + list(COUNTERS)
MODULES = ["ruler", "disk", "placement", "rect", "verify", "serial", "render"]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {f"{s}_s": "s" for s in SPAN_TIMES}
    units["verify.self_s"] = "s"
    units.update({f"{s}_calls": "count" for s in SPAN_CALLS})
    units.update({c: unit for c, unit in COUNTERS.items() if c != "rect.contacts_a0"})
    units["rect.contacts_useful_ratio"] = "ratio"
    units["cli.dispatch_s"] = "s"
    units["trace.overhead_s"] = "s"
    units.update({f"{mod}.share": "fraction" for mod in [*MODULES, "cli"]})
    return units


def _another(start: float, n_done: int, seconds: float) -> bool:
    """Start another operation only if one more of average length fits."""
    elapsed = perf_counter() - start
    return n_done == 0 or elapsed + elapsed / n_done <= seconds


def _untraced(wl, ctx, seconds: float) -> dict:
    times, out_bytes, failed = [], [], 0
    start = perf_counter()
    while _another(start, len(times), seconds):
        gc.collect()
        t0 = perf_counter()
        try:
            out = wl.op(ctx)
            times.append(perf_counter() - t0)
            fails = wl.check(ctx, out)
            out_bytes.append(out["bytes"])
            del out
        except Exception:
            times.append(perf_counter() - t0)
            fails = [traceback.format_exc()]
        if fails:
            failed += 1
            print(f"operation {len(times)} failed: {fails}", file=sys.stderr)
    units = {"wall_s": "s", "peak_rss_mb": "MB", "output_bytes": "bytes"}
    values = {
        "wall_s": statistics.median(times),
        "peak_rss_mb": _peak_rss_mb(),
        # Bytes per operation; every passing operation writes the same bytes.
        "output_bytes": statistics.median_low(out_bytes) if out_bytes else 0,
    }
    return {
        "attempted": len(times),
        "failed": failed,
        "problems": [],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "samples": {"wall_s": times},
    }


def _traced(wl, ctx, seconds: float) -> dict:
    tr = Tracer()
    rounds: list[dict] = []
    attempted, failed = 0, 0
    start = perf_counter()
    while _another(start, attempted, seconds):
        attempted += 1
        try:
            rounds.append(_round(wl, ctx, tr))
        except RoundFailed as exc:
            failed += 1
            print(f"round {attempted} failed: {exc}", file=sys.stderr)
        except Exception:
            failed += 1
            print(f"round {attempted} failed: {traceback.format_exc()}", file=sys.stderr)
    if not rounds:
        raise RuntimeError(f"all {attempted} traced rounds failed")

    problems = []
    counters = [{c: r[c] for c in COUNTER_KEYS} for r in rounds]
    if any(c != counters[0] for c in counters):
        problems.append(f"work counters differ between rounds: {counters}")
    problems += _compare_with_earlier_runs(ctx, counters[0])

    units = per_layer_units()
    wall = statistics.median(r["op_s"] for r in rounds)
    values = {name: statistics.median(r[name] for r in rounds) for name in units if name in rounds[0]}
    values.update(counters[0])
    values["trace.overhead_s"] = statistics.median(r["staged_s"] for r in rounds) - wall
    _write_json(OUT / f"trace-{ctx.workload}-m{ctx.m}-n{ctx.n}.json", {
        "workload": ctx.workload, "m": ctx.m, "n": ctx.n, "wall_s": wall,
        "rounds": rounds, **tr.dump(),
    })
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "counters": counters[0],
    }


class RoundFailed(Exception):
    """A traced round whose outputs failed a check or the differential check."""


def _round(wl, ctx, tr) -> dict:
    """The operation, the same library calls without the CLI, and the replay."""
    gc.collect()
    t0 = perf_counter()
    op = wl.op(ctx)
    op_s = perf_counter() - t0
    fails = wl.check(ctx, op)
    gc.collect()
    direct = wl.direct(ctx)
    gc.collect()
    k = tr.begin_op()
    t0 = perf_counter()
    staged = wl.staged(ctx, tr)
    staged_s = perf_counter() - t0
    fails += wl.diff(ctx, op, direct, staged)
    if fails:
        raise RoundFailed(fails)
    return _round_metrics(tr, k, op_s, staged_s, op["cli_s"], direct["lib_s"])


def _round_metrics(tr, k: int, op_s: float, staged_s: float, cli_s: float, lib_s: float) -> dict:
    total, own, calls = tr.op_summary(k)
    counts = tr.counts[k]
    r: dict = {"op_s": op_s, "staged_s": staged_s}
    for s in SPAN_TIMES:
        r[f"{s}_s"] = total.get(s, 0.0)
    r["verify.self_s"] = own.get("verify.certify", 0.0)
    for s in SPAN_CALLS:
        r[f"{s}_calls"] = calls.get(s, 0)
    for c in COUNTERS:
        r[c] = counts.get(c, 0)
    found = r["rect.contacts_found"]
    r["rect.contacts_useful_ratio"] = r["rect.contacts_a0"] / found if found else 0.0
    r["cli.dispatch_s"] = cli_s - lib_s
    for mod in MODULES:
        r[f"{mod}.share"] = sum(v for name, v in own.items() if name.startswith(mod + ".")) / staged_s
    r["cli.share"] = r["cli.dispatch_s"] / op_s
    return r


def _compare_with_earlier_runs(ctx, counters: dict) -> list[str]:
    """Counters must repeat exactly across runs of the same code and inputs."""
    path = OUT / "counters.json"
    key = f"{_src_digest()}:{ctx.workload}:m={ctx.m},n={ctx.n}"
    seen = json.loads(path.read_text()) if path.exists() else {}
    if key in seen and seen[key] != counters:
        return [f"work counters differ from an earlier run: {seen[key]} != {counters}"]
    seen[key] = counters
    _write_json(path, seen)
    return []


def _src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "translate_kiss").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _write_json(path: Path, obj) -> None:
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(obj))
    os.replace(tmp, path)


def environment(ctx) -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_sha256": _src_digest(),
        "threads": threading.active_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": ctx.workload,
        "m": ctx.m,
        "n": ctx.n,
        "sizes": vars(ctx.sizes),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None, digests=None) -> dict:
    """Run one workload in this process and return its result record."""
    sizes = sizes or workloads.FULL
    if digests is None:
        digests = json.loads(DIGESTS.read_text())
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    try:
        ctx = workloads.make_ctx(workload, seed, sizes, tmp, digests)
        wl = workloads.WORKLOADS[workload]
        result = (_traced if trace else _untraced)(wl, ctx, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["env"] = {**environment(ctx), "seed": seed}
    return result
