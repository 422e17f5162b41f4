"""The three benchmark workloads: one operation each, its output checks, the
same library calls made without the CLI, and a staged replay with spans.

* ``certify``: ``translate-kiss verify -m M -n 11 --json FILE`` and then
  ``parse(FILE)``, the time to a checked certificate.  Contact extraction
  (``rect.contact_components``) dominates.
* ``lemma2``: ``translate-kiss lemma2 -m 5 -n 5``, thousands of small
  ``union_interiors_disjoint`` calls and no contact extraction or
  serialization.  m stays fixed because the work scales with m - 1.
* ``explain``: at n=12, every pair witness, every touching report, every
  level >= 1 sub-copy, and the CLI ``render --scene``, ``build`` (then
  ``parse``) and ``lemma1``.  The disk, ruler, placement and render layers
  do most of the work; rect does little.

Where the work does not depend on m, the seed picks m from {n, n+1, n+2}.
"""

from __future__ import annotations

import hashlib
import io
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from translate_kiss import cli
from translate_kiss.disk import SubCopyRef, build_disk, extract_sub_copy, sub_copy_offset
from translate_kiss.placement import (
    PairWitness,
    check_lemma2_exhaustive,
    iter_lemma2_cases,
    place_translates,
    theorem_pair_witness,
)
from translate_kiss.rect import (
    Vec2,
    contact_components,
    total_contact_length,
    union_interiors_disjoint,
)
from translate_kiss.render import render_svg
from translate_kiss.ruler import PrefixTable, check_lemma1_exhaustive, prefix_sum
from translate_kiss.serial import parse, serialize
from translate_kiss.verify import (
    Certificate,
    PairVerdict,
    verify_construction,
    verify_touching_heights,
)

from spans import Tracer


@dataclass(frozen=True)
class Sizes:
    certify_n: int
    lemma2: tuple[int, int]
    explain_n: int
    lemma1: tuple[int, int]  # (k_max, r_max)


FULL = Sizes(certify_n=11, lemma2=(5, 5), explain_n=12, lemma1=(1024, 65536))
TINY = Sizes(certify_n=3, lemma2=(3, 3), explain_n=3, lemma1=(16, 256))


@dataclass(frozen=True)
class Ctx:
    workload: str
    m: int
    n: int
    sizes: Sizes
    tmp: Path
    digests: dict[str, str]

    def digest_key(self, what: str) -> str:
        return f"{self.workload}.{what}:m={self.m},n={self.n}"


def make_ctx(workload: str, seed: int, sizes: Sizes, tmp: Path, digests: dict[str, str]) -> Ctx:
    """Inputs depend on the seed only: the same seed gives the same m and n."""
    pick = random.Random(seed).randrange(3)
    if workload == "certify":
        m, n = sizes.certify_n + pick, sizes.certify_n
    elif workload == "lemma2":
        m, n = sizes.lemma2
    elif workload == "explain":
        m, n = sizes.explain_n + pick, sizes.explain_n
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Ctx(workload, m, n, sizes, tmp, digests)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv: list[str], stdout: io.StringIO) -> tuple[int, float]:
    """Run the CLI as a user would, with its summary lines captured."""
    t0 = perf_counter()
    with redirect_stdout(stdout):
        rc = cli.main(argv)
    return rc, perf_counter() - t0


def _stdout_bytes(stdout: io.StringIO) -> int:
    return len(stdout.getvalue().encode("utf-8"))


def _check_digest(ctx: Ctx, what: str, data: bytes, fails: list[str]) -> None:
    key = ctx.digest_key(what)
    want = ctx.digests.get(key)
    if want is None:
        fails.append(f"no recorded digest for {key}")
    elif sha256(data) != want:
        fails.append(f"{key}: sha256 {sha256(data)} != recorded {want}")


# --- certify -----------------------------------------------------------------


def certify_op(ctx: Ctx) -> dict[str, Any]:
    path = ctx.tmp / "cert.json"
    stdout = io.StringIO()
    rc, cli_s = _cli(["verify", "-m", str(ctx.m), "-n", str(ctx.n), "--json", str(path)], stdout)
    data = path.read_bytes()
    return {
        "rc": rc,
        "cli_s": cli_s,
        "data": data,
        "cert": parse(data),
        "bytes": len(data) + _stdout_bytes(stdout),
    }


def certify_check(ctx: Ctx, out: dict[str, Any]) -> list[str]:
    fails = []
    if out["rc"] != 0:
        fails.append(f"verify exit code {out['rc']}")
    cert = out["cert"]
    if not isinstance(cert, Certificate):
        return fails + [f"parsed a {type(cert).__name__}, not a certificate"]
    if not cert.ok:
        fails.append("certificate is not ok")
    if cert.touching_count != ctx.n:
        fails.append(f"touching_count {cert.touching_count} != n={ctx.n}")
    if len(cert.pair_verdicts) != comb(ctx.n + 1, 2):
        fails.append(f"{len(cert.pair_verdicts)} pair verdicts, want {comb(ctx.n + 1, 2)}")
    bad = [(v.i, v.j) for v in cert.pair_verdicts if not v.interiors_disjoint]
    if bad:
        fails.append(f"pairs not disjoint: {bad[:5]}")
    if serialize(cert) != out["data"]:
        fails.append("parse(bytes) does not serialize back to the same bytes")
    _check_digest(ctx, "certificate", out["data"], fails)
    return fails


def certify_direct(ctx: Ctx) -> dict[str, Any]:
    """What `verify --json FILE` does, called without the CLI."""
    t0 = perf_counter()
    data = serialize(verify_construction(ctx.m, ctx.n))
    with open(ctx.tmp / "cert-direct.json", "wb") as fh:
        fh.write(data)
    return {"lib_s": perf_counter() - t0, "data": data}


def certify_staged(ctx: Ctx, tr: Tracer) -> dict[str, Any]:
    """verify_construction rebuilt from its public building blocks."""
    m, n = ctx.m, ctx.n
    with tr.span("verify.certify"):
        with tr.span("disk.build"):
            shape = build_disk(m, n)
        tr.count("disk.pieces_built", len(shape.pieces))
        with tr.span("placement.place"):
            scene = place_translates(m, n)
        placed = [[r.translate(t) for r in shape.rects()] for t in scene.offsets]
        verdicts = []
        touching = 0
        for i, j in combinations(range(n + 1), 2):
            with tr.span("rect.disjoint"):
                disjoint = union_interiors_disjoint(placed[i], placed[j])
            contacts: tuple = ()
            if disjoint:
                with tr.span("rect.contacts"):
                    contacts = tuple(contact_components(placed[i], placed[j]))
                tr.count("rect.contacts_found", len(contacts))
                if i == 0:
                    tr.count("rect.contacts_a0", len(contacts))
            seg_total = total_contact_length(contacts)
            if i == 0 and seg_total >= 1:
                touching += 1
            verdicts.append(PairVerdict(i, j, disjoint, contacts, seg_total))
            tr.count("verify.pairs_checked")
        all_disjoint = all(v.interiors_disjoint for v in verdicts)
        cert = Certificate(
            m=m,
            n=n,
            offsets=scene.offsets,
            pair_verdicts=tuple(verdicts),
            touching_count=touching,
            ok=all_disjoint and touching == n,
        )
    with tr.span("serial.serialize"):
        data = serialize(cert)
    tr.count("serial.bytes_out", len(data))
    path = ctx.tmp / "cert-staged.json"
    path.write_bytes(data)
    back = path.read_bytes()
    tr.count("serial.bytes_in", len(back))
    with tr.span("serial.parse"):
        parsed = parse(back)
    return {"cert": cert, "data": data, "parsed": parsed}


def certify_diff(ctx: Ctx, op: dict, direct: dict, staged: dict) -> list[str]:
    fails = []
    if staged["data"] != direct["data"]:
        fails.append("staged certificate bytes differ from serialize(verify_construction(m, n))")
    if staged["data"] != op["data"]:
        fails.append("staged certificate bytes differ from the CLI's")
    if staged["parsed"] != staged["cert"] or op["cert"] != staged["cert"]:
        fails.append("parse(bytes) does not equal the staged certificate")
    return fails


# --- lemma2 ------------------------------------------------------------------


def lemma2_op(ctx: Ctx) -> dict[str, Any]:
    stdout = io.StringIO()
    rc, cli_s = _cli(["lemma2", "-m", str(ctx.m), "-n", str(ctx.n)], stdout)
    return {"rc": rc, "cli_s": cli_s, "stdout": stdout.getvalue(), "bytes": _stdout_bytes(stdout)}


def lemma2_check(ctx: Ctx, out: dict[str, Any]) -> list[str]:
    fails = []
    if out["rc"] != 0:
        fails.append(f"lemma2 exit code {out['rc']}")
    if not out["stdout"].startswith("PASS"):
        fails.append(f"lemma2 printed {out['stdout']!r}")
    return fails


def lemma2_direct(ctx: Ctx) -> dict[str, Any]:
    t0 = perf_counter()
    failure = check_lemma2_exhaustive(ctx.m, ctx.n)
    return {"lib_s": perf_counter() - t0, "failure": failure}


def lemma2_staged(ctx: Ctx, tr: Tracer) -> dict[str, Any]:
    """check_lemma2_exhaustive rebuilt from its public building blocks."""
    m, n = ctx.m, ctx.n
    failure = None
    with tr.span("placement.lemma2"):
        with tr.span("disk.build"):
            shape = build_disk(m, n)
        tr.count("disk.pieces_built", len(shape.pieces))
        rects = shape.rects()
        with tr.span("ruler.table"):
            table = PrefixTable.build(2**n)
        tr.count("ruler.table_terms", table.limit)
        for case in iter_lemma2_cases(m, n):
            off = Vec2((case.r - 1) * m + case.xstar, prefix_sum(case.r - 1, table) - case.ystar)
            shifted = [r.translate(off) for r in rects]
            tr.count("placement.lemma2_cases")
            with tr.span("rect.disjoint"):
                disjoint = union_interiors_disjoint(rects, shifted)
            if not disjoint:
                failure = case
                break
    return {"failure": failure}


def lemma2_diff(ctx: Ctx, op: dict, direct: dict, staged: dict) -> list[str]:
    fails = []
    if staged["failure"] != direct["failure"]:
        fails.append(f"staged lemma2 found {staged['failure']}, library {direct['failure']}")
    if (staged["failure"] is None) != (op["rc"] == 0):
        fails.append("staged lemma2 verdict disagrees with the CLI exit code")
    return fails


# --- explain -----------------------------------------------------------------


def _explain_paths(ctx: Ctx, tag: str) -> tuple[Path, Path]:
    return ctx.tmp / f"scene{tag}.svg", ctx.tmp / f"shape{tag}.json"


def _sub_copy_refs(n: int) -> list[SubCopyRef]:
    return [SubCopyRef(level, copy) for level in range(1, n + 1) for copy in range(1, 2 ** (n - level) + 1)]


def explain_op(ctx: Ctx) -> dict[str, Any]:
    m, n = ctx.m, ctx.n
    k_max, r_max = ctx.sizes.lemma1
    witnesses = {(i, j): theorem_pair_witness(m, n, i, j) for i, j in combinations(range(1, n + 1), 2)}
    reports = [verify_touching_heights(m, n, i) for i in range(1, n + 1)]
    shape = build_disk(m, n)
    subs = [extract_sub_copy(shape, ref) for ref in _sub_copy_refs(n)]
    svg_path, shape_path = _explain_paths(ctx, "")
    stdout = io.StringIO()
    mn = ["-m", str(m), "-n", str(n)]
    rc_render, t_render = _cli(["render", *mn, "--scene", "--out", str(svg_path)], stdout)
    rc_build, t_build = _cli(["build", *mn, "--out", str(shape_path)], stdout)
    shape_bytes = shape_path.read_bytes()
    shape_doc = parse(shape_bytes)
    rc_lemma1, t_lemma1 = _cli(["lemma1", "--k-max", str(k_max), "--r-max", str(r_max)], stdout)
    svg = svg_path.read_bytes()
    return {
        "rc": (rc_render, rc_build, rc_lemma1),
        "cli_s": t_render + t_build + t_lemma1,
        "witnesses": witnesses,
        "reports": reports,
        "shape": shape,
        "subs": subs,
        "svg": svg,
        "shape_bytes": shape_bytes,
        "shape_doc": shape_doc,
        "bytes": len(svg) + len(shape_bytes) + _stdout_bytes(stdout),
    }


def explain_check(ctx: Ctx, out: dict[str, Any]) -> list[str]:
    fails = []
    if out["rc"] != (0, 0, 0):
        fails.append(f"render/build/lemma1 exit codes {out['rc']}")
    if len(out["witnesses"]) != comb(ctx.n, 2):
        fails.append(f"{len(out['witnesses'])} witnesses, want {comb(ctx.n, 2)}")
    for (i, j), w in out["witnesses"].items():
        if not w.xstar == w.ystar == j - i:
            fails.append(f"witness ({i}, {j}) has xstar={w.xstar}, ystar={w.ystar}")
    bad = [r.i for r in out["reports"] if not r.ok]
    if len(out["reports"]) != ctx.n or bad:
        fails.append(f"touching reports not ok: {bad}")
    fresh: dict[int, Any] = {}
    refs = _sub_copy_refs(ctx.n)
    if len(out["subs"]) != len(refs):
        fails.append(f"{len(out['subs'])} sub-copies, want {len(refs)}")
    for ref, sub in zip(refs, out["subs"]):
        if ref.level not in fresh:
            fresh[ref.level] = build_disk(ctx.m, ref.level)
        if sub != fresh[ref.level]:
            fails.append(f"sub-copy {ref} differs from build_disk(m, {ref.level})")
            break
    if out["shape_doc"] != out["shape"]:
        fails.append("parsed shape document differs from build_disk(m, n)")
    _check_digest(ctx, "svg", out["svg"], fails)
    _check_digest(ctx, "shape", out["shape_bytes"], fails)
    return fails


def explain_direct(ctx: Ctx) -> dict[str, Any]:
    """What the render, build and lemma1 CLI calls do, without the CLI."""
    k_max, r_max = ctx.sizes.lemma1
    svg_path, shape_path = _explain_paths(ctx, "-direct")
    t0 = perf_counter()
    svg = render_svg(place_translates(ctx.m, ctx.n), unit_px=10)
    with open(svg_path, "wb") as fh:
        fh.write(svg)
    shape_bytes = serialize(build_disk(ctx.m, ctx.n))
    with open(shape_path, "wb") as fh:
        fh.write(shape_bytes)
    failure = check_lemma1_exhaustive(k_max, r_max, PrefixTable.build(r_max))
    return {"lib_s": perf_counter() - t0, "svg": svg, "shape_bytes": shape_bytes, "lemma1": failure}


def _staged_witness(tr: Tracer, m: int, n: int, i: int, j: int) -> PairWitness | None:
    """theorem_pair_witness rebuilt from its public building blocks."""
    with tr.span("placement.witness"):
        with tr.span("placement.place"):
            scene = place_translates(m, n)
        level = n + 1 - j
        shift = j - i
        target = scene.offsets[j] - scene.offsets[i] - Vec2(shift, -shift)
        for copy in range(1, 2 ** (n - level) + 1):
            tr.count("placement.witness_copies_scanned")
            with tr.span("disk.sub_copy"):
                offset = sub_copy_offset(m, n, SubCopyRef(level=level, copy=copy))
            if offset == target:
                return PairWitness(level, copy, (copy - 1) * 2**level + 1, shift, shift)
    return None


def explain_staged(ctx: Ctx, tr: Tracer) -> dict[str, Any]:
    m, n = ctx.m, ctx.n
    k_max, r_max = ctx.sizes.lemma1
    witnesses = {(i, j): _staged_witness(tr, m, n, i, j) for i, j in combinations(range(1, n + 1), 2)}
    reports = []
    for i in range(1, n + 1):
        with tr.span("verify.touching"):
            reports.append(verify_touching_heights(m, n, i))
    with tr.span("disk.build"):
        shape = build_disk(m, n)
    tr.count("disk.pieces_built", len(shape.pieces))
    subs = []
    for ref in _sub_copy_refs(n):
        with tr.span("disk.extract"):
            subs.append(extract_sub_copy(shape, ref))
    svg_path, shape_path = _explain_paths(ctx, "-staged")

    with tr.span("placement.place"):
        scene = place_translates(m, n)
    with tr.span("render.svg"):
        svg = render_svg(scene, unit_px=10)
    tr.count("render.svg_bytes", len(svg))
    tr.count("render.rects_drawn", len(scene.offsets) * (2 ** (n + 1) - 1))
    svg_path.write_bytes(svg)

    with tr.span("disk.build"):
        built = build_disk(m, n)
    tr.count("disk.pieces_built", len(built.pieces))
    with tr.span("serial.serialize"):
        shape_bytes = serialize(built)
    tr.count("serial.bytes_out", len(shape_bytes))
    shape_path.write_bytes(shape_bytes)
    back = shape_path.read_bytes()
    tr.count("serial.bytes_in", len(back))
    with tr.span("serial.parse"):
        shape_doc = parse(back)

    with tr.span("ruler.table"):
        table = PrefixTable.build(r_max)
    tr.count("ruler.table_terms", table.limit)
    with tr.span("ruler.lemma1"):
        failure = check_lemma1_exhaustive(k_max, r_max, table)
    last_k = failure[0] if failure else min(k_max, r_max)
    tr.count("ruler.windows_checked", sum(r_max + 1 - k for k in range(1, last_k + 1)))
    return {
        "witnesses": witnesses,
        "reports": reports,
        "subs": subs,
        "svg": svg,
        "shape_bytes": shape_bytes,
        "shape_doc": shape_doc,
        "lemma1": failure,
    }


def explain_diff(ctx: Ctx, op: dict, direct: dict, staged: dict) -> list[str]:
    fails = []
    if staged["witnesses"] != op["witnesses"]:
        fails.append("staged pair witnesses differ from theorem_pair_witness")
    if staged["reports"] != op["reports"]:
        fails.append("staged touching reports differ")
    if staged["subs"] != op["subs"]:
        fails.append("staged sub-copies differ")
    if not staged["svg"] == direct["svg"] == op["svg"]:
        fails.append("staged SVG bytes differ from render_svg or the CLI's")
    if not staged["shape_bytes"] == direct["shape_bytes"] == op["shape_bytes"]:
        fails.append("staged shape bytes differ from serialize(build_disk) or the CLI's")
    if staged["shape_doc"] != op["shape_doc"]:
        fails.append("staged parse of the shape document differs")
    if staged["lemma1"] != direct["lemma1"] or (staged["lemma1"] is None) != (op["rc"][2] == 0):
        fails.append("staged lemma1 verdict differs")
    return fails


@dataclass(frozen=True)
class Workload:
    op: Callable[[Ctx], dict]
    check: Callable[[Ctx, dict], list[str]]
    direct: Callable[[Ctx], dict]
    staged: Callable[[Ctx, Tracer], dict]
    diff: Callable[[Ctx, dict, dict, dict], list[str]]


WORKLOADS = {
    "certify": Workload(certify_op, certify_check, certify_direct, certify_staged, certify_diff),
    "lemma2": Workload(lemma2_op, lemma2_check, lemma2_direct, lemma2_staged, lemma2_diff),
    "explain": Workload(explain_op, explain_check, explain_direct, explain_staged, explain_diff),
}
