"""Write digests.json: sha256 of the outputs the workloads must reproduce.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run this only at a commit whose outputs are trusted; the benchmark then
fails every operation whose certificate, SVG or shape document differs
from the bytes recorded here.  Keys name the workload, the output and the
(m, n) it was made for, at the full and the test sizes.
"""

from __future__ import annotations

import json
from pathlib import Path

from translate_kiss import build_disk, place_translates, render_svg, serialize, verify_construction

from workloads import FULL, TINY, sha256


def main() -> None:
    digests = {}
    for sizes in (FULL, TINY):
        n = sizes.certify_n
        for m in range(n, n + 3):
            digests[f"certify.certificate:m={m},n={n}"] = sha256(serialize(verify_construction(m, n)))
        n = sizes.explain_n
        for m in range(n, n + 3):
            digests[f"explain.svg:m={m},n={n}"] = sha256(render_svg(place_translates(m, n), unit_px=10))
            digests[f"explain.shape:m={m},n={n}"] = sha256(serialize(build_disk(m, n)))
    path = Path(__file__).resolve().parent / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
