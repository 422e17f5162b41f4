"""Build staircase disks, inspect their structure, and render figures.

Writes three SVGs next to this script: a small disk, the full scene for
(m=4, n=3), and the larger (m=5, n=5) scene.
"""

from pathlib import Path

from translate_kiss import (
    SubCopyRef,
    build_disk,
    extract_sub_copy,
    place_translates,
    render_svg,
)

out_dir = Path(__file__).parent

shape = build_disk(4, 3)
print(f"Disk (m=4, n=3): {len(shape.pieces)} pieces, bounding box {shape.bounding_box()}")
# piece k of the path is bar k // 2 + 1 when k is even, connector k // 2 + 1 when odd
for k, r in enumerate(shape.pieces[:6]):
    print(f"  {'V' if k % 2 else 'B'}{k // 2 + 1}: {r}")
print("  ...")

print("\nRecursive structure: the right half is a fresh copy of the (4, 2) disk:")
right_half = extract_sub_copy(shape, SubCopyRef(level=2, copy=2))
print(f"  matches build_disk(4, 2): {right_half.pieces == build_disk(4, 2).pieces}")

for name, obj in [
    ("disk_4_2.svg", build_disk(4, 2)),
    ("scene_4_3.svg", place_translates(4, 3)),
    ("scene_5_5.svg", place_translates(5, 5)),
]:
    path = out_dir / name
    path.write_bytes(render_svg(obj, unit_px=12))
    print(f"wrote {path}")
