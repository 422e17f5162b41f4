"""Build staircase disks, inspect their structure, and render figures.

Writes three SVGs next to this script: a small disk, the full scene for
(m=4, n=3), and the larger (m=5, n=5) scene.
"""

from pathlib import Path

from translate_kiss import (
    SubCopyRef,
    Vec2,
    build_disk,
    place_translates,
    render_svg,
    sub_copy_offset,
)

out_dir = Path(__file__).parent

shape = build_disk(4, 3)
print(f"Disk (m=4, n=3): {len(shape.pieces)} pieces, bounding box {shape.bounding_box()}")
# piece k of the path is bar k // 2 + 1 when k is even, connector k // 2 + 1 when odd
for k, r in enumerate(shape.pieces[:6]):
    print(f"  {'V' if k % 2 else 'B'}{k // 2 + 1}: {r}")
print("  ...")

print("\nRecursive structure: the right half is a fresh copy of the (4, 2) disk:")
off = sub_copy_offset(4, 3, SubCopyRef(level=2, copy=2))
# B5 sits at path position 8; B5..B8 and the connectors between them are the half
right_half = tuple(r.translate(Vec2(-off.dx, -off.dy)) for r in shape.pieces[8:])
same = right_half == build_disk(4, 2).pieces
print(f"  pieces 8.. moved back by {off} match build_disk(4, 2): {same}")

for name, obj in [
    ("disk_4_2.svg", build_disk(4, 2)),
    ("scene_4_3.svg", place_translates(4, 3)),
    ("scene_5_5.svg", place_translates(5, 5)),
]:
    path = out_dir / name
    path.write_bytes(render_svg(obj, unit_px=12))
    print(f"wrote {path}")
