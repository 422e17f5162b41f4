"""Exact integer verification that planar kissing numbers of topological
disks are unbounded: staircase disk construction, translate placement,
machine-checkable certificates, and SVG figures."""

from .disk import Shape, SubCopyRef, build_disk, extract_sub_copy, sub_copy_offset
from .errors import (
    ConstructionBroken,
    ContractViolation,
    DocumentInvariantError,
    MalformedDocument,
    ParameterError,
    RangeError,
    SchemaVersionMismatch,
)
from .placement import (
    Lemma2Case,
    PairWitness,
    Scene,
    check_lemma2_exhaustive,
    iter_lemma2_cases,
    place_translates,
    theorem_pair_witness,
)
from .rect import (
    ContactComponent,
    Rect,
    Vec2,
    contact_components,
    total_contact_length,
    union_interiors_disjoint,
)
from .render import render_svg
from .ruler import (
    PrefixTable,
    check_lemma1_exhaustive,
    prefix_sum,
    ruler,
)
from .serial import parse, serialize
from .verify import (
    Certificate,
    PairVerdict,
    TouchingReport,
    VerticalRun,
    rightward_runs,
    verify_construction,
    verify_touching_heights,
)

__all__ = [
    "Certificate",
    "ConstructionBroken",
    "ContactComponent",
    "ContractViolation",
    "DocumentInvariantError",
    "Lemma2Case",
    "MalformedDocument",
    "PairVerdict",
    "PairWitness",
    "ParameterError",
    "PrefixTable",
    "RangeError",
    "Rect",
    "Scene",
    "SchemaVersionMismatch",
    "Shape",
    "SubCopyRef",
    "TouchingReport",
    "Vec2",
    "VerticalRun",
    "build_disk",
    "check_lemma1_exhaustive",
    "check_lemma2_exhaustive",
    "contact_components",
    "extract_sub_copy",
    "iter_lemma2_cases",
    "parse",
    "place_translates",
    "prefix_sum",
    "render_svg",
    "rightward_runs",
    "ruler",
    "serialize",
    "sub_copy_offset",
    "theorem_pair_witness",
    "total_contact_length",
    "union_interiors_disjoint",
    "verify_construction",
    "verify_touching_heights",
]
