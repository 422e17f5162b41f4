"""Canonical JSON documents for shapes, scenes, and certificates.

Serialization is canonical: fixed key order, compact separators, pieces in
construction order.  Semantically equal objects always produce identical
bytes, and parse(serialize(x)) round-trips exactly.  Schema version "tk-1".

A shape or a scene is fixed by its (m, n), so parse rebuilds it and accepts
only the exact bytes serialize writes for that construction.  A certificate
must carry the construction's offsets; its verdicts are decoded and checked
for consistency with each other.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Any, Union

from .disk import Piece, Shape, _check_disk_params, build_disk
from .errors import DocumentInvariantError, MalformedDocument, ParameterError, SchemaVersionMismatch
from .placement import Scene, _check_theorem_params, place_translates
from .rect import ContactComponent, Rect, Vec2, total_contact_length
from .verify import Certificate, PairVerdict, _verdict_totals

SCHEMA_VERSION = "tk-1"

Document = Union[Shape, Scene, Certificate]
_KINDS = {Shape: "shape", Scene: "scene", Certificate: "certificate"}


def _rect_json(r: Rect) -> list[int]:
    return [r.x0, r.y0, r.x1, r.y1]


def _piece_json(p: Piece) -> dict[str, Any]:
    return {"role": p.role, "index": p.index, "rect": _rect_json(p.rect)}


def _contact_json(c: ContactComponent) -> dict[str, Any]:
    return {"kind": c.kind, "a": list(c.a), "b": list(c.b), "length": c.length}


def _verdict_json(v: PairVerdict) -> dict[str, Any]:
    return {
        "i": v.i,
        "j": v.j,
        "interiors_disjoint": v.interiors_disjoint,
        "contacts": [_contact_json(c) for c in v.contacts],
        "segment_length_total": v.segment_length_total,
    }


def to_document(obj: Document) -> dict[str, Any]:
    if type(obj) not in _KINDS:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION, "kind": _KINDS[type(obj)], "m": obj.m, "n": obj.n
    }
    if isinstance(obj, Shape):
        doc["pieces"] = [_piece_json(p) for p in obj.pieces]
    else:
        doc["offsets"] = [[t.dx, t.dy] for t in obj.offsets]
    if isinstance(obj, Certificate):
        doc["pair_verdicts"] = [_verdict_json(v) for v in obj.pair_verdicts]
        doc["touching_count"] = obj.touching_count
        doc["ok"] = obj.ok
    return doc


def serialize(obj: Document) -> bytes:
    return (json.dumps(to_document(obj), separators=(",", ":")) + "\n").encode("utf-8")


def _require(doc: Any, key: str) -> Any:
    if not isinstance(doc, dict):
        raise MalformedDocument(f"expected an object with field {key!r}, got {type(doc).__name__}")
    if key not in doc:
        raise MalformedDocument(f"missing field {key!r}")
    return doc[key]


def _list(value: Any, what: str) -> list[Any]:
    if not isinstance(value, list):
        raise MalformedDocument(f"{what} must be a list, got {type(value).__name__}")
    return value


def _int(value: Any, what: str) -> int:
    if type(value) is not int:
        raise DocumentInvariantError(f"{what} must be an integer, got {value!r}")
    return value


def _bool(value: Any, what: str) -> bool:
    if type(value) is not bool:
        raise DocumentInvariantError(f"{what} must be true or false, got {value!r}")
    return value


def _ints(data: Any, count: int, what: str) -> tuple[int, ...]:
    if not (isinstance(data, list) and len(data) == count):
        raise MalformedDocument(f"{what} must be a list of {count} integers, got {data!r}")
    return tuple(_int(v, what) for v in data)


def _parse_contact(data: Any) -> ContactComponent:
    kind = _require(data, "kind")
    a = _ints(_require(data, "a"), 2, "contact point")
    b = _ints(_require(data, "b"), 2, "contact point")
    length = _int(_require(data, "length"), "contact length")
    try:
        return ContactComponent(kind, a, b, length)  # type: ignore[arg-type]
    except ValueError as exc:
        raise DocumentInvariantError(str(exc)) from exc


def _parse_verdict(data: Any) -> PairVerdict:
    contacts = _list(_require(data, "contacts"), "contacts")
    return PairVerdict(
        i=_int(_require(data, "i"), "pair index"),
        j=_int(_require(data, "j"), "pair index"),
        interiors_disjoint=_bool(_require(data, "interiors_disjoint"), "interiors_disjoint"),
        contacts=tuple(_parse_contact(c) for c in contacts),
        segment_length_total=_int(_require(data, "segment_length_total"), "segment length"),
    )


def parse(data: bytes) -> Document:
    """Parse and validate a document produced by serialize()."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or an oversized int
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    version = _require(doc, "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"expected schema {SCHEMA_VERSION!r}, got {version!r}"
        )
    kind = _require(doc, "kind")
    if kind not in _KINDS.values():
        raise MalformedDocument(f"unknown document kind {kind!r}")
    m = _int(_require(doc, "m"), "m")
    n = _int(_require(doc, "n"), "n")
    try:
        (_check_disk_params if kind == "shape" else _check_theorem_params)(m, n)
    except ParameterError as exc:
        raise DocumentInvariantError(str(exc)) from exc

    if kind == "shape":
        pieces = _list(_require(doc, "pieces"), "pieces")
        if len(pieces) != 2 ** (n + 1) - 1:
            raise DocumentInvariantError(
                f"shape with n={n} must have 2**{n + 1} - 1 pieces, got {len(pieces)}"
            )
        # every piece serialize writes takes at least 40 bytes plus the digits of its
        # x1 = i * m, so shorter input is rejected before the disk is built
        if len(data) < len(pieces) * (40 + len(str(m))):
            raise DocumentInvariantError(f"{len(data)} bytes are too few for {len(pieces)} pieces")
    built = build_disk(m, n) if kind == "shape" else place_translates(m, n)
    if kind != "certificate":
        if serialize(built) != data:
            raise DocumentInvariantError(f"{kind} is not what serialize writes for m={m}, n={n}")
        return built

    items = _list(_require(doc, "offsets"), "offsets")
    offsets = tuple(Vec2(*_ints(od, 2, "offset")) for od in items)
    if offsets != built.offsets:
        raise DocumentInvariantError(f"offsets are not those of the construction for m={m}, n={n}")
    verdicts = tuple(_parse_verdict(v) for v in _list(_require(doc, "pair_verdicts"), "pair_verdicts"))
    if [(v.i, v.j) for v in verdicts] != list(combinations(range(n + 1), 2)):
        raise DocumentInvariantError(f"pair_verdicts must list the pairs i < j <= {n} in order")
    for v in verdicts:
        if v.segment_length_total != total_contact_length(v.contacts):
            raise DocumentInvariantError(
                f"pair ({v.i}, {v.j}): segment_length_total is not the sum of its contact lengths"
            )
    touching, ok = _verdict_totals(n, verdicts)
    cert = Certificate(
        m=m,
        n=n,
        offsets=offsets,
        pair_verdicts=verdicts,
        touching_count=_int(_require(doc, "touching_count"), "touching_count"),
        ok=_bool(_require(doc, "ok"), "ok"),
    )
    if (cert.touching_count, cert.ok) != (touching, ok):
        raise DocumentInvariantError(
            f"touching_count and ok must be {touching} and {ok} by the verdicts, "
            f"got {cert.touching_count} and {cert.ok}"
        )
    return cert

