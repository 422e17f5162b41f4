"""Canonical JSON documents for shapes, scenes, and certificates.

Serialization is canonical: fixed key order, compact separators, pieces in
construction order.  Semantically equal objects always produce identical
bytes, and parse(serialize(x)) round-trips exactly.  Schema version "tk-1".

parse holds every document to one rule: it rebuilds the object and accepts
the input only if it is exactly the bytes serialize writes for that object.
A Shape or a Scene is its (m, n), so parse makes it from those two fields
alone.  A certificate takes its offsets from the (m, n) Scene too; only each
pair's interiors_disjoint and the two ends of each contact are decoded, and
each contact's kind and length, the segment totals, touching_count and ok
are derived from them.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Any, Union

from .disk import Shape
from .errors import DocumentInvariantError, MalformedDocument, ParameterError, SchemaVersionMismatch
from .placement import Scene
from .rect import ContactComponent, total_contact_length
from .verify import Certificate, PairVerdict, _verdict_totals

SCHEMA_VERSION = "tk-1"

Document = Union[Shape, Scene, Certificate]
_KINDS = {Shape: "shape", Scene: "scene", Certificate: "certificate"}


def _piece_json(k: int, rect: list[int]) -> dict[str, Any]:
    """Piece k of the path: bar k // 2 + 1 when k is even, else connector k // 2 + 1."""
    return {"role": "connector" if k % 2 else "bar", "index": k // 2 + 1, "rect": rect}


def _contact_json(c: ContactComponent) -> dict[str, Any]:
    return {"kind": c.kind, "a": c.a, "b": c.b, "length": c.length}


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
        doc["pieces"] = [_piece_json(k, r) for k, r in enumerate(obj.rows.tolist())]
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


def _point(p: Any) -> tuple[int, int]:
    return int(p[0]), int(p[1])


def _verdict(i: int, j: int, data: Any) -> PairVerdict:
    """The verdict for pair (i, j) from its free fields; the total is derived."""
    contacts = tuple(ContactComponent(_point(c["a"]), _point(c["b"])) for c in data["contacts"])
    return PairVerdict(
        i, j, bool(data["interiors_disjoint"]), contacts, total_contact_length(contacts)
    )


def parse(data: bytes) -> Document:
    """The shape, scene or certificate whose serialize() bytes are exactly data.

    Raises MalformedDocument, or a subclass of it, for any other input.
    """
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
        built = Shape(m, n) if kind == "shape" else Scene(m, n)
    except ParameterError as exc:
        raise DocumentInvariantError(str(exc)) from exc

    if kind == "shape":
        pieces = _list(_require(doc, "pieces"), "pieces")
        if len(pieces) != 2 ** (n + 1) - 1:
            raise DocumentInvariantError(
                f"shape with n={n} must have 2**{n + 1} - 1 pieces, got {len(pieces)}"
            )
        # every piece serialize writes takes at least 40 bytes plus the digits of its
        # x1 = i * m, so shorter input is rejected before the pieces are made
        if len(data) < len(pieces) * (40 + len(str(m))):
            raise DocumentInvariantError(f"{len(data)} bytes are too few for {len(pieces)} pieces")
    try:
        if kind == "certificate":
            pairs = combinations(range(n + 1), 2)
            # popped, so the decoded JSON is freed before serialize runs
            verdicts = tuple(
                _verdict(i, j, v) for (i, j), v in zip(pairs, doc.pop("pair_verdicts"), strict=True)
            )
            built = Certificate(m, n, built.offsets, verdicts, *_verdict_totals(n, verdicts))
        exact = serialize(built) == data
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise DocumentInvariantError(f"{kind} does not decode: {type(exc).__name__}: {exc}") from exc
    if not exact:
        raise DocumentInvariantError(f"{kind} is not what serialize writes for m={m}, n={n}")
    return built
