"""Canonical JSON documents for shapes, scenes, and certificates.

Serialization is canonical: fixed key order, compact separators, pieces in
construction order.  Semantically equal objects always produce identical
bytes, and parse(serialize(x)) round-trips exactly.  Schema version "tk-1".

One writer, _chunks, yields a document's bytes in order: a header, then the
pieces in chunks of _CHUNK rows or three chunks per pair verdict, then a
trailer.  Each chunk is one bytes % template applied to a flat tuple of
fields, so no dict is built per piece or per contact and nothing is
encoded.  A certificate's chunks come from _certificate_chunks, which takes
each verdict with the (k, 4) int64 rows of its contacts' ends and formats
the contacts from those rows, each row with the template of the kind its
ends give (rect._kinds).  serialize feeds it a Certificate's verdicts,
each with the rows of ends it holds, or else rows made from its contacts
(verify._ends), and the CLI the verdicts that the sweep of the scene's
pairs, verify._verdicts, yields with their rows of ends.  So writing a
certificate of verify_construction makes no ContactComponent: its
verdicts hold their rows of ends until their contacts are read.

parse holds every document to one rule: it makes the object from the
(m, n) of the canonical header alone, a shape or a scene directly and a
certificate as verify_construction(m, n), and accepts the input only if it
is exactly the bytes serialize writes for that object.  So a certificate's
contacts, verdicts and totals must be the real ones of the placed
translates.  Input too short to hold the object's pieces or pairs is
refused before any rows are made.  The writer's chunks are compared in
order against the input in place, stopping at the first that differs, so
the bytes are never built a second time.  Only refused input is decoded,
with json.loads, to choose the class of the error.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Iterable, Iterator, NoReturn, Optional, Union

import numpy as np

from .disk import _CHUNK, Shape
from .errors import DocumentInvariantError, MalformedDocument, ParameterError, SchemaVersionMismatch
from .placement import Scene
from .rect import _KIND_NAMES, _gc_paused, _kinds, _lengths
from .verify import Certificate, PairVerdict, _ends, verify_construction

SCHEMA_VERSION = "tk-1"

Document = Union[Shape, Scene, Certificate]
_KINDS = {Shape: "shape", Scene: "scene", Certificate: "certificate"}

# every template is bytes, so each chunk is made by one % call and never encoded
_JSON_BOOL = {True: b"true", False: b"false"}
_HEAD = b'{"schema_version":"%s","kind":"%s","m":%d,"n":%d,'
# piece k of the path is bar k // 2 + 1 when k is even, else connector k // 2 + 1
_PIECE = b'{"role":"%s","index":%%d,"rect":[%%d,%%d,%%d,%%d]}'
_BAR, _CONNECTOR = _PIECE % b"bar", _PIECE % b"connector"
# one contact template per kind, in rect._KIND_NAMES' order
_CONTACT = np.array(
    [b'{"kind":"%s","a":[%%d,%%d],"b":[%%d,%%d],"length":%%d}' % k.encode() for k in _KIND_NAMES],
    dtype=object,
)
_VERDICT_HEAD = b'%s{"i":%d,"j":%d,"interiors_disjoint":%s,"contacts":['
_VERDICT_TAIL = b'],"segment_length_total":%d}'
# what parse reads without decoding: the header
_HEADER = re.compile(
    rb'\{"schema_version":"%s","kind":"(shape|scene|certificate)","m":(-?\d+),"n":(-?\d+),' % SCHEMA_VERSION.encode()
)
# a pair's chunks take at least this many bytes: one-digit i, j and total, true, no contacts
_SHORTEST_PAIR = len(_VERDICT_HEAD % (b"", 0, 0, b"true") + _VERDICT_TAIL % 0)


def _pieces(rows: np.ndarray) -> Iterator[bytes]:
    """A disk's pieces, _CHUNK rows per % call; a chunk starts at an even row,
    so with a bar."""
    for start in range(0, len(rows), _CHUNK):
        chunk = rows[start : start + _CHUNK]
        index = np.arange(start, start + len(chunk)) // 2 + 1
        fields = np.column_stack((index, chunk)).ravel().tolist()
        template = b",".join([_BAR, _CONNECTOR] * (len(chunk) // 2) + [_BAR] * (len(chunk) % 2))
        if start:
            yield b","
        yield template % tuple(fields)


def _contacts(ends: np.ndarray) -> bytes:
    """The JSON objects of the contacts with these (k, 4) int64 rows of ends
    [xa, ya, xb, yb], comma-separated, from one % call; each row's template
    is that of its kind (_kinds), and its length is derived from its ends."""
    if not len(ends):
        return b""
    fields = np.column_stack((ends, _lengths(ends))).ravel().tolist()
    return b",".join(_CONTACT[_kinds(ends)].tolist()) % tuple(fields)


def _offsets(scene: Union[Scene, Certificate]) -> bytes:
    return b",".join(b"[%d,%d]" % (t.dx, t.dy) for t in scene.offsets)


def _certificate_chunks(
    scene: Union[Scene, Certificate],
    verdicts: Iterable[tuple[PairVerdict, np.ndarray]],
    totals: Callable[[], tuple[int, bool]],
) -> Iterator[bytes]:
    """A certificate's bytes, in order: a header with the scene's offsets,
    three chunks for each (verdict, ends) pair (the verdict's fields, its
    contacts written from the rows of ends given with it, and its
    segment_length_total), and a trailer with touching_count and ok from
    totals(), called after the last verdict."""
    head = _HEAD % (SCHEMA_VERSION.encode(), b"certificate", scene.m, scene.n)
    yield head + b'"offsets":[%s],"pair_verdicts":[' % _offsets(scene)
    for k, (v, ends) in enumerate(verdicts):
        yield _VERDICT_HEAD % (b"," if k else b"", v.i, v.j, _JSON_BOOL[v.interiors_disjoint])
        yield _contacts(ends)
        yield _VERDICT_TAIL % v.segment_length_total
    touching, ok = totals()
    yield b'],"touching_count":%d,"ok":%s}\n' % (touching, _JSON_BOOL[ok])


def _chunks(obj: Document) -> Iterator[bytes]:
    """serialize's bytes, in order, as a header, the body's chunks and a trailer."""
    if type(obj) not in _KINDS:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if isinstance(obj, Certificate):
        verdicts = ((v, _ends(v)) for v in obj.pair_verdicts)
        yield from _certificate_chunks(obj, verdicts, lambda: (obj.touching_count, obj.ok))
        return
    head = _HEAD % (SCHEMA_VERSION.encode(), _KINDS[type(obj)].encode(), obj.m, obj.n)
    if isinstance(obj, Shape):
        yield head + b'"pieces":['
        yield from _pieces(obj.rows)
        yield b"]}\n"
        return
    yield head + b'"offsets":[%s]}\n' % _offsets(obj)


def serialize(obj: Document) -> bytes:
    return b"".join(_chunks(obj))


def _writes(chunks: Iterable[bytes], data: bytes) -> bool:
    """b"".join(chunks) == data, compared chunk by chunk against data in
    place, stopping at the first chunk that differs: startswith at an offset
    runs one memcmp and copies nothing."""
    end = 0
    for chunk in chunks:
        if not data.startswith(chunk, end):
            return False
        end += len(chunk)
    return end == len(data)


def _require(doc: Any, key: str) -> Any:
    if not isinstance(doc, dict):
        raise MalformedDocument(f"expected an object with field {key!r}, got {type(doc).__name__}")
    if key not in doc:
        raise MalformedDocument(f"missing field {key!r}")
    return doc[key]


def _int(value: Any, what: str) -> int:
    if type(value) is not int:
        raise DocumentInvariantError(f"{what} must be an integer, got {value!r}")
    return value


def _refusal(data: bytes) -> NoReturn:
    """Raise the error for data that parse does not accept.  Only here is the
    input decoded as JSON, to choose the error's class: MalformedDocument for
    bad JSON, a missing field or a shape's pieces that are not a list,
    SchemaVersionMismatch for another schema, and DocumentInvariantError for
    a bad m or n and for everything else."""
    try:
        with _gc_paused():  # decoded JSON holds no cycles
            doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or an oversized int
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    version = _require(doc, "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"expected schema {SCHEMA_VERSION!r}, got {version!r}")
    kind = _require(doc, "kind")
    if kind not in _KINDS.values():
        raise MalformedDocument(f"unknown document kind {kind!r}")
    m = _int(_require(doc, "m"), "m")
    n = _int(_require(doc, "n"), "n")
    try:
        Shape(m, n) if kind == "shape" else Scene(m, n)
    except ParameterError as exc:
        raise DocumentInvariantError(str(exc)) from exc
    if kind == "shape" and not isinstance(_require(doc, "pieces"), list):
        raise MalformedDocument(f"pieces must be a list, got {type(doc['pieces']).__name__}")
    raise DocumentInvariantError(f"{kind} is not what serialize writes for m={m}, n={n}")


def _rebuilt(data: bytes) -> Optional[Document]:
    """The object whose serialize() bytes data must be, made from the (m, n)
    of data's header alone, if data is those bytes; else None.  Raises
    ValueError (ParameterError included) where no object has that (m, n)."""
    header = _HEADER.match(data)
    if header is None:
        return None
    kind, m, n = header[1], int(header[2]), int(header[3])
    obj = Shape(m, n) if kind == b"shape" else Scene(m, n)
    # each of a shape's 2**(n + 1) - 1 pieces takes at least 40 bytes plus the
    # digits of its x1 >= m, and each of a certificate's C(n + 1, 2) pairs at
    # least _SHORTEST_PAIR, so shorter input is refused before any rows are made
    if kind == b"shape" and len(data) < (2 ** (n + 1) - 1) * (40 + len(str(m))):
        return None
    if kind == b"certificate":
        if len(data) < n * (n + 1) // 2 * _SHORTEST_PAIR:
            return None
        obj = verify_construction(m, n)
    return obj if _writes(_chunks(obj), data) else None


def parse(data: bytes) -> Document:
    """The shape, scene or certificate whose serialize() bytes are exactly data.

    The object is made from data's header alone: a shape or a scene from its
    (m, n), and a certificate as verify_construction(m, n).  It is accepted
    only if serialize writes exactly data for it, so a certificate's
    contacts and verdicts must be the real ones of its translates.  Raises
    MalformedDocument, or a subclass of it, for any other input.
    """
    try:
        obj = _rebuilt(data)
    except ValueError:  # a ParameterError too: no object has this (m, n)
        obj = None
    if obj is None:
        _refusal(data)
    return obj
