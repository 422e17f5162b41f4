"""Canonical JSON documents for shapes, scenes, and certificates.

Serialization is canonical: fixed key order, compact separators, pieces in
construction order.  Semantically equal objects always produce identical
bytes, and parse(serialize(x)) round-trips exactly.  Schema version "tk-1".

One writer, _chunks, yields a document's bytes in order: a header, then the
pieces in chunks of _CHUNK rows or each pair verdict's fields and contacts,
then a trailer.  Each chunk is one bytes % template applied to a flat tuple
of fields, so no dict is built per piece or per contact and nothing is
encoded; serialize joins the chunks, and the CLI writes them as they are
made.

parse holds every document to one rule: it rebuilds the object and accepts
the input only if it is exactly the bytes serialize writes for that object.
A Shape or a Scene is its (m, n), so parse makes it from those two fields
alone.  A certificate takes its offsets from the (m, n) Scene too; only each
pair's interiors_disjoint and the two ends of each contact are decoded, and
each contact's kind and length, the segment totals, touching_count and ok
are derived from them.  The ends of a verdict's contacts are decoded into
one int64 array whose kinds are checked at once, and each verdict's decoded
JSON is released as soon as it is used.  The writer's chunks are then
compared in order against the input in place, so the bytes are never built
a second time.
"""

from __future__ import annotations

import json
from itertools import chain, combinations
from operator import itemgetter
from typing import Any, Iterator, Union

import numpy as np

from .disk import _CHUNK, Shape
from .errors import DocumentInvariantError, MalformedDocument, ParameterError, SchemaVersionMismatch
from .placement import Scene
from .rect import HSEG, POINT, VSEG, ContactComponent, _contacts_from_ends, _gc_paused, total_contact_length
from .verify import Certificate, PairVerdict, _verdict_totals

SCHEMA_VERSION = "tk-1"

Document = Union[Shape, Scene, Certificate]
_KINDS = {Shape: "shape", Scene: "scene", Certificate: "certificate"}

# every template is bytes, so each chunk is made by one % call and never encoded
_JSON_BOOL = {True: b"true", False: b"false"}
# piece k of the path is bar k // 2 + 1 when k is even, else connector k // 2 + 1
_PIECE = b'{"role":"%s","index":%%d,"rect":[%%d,%%d,%%d,%%d]}'
_BAR, _CONNECTOR = _PIECE % b"bar", _PIECE % b"connector"
_CONTACT = b'{"kind":"%s","a":[%d,%d],"b":[%d,%d],"length":%d}'
_KIND_JSON = {kind: kind.encode() for kind in (HSEG, POINT, VSEG)}
# a ContactComponent is the tuple (kind, a, b, length); a decoded contact is a dict
_KIND, _ENDS, _LENGTH = itemgetter(0), itemgetter(1, 2), itemgetter(3)
_JSON_ENDS = itemgetter("a", "b")


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


def _contacts(contacts: tuple[ContactComponent, ...]) -> bytes:
    """The contacts' JSON objects, comma-separated, from one % call.  The flat
    field tuple is built by C-level iterators that keep nothing per contact
    alive (a zip(*contacts) transpose would hold one iterator per contact,
    and the garbage collector would walk the heap again and again)."""
    ends = chain.from_iterable(chain.from_iterable(map(_ENDS, contacts)))  # xa, ya, xb, yb, ...
    kinds = map(_KIND_JSON.__getitem__, map(_KIND, contacts))
    fields = tuple(chain.from_iterable(zip(kinds, ends, ends, ends, ends, map(_LENGTH, contacts))))
    return b",".join([_CONTACT] * len(contacts)) % fields


def _chunks(obj: Document) -> Iterator[bytes]:
    """serialize's bytes, in order, as a header, the body's chunks and a trailer."""
    if type(obj) not in _KINDS:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    head = b'{"schema_version":"%s","kind":"%s","m":%d,"n":%d,' % (
        SCHEMA_VERSION.encode(), _KINDS[type(obj)].encode(), obj.m, obj.n
    )
    if isinstance(obj, Shape):
        yield head + b'"pieces":['
        yield from _pieces(obj.rows)
        yield b"]}\n"
        return
    offsets = b",".join(b"[%d,%d]" % (t.dx, t.dy) for t in obj.offsets)
    if isinstance(obj, Scene):
        yield head + b'"offsets":[%s]}\n' % offsets
        return
    yield head + b'"offsets":[%s],"pair_verdicts":[' % offsets
    for k, v in enumerate(obj.pair_verdicts):
        yield b'%s{"i":%d,"j":%d,"interiors_disjoint":%s,"contacts":[' % (
            b"," if k else b"", v.i, v.j, _JSON_BOOL[v.interiors_disjoint]
        )
        yield _contacts(v.contacts)
        yield b'],"segment_length_total":%d}' % v.segment_length_total
    yield b'],"touching_count":%d,"ok":%s}\n' % (obj.touching_count, _JSON_BOOL[obj.ok])


def serialize(obj: Document) -> bytes:
    return b"".join(_chunks(obj))


def _writes(obj: Document, data: bytes) -> bool:
    """serialize(obj) == data, compared chunk by chunk against data in place:
    startswith at an offset runs one memcmp and copies nothing."""
    end = 0
    for chunk in _chunks(obj):
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


def _list(value: Any, what: str) -> list[Any]:
    if not isinstance(value, list):
        raise MalformedDocument(f"{what} must be a list, got {type(value).__name__}")
    return value


def _int(value: Any, what: str) -> int:
    if type(value) is not int:
        raise DocumentInvariantError(f"{what} must be an integer, got {value!r}")
    return value


def _verdicts(n: int, raw: Any) -> tuple[PairVerdict, ...]:
    """The verdicts for the pairs of n + 1 translates, in order, from their
    decoded JSON; only interiors_disjoint and the contacts' ends are read.
    Each verdict is popped from raw once read, so its JSON is freed then."""
    if type(raw) is not list:
        raise TypeError(f"pair_verdicts must be a list, got {type(raw).__name__}")
    raw.reverse()
    verdicts = []
    for i, j in combinations(range(n + 1), 2):
        data = raw.pop()
        found = data["contacts"]
        # the numbers of every end, in order; a count or value serialize would not
        # write raises here or fails the byte comparison
        ends = np.fromiter(chain.from_iterable(chain.from_iterable(map(_JSON_ENDS, found))), np.int64)
        contacts = _contacts_from_ends(ends.reshape(len(found), 4))
        verdicts.append(PairVerdict(
            i, j, bool(data["interiors_disjoint"]), contacts, total_contact_length(contacts)
        ))
    if raw:
        raise ValueError(f"{len(raw)} more pair verdicts than the {len(verdicts)} pairs")
    return tuple(verdicts)


def parse(data: bytes) -> Document:
    """The shape, scene or certificate whose serialize() bytes are exactly data.

    Raises MalformedDocument, or a subclass of it, for any other input.
    """
    try:
        with _gc_paused():  # decoded JSON holds no cycles
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
            # popped, so the decoded JSON is freed as the verdicts are made
            with _gc_paused():
                verdicts = _verdicts(n, doc.pop("pair_verdicts"))
            built = Certificate(m, n, built.offsets, verdicts, *_verdict_totals(n, verdicts))
        exact = _writes(built, data)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise DocumentInvariantError(f"{kind} does not decode: {type(exc).__name__}: {exc}") from exc
    if not exact:
        raise DocumentInvariantError(f"{kind} is not what serialize writes for m={m}, n={n}")
    return built
