import copy
import gc
import json
import time
import xml.dom.minidom
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from translate_kiss import (
    DocumentInvariantError,
    MalformedDocument,
    ParameterError,
    SchemaVersionMismatch,
    Shape,
    build_disk,
    parse,
    place_translates,
    render_svg,
    serialize,
    verify_construction,
)
from translate_kiss import serial

from oracles import svg_by_rect


class TestSerialization:
    def test_shape_round_trip(self):
        shape = build_disk(4, 3)
        data = serialize(shape)
        assert parse(data) == shape
        assert serialize(parse(data)) == data

    def test_scene_round_trip(self):
        scene = place_translates(5, 4)
        assert parse(serialize(scene)) == scene

    def test_certificate_round_trip(self):
        cert = verify_construction(4, 3)
        data = serialize(cert)
        assert parse(data) == cert
        assert serialize(parse(data)) == data

    @pytest.mark.parametrize("n", range(4, 10))
    def test_failed_certificate_round_trip(self, n):
        # m = n - 2 is a genuine FAIL, with pair (0, n - 1) overlapping
        cert = verify_construction(n - 2, n)
        data = serialize(cert)
        assert not cert.ok and data.endswith(b'"ok":false}\n')
        assert parse(data) == cert
        assert serialize(parse(data)) == data

    def test_small_shape_document(self):
        doc = json.loads(serialize(build_disk(2, 1)))
        assert doc["schema_version"] == "tk-1"
        assert doc["kind"] == "shape"
        assert len(doc["pieces"]) == 3
        assert doc["pieces"][0] == {"role": "bar", "index": 1, "rect": [0, 0, 2, 1]}

    def test_all_numbers_integers(self):
        doc = json.loads(serialize(verify_construction(4, 3)))
        text = serialize(verify_construction(4, 3)).decode()
        assert "." not in text.replace("tk-1", "")
        assert all(isinstance(v, int) for v in doc["offsets"][0])

    def test_malformed_json(self):
        with pytest.raises(MalformedDocument):
            parse(b"{not json")

    def test_missing_field(self):
        with pytest.raises(MalformedDocument):
            parse(b'{"schema_version":"tk-1","kind":"shape","m":2}')

    def test_schema_version_mismatch(self):
        with pytest.raises(SchemaVersionMismatch):
            parse(b'{"schema_version":"tk-2","kind":"shape","m":2,"n":1,"pieces":[]}')

    def test_degenerate_rect_rejected(self):
        doc = json.loads(serialize(build_disk(2, 1)))
        doc["pieces"][0]["rect"] = [0, 0, 0, 1]
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    def test_wrong_piece_count_rejected(self):
        doc = json.loads(serialize(build_disk(2, 1)))
        doc["pieces"] = doc["pieces"][:2]
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    def test_float_coordinate_rejected(self):
        doc = json.loads(serialize(build_disk(2, 1)))
        doc["pieces"][0]["rect"] = [0, 0, 2.0, 1]
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    def test_canonical_bytes(self):
        a = serialize(verify_construction(4, 3))
        b = serialize(verify_construction(4, 3))
        assert a == b


def probe(**fields):
    return json.dumps({"schema_version": "tk-1", **fields}).encode()


def canonical(doc):
    """The bytes serialize writes for a document with these fields."""
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def shape_doc(m=3, n=2):
    return json.loads(serialize(build_disk(m, n)))


def document_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from document_paths(child, path + (key,))


# the same document in bytes that serialize does not write
OTHER_BYTES = {
    "pretty": lambda data: json.dumps(json.loads(data), indent=1).encode(),
    "no-newline": lambda data: data[:-1],
    "trailing-space": lambda data: data + b" ",
    "reordered": lambda data: canonical(dict(reversed(json.loads(data).items()))),
}
SMALL_DOCUMENTS = [
    json.loads(serialize(obj))
    for obj in (build_disk(2, 1), place_translates(2, 2), verify_construction(2, 2))
]
JSON_SCALARS = st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
JSON_VALUES = st.recursive(
    JSON_SCALARS | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)


class TestStrictParse:
    def test_shape_with_negative_n(self):
        with pytest.raises(DocumentInvariantError):
            parse(probe(kind="shape", m=5, n=-1, pieces=[]))

    def test_shape_with_narrow_bars(self):
        doc = json.loads(serialize(build_disk(2, 1)))
        doc["m"] = 1
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    def test_scene_with_negative_n(self):
        with pytest.raises(DocumentInvariantError):
            parse(probe(kind="scene", m=5, n=-1, offsets=[]))

    def test_scene_with_m_below_n(self):
        # a scene may have m < n, but its offsets must still be the recursion's
        assert parse(serialize(place_translates(2, 3))) == place_translates(2, 3)
        with pytest.raises(DocumentInvariantError):
            parse(probe(kind="scene", m=2, n=3, offsets=[[0, 0]] * 4))
        with pytest.raises(DocumentInvariantError):
            parse(probe(kind="scene", m=1, n=3, offsets=[[0, 0]] * 4))

    def test_certificate_with_n_below_2(self):
        doc = json.loads(serialize(verify_construction(2, 2)))
        doc["n"], doc["offsets"] = 1, doc["offsets"][:2]
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    def test_n_above_cap(self):
        with pytest.raises(DocumentInvariantError):
            parse(probe(kind="scene", m=21, n=21, offsets=[[0, 0]] * 22))

    def test_pieces_not_objects(self):
        with pytest.raises(MalformedDocument):
            parse(probe(kind="shape", m=2, n=1, pieces=[1, 2, 3]))

    def test_offsets_not_a_list(self):
        with pytest.raises(MalformedDocument):
            parse(probe(kind="scene", m=2, n=2, offsets=5))

    def test_huge_n_rejected_at_once(self):
        start = time.perf_counter()
        with pytest.raises(DocumentInvariantError):
            parse(probe(kind="shape", m=5, n=10**12, pieces=[]))
        with pytest.raises(DocumentInvariantError):
            parse(probe(kind="scene", m=10**12, n=10**12, offsets=[]))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    def test_ok_must_be_a_json_bool(self, value):
        doc = json.loads(serialize(verify_construction(2, 2)))
        doc["ok"] = value
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    @pytest.mark.parametrize("value", ["no", "true", 1, []])
    def test_interiors_disjoint_must_be_a_json_bool(self, value):
        doc = json.loads(serialize(verify_construction(2, 2)))
        doc["pair_verdicts"][0]["interiors_disjoint"] = value
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    def test_forged_verdicts_refused(self):
        # a flipped verdict with ok to match is consistent, but not the sweep's verdict
        doc = json.loads(serialize(verify_construction(2, 2)))
        doc["ok"] = False
        doc["pair_verdicts"][0]["interiors_disjoint"] = False
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    def test_moved_a0_contact_refused(self):
        # the one contact of pair (0, 1), moved a unit right with its length kept
        doc = json.loads(serialize(verify_construction(3, 2)))
        (contact,) = doc["pair_verdicts"][0]["contacts"]
        contact["a"][0] += 1
        contact["b"][0] += 1
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    def test_dropped_contact_refused(self):
        # a contact of pair (1, 2) left out, its length taken off the pair's total
        doc = json.loads(serialize(verify_construction(4, 3)))
        pair = doc["pair_verdicts"][3]
        assert (pair["i"], pair["j"]) == (1, 2)
        pair["segment_length_total"] -= pair["contacts"].pop()["length"]
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    def test_touching_count_must_match_verdicts(self):
        doc = json.loads(serialize(verify_construction(3, 2)))
        doc["touching_count"] = 7
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    @pytest.mark.parametrize("verdict", [0, 2])
    def test_ok_must_match_verdicts(self, verdict):
        # 0: a pass claimed with an overlapping pair; 2: a fail claimed for
        # verdicts that all pass (the (0, 2) entry still touches)
        doc = json.loads(serialize(verify_construction(3, 2)))
        if verdict == 0:
            doc["pair_verdicts"][0]["interiors_disjoint"] = False
        else:
            doc["ok"] = False
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    def test_segment_length_total_must_sum_contacts(self):
        doc = json.loads(serialize(verify_construction(3, 2)))
        doc["pair_verdicts"][0]["segment_length_total"] += 1
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    @pytest.mark.parametrize("edit", ["reorder", "drop", "duplicate"])
    def test_pairs_must_be_all_pairs_in_order(self, edit):
        doc = json.loads(serialize(verify_construction(3, 2)))
        pairs = doc["pair_verdicts"]
        if edit == "reorder":
            pairs[0], pairs[1] = pairs[1], pairs[0]
        elif edit == "drop":
            del pairs[2]
        else:
            pairs[2] = copy.deepcopy(pairs[1])
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    def test_one_dimensional_contact_point(self):
        # [x], [x, y, 0] and [x.0, y]: a point is exactly two integers
        for point in (lambda p: p[:1], lambda p: p + [0], lambda p: [float(p[0]), p[1]]):
            doc = json.loads(serialize(verify_construction(2, 2)))
            contact = next(c for v in doc["pair_verdicts"] for c in v["contacts"])
            contact["a"] = point(contact["a"])
            with pytest.raises(MalformedDocument):
                parse(canonical(doc))

    @pytest.mark.parametrize(
        "edit", ["three-and-one", "string-coordinate", "coordinate-2**70", "missing-b", "list"]
    )
    def test_malformed_contact_ends(self, edit):
        # decoded as an int64 array, but refused like any other bytes serialize does not write
        doc = json.loads(serialize(verify_construction(2, 2)))
        contacts = doc["pair_verdicts"][0]["contacts"]
        contact = contacts[0]
        if edit == "three-and-one":  # four numbers in all, as two ends would have
            contact["a"], contact["b"] = contact["a"] + contact["b"][:1], contact["b"][1:]
        elif edit == "string-coordinate":  # the same number, as a string numpy would convert
            contact["a"][0] = str(contact["a"][0])
        elif edit == "coordinate-2**70":
            contact["a"][0] = 2**70
        elif edit == "missing-b":
            del contact["b"]
        else:
            contacts[0] = list(contact.values())
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    @pytest.mark.parametrize(
        "length", [b"1.0", b"true", b"1e400", b"2"], ids=["float", "bool", "infinite", "off-by-one"]
    )
    def test_contact_length_must_be_an_int(self, length):
        # the first contact of (2, 2) is a segment of length 1, so true and 1.0
        # equal its derived length; only their bytes differ from serialize's
        doc = json.loads(serialize(verify_construction(2, 2)))
        contact = doc["pair_verdicts"][0]["contacts"][0]
        assert contact["length"] == 1
        contact["length"] = "LENGTH"
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc).replace(b'"LENGTH"', length))

    @pytest.mark.parametrize("kind", ["vertical-segment", "point"])
    def test_contact_kind_must_match_its_ends(self, kind):
        # parse decodes only a contact's ends; a kind they do not give is refused
        doc = json.loads(serialize(verify_construction(2, 2)))
        contact = doc["pair_verdicts"][0]["contacts"][0]
        assert contact["kind"] == "horizontal-segment"
        contact["kind"] = kind
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    @pytest.mark.parametrize(
        "data",
        [b"1" * 5000, b"[" * 100_000, b"\xff", b"[]", b'"tk-1"'],
        ids=["int-over-4300-digits", "nested-too-deep", "not-utf8", "list", "string"],
    )
    def test_bad_top_level_values(self, data):
        with pytest.raises(MalformedDocument):
            parse(data)

    def test_shape_piece_moved_by_one_unit(self):
        doc = shape_doc()
        rect = doc["pieces"][3]["rect"]
        rect[0], rect[2] = rect[0] + 1, rect[2] + 1
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    def test_shape_pieces_swapped(self):
        doc = shape_doc()
        pieces = doc["pieces"]
        pieces[0], pieces[2] = pieces[2], pieces[0]
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    def test_shape_duplicate_piece_index(self):
        doc = shape_doc()
        doc["pieces"][2]["index"] = doc["pieces"][0]["index"]
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    @pytest.mark.parametrize(
        "where",
        ["document", "piece", "certificate-document", "certificate-verdict", "certificate-contact"],
    )
    def test_shape_extra_key(self, where):
        if where.startswith("certificate"):
            doc = json.loads(serialize(verify_construction(3, 2)))
            verdict = doc["pair_verdicts"][0]
            target = {"document": doc, "verdict": verdict, "contact": verdict["contacts"][0]}
        else:
            doc = shape_doc()
            target = {"document": doc, "piece": doc["pieces"][1]}
        target[where.rpartition("-")[2]]["note"] = 0
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    @pytest.mark.parametrize(
        "obj, edit",
        [(o, e) for o in ("shape", "certificate") for e in OTHER_BYTES],
        ids=list(OTHER_BYTES) + [f"certificate-{e}" for e in OTHER_BYTES],
    )
    def test_valid_shape_in_other_bytes(self, obj, edit):
        data = serialize(build_disk(3, 2) if obj == "shape" else verify_construction(3, 2))
        doc = json.loads(data)
        data = OTHER_BYTES[edit](data)
        assert json.loads(data) == doc
        with pytest.raises(DocumentInvariantError):
            parse(data)

    def test_scene_offset_changed(self):
        doc = json.loads(serialize(place_translates(4, 3)))
        doc["offsets"][2][1] -= 1
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_certificate_round_trips_exactly(self, n):
        data = serialize(verify_construction(n, n))
        assert serialize(parse(data)) == data

    def test_certificate_offsets_changed(self):
        # the verdicts stay consistent with each other; only the offsets lie
        doc = json.loads(serialize(verify_construction(3, 2)))
        doc["offsets"][2][0] += 1
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    @pytest.mark.parametrize(
        "m, junk",
        [(16, 0), (16, {}), (10**3999, {"role": 0, "index": 0, "rect": 0})],
        ids=["zero", "empty-object", "key-shaped-huge-m"],
    )
    def test_junk_pieces_rejected_before_building(self, monkeypatch, m, junk):
        # the pieces made for a huge m would be far larger than these few MB of input
        def no_build(shape):
            raise AssertionError("a shape's pieces were made for junk pieces")

        monkeypatch.setattr(Shape, "pieces", property(no_build))
        monkeypatch.setattr(Shape, "rows", property(no_build))
        data = probe(kind="shape", m=m, n=16, pieces=[junk] * (2**17 - 1))
        start = time.perf_counter()
        with pytest.raises(DocumentInvariantError):
            parse(data)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("kind", ["shape", "scene", "certificate"])
    def test_coordinates_past_the_int_digit_limit(self, kind):
        # 2 * m has 4301 digits, one more than int-to-str allows by default
        m = 9 * 10**4299
        if kind == "shape":
            doc = shape_doc(2, 1)
        else:
            make = verify_construction if kind == "certificate" else place_translates
            doc = json.loads(serialize(make(3, 2)))
        doc["m"] = m
        with pytest.raises(DocumentInvariantError):
            parse(canonical(doc))

    @pytest.mark.parametrize("depth", range(985, 998))
    @pytest.mark.parametrize("field", ["pieces", "scene-offsets", "certificate-offsets"])
    def test_deep_nesting_inside_a_document(self, field, depth):
        if field == "pieces":
            doc = shape_doc(2, 1)
        else:
            obj = place_translates(2, 2) if field == "scene-offsets" else verify_construction(2, 2)
            doc = json.loads(serialize(obj))
        key = "pieces" if field == "pieces" else "offsets"
        doc[key][0] = "DEEP"
        data = canonical(doc).replace(b'"DEEP"', b"[" * depth + b"]" * depth)
        with pytest.raises(MalformedDocument):
            parse(data)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_documents_raise_only_malformed(self, data):
        original = data.draw(st.sampled_from(SMALL_DOCUMENTS))
        doc = copy.deepcopy(original)
        path = data.draw(st.sampled_from(list(document_paths(doc))))
        value = data.draw(JSON_VALUES)
        if path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            doc = value
        encoded = canonical(doc)
        try:
            parse(encoded)
            accepted = True
        except MalformedDocument:
            accepted = False
        if original["kind"] != "certificate":
            # a shape or scene is accepted exactly when the mutation left its bytes unchanged
            assert accepted == (encoded == canonical(original))
        elif accepted:
            # a certificate is accepted only as the bytes serialize writes for it
            assert serialize(parse(encoded)) == encoded


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_keeps_the_collector_state(enabled):
    # parse pauses the cyclic collector while it rebuilds a certificate, and
    # restores it whether the document is accepted or refused
    was = gc.isenabled()
    data = serialize(verify_construction(3, 2))
    try:
        (gc.enable if enabled else gc.disable)()
        assert parse(data).ok
        assert gc.isenabled() == enabled
        # refused at the first pair's contacts, and at the trailer
        for edit in (data.replace(b'"a":', b'"z":', 1), data.replace(b'"ok":true', b'"ok":false')):
            with pytest.raises(DocumentInvariantError):
                parse(edit)
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def refused_as(cls, data):
    """parse refuses data with exactly this class of error."""
    with pytest.raises(MalformedDocument) as info:
        parse(data)
    assert type(info.value) is cls, info.value


class TestScanOnlyProposes:
    """parse reads only the header's (m, n) from the bytes, without decoding
    them as JSON, rebuilds the object from them, and accepts it only if
    serialize writes exactly those bytes."""

    @pytest.fixture
    def no_json(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json.loads ran on a document parse accepts")

        monkeypatch.setattr(serial, "json", SimpleNamespace(loads=refuse))

    @pytest.mark.parametrize("n", range(0, 7))
    def test_valid_documents_accepted_without_json(self, no_json, n):
        for m in (max(n, 2), max(n, 2) + 1, n + 3):
            objs = [build_disk(m, n)]
            if n >= 2:
                objs += [place_translates(m, n), verify_construction(m, n)]
            for obj in objs:
                assert parse(serialize(obj)) == obj, (type(obj).__name__, m, n)

    def test_numbers_serialize_would_not_write(self):
        data = serialize(verify_construction(4, 3))
        assert data.count(b'"length":0}') == 1  # the one point contact
        refused_as(MalformedDocument, data.replace(b'"a":[', b'"a":[00', 1))  # 007 is not JSON
        refused_as(DocumentInvariantError, data.replace(b'"length":0}', b'"length":-0}'))
        refused_as(DocumentInvariantError, data.replace(b'"a":[', b'"a":[12345678901234567890', 1))
        refused_as(DocumentInvariantError, data.replace(b'"a":[', b'"a":[9223372036854775807', 1))

    def test_extra_comma_between_contacts(self):
        data = serialize(verify_construction(4, 3))
        assert b"},{\"kind\"" in data
        refused_as(MalformedDocument, data.replace(b'},{"kind"', b'},,{"kind"', 1))

    @pytest.mark.parametrize("shift", [b'"contacts": [', b'"contacts" :[', b' "contacts":['])
    def test_shifted_contacts_delimiter(self, shift):
        data = serialize(verify_construction(4, 3))
        refused_as(DocumentInvariantError, data.replace(b'"contacts":[', shift, 1))

    def test_truncated_at_each_pair_boundary(self):
        cert = verify_construction(4, 3)
        data = serialize(cert)
        trailer = b'],"touching_count":3,"ok":true}\n'
        assert data.endswith(b"}" + trailer)
        cuts = [k + 1 for k in range(len(data)) if data.startswith(b'},{"i":', k)]
        cuts.append(len(data) - len(trailer))
        assert len(cuts) == len(cert.pair_verdicts)
        for cut in cuts:
            refused_as(MalformedDocument, data[:cut])
            if cut < len(data) - len(trailer):
                refused_as(DocumentInvariantError, data[:cut] + trailer)

    @pytest.mark.parametrize("kind", ["shape", "certificate"])
    def test_short_document_claiming_20_20(self, monkeypatch, kind):
        # each is refused by its length, before the disk's rows are made or
        # any pair is swept
        def no_build(shape):
            raise AssertionError("a shape's rows were made for a short document")

        monkeypatch.setattr(Shape, "rows", property(no_build))
        head = b'{"schema_version":"tk-1","kind":"%s","m":20,"n":20,' % kind.encode()
        if kind == "shape":
            body = b'"pieces":[' + b",".join([b'{"role":"bar","index":1,"rect":[0,0,20,1]}'] * 20) + b"]}\n"
        else:
            scene = serialize(place_translates(20, 20))
            offsets = scene[scene.index(b'"offsets"') :].rstrip(b"}\n")
            pair = b'{"i":0,"j":1,"interiors_disjoint":true,"contacts":[],"segment_length_total":0}'
            body = offsets + b',"pair_verdicts":[' + b",".join([pair] * 4) + b'],"touching_count":0,"ok":false}\n'
        data = head + body
        assert len(data) <= 1024
        json.loads(data)
        start = time.perf_counter()
        refused_as(DocumentInvariantError, data)
        assert time.perf_counter() - start < 2.0


def rendered_or_refused(obj, unit_px):
    """render_svg's bytes, or None where it refuses the picture's size."""
    try:
        return render_svg(obj, unit_px)
    except ParameterError:
        return None


class TestRenderSvg:
    @pytest.mark.parametrize("unit_px", [1, 7, 2**58 - 1])
    @pytest.mark.parametrize("m, n", [(2, 0), (6, 0), (2, 1), (3, 1)])
    def test_small_shapes_match_the_per_rect_oracle(self, m, n, unit_px):
        # n = 0 draws one bar, n = 1 a bar, a connector and a bar; every
        # shape here is at most 8 units wide, so even 2**58 - 1 px fits
        assert render_svg(build_disk(m, n), unit_px) == svg_by_rect(build_disk(m, n), unit_px)

    @pytest.mark.parametrize("unit_px", [1, 7, 2**58 - 1])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_scenes_and_shapes_match_the_per_rect_oracle(self, n, unit_px):
        # m = n - 2 is a scene whose verdict FAILs, drawn like any other
        for m in (max(2, n - 2), n, n + 3):
            for obj in (place_translates(m, n), build_disk(m, n)):
                want = svg_by_rect(obj, unit_px)
                got = rendered_or_refused(obj, unit_px)
                if got is None:  # refused exactly when the oracle's picture reaches 2**61 px
                    header = want.split(b"\n")[1].split(b'"')
                    assert max(int(header[3]), int(header[5])) >= 2**61, (m, n)
                else:
                    assert got == want, (m, n)

    def test_single_shape_rect_count(self):
        svg = render_svg(build_disk(2, 1))
        assert svg.count(b"<rect") == 3

    def test_scene_groups_and_rects(self):
        svg = render_svg(place_translates(4, 3))
        assert svg.count(b"<g ") == 4
        assert svg.count(b"<rect") == 4 * 15

    def test_deterministic(self):
        scene = place_translates(4, 3)
        assert render_svg(scene) == render_svg(scene)

    def test_well_formed_xml(self):
        for obj in (build_disk(3, 2), place_translates(4, 3)):
            xml.dom.minidom.parseString(render_svg(obj))

    def test_no_rounding(self):
        svg = render_svg(build_disk(2, 1), unit_px=7).decode()
        for line in svg.splitlines():
            if line.startswith("<rect"):
                for key in ("x", "y", "width", "height"):
                    value = line.split(f'{key}="')[1].split('"')[0]
                    assert value == str(int(value))

    def test_y_axis_flipped(self):
        # B1 sits at the bottom mathematically, so it renders lowest (max y)
        svg = render_svg(build_disk(2, 1), unit_px=10).decode()
        rects = [line for line in svg.splitlines() if line.startswith("<rect")]
        ys = [int(line.split('y="')[1].split('"')[0]) for line in rects]
        assert ys[0] == max(ys)

    def test_unit_px_scales_coordinates(self):
        svg1 = render_svg(build_disk(2, 1), unit_px=1).decode()
        svg10 = render_svg(build_disk(2, 1), unit_px=10).decode()

        def first_rect_attrs(svg):
            line = next(l for l in svg.splitlines() if l.startswith("<rect"))
            return [
                int(line.split(f'{key}="')[1].split('"')[0])
                for key in ("x", "y", "width", "height")
            ]

        assert [v * 10 for v in first_rect_attrs(svg1)] == first_rect_attrs(svg10)

    def test_unit_px_bound(self):
        # the (3, 1) disk with its one-unit margin is 8 units wide
        render_svg(build_disk(3, 1), unit_px=2**58 - 1)
        with pytest.raises(ParameterError):
            render_svg(build_disk(3, 1), unit_px=2**58)

    @pytest.mark.parametrize("unit_px", [2.5, 10.0, True])
    def test_unit_px_must_be_an_int(self, unit_px):
        # a float would write coordinates such as width="15.0", and True is no size
        with pytest.raises(ParameterError):
            render_svg(build_disk(2, 1), unit_px=unit_px)

    def test_a0_visually_distinct(self):
        svg = render_svg(place_translates(4, 3)).decode()
        groups = svg.split("<g ")[1:]
        a0_fill = groups[0].split('fill="')[1].split('"')[0]
        other_fills = {g.split('fill="')[1].split('"')[0] for g in groups[1:]}
        assert a0_fill not in other_fills
