import argparse
import hashlib
import importlib
import json
import sys
import time
import tracemalloc

import numpy as np
import pytest

from translate_kiss import (
    ConstructionBroken,
    ContactComponent,
    ContractViolation,
    Lemma2Case,
    PairVerdict,
    ParameterError,
    PrefixTable,
    Rect,
    SubCopyRef,
    build_disk,
    check_lemma1_exhaustive,
    check_lemma2_exhaustive,
    iter_lemma2_cases,
    parse,
    place_translates,
    prefix_sum,
    render_svg,
    ruler,
    serialize,
    sub_copy_offset,
    theorem_pair_witness,
    verify_construction,
    verify_touching_heights,
)
from translate_kiss import cli, disk
from translate_kiss.cli import main

ruler_module = importlib.import_module("translate_kiss.ruler")  # the package's `ruler` is the function


def test_build_writes_shape(tmp_path, capsys):
    out = tmp_path / "shape.json"
    assert main(["build", "-m", "4", "-n", "3", "--out", str(out)]) == 0
    shape = parse(out.read_bytes())
    assert (shape.m, shape.n) == (4, 3)
    assert len(shape.pieces) == 15


def test_build_to_stdout(capsys):
    assert main(["build", "-m", "2", "-n", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "shape"


def test_build_zero_disk_to_stdout(capsysbinary):
    # the (m, 0) disk is one bar, and its document parses back
    assert main(["build", "-m", "4", "-n", "0"]) == 0
    assert parse(capsysbinary.readouterr().out) == build_disk(4, 0)


def test_build_negative_n_exits_2(capsys):
    assert main(["build", "-m", "4", "-n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_render_zero_disk(tmp_path):
    out = tmp_path / "fig.svg"
    assert main(["render", "-m", "4", "-n", "0", "--shape", "--out", str(out)]) == 0
    assert out.read_bytes() == render_svg(build_disk(4, 0))


def test_verify_pass(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["verify", "-m", "4", "-n", "3", "--json", str(cert_path)]) == 0
    assert "PASS" in capsys.readouterr().out
    cert = parse(cert_path.read_bytes())
    assert cert.ok


def test_verify_certificate_to_stdout(capsysbinary):
    # no PASS line after the certificate, so the piped bytes parse
    assert main(["verify", "-m", "3", "-n", "2", "--json", "-"]) == 0
    assert capsysbinary.readouterr().out == serialize(verify_construction(3, 2))


def summary_line(cert):
    """The line verify prints for this certificate."""
    return (
        f"{'PASS' if cert.ok else 'FAIL'} m={cert.m} n={cert.n}: {len(cert.pair_verdicts)} pairs checked, "
        f"{cert.touching_count}/{cert.n} translates touch A0\n"
    )


@pytest.mark.parametrize("n", range(2, 11))
def test_streamed_certificate_is_serialize_bytes(tmp_path, capsysbinary, n):
    # verify --json writes each pair as it is made; the CLI's stream,
    # verify_construction and parse all build their verdicts in
    # verify._verdicts, and must agree byte for byte on PASS (m >= n - 1)
    # and FAIL (m = n - 2) alike
    for m in range(max(2, n - 2), n + 3):
        cert = verify_construction(m, n)
        code = 0 if cert.ok else 1
        path = tmp_path / "cert.json"
        assert main(["verify", "-m", str(m), "-n", str(n), "--json", str(path)]) == code
        assert path.read_bytes() == serialize(cert)
        assert capsysbinary.readouterr().out == summary_line(cert).encode()
        assert main(["verify", "-m", str(m), "-n", str(n), "--json", "-"]) == code
        data = capsysbinary.readouterr().out
        assert data == serialize(cert) and parse(data) == cert
        assert main(["verify", "-m", str(m), "-n", str(n)]) == code
        assert capsysbinary.readouterr().out == summary_line(cert).encode()


def test_streamed_certificate_holds_less_than_its_file(tmp_path):
    # only the pair being written holds its contacts, so the peak stays below the document
    path = tmp_path / "cert.json"
    tracemalloc.start()
    try:
        assert main(["--quiet", "verify", "-m", "12", "-n", "12", "--json", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


@pytest.mark.parametrize("to_file", [False, True], ids=["line", "json"])
@pytest.mark.parametrize("m, n", [(6, 6), (6, 8)], ids=["pass", "fail"])
def test_streamed_verdicts_hold_no_contacts(tmp_path, monkeypatch, capsys, m, n, to_file):
    # the verdicts the CLI keeps for its totals hold no pair's contacts, only
    # the fields the totals read, so the stream holds one pair's rows at a
    # time; the line alone comes from verify._line_verdicts and keeps none
    recorded = []
    verdicts = cli._verdicts

    def recording(*args, **kwargs):
        for v, ends in verdicts(*args, **kwargs):
            recorded.append(v)
            yield v, ends

    monkeypatch.setattr(cli, "_verdicts", recording)
    cert = verify_construction(m, n)
    path = tmp_path / "cert.json"
    argv = ["verify", "-m", str(m), "-n", str(n)] + (["--json", str(path)] if to_file else [])
    assert main(argv) == (0 if cert.ok else 1)
    assert capsys.readouterr().out == summary_line(cert)
    if not to_file:
        assert recorded == []
        return
    assert all(type(v.__dict__["contacts"]) is tuple and v.contacts == () for v in recorded)
    fields = [(v.i, v.j, v.interiors_disjoint, v.segment_length_total) for v in recorded]
    assert fields == [(v.i, v.j, v.interiors_disjoint, v.segment_length_total) for v in cert.pair_verdicts]
    assert any(v.contacts for v in cert.pair_verdicts)
    assert path.read_bytes() == serialize(cert)


def test_verify_quiet(capsys):
    assert main(["--quiet", "verify", "-m", "4", "-n", "3"]) == 0
    assert capsys.readouterr().out == ""


def test_render_scene(tmp_path):
    out = tmp_path / "fig.svg"
    assert main(["render", "-m", "4", "-n", "3", "--scene", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.startswith(b"<?xml")
    assert data.count(b"<g ") == 4


def test_render_shape(tmp_path):
    out = tmp_path / "fig.svg"
    assert main(["render", "-m", "2", "-n", "1", "--shape", "--out", str(out)]) == 0
    assert out.read_bytes().count(b"<rect") == 3


@pytest.mark.parametrize("argv", [["-m", "20", "-n", "20"], ["-m", "2", "-n", "2", "--unit-px", "0"]])
def test_refused_render_creates_no_file(tmp_path, capsys, argv):
    # render's checks run when its first chunk is made, before the file is opened
    out = tmp_path / "fig.svg"
    assert main(["render", *argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_lemma1_pass(capsys):
    assert main(["lemma1", "--k-max", "64", "--r-max", "512"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("k_max", ["0", "-5"])
def test_lemma1_without_windows_exits_2(capsys, k_max):
    assert main(["lemma1", "--k-max", k_max, "--r-max", "512"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_lemma1_with_too_many_windows_exits_2(capsys):
    assert main(["lemma1", "--k-max", "65536", "--r-max", "65536"]) == 2
    assert "window sums" in capsys.readouterr().err


def test_lemma1_names_its_own_bound(capsys):
    # the CLI builds no table, so an r_max above the largest table names r_max
    assert main(["lemma1", "--k-max", "1", "--r-max", str(2**22 + 1)]) == 2
    assert capsys.readouterr() == ("", f"error: r_max must be an int in 1..{2**22}, got {2**22 + 1}\n")


def test_lemma2_names_its_own_bound(capsys):
    # refused by Lemma 1's window bound, lemma2 names n, not lemma1's flags
    assert main(["lemma2", "-m", "16", "-n", "16"]) == 2
    assert capsys.readouterr() == ("", "error: lemma 2 at n = 16 takes 4294836225 window sums, more than 1073741824\n")


@pytest.mark.parametrize("dip", [None, 6, 100])
@pytest.mark.parametrize("k_max, r_max", [(1, 1), (4, 8), (64, 512), (300, 300), (512, 4096), (1024, 65536)])
def test_lemma1_line_is_the_library_verdict_on_a_built_table(monkeypatch, capsys, k_max, r_max, dip):
    # the CLI scans the ruler's sums without a PrefixTable; with term dip
    # lowered by one in both, it must still print what the library finds
    if dip is not None:
        sums_of = ruler_module._ruler_sums

        def dipped(k):
            sums = sums_of(k)
            sums[dip:] -= 1
            return sums

        monkeypatch.setattr(ruler_module, "_ruler_sums", dipped)
    found = check_lemma1_exhaustive(k_max, r_max, PrefixTable.build(r_max))
    assert main(["lemma1", "--k-max", str(k_max), "--r-max", str(r_max)]) == (found is not None)
    if found is None:
        line = f"PASS: all windows with k <= {k_max} and r + k - 1 <= {r_max} have sum >= prefix sum"
    else:
        line = f"FAIL: window k={found[0]}, r={found[1]} beats the prefix"
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize(
    "error, message",
    [(MemoryError("Unable to allocate 32.0 MiB"), "Unable to allocate 32.0 MiB"), (MemoryError(), "out of memory")],
)
def test_allocation_failure_exits_2_with_one_line(monkeypatch, capsys, error, message):
    # an array the machine cannot hold is a refused input, not a FAIL verdict
    def exhausted(k_max, r_max):
        raise error

    monkeypatch.setattr(cli, "_check_ruler_windows", exhausted)
    assert main(["lemma1", "--k-max", "256", "--r-max", "4194304"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_lemma2_pass(capsys):
    assert main(["lemma2", "-m", "2", "-n", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_parameter_error_exit_code(capsys):
    assert main(["verify", "-m", "1", "-n", "5"]) == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_io_error_exit_code(tmp_path, capsys):
    missing_dir = tmp_path / "nope" / "shape.json"
    assert main(["build", "-m", "2", "-n", "1", "--out", str(missing_dir)]) == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code", [(ConstructionBroken("no witness"), 1), (ContractViolation("overlap"), 2)]
)
def test_library_errors_map_to_exit_codes(monkeypatch, capsys, error, code):
    def broken(m, n):
        raise error

    monkeypatch.setattr(cli, "check_lemma2_exhaustive", broken)
    assert main(["lemma2", "-m", "3", "-n", "3"]) == code
    assert capsys.readouterr().err.startswith("error: ")


def test_lemma2_on_an_empty_column_exits_2_with_one_line(monkeypatch, capsys):
    # bar 2 of the (3, 3) disk, [3, 1, 6, 2], with column 4 cut out of it
    rows = np.insert(build_disk(3, 3).rows, 3, [5, 1, 6, 2], axis=0)
    rows[2, 2] = 4
    monkeypatch.setattr(disk.Shape, "rows", property(lambda shape: rows))
    assert main(["lemma2", "-m", "3", "-n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the disk is not the staircase of the bar heights S(i) that the case offsets use\n"


BIG = 10**5000  # more digits than int-to-str conversion allows
TABLE = PrefixTable.build(16)


# each entry point as a call of its one int argument v under test, with a
# huge int for v and a float that is in range for v once made an int
ENTRY_POINTS = {
    "build_disk-m": (lambda v: build_disk(v, 2), -BIG, 3.0),
    "build_disk-n": (lambda v: build_disk(3, v), BIG, 2.0),
    "place_translates": (lambda v: place_translates(3, v), -BIG, 3.0),
    "PrefixTable.build": (lambda v: PrefixTable.build(v), BIG, 4.0),
    "ruler": (lambda v: ruler(v), -BIG, 2.0),
    "prefix_sum": (lambda v: prefix_sum(v, TABLE), -BIG, 2.0),
    "check_lemma1_exhaustive": (lambda v: check_lemma1_exhaustive(v, 4, TABLE), -BIG, 2.0),
    "check_lemma2_exhaustive": (lambda v: check_lemma2_exhaustive(v, 3), -BIG, 3.0),
    "iter_lemma2_cases": (lambda v: next(iter_lemma2_cases(3, v)), -BIG, 2.0),
    "Lemma2Case": (lambda v: Lemma2Case(2, 2, v, 1, 1), BIG, 2.0),
    "sub_copy_offset": (lambda v: sub_copy_offset(4, 3, SubCopyRef(v, 1)), BIG, 1.0),
    "theorem_pair_witness": (lambda v: theorem_pair_witness(4, 3, v, 3), BIG, 1.0),
    "verify_touching_heights": (lambda v: verify_touching_heights(4, 3, v), BIG, 2.0),
    "render_svg": (lambda v: render_svg(build_disk(2, 2), unit_px=v), -BIG, 2.0),
    "Rect": (lambda v: Rect(v, 0, 3, 1), BIG, 2.0),
    "point": (lambda v: ContactComponent((v, 0), (0, 1)), BIG, 0.0),
    "horizontal-segment": (lambda v: ContactComponent((v, 0), (0, 0)), BIG, 0.0),
}


@pytest.mark.parametrize(
    "call, value, match",
    [
        param
        for name, (call, huge, fine) in ENTRY_POINTS.items()
        for param in (
            pytest.param(call, huge, "-bit int>", id=name),
            pytest.param(call, fine, "must be an int", id=f"{name}-float"),
            pytest.param(call, True, "must be an int", id=f"{name}-bool"),
        )
    ],
)
def test_huge_ints_raise_parameter_error(call, value, match):
    # formatting a huge int into the message must not turn the error into
    # the plain ValueError of int-to-str, which `except ParameterError` misses;
    # a float or a bool is refused as not an int, even where its value is in range
    with pytest.raises(ParameterError, match=match):
        call(value)


# m = n - 2 is a genuine FAIL: A_0 and A_{n-1} overlap, so n - 1 of n translates touch A_0
FAIL_3_5 = "FAIL m=3 n=5: 15 pairs checked, 4/5 translates touch A0"


@pytest.mark.parametrize(
    "argv, patched, result, line",
    [
        (
            ["lemma1", "--k-max", "4", "--r-max", "8"],
            "_check_ruler_windows",
            (3, 5),
            "FAIL: window k=3, r=5 beats the prefix",
        ),
        (
            ["lemma2", "-m", "3", "-n", "3"],
            "check_lemma2_exhaustive",
            Lemma2Case(m=3, n=3, r=2, xstar=1, ystar=4),
            "FAIL: overlap at r=2, xstar=1, ystar=4 (m=3, n=3)",
        ),
        (["verify", "-m", "3", "-n", "5"], None, None, FAIL_3_5),
    ],
    ids=["lemma1", "lemma2", "verify"],
)
def test_fail_prints_its_line_and_exits_1(monkeypatch, capsys, argv, patched, result, line):
    if patched is not None:
        monkeypatch.setattr(cli, patched, lambda *args: result)
    assert main(argv) == 1
    assert capsys.readouterr().out == line + "\n"


def test_fail_certificate_is_written_with_ok_false(capsys, tmp_path):
    path = tmp_path / "cert.json"
    assert main(["verify", "-m", "3", "-n", "5", "--json", str(path)]) == 1
    assert capsys.readouterr().out == FAIL_3_5 + "\n"
    data = path.read_bytes()
    assert data.endswith(b'"ok":false}\n')
    cert = parse(data)
    assert not cert.ok and [(v.i, v.j) for v in cert.pair_verdicts if not v.interiors_disjoint] == [(0, 4)]


@pytest.mark.parametrize("to_stdout", [[], ["--json", "-"]], ids=["line", "json"])
@pytest.mark.parametrize("m, n", [(8, 10), (3, 5), (9, 10)])
def test_a_fail_names_its_first_overlap_on_stderr(capsysbinary, to_stdout, m, n):
    # stdout keeps its line or certificate; stderr gets one line, naming the
    # overlapping pair (0, j), its level L = n + 1 - j and the shift (j - 1,
    # L + 1) between the facing sub-copies, and a PASS prints nothing there
    cert = verify_construction(m, n)
    assert main(["verify", "-m", str(m), "-n", str(n), *to_stdout]) == (0 if cert.ok else 1)
    out, err = capsysbinary.readouterr()
    assert out == (serialize(cert) if to_stdout else summary_line(cert).encode())
    want = {
        (8, 10): "first overlap: pair (0, 9) at level 2, A9's first sub-copy being A0's last moved by (8, 3)\n",
        (3, 5): "first overlap: pair (0, 4) at level 2, A4's first sub-copy being A0's last moved by (3, 3)\n",
        (9, 10): "",
    }
    assert err.decode() == want[m, n]


def test_a_fail_between_later_translates_names_only_the_pair(monkeypatch, capsys):
    # the facing sub-copies are A_0's, so a pair (i, j) with i >= 1 gets no level or shift
    verdicts = [PairVerdict(0, j, True, (), 1) for j in range(1, 6)] + [PairVerdict(1, 3, False, (), 0)]
    monkeypatch.setattr(cli, "_line_verdicts", lambda scene: verdicts)
    assert main(["verify", "-m", "5", "-n", "5"]) == 1
    assert capsys.readouterr().err == "first overlap: pair (1, 3)\n"


HUGE = str(9 * 10**4299)  # 4300 digits, the most int() parses by default


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "-m", "2", "-n", "21"],
        ["verify", "-m", "21", "-n", "21"],
        ["render", "-m", "21", "-n", "21", "--scene"],
        ["lemma2", "-m", str(2**22 + 1), "-n", "2"],
        ["lemma2", "-m", str(10**12), "-n", "20"],
        ["lemma2", "-m", "16", "-n", "16"],
        ["lemma1", "--k-max", "1", "--r-max", "10000000000"],
        ["lemma1", "--k-max", "1", "--r-max", str(2**22 + 1)],
        ["lemma1", "--k-max", "4194304", "--r-max", "4194304"],
        ["build", "-m", HUGE, "-n", "1"],
        ["render", "-m", HUGE, "-n", "2"],
        ["render", "-m", "2", "-n", "2", "--unit-px", HUGE],
        ["render", "--shape", "-m", "2", "-n", "20", "--unit-px", str(2**58)],
        ["render", "-m", "20", "-n", "20"],
    ],
    ids=[
        "build-n21",
        "verify-n21",
        "render-n21",
        "lemma2-wide",
        "lemma2-huge-m",
        "lemma2-slow",
        "lemma1-huge-r",
        "lemma1-big-table",
        "lemma1-many-windows",
        "build-huge-m",
        "render-huge-m",
        "render-huge-unit-px",
        "render-n20-shape-wide",
        "render-n20-too-many-rects",
    ],
)
def test_oversized_input_exits_2_without_allocating(capsys, argv):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _main_as_fresh(argv):
    """main(argv), after checking that main's shared parser reads argv as a fresh parser does."""
    assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    return main(argv)


def test_shared_parser_keeps_no_quiet(capsys):
    assert main(["--quiet", "verify", "-m", "4", "-n", "3"]) == 0
    assert capsys.readouterr().out == ""
    assert _main_as_fresh(["verify", "-m", "4", "-n", "3"]) == 0
    assert capsys.readouterr().out == "PASS m=4 n=3: 6 pairs checked, 3/3 translates touch A0\n"


def test_shared_parser_keeps_no_shape(tmp_path):
    shape, scene = tmp_path / "F.svg", tmp_path / "G.svg"
    assert main(["render", "-m", "2", "-n", "2", "--shape", "--out", str(shape)]) == 0
    assert _main_as_fresh(["render", "-m", "2", "-n", "2", "--out", str(scene)]) == 0
    assert shape.read_bytes() == render_svg(build_disk(2, 2))
    assert scene.read_bytes() == render_svg(place_translates(2, 2))
    assert scene.read_bytes().count(b"<g ") == 3


def test_shared_parser_keeps_no_json_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "-m", "4", "-n", "3", "--json", "cert.json"]) == 0
    written = (tmp_path / "cert.json").read_bytes()
    capsys.readouterr()
    assert _main_as_fresh(["verify", "-m", "4", "-n", "3"]) == 0
    assert capsys.readouterr().out == "PASS m=4 n=3: 6 pairs checked, 3/3 translates touch A0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cert.json"]
    assert (tmp_path / "cert.json").read_bytes() == written


def test_shared_parser_recovers_from_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lemma2", "-m", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert _main_as_fresh(["lemma2", "-m", "3", "-n", "3"]) == 0
    assert capsys.readouterr() == ("PASS: all cases for m=3, n=3 are disjoint\n", "")


# sha256 of each parser's format_help() at 80 columns, as argparse formats them on
# Python 3.10 and 3.11
HELP_SHA256 = {
    None: "462c8d57392403724d0ff923b123debc5f07b1ca5e84c58bfe732cd8a2f1b1eb",
    "build": "3adbc1254563aab300269205b1384de37abc5245665f7344ffc2d917bc4fe06e",
    "verify": "b0096c46d2ae5fc8e116b95ba8b5878b731e591a325704368cf01f4f5301206a",
    "render": "dca496f6cb88c813793e91d73fed001f93f9ffe70bdbc0ab633d8812d3c25cda",
    "lemma1": "2c930400d06cf7658a7ad1c9c2f550183e9216e12a2488b572f7c0f225a48e9c",
    "lemma2": "5b6650e19b21bab2754d168abe433187e0da6a5f47c92269a54a11f6c2a85c68",
}


def _helps(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {None: parser.format_help(), **{name: p.format_help() for name, p in sub.choices.items()}}


def test_shared_parser_help_is_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--quiet", "lemma2", "-m", "2", "-n", "2"]) == 0
    for argv in (["lemma2", "-m", "2"], ["lemma1", "--k-max", "2"]):
        with pytest.raises(SystemExit):
            main(argv)
    shared = _helps(cli._parser())
    assert shared == _helps(cli.build_parser())
    if sys.version_info[:2] in ((3, 10), (3, 11)):
        assert {k: hashlib.sha256(v.encode()).hexdigest() for k, v in shared.items()} == HELP_SHA256


def test_main_builds_no_parser_after_its_first_call(monkeypatch, tmp_path, capsys):
    calls = [
        ["--quiet", "build", "-m", "2", "-n", "1", "--out", str(tmp_path / "shape.json")],
        ["verify", "-m", "2", "-n", "2"],
        ["render", "-m", "2", "-n", "2", "--out", str(tmp_path / "fig.svg")],
        ["lemma1", "--k-max", "2", "--r-max", "4"],
        ["lemma2", "-m", "2", "-n", "2"],
    ]
    assert main(calls[-1]) == 0  # builds main's parser if no earlier call did
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert [main(argv) for _ in range(20) for argv in calls] == [0] * 100
    assert len(built) == 0
    assert cli.build_parser() is not cli.build_parser()
    assert len(built) == 14  # seven per fresh parser: the main one, -m/-n and five subcommands
    cli.build_parser().add_argument("--extra", required=True)
    capsys.readouterr()
    assert main(calls[-1]) == 0
    assert capsys.readouterr().out == "PASS: all cases for m=2, n=2 are disjoint\n"
