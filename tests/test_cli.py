import json
import time
import tracemalloc
from dataclasses import replace

import pytest

from translate_kiss import (
    ConstructionBroken,
    ContactComponent,
    ContractViolation,
    Lemma2Case,
    ParameterError,
    PrefixTable,
    Rect,
    SubCopyRef,
    build_disk,
    check_lemma1_exhaustive,
    check_lemma2_exhaustive,
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
from translate_kiss import cli
from translate_kiss.cli import main
from translate_kiss.rect import POINT, hseg


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


def test_lemma1_pass(capsys):
    assert main(["lemma1", "--k-max", "64", "--r-max", "512"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("k_max", ["0", "-5"])
def test_lemma1_without_windows_exits_2(capsys, k_max):
    assert main(["lemma1", "--k-max", k_max, "--r-max", "512"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_lemma2_pass(capsys):
    assert main(["lemma2", "-m", "2", "-n", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_parameter_error_exit_code(capsys):
    assert main(["verify", "-m", "2", "-n", "5"]) == 2
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


BIG = 10**5000  # more digits than int-to-str conversion allows
TABLE = PrefixTable.build(16)


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_disk(-BIG, 2),
        lambda: build_disk(3, BIG),
        lambda: place_translates(3, -BIG),
        lambda: PrefixTable.build(BIG),
        lambda: ruler(-BIG),
        lambda: prefix_sum(-BIG, TABLE),
        lambda: check_lemma1_exhaustive(-BIG, 4, TABLE),
        lambda: check_lemma2_exhaustive(-BIG, 3),
        lambda: Lemma2Case(2, 2, BIG, 1, 1),
        lambda: sub_copy_offset(4, 3, SubCopyRef(BIG, 1)),
        lambda: theorem_pair_witness(4, 3, BIG, BIG + 1),
        lambda: verify_touching_heights(4, 3, BIG),
        lambda: render_svg(build_disk(2, 2), unit_px=-BIG),
        lambda: Rect(BIG, 0, 0, 1),
        lambda: ContactComponent(POINT, (BIG, 0), (0, 0), 0),
        lambda: hseg(0, BIG, 0),
    ],
    ids=[
        "build_disk-m",
        "build_disk-n",
        "place_translates",
        "PrefixTable.build",
        "ruler",
        "prefix_sum",
        "check_lemma1_exhaustive",
        "check_lemma2_exhaustive",
        "Lemma2Case",
        "sub_copy_offset",
        "theorem_pair_witness",
        "verify_touching_heights",
        "render_svg",
        "Rect",
        "point",
        "horizontal-segment",
    ],
)
def test_huge_ints_raise_parameter_error(call):
    # formatting such an int into the message must not turn the error into
    # the plain ValueError of int-to-str, which `except ParameterError` misses
    with pytest.raises(ParameterError, match="-bit int>"):
        call()


@pytest.mark.parametrize(
    "argv, patched, result, line",
    [
        (
            ["lemma1", "--k-max", "4", "--r-max", "8"],
            "check_lemma1_exhaustive",
            (3, 5),
            "FAIL: window k=3, r=5 beats the prefix",
        ),
        (
            ["lemma2", "-m", "3", "-n", "3"],
            "check_lemma2_exhaustive",
            Lemma2Case(m=3, n=3, r=2, xstar=1, ystar=4),
            "FAIL: overlap at r=2, xstar=1, ystar=4 (m=3, n=3)",
        ),
        (
            ["verify", "-m", "3", "-n", "3"],
            "verify_construction",
            replace(verify_construction(3, 3), ok=False),
            "FAIL m=3 n=3: 6 pairs checked, 3/3 translates touch A0",
        ),
    ],
    ids=["lemma1", "lemma2", "verify"],
)
def test_fail_prints_its_line_and_exits_1(monkeypatch, capsys, argv, patched, result, line):
    monkeypatch.setattr(cli, patched, lambda *args: result)
    assert main(argv) == 1
    assert capsys.readouterr().out == line + "\n"


HUGE = str(9 * 10**4299)  # 4300 digits, the most int() parses by default


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "-m", "2", "-n", "21"],
        ["verify", "-m", "21", "-n", "21"],
        ["render", "-m", "21", "-n", "21", "--scene"],
        ["lemma2", "-m", str(2**22 + 1), "-n", "2"],
        ["lemma2", "-m", str(10**12), "-n", "20"],
        ["lemma1", "--k-max", "1", "--r-max", "10000000000"],
        ["build", "-m", HUGE, "-n", "1"],
        ["render", "-m", HUGE, "-n", "2"],
        ["render", "-m", "2", "-n", "2", "--unit-px", HUGE],
    ],
    ids=[
        "build-n21",
        "verify-n21",
        "render-n21",
        "lemma2-wide",
        "lemma2-huge-m",
        "lemma1-huge-r",
        "build-huge-m",
        "render-huge-m",
        "render-huge-unit-px",
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
