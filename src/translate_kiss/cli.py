"""Command-line entry point.

Subcommands: build, verify, render, lemma1, lemma2.  Exit codes:

* 0 for success/PASS;
* 1 for a verification FAIL (verify at m < n - 1), or ConstructionBroken;
  a FAIL of verify, with or without --json, also prints one ``first
  overlap:`` line on stderr naming the first overlapping pair and, for a
  pair (0, j), its level L = n + 1 - j and the shift (j - 1, L + 1) from
  A_0's last level-L sub-copy to A_j's first;
* 2 for usage or parameter errors (ParameterError, including m < 2, n > 20,
  m * 2^(n+1) >= 2^61, an SVG 2^61 px wide or tall or of more than 2^23
  rects (an (m, n) scene draws (n + 1)(2^(n+1) - 1)), lemma2 at n >= 16,
  past lemma 1's bound of 2^30 window sums, or of more than 2^22 columns
  m * 2^n (so (15, 15) runs and n = 16 does not, at any m), and lemma1 with
  k_max < 1, r_max above 2^22 or min(k_max, r_max) * r_max above 2^30
  window sums), broken preconditions (ContractViolation) and allocation
  failures (MemoryError);
* 3 for I/O errors.

Each error exit prints one ``error:`` (or ``i/o error:``) line on stderr.
``main`` parses with one parser per process, built on its first call;
``build_parser`` returns a fresh one on every call.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial
from itertools import chain
from typing import Callable, Iterator

from .disk import build_disk
from .errors import ConstructionBroken, ContractViolation, ParameterError
from .placement import _facing_shift, check_lemma2_exhaustive, place_translates
from .render import _svg_chunks
from .ruler import _check_ruler_windows
from .serial import _certificate_chunks, _chunks
from .verify import PairVerdict, _line_verdicts, _verdict_totals, _verdicts

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _say(args: argparse.Namespace, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _write_out(
    args: argparse.Namespace, chunks: Iterator[bytes], path: str | None, summary: Callable[[], str]
) -> None:
    """Write the chunks as they are made to path, or to stdout for None or
    "-"; the summary line, made after the last chunk, follows only when
    stdout does not carry them.  The first chunk is made before path is
    opened, so an input the writer refuses creates no file."""
    first = next(chunks)
    if path is None or path == "-":
        sys.stdout.buffer.writelines(chain((first,), chunks))
    else:
        with open(path, "wb") as fh:
            fh.writelines(chain((first,), chunks))
        _say(args, summary())


def _cmd_build(args: argparse.Namespace) -> int:
    shape = build_disk(args.m, args.n)
    _write_out(args, _chunks(shape), args.out, lambda: f"wrote shape m={args.m} n={args.n} to {args.out}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    m, n = args.m, args.n
    scene = place_translates(m, n)
    # each pair's verdict so far without its contacts: only the pair being written holds them
    verdicts: list[PairVerdict] = []
    totals = partial(_verdict_totals, n, verdicts)

    def summary() -> str:
        touching, ok = totals()
        return (
            f"{'PASS' if ok else 'FAIL'} m={m} n={n}: {n * (n + 1) // 2} pairs checked, "
            f"{touching}/{n} translates touch A0"
        )

    if args.json is None:
        verdicts.extend(_line_verdicts(scene))  # the pairs the paper's proof leaves, nothing formatted
        _say(args, summary())
    else:
        _write_out(args, _certificate_chunks(scene, _verdicts(scene, verdicts, keep=False), totals), args.json, summary)
    first = next((v for v in verdicts if not v.interiors_disjoint), None)
    if first is not None:
        line = f"first overlap: pair ({first.i}, {first.j})"
        if first.i == 0:  # the facing sub-copies are A_0's last and A_j's first of level n + 1 - j
            level = n + 1 - first.j
            shift = _facing_shift(first.j, level)
            line += f" at level {level}, A{first.j}'s first sub-copy being A0's last moved by ({shift.dx}, {shift.dy})"
        print(line, file=sys.stderr)
    return EXIT_OK if totals()[1] else EXIT_FAIL


def _cmd_render(args: argparse.Namespace) -> int:
    obj = (build_disk if args.shape else place_translates)(args.m, args.n)
    _write_out(args, _svg_chunks(obj, args.unit_px), args.out, lambda: f"wrote SVG to {args.out}")
    return EXIT_OK


def _cmd_lemma1(args: argparse.Namespace) -> int:
    failure = _check_ruler_windows(args.k_max, args.r_max)
    if failure is None:
        _say(args, f"PASS: all windows with k <= {args.k_max} and r + k - 1 <= {args.r_max} have sum >= prefix sum")
        return EXIT_OK
    print(f"FAIL: window k={failure[0]}, r={failure[1]} beats the prefix")
    return EXIT_FAIL


def _cmd_lemma2(args: argparse.Namespace) -> int:
    failure = check_lemma2_exhaustive(args.m, args.n)
    if failure is None:
        _say(args, f"PASS: all cases for m={args.m}, n={args.n} are disjoint")
        return EXIT_OK
    print(
        f"FAIL: overlap at r={failure.r}, xstar={failure.xstar}, "
        f"ystar={failure.ystar} (m={args.m}, n={args.n})"
    )
    return EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="translate-kiss",
        description="Build and verify the unbounded-kissing disk construction.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress summary output")
    sub = parser.add_subparsers(dest="command", required=True)
    # -m and -n, shared by the subcommands that take an (m, n)
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("-m", type=int, required=True)
    size.add_argument("-n", type=int, required=True)

    p_build = sub.add_parser("build", parents=[size], help="build a disk and write it as JSON")
    p_build.add_argument("--out", default=None, help="output path (default stdout)")
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", parents=[size], help="verify the full construction")
    p_verify.add_argument("--json", default=None, help="write the certificate here ('-' for stdout)")
    p_verify.set_defaults(func=_cmd_verify)

    p_render = sub.add_parser("render", parents=[size], help="render a disk or scene as SVG")
    group = p_render.add_mutually_exclusive_group()
    group.add_argument("--scene", action="store_true", help="render all translates (default)")
    group.add_argument("--shape", action="store_true", help="render the bare disk")
    p_render.add_argument("--unit-px", type=int, default=10)
    p_render.add_argument("--out", default=None, help="output path (default stdout)")
    p_render.set_defaults(func=_cmd_render)

    p_l1 = sub.add_parser("lemma1", help="exhaustively check the prefix-sum property")
    p_l1.add_argument("--k-max", type=int, required=True)
    p_l1.add_argument("--r-max", type=int, required=True)
    p_l1.set_defaults(func=_cmd_lemma1)

    p_l2 = sub.add_parser("lemma2", parents=[size], help="exhaustively check stepped translates stay disjoint")
    p_l2.set_defaults(func=_cmd_lemma2)

    return parser


_parser = cache(build_parser)  # main's own parser, never handed out


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, ContractViolation, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except ConstructionBroken as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
