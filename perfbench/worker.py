"""The workload process, started by run.py.

run.py times this script from spawn until it prints "ready", which happens
once ``translate_kiss.cli`` is imported: that is the set-up time.
``worker.py --probe`` exits there.  ``worker.py WORKLOAD SEED SECONDS TRACE``
then runs the workload (harness.py) and prints its result as one JSON line.
"""

import sys

import translate_kiss.cli  # noqa: F401  (set-up, timed by the parent)


def main(argv: list[str]) -> int:
    print("ready", flush=True)
    if argv == ["--probe"]:
        return 0
    import json
    from pathlib import Path

    import harness

    src = (harness.ROOT / "src").resolve()
    if not Path(translate_kiss.cli.__file__).resolve().is_relative_to(src):
        print(f"translate_kiss was imported from {translate_kiss.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload, seed, seconds, trace = argv
    result = harness.run(workload, int(seed), float(seconds), trace == "1")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
