"""The command line's output, byte for byte, against the files in golden/.

``reproduce.txt`` and ``reproduce.json`` are the stdout of ``tanglekit
reproduce`` and ``tanglekit --format json reproduce``; ``verdicts.txt`` is
the transcript of ``tanglekit --format json verdict --`` on ``EXPRESSIONS``,
each run as ``$ argv``, ``[exit code]``, stdout, then ``[stderr]`` and
stderr when there is any.  ``diagrams.txt`` is the transcript of
``color``, ``color -n 3``, ``fraction-invariant`` and ``det`` in JSON on
every catalog entry and on ``SUMS``: the bases and generators printed
there follow the Smith form's pivot order, so they pin it.  Regenerate
the files only for an intended output change, with ``PYTHONPATH=src
python tests/test_golden.py``.
"""

import contextlib
import io
import shlex
import sys
from pathlib import Path

from tanglekit.catalog import load_catalog
from tanglekit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# Every branch of the expression parser, its error messages included, and
# every route of the verdict engine: Montesinos sums, integral absorption,
# extension of a catalog closure, products as rotated sums, pruning and
# sums with the infinity tangle.
EXPRESSIONS = [
    "[1/3]",
    "[inf]",
    "inf",
    "[-3]",
    "3",
    "-2/5",
    "4/-6",
    "1/2 + 1/3",
    "1/3 + 1/3",
    "1/3 + 1/5 + 1/7",
    "1/3 + 2 + 1/5",
    "[2] + [3] + -1",
    "@6_2",
    "@6_1 + 1",
    "@5_1 + 2/3",
    "@7_13 + inf",
    "1/3 * 1/5",
    "(1/3 + -1/2) * [-2]",
    "@5_1 * [2]",
    "@7_13 + @7_13",
    "@6_1 + @7_13 + 1",
    "inf + 1/3",
    "[inf] + [inf]",
    "1/2 + inf + @5_1",
    "rot(1/3)",
    "rot(@6_1)",
    "mirror(1/3 + 1/5)",
    "mirror(@5_1) + 1",
    "((1/3 + (1/5))) * [2]",
    "rot(mirror((1/2) + 1/3)) * 3",
    "",
    "1/2 + * 3",
    "1/2 + 1/3 * 2",
    "rot 1/3",
    "[1/3",
    "[rot]",
    "1/",
    "(1/3",
    "1/3)",
    "1/3 # 2",
    "0/0",
    "@nope + 1/3",
]

# Sums of 20-50 crossings: two to six terms, each a fraction p/q with
# 2 <= q <= 21 or a catalog entry.  The first six, drawn once from
# random.Random(1212), have closed components, so every command refuses
# them.  The last six come from random.Random(1213): rng.randint(2, 6)
# terms, each a catalog entry rng.choice(names) when rng.random() < 1/3,
# else q = rng.randint(2, 21) and p = rng.randint(1 - q, q - 1) redrawn
# until gcd(p, q) = 1; a sum is kept when it has 20-50 crossings and
# passes validate.  Their bases and generators pin the pivot order on
# large sums.
SUMS = [
    "11/20 + @7_12 + 1/6 + -9/11",
    "@7_6 + @7_3 + -2/3 + -9/14 + 8/21",
    "-1/20 + 1/3 + -1/2",
    "-3/4 + -8/17 + @7_9 + @6_1 + @7_16 + -5/21",
    "-5/16 + @7_8 + 3/14 + @7_15 + 5/9 + @7_16",
    "-5/16 + 5/6 + 1/13 + -9/19",
    "-4/7 + 17/20 + -8/11",
    "9/11 + -8/9 + -2/19 + @7_10 + 11/12",
    "6/11 + @7_12 + @7_1 + @6_2",
    "@7_16 + @5_1 + 15/17 + -5/21",
    "@7_6 + -5/16 + -7/9",
    "-9/14 + @7_11 + @7_6 + 12/13",
]

DIAGRAM_COMMANDS = [["color"], ["color", "-n", "3"], ["fraction-invariant"], ["det"]]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def transcript(argvs) -> str:
    parts = []
    for argv in argvs:
        code, out, err = run(argv)
        parts.append(f"$ {shlex.join(argv)}\n[exit {code}]\n{out}")
        if err:
            parts.append(f"[stderr]\n{err}")
    return "".join(parts)


def outputs() -> dict[str, str]:
    files = {}
    for name, argv in (("reproduce.txt", ["reproduce"]),
                       ("reproduce.json", ["--format", "json", "reproduce"])):
        code, out, err = run(argv)
        assert (code, err) == (0, ""), (argv, code, err)
        files[name] = out
    files["verdicts.txt"] = transcript(["--format", "json", "verdict", "--", expression]
                                       for expression in EXPRESSIONS)
    targets = [f"@{e.name}" for e in load_catalog()] + SUMS
    files["diagrams.txt"] = transcript(["--format", "json", *command, "--", target]
                                       for target in targets
                                       for command in DIAGRAM_COMMANDS)
    return files


def read(name: str) -> str:
    with open(GOLDEN / name, encoding="utf-8", newline="") as fh:
        return fh.read()


def test_output_matches_golden_files():
    for name, text in outputs().items():
        assert text == read(name), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in outputs().items():
        with open(GOLDEN / name, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    sys.exit(0)
