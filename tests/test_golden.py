"""The command line's output, byte for byte, against the files in golden/.

``reproduce.txt`` and ``reproduce.json`` are the stdout of ``tanglekit
reproduce`` and ``tanglekit --format json reproduce``; ``verdicts.txt`` is
the transcript of ``tanglekit --format json verdict --`` on ``EXPRESSIONS``,
each run as ``$ argv``, ``[exit code]``, stdout, then ``[stderr]`` and
stderr when there is any.  Regenerate the files only for an intended
output change, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import shlex
import sys
from pathlib import Path

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


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def verdict_transcript() -> str:
    parts = []
    for expression in EXPRESSIONS:
        argv = ["--format", "json", "verdict", "--", expression]
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
    files["verdicts.txt"] = verdict_transcript()
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
