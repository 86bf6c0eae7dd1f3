import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tanglekit.cli import main
from tanglekit.diagram import LinkDiagram, close_numerator, from_rational, parse_diagram
from tanglekit.fraction import frac_normalize
from tanglekit.quandle import color_solve_dihedral

from conftest import fibonacci

SRC = Path(__file__).resolve().parent.parent / "src"
SUM_3000 = " + ".join(["1/3"] * 3000)
NESTED_3000 = "(" * 3000 + "1/3" + ")" * 3000
ROT_3000 = "rot(" * 3000 + "1/3" + ")" * 3000


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFrac:
    def test_rotate(self, capsys):
        code, out, _ = run(capsys, "frac", "rotate", "1/3")
        assert code == 0 and out.strip() == "-3"

    def test_mirror(self, capsys):
        code, out, _ = run(capsys, "frac", "mirror", "3/2")
        assert code == 0 and out.strip() == "-3/2"

    def test_add(self, capsys):
        code, out, _ = run(capsys, "frac", "add", "1/3", "-n", "2")
        assert code == 0 and out.strip() == "7/3"

    def test_twist_vector(self, capsys):
        code, out, _ = run(capsys, "frac", "twist-vector", "3/2")
        assert code == 0 and out.strip() == "2 1"

    def test_two_bridge_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "frac",
                           "two-bridge", "5/3")
        assert code == 0
        assert json.loads(out) == {"alpha": 5, "beta": 3, "components": 1}

    def test_closure_verdict(self, capsys):
        # '--' keeps argparse from reading -1/3 as a flag
        code, out, _ = run(capsys, "frac", "closure-verdict", "--", "1/3", "-1/3")
        assert code == 0 and "unlink=True" in out


class TestVerdict:
    def test_table_expression(self, capsys):
        code, out, _ = run(capsys, "verdict", "(1/3 + 1/3) * [-2]")
        assert code == 0
        assert "unknottable: no" in out
        assert "unlinkable: no" in out

    def test_syntax_error_exit_2(self, capsys):
        code, _, err = run(capsys, "verdict", "1/2 + * 3")
        assert code == 2 and "error" in err

    def test_unknown_catalog_name_exit_2(self, capsys):
        code, out, err = run(capsys, "verdict", "@nope + 1/3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "nope" in err


class TestNegativePositionals:
    """A leading negative fraction or expression is a value, as after --."""

    @pytest.mark.parametrize("argv", [
        ("verdict", "-2/5"),
        ("det", "-2/5"),
        ("jones", "-1/3"),
        ("frac", "rotate", "-1/3"),
        ("--format", "json", "verdict", "-2/5 * 1/3"),
    ], ids=["verdict", "det", "jones", "frac-rotate", "verdict-json-expression"])
    def test_same_as_after_double_dash(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert (code, out, err) == run(capsys, *argv[:-1], "--", argv[-1])

    def test_options_still_parse(self, capsys):
        assert run(capsys, "frac", "add", "1/3", "-n", "-2")[:2] == (0, "-5/3\n")
        assert run(capsys, "frac", "add", "-1/3", "-n", "2")[:2] == (0, "5/3\n")
        assert run(capsys, "jones", "-1/3", "--at", "i")[:2] == (0, "1\n")
        # a negative point was read as a missing value, like the positionals
        assert run(capsys, "jones", "@5_1", "--at", "-1/2")[:2] == (0, "-13040\n")

    @pytest.mark.parametrize("argv", [
        ("verdict", "-x"),
        ("verdict", "-2/5", "extra"),
        ("frac", "add", "1/3", "-n"),
        ("jones", "-1/3", "--at"),
    ], ids=["unknown-option", "extra-argument", "n-without-value", "at-without-value"])
    def test_usage_errors_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err


class TestDiagramCommands:
    def test_fraction_invariant_catalog(self, capsys):
        code, out, _ = run(capsys, "fraction-invariant", "@7_13")
        assert code == 0 and out.strip() == "3/4"

    def test_fraction_invariant_expression(self, capsys):
        code, out, _ = run(capsys, "fraction-invariant", "5/3")
        assert code == 0 and out.strip() == "5/3"

    def test_jones_unknot(self, capsys):
        code, out, _ = run(capsys, "jones", "[1]")
        assert code == 0 and out.strip() == "1*t^0"

    def test_jones_at_point(self, capsys):
        code, out, _ = run(capsys, "jones", "3", "--at", "i")
        assert code == 0 and out.strip() in ("3i", "-3i", "3", "-3")

    def test_det(self, capsys):
        code, out, _ = run(capsys, "det", "3")
        assert code == 0 and out.strip() == "3"

    def test_linking(self, capsys):
        code, out, _ = run(capsys, "linking", "[2]")
        assert code == 0 and out.strip() in ("1", "-1")

    def test_color(self, capsys):
        code, out, _ = run(capsys, "color", "3", "-n", "3")
        assert code == 0 and "9 colorings" in out

    @pytest.mark.parametrize("text, count, rank", [
        ("link\nO 1\n", 3, 1),
        ("link\nO 2\n", 9, 2),
        ("link\nX 0 1 1 0\nO 1\n", 9, 2),
    ], ids=["unknot", "two-loops", "kink-and-loop"])
    def test_color_counts_crossing_free_loops(self, capsys, tmp_path, text, count, rank):
        """Each crossing-free loop is a free arc, so it multiplies the
        colorings mod n by n, and its coordinate comes last in the basis."""
        path = tmp_path / "loops.link"
        path.write_text(text)
        assert run(capsys, "color", str(path), "-n", "3") == (0, f"{count} colorings mod 3\n", "")
        code, out, _ = run(capsys, "--format", "json", "color", str(path), "-n", "0")
        basis = json.loads(out)["basis"]
        assert code == 0 and len(basis) == rank and basis[-1][-1] == 1
        d = parse_diagram(text)
        for link in (d, LinkDiagram(close_numerator(from_rational(frac_normalize(3, 1))).crossings,
                                    d.loops)):
            bare = LinkDiagram(link.crossings)
            for n in (2, 3, 5, 6):
                assert color_solve_dihedral(link).solutions_mod(n) == (
                    n ** link.loops * color_solve_dihedral(bare).solutions_mod(n))

    def test_color_negative_modulus_exit_2(self, capsys):
        code, out, err = run(capsys, "color", "3", "-n", "-1")
        assert (code, out, err) == (2, "", "error: modulus must be >= 0\n")

    @pytest.mark.parametrize("command", ["det", "jones", "color", "fraction-invariant",
                                         "linking"])
    def test_expression_with_closed_component_exit_2(self, capsys, command):
        """An expression is validated once realized, as a diagram file is
        when read: 1/2 + 1/2 closes a circle in the middle."""
        code, out, err = run(capsys, command, "1/2 + 1/2")
        assert (code, out, err) == (2, "", "error: closed component in tangle\n")

    def test_products_turn_by_end_pattern(self, capsys):
        """A product with a closed component in a factor is refused as a
        sum is; one whose factors both join NW to NE turns its top
        factor, so 2/3 * 2/5 closes to D(2/3 + -5/2), of determinant 3 * 2."""
        code, out, err = run(capsys, "det", "(1/2 + 1/2) * 1/3")
        assert (code, out, err) == (2, "", "error: closed component in tangle\n")
        assert run(capsys, "det", "2/3 * 2/5") == (0, "6\n", "")

    def test_unknown_input_exit_2(self, capsys):
        code, _, err = run(capsys, "det", "@no_such_entry")
        assert code == 2

    def test_over_crossing_budget_exit_2(self, capsys):
        code, _, err = run(capsys, "jones", "[30]")
        assert code == 2 and err.startswith("error:") and "budget" in err

    @pytest.mark.parametrize("text, message", [
        ("link\nO 99999999999999999999\n",
         "0 crossings and 99999999999999999999 loops exceed budget 24"),
        ("link\nX 0 1 1 0\nX 2 3 3 2\nO 40000\n",
         "2 crossings and 40000 loops exceed budget 24"),
    ], ids=["huge-loop-count", "two-kinks-40000-loops"])
    def test_loops_count_against_crossing_budget_exit_2(self, capsys, monkeypatch,
                                                        tmp_path, text, message):
        """Crossing-free loops widen the bracket's packed slots as
        crossings do, so a large loop count is refused before any
        arithmetic, at once."""
        monkeypatch.delenv("TANGLEKIT_CROSSING_BUDGET", raising=False)
        path = tmp_path / "loops.link"
        path.write_text(text)
        start = time.perf_counter()
        code, out, err = run(capsys, "jones", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("point", ["0", "1/0"])
    def test_jones_at_undefined_point_exit_2(self, capsys, point):
        """t^(1/2) = 0 meets negative powers; 1/0 is no point at all."""
        code, out, err = run(capsys, "jones", "@5_1", "--at", point)
        assert code == 2 and out == ""
        assert err == f"error: cannot evaluate at {point}: division by zero\n"

    @pytest.mark.parametrize("expression, same_as", [
        ("@7_13 + 1", "3/4 + 1"),
        ("1/3 + @7_13", "1/3 + 3/4"),
        ("mirror(@7_13)", "mirror(3/4)"),
        ("@7_13 * [2]", "3/4 * [2]"),
    ])
    def test_catalog_reference_inside_expression(self, capsys, expression, same_as):
        """The coloring fraction of a glued tangle depends only on the
        fractions of its parts, and 7_13 has fraction 3/4."""
        code, out, err = run(capsys, "fraction-invariant", expression)
        assert code == 0 and err == ""
        assert (code, out, err) == run(capsys, "fraction-invariant", same_as)

    def test_unknown_reference_inside_expression_exit_2(self, capsys):
        code, out, err = run(capsys, "det", "1/2 + @nope")
        assert code == 2 and out == ""
        assert err == "error: no catalog entry named nope\n"

    def test_loop_line_without_count_exit_2(self, capsys, tmp_path):
        path = tmp_path / "loops.link"
        path.write_text("link\nO\n")
        code, _, err = run(capsys, "jones", str(path))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("command, text, message", [
        (["det"], "link\nX 0 1 2 3\n", "dangling port"),
        (["jones"], "link\nX 0 1 2 3\n", "dangling port"),
        (["det"], "link\nX 0 1 1 0\nO -3\n", "negative loop count"),
        (["jones"], "link\nX 0 1 1 0\nO -3\n", "negative loop count"),
        (["color", "-n", "3"],
         "tangle\nX 0 1 2 3\nX 3 2 4 5\nB NW=0 NE=1 SW=4 SE=9\n", "dangling port"),
        (["det"], "tangle\nX 0 1 2 3\nB NW=3 NE=2 SW=0 NW=1\n", "repeated"),
        (["det"], "tangle\nX 0 1 2 3\nB NW=3 NE=2 SW=0\n", "all four endpoints"),
        (["det"], "tangle\nX 0 1 a 3\nB NW=3 NE=2 SW=0 SE=1\n",
         "error: expected integers: 'X 0 1 a 3'\n"),
        (["det"], "tangle\nX 0 1 2 3\nB NW=0 NE=1 SW=2 SE\n",
         "error: expected integers: 'B NW=0 NE=1 SW=2 SE'\n"),
        (["jones"], "link\nX 0 1 1 0\nO 1.5\n", "error: expected integers: 'O 1.5'\n"),
        # the commands that close a tangle read its file validated
        (["det"], "tangle\nX 0 1 2 3\nX 3 2 4 5\nB NW=0 NE=1 SW=4 SE=9\n", "dangling port"),
        (["jones"], "tangle\nX 0 1 2 3\nX 3 2 4 5\nB NW=0 NE=1 SW=4 SE=9\n", "dangling port"),
        (["linking"], "tangle\nX 0 1 2 3\nX 3 2 4 5\nB NW=0 NE=1 SW=4 SE=9\n",
         "dangling port"),
        # [1] with its ends reflected, (NE, NW, SE, SW): they run the other way
        (["det"], "tangle\nX 0 1 2 3\nB NW=2 NE=3 SW=1 SE=0\n", "boundary order"),
    ])
    def test_invalid_diagram_file_exit_2(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "bad.diagram"
        path.write_text(text)
        code, out, err = run(capsys, *command, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("command, expression", [
        pytest.param("verdict", SUM_3000, id=SUM_3000),
        pytest.param("verdict", NESTED_3000, id=NESTED_3000),
        pytest.param("det", SUM_3000, id="det-3000-term-sum"),
        pytest.param("det", NESTED_3000, id="det-3000-nested-parentheses"),
        pytest.param("verdict", ROT_3000, id="verdict-3000-nested-rot"),
        pytest.param("det", ROT_3000, id="det-3000-nested-rot"),
    ])
    def test_deep_expression_exit_2(self, capsys, command, expression):
        """A 3000-term sum is evaluated and realized, and 3000 nested
        parentheses parse without recursion; 3000 nested rotations parse,
        but evaluation recurses once per rotation, so they are refused
        with exit 2 and one error line."""
        code, out, err = run(capsys, command, expression)
        if expression == NESTED_3000:
            assert (code, out, err) == run(capsys, command, "1/3")
            assert code == 0 and out and err == ""
        elif expression == ROT_3000:
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert "Traceback" not in err
        elif command == "det":
            # det N(1/3 + ... + 1/3) = |sum of p_i times the other q_j|
            assert code == 0 and err == ""
            assert out == f"{3000 * 3 ** 2999}\n"
        else:
            assert code == 0 and err == ""
            assert out.startswith("unknottable: no (three or more rational summands")


F83 = "[61305790721611591/99194853094755497]"
F8000 = f"{fibonacci(8000)}/{fibonacci(8001)}"
TOO_MANY_CROSSINGS = ("error: rational tangle 99999999999999999999/7 needs "
                      "14285714285714285721 crossings, over the limit of 100000\n")


class TestNoHang:
    """Inputs that once ran until killed run in a child with a timeout, so
    that a regression fails instead of stalling the suite."""

    @pytest.mark.parametrize("argv, expected", [
        pytest.param(["fraction-invariant", f"{F83} + {F83}"],
                     (0, "122611581443223182/99194853094755497\n", ""),
                     id="large-prime-torsion"),
        pytest.param(["fraction-invariant", "99999999999999999999/7"],
                     (2, "", TOO_MANY_CROSSINGS), id="fraction-invariant-huge-rational"),
        pytest.param(["det", "99999999999999999999/7"],
                     (2, "", TOO_MANY_CROSSINGS), id="det-huge-rational"),
        pytest.param(["fraction-invariant", F8000], (0, F8000 + "\n", ""),
                     id="fraction-invariant-fibonacci-8000"),
        pytest.param(["det", F8000], (0, f"{fibonacci(8000)}\n", ""),
                     id="det-fibonacci-8000"),
        pytest.param(["verdict", "99999999999999999999/7"],
                     (0, "unknottable: yes(-14285714285714285714); "
                         "unlinkable: yes(-99999999999999999999/7); "
                         "splittable: yes(-99999999999999999999/7)\nevidence:\n", ""),
                     id="verdict-huge-rational"),
    ])
    def test_exits_within_five_seconds(self, argv, expected):
        """The sum of two 82-crossing rationals has one torsion factor,
        the 83rd Fibonacci number, a prime of 17 digits that trial division
        would take hours to find; the fraction needs no prime.  The huge
        rational would need about 1.4 * 10^19 crossings.  F_8000/F_8001,
        8,000 twist blocks of one crossing, took 41 s to realize when each
        block copied the tangle built so far.  The huge rational's
        unknotting closure was searched up to its numerator."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", "tanglekit.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=5)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


class TestClosedOutput:
    @pytest.mark.parametrize("argv", [["frac", "normalize", "2/4"],
                                      ["verdict", "@7_13 + 1/2"]])
    @pytest.mark.parametrize("buffered", [True, False])
    def test_closed_stdout_exit_2(self, argv, buffered):
        """A reader that went away gives exit 2 and one error line."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "tanglekit.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == b"error: output closed early\n"


class TestClassifyReproduce:
    def test_classify_text(self, capsys):
        code, out, _ = run(capsys, "classify", "6_3")
        assert code == 0
        assert "unlinkable: yes(0)" in out

    def test_classify_over_crossing_budget_exit_2(self, capsys, monkeypatch):
        """The splitting candidate closure of 7_13 has 11 crossings."""
        monkeypatch.setenv("TANGLEKIT_CROSSING_BUDGET", "10")
        code, out, err = run(capsys, "classify", "7_13")
        assert code == 2 and out == ""
        assert err == "error: 11 crossings exceeds budget 10\n"

    @pytest.mark.parametrize("value", ["abc", ""], ids=["word", "empty"])
    def test_invalid_crossing_budget_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("TANGLEKIT_CROSSING_BUDGET", value)
        code, out, err = run(capsys, "classify", "5_1")
        assert code == 2 and out == ""
        assert err == (f"error: TANGLEKIT_CROSSING_BUDGET must be an integer, "
                       f"not {value!r}\n")

    def test_classify_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "classify", "5_1")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["unknottable"] == {"status": "yes",
                                                  "closure": "-1"}

    def test_reproduce_ok_and_deterministic(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code1, out1, _ = run(capsys, "reproduce", "--out", str(out_file))
        code2, out2, _ = run(capsys, "reproduce")
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out_file.read_text())
        assert data["ok"] is True

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        """Exit 1 means only that reproduce found a diff."""
        out_file = tmp_path / "missing" / "report.json"
        code, _, err = run(capsys, "reproduce", "--out", str(out_file))
        assert code == 2 and not out_file.exists()
        assert err.startswith(f"error: cannot write {out_file}: ") and err.count("\n") == 1

    def test_json_output_stable(self, capsys):
        code1, out1, _ = run(capsys, "--format", "json", "reproduce")
        code2, out2, _ = run(capsys, "--format", "json", "reproduce")
        assert out1 == out2 and code1 == 0


COLD_IMPORTS = """
import io, json, sys

OFF_PATH = ("dataclasses", "inspect", "fractions", "decimal")


def loaded():
    return [m for m in OFF_PATH if m in sys.modules]


def run(argv):
    out, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = tanglekit.cli.main(argv)
    finally:
        out, sys.stdout = sys.stdout.getvalue(), out
    return code, out


steps = {}
import tanglekit
steps["import tanglekit"] = loaded()
import tanglekit.cli
steps["import tanglekit.cli"] = loaded()
code, _ = run(["--format", "json", "reproduce"])
steps["reproduce"] = loaded()
at = run(["jones", "@5_1", "--at", "1/2"])
print(json.dumps({"steps": steps, "code": code, "at": at, "after_at": loaded()}))
"""


class TestColdImports:
    def test_start_up_modules_stay_off_the_import_path(self):
        """``dataclasses`` (with ``inspect``) and ``fractions`` (with
        ``decimal``) cost start-up time that ``reproduce`` does not need."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-S", "-c", COLD_IMPORTS],
                              capture_output=True, env=env, timeout=120, check=True)
        seen = json.loads(proc.stdout)
        assert seen["steps"] == {"import tanglekit": [], "import tanglekit.cli": [],
                                 "reproduce": []}
        assert seen["code"] == 0
        # only jones --at evaluates over fractions.Fraction
        assert seen["at"] == [0, "-13040\n"]
        assert "fractions" in seen["after_at"]
