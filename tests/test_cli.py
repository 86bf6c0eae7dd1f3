import json

import pytest

from tanglekit.cli import main


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

    def test_unknown_input_exit_2(self, capsys):
        code, _, err = run(capsys, "det", "@no_such_entry")
        assert code == 2

    def test_over_crossing_budget_exit_2(self, capsys):
        code, _, err = run(capsys, "jones", "[30]")
        assert code == 2 and err.startswith("error:") and "budget" in err

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
    ])
    def test_invalid_diagram_file_exit_2(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "bad.diagram"
        path.write_text(text)
        code, out, err = run(capsys, *command, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("expression", [
        " + ".join(["1/3"] * 3000),
        "(" * 3000 + "1/3" + ")" * 3000,
    ])
    def test_deep_expression_exit_2(self, capsys, expression):
        """A 3000-term sum is evaluated; 3000 nested parentheses are
        refused with exit 2."""
        code, out, err = run(capsys, "verdict", expression)
        if expression.startswith("("):
            assert code == 2 and out == ""
            assert err.startswith("error:") and "Traceback" not in err
        else:
            assert code == 0 and err == ""
            assert out.startswith("unknottable: no (three or more rational summands")


class TestClassifyReproduce:
    def test_classify_text(self, capsys):
        code, out, _ = run(capsys, "classify", "6_3")
        assert code == 0
        assert "unlinkable: yes(0)" in out

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

    def test_json_output_stable(self, capsys):
        code1, out1, _ = run(capsys, "--format", "json", "reproduce")
        code2, out2, _ = run(capsys, "--format", "json", "reproduce")
        assert out1 == out2 and code1 == 0
