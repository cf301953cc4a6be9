import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import injcheck.cli
from injcheck.classes import Scaled
from injcheck.cli import EXIT_INTERNAL, run_command
from injcheck.injectivity import Problem, Status, check_injectivity, verify_certificate
from injcheck.linalg import RationalMatrix, Subspace, parse_matrix_text


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_injective(self, capsys):
        code, out, err = run(capsys, "monomial", "--B", "1 1;2 1")
        assert code == 0
        assert "status: INJECTIVE" in out
        assert "method: DET_ROUTE" in out
        assert "elapsed:" in err

    def test_not_injective(self, capsys):
        code, out, _ = run(capsys, "interval",
                           "--D", "(0,inf) (0,inf);(0,inf) (0,inf)")
        assert code == 1
        assert "status: NOT_INJECTIVE" in out
        assert "singular member:" in out
        assert "z:" in out

    def test_inconclusive_forced_route(self, capsys):
        code, out, _ = run(capsys, "monomial", "--B", "1 1", "--route", "det")
        assert code == 2
        assert "status: INCONCLUSIVE" in out

    def test_usage_unknown_flag(self, capsys):
        code, _, err = run(capsys, "monomial", "--B", "1 1;2 1", "--zap")
        assert code == 64

    def test_usage_two_classes(self, capsys):
        code, _, err = run(capsys, "falsify", "--B", "1 1;2 1", "--D", "{1}")
        assert code == 64
        assert "usage error" in err

    def test_bad_matrix_text(self, capsys):
        code, _, err = run(capsys, "monomial", "--B", "1 x;2 1")
        assert code == 65
        assert "input error" in err

    @pytest.mark.parametrize("box", ["{1/0} (0,1)", "[0,1/0] (0,1)"])
    def test_zero_denominator_in_interval_endpoint(self, capsys, box):
        code, out, err = run(capsys, "interval", "--D", box)
        assert code == 65
        assert out == ""
        assert "input error: line 1: bad rational literal '1/0'" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "monomial", "--B", "nosuchfile.txt")
        assert code == 66
        assert "missing file" in err

    @pytest.mark.parametrize("cap", ["vertices", "sign_enum_dim"])
    def test_negative_cap_is_an_input_error(self, capsys, cap):
        code, out, err = run(capsys, "monomial", "--B", "1 1;2 1", "--caps", f"{cap}=-1")
        assert code == 65
        assert out == ""
        assert f"input error: cap {cap} must be >= 0, got -1" in err

    @pytest.mark.parametrize("spec", ["full:abc", "full:0"])
    def test_bad_full_subspace_is_a_usage_error(self, capsys, spec):
        code, out, err = run(capsys, "signs", "--S", spec)
        assert code == 64
        assert out == ""
        assert f"usage error: --S {spec!r}: full:<n> needs an integer n >= 1" in err

    @pytest.mark.parametrize("argv, flag", [
        (("monomial", "--B", "1 1;2 1", "--S", "im:"), "--S im:"),
        (("monomial", "--B", "1 1;2 1", "--S", "ker:"), "--S ker:"),
        (("monomial", "--B", ""), "--B"),
        (("monomial", "--B", "1 1;2 1", "--A", ""), "--A"),
        (("monotonic", "--W", ""), "--W"),
        (("interval", "--D", ""), "--D"),
        (("falsify", "--D", " "), "--D"),
        (("crn", ""), "network"),
    ])
    def test_empty_matrix_value_is_a_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 64
        assert out == ""
        assert f"usage error: {flag} is empty" in err
        assert "missing file" not in err

    def test_cap_exceeded_is_inconclusive(self, capsys):
        code, _, err = run(capsys, "signs", "--S", "full:4",
                           "--caps", "sign_enum_dim=3")
        assert code == 2
        assert "gave up" in err

    def test_internal_error_is_not_a_verdict(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("route table corrupted")

        monkeypatch.setattr(injcheck.cli, "check_injectivity", broken)
        code, out, err = run(capsys, "monomial", "--B", "1 1;2 1")
        assert code == EXIT_INTERNAL == 70
        assert "status:" not in out
        assert "internal error: RuntimeError: route table corrupted\n" in err
        assert "Traceback" not in err

    def test_extreme_exponents_lift_after_rescaling(self, capsys, tmp_path):
        r = tmp_path / "lift.json"
        code, out, err = run(capsys, "monomial", "--B", "1 -1000",
                             "--report", str(r))
        assert code == 1
        assert "status: NOT_INJECTIVE" in out
        assert "colliding points:" in out
        assert "Traceback" not in err
        lift = json.loads(r.read_text())["verdict"]["certificate"]["monomial_lift"]
        assert all(p > 0 for p in lift["x"] + lift["y"])
        problem = Problem(Scaled(RationalMatrix.from_rows([[1, -1000]])),
                          Subspace.full(2))
        verdict = check_injectivity(problem)
        assert verdict.status is Status.NOT_INJECTIVE
        assert verify_certificate(verdict, problem)

    def test_overflowing_monomials_compare_in_log_space(self, capsys):
        # x^B overflows a float on the first coordinate of the lift
        code, out, err = run(capsys, "monomial", "--B", "1000 1")
        assert code == 1
        assert "status: NOT_INJECTIVE" in out
        assert "colliding points:" in out
        assert "internal error" not in err
        problem = Problem(Scaled(RationalMatrix.from_rows([[1000, 1]])), Subspace.full(2))
        verdict = check_injectivity(problem)
        assert verdict.certificate.monomial_lift["max_residual"] <= 1e-9
        assert verify_certificate(verdict, problem)

    @pytest.mark.parametrize("B, A", [
        ("1000 1", "1;"),         # the overflowing row has no target to reach
        ("2000 1;1 1", "1 -1"),   # it has one
    ])
    def test_overflowing_monomials_with_a_left_matrix(self, capsys, tmp_path, B, A):
        r = tmp_path / "lift.json"
        code, out, err = run(capsys, "monomial", "--B", B, "--A", A, "--report", str(r))
        assert code == 1
        assert "status: NOT_INJECTIVE" in out
        assert "internal error" not in err

        def no_inf_or_nan(name):
            raise AssertionError(f"{name} in the report")

        json.loads(r.read_text(), parse_constant=no_inf_or_nan)
        problem = Problem(Scaled(parse_matrix_text(B.replace(";", "\n"))), Subspace.full(2),
                          left=parse_matrix_text(A.replace(";", "\n")))
        verdict = check_injectivity(problem)
        assert verdict.status is Status.NOT_INJECTIVE
        assert verdict.certificate.monomial_lift["max_residual"] <= 1e-9
        assert verify_certificate(verdict, problem)


class TestClassCommands:
    def test_left_matrix_full_plane(self, capsys):
        code, out, _ = run(capsys, "interval", "--D", "(0,1) {0};{0} {1}",
                           "--A", "1 -1", "--S", "full:2")
        assert code == 1
        assert "1/2" in out

    def test_left_matrix_diagonal(self, capsys):
        code, out, _ = run(capsys, "interval", "--D", "(0,1) {0};{0} {1}",
                           "--A", "1 -1", "--S", "im:1;1")
        assert code == 0

    def test_monotonic_command(self, capsys):
        code, out, _ = run(capsys, "monotonic", "--W", "+ 0;+ +")
        assert code == 0
        assert "certificate: determinant" in out

    def test_box_certificate_summary(self, capsys):
        code, out, _ = run(
            capsys, "interval",
            "--D", "[1,13/10] [1,11/10];[2,143/50] [1,121/100]")
        assert code == 0
        assert "box min -1073/500, max -427/1000" in out

    def test_box_certificate_states_values_of_det(self, capsys):
        # the extremes are values of det = v1, which ranges over (-inf,-2]
        code, out, _ = run(capsys, "interval", "--D", "(-inf,-2]")
        assert code == 0
        assert "certificate: determinant, sign NEG, box min -inf, max -2" in out

    @pytest.mark.parametrize("argv, summary", [
        (("interval", "--D", "(0,inf) (0,inf);(0,inf) (0,inf)", "--S", "im:1;1"),
         "1 sign pair checked"),
        (("monotonic", "--W", "+ 0;0 +", "--route", "sign"), "4 sign pairs checked"),
    ])
    def test_sweep_certificate_summary(self, capsys, argv, summary):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert f"certificate: sign-sweep, {summary}\n" in out

    def test_kernel_subspace_spec(self, capsys):
        code, out, _ = run(capsys, "monotonic", "--W", "+ + -;+ + +",
                           "--S", "ker:1 -1 1")
        assert code == 1
        assert "tau: -++" in out


class TestSigns:
    def test_diagonal_line(self, capsys):
        code, out, _ = run(capsys, "signs", "--S", "im:1;1")
        assert code == 0
        assert out.splitlines() == ["--", "++"]

    def test_full_space_count(self, capsys):
        code, out, _ = run(capsys, "signs", "--S", "full:2")
        assert code == 0
        assert len(out.splitlines()) == 8


class TestFalsify:
    def test_hit(self, capsys):
        code, out, _ = run(capsys, "falsify",
                           "--D", "(0,inf) (0,inf);(0,inf) (0,inf)",
                           "--trials", "3000")
        assert code == 1
        assert "found a singular member" in out

    def test_no_hit(self, capsys):
        code, out, _ = run(capsys, "falsify", "--B", "1 1;2 1",
                           "--trials", "500")
        assert code == 2
        assert "no singular member found in 500 trials" in out

    @pytest.mark.parametrize("flag, value", [("--seed", "-3"), ("--trials", "-5")])
    def test_negative_setting_is_a_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "falsify", "--B", "1 1;2 2", flag, value)
        assert code == 64
        assert out == ""
        assert f"usage error: {flag} must be >= 0, got {value}" in err


class TestReports:
    def test_identical_bytes_across_runs(self, capsys, tmp_path):
        r1 = tmp_path / "a.json"
        r2 = tmp_path / "b.json"
        run(capsys, "monomial", "--B", "1 1;2 1", "--report", str(r1))
        run(capsys, "monomial", "--B", "1 1;2 1", "--report", str(r2))
        assert r1.read_bytes() == r2.read_bytes()
        payload = json.loads(r1.read_text())
        assert payload["verdict"]["status"] == "INJECTIVE"
        assert payload["inputs"]["B"]["source"] == "inline"
        assert payload["route"] == "auto"

    def test_witness_report_shape(self, capsys, tmp_path):
        r = tmp_path / "w.json"
        run(capsys, "interval", "--D", "(0,inf) (0,inf);(0,inf) (0,inf)",
            "--report", str(r))
        payload = json.loads(r.read_text())
        v = payload["verdict"]
        assert v["status"] == "NOT_INJECTIVE"
        assert v["certificate"]["type"] == "singular-witness"
        assert len(v["certificate"]["z"]) == 2

    def test_falsify_report(self, capsys, tmp_path):
        r = tmp_path / "f.json"
        run(capsys, "falsify", "--B", "1 1;2 1", "--trials", "200",
            "--report", str(r))
        payload = json.loads(r.read_text())
        assert payload["hit"] is None
        assert payload["trials"] == 200


class TestCrnCommand:
    def test_file_input(self, capsys, tmp_path):
        net = tmp_path / "net.txt"
        net.write_text("grow: A + B -> 2 A\nflip: A -> B\n")
        r = tmp_path / "crn.json"
        code, out, _ = run(capsys, "crn", str(net), "--report", str(r))
        assert code == 1
        assert "species: A B" in out
        assert "kinetics: mass-action" in out
        assert "colliding points:" in out
        payload = json.loads(r.read_text())
        assert payload["inputs"]["mode"] == "mass-action"
        assert "grow" in payload["inputs"]["normalized"]

    def test_monotonic_mode(self, capsys, tmp_path):
        net = tmp_path / "net.txt"
        net.write_text("2 A -> A\n")
        code, out, _ = run(capsys, "crn", str(net), "--mode", "strict")
        assert code == 0

    def test_bad_network_text(self, capsys, tmp_path):
        net = tmp_path / "net.txt"
        net.write_text("A + B\n")
        code, _, err = run(capsys, "crn", str(net))
        assert code == 65

    @pytest.mark.parametrize("text", ["1/0 A -> B\n", "A + B -> C : orders A=1/0 B=1\n"])
    def test_zero_denominator_is_an_input_error(self, capsys, tmp_path, text):
        net = tmp_path / "net.txt"
        net.write_text("A -> B\n" + text)
        code, _, err = run(capsys, "crn", str(net))
        assert code == 65
        assert "input error: line 2:" in err


# Tokens of the interval box format: every shape of entry, then bad
# literals, empty or reversed intervals, closed infinite ends and broken
# punctures. Well-formed tokens are drawn more often, so that many grids
# reach a verdict.
BOX_TOKENS = (
    "{0}", "{-1/2}", "[0,1]", "(0,1)", "[-1,2)", "(0,inf)", "[1,inf)", "(-inf,0)",
    "(-inf,-2]", "(-inf,inf)", "(-1,0)u(0,2)", "(-inf,0)u(0,inf)", "(-inf,0)u(0,1]",
)
MALFORMED_BOX_TOKENS = (
    "{1/0}", "[0,1/0]", "[2,1]", "(1,1)", "[-inf,0]", "(0,inf]", "(0,1", "{}", "x",
    "(0,1)u(0,2)", "(-1,0)u(1,2)", "[0,0)", "((0,1)", "{1,2}", "inf",
)


def verified_exit(argv):
    """Run the CLI and check that it ends in a verdict or an input error,
    never in exit 70, and that every verdict it reaches verifies; returns the
    exit code and stdout."""
    decided = []

    def deciding(problem, **kwargs):
        verdict = check_injectivity(problem, **kwargs)
        decided.append((problem, verdict, kwargs["caps"]))
        return verdict

    with mock.patch.object(injcheck.cli, "check_injectivity", deciding), \
            contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
    assert code in (0, 1, 2, 64, 65, 66), argv
    for problem, verdict, caps in decided:
        assert verify_certificate(verdict, problem, caps=caps), argv
    return code, out.getvalue()


def grid_text(draw, tokens, rows, cols):
    """Matrix-shaped text of rows x cols tokens, rows joined by ';', with a
    trailing ';' so that a one-row value is read inline, not as a file path."""
    return ";".join(" ".join(draw(st.sampled_from(tokens)) for _ in range(cols))
                    for _ in range(rows)) + ";"


def dims():
    return st.integers(1, 3)


@given(st.lists(st.lists(st.sampled_from(BOX_TOKENS * 6 + MALFORMED_BOX_TOKENS),
                         min_size=1, max_size=3),
                min_size=1, max_size=3))
@settings(derandomize=True, deadline=None, max_examples=300)
def test_interval_box_fuzz(grid):
    verified_exit(["interval", "--D", ";".join(" ".join(row) for row in grid)])


# Matrix tokens: integers and fractions of both signs, then entries too large
# or too small for a float, a zero denominator and junk. Most shapes fit
# together, so that many inputs reach a verdict.
MATRIX_TOKENS = ("0", "1", "-1", "2", "-3", "10", "1/2", "-7/3", "1.5") * 8 + (
    "1e999", "-1e999", "1e-999", "1e-999", "1/0", "x", "1/", "--1", "inf")


@st.composite
def matrix_argv(draw):
    rows, cols = draw(dims()), draw(dims())
    argv = ["monomial", "--B", grid_text(draw, MATRIX_TOKENS, rows, cols)]
    if draw(st.booleans()):
        fit = rows if draw(st.integers(0, 9)) else draw(dims())
        argv += ["--A", grid_text(draw, MATRIX_TOKENS, draw(dims()), fit)]
    kind = draw(st.sampled_from(("", "im:", "ker:")))
    if kind:
        fit = cols if draw(st.integers(0, 9)) else draw(dims())
        shape = (fit, draw(dims())) if kind == "im:" else (draw(dims()), fit)
        argv += ["--S", kind + grid_text(draw, MATRIX_TOKENS, *shape)]
    return argv


@given(matrix_argv())
@settings(derandomize=True, deadline=None, max_examples=300)
def test_matrix_text_fuzz(argv):
    verified_exit(argv)


@pytest.mark.parametrize("argv", [
    ["monomial", "--B", "1e999 2"],
    ["monomial", "--B", "1e-999 2"],
    ["monomial", "--B", "1/2 -1;-1 -1e999", "--A", "1 -7/3;"],
    ["monomial", "--B", "1/2 0 10;10 1e-999 10;0 -3 2", "--A", "1/2 1e-999 1e-999;"],
])
def test_lift_beyond_floats_is_left_out(argv, tmp_path):
    # the exact witness stands; the float lift is left out and the report says why
    report = tmp_path / "report.json"
    code, out = verified_exit(argv + ["--report", str(report)])
    assert code == 1
    assert "colliding points: omitted (" in out
    verdict = json.loads(report.read_text())["verdict"]
    assert verdict["status"] == "NOT_INJECTIVE"
    assert "monomial_lift" not in verdict["certificate"]
    assert verdict["diagnostics"]["monomial_lift_omitted"]


SIGN_SET_TOKENS = ("0", "+", "-", "-0", "0+", "-+", "*") * 6 + (
    "+-", "0-", "**", "00", "!", "x", "1", "+*")


@st.composite
def sign_set_argv(draw):
    rows, cols = draw(dims()), draw(dims())
    argv = ["monotonic", "--W", grid_text(draw, SIGN_SET_TOKENS, rows, cols)]
    argv += ["--S", draw(st.sampled_from(("full", f"full:{cols}", f"full:{cols + 1}",
                                          "im:" + ";".join(["1"] * cols) + ";",
                                          "ker:" + " ".join(["1"] * cols) + ";")))]
    if draw(st.booleans()):
        argv += ["--A", grid_text(draw, ("0", "1", "-1", "1/2", "1/0"), draw(dims()), rows)]
    return argv


@given(sign_set_argv())
@settings(derandomize=True, deadline=None, max_examples=200)
def test_sign_set_text_fuzz(argv):
    verified_exit(argv)


CAPS_ITEMS = ("sign_enum_dim", "patterns", "vertices", "monomials", "branches") * 3 + (
    "bogus", "")
CAPS_VALUES = ("0", "1", "2", "14", "100") * 3 + ("-1", "1e999", "1/0", "x", "")


@given(st.lists(st.tuples(st.sampled_from(CAPS_ITEMS), st.sampled_from(("=",) * 8 + ("", "==")),
                          st.sampled_from(CAPS_VALUES)), min_size=1, max_size=4),
       st.sampled_from((
           ["monomial", "--B", "1 1;2 1"],
           ["monomial", "--B", "1 2 1", "--S", "full:3"],
           ["monotonic", "--W", "+ -;0+ +", "--route", "pattern-union"],
           ["monotonic", "--W", "* + 0;- * +", "--S", "im:1;1;1"],
           ["interval", "--D", "[1,2] (0,inf);(-inf,inf) {1}"],
       )))
@settings(derandomize=True, deadline=None, max_examples=200)
def test_caps_fuzz(items, problem):
    spec = ",".join(name + eq + value for name, eq, value in items)
    verified_exit(problem + ["--caps", spec])


SPECIES = ("A", "B", "C")
COEFFICIENTS = ("", "", "", "2 ", "1/2 ") * 6 + ("1/0 ", "1e999 ", "1e-999 ", "0 ", "-1 ", "x ")
ORDERS = ("1", "2", "1/2", "0") * 4 + ("1/0", "1e999", "-1", "x")


@st.composite
def network_text(draw):
    lines = []
    for k in range(draw(st.integers(1, 3))):
        sides = []
        for _ in range(2):
            terms = draw(st.lists(st.tuples(st.sampled_from(COEFFICIENTS),
                                            st.sampled_from(SPECIES)),
                                  min_size=draw(st.sampled_from((0, 1, 1, 1))), max_size=2))
            sides.append(" + ".join(c + s for c, s in terms) or "0")
        line = draw(st.sampled_from((f"r{k}: ",) * 6 + ("", "1bad: ")))
        line += draw(st.sampled_from((" -> ",) * 6 + (" <-> ", " => "))).join(sides)
        if draw(st.booleans()):
            orders = draw(st.lists(st.tuples(st.sampled_from(SPECIES), st.sampled_from(ORDERS)),
                                   min_size=1, max_size=3))
            line += " : orders " + " ".join(f"{s}={v}" for s, v in orders)
        lines.append(line)
    if draw(st.integers(0, 3)) == 0:
        lines.append(f"influence r0 : {draw(st.sampled_from(SPECIES))}="
                     f"{draw(st.sampled_from(SIGN_SET_TOKENS))}")
    return "\n".join(lines) + "\n"


@given(network_text(), st.sampled_from(("mass-action", "power-law", "monotonic-strict",
                                        "monotonic-weak") * 3 + ("bogus",)))
@settings(derandomize=True, deadline=None, max_examples=300)
def test_network_text_fuzz(text, mode):
    verified_exit(["crn", text, "--mode", mode])


class TestInstalledEntryPoint:
    def test_console_script(self):
        exe = shutil.which("injcheck")
        assert exe is not None, "console script should be on PATH after install"
        proc = subprocess.run([exe, "monomial", "--B", "1 1;2 1"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "status: INJECTIVE" in proc.stdout

    def test_python_dash_m(self):
        src = str(Path(injcheck.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "injcheck", "--help"],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: injcheck")
