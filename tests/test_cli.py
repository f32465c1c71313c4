import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tnomial.cli as cli
import tnomial.experiments as experiments
from tnomial.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    main,
)
from tnomial.errors import TNomialError
from tnomial.experiments import enumerate_tnomials
from tnomial.field import make_extension_field, make_prime_field
from tnomial.numtheory import factorize
from tnomial.poly import build
from tnomial.reduction import find_small_multiple, modular_norm


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- analyze ------------------------------------------------------------------


def test_analyze_binomial(capsys):
    code, out, err = run_cli(capsys, "analyze", "--p", "7", "x^3 + 1")
    assert code == EXIT_OK
    assert err == ""
    rep = json.loads(out)
    assert rep["roots"]["bruteforce"] == 3
    assert rep["C"] == 3
    assert rep["params"]["delta"] == 3
    assert rep["params"]["D"] == 3
    assert rep["params"]["S"] == [1, 3]
    assert rep["bounds"]["bound_C"] == 6


def test_analyze_extension_field(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze", "--p", "3", "--k", "2", "--modulus", "1,0,1", "x^3 + x + 1",
    )
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["roots"]["bruteforce"] == 3
    assert rep["C"] == 1


def test_analyze_monomial(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--p", "7", "x^4")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["roots"]["bruteforce"] == 0
    assert rep["C"] == 0
    assert rep["params"] is None
    assert "two terms" in rep["params_note"]


def test_analyze_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "analyze", "--p", "13", "3*x^7 + x^2 + 5")
    _, second, _ = run_cli(capsys, "analyze", "--p", "13", "3*x^7 + x^2 + 5")
    assert first == second


@pytest.mark.parametrize("text", ["-x+1", "-3x+1", "-[1]*x"])
def test_analyze_polynomial_that_starts_with_a_dash(capsys, text):
    """A polynomial written with a leading '-' and no blank is the
    polynomial, not an unknown option: the same bytes as after '--'."""
    code, out, err = run_cli(capsys, "analyze", "--p", "7", "--", text)
    assert (code, err) == (EXIT_OK, "")
    assert run_cli(capsys, "analyze", "--p", "7", text) == (EXIT_OK, out, "")
    assert run_cli(capsys, "analyze", text, "--p", "7") == (EXIT_OK, out, "")


def test_analyze_options_around_a_dash_polynomial(tmp_path, capsys):
    code, expected, _ = run_cli(
        capsys, "analyze", "--p", "3", "--k", "2", "--modulus", "1,0,1", "--", "-x^3+x+1"
    )
    assert code == EXIT_OK
    target = tmp_path / "report.json"
    # --mod is argparse's abbreviation of --modulus
    argv = ["analyze", "-x^3+x+1", "--p", "3", "--k=2", "--mod", "1,0,1", "--out", str(target)]
    assert run_cli(capsys, *argv) == (EXIT_OK, "", "")
    assert target.read_text(encoding="utf-8") == expected
    for flag in ("-h", "--help"):
        code, out, _ = run_cli(capsys, "analyze", flag)
        assert code == EXIT_OK
        assert out.startswith("usage: tnomial analyze")
    assert run_cli(capsys, "analyze", "--p", "7", "--bogus", "x")[0] == EXIT_INPUT
    assert run_cli(capsys, "analyze", "--p", "7", "-x+1", "-x")[0] == EXIT_INPUT


def test_analyze_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "analyze", "--p", "7", "--out", str(target), "x^3 + 1"
    )
    assert code == EXIT_OK
    assert out == ""
    rep = json.loads(target.read_text(encoding="utf-8"))
    assert rep["C"] == 3


def test_out_path_that_cannot_be_opened(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run_cli(
            capsys, "analyze", "--p", "7", "--out", str(target), "x + 1"
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: cannot write --out")


# -- input errors -------------------------------------------------------------


def test_bad_polynomial_text(capsys):
    code, _, err = run_cli(capsys, "analyze", "--p", "7", "x^^2")
    assert code == EXIT_INPUT
    assert "error" in err


def test_composite_characteristic(capsys):
    code, _, err = run_cli(capsys, "analyze", "--p", "6", "x + 1")
    assert code == EXIT_INPUT
    assert "error" in err


def test_modulus_without_extension(capsys):
    code, _, err = run_cli(
        capsys, "analyze", "--p", "7", "--modulus", "1,0,1", "x + 1"
    )
    assert code == EXIT_INPUT
    assert "modulus" in err


def test_malformed_modulus(capsys):
    code, _, err = run_cli(
        capsys, "analyze", "--p", "3", "--k", "2", "--modulus", "1,a", "x + 1"
    )
    assert code == EXIT_INPUT
    assert "modulus" in err


def test_field_beyond_ceiling(capsys):
    code, _, err = run_cli(capsys, "analyze", "--p", "2147483659", "x + 1")
    assert code == EXIT_INPUT
    assert "error" in err


def test_extension_degree_below_two(capsys):
    code, out, err = run_cli(capsys, "analyze", "--p", "3", "--k", "0", "x + 1")
    assert code == EXIT_INPUT
    assert out == ""
    assert "degree" in err


def test_non_finite_gamma(capsys):
    # -2000 is finite, but (1/2!)**-2000 overflows a float
    for gamma in ("nan", "inf", "-2000"):
        code, out, err = run_cli(
            capsys, "experiment", "conjecture", "--p", "7", "--t", "2", "--gamma", gamma
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "gamma" in err


def test_negative_seed(capsys):
    for command in ("sample-c2", "root-dist"):
        code, _, err = run_cli(
            capsys, "experiment", command, "--p", "7", "--samples", "10", "--seed", "-1"
        )
        assert code == EXIT_INPUT
        assert "seed" in err


def test_unexpected_exception_is_internal(capsys, monkeypatch):
    """Only TNomialError means bad input; a plain ValueError from inside
    the program is a bug and exits 4."""

    def broken(f):
        raise ValueError("index arithmetic went wrong")

    monkeypatch.setattr(cli, "analyze", broken)
    code, out, err = run_cli(capsys, "analyze", "--p", "7", "x^3 + 1")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert "internal error: ValueError: index arithmetic went wrong" in err


BAD_LIBRARY_CALLS = {
    "vector_coefficient_prime_field": lambda: build(make_prime_field(7), [(1, (1, 2))]),
    "coefficient_vector_too_long": lambda: build(make_extension_field(3, 2), [(1, (1, 2, 0))]),
    "element_label_too_large": lambda: make_extension_field(3, 2).element_from_int(9),
    "element_label_negative": lambda: make_prime_field(7).element_from_int(-1),
    "modular_norm_modulus_zero": lambda: modular_norm([1, 2], 0),
    "small_multiple_modulus_zero": lambda: find_small_multiple([1, 2], 0, 2),
    "enumeration_t": lambda: next(enumerate_tnomials(7, 0)),
    "factorize_zero": lambda: factorize(0),
}


@pytest.mark.parametrize("call", BAD_LIBRARY_CALLS.values(), ids=BAD_LIBRARY_CALLS.keys())
def test_bad_library_input_raises_a_typed_error(call):
    """Bad input to a public function raises a TNomialError, which the
    CLI maps to exit 2, never a plain ValueError, which it maps to 4."""
    with pytest.raises(TNomialError):
        call()


def test_argparse_errors_map_to_input_code(capsys):
    assert main([]) == EXIT_INPUT
    capsys.readouterr()
    assert main(["analyze"]) == EXIT_INPUT  # missing --p and polynomial
    capsys.readouterr()
    with_help = main(["--help"])
    capsys.readouterr()
    assert with_help == EXIT_OK


# -- experiments --------------------------------------------------------------


def test_max_r_frozen_row(capsys):
    code, out, err = run_cli(capsys, "experiment", "max-r", "--p", "31", "--t", "3")
    assert code == EXIT_OK
    assert err == ""
    assert out == "p,t,max_R,witness\n31,3,4,1 + x + 25*x^4\n"


def test_max_r_budget_exceeded(capsys):
    code, out, err = run_cli(
        capsys, "experiment", "max-r", "--p", "13", "--t", "3", "--budget", "1"
    )
    assert code == EXIT_BUDGET
    assert out == ""
    assert "budget" in err


def test_oversized_orbit_walk_is_bad_input(capsys, monkeypatch):
    def no_walk(n, t):
        raise AssertionError("walked the orbits")

    monkeypatch.setattr(experiments, "_affine_reps", no_walk)
    for command in ("max-r", "conjecture"):
        code, out, err = run_cli(
            capsys, "experiment", command, "--p", "101", "--t", "60", "--budget", str(10**150)
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "orbit walk" in err


def test_negative_budget_is_bad_input(capsys):
    for command in ("max-r", "conjecture"):
        code, out, err = run_cli(
            capsys, "experiment", command, "--p", "7", "--t", "2", "--budget", "-1"
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "non-negative" in err
    code, _, _ = run_cli(
        capsys, "experiment", "max-r", "--p", "7", "--t", "2", "--budget", "0"
    )
    assert code == EXIT_BUDGET


def test_conjecture_table_totals(capsys):
    code, out, err = run_cli(
        capsys, "experiment", "conjecture", "--p", "13", "--t", "3"
    )
    assert code == EXIT_OK
    assert err == ""  # every occupied row passes the gamma = 1/2 bound
    lines = out.strip().split("\n")
    assert lines[0] == "p,t,r,count_all,count_c1,ratio,rhs,gamma,max_R"
    rows = [line.split(",") for line in lines[1:]]
    # 220 exponent triples times 12^3 coefficient choices
    assert sum(int(r[3]) for r in rows) == 380160
    assert all(r[0] == "13" and r[1] == "3" for r in rows)


def test_conjecture_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys,
        "experiment", "conjecture", "--p", "7", "--t", "2", "--out", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("p,t,r,count_all,count_c1,ratio,rhs,gamma,max_R\n")
    assert "7,2,0,180,180," in text


def test_sample_c2_reproducible(capsys):
    argv = (
        "experiment", "sample-c2", "--p", "7",
        "--samples", "2000", "--seed", "1",
    )
    code, first, err = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert err == ""
    doc = json.loads(first)
    assert doc["q"] == 7
    assert doc["samples"] == 2000
    assert doc["seed"] == 1
    assert 0.0 <= doc["estimate"] <= 1.0
    assert doc["estimate"] <= doc["bound"]
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_sample_c2_extension_field(capsys):
    code, out, _ = run_cli(
        capsys,
        "experiment", "sample-c2", "--p", "3", "--k", "2",
        "--samples", "50", "--seed", "4",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["q"] == 9
    assert doc["k"] == 2


def test_root_dist(capsys):
    argv = (
        "experiment", "root-dist", "--p", "7", "--samples", "500", "--seed", "2"
    )
    code, first, err = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert err == ""
    doc = json.loads(first)
    hist = doc["histogram"]
    assert sum(hist.values()) == 500
    assert all(0 <= int(r) <= 6 for r in hist)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_root_dist_field_too_large(capsys):
    code, _, err = run_cli(
        capsys, "experiment", "root-dist", "--p", "4099", "--samples", "10"
    )
    assert code == EXIT_INPUT
    assert "error" in err


# -- module entry point -------------------------------------------------------


def test_python_dash_m_invocation():
    # the checkout's src/ first, so the package runs uninstalled too
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tnomial", "analyze", "--p", "7", "x^3 + 1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["C"] == 3
    runs = [
        subprocess.run(
            [sys.executable, "-m", "tnomial", "analyze", "--p", "7", *dash, "-x+1"],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        for dash in ([], ["--"])
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
