"""Write the golden CLI corpus: expected stdout bytes and exit codes.

Each case is one command line.  Its stdout goes to <name>.out and its
exit code to cases.json; tests/test_golden.py replays every case and
compares both.  Stderr is not recorded: messages may be reworded, the
exit code says what kind of failure it was.

Regenerating rewrites the expectations from whatever the code does now,
so do it only on a commit whose output is trusted, and record that
commit in CHANGES.md:

    PYTHONPATH=src python tests/golden/generate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

CASES = [
    # -- analyze over prime fields, t = 1..6 ---------------------------------
    ("analyze_p2_t1", ["analyze", "--p", "2", "x"]),
    ("analyze_p7_t1", ["analyze", "--p", "7", "x^4"]),
    ("analyze_p7_t2", ["analyze", "--p", "7", "x^3 + 1"]),
    ("analyze_p13_t3", ["analyze", "--p", "13", "3*x^7 + x^2 + 5"]),
    ("analyze_p13_planted_t3", ["analyze", "--p", "13", "1 + x^4 + x^8"]),
    ("analyze_p31_t4", ["analyze", "--p", "31", "x^10 + 2*x^5 + 3*x^3 + 1"]),
    ("analyze_p97_planted_t3", ["analyze", "--p", "97", "16 + 80*x^8 + x^16"]),
    ("analyze_p97_planted_t4", ["analyze", "--p", "97", "1 + 22*x^12 + 75*x^24 + x^36"]),
    ("analyze_p101_t5", ["analyze", "--p", "101", "7*x^90 + x^45 + 3*x^20 + 50*x^7 + 2"]),
    ("analyze_p257_t6", ["analyze", "--p", "257", "x^200 + 5*x^128 + 9*x^64 + 3*x^33 + 100*x + 1"]),
    ("analyze_p4093_t6", ["analyze", "--p", "4093", "x^4000 + 17*x^2046 + 3*x^1023 + x^99 + 2*x^5 + 1"]),
    ("analyze_p65537_t3", ["analyze", "--p", "65537", "x^5 + 3*x^2 + 1"]),
    ("analyze_p4194319_null", ["analyze", "--p", "4194319", "x^5 + 3*x^2 + 1"]),
    # -- analyze over extension fields, t = 1..6 -----------------------------
    ("analyze_f4_t1", ["analyze", "--p", "2", "--k", "2", "[0,1]*x^2"]),
    ("analyze_f4_t3", ["analyze", "--p", "2", "--k", "2", "x^2 + x + 1"]),
    ("analyze_f8_t3", ["analyze", "--p", "2", "--k", "3", "x^3 + x + 1"]),
    ("analyze_f9_modulus", ["analyze", "--p", "3", "--k", "2", "--modulus", "1,0,1", "x^3 + x + 1"]),
    ("analyze_f16_modulus_t4", ["analyze", "--p", "2", "--k", "4", "--modulus", "1,0,0,1,1", "x^7 + x^3 + x + 1"]),
    ("analyze_f25_t2", ["analyze", "--p", "5", "--k", "2", "x^12 + 4"]),
    ("analyze_f27_t5", ["analyze", "--p", "3", "--k", "3", "x^20 + [1,1]*x^13 + [0,2,1]*x^7 + 2*x^2 + [0,1]"]),
    ("analyze_f49_t6", ["analyze", "--p", "7", "--k", "2", "x^40 + [1,2]*x^30 + 3*x^24 + [0,5]*x^16 + x^8 + [6,6]"]),
    ("analyze_f81_planted_m4", ["analyze", "--p", "3", "--k", "4", "[0,1,2,2] + [1,1,2,2]*x^4 + x^8"]),
    ("analyze_f81_planted_m10", ["analyze", "--p", "3", "--k", "4", "[1,2,1,1] + x^10 + [1,2,1,1]*x^20 + x^30"]),
    ("analyze_f81_planted_m8", ["analyze", "--p", "3", "--k", "4", "[2,0,2,0] + [1,2,2,0]*x^8 + [0,0,1,0]*x^16 + [0,1,1,2]*x^24 + x^32"]),
    ("analyze_f64_planted_m3", ["analyze", "--p", "2", "--k", "6", "[0,1,1,0,1,1] + [0,1,0,1,1,0]*x^3 + x^6"]),
    ("analyze_f64_planted_m7", ["analyze", "--p", "2", "--k", "6", "[1,1,0,1,1,1] + [0,1,0,1,0,1]*x^7 + [0,0,0,0,1,0]*x^14 + x^21"]),
    ("analyze_f64_planted_m9", ["analyze", "--p", "2", "--k", "6", "[0,0,0,1,1,0] + [1,1,1,0,1,0]*x^9 + [0,1,1,0,1,0]*x^18 + x^36"]),
    ("analyze_f64_planted_shifted_t6", ["analyze", "--p", "2", "--k", "6", "[1,1,0,1,1,1] + [0,1,0,1,0,1]*x^7 + x^21 + [1,1,0,1,1,1]*x^5 + [0,1,0,1,0,1]*x^12 + x^26"]),
    ("analyze_f243_t3", ["analyze", "--p", "3", "--k", "5", "x^121 + [0,1]*x^11 + 2"]),
    # -- experiments ----------------------------------------------------------
    ("maxr_p7_t1", ["experiment", "max-r", "--p", "7", "--t", "1"]),
    ("maxr_p13_t2", ["experiment", "max-r", "--p", "13", "--t", "2"]),
    ("maxr_p31_t3", ["experiment", "max-r", "--p", "31", "--t", "3"]),
    ("maxr_p11_t4", ["experiment", "max-r", "--p", "11", "--t", "4"]),
    ("maxr_p61_t3", ["experiment", "max-r", "--p", "61", "--t", "3"]),
    ("maxr_p101_t3", ["experiment", "max-r", "--p", "101", "--t", "3"]),
    ("maxr_p17_t4", ["experiment", "max-r", "--p", "17", "--t", "4"]),
    ("conjecture_p7_t2", ["experiment", "conjecture", "--p", "7", "--t", "2"]),
    ("conjecture_p13_t3", ["experiment", "conjecture", "--p", "13", "--t", "3"]),
    ("conjecture_p11_t4_gamma", ["experiment", "conjecture", "--p", "11", "--t", "4", "--gamma", "0.75"]),
    ("conjecture_p7_t5", ["experiment", "conjecture", "--p", "7", "--t", "5"]),
    ("conjecture_p31_t4", ["experiment", "conjecture", "--p", "31", "--t", "4"]),
    ("conjecture_p17_t5", ["experiment", "conjecture", "--p", "17", "--t", "5"]),
    ("samplec2_p13", ["experiment", "sample-c2", "--p", "13", "--samples", "2000", "--seed", "3"]),
    ("samplec2_p257", ["experiment", "sample-c2", "--p", "257", "--samples", "500", "--seed", "1"]),
    ("samplec2_f8_modulus", ["experiment", "sample-c2", "--p", "2", "--k", "3", "--modulus", "1,0,1,1", "--samples", "500", "--seed", "4"]),
    ("samplec2_f9", ["experiment", "sample-c2", "--p", "3", "--k", "2", "--samples", "1000", "--seed", "5"]),
    ("samplec2_f16", ["experiment", "sample-c2", "--p", "2", "--k", "4", "--samples", "2000", "--seed", "2"]),
    ("samplec2_f25", ["experiment", "sample-c2", "--p", "5", "--k", "2", "--samples", "1000", "--seed", "6"]),
    ("samplec2_f81", ["experiment", "sample-c2", "--p", "3", "--k", "4", "--samples", "200", "--seed", "7"]),
    ("samplec2_p31", ["experiment", "sample-c2", "--p", "31", "--samples", "1000", "--seed", "2"]),
    ("samplec2_p61", ["experiment", "sample-c2", "--p", "61", "--samples", "1000", "--seed", "1"]),
    ("samplec2_f27", ["experiment", "sample-c2", "--p", "3", "--k", "3", "--samples", "500", "--seed", "3"]),
    ("samplec2_f125", ["experiment", "sample-c2", "--p", "5", "--k", "3", "--samples", "500", "--seed", "2"]),
    ("samplec2_f343", ["experiment", "sample-c2", "--p", "7", "--k", "3", "--samples", "500", "--seed", "6"]),
    ("rootdist_p7", ["experiment", "root-dist", "--p", "7", "--samples", "500", "--seed", "2"]),
    ("rootdist_p101", ["experiment", "root-dist", "--p", "101", "--samples", "500", "--seed", "0"]),
    ("rootdist_p2", ["experiment", "root-dist", "--p", "2", "--samples", "10", "--seed", "1"]),
    ("rootdist_p3", ["experiment", "root-dist", "--p", "3", "--samples", "50", "--seed", "1"]),
    ("rootdist_p1021", ["experiment", "root-dist", "--p", "1021", "--samples", "9000", "--seed", "4"]),
    ("rootdist_p4093", ["experiment", "root-dist", "--p", "4093", "--samples", "60", "--seed", "5"]),
    # -- bad input (exit 2) and budget (exit 3) ------------------------------
    ("err_no_arguments", ["analyze"]),
    ("err_not_prime", ["analyze", "--p", "6", "x + 1"]),
    ("err_parse", ["analyze", "--p", "7", "x^^2"]),
    ("err_zero_function", ["analyze", "--p", "7", "x^6 - 1"]),
    ("err_zero_function_p2", ["analyze", "--p", "2", "x + 1"]),
    ("err_degree_zero", ["analyze", "--p", "3", "--k", "0", "x + 1"]),
    ("err_modulus_on_prime", ["analyze", "--p", "7", "--modulus", "1,0,1", "x + 1"]),
    ("err_reducible_modulus", ["analyze", "--p", "3", "--k", "2", "--modulus", "2,0,1", "x + 1"]),
    ("err_extension_too_large", ["analyze", "--p", "2", "--k", "21", "x + 1"]),
    ("err_gamma_nan", ["experiment", "conjecture", "--p", "7", "--t", "2", "--gamma", "nan"]),
    ("err_gamma_inf", ["experiment", "conjecture", "--p", "7", "--t", "2", "--gamma", "inf"]),
    ("err_bad_t", ["experiment", "max-r", "--p", "5", "--t", "5"]),
    ("err_budget", ["experiment", "max-r", "--p", "13", "--t", "3", "--budget", "1"]),
    ("err_samples_zero", ["experiment", "sample-c2", "--p", "7", "--samples", "0"]),
    ("err_sample_seed_negative", ["experiment", "sample-c2", "--p", "7", "--samples", "10", "--seed", "-1"]),
    ("err_sample_field_too_large", ["experiment", "sample-c2", "--p", "3", "--k", "8", "--samples", "10"]),
    ("err_rootdist_seed_negative", ["experiment", "root-dist", "--p", "7", "--samples", "10", "--seed", "-1"]),
    ("err_rootdist_too_large", ["experiment", "root-dist", "--p", "4099", "--samples", "10"]),
]


def run_case(argv) -> tuple:
    """(exit code, stdout text) of one in-process CLI run."""
    from tnomial.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def main() -> None:
    index = []
    for name, argv in CASES:
        code, text = run_case(argv)
        (HERE / f"{name}.out").write_text(text, encoding="utf-8", newline="")
        index.append({"name": name, "argv": argv, "exit": code})
        print(f"{name}: exit {code}, {len(text.encode())} bytes")
    with open(HERE / "cases.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(index, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    main()
