import json
import math
import random

import pytest

import tnomial.cli as cli
import tnomial.report as report
from tnomial import poly
from tnomial.errors import InternalInvariantError
from tnomial.cosets import _vanishing_cosets
from tnomial.experiments import compute_max_R, conjecture_table
from tnomial.field import make_extension_field, make_prime_field
from tnomial.poly import build, normalize_lowest, parse_tnomial
from tnomial.reduction import degree_reduce
from tnomial.report import (
    SCHEMA_VERSION,
    analyze,
    conjecture_csv,
    element_json,
    field_json,
    format_float,
    max_r_csv,
    render_json,
    report_verdict_failures,
)

F7 = make_prime_field(7)


# -- serialization ------------------------------------------------------------


def test_format_float_pins_12_significant_digits():
    assert format_float(6.0) == "6"
    assert format_float(2 / 3) == "0.666666666667"
    assert format_float(0.5) == "0.5"
    assert format_float(2.0 * 6**0.5) == "4.89897948557"


def test_format_float_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            format_float(bad)


def test_render_json_scalars():
    assert render_json(None) == "null"
    assert render_json(True) == "true"
    assert render_json(False) == "false"
    assert render_json(42) == "42"
    assert render_json(-7) == "-7"
    assert render_json(0.25) == "0.25"
    assert render_json("ab") == '"ab"'


def test_render_json_string_escapes():
    assert render_json('say "hi"') == '"say \\"hi\\""'
    assert render_json("a\\b") == '"a\\\\b"'
    assert render_json("line\nbreak") == '"line\\nbreak"'
    assert render_json("\x01") == '"\\u0001"'
    assert render_json("a\tb") == '"a\\tb"'


def test_render_json_containers():
    assert render_json([]) == "[]"
    assert render_json({}) == "{}"
    assert render_json([1, 2, 3]) == "[1, 2, 3]"
    assert render_json((1, 2)) == "[1, 2]"
    out = render_json({"b": 1, "a": [True, None]})
    # insertion order, not alphabetical
    assert out == '{\n  "b": 1,\n  "a": [true, null]\n}'


def test_render_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        render_json({1, 2})


def test_render_json_output_is_valid_json():
    """The stdlib parser accepts everything the writer emits."""
    report = analyze(parse_tnomial(F7, "x^3 + 1"))
    text = render_json(report)
    loaded = json.loads(text)
    assert loaded["roots"]["bruteforce"] == 3
    assert loaded["params"]["S"] == [1, 3]
    assert loaded["verdicts"]["R_le_bound_C"] is True
    # serialization is a pure function of the report
    assert render_json(report) == text


def test_element_and_field_json():
    assert element_json(F7, 5) == 5
    E = make_extension_field(3, 2, [1, 0, 1])
    assert element_json(E, (1, 2)) == [1, 2]
    assert field_json(E) == {
        "p": 3,
        "k": 2,
        "q": 9,
        "modulus": [1, 0, 1],
        "generator": [1, 1],
    }
    assert field_json(F7)["modulus"] is None


# -- analyze ------------------------------------------------------------------


def test_analyze_binomial_full_report():
    rep = analyze(parse_tnomial(F7, "x^3 + 1"))
    assert rep["schema_version"] == SCHEMA_VERSION
    assert rep["polynomial"] == "1 + x^3"
    assert (rep["t"], rep["degree"]) == (2, 3)
    assert rep["params"] == {"delta": 3, "D": 3, "Q": 3, "K": 3, "S": [1, 3]}
    assert rep["roots"] == {"bruteforce": 3, "gcd_degree": 3}
    assert rep["C"] == 3
    assert rep["C_note"] is None
    assert rep["vanishing_cosets"] == [{"k": 3, "beta": 6, "representative": 3}]
    assert rep["decomposition"] == {"delta": 3, "coset_count": 1, "bound": 2}
    assert rep["reduction"]["root_count"] == 3
    assert rep["reduction"]["M"] == 3
    assert rep["bounds"] == {"bound_C": 6.0, "bound_delta": 6.0, "bound_D": 6.0}
    assert rep["verdicts"] == {
        "R_le_bound_C": True,
        "R_le_bound_D": True,
        "R_le_bound_delta": True,
    }


def test_analyze_prints_the_raw_and_the_normalized_delta(capsys):
    # params.delta is gcd(3, 5, 6) = 1 over the exponents as written; the
    # decomposition and bound_delta use the delta of 1 + x^2, which is 2
    assert cli.main(["analyze", "--p", "7", "x^3 + x^5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["params"]["delta"] == 1
    assert rep["decomposition"]["delta"] == 2
    # 2 * 6**0 * delta at t = 2: delta = 1 would give bound_C's 2
    assert (rep["bounds"]["bound_C"], rep["bounds"]["bound_delta"]) == (2, 4)


def test_analyze_monomial_degrades_to_notes():
    rep = analyze(parse_tnomial(F7, "x^4"))
    assert rep["params"] is None
    assert "two terms" in rep["params_note"]
    assert rep["roots"] == {"bruteforce": 0, "gcd_degree": 0}
    assert rep["C"] == 0
    assert rep["C_note"] == "no nonzero roots at all"
    assert rep["vanishing_cosets"] == []
    assert rep["decomposition"] is None
    assert rep["reduction"] is None
    assert rep["bounds"] is None
    assert rep["verdicts"] == {}


def test_analyze_extension_field():
    E = make_extension_field(3, 2, [1, 0, 1])
    rep = analyze(parse_tnomial(E, "x^3 + x + 1"))
    assert rep["field"]["q"] == 9
    assert rep["roots"] == {"bruteforce": 3, "gcd_degree": 3}
    assert rep["C"] == 1
    assert rep["C_note"] == "roots exist but no full coset of size > 1 vanishes"


@pytest.mark.parametrize(
    "argv",
    [
        ["--p", "7", "x^3 + 1"],
        ["--p", "3", "--k", "2", "x^3 + x + 1"],
        # the oracle runs on the three reduced polynomials, not on f
        ["--p", "31", "23 + 30*x^9"],
    ],
)
def test_analyze_raises_when_the_root_counts_disagree(monkeypatch, capsys, argv):
    # a gcd count one above the scan's is a broken invariant: exit 4
    F = make_prime_field(int(argv[1])) if "--k" not in argv else make_extension_field(3, 2)
    f = parse_tnomial(F, argv[-1])
    roots = poly.count_roots_bruteforce(f)
    assert analyze(f)["roots"]["gcd_degree"] == roots
    monkeypatch.setattr(report, "count_roots_gcd", lambda g: roots + 1)
    with pytest.raises(InternalInvariantError):
        analyze(f)
    assert cli.main(["analyze", *argv]) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gcd oracle" in captured.err


def test_analyze_checks_the_oracle_on_each_reduced_polynomial(monkeypatch, capsys):
    """Off by +1 on h_0 and -1 on h_1, the oracle's sum is still k * R(f),
    but its count for each h_i must match that h_i's scan."""
    argv = ["--p", "31", "23 + 30*x^9"]
    f = parse_tnomial(make_prime_field(31), argv[-1])
    h = degree_reduce(f).reduced_polys
    assert len(h) == 3
    real = report.count_roots_gcd
    off = {h[0].terms: 1, h[1].terms: -1}
    monkeypatch.setattr(report, "count_roots_gcd", lambda g: real(g) + off.get(g.terms, 0))
    with pytest.raises(InternalInvariantError, match="reduced polynomial 0"):
        analyze(f)
    assert cli.main(["analyze", *argv]) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gcd oracle" in captured.err


def _oracle_inputs(monkeypatch, f):
    """analyze(f), and each polynomial the gcd oracle saw, normalized."""
    seen = []
    real = report.count_roots_gcd

    def spy(g):
        seen.append(normalize_lowest(g))
        return real(g)

    monkeypatch.setattr(report, "count_roots_gcd", spy)
    return analyze(f), seen


def test_analyze_keeps_the_oracle_within_2M_on_a_high_degree_f(monkeypatch):
    # an analyze_gcd-like slot: seven terms spanning 5900 of F_6007's units
    F = make_prime_field(6007)
    rng = random.Random(0)
    exps = [0, 5900] + rng.sample(range(1, 5900), 5)
    f = build(F, [(a, rng.randint(1, 6006)) for a in exps])
    rep, seen = _oracle_inputs(monkeypatch, f)
    red = rep["reduction"]
    assert red["k"] == len(seen) == 3
    assert max(g.degree for g in seen) <= 2 * red["M"] < 5900
    assert rep["roots"]["gcd_degree"] == rep["roots"]["bruteforce"] == 3


@pytest.mark.parametrize(
    "p, text, side",
    [
        (7, "6 + x^3", "f"),  # h_0 = 1 + 6*x^3: a tie goes to f
        (13, "12 + x + 3*x^5", "f"),  # k = 2, spans 4 and 4: 32 >= 25
        (31, "23 + 30*x^9", "h"),  # k = 3, spans 3 each: sum 9 = span(f), squares 27 < 81
        (61, "47*x^20 + 3*x^36", "h"),  # k = 4, degrees 8 but spans 4: 64 < 256 = 4 * 8^2
    ],
)
def test_analyze_runs_the_oracle_on_the_side_of_smaller_squared_spans(monkeypatch, p, text, side):
    f = parse_tnomial(make_prime_field(p), text)
    inputs = [f] if side == "f" else degree_reduce(f).reduced_polys
    rep, seen = _oracle_inputs(monkeypatch, f)
    assert [g.terms for g in seen] == [normalize_lowest(g).terms for g in inputs]
    assert rep["roots"]["gcd_degree"] == rep["roots"]["bruteforce"] > 0


def test_analyze_beyond_gcd_limit_keeps_bruteforce():
    F = make_prime_field(65537)
    rep = analyze(parse_tnomial(F, "x^2 + 1"))
    assert rep["roots"]["bruteforce"] == 2
    assert rep["roots"]["gcd_degree"] is None
    assert "too large" in rep["roots"]["gcd_note"]
    assert rep["C"] == 2
    assert rep["verdicts"]["R_le_bound_C"] is True


def test_analyze_beyond_scan_limit_reports_nothing_numeric():
    F = make_prime_field(4194319)
    rep = analyze(parse_tnomial(F, "x^2 + 1"))
    assert rep["roots"]["bruteforce"] is None
    assert rep["roots"]["gcd_degree"] is None
    assert rep["C"] is None
    assert rep["vanishing_cosets"] is None
    assert rep["decomposition"] is None
    assert rep["reduction"] is None
    assert rep["bounds"] is None
    assert rep["verdicts"] == {}
    # parameters only need exponent arithmetic, so they survive
    assert rep["params"]["delta"] == 2  # gcd(2, q-1) with q-1 even


def test_analyze_builds_one_root_mask_per_report(monkeypatch):
    """One mask for f, one per reduced polynomial, none past the scan limit."""
    calls = []
    real = poly.root_mask
    monkeypatch.setattr(poly, "root_mask", lambda *a: calls.append(1) or real(*a))

    def scans(f):
        calls.clear()
        rep = analyze(f)
        return len(calls), rep

    count, rep = scans(parse_tnomial(make_prime_field(13), "1 + x^4 + x^8"))
    assert rep["C"] == 4
    assert count == 1 + rep["reduction"]["k"]
    rng = random.Random(5)
    E = make_extension_field(2, 6)
    for _ in range(5):
        exps = rng.sample(range(E.q - 1), rng.randint(2, 5))
        f = build(E, [(a, E.element_from_int(rng.randint(1, E.q - 1))) for a in exps])
        count, rep = scans(f)
        assert count == 1 + rep["reduction"]["k"]
    count, rep = scans(parse_tnomial(F7, "3*x^4"))
    assert (count, rep["reduction"]) == (1, None)
    count, rep = scans(parse_tnomial(make_prime_field(4194319), "x^2 + 1"))
    assert (count, rep["C"]) == (0, None)


def test_analyze_searches_each_coset_size_once(monkeypatch):
    """C is read off the witness list: one coset search per k in S, k > 1."""
    calls = []

    def counted(fn, mask, k):
        calls.append(k)
        return _vanishing_cosets(fn, mask, k)

    monkeypatch.setattr("tnomial.cosets._vanishing_cosets", counted)
    monkeypatch.setattr("tnomial.report._vanishing_cosets", counted)
    E = make_extension_field(3, 2)
    for f, C in [
        (parse_tnomial(make_prime_field(13), "1 + x^4 + x^8"), 4),
        (parse_tnomial(make_prime_field(13), "1 + 12*x^6"), 6),
        (parse_tnomial(make_prime_field(13), "1 + x^4 + x^6 + 6*x^10"), 2),
        (parse_tnomial(make_prime_field(13), "1 + x + x^6 + 4*x^7"), 1),
        (build(E, [(0, 1), (2, E.element_from_int(5)), (4, 1), (6, 2)]), 0),
    ]:
        calls.clear()
        rep = analyze(f)
        assert calls == [k for k in rep["params"]["S"] if k > 1], f
        assert rep["C"] == C, f


def test_report_verdict_failures():
    assert report_verdict_failures({}) == []
    assert report_verdict_failures({"verdicts": {}}) == []
    rep = {"verdicts": {"a": True, "b": False, "c": None, "d": False}}
    assert report_verdict_failures(rep) == ["b", "d"]


# -- CSV ----------------------------------------------------------------------


def test_conjecture_csv_frozen():
    text = conjecture_csv(conjecture_table(5, 2))
    assert text == (
        "p,t,r,count_all,count_c1,ratio,rhs,gamma,max_R\n"
        "5,2,0,16,16,0.2,1,0.5,1\n"
        "5,2,1,64,64,0.8,1,0.5,1\n"
        "5,2,2,16,0,0,0.707106781187,0.5,1\n"
    )


def test_max_r_csv_frozen():
    text = max_r_csv(7, 3, compute_max_R(7, 3))
    assert text == "p,t,max_R,witness\n7,3,2,1 + x + x^2\n"


def test_csv_is_deterministic():
    records = conjecture_table(7, 3)
    assert conjecture_csv(records) == conjecture_csv(records)
    assert conjecture_csv(records).endswith("\n")
