"""Command-line front end.

Two top-level commands:

  analyze     structural report for one polynomial, as JSON
  experiment  enumeration and sampling runs, as CSV or JSON

Outputs are byte-deterministic for identical flags and seeds.  Exit
codes: 0 success, 2 bad input (any TNomialError), 3 work budget
exceeded, 4 internal error: a broken invariant (e.g. a bound verdict
came back false, which would contradict a proved inequality) or any
other unexpected exception.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .errors import (
    BudgetExceeded,
    InternalInvariantError,
    ParseError,
    TNomialError,
    UnwritableOutput,
)
from .experiments import (
    DEFAULT_WORK_BUDGET,
    compute_max_R,
    conjecture_table,
    root_distribution_sample,
    sample_vanishing_proportion,
)
from .field import FieldSpec, make_extension_field, make_prime_field
from .poly import parse_tnomial
from .report import (
    SCHEMA_VERSION,
    analyze,
    conjecture_csv,
    max_r_csv,
    render_json,
    report_verdict_failures,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand parser that reads a word starting with one '-', such
    as the polynomial '-x+1', as an argument rather than as an unknown
    option.  Every subcommand option but -h is spelt with two dashes."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] not in ("", "-", "h"):
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnomial",
        description="Exact root-structure analysis of sparse polynomials over F_q.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    pa = sub.add_parser("analyze", help="full structural report for one polynomial")
    pa.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    pa.add_argument("--k", type=int, default=1, help="extension degree (default 1)")
    pa.add_argument(
        "--modulus",
        default=None,
        help="extension modulus coefficients, ascending, comma-separated (e.g. 1,0,1)",
    )
    pa.add_argument("--out", default=None, help="write output here instead of stdout")
    pa.add_argument("polynomial", help="polynomial text, e.g. 'x^3 + 1' or '2*x^5 + [1,2]*x + 3'")
    pa.set_defaults(func=cmd_analyze)

    pe = sub.add_parser("experiment", help="enumeration and sampling experiments")
    esub = pe.add_subparsers(dest="subcommand", required=True)

    pm = esub.add_parser("max-r", help="largest root count over the C <= 1 family")
    pm.add_argument("--p", type=int, required=True)
    pm.add_argument("--t", type=int, required=True)
    pm.add_argument("--budget", type=int, default=DEFAULT_WORK_BUDGET)
    pm.add_argument("--out", default=None)
    pm.set_defaults(func=cmd_max_r)

    pc = esub.add_parser("conjecture", help="root-count distribution table with bound checks")
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--t", type=int, required=True)
    pc.add_argument("--gamma", type=float, default=0.5)
    pc.add_argument("--budget", type=int, default=DEFAULT_WORK_BUDGET)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_conjecture)

    ps = esub.add_parser("sample-c2", help="sampled proportion of coset-vanishing polynomials")
    ps.add_argument("--p", type=int, required=True)
    ps.add_argument("--k", type=int, default=1)
    ps.add_argument("--modulus", default=None)
    ps.add_argument("--samples", type=int, default=10000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_sample_c2)

    pr = esub.add_parser("root-dist", help="sampled root-count histogram of dense polynomials")
    pr.add_argument("--p", type=int, required=True)
    pr.add_argument("--samples", type=int, default=10000)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_root_dist)

    return parser


def _make_field(p: int, k: int, modulus_text) -> FieldSpec:
    if k == 1:
        if modulus_text is not None:
            raise ParseError("--modulus only applies to extension fields (k >= 2)")
        return make_prime_field(p)
    modulus = None
    if modulus_text is not None:
        try:
            modulus = [int(c) for c in str(modulus_text).split(",")]
        except ValueError:
            raise ParseError(f"bad modulus {modulus_text!r}: expected comma-separated integers") from None
    return make_extension_field(p, k, modulus)


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        fh = open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise UnwritableOutput(f"cannot write --out {out}: {exc.strerror}") from None
    with fh:
        fh.write(text)


def cmd_analyze(args) -> int:
    field = _make_field(args.p, args.k, args.modulus)
    f = parse_tnomial(field, args.polynomial)
    report = analyze(f)
    _emit(render_json(report) + "\n", args.out)
    failures = report_verdict_failures(report)
    if failures:
        print(f"internal error: bound verdicts failed: {', '.join(failures)}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_max_r(args) -> int:
    result = compute_max_R(args.p, args.t, budget=args.budget)
    _emit(max_r_csv(args.p, args.t, result), args.out)
    return EXIT_OK


def cmd_conjecture(args) -> int:
    records = conjecture_table(args.p, args.t, gamma=args.gamma, budget=args.budget)
    _emit(conjecture_csv(records), args.out)
    failing = [rec.r for rec in records if rec.count_c1 > 0 and not rec.passes_bound()]
    if failing:
        # an empirical bound check failing is a finding, not a crash
        print(f"note: ratio bound fails at r = {failing}", file=sys.stderr)
    return EXIT_OK


def cmd_sample_c2(args) -> int:
    field = _make_field(args.p, args.k, args.modulus)
    est = sample_vanishing_proportion(field, args.samples, seed=args.seed)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "p": field.p,
        "k": field.k,
        "q": field.q,
        "samples": args.samples,
        "seed": args.seed,
        "estimate": est.estimate,
        "bound": est.bound,
    }
    _emit(render_json(doc) + "\n", args.out)
    return EXIT_OK


def cmd_root_dist(args) -> int:
    hist = root_distribution_sample(args.p, args.samples, seed=args.seed)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "p": args.p,
        "samples": args.samples,
        "seed": args.seed,
        "histogram": {str(r): c for r, c in hist.items()},
    }
    _emit(render_json(doc) + "\n", args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except TNomialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # input errors are all TNomialError: this is a bug
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
