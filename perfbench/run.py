"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload analyze_prime --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; tnomial is imported from its src/.
The seed makes the corpus (see corpus.py); the program sees only the
generated inputs.  The corpus runs in whole rounds until --seconds have
passed (at least MIN_ROUNDS rounds), each round in a fresh seeded order.
Every round's output must match the first round's byte for byte, and the
first round's outputs are checked by checks.py after the timed rounds.

End-to-end metrics (--trace 0).  Every time is scaled to reference
speed: multiplied by REF_SECONDS over the time reference() took around
it, so that the machine's own speed drift cancels (see README.md).

  setup_s      median over SETUP_SAMPLES fresh interpreters of the time to
               import tnomial and build every field of the corpus
  wall_s       sum over operations of each operation's median wall time
  cpu_s        the same with process CPU time (all threads)
  op_p50_s     median over operations of each operation's median wall time
  peak_rss_mb  peak resident set of this process after the timed rounds

Raw sums and the median scale factor go to stderr.

Per-layer metrics (--trace 1) come from tracing.py: the value of the
median round, plus the field construction done at set-up.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import corpus
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
SETUP_SAMPLES = 9
# Nominal time of reference() on the reference machine (see README).
REF_SECONDS = 0.018

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import tnomial
for p, k, modulus in {fields!r}:
    if k == 1:
        tnomial.make_prime_field(p)
    else:
        tnomial.make_extension_field(p, k, modulus)
print(time.perf_counter() - t0, tnomial.__file__)
"""


def measure_setup(fields) -> tuple:
    """Set-up time of SETUP_SAMPLES fresh interpreters: the median raw time
    and the median time scaled to reference speed."""
    code = _SETUP_CODE.format(src=str(SRC), fields=[(d.p, d.k, d.modulus) for d in fields])
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        before = reference()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        after = reference()
        seconds, path = done.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported tnomial from {path}, not from {SRC}")
        raw.append(float(seconds))
        scaled.append(float(seconds) * REF_SECONDS / ((before + after) / 2))
    return statistics.median(raw), statistics.median(scaled)


_REF_UNITS = np.arange(1, 1 << 16, dtype=np.int64)


def reference() -> float:
    """Wall time of a fixed piece of work written apart from tnomial, in
    the same mix the program runs: interpreted arithmetic on small tuples
    with dict traffic, numpy modular products over 2**16 units, and many
    small numpy slice updates like those of a dense polynomial gcd."""
    start = time.perf_counter()
    acc, seen = (1, 2, 3, 4), {}
    for i in range(6000):
        acc = tuple((x * y + 3) % 251 for x, y in zip(acc, (i % 7 + 1, 2, 3, 5)))
        seen[acc] = i
    x = _REF_UNITS.copy()
    for _ in range(8):
        x = x * _REF_UNITS % 65537
    r = x[:2048].copy()
    for i in range(100):
        r[1:] -= i * r[:-1] % 65537
        r %= 65537
    return time.perf_counter() - start


def import_tnomial():
    sys.path.insert(0, str(SRC))
    import tnomial
    import tnomial.cli

    if not Path(tnomial.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported tnomial from {tnomial.__file__}, not from {SRC}")
    return tnomial


def make_calls(tn, work: corpus.Corpus, out_dir: Path, tracer):
    """One zero-argument callable per operation, returning the output text."""
    traced = tracer.wrap if tracer else (lambda _name, fn: fn)
    make_prime = traced("field.make_field", tn.make_prime_field)
    make_ext = traced("field.make_field", tn.make_extension_field)
    parse = traced("poly.parse_tnomial", tn.parse_tnomial)
    analyze = traced("report.analyze", tn.analyze)
    render = traced("report.render_json", tn.render_json)
    cli_main = traced("cli.main", tn.cli.main)

    fields = {}
    for d in work.fields:
        fields[d] = make_prime(d.p) if d.k == 1 else make_ext(d.p, d.k, d.modulus)

    def analyze_call(op):
        F = fields[op.field]
        return lambda: render(analyze(parse(F, op.text)))

    def cli_call(op):
        out = out_dir / "out.txt"
        argv = list(op.argv) + ["--out", str(out)]

        def call():
            code = cli_main(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code} from {' '.join(op.argv)}")
            return out.read_text(encoding="utf-8")

        return call

    if isinstance(work.ops[0], corpus.AnalyzeOp):
        return [analyze_call(op) for op in work.ops]
    return [cli_call(op) for op in work.ops]


def run_rounds(calls, seed: int, seconds: float, tracer):
    """Time every call in whole rounds, with the reference loop before the
    first call and after every call.  Returns the round count, per-call
    raw wall times and speed factors, per-call CPU times, first-round
    outputs, failing calls and per-round layer metrics."""
    n = len(calls)
    wall = [[] for _ in range(n)]
    cpu = [[] for _ in range(n)]
    factor = [[] for _ in range(n)]
    outputs = [None] * n
    failures: dict = {}
    layers = []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        order = list(range(n))
        random.Random(f"{seed}:{rounds}").shuffle(order)
        before = reference()
        for i in order:
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = calls[i]()
            except Exception as exc:  # an operation that fails is counted, not fatal
                out = None
                failures.setdefault(i, f"raised {type(exc).__name__}: {exc}")
            c1, w1 = time.process_time(), time.perf_counter()
            after = reference()
            wall[i].append(w1 - w0)
            cpu[i].append(c1 - c0)
            factor[i].append(REF_SECONDS / ((before + after) / 2))
            before = after
            if rounds == 0:
                outputs[i] = out
            elif out != outputs[i] and i not in failures:
                failures[i] = "output differs between rounds"
        if tracer:
            layers.append(tracing.per_layer(*tracer.take()))
        rounds += 1
    return rounds, wall, cpu, factor, outputs, failures, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tnomial" / "__init__.py").is_file():
        print(f"error: no tnomial sources under {SRC}", file=sys.stderr)
        return 2

    work = corpus.generate(args.workload, args.seed)
    setup_raw, setup_s = (None, None) if args.trace else measure_setup(work.fields)
    tn = import_tnomial()
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(tn)
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH) as tmp:
        calls = make_calls(tn, work, Path(tmp), tracer)
        setup_layers = tracing.per_layer(*tracer.take()) if tracer else None
        rounds, wall, cpu, factor, outputs, failures, layers = run_rounds(
            calls, args.seed, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    correct = True
    for i, (op, out) in enumerate(zip(work.ops, outputs)):
        if i in failures:
            continue
        check = checks.check_analyze if isinstance(op, corpus.AnalyzeOp) else checks.check_cli
        try:
            problems = check(op, out)
        except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
            problems = [f"unreadable output ({type(exc).__name__}: {exc})"]
        if problems:
            correct = False
            failures[i] = "; ".join(problems)
    for i, why in sorted(failures.items()):
        print(f"operation {i} failed: {why}", file=sys.stderr)

    def scaled(times):
        return [statistics.median(t * f for t, f in zip(ts, fs)) for ts, fs in zip(times, factor)]

    raw_wall = sum(statistics.median(w) for w in wall)
    per_op = scaled(wall)
    print(f"{rounds} rounds; raw wall_s {raw_wall:.4f}, raw cpu_s "
          f"{sum(statistics.median(c) for c in cpu):.4f}, raw setup_s {setup_raw}, "
          f"median speed factor {statistics.median(f for fs in factor for f in fs):.4f}",
          file=sys.stderr)
    if tracer:
        metrics = {
            name: {"value": setup_layers[name] + statistics.median(r[name] for r in layers),
                   "unit": unit}
            for name, unit, _better in tracing.PER_LAYER
        }
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": sum(per_op), "unit": "s"},
            "cpu_s": {"value": sum(scaled(cpu)), "unit": "s"},
            "op_p50_s": {"value": statistics.median(per_op), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": correct,
        "attempted": len(calls) * rounds,
        "failed": len(failures) * rounds,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
