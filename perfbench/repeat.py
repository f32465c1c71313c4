"""Run one workload over several seeds and summarise the spread of each metric.

    python3 perfbench/repeat.py --workload analyze_prime --seeds 1-10 [--seconds 20] [--trace 0]

Each run is a fresh `run.py` process.  Every result line is appended to
perfbench/results/<workload>.jsonl (ignored by git); the summary gives,
per metric, the median, the quartiles as statistics.quantiles(n=4)
computes them, and the quartile spread as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, required=True, help="a seed or a range such as 1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    log = BENCH / "results" / f"{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict = {}
    shares = set()
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=BENCH.parent, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, "trace": args.trace, **result}) + "\n")
        shares.add(result["failed"] / result["attempted"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"failed share per run: {sorted(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2:
            print(f"{name}: {med:.5g}")
            continue
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name}: median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
