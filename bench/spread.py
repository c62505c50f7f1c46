"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage:
    python3 bench/spread.py --workload NAME --seeds 1-10 [--seconds S]

Runs bench/run.py once per seed, one run at a time, and prints for every
metric its median, quartiles, and the quartile distance as a share of the
median, next to the metric's bound from BENCHMARK.json. The raw results go
to .bench_out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
    out = ROOT / ".bench_out" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=2) + "\n", encoding="utf-8")

    print(f"{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = quantiles(values, n=4)
        mid = median(values)
        print(f"{name:16} {mid:12.5g} {q1:12.5g} {q3:12.5g} {(q3 - q1) / mid:8.3f} "
              f"{bounds.get(name, float('nan')):6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
