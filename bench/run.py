"""circgraph benchmark: one command per workload, answers checked by an oracle.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload's fixed list of `circgraph`
commands runs in rounds, each on inputs generated from the seed into
.bench_out/ before the round starts. A round runs each group of commands
as a pass in a fresh interpreter (bench/worker.py) that calls
`circgraph.cli.main` in-process, one command at a time: one caller, closed
loop, no threads. Rounds repeat for about S seconds. Every answer
is checked against bench/oracle.py, which does not use circgraph.

With --trace 0 the end-to-end metrics are printed; with --trace 1 every
pass runs untraced and then traced, and the per-layer split is printed.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A record of the run, with the machine, Python version, revision
and seed, goes to .bench_out/<run>/record.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

import oracle
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RUN_LIMIT_S = 170  # a run must exit within 180 s
# Set-up samples taken before each round, so that together they span the
# run: a verify-corpus or iso-pairs round is one pass of several seconds, a
# census round two passes of under a second each.
SETUP_PER_ROUND = {"verify-corpus": 3, "iso-pairs": 3, "census": 1}
SETUP_CODE = "import time, circgraph.cli\ncircgraph.cli.build_parser()\nprint(time.monotonic())"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(count: int) -> list[float]:
    """Times from spawning a fresh interpreter until it has imported
    circgraph and built the CLI parser: the cost every invocation pays."""
    times = []
    for _ in range(count):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout) - start)
    return times


def run_pass(plan: Path, out: Path, trace: bool, deadline: float) -> dict:
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan), str(out), "1" if trace else "0"],
        cwd=ROOT, env=child_env(), check=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    return json.loads(out.read_text(encoding="utf-8"))


class Checker:
    """Compares each operation's exit code and parsed stdout with the oracle."""

    def __init__(self):
        self._texts: dict[str, str] = {}
        self._graphs: dict = {}

    def text(self, path: str) -> str:
        if path not in self._texts:
            self._texts[path] = (ROOT / path).read_text(encoding="utf-8")
        return self._texts[path]

    def graph(self, path: str):
        if path not in self._graphs:
            self._graphs[path] = oracle.file_graph(json.loads(self.text(path)))
        return self._graphs[path]

    def problem(self, expect: dict, result: dict) -> str | None:
        if result["error"]:
            return result["error"]
        if result["exit"] != expect["exit"]:
            return f"exit code {result['exit']}, expected {expect['exit']}: {result['stderr'][-300:]}"
        try:
            out = json.loads(result["stdout"])
        except ValueError:
            return "stdout is not one JSON object"
        if expect["kind"] == "verify":
            return oracle.check_verify(out, expect, self.text(expect["file"]))
        if expect["kind"] == "iso":
            a, b = expect["files"]
            return oracle.check_iso(out, expect, self.graph(a), self.graph(b))
        return oracle.check_census(out, expect["classes"], expect["u_size"])


def op_latency(per_pass: list[list[float]]) -> tuple[float, float, float]:
    """Median latency and tail latency of a pass's operations, each the mean
    over passes, and the tail's percentile: the highest one with at least
    ten operations of a pass above it. A pass times one stretch of a
    machine whose speed drifts; the mean weighs every stretch of the run,
    where a percentile of all passes pooled jumps with the share of slow
    stretches."""
    n = len(per_pass[0])
    if n <= 10:
        raise ValueError(f"a pass of {n} operations has no percentile with ten above it")
    q = (n - 10) / n
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    medians, tails = [], []
    for ms in per_pass:
        ordered = sorted(ms)
        medians.append(median(ordered))
        tails.append(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))
    return mean(medians), mean(tails), 100.0 * q


def revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "circgraph" / "__init__.py").is_file():
        print(f"error: no circgraph source tree at {ROOT / 'src' / 'circgraph'}", file=sys.stderr)
        return 2
    began = time.monotonic()
    deadline = began + RUN_LIMIT_S

    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    rng = random.Random(f"{args.workload}/{args.seed}")
    seen: dict = {}  # every graph of the run, so no input repeats across rounds either
    hostile = None
    if args.workload == "iso-pairs":
        hostile = workloads.hostile_pair(workloads.Plan(ROOT, work / "in", seen), rng)

    measure_setup(1)  # the first interpreter writes the bytecode caches
    setup_times: list[float] = []
    plans: list[workloads.Plan] = []
    passes: list[dict] = []
    round_s: list[float] = []
    timed_from = time.monotonic()
    # Another round starts while the run would end nearer to S with it than
    # without it, so that runs last about S seconds whatever a round costs.
    while not round_s or time.monotonic() - timed_from + mean(round_s) / 2 < args.seconds:
        round_from = time.monotonic()
        # Each round gets fresh inputs, generated before its passes: what an
        # iso or verify call costs depends on the labeling and on which
        # switch was drawn, so a run samples several draws, not one.
        plan = workloads.Plan(ROOT, work / "in", seen)
        workloads.BUILDERS[args.workload](plan, rng)
        plans.append(plan)
        for g, group in enumerate(plan.groups):
            argvs = work / f"plan{len(plans) - 1}-{g}.json"
            argvs.write_text(json.dumps([op["argv"] for op in group["ops"]]), encoding="utf-8")
        if not args.trace:
            setup_times += measure_setup(SETUP_PER_ROUND[args.workload])
        for g in range(len(plan.groups)):
            for traced in (False, True) if args.trace else (False,):
                p = run_pass(work / f"plan{len(plans) - 1}-{g}.json",
                             work / f"pass{len(passes):03d}.json", traced, deadline)
                passes.append({**p, "planned": plan.groups[g]["ops"], "group": g, "traced": traced})
        round_s.append(time.monotonic() - round_from)

    checker = Checker()
    attempted = failed = 0
    failures = []
    for p in passes:
        for op, result in zip(p["planned"], p["ops"]):
            attempted += 1
            problem = checker.problem(op["expect"], result)
            if problem:
                failed += 1
                failures.append({"op": op["name"], "argv": op["argv"], "problem": problem})

    known_failures = []
    if hostile is not None:
        # Untimed, after the timed rounds, through the same worker.
        (work / "hostile.json").write_text(json.dumps([hostile["argv"]]), encoding="utf-8")
        result = run_pass(work / "hostile.json", work / "hostile-out.json", False,
                          deadline)["ops"][0]
        problem = checker.problem(hostile["expect"], result)
        if problem:
            known_failures.append({"op": hostile["name"], "argv": hostile["argv"],
                                   "problem": problem.splitlines()[0]})

    def by_group(traced: bool) -> list[list[dict]]:
        return [[p for p in passes if p["group"] == g and p["traced"] == traced]
                for g in range(len(plan.groups))]

    def round_wall(groups: list[list[dict]]) -> float:
        # The mean, not the median: each pass times one stretch of a machine
        # whose speed drifts, and the mean weighs every stretch of the run.
        return sum(mean(p["wall_s"] for p in ps) for ps in groups)

    untraced = by_group(False)
    info: dict = {"rounds": len(plans), "passes": len(passes),
                  "ops_per_round": sum(len(g["ops"]) for g in plan.groups),
                  "failed_share": failed / attempted}
    if args.trace:
        traced = by_group(True)
        per_group = [
            spans.median_layers([
                spans.layer_metrics(p["spans"],
                                    sum(len(o["stdout"].encode("utf-8")) for o in p["ops"]))
                for p in ps
            ])
            for ps in traced
        ]
        values = spans.combine_groups(per_group)
        values["trace.overhead_s"] = round_wall(traced) - round_wall(untraced)
        units = spans.LAYER_UNITS
    else:
        if args.workload == "census":
            # One named operation per group: the circular census stands for
            # the median operation, the longer tree census for the tail.
            # Each is the mean over its passes: a pass is short enough to
            # land wholly in a slow or a fast moment of the machine, and a
            # median of such samples jumps between the two levels with the
            # share of slow moments, where the mean follows that share.
            circular_ms = mean(p["ops"][0]["ms"] for p in untraced[0])
            trees_ms = mean(p["ops"][0]["ms"] for p in untraced[1])
            p50, tail = circular_ms, trees_ms
            info["enum_circular_s"], info["enum_trees_s"] = circular_ms / 1e3, trees_ms / 1e3
        else:
            p50, tail, pct = op_latency([[o["ms"] for o in p["ops"]] for p in untraced[0]])
            info["op_tail_percentile"] = round(pct, 1)
        values = {
            "wall_s": round_wall(untraced),
            "op_p50_ms": p50,
            "op_tail_ms": tail,
            "setup_s": median(setup_times),
            "peak_rss_mib": max(median(p["peak_rss_mib"] for p in ps) for ps in untraced),
        }
        units = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s",
                 "peak_rss_mib": "MiB"}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_revision": revision(), "source_sha256": source_digest(),
        "metrics": metrics, **info, "known_failures": known_failures,
        "failures": failures[:20], "run_s": time.monotonic() - began,
    }
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, m in metrics.items():
        print(f"{name:42} {m['value']:14.6g} {m['unit']}")
    for key in sorted(info):
        print(f"{key:42} {info[key]}")
    for f in failures[:5]:
        print(f"FAILED {f['op']}: {f['problem']}")
    for f in known_failures:
        print(f"known failure, not a timed operation: {f['op']}: {f['problem']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
