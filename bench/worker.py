"""One pass of a workload in a fresh interpreter.

Usage: python3 bench/worker.py PLAN OUT TRACE

PLAN is a JSON list of argv lists. Each is run through the real entry point,
`circgraph.cli.main`, in this process, one at a time and in order, with
stdout and stderr captured. OUT receives the pass wall time, the peak
resident memory, each operation's latency, exit code and output, and, when
TRACE is 1, the spans recorded around each layer.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402


def peak_rss_kib() -> int:
    """VmHWM, the high-water mark of this process's own memory map. Unlike
    getrusage's ru_maxrss it starts afresh at exec, so it does not carry
    over the resident size of the process that spawned this one."""
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(plan_path: str, out_path: str, trace: bool) -> None:
    argvs = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    from circgraph import canonical, census, circular, cli, fileio

    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install(
            {"cli": cli, "fileio": fileio, "circular": circular,
             "canonical": canonical, "census": census}
        )
    ops = []
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # an internal failure counts against the operation
            code, error = None, f"{type(exc).__name__}: {exc}"
        ops.append({"ms": (time.perf_counter() - t0) * 1e3, "exit": code,
                    "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error})
    wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "peak_rss_mib": peak_rss_kib() / 1024,
        "ops": ops,
        "spans": tracer.spans if tracer else None,
    }
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")
