"""Benchmark of the qgenocchi CLI: cold report time per workload, plus a traced
per-layer breakdown.  Standard library only; the package runs from `src/`.

Run from the repository root:

    python3 perfbench/run.py --workload verify-4x4 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

`--trace 0` runs a closed loop with one client, one child at a time, for
`--seconds` seconds.  Each cycle runs, in an order the seed picks, one cold
`python -m qgenocchi <cmd>` report, one cold `python -m qgenocchi --version`
set-up probe and one cold run of `reference.py`, a fixed standard-library
computation.  Every `lru_cache` in the package is unbounded, so only a fresh
process shows the cost a user pays.  Metrics: `report_s` and `setup_s`, the
median over cycles of the child's spawn-to-exit wall time divided by the
cycle's reference time, times REF_SECONDS (seconds at the baseline host's
speed; see REF_SECONDS), and `peak_rss_mb`, the median of the report
children's `ru_maxrss`.  The raw medians are printed beside them.

`--trace 1` alternates untraced cold children with traced ones
(`perfbench/tracer.py`) and prints the per-layer metrics (medians over the
traced runs) and `trace_overhead`, traced over untraced wall time.

Every child's exit code, report byte count and sha256 are checked against
the golden values in `workloads.py`; a mismatch fails the run, and
fail_ratio = failed / attempted.  The grids are deterministic, so the seed
only orders the runs within each cycle.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import REFERENCE_GOLDEN, SETUP_ARGV, SETUP_GOLDEN, WORKLOADS, Golden

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracer.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

# Scale of every reported time.  On a shared host a cold process runs up to a
# third faster or slower than the next one, and the host drifts between fast
# and slow phases lasting minutes.  A cold run of `reference.py` (standard
# library only, independent of qgenocchi) next to each report moves with the
# host, so each report and set-up time is divided by its cycle's reference
# time: the median of those ratios times REF_SECONDS gives seconds on a host
# where the reference takes REF_SECONDS, its median on the baseline host.
# Changing REF_SECONDS rescales every time metric.
REF_SECONDS = 0.15
# A tail percentile is printed only with this many samples beyond it.
TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Child:
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    """The caller's environment without Python or qgenocchi settings.

    `Poly.__init__` re-reads QGL_MAX_DEGREE on every construction, so a stray
    value would change behaviour; PYTHON* variables could redirect imports or
    bytecode caching.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "QGL_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd: list[str], env: dict[str, str]) -> Child:
    """Spawn one child, read its output and reap it; time spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT
    )
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return Child(wall_s, usage.ru_maxrss / 1024, proc.returncode, out, err)


def matches(exit_code: int, size: int, sha256: str, golden: Golden, label: str) -> bool:
    ok = (exit_code, size, sha256) == (golden.exit_code, golden.size, golden.sha256)
    if not ok:
        print(
            f"perfbench: {label}: exit {exit_code}, {size} bytes, sha256 {sha256[:12]}; "
            f"expected exit {golden.exit_code}, {golden.size} bytes, "
            f"sha256 {golden.sha256[:12]}",
            file=sys.stderr,
        )
    return ok


def checked(child: Child, golden: Golden, label: str) -> bool:
    sha = hashlib.sha256(child.stdout).hexdigest()
    ok = matches(child.exit_code, len(child.stdout), sha, golden, label)
    if not ok and child.stderr:
        print(child.stderr.decode(errors="replace")[-2000:], file=sys.stderr)
    return ok


def tail_note(values: list[float]) -> str:
    """Highest percentile with at least TAIL_SAMPLES samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= TAIL_SAMPLES:
            return f"p{p:g} {ordered[int(n * p / 100)]:.4f} s"
    return f"no percentile has {TAIL_SAMPLES} samples beyond it"


class Tally:
    """Attempted and failed runs of one workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def note(self) -> str:
        return f"fail_ratio {self.failed / self.attempted:g} ({self.failed}/{self.attempted} runs)"


def measure(name: str, seconds: float, rng: random.Random, env: dict, tally: Tally) -> dict:
    """Untraced closed loop of cycles: one report, one set-up probe and one
    reference run each, in seeded order.  Times are scaled to the reference."""
    w = WORKLOADS[name]
    runs = {
        "report": ([sys.executable, "-m", "qgenocchi", *w.argv], w.golden),
        "setup": ([sys.executable, "-m", "qgenocchi", *SETUP_ARGV], SETUP_GOLDEN),
        "reference": ([sys.executable, str(REFERENCE)], REFERENCE_GOLDEN),
    }
    # Only wall times and sizes are kept: report bytes held here would grow
    # the runner, and a child's ru_maxrss can include the runner's pages
    # from before its exec.
    cycles: list[dict[str, float]] = []
    rss: list[float] = []
    t0 = time.perf_counter()
    while not cycles or time.perf_counter() - t0 < seconds:
        cycle = {}
        for kind in rng.sample(list(runs), len(runs)):
            cmd, golden = runs[kind]
            child = run_child(cmd, env)
            tally.add(checked(child, golden, f"{name} {kind}"))
            cycle[kind] = child.wall_s
            if kind == "report":
                rss.append(child.rss_mb)
        cycles.append(cycle)

    def scaled(kind: str) -> float:
        return REF_SECONDS * statistics.median(c[kind] / c["reference"] for c in cycles)

    def raw(kind: str) -> float:
        return statistics.median(c[kind] for c in cycles)

    times = [c["report"] for c in cycles]
    metrics = {
        "report_s": (scaled("report"), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (scaled("setup"), "s"),
    }
    print(
        f"{name}: report_s {metrics['report_s'][0]:.4f} s (median of {len(cycles)}; raw "
        f"median {raw('report'):.4f}, min {min(times):.4f}, max {max(times):.4f}; "
        f"{tail_note(times)}) | peak_rss_mb {metrics['peak_rss_mb'][0]:.2f} MB | "
        f"setup_s {metrics['setup_s'][0]:.4f} s (raw {raw('setup'):.4f}) | "
        f"reference raw {raw('reference'):.4f} s | {tally.note()}"
    )
    return metrics


def trace(name: str, seconds: float, rng: random.Random, env: dict, tally: Tally) -> dict:
    """Alternate untraced and traced children; per-layer metrics as medians."""
    w = WORKLOADS[name]
    report_cmd = [sys.executable, "-m", "qgenocchi", *w.argv]
    tracer_cmd = [sys.executable, str(TRACER), "--workload", name]
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []

    def plain():
        child = run_child(report_cmd, env)
        tally.add(checked(child, w.golden, name))
        untraced.append(child.wall_s)

    def with_spans():
        child = run_child(tracer_cmd, env)
        try:
            result = json.loads(child.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            print(child.stderr.decode(errors="replace")[-2000:], file=sys.stderr)
            tally.add(False)
            return
        metrics = result["metrics"]
        exact = {k: v for k, v in metrics.items() if not k.endswith("_s")}
        ok = child.exit_code == 0 and matches(
            result["exit_code"], result["size"], result["sha256"], w.golden, f"{name} traced"
        )
        if layers and exact != {k: layers[0][k] for k in exact}:
            print(f"perfbench: {name} traced: exact counts differ between runs", file=sys.stderr)
            ok = False
        tally.add(ok)
        traced.append(child.wall_s)
        layers.append(metrics)

    t0 = time.perf_counter()
    while not untraced or time.perf_counter() - t0 < seconds:
        for step in rng.sample([plain, with_spans], 2):
            step()

    metrics = {}
    if layers:
        for key, value in layers[0].items():
            if key.endswith("_s"):
                metrics[key] = (statistics.median(m[key] for m in layers), "s")
            else:
                metrics[key] = (value, "ratio" if key.endswith("_ratio") else "count")
    if traced and untraced:
        metrics["trace_overhead"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    width = max(map(len, metrics), default=0)
    print(f"{name} (traced {len(traced)}, untraced {len(untraced)}; {tally.note()}):")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<{width}}  {value:.6g} {unit}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="qgenocchi CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="orders the interleaving of runs")
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qgenocchi" / "__main__.py").is_file():
        print(f"perfbench: no qgenocchi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    env = child_env()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng.shuffle(names)
    print(
        f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}, seed {args.seed}, "
        f"seconds {args.seconds:g}, trace {args.trace}, workloads {' '.join(names)}"
    )
    # Compile the package's bytecode once, as an installed package has it.
    warm = Tally()
    warm.add(checked(run_child([sys.executable, "-m", "qgenocchi", *SETUP_ARGV], env),
                     SETUP_GOLDEN, "--version"))

    step = trace if args.trace else measure
    tallies = [warm]
    results = {}
    for name in names:
        tallies.append(Tally())
        for key, (value, unit) in step(name, args.seconds, rng, env, tallies[-1]).items():
            results[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": unit}

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
