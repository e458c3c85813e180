"""Benchmark of the xclab CLI pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass sets up its inputs, then runs
the workload's ops one child process at a time, each op starting after the
previous one exited (closed loop, one client).  Passes repeat until the
next one would end after S seconds; there is always at least one pass, and
with --trace 1 at least one untraced and one traced pass, alternating.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics, from spans recorded around the package's layer
boundaries, plus the tracing overhead.  The last stdout line is the result
object; the lines before it are the full report, including per-op timings.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

from layers import PER_LAYER, pass_metrics
from ops import OP_TIMEOUT_S, OpResult, check_op, run_op
from workloads import WORKLOADS

# No op may run past this many seconds after the run starts: the whole run
# must end within 180 s even when the program hangs.
HARD_LIMIT_S = 150.0

@dataclass
class PassResult:
    traced: bool
    setup_s: float
    run_s: float
    wall_s: float
    setup_ops: list[OpResult] = field(default_factory=list)
    ops: list[OpResult] = field(default_factory=list)

    @property
    def all_ops(self) -> list[OpResult]:
        return self.setup_ops + self.ops


def run_pass(workload, seed: int, root: str, pass_dir: str, traced: bool, hard_deadline: float) -> PassResult:
    setup, timed = workload.build(seed, pass_dir)
    cache_dir = os.path.join(pass_dir, "cache") if workload.fresh_cache else None

    def run(op, trace):
        left = max(1.0, min(OP_TIMEOUT_S, hard_deadline - time.perf_counter()))
        return run_op(op, root, pass_dir, cache_dir, trace, timeout=left)

    start = time.perf_counter()
    setup_results = [run(op, False) for op in setup]
    mid = time.perf_counter()
    results = [run(op, traced) for op in timed]
    end = time.perf_counter()
    # Outputs are checked after the pass so that checking is not timed.
    for op, res in zip(setup + timed, setup_results + results):
        check_op(op, res, pass_dir)
    return PassResult(traced, mid - start, end - mid, end - start, setup_results, results)


def run_passes(workload, seed: int, root: str, seconds: float, trace: bool) -> list[PassResult]:
    work_root = os.path.join(root, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    passes: list[PassResult] = []
    start = time.perf_counter()
    deadline = start + seconds
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            pass_dir = os.path.join(run_dir, f"pass-{len(passes)}")
            os.makedirs(pass_dir)
            passes.append(run_pass(workload, seed, root, pass_dir, traced, start + HARD_LIMIT_S))
            shutil.rmtree(pass_dir)
            if trace and len(passes) < 2:
                continue
            next_traced = trace and len(passes) % 2 == 1
            same_kind = [p.wall_s for p in passes if p.traced == next_traced]
            if time.perf_counter() + max(same_kind) > deadline:
                return passes
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Reporting

def tally(results: list[OpResult]) -> tuple[int, int]:
    """(attempted, failed).  An op fails on an unexpected exit code, a
    failed output check, or a timeout."""
    return len(results), sum(r.error is not None for r in results)


def summary(values: list[float]) -> dict:
    """Median, sample count, and the highest whole percentile with at least
    ten samples beyond it (None below 20 samples)."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "pct": None, "pct_value": None}
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out["pct"] = pct
        out["pct_value"] = values[min(n - 1, int(pct / 100 * n))]
    return out


def op_metrics(passes: list[PassResult]) -> dict[str, dict]:
    samples: dict[str, list[float]] = {}
    for p in passes:
        for r in p.ops:
            if r.metric:
                samples.setdefault(r.metric, []).append(r.seconds)
            if isinstance(r.output, dict) and "rect_sweep_s" in r.output:
                samples.setdefault("rect_sweep_s", []).append(r.output["rect_sweep_s"])
                samples.setdefault("alpha_s", []).append(r.output["alpha_s"])
    return {k: summary(v) for k, v in samples.items()}


def end_to_end(passes: list[PassResult]) -> dict[str, dict]:
    plain = [p for p in passes if not p.traced]
    return {
        "setup_s": summary([p.setup_s for p in passes]),
        "run_s": summary([p.run_s for p in plain]),
        "peak_rss_mb": summary([max(r.peak_rss_kb for r in p.ops) / 1024 for p in plain]),
        "cpu_s": summary([sum(r.cpu_s for r in p.ops) for p in plain]),
    }


def per_layer(passes: list[PassResult]) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    rows = [pass_metrics([r.spans for r in p.ops if r.spans]) for p in traced]
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    imports = []
    for p in passes:
        probe = {r.name: r.seconds for r in p.setup_ops}
        imports.append(probe["probe-import"] - probe["probe-bare"])
    out["cli.import_s"] = statistics.median(imports)
    out["cli.output_bytes"] = statistics.median(sum(r.output_bytes for r in p.ops) for p in traced)
    out["trace.overhead_s"] = statistics.median(p.run_s for p in traced) - statistics.median(
        p.run_s for p in passes if not p.traced
    )
    return {name: out[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "xclab", "cli.py")):
        print(f"no xclab source under {os.path.join(root, 'src')}; run from a checkout root",
              file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics of the result line and their units.
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    workload = WORKLOADS[args.workload]
    passes = run_passes(workload, args.seed, root, args.seconds, bool(args.trace))

    ops = [r for p in passes for r in p.all_ops]
    attempted, failed = tally(ops)
    for r in ops:
        if r.error is not None:
            print(f"FAILED {r.name}: {r.error}", file=sys.stderr)

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "pass_times": [
            {"traced": p.traced, "setup_s": p.setup_s, "run_s": p.run_s} for p in passes
        ],
        "end_to_end": end_to_end(passes),
        "ops": op_metrics([p for p in passes if not p.traced]),
    }
    if args.trace:
        metrics = report["per_layer"] = per_layer(passes)
        listed = bench["per_layer"]
    else:
        metrics = {name: stats["median"] for name, stats in report["end_to_end"].items()}
        listed = bench["end_to_end"]
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
