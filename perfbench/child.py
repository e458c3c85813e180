"""Child-process entry points owned by the benchmark.

    child.py cli --rss FILE [--spans FILE --op ID] -- VERB ARGS...
    child.py api --rss FILE [--spans FILE --op ID] --seed N
    child.py cubes DIR

`cli` runs one xclab verb exactly as the `xclab` console script does;
`api` is the cut-matching API session; `cubes` writes cube3/cube4 JSON for
set-up.  The child writes its own peak resident set (VmHWM) to the --rss
file when it ends: the ru_maxrss that wait4 returns for a child also counts
the parent's resident set at spawn, which would hide every op smaller than
the benchmark process itself.  With --spans, the layer boundaries are
wrapped (see spans.py) before any work and the spans are written to FILE
when the work ends.  The parent puts the checkout's `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time


def _tracer(args):
    if args.spans is None:
        return None
    import spans
    import xclab.cli  # noqa: F401  (loads every module the table names)

    tracer = spans.Tracer(args.op)
    spans.install(tracer)
    return tracer


def peak_rss_kb() -> int:
    """This process's own high-water resident set, in KiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def alpha_problems(ground, k: int, value, rows, cols) -> list[str]:
    """Re-verify a heuristic alpha from its witness: the value is the weight
    sum of the returned rectangle, at least 0, and no cell is FORBIDDEN."""
    from fractions import Fraction

    from xclab.sepmeasure import weight_values

    weights = weight_values(ground.n, ground.t, k)
    total = Fraction(0)
    problems = []
    for i in rows:
        for j in cols:
            ell = ground.ell(i, j)
            if ell == 1:
                problems.append(f"rectangle hits FORBIDDEN cell ({i}, {j})")
                return problems
            total += weights.get(ell, 0)
    if total != value:
        problems.append(f"alpha {value} != rectangle weight sum {total}")
    if value < 0:
        problems.append(f"alpha {value} is negative")
    return problems


def api_session(seed: int) -> dict:
    """Load the cached (10, 5) ground, sweep all canonical rectangles with
    rectangle_w_value, then run the heuristic alpha search on W(10, 5, 5)."""
    from ops import canonical_sha256
    from xclab import bounds, sepmeasure
    from xclab.exactla import format_rational

    n, t, k = 10, 5, 5
    ground = sepmeasure.CutMatchingGround.build(n, t)
    edges = list(itertools.combinations(range(n), 2))
    pairs = [(e1, e2) for e1, e2 in itertools.combinations(edges, 2) if not set(e1) & set(e2)]

    start = time.perf_counter()
    reports = []
    for e1, e2 in pairs:
        rect = sepmeasure.canonical_rectangle(ground, e1, e2)
        reports.append(sepmeasure.rectangle_w_value(ground, rect, k))
    sweep_s = time.perf_counter() - start

    w = sepmeasure.weight_matrix(ground, k)
    start = time.perf_counter()
    found = bounds.max_rectangle_value(w, mode="heuristic", restarts=20, seed=seed)
    alpha_s = time.perf_counter() - start

    sweep = [
        [r.finite, None if r.value is None else format_rational(r.value), r.q1_hits]
        for r in reports
    ]
    rows, cols = sorted(found.rectangle.rows), sorted(found.rectangle.cols)
    return {
        "rect_sweep_s": sweep_s,
        "alpha_s": alpha_s,
        "n_rectangles": len(pairs),
        "sweep_sha256": canonical_sha256(sweep),
        "alpha": format_rational(found.value),
        "alpha_rectangle": [len(rows), len(cols)],
        "alpha_problems": alpha_problems(ground, k, found.value, rows, cols),
    }


def write_cubes(out_dir: str) -> None:
    from xclab.polytope import hypercube_polytope, polytope_to_json

    for d in (3, 4):
        with open(os.path.join(out_dir, f"cube{d}.json"), "w", encoding="utf-8") as fh:
            json.dump(polytope_to_json(hypercube_polytope(d)), fh, indent=1)
            fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("cli", "api"):
        p = sub.add_parser(mode)
        p.add_argument("--rss", required=True)
        p.add_argument("--spans", default=None)
        p.add_argument("--op", default="op")
        if mode == "api":
            p.add_argument("--seed", type=int, required=True)
        else:
            p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("cubes")
    p.add_argument("out_dir")
    args = parser.parse_args(argv)

    if args.mode == "cubes":
        write_cubes(args.out_dir)
        return 0

    tracer = _tracer(args)
    try:
        if args.mode == "cli":
            import xclab.cli

            verb_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
            return xclab.cli.main(verb_argv)
        sys.stdout.write(json.dumps(api_session(args.seed)) + "\n")
        return 0
    finally:
        if tracer is not None:
            tracer.dump(args.spans)
        with open(args.rss, "w", encoding="ascii") as fh:
            fh.write(f"{peak_rss_kb()}\n")


if __name__ == "__main__":
    sys.exit(main())
