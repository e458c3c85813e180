"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import spans
from layers import pass_metrics
from ops import Op, check_op, run_op
from run import tally
from workloads import WORKLOADS, golden, wdot_consistent

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))


def _span(id, name, start, end, parent=None, aux=0.0, site="cli", **extra):
    return {"id": id, "name": name, "site": site, "parent": parent, "op": "t",
            "start": start, "end": end, "aux": aux, **extra}


def test_self_time_on_synthetic_tree():
    tree = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "polytope.read_polytope", 1.0, 4.0, parent=0, aux=0.5),
        _span(2, "polytope.build", 2.0, 3.0, parent=1, checks=6),
        _span(3, "yannakakis.contract", 5.0, 7.0, parent=0, vertices=2),
        _span(4, "exactla.lp_solve", 5.5, 6.5, parent=3, site="yannakakis",
              cells=4, bits=3, infeasible=False),
    ]
    nets, selfs = spans.net_and_self_times(tree)
    assert nets == pytest.approx({0: 9.5, 1: 3.0, 2: 1.0, 3: 2.0, 4: 1.0})
    assert selfs == pytest.approx({0: 9.5 - 3 - 2, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0})

    m = pass_metrics([tree])
    assert m["cli.self_s"] == pytest.approx(4.5)
    assert m["polytope.self_s"] == pytest.approx(3.0)
    assert m["polytope.read_polytope_s"] == pytest.approx(3.0)
    assert m["yannakakis.self_s"] == pytest.approx(1.0)
    assert m["exactla.self_s"] == pytest.approx(1.0)
    assert m["polytope.build_checks"] == 6
    assert m["yannakakis.lp_calls"] == 1
    assert m["yannakakis.lp_per_vertex"] == pytest.approx(0.5)
    assert m["bounds.self_s"] == 0


def test_wrapper_table_resolves_at_this_commit():
    for module, path, _, _ in spans.WRAPPERS:
        spans.resolve(module, path)


def test_missing_wrapped_name_raises_before_patching(monkeypatch):
    import xclab.cli

    original = xclab.cli.slack_matrix
    table = spans.WRAPPERS[:1] + (("xclab.cli", "slack_matrix", "polytope.slack_matrix", "slack"),
                                  ("xclab.cli", "no_such_boundary", "cli.gone", None))
    with pytest.raises(spans.MissingBoundary, match="no_such_boundary"):
        spans.install(spans.Tracer("t"), table)
    assert xclab.cli.slack_matrix is original


def test_traced_child_records_nested_spans(tmp_path):
    op = Op("gen4", "cli", ["gen", "ppm", "--n", "4"])
    res = run_op(op, ROOT, str(tmp_path), None, trace=True)
    assert res.error is None and res.peak_rss_kb > 0
    by_name = {s["name"]: s for s in res.spans}
    assert by_name["cli.main"]["parent"] is None
    build = by_name["polytope.build"]
    assert res.spans[build["parent"]]["name"] == "matchgen.perfect_matching_polytope"
    with open(tmp_path / "gen4.out", encoding="utf-8") as fh:
        poly = json.load(fh)["result"]["polytope"]
    rows = len(poly["ineqs"]["rhs"]) + len(poly["eqs"]["rhs"])
    assert build["checks"] == len(poly["vertices"]) * rows


@pytest.fixture(scope="module")
def ppm10_slack_dir(tmp_path_factory):
    """A pass directory holding real gen/slack outputs for ppm10."""
    workdir = str(tmp_path_factory.mktemp("ppm10"))
    _, ops = WORKLOADS["ppm10-slack"].build(0, workdir)
    results = [run_op(op, ROOT, workdir, None, trace=False) for op in ops]
    for op, res in zip(ops, results):
        check_op(op, res, workdir)
        assert res.error is None, res.error
    return workdir, ops


def test_check_rejects_tampered_slack_entry(ppm10_slack_dir):
    workdir, ops = ppm10_slack_dir
    slack_op = ops[1]
    path = os.path.join(workdir, slack_op.stdout_name)
    with open(path, encoding="utf-8") as fh:
        envelope = json.load(fh)
    row = envelope["result"]["entries"][7]
    row[3] = "2" if row[3] != "2" else "4"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh)

    res = run_op(Op("noop", "raw", ["-c", "pass"]), ROOT, workdir, None, trace=False)
    res.name, res.error = slack_op.name, None
    check_op(slack_op, res, workdir)
    assert res.error is not None and "golden" in res.error
    assert tally([res]) == (1, 1)


def test_check_rejects_inconsistent_wdot_that_exits_zero():
    check = golden("wdot-10-5-5", wdot_consistent)
    good = {"result": {"counting": "1", "materialized": "1", "equal": True}}
    bad = {"result": {"counting": "1", "materialized": "7/4", "equal": False}}
    assert check(good) is None
    assert check(bad) is not None
    assert wdot_consistent(bad["result"]) is not None


def test_corrupted_cache_never_passes(tmp_path):
    """Rewrite every 1 in the cached ground table as 3.  Whatever the
    program does with that cache, a wrong result must not pass the check."""
    workdir, cache = str(tmp_path), str(tmp_path / "cache")
    _, ops = WORKLOADS["cut-matching"].build(0, workdir)
    wdot = ops[0]
    first = run_op(wdot, ROOT, workdir, cache, trace=False)
    check_op(wdot, first, workdir)
    assert first.error is None, first.error

    (table,) = os.listdir(cache)
    path = os.path.join(cache, table)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = [" ".join("3" if tok == "1" else tok for tok in line.split()) for line in lines[1:]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:1] + body) + "\n")

    second = run_op(wdot, ROOT, workdir, cache, trace=False)
    check_op(wdot, second, workdir)
    if second.output is not None and second.output["result"]["equal"] is not True:
        assert second.error is not None
        assert tally([first, second]) == (2, 1)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ppm10-slack", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
