"""Span recording around the layer boundaries of the xclab package.

The wrapper table below is the one place that names the boundaries.  A
traced child calls `install()` after importing `xclab.cli` and before any
work: every listed name is replaced, in the namespace that calls it, by a
wrapper that records a span.  A name that no longer exists raises
`MissingBoundary`, so a refactor cannot silently drop a layer from the
per-layer report.

A span is a dict with its name, the namespace it was called from (`site`),
start and end (perf_counter seconds), the id of the enclosing span, the op
id, the time spent on argument-derived counters (`aux`, excluded from every
span's self time) and the counters themselves.  Spans stay in memory and
are written once, when the child exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from fractions import Fraction

# (namespace module, attribute path, span name, counter)
# The span name is "<callee layer>.<boundary>"; the namespace module is the
# caller, which is how a call is attributed to the layer that makes it.
WRAPPERS = (
    ("xclab.cli", "main", "cli.main", None),
    ("xclab.cli", "perfect_matching_polytope", "matchgen.perfect_matching_polytope", None),
    ("xclab.matchgen", "enumerate_perfect_matchings", "matchgen.enumerate_perfect_matchings", None),
    ("xclab.sepmeasure", "enumerate_perfect_matchings", "matchgen.enumerate_perfect_matchings", None),
    ("xclab.polytope", "Polytope.build", "polytope.build", "build"),
    ("xclab.cli", "polytope_to_json", "polytope.to_json", None),
    ("xclab.cli", "read_polytope", "polytope.read_polytope", None),
    ("xclab.cli", "slack_matrix", "polytope.slack_matrix", "slack"),
    ("xclab.yannakakis", "slack_matrix", "polytope.slack_matrix", "slack"),
    ("xclab.cli", "verify_vertices", "polytope.verify_vertices", None),
    ("xclab.cli", "lp_equal_under_projection", "polytope.projection", None),
    ("xclab.polytope", "lp_solve", "exactla.lp_solve", "lp"),
    ("xclab.polytope", "conic_combination", "exactla.conic", "conic"),
    ("xclab.matchgen", "lp_solve", "exactla.lp_solve", "lp"),
    ("xclab.yannakakis", "lp_solve", "exactla.lp_solve", "lp"),
    ("xclab.yannakakis", "conic_combination", "exactla.conic", "conic"),
    ("xclab.bounds", "lp_solve", "exactla.lp_solve", "lp"),
    ("xclab.bounds", "conic_combination", "exactla.conic", "conic"),
    ("xclab.bounds", "rank", "exactla.rank", None),
    ("xclab.cli", "extension_from_factorization", "yannakakis.extend", None),
    ("xclab.cli", "factorization_from_extension", "yannakakis.contract", "contract"),
    ("xclab.cli", "verify_factorization", "yannakakis.verify_factorization", None),
    ("xclab.yannakakis", "verify_factorization", "yannakakis.verify_factorization", None),
    ("xclab.bounds", "verify_factorization", "yannakakis.verify_factorization", None),
    ("xclab.cli", "nonnegative_rank_bounds", "bounds.rank_bounds", None),
    ("xclab.bounds", "fooling_set_greedy", "bounds.fooling", None),
    ("xclab.cli", "rectangle_cover_exact", "bounds.cover", "cover"),
    ("xclab.bounds", "rectangle_cover_exact", "bounds.cover", "cover"),
    ("xclab.cli", "nmf_heuristic", "bounds.nmf", None),
    ("xclab.bounds", "nmf_heuristic", "bounds.nmf", None),
    ("xclab.bounds", "max_rectangle_value", "bounds.alpha", None),
    ("xclab.bounds", "WeightMatrix.frobenius_with", "bounds.frobenius", None),
    ("xclab.sepmeasure", "CutMatchingGround.build", "sepmeasure.ground_build", "ground"),
    ("xclab.cli", "ws_inner_product_materialized", "sepmeasure.ws_materialized", None),
    ("xclab.sepmeasure", "CutMatchingGround.slack_grid", "sepmeasure.slack_grid", None),
    ("xclab.sepmeasure", "weight_matrix", "sepmeasure.weight_matrix", None),
    ("xclab.cli", "canonical_rectangle", "sepmeasure.canonical_rectangle", None),
    ("xclab.sepmeasure", "canonical_rectangle", "sepmeasure.canonical_rectangle", None),
    ("xclab.cli", "rectangle_w_value", "sepmeasure.rectangle_w_value", None),
    ("xclab.sepmeasure", "rectangle_w_value", "sepmeasure.rectangle_w_value", None),
    ("xclab.cli", "mu", "sepmeasure.mu", None),
    ("xclab.sepmeasure", "mu", "sepmeasure.mu", None),
)

LAYERS = ("cli", "matchgen", "polytope", "exactla", "yannakakis", "bounds", "sepmeasure")


class MissingBoundary(LookupError):
    """A name in the wrapper table is gone from the package."""


# ---------------------------------------------------------------------------
# Argument-derived counters.  Each takes the bound arguments, the result and
# the state captured before the call, and returns extra span fields.  They
# run only in traced children.

def _bits(x) -> int:
    q = x if isinstance(x, Fraction) else Fraction(x)
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def _system_stats(system) -> tuple[int, int]:
    """(cells, max bit length) of an (A, b) pair given to lp_solve."""
    if system is None:
        return 0, 0
    rows, rhs = system
    rows = rows.rows() if hasattr(rows, "rows") else rows
    cells = 0
    bits = max((_bits(v) for v in rhs), default=0)
    for row in rows:
        cells += len(row)
        bits = max(bits, max((_bits(v) for v in row), default=0))
    return cells, bits


def _count_build(args, result, before):
    n_rows = len(args["ineq_rhs"]) + len(args.get("eq_rhs") or ())
    return {"checks": len(args["vertices"]) * n_rows}


def _count_slack(args, result, before):
    return {"cells": result.nrows * result.ncols}


def _count_lp(args, result, before):
    c1, b1 = _system_stats(args["ineqs"])
    c2, b2 = _system_stats(args["eqs"])
    b3 = max((_bits(v) for v in args["objective"]), default=0)
    return {
        "cells": c1 + c2,
        "bits": max(b1, b2, b3),
        "infeasible": result.status == "infeasible",
    }


def _count_conic(args, result, before):
    rows = args["rows"]
    rows = rows.rows() if hasattr(rows, "rows") else rows
    cells = sum(len(r) for r in rows)
    bits = max(
        max((_bits(v) for r in rows for v in r), default=0),
        max((_bits(v) for v in args["target"]), default=0),
    )
    return {"cells": cells, "bits": bits, "infeasible": result is None}


def _count_contract(args, result, before):
    return {"vertices": len(args["poly"].vertices)}


def _count_cover(args, result, before):
    return {"explored": result.explored}


def _cache_snapshot() -> dict:
    root = os.environ.get("XCLAB_CACHE_DIR")
    if not root or not os.path.isdir(root):
        return {}
    out = {}
    for entry in os.scandir(root):
        if entry.is_file():
            st = entry.stat()
            out[entry.name] = (st.st_mtime_ns, st.st_size)
    return out


def _count_ground(args, result, before):
    """Read from outside the call: a hit leaves an existing cache file
    untouched, a miss creates one, a reject rewrites one already there."""
    after = _cache_snapshot()
    changed = [k for k, v in after.items() if before.get(k) != v]
    if not changed:
        status = "hit" if before else "uncached"
    elif all(k in before for k in changed):
        status = "reject"
    else:
        status = "miss"
    return {"cache": status, "cache_bytes": sum(v[1] for v in after.values())}


# name -> (state taken before the call or None, span fields after the call)
COUNTERS = {
    "build": (None, _count_build),
    "slack": (None, _count_slack),
    "lp": (None, _count_lp),
    "conic": (None, _count_conic),
    "contract": (None, _count_contract),
    "cover": (None, _count_cover),
    "ground": (_cache_snapshot, _count_ground),
}


# ---------------------------------------------------------------------------
# The recorder

class Tracer:
    """Keeps the spans of one child process in memory."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, site: str, counter: str | None):
        sig = inspect.signature(fn) if counter else None
        before_fn, after_fn = COUNTERS[counter] if counter else (None, None)
        spans, stack = self.spans, self._stack
        op_id = self.op_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": name,
                "site": site,
                "parent": stack[-1] if stack else None,
                "op": op_id,
                "aux": 0.0,
            }
            spans.append(span)
            aux0 = clock()
            before = before_fn() if before_fn else None
            aux = clock() - aux0
            stack.append(span["id"])
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            aux0 = clock()
            if after_fn is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(after_fn(bound.arguments, result, before))
            span["aux"] = aux + clock() - aux0
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def resolve(module: str, path: str):
    """(owner object, attribute name, raw attribute) for a table entry."""
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise MissingBoundary(f"{module}: {exc}") from exc
    parts = path.split(".")
    for part in parts[:-1]:
        if not hasattr(owner, part):
            raise MissingBoundary(f"{module}.{path}: no attribute {part!r}")
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    if raw is None or not callable(getattr(owner, attr, None)):
        raise MissingBoundary(f"{module}.{path} no longer exists")
    return owner, attr, raw


def install(tracer: Tracer, table=WRAPPERS) -> None:
    """Replace every boundary in the table with a span-recording wrapper.
    Resolves the whole table before patching anything."""
    resolved = [(resolve(mod, path), mod, name, counter) for mod, path, name, counter in table]
    for (owner, attr, raw), mod, name, counter in resolved:
        site = mod.rsplit(".", 1)[-1]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, site, counter)))
        else:
            setattr(owner, attr, tracer.wrap(raw, name, site, counter))


# ---------------------------------------------------------------------------
# Span-tree arithmetic, used by the parent on the collected spans

def net_and_self_times(spans: list[dict]) -> tuple[dict[int, float], dict[int, float]]:
    """Per span id: net time, its duration minus the counter time of every
    span below it, and self time, its net time minus the net time of its
    direct children.  Calls within a child are single-threaded, so children
    never overlap and the subtraction is exact."""
    aux_below = {s["id"]: 0.0 for s in spans}
    for s in reversed(spans):  # a child is recorded after its parent
        if s["parent"] is not None:
            aux_below[s["parent"]] += aux_below[s["id"]] + s["aux"]
    net = {s["id"]: s["end"] - s["start"] - aux_below[s["id"]] for s in spans}
    own = dict(net)
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= net[s["id"]]
    return net, own


def layer_of(span: dict) -> str:
    return span["name"].split(".", 1)[0]


def has_ancestor(spans_by_id: dict[int, dict], span: dict, name: str) -> bool:
    parent = span["parent"]
    while parent is not None:
        p = spans_by_id[parent]
        if p["name"] == name:
            return True
        parent = p["parent"]
    return False
