"""Command-line front end.

One binary with subcommands, one result envelope.  Every run emits JSON of
the shape {command, inputs, seed, result, timing}; file inputs are
recorded with their sha256 so pipelines can be chained and audited.  Results
are deterministic given the recorded seed.  Envelopes chain directly: `gen`
output is accepted wherever a polytope file is expected, `extend` output
wherever `--system` wants a formulation, and `contract`/`factorize` output
wherever `--factorization` wants a factorization.  Bare payload files work
in all three places too.

Exit codes: 0 success, 1 computational failure (budget exceeded, failed
verification), 2 input error or bad usage.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time

from .bounds import (
    BoundConfig,
    factorization_from_json,
    factorization_to_json,
    nmf_heuristic,
    nonnegative_rank_bounds,
    rectangle_cover_exact,
    report_to_json,
)
from .errors import (
    InputError,
    NotAnExtensionError,
    NotDerivableError,
)
from .exactla import format_rational, matrix_to_json, rat
from .matchgen import (
    approximation_ratio,
    matching_polytope,
    odd_set_rows,
    perfect_matching_polytope,
    truncated_matching_relaxation,
)
from .polytope import (
    load_json,
    load_payload,
    lp_equal_under_projection,
    polytope_to_json,
    read_polytope,
    slack_matrix,
    verify_vertices,
    write_atomic,
)
from .sepmeasure import (
    CutMatchingGround,
    biased_indices,
    canonical_rectangle,
    mu,
    q_class_size,
    rectangle_w_value,
    ws_inner_product,
    ws_inner_product_materialized,
)
from .yannakakis import (
    extension_from_factorization,
    factorization_from_extension,
    formulation_from_json,
    formulation_to_json,
    slack_variable_factorization,
    verify_factorization,
)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _file_input(path: str) -> dict:
    return {"path": path, "sha256": _sha256(path)}


def _row_filter(spec: str):
    """'all' keeps every row, 'oddset' the proper odd-set rows, anything
    else is a label prefix."""
    if spec == "all":
        return None
    if spec == "oddset":
        return odd_set_rows
    return lambda lab: lab.startswith(spec)


def _slack_input(args):
    """The slack matrix of the --input polytope restricted by --rows, and
    the inputs record naming both."""
    s = slack_matrix(read_polytope(args.input), _row_filter(args.rows))
    return s, {"input": _file_input(args.input), "rows": args.rows}


def _parse_edge(text: str) -> tuple[int, int]:
    parts = text.split("-")
    if len(parts) != 2:
        raise InputError(f"edge must look like 'a-b', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputError(f"edge must be two integers, got {text!r}") from exc


def _parse_objective(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"objective must be comma-separated integers, got {text!r}") from exc


def _rect_json(rect) -> dict:
    return {"rows": sorted(rect.rows), "cols": sorted(rect.cols)}


# ---------------------------------------------------------------------------
# Verb handlers.  Each returns (inputs, result, exit_code).

def _cmd_gen(args):
    if args.family == "ppm":
        poly = perfect_matching_polytope(args.n)
    elif args.family == "pm":
        poly = matching_polytope(args.n)
    else:
        if args.s is None:
            raise InputError("pm-truncated needs --s")
        poly = truncated_matching_relaxation(args.n, args.s)
    inputs = {"family": args.family, "n": args.n}
    if args.s is not None:
        inputs["s"] = args.s
    return inputs, {"polytope": polytope_to_json(poly)}, 0


def _cmd_slack(args):
    s, inputs = _slack_input(args)
    if args.format == "matrix-text":
        return inputs, {"text": s.to_text()}, 0
    entries = matrix_to_json(s.matrix.rows())
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([""] + list(s.col_labels))
        for lab, row in zip(s.row_labels, entries):
            writer.writerow([lab] + row)
        return inputs, {"text": buf.getvalue()}, 0
    return (
        inputs,
        {
            "nrows": s.nrows,
            "ncols": s.ncols,
            "row_labels": list(s.row_labels),
            "col_labels": list(s.col_labels),
            "entries": entries,
        },
        0,
    )


def _cmd_bounds(args):
    s, inputs = _slack_input(args)
    config = BoundConfig(
        cover_limit=args.cover_limit,
        cover_cap=args.cover_cap,
        nmf_restarts=args.nmf_restarts,
        nmf_cell_cap=args.nmf_cell_cap,
        nmf_max_tries=args.nmf_tries,
        seed=args.seed,
    )
    report = nonnegative_rank_bounds(s, config)
    witness_file = None
    if args.witness_out and report.upper_witness is not None:
        write_atomic(
            args.witness_out,
            json.dumps(factorization_to_json(report.upper_witness), indent=1) + "\n",
        )
        witness_file = args.witness_out
    return inputs, report_to_json(report, witness_file), 0


def _cmd_factorize(args):
    s, inputs = _slack_input(args)
    fac = nmf_heuristic(s, args.r, restarts=args.restarts, seed=args.seed)
    inputs["r"] = args.r
    if fac is None:
        return inputs, {"found": False, "factorization": None}, 1
    return inputs, {"found": True, "factorization": factorization_to_json(fac)}, 0


def _cmd_extend(args):
    poly = read_polytope(args.input)
    if args.factorization is not None:
        fac = factorization_from_json(load_payload(args.factorization, "factorization"))
        inputs = {
            "input": _file_input(args.input),
            "factorization": _file_input(args.factorization),
        }
    else:
        fac = slack_variable_factorization(slack_matrix(poly))
        inputs = {"input": _file_input(args.input), "factorization": "slack-variable"}
    ef = extension_from_factorization(poly, fac)
    return inputs, {"formulation": formulation_to_json(ef), "n_facets": ef.n_facets}, 0


def _cmd_contract(args):
    poly = read_polytope(args.input)
    ef = formulation_from_json(load_payload(args.system, "formulation"))
    fac = factorization_from_extension(poly, ef.to_xy_system())
    inputs = {
        "input": _file_input(args.input),
        "system": _file_input(args.system),
    }
    return inputs, {"factorization": factorization_to_json(fac), "r": fac.r}, 0


def _cmd_cover(args):
    s, inputs = _slack_input(args)
    result = rectangle_cover_exact(s, limit=args.limit, cap=args.cap)
    out = {
        "status": result.status,
        "size": result.size,
        "explored": result.explored,
        "rectangles": [_rect_json(r) for r in result.rectangles],
    }
    return inputs, out, 0 if result.status == "optimal" else 1


def _cmd_sep(args):
    inner = ws_inner_product(args.n, args.t, args.k)
    ell_max = min(args.t, args.n - args.t)
    if ell_max % 2 == 0:
        ell_max -= 1
    norm = ell_max - 1
    result = {
        "inner_product": format_rational(inner),
        "slack_norm": format_rational(rat(norm)),
    }
    inputs = {"n": args.n, "t": args.t, "k": args.k}
    return inputs, result, 0


def _cmd_qsize(args):
    size = q_class_size(args.n, args.t, args.ell)
    return {"n": args.n, "t": args.t, "ell": args.ell}, {"size": size}, 0


def _cmd_wdot(args):
    counting = ws_inner_product(args.n, args.t, args.k)
    result = {
        "counting": format_rational(counting),
        "materialized": None,
        "equal": None,
    }
    if args.crosscheck:
        ground = CutMatchingGround.build(args.n, args.t)
        mat = ws_inner_product_materialized(ground, args.k)
        result["materialized"] = format_rational(mat)
        result["equal"] = mat == counting
    inputs = {"n": args.n, "t": args.t, "k": args.k, "crosscheck": args.crosscheck}
    return inputs, result, 1 if result["equal"] is False else 0


def _ground_rectangle(args, **param):
    """The ground, the canonical rectangle of --e1/--e2, and the inputs
    record, which also carries the verb's class parameter."""
    ground = CutMatchingGround.build(args.n, args.t)
    rect = canonical_rectangle(ground, _parse_edge(args.e1), _parse_edge(args.e2))
    inputs = {"n": args.n, "t": args.t, **param, "e1": args.e1, "e2": args.e2}
    return ground, rect, inputs


def _cmd_mu(args):
    ground, rect, inputs = _ground_rectangle(args, ell=args.ell)
    value = mu(ground, rect, args.ell)
    result = {
        "mu": format_rational(value),
        "rectangle": {"n_rows": len(rect.rows), "n_cols": len(rect.cols)},
    }
    return inputs, result, 0


def _cmd_rectvalue(args):
    ground, rect, inputs = _ground_rectangle(args, k=args.k)
    report = rectangle_w_value(ground, rect, args.k)
    result = {
        "finite": report.finite,
        "value": None if report.value is None else format_rational(report.value),
        "mu3": None if report.mu3 is None else format_rational(report.mu3),
        "muk": None if report.muk is None else format_rational(report.muk),
        "q1_hits": report.q1_hits,
    }
    return inputs, result, 0


def _cmd_bias(args):
    obj = load_json(args.input)
    try:
        domains = [tuple(d) for d in obj["domains"]]
        tuples = [tuple(row) for row in obj["tuples"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bias input needs 'domains' and 'tuples': {exc}") from exc
    flagged = biased_indices(tuples, domains, args.eps)
    inputs = {"input": _file_input(args.input), "eps": args.eps}
    return inputs, {"biased": list(flagged), "n_tuples": len(tuples)}, 0


def _cmd_ratio(args):
    relaxation = read_polytope(args.relaxation)
    poly = read_polytope(args.polytope)
    extras = tuple(_parse_objective(text) for text in args.objective)
    report = approximation_ratio(
        relaxation, poly, args.trials, args.seed, extra_objectives=extras
    )
    inputs = {
        "relaxation": _file_input(args.relaxation),
        "polytope": _file_input(args.polytope),
        "trials": args.trials,
    }
    result = {
        "ratio": format_rational(report.ratio),
        "worst_objective": list(report.worst_objective),
        "trials": report.trials,
    }
    return inputs, result, 0


def _cmd_verify(args):
    poly = read_polytope(args.input)
    inputs = {"input": _file_input(args.input)}
    if args.factorization is not None:
        fac = factorization_from_json(load_payload(args.factorization, "factorization"))
        inputs["factorization"] = _file_input(args.factorization)
        ok = verify_factorization(slack_matrix(poly, _row_filter(args.rows)), fac)
        result = {"check": "factorization", "ok": ok}
    elif args.system is not None:
        ef = formulation_from_json(load_payload(args.system, "formulation"))
        inputs["system"] = _file_input(args.system)
        report = lp_equal_under_projection(
            poly, ef.to_xy_system(), args.trials, args.seed
        )
        result = {
            "check": "projection",
            "ok": report.passed,
            "reason": report.reason,
            "detail": report.detail,
        }
        ok = report.passed
    else:
        ok, bad = verify_vertices(poly)
        result = {"check": "vertices", "ok": ok, "first_bad": bad}
    return inputs, result, 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser assembly and the envelope writer.

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed, recorded in the envelope")
    common.add_argument("--output", default=None, help="write the envelope here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="xclab",
        description="Exact-arithmetic toolkit for polytopes, slack matrices, and extension bounds.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a matching polytope")
    p.add_argument("family", choices=["ppm", "pm", "pm-truncated"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=None, help="odd-set size cutoff for pm-truncated")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("slack", parents=[common], help="slack matrix of a polytope")
    p.add_argument("--input", required=True)
    p.add_argument("--rows", default="all", help="'all', 'oddset', or a label prefix")
    p.add_argument("--format", choices=["json", "csv", "matrix-text"], default="json")
    p.set_defaults(handler=_cmd_slack)

    p = sub.add_parser("bounds", parents=[common], help="certified nonnegative-rank interval")
    p.add_argument("--input", required=True)
    p.add_argument("--rows", default="all")
    p.add_argument("--cover-limit", type=int, default=200_000)
    p.add_argument("--cover-cap", type=int, default=20)
    p.add_argument("--nmf-restarts", type=int, default=2)
    p.add_argument("--nmf-cell-cap", type=int, default=256)
    p.add_argument("--nmf-tries", type=int, default=3)
    p.add_argument("--witness-out", default=None, help="write the upper witness factorization here")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("factorize", parents=[common], help="heuristic nonnegative factorization")
    p.add_argument("--input", required=True)
    p.add_argument("--rows", default="all")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--restarts", type=int, default=3)
    p.set_defaults(handler=_cmd_factorize)

    p = sub.add_parser("extend", parents=[common], help="factorization to extended formulation")
    p.add_argument("--input", required=True)
    p.add_argument("--factorization", default=None, help="factorization JSON; omit for slack-variable")
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("contract", parents=[common], help="extended formulation to factorization")
    p.add_argument("--input", required=True)
    p.add_argument("--system", required=True, help="formulation JSON from `extend`")
    p.set_defaults(handler=_cmd_contract)

    p = sub.add_parser("cover", parents=[common], help="minimum support rectangle cover")
    p.add_argument("--input", required=True)
    p.add_argument("--rows", default="all")
    p.add_argument("--limit", type=int, default=200_000)
    p.add_argument("--cap", type=int, default=20)
    p.set_defaults(handler=_cmd_cover)

    p = sub.add_parser("sep", parents=[common], help="separation bound pieces in counting mode")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_sep)

    p = sub.add_parser("qsize", parents=[common], help="crossing-class size by closed form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(handler=_cmd_qsize)

    p = sub.add_parser("wdot", parents=[common], help="weight-slack inner product")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--crosscheck", action="store_true", help="also materialize the ground")
    p.set_defaults(handler=_cmd_wdot)

    p = sub.add_parser("mu", parents=[common], help="class measure of a canonical rectangle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--e1", required=True, help="edge 'a-b'")
    p.add_argument("--e2", required=True, help="edge 'c-d', disjoint from e1")
    p.set_defaults(handler=_cmd_mu)

    p = sub.add_parser("rectvalue", parents=[common], help="weight of a canonical rectangle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)
    p.set_defaults(handler=_cmd_rectvalue)

    p = sub.add_parser("bias", parents=[common], help="marginal bias check for a tuple family")
    p.add_argument("--input", required=True, help="JSON with 'domains' and 'tuples'")
    p.add_argument("--eps", required=True, help="two-sided slack factor, rational")
    p.set_defaults(handler=_cmd_bias)

    p = sub.add_parser("ratio", parents=[common], help="relaxation-vs-polytope objective ratio")
    p.add_argument("--relaxation", required=True)
    p.add_argument("--polytope", required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument(
        "--objective",
        action="append",
        default=[],
        help="extra objective 'c1,c2,...', repeatable",
    )
    p.set_defaults(handler=_cmd_ratio)

    p = sub.add_parser("verify", parents=[common], help="check vertices, a factorization, or a formulation")
    p.add_argument("--input", required=True)
    p.add_argument("--rows", default="all")
    p.add_argument("--factorization", default=None)
    p.add_argument("--system", default=None)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        write_atomic(path, text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    start = time.monotonic()
    try:
        inputs, result, code = args.handler(args)
        if getattr(args, "format", "json") != "json":
            text = result["text"]
        else:
            envelope = {
                "command": args.verb,
                "inputs": inputs,
                "seed": args.seed,
                "result": result,
                "timing": {"seconds": round(time.monotonic() - start, 6)},
            }
            text = json.dumps(envelope, indent=1) + "\n"
        _emit(args.output, text)
    except (
        InputError,
        NotAnExtensionError,
        NotDerivableError,
        OSError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
