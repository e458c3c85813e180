"""Command-line front end.

One binary with subcommands, one result envelope.  Every run emits JSON of
the shape {command, inputs, seed, result, timing}, and JSON is the only
encoding of a matrix: `slack` writes its entries as that envelope's result,
and a polytope file holds its rows inline.  File inputs are recorded
with their sha256 so pipelines can be chained and audited.  `inputs` holds
every parsed argument of the verb except --seed and --output, so results are
deterministic given the recorded inputs and seed.  Only the four verbs that
draw at random (bounds, factorize, ratio, verify) take --seed; every other
verb records seed null.  Envelopes chain directly: `gen` output is accepted
wherever a polytope file is expected, `extend` output wherever `--system`
wants a formulation, and `contract`/`factorize` output wherever
`--factorization` wants a factorization.  Bare payload files work in all
three places too.

Exit codes: 0 success, 1 computational failure (budget exceeded, failed
verification), 2 input error or bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time

# CPython's built-in SHA-256 spares each process the OpenSSL that `hashlib`
# loads through `_hashlib`; its module is `_sha256` before 3.12, `_sha2` from
# 3.12 on, and a build without either still has `hashlib`.
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from .bounds import (
    COVER_CAP,
    COVER_LIMIT,
    NMF_RESTARTS,
    BoundConfig,
    factorization_from_json,
    factorization_to_json,
    nmf_heuristic,
    nonnegative_rank_bounds,
    rectangle_cover_exact,
    report_to_json,
)
from .errors import InputError, XclabError
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
    slack_max_norm,
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


def _sha256(path: str) -> str | None:
    """The file's sha256, or None for a pipe or other stream, which hashing
    would drain before the verb reads it."""
    with open(path, "rb") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            return None
        h = sha256()
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# Arguments naming files the run reads, recorded with their sha256.
_READ_FILES = ("input", "factorization", "system", "relaxation", "polytope")


def _inputs(args) -> dict:
    """The envelope's inputs: every argument of the verb as parsed, defaults
    included, except --seed (the envelope carries it) and --output."""
    return {
        key: {"path": value, "sha256": _sha256(value)}
        if key in _READ_FILES and value is not None
        else value
        for key, value in vars(args).items()
        if key not in ("verb", "handler", "seed", "output")
    }


def _row_filter(spec: str):
    """'oddset' keeps the proper odd-set rows, 'all' every row (the empty
    label prefix), anything else is a label prefix."""
    if spec == "oddset":
        return odd_set_rows
    prefix = "" if spec == "all" else spec
    return lambda lab: lab.startswith(prefix)


def _slack_input(args):
    """The slack matrix of the --input polytope restricted by --rows."""
    return slack_matrix(read_polytope(args.input), _row_filter(args.rows))


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
# Verb handlers.  Each returns (result, exit_code).

def _cmd_gen(args):
    if args.family == "pm-truncated":
        if args.s is None:
            raise InputError("pm-truncated needs --s")
        poly = truncated_matching_relaxation(args.n, args.s)
    elif args.s is not None:
        raise InputError(f"--s applies only to pm-truncated, not to {args.family}")
    elif args.family == "ppm":
        poly = perfect_matching_polytope(args.n)
    else:
        poly = matching_polytope(args.n)
    return {"polytope": polytope_to_json(poly)}, 0


def _cmd_slack(args):
    poly, keep = read_polytope(args.input), _row_filter(args.rows)
    s = slack_matrix(poly, keep)
    return {
        "nrows": s.nrows,
        "ncols": s.ncols,
        "row_labels": [lab for lab in poly.row_labels if keep(lab)],
        "col_labels": list(poly.vertex_labels),
        "entries": matrix_to_json(map(s.row, range(s.nrows))),
    }, 0


def _cmd_bounds(args):
    config = BoundConfig(
        cover_limit=args.cover_limit,
        cover_cap=args.cover_cap,
        nmf_restarts=args.nmf_restarts,
        nmf_cell_cap=args.nmf_cell_cap,
        nmf_max_tries=args.nmf_tries,
        seed=args.seed,
    )
    report = nonnegative_rank_bounds(_slack_input(args), config)
    witness_file = None
    if args.witness_out and report.upper_witness is not None:
        write_atomic(
            args.witness_out,
            json.dumps(factorization_to_json(report.upper_witness), indent=1) + "\n",
        )
        witness_file = args.witness_out
    return report_to_json(report, witness_file), 0


def _cmd_factorize(args):
    fac = nmf_heuristic(_slack_input(args), args.r, restarts=args.restarts, seed=args.seed)
    if fac is None:
        return {"found": False, "factorization": None}, 1
    return {"found": True, "factorization": factorization_to_json(fac)}, 0


def _cmd_extend(args):
    poly = read_polytope(args.input)
    if args.factorization is not None:
        fac = factorization_from_json(load_payload(args.factorization, "factorization"))
    else:
        fac = slack_variable_factorization(slack_matrix(poly))
    system = extension_from_factorization(poly, fac)
    return {"formulation": formulation_to_json(system), "n_facets": system.n_ineqs}, 0


def _cmd_contract(args):
    poly = read_polytope(args.input)
    system = formulation_from_json(load_payload(args.system, "formulation"))
    fac = factorization_from_extension(poly, system)
    return {"factorization": factorization_to_json(fac), "r": fac.r}, 0


def _cmd_cover(args):
    result = rectangle_cover_exact(_slack_input(args), limit=args.limit, cap=args.cap)
    out = {
        "status": result.status,
        "size": result.size,
        "explored": result.explored,
        "rectangles": [_rect_json(r) for r in result.rectangles],
    }
    return out, 0 if result.status == "optimal" else 1


def _cmd_sep(args):
    inner = ws_inner_product(args.n, args.t, args.k)
    result = {
        "inner_product": format_rational(inner),
        "slack_norm": format_rational(rat(slack_max_norm(args.n, args.t))),
    }
    return result, 0


def _cmd_qsize(args):
    return {"size": q_class_size(args.n, args.t, args.ell)}, 0


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
    return result, 1 if result["equal"] is False else 0


def _ground_rectangle(args):
    """The ground and the canonical rectangle of --e1/--e2."""
    ground = CutMatchingGround.build(args.n, args.t)
    return ground, canonical_rectangle(ground, _parse_edge(args.e1), _parse_edge(args.e2))


def _cmd_mu(args):
    ground, rect = _ground_rectangle(args)
    value = mu(ground, rect, args.ell)
    result = {
        "mu": format_rational(value),
        "rectangle": {"n_rows": len(rect.rows), "n_cols": len(rect.cols)},
    }
    return result, 0


def _cmd_rectvalue(args):
    ground, rect = _ground_rectangle(args)
    report = rectangle_w_value(ground, rect, args.k)
    result = {
        "finite": report.finite,
        "value": None if report.value is None else format_rational(report.value),
        "mu3": None if report.mu3 is None else format_rational(report.mu3),
        "muk": None if report.muk is None else format_rational(report.muk),
        "q1_hits": report.q1_hits,
    }
    return result, 0


def _cmd_bias(args):
    obj = load_json(args.input)
    try:
        domains = [tuple(d) for d in obj["domains"]]
        tuples = [tuple(row) for row in obj["tuples"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bias input needs 'domains' and 'tuples': {exc}") from exc
    flagged = biased_indices(tuples, domains, args.eps)
    return {"biased": list(flagged), "n_tuples": len(tuples)}, 0


def _cmd_ratio(args):
    relaxation = read_polytope(args.relaxation)
    poly = read_polytope(args.polytope)
    extras = tuple(_parse_objective(text) for text in args.objective)
    report = approximation_ratio(
        relaxation, poly, args.trials, args.seed, extra_objectives=extras
    )
    result = {
        "ratio": format_rational(report.ratio),
        "worst_objective": list(report.worst_objective),
        "trials": report.trials,
    }
    return result, 0


# Projection trials of verify --system.
VERIFY_TRIALS = 20


def _cmd_verify(args):
    if args.factorization is None and args.rows != "all":
        raise InputError("--rows applies only to a --factorization check")
    if args.system is None and (args.trials != VERIFY_TRIALS or args.seed != 0):
        raise InputError("--trials and --seed apply only to a --system check")
    poly = read_polytope(args.input)
    if args.factorization is not None:
        fac = factorization_from_json(load_payload(args.factorization, "factorization"))
        ok = verify_factorization(slack_matrix(poly, _row_filter(args.rows)), fac)
        result = {"check": "factorization", "ok": ok}
    elif args.system is not None:
        system = formulation_from_json(load_payload(args.system, "formulation"))
        report = lp_equal_under_projection(poly, system, args.trials, args.seed)
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
    return result, 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser assembly and the envelope writer.

class _VerbParser(argparse.ArgumentParser):
    """A verb's parser.  It refuses an argument the verb does not take itself,
    so the error shows the verb's usage, not the top-level usage of every verb."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    # Argument groups that several verbs share, as parent parsers.  --ell
    # and --k are groups of their own so that mu and rectvalue keep their
    # flag order, which usage lines and missing-argument errors show.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="write the envelope here instead of stdout")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="RNG seed, recorded in the envelope")
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", required=True)
    source.add_argument("--rows", default="all", help="'all', 'oddset', or a label prefix")
    ground = argparse.ArgumentParser(add_help=False)
    ground.add_argument("--n", type=int, required=True)
    ground.add_argument("--t", type=int, required=True)
    ell = argparse.ArgumentParser(add_help=False)
    ell.add_argument("--ell", type=int, required=True)
    k = argparse.ArgumentParser(add_help=False)
    k.add_argument("--k", type=int, required=True)
    edges = argparse.ArgumentParser(add_help=False)
    edges.add_argument("--e1", required=True, help="edge 'a-b'")
    edges.add_argument("--e2", required=True, help="edge 'c-d', disjoint from e1")

    parser = argparse.ArgumentParser(
        prog="xclab",
        description="Exact-arithmetic toolkit for polytopes, slack matrices, and extension bounds.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_VerbParser)

    def verb(name, handler, parents, summary):
        p = sub.add_parser(name, parents=[common, *parents], help=summary)
        p.set_defaults(handler=handler)
        return p

    p = verb("gen", _cmd_gen, [], "generate a matching polytope")
    p.add_argument("family", choices=["ppm", "pm", "pm-truncated"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=None, help="odd-set size cutoff for pm-truncated")

    verb("slack", _cmd_slack, [source], "slack matrix of a polytope")

    p = verb("bounds", _cmd_bounds, [seeded, source], "certified nonnegative-rank interval")
    p.add_argument("--cover-limit", type=int, default=BoundConfig.cover_limit)
    p.add_argument("--cover-cap", type=int, default=BoundConfig.cover_cap)
    p.add_argument("--nmf-restarts", type=int, default=BoundConfig.nmf_restarts)
    p.add_argument("--nmf-cell-cap", type=int, default=BoundConfig.nmf_cell_cap)
    p.add_argument("--nmf-tries", type=int, default=BoundConfig.nmf_max_tries)
    p.add_argument("--witness-out", default=None, help="write the upper witness factorization here")

    p = verb("factorize", _cmd_factorize, [seeded, source], "heuristic nonnegative factorization")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--restarts", type=int, default=NMF_RESTARTS)

    p = verb("extend", _cmd_extend, [], "factorization to extended formulation")
    p.add_argument("--input", required=True)
    p.add_argument("--factorization", default=None, help="factorization JSON; omit for slack-variable")

    p = verb("contract", _cmd_contract, [], "extended formulation to factorization")
    p.add_argument("--input", required=True)
    p.add_argument("--system", required=True, help="formulation JSON from `extend`")

    p = verb("cover", _cmd_cover, [source], "minimum support rectangle cover")
    p.add_argument("--limit", type=int, default=COVER_LIMIT)
    p.add_argument("--cap", type=int, default=COVER_CAP)

    verb("sep", _cmd_sep, [ground, k], "separation bound pieces in counting mode")
    verb("qsize", _cmd_qsize, [ground, ell], "crossing-class size by closed form")
    p = verb("wdot", _cmd_wdot, [ground, k], "weight-slack inner product")
    p.add_argument("--crosscheck", action="store_true", help="also materialize the ground")
    verb("mu", _cmd_mu, [ground, ell, edges], "class measure of a canonical rectangle")
    verb("rectvalue", _cmd_rectvalue, [ground, k, edges], "weight of a canonical rectangle")

    p = verb("bias", _cmd_bias, [], "marginal bias check for a tuple family")
    p.add_argument("--input", required=True, help="JSON with 'domains' and 'tuples'")
    p.add_argument("--eps", required=True, help="two-sided slack factor, rational")

    p = verb("ratio", _cmd_ratio, [seeded], "relaxation-vs-polytope objective ratio")
    p.add_argument("--relaxation", required=True)
    p.add_argument("--polytope", required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument(
        "--objective",
        action="append",
        default=[],
        help="extra objective 'c1,c2,...', repeatable",
    )

    p = verb(
        "verify", _cmd_verify, [seeded, source], "check vertices, a factorization, or a formulation"
    )
    check = p.add_mutually_exclusive_group()
    check.add_argument("--factorization", default=None)
    check.add_argument("--system", default=None)
    p.add_argument("--trials", type=int, default=VERIFY_TRIALS)

    return parser


def _dumps(envelope: dict) -> str:
    """The envelope as JSON text.  An exact result can be an int over
    CPython's int-to-str digit limit (|Q_ell| for large n), so the limit is
    lifted for this write only; parsing input files keeps it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(envelope, indent=1) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


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
        # Hash the inputs before the verb runs: it may overwrite one of them.
        inputs = _inputs(args)
        result, code = args.handler(args)
        envelope = {
            "command": args.verb,
            "inputs": inputs,
            "seed": vars(args).get("seed"),
            "result": result,
            "timing": {"seconds": round(time.monotonic() - start, 6)},
        }
        _emit(args.output, _dumps(envelope))
    except (XclabError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
