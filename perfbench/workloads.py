"""The four workloads: per-pass set-up ops, timed ops and output checks.

A pass is one closed loop over a workload's ops with a single client.  The
workload seed only picks inputs: `verify --system` objectives, the edge
pairs given to `rectvalue`/`mu`, and the heuristic alpha seed.  Every op
checks its exit code and its content.  Deterministic verbs compare the
sha256 of their canonical `result` against golden.json; heuristic and
bound outputs re-verify their witness instead.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ops import CHILD, Op, canonical_sha256

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)

def golden(key: str, extra: Callable[[dict], str | None] | None = None):
    """Check that the envelope's result matches the digest recorded for key."""

    def check(envelope):
        digest = canonical_sha256(envelope["result"])
        if digest != GOLDEN[key]:
            return f"result digest {digest[:12]} != golden {GOLDEN[key][:12]} for {key}"
        return extra(envelope["result"]) if extra else None

    return check


def wdot_consistent(result: dict) -> str | None:
    """Both evaluation paths of <W, S> must agree on exactly 1, whatever the
    exit code says."""
    if result["equal"] is not True or not (result["counting"] == result["materialized"] == "1"):
        return (
            f"wdot crosscheck failed: counting={result['counting']} "
            f"materialized={result['materialized']} equal={result['equal']}"
        )
    return None


def bounds_sandwich(envelope) -> str | None:
    r = envelope["result"]
    if not (r["lower"] == r["upper"] == 10):
        return f"bounds on ppm6 oddset gave [{r['lower']}, {r['upper']}], expected [10, 10]"
    return None


def support_of(polytope_path: str) -> set[tuple[int, int]]:
    """Support of the slack matrix of a polytope JSON file, computed here
    from the file rather than by the program under test."""
    with open(polytope_path, encoding="utf-8") as fh:
        obj = json.load(fh)
    rows = [[Fraction(x) for x in row] for row in obj["ineqs"]["rows"]]
    rhs = [Fraction(x) for x in obj["ineqs"]["rhs"]]
    verts = [[Fraction(x) for x in v] for v in obj["vertices"]]
    return {
        (i, j)
        for i, (a, b) in enumerate(zip(rows, rhs))
        for j, v in enumerate(verts)
        if b - sum(x * y for x, y in zip(a, v)) != 0
    }


def cover_check(polytope_path: str):
    def check(envelope) -> str | None:
        r = envelope["result"]
        if r["status"] == "exceeded":
            return None
        if r["status"] != "optimal":
            return f"cover status {r['status']!r}"
        support = support_of(polytope_path)
        covered = set()
        for rect in r["rectangles"]:
            cells = {(i, j) for i in rect["rows"] for j in rect["cols"]}
            if not cells <= support:
                return "a cover rectangle leaves the support"
            covered |= cells
        if covered != support or len(r["rectangles"]) != r["size"]:
            return "cover rectangles do not cover the support exactly"
        return None

    return check


def not_found(envelope) -> str | None:
    if envelope["result"]["found"] is not False:
        return "factorize found a rank-5 factorization of cube3, whose cover bound is 6"
    return None


def api_check(output) -> str | None:
    if output["n_rectangles"] != 630:
        return f"sweep covered {output['n_rectangles']} rectangles, expected 630"
    if output["sweep_sha256"] != GOLDEN["rect-sweep-10-5-5"]:
        return "canonical-rectangle sweep digest differs from golden"
    if output["alpha_problems"]:
        return "; ".join(output["alpha_problems"])
    return None


# ---------------------------------------------------------------------------

def probes() -> list[Op]:
    """Start-up check every pass begins with: a bare interpreter and a fresh
    `import xclab.cli`; their difference is cli.import_s."""
    return [
        Op("probe-bare", "raw", ["-c", "pass"]),
        Op("probe-import", "raw", ["-c", "import xclab.cli"]),
    ]


def gen(n: int) -> Op:
    return Op(
        f"gen-ppm{n}",
        "cli",
        ["gen", "ppm", "--n", str(n)],
        check=golden(f"gen-ppm{n}"),
        metric="gen_s" if n == 10 else None,
        stdout=f"ppm{n}.json",
    )


def edge_pairs(seed: int, count: int) -> list[tuple[str, str]]:
    """Disjoint edge pairs on 10 nodes, drawn from the workload seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a, b, c, d = rng.sample(range(10), 4)
        out.append((f"{min(a, b)}-{max(a, b)}", f"{min(c, d)}-{max(c, d)}"))
    return out


def ppm10_slack(seed: int, workdir: str) -> tuple[list[Op], list[Op]]:
    return probes(), [
        gen(10),
        Op(
            "slack",
            "cli", ["slack", "--input", "ppm10.json", "--rows", "oddset"],
            check=golden("slack-ppm10-oddset"),
            metric="slack_s",
        ),
    ]


def lp_roundtrip(seed: int, workdir: str) -> tuple[list[Op], list[Op]]:
    setup = probes() + [gen(6), gen(8)]
    return setup, [
        Op(
            "extend",
            "cli", ["extend", "--input", "ppm6.json"],
            check=golden("extend-ppm6"),
            metric="extend_s",
            stdout="ext6.json",
        ),
        Op(
            "contract",
            "cli", ["contract", "--input", "ppm6.json", "--system", "ext6.json"],
            check=golden("contract-ppm6"),
            metric="contract_s",
        ),
        Op(
            "verify-projection",
            "cli", ["verify", "--input", "ppm6.json", "--system", "ext6.json",
                     "--trials", "20", "--seed", str(seed)],
            check=golden("verify-projection-ppm6"),
            metric="verify_projection_s",
        ),
        Op(
            "verify-vertices",
            "cli", ["verify", "--input", "ppm8.json"],
            check=golden("verify-vertices-ppm8"),
            metric="verify_vertices_s",
        ),
    ]


def cut_matching(seed: int, workdir: str) -> tuple[list[Op], list[Op]]:
    ground = ["--n", "10", "--t", "5"]
    ops = [
        Op(
            "wdot",
            "cli", ["wdot", *ground, "--k", "5", "--crosscheck"],
            check=golden("wdot-10-5-5", wdot_consistent),
            metric="wdot_s",
        )
    ]
    pairs = edge_pairs(seed, 16)
    for i, (e1, e2) in enumerate(pairs[:8]):
        ops.append(Op(
            f"rectvalue-{i}",
            "cli", ["rectvalue", *ground, "--k", "5", "--e1", e1, "--e2", e2],
            check=golden("rectvalue-10-5-5"),
            metric="rectvalue_s",
        ))
    for i, (e1, e2) in enumerate(pairs[8:]):
        ops.append(Op(
            f"mu-{i}",
            "cli", ["mu", *ground, "--ell", "3", "--e1", e1, "--e2", e2],
            check=golden("mu-10-5-3"),
            metric="rectvalue_s",
        ))
    ops.append(Op("api-session", "api", ["--seed", str(seed)], check=api_check))
    return probes(), ops


def bounds_search(seed: int, workdir: str) -> tuple[list[Op], list[Op]]:
    setup = probes() + [
        Op("cubes", "raw", [CHILD, "cubes", "."]),
        gen(6),
    ]
    return setup, [
        Op(
            "bounds",
            "cli", ["bounds", "--input", "ppm6.json", "--rows", "oddset"],
            check=bounds_sandwich,
            metric="bounds_s",
        ),
        Op(
            "cover",
            "cli", ["cover", "--input", "cube4.json"],
            expect_exit=1,
            check=cover_check(os.path.join(workdir, "cube4.json")),
            metric="cover_s",
        ),
        # The random-mix start costs 0.3 s to 18 s depending on --seed
        # (seeds 0-11 at commit 3d15f36), so the op keeps the program's
        # default seed 0, about 12 s, whatever the workload seed.
        Op(
            "factorize",
            "cli", ["factorize", "--input", "cube3.json", "--r", "5", "--restarts", "1"],
            expect_exit=1,
            check=not_found,
            metric="factorize_s",
        ),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, str], tuple[list[Op], list[Op]]]
    fresh_cache: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ppm10-slack",
            "gen ppm --n 10 then slack --rows oddset: polytope validation, slack and JSON at 945 vertices, no LP",
            ppm10_slack,
        ),
        Workload(
            "lp-roundtrip",
            "extend, contract and two verify verbs on ppm6/ppm8: about 700 small cold exact LPs, tiny polytopes",
            lp_roundtrip,
        ),
        Workload(
            "cut-matching",
            "cold wdot --crosscheck, 16 cache-hit rectvalue/mu calls, 630-rectangle sweep and heuristic alpha on W(10,5,5)",
            cut_matching,
            fresh_cache=True,
        ),
        Workload(
            "bounds-search",
            "bounds on ppm6 oddset, rectangle cover of cube4 and a rank-5 NMF restart on cube3: combinatorial search, growing LPs",
            bounds_search,
        ),
    )
}
