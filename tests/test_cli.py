import argparse
import hashlib
import json
import os
import stat
import subprocess
import sys
from fractions import Fraction

import pytest

import xclab
from xclab.bounds import (
    COVER_CAP,
    COVER_LIMIT,
    NMF_RESTARTS,
    BoundConfig,
    factorization_from_json,
    factorization_to_json,
    nonnegative_rank_bounds,
    rectangle_cover_exact,
    report_to_json,
)
from xclab.cli import _build_parser, _sha256, main
from xclab.exactla import rat
from xclab.matchgen import (
    matching_polytope,
    perfect_matching_polytope,
    truncated_matching_relaxation,
)
from xclab.polytope import (
    Polytope,
    face,
    hypercube_polytope,
    polytope_to_json,
    simplex_polytope,
    slack_matrix,
    write_polytope,
)
from xclab.sepmeasure import q_class_size
from xclab.yannakakis import (
    extension_from_factorization,
    formulation,
    formulation_to_json,
    slack_variable_factorization,
    verify_factorization,
)


def run(args, out):
    rc = main([str(a) for a in args] + ["--output", str(out)])
    if out.exists():
        return rc, json.loads(out.read_text())
    return rc, None


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("ground-cache"))


@pytest.fixture()
def ground_cache(cache_dir, monkeypatch):
    monkeypatch.setenv("XCLAB_CACHE_DIR", cache_dir)


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.json"
    write_polytope(str(path), hypercube_polytope(2))
    return path


def test_gen_envelope_schema(tmp_path):
    rc, env = run(["gen", "ppm", "--n", 6], tmp_path / "p.json")
    assert rc == 0
    assert set(env) == {"command", "inputs", "seed", "result", "timing"}
    assert env["command"] == "gen"
    assert env["inputs"] == {"family": "ppm", "n": 6, "s": None}
    assert env["seed"] is None
    assert len(env["result"]["polytope"]["vertices"]) == 15
    assert env["timing"]["seconds"] >= 0


def test_gen_validation(tmp_path):
    out = tmp_path / "p.json"
    assert main(["gen", "ppm", "--n", "5", "--output", str(out)]) == 2
    assert not out.exists()
    assert main(["gen", "pm-truncated", "--n", "5", "--output", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("family, n", [("ppm", 4), ("pm", 3)])
def test_gen_rejects_s_outside_pm_truncated(family, n, tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["gen", family, "--n", str(n), "--s", "3", "--output", str(out)]) == 2
    assert "--s applies only to pm-truncated" in capsys.readouterr().err
    assert not out.exists()


def test_output_write_failure_is_input_error(tmp_path, capsys):
    out = tmp_path / "out.json"
    out.mkdir()
    assert main(["gen", "ppm", "--n", "4", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("input error:")
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    assert list(out.iterdir()) == []
    # a written artifact gets the mode a plain open() would give it
    out.rmdir()
    assert main(["gen", "ppm", "--n", "4", "--output", str(out)]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_unknown_verb_and_bad_usage():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["gen", "ppm"]) == 2


def test_envelope_chains_into_polytope_input(tmp_path):
    rc, _ = run(["gen", "pm", "--n", 3], tmp_path / "pm3.json")
    assert rc == 0
    rc, env = run(["slack", "--input", tmp_path / "pm3.json"], tmp_path / "s.json")
    assert rc == 0
    assert env["result"]["nrows"] == 7
    assert env["result"]["ncols"] == 4
    assert env["inputs"]["input"]["sha256"]


def test_slack_rows_filter_and_formats(tmp_path):
    rc, _ = run(["gen", "ppm", "--n", 6], tmp_path / "p.json")
    rc, env = run(
        ["slack", "--input", tmp_path / "p.json", "--rows", "oddset"],
        tmp_path / "s.json",
    )
    assert rc == 0
    assert env["result"]["nrows"] == 10
    assert all(lab.startswith("oddset:") for lab in env["result"]["row_labels"])
    assert env["inputs"] == {
        "input": {"path": str(tmp_path / "p.json"), "sha256": _sha256(str(tmp_path / "p.json"))},
        "rows": "oddset",
    }

    # JSON is the one encoding: any --format is bad usage
    for fmt in ("csv", "matrix-text", "json"):
        out = tmp_path / f"as-{fmt}.out"
        rc = main(["slack", "--input", str(tmp_path / "p.json"), "--format", fmt,
                   "--output", str(out)])
        assert rc == 2
        assert not out.exists()


def test_slack_labels_simplex2(tmp_path):
    """Rows are labelled by the kept inequality rows, columns by the
    vertices, in the polytope's order."""
    path = tmp_path / "simplex2.json"
    write_polytope(str(path), simplex_polytope(2))
    rc, env = run(["slack", "--input", path], tmp_path / "s.json")
    assert rc == 0
    assert env["result"] == {
        "nrows": 3,
        "ncols": 3,
        "row_labels": ["nonneg:0", "nonneg:1", "sum"],
        "col_labels": ["origin", "unit:0", "unit:1"],
        "entries": [["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]],
    }
    rc, env = run(["slack", "--input", path, "--rows", "nonneg"], tmp_path / "n.json")
    assert rc == 0
    assert env["result"]["row_labels"] == ["nonneg:0", "nonneg:1"]
    assert env["result"]["col_labels"] == ["origin", "unit:0", "unit:1"]


def test_bounds_simplex3(tmp_path):
    path = tmp_path / "simplex3.json"
    write_polytope(str(path), simplex_polytope(3))
    witness = tmp_path / "witness.json"
    rc, env = run(
        ["bounds", "--input", path, "--witness-out", witness], tmp_path / "b.json"
    )
    assert rc == 0
    assert env["result"]["lower"] == 4
    assert env["result"]["upper"] == 4
    assert env["result"]["upper_witness_file"] == str(witness)
    fac = factorization_from_json(json.loads(witness.read_text()))
    assert verify_factorization(slack_matrix(simplex_polytope(3)), fac)


def test_bounds_reproducible(square_file, tmp_path):
    rc1, env1 = run(["bounds", "--input", square_file, "--seed", 7], tmp_path / "a.json")
    rc2, env2 = run(["bounds", "--input", square_file, "--seed", 7], tmp_path / "b.json")
    assert rc1 == rc2 == 0
    assert env1["result"] == env2["result"]
    assert env1["seed"] == 7


@pytest.mark.parametrize("name", ["cube3", "ppm4"])
def test_bounds_and_cover_default_to_the_library_budgets(name, tmp_path):
    poly = hypercube_polytope(3) if name == "cube3" else perfect_matching_polytope(4)
    path = tmp_path / f"{name}.json"
    write_polytope(str(path), poly)
    s = slack_matrix(poly)
    rc, env = run(["bounds", "--input", path], tmp_path / "b.json")
    assert rc == 0
    assert env["result"] == report_to_json(nonnegative_rank_bounds(s))
    config = BoundConfig()
    recorded = [env["inputs"][key] for key in
                ("cover_limit", "cover_cap", "nmf_restarts", "nmf_cell_cap", "nmf_tries")]
    assert recorded == [config.cover_limit, config.cover_cap, config.nmf_restarts,
                        config.nmf_cell_cap, config.nmf_max_tries]
    rc, env = run(["factorize", "--input", path, "--r", s.nrows], tmp_path / "f.json")
    assert rc == 0
    assert env["inputs"]["restarts"] == NMF_RESTARTS
    cover = rectangle_cover_exact(s)
    rc, env = run(["cover", "--input", path], tmp_path / "c.json")
    assert rc == (0 if cover.status == "optimal" else 1)
    assert (env["inputs"]["limit"], env["inputs"]["cap"]) == (COVER_LIMIT, COVER_CAP)
    assert env["result"] == {
        "status": cover.status,
        "size": cover.size,
        "explored": cover.explored,
        "rectangles": [{"rows": sorted(r.rows), "cols": sorted(r.cols)} for r in cover.rectangles],
    }


def test_factorize_found_and_not_found(square_file, tmp_path):
    rc, env = run(["factorize", "--input", square_file, "--r", 4], tmp_path / "f.json")
    assert rc == 0
    assert env["result"]["found"] is True
    fac = factorization_from_json(env["result"]["factorization"])
    assert verify_factorization(slack_matrix(hypercube_polytope(2)), fac)

    rc, env = run(["factorize", "--input", square_file, "--r", 3], tmp_path / "g.json")
    assert rc == 1
    assert env["result"]["found"] is False


def test_factorize_cube3_rank5_not_found(tmp_path):
    # the cover bound of the 3-cube is 6, so no rank-5 factorization exists
    write_polytope(str(tmp_path / "cube3.json"), hypercube_polytope(3))
    argv = ["factorize", "--input", tmp_path / "cube3.json", "--r", 5, "--restarts", 1]
    rc, env = run(argv, tmp_path / "f.json")
    assert rc == 1
    assert env["result"] == {"found": False, "factorization": None}
    # with unrounded sweep iterates this run took about 15 s, now about 0.2 s
    assert env["timing"]["seconds"] < 10


def test_factorization_not_found_is_input_error(tmp_path, capsys):
    write_polytope(str(tmp_path / "cube3.json"), hypercube_polytope(3))
    nf = tmp_path / "nf.json"
    rc, env = run(["factorize", "--input", tmp_path / "cube3.json", "--r", 3], nf)
    assert rc == 1
    assert env["result"] == {"found": False, "factorization": None}
    capsys.readouterr()
    for verb in ("verify", "extend"):
        out = tmp_path / f"{verb}.json"
        argv = [verb, "--input", tmp_path / "cube3.json", "--factorization", nf]
        assert main([str(a) for a in argv] + ["--output", str(out)]) == 2
        assert "the factorize run found no factorization" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("check", ["vertices", "projection"])
def test_verify_rows_needs_a_factorization(check, square_file, tmp_path, capsys):
    rc, _ = run(["extend", "--input", square_file], tmp_path / "ef.json")
    assert rc == 0
    argv = ["verify", "--input", square_file]
    if check == "projection":
        argv += ["--system", tmp_path / "ef.json"]
    out = tmp_path / "v.json"
    assert main([str(a) for a in argv + ["--rows", "lo", "--output", out]]) == 2
    assert "--rows applies only to a --factorization check" in capsys.readouterr().err
    assert not out.exists()
    rc, env = run(argv + ["--rows", "all"], out)
    assert rc == 0
    assert env["result"]["check"] == check


def test_verify_factorization_and_system_exclude_each_other(square_file, tmp_path, capsys):
    fac = slack_variable_factorization(slack_matrix(hypercube_polytope(2)))
    fac_file = tmp_path / "fac.json"
    fac_file.write_text(json.dumps(factorization_to_json(fac)))
    out = tmp_path / "v.json"
    argv = ["verify", "--input", square_file, "--factorization", fac_file,
            "--system", tmp_path / "missing.json", "--output", out]
    assert main([str(a) for a in argv]) == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()


def test_bridge_results_match_golden_digests(tmp_path):
    """gen, extend, contract and verify --system on ppm6 give the results
    pinned in perfbench/golden.json (read here, never written)."""
    golden_path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "golden.json")
    with open(golden_path, encoding="utf-8") as fh:
        golden = json.load(fh)
    p, ext = tmp_path / "ppm6.json", tmp_path / "ext6.json"
    steps = [
        ("gen-ppm6", ["gen", "ppm", "--n", 6], p),
        ("extend-ppm6", ["extend", "--input", p], ext),
        ("contract-ppm6", ["contract", "--input", p, "--system", ext], tmp_path / "c.json"),
        ("verify-projection-ppm6",
         ["verify", "--input", p, "--system", ext, "--trials", 20], tmp_path / "v.json"),
    ]
    for key, argv, out in steps:
        rc, env = run(argv, out)
        assert rc == 0, key
        text = json.dumps(env["result"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == golden[key], key


def test_padded_extension_lifts_keep_their_results(tmp_path):
    """`factorize --r 11` on ppm4 pads its factorization with a zero column,
    so the extension's equalities leave that lift coordinate free and
    `contract` and `verify --system` decide every lift by LPs.  Each step's
    exit code and `result` digest is pinned."""
    p, fac, ext = (tmp_path / f"{name}.json" for name in ("ppm4", "fac", "ext"))
    steps = [
        (["gen", "ppm", "--n", 4], p,
         "dc264c728a146a04d331c98ec13b82fc50e0a3e392736dd6cb7e1a801950371a"),
        (["factorize", "--input", p, "--r", 11], fac,
         "6eb1b1a0baf47bd56acd664924710bf62866fe124255ef8ec774c557f48d1516"),
        (["extend", "--input", p, "--factorization", fac], ext,
         "317a185623d8bb536b485eadb2c079d4a92159ef29a5d4377c06db0cfc2cc2df"),
        (["contract", "--input", p, "--system", ext], tmp_path / "c.json",
         "f31c08e74c09870356975fd1ed374847b37d8f8036462644011f565929cbde56"),
        (["verify", "--input", p, "--system", ext, "--trials", 20, "--seed", 1], tmp_path / "v.json",
         "e397e6565ec85f407ffa7dd4a5ca5f205ee0cbc0ed0565e971ab6aa9f609823e"),
    ]
    for argv, out, digest in steps:
        rc, env = run(argv, out)
        text = json.dumps(env["result"], sort_keys=True, separators=(",", ":"))
        assert (rc, hashlib.sha256(text.encode("utf-8")).hexdigest()) == (0, digest), argv[0]
    left = json.loads(fac.read_text())["result"]["factorization"]["left"]
    assert all(row[-1] == "0" for row in left)


def test_extend_contract_verify_chain(tmp_path):
    rc, _ = run(["gen", "ppm", "--n", 4], tmp_path / "p.json")
    rc, env = run(["extend", "--input", tmp_path / "p.json"], tmp_path / "ef.json")
    assert rc == 0
    assert env["result"]["n_facets"] == 10
    # --system takes the extend envelope directly or the bare formulation
    bare_file = tmp_path / "formulation.json"
    bare_file.write_text(json.dumps(env["result"]["formulation"]))

    rc, env = run(
        ["verify", "--input", tmp_path / "p.json", "--system", tmp_path / "ef.json",
         "--trials", 10],
        tmp_path / "v.json",
    )
    assert rc == 0
    assert env["result"]["ok"] is True

    rc, env = run(
        ["contract", "--input", tmp_path / "p.json", "--system", bare_file],
        tmp_path / "c.json",
    )
    assert rc == 0
    assert env["result"]["r"] == 10

    # --factorization takes the contract envelope directly
    rc, env = run(
        ["verify", "--input", tmp_path / "p.json", "--factorization", tmp_path / "c.json"],
        tmp_path / "v2.json",
    )
    assert rc == 0
    assert env["result"]["ok"] is True


def test_verify_system_trials(tmp_path):
    rc, _ = run(["gen", "ppm", "--n", 4], tmp_path / "p.json")
    rc, _ = run(["extend", "--input", tmp_path / "p.json"], tmp_path / "ef.json")
    verify = ["verify", "--input", tmp_path / "p.json", "--system", tmp_path / "ef.json"]
    out = tmp_path / "v.json"
    assert main([str(a) for a in verify] + ["--trials", "-3", "--output", str(out)]) == 2
    assert not out.exists()
    # zero trials still runs the vertex-lift check
    rc, env = run(verify + ["--trials", 0], out)
    assert rc == 0
    assert env["result"]["ok"] is True
    # lowering one right-hand side leaves a vertex tight on that row unliftable
    ef = json.loads((tmp_path / "ef.json").read_text())
    rhs = ef["result"]["formulation"]["eqs"]["rhs"]
    rhs[0] = str(rat(rhs[0]) - 1)
    (tmp_path / "ef.json").write_text(json.dumps(ef))
    rc, env = run(verify + ["--trials", 0], out)
    assert rc == 1
    assert env["result"]["reason"] == "vertex-lift"


@pytest.mark.parametrize(
    "key, value", [("x_dim", 1.9), ("x_dim", True), ("x_dim", "1"), ("y_dim", 2.0), ("y_dim", "2")]
)
def test_formulation_dimensions_must_be_integers(key, value, tmp_path, capsys):
    write_polytope(str(tmp_path / "seg.json"), simplex_polytope(1))
    rc, env = run(["extend", "--input", tmp_path / "seg.json"], tmp_path / "ef.json")
    assert rc == 0
    assert (env["result"]["formulation"]["x_dim"], env["result"]["n_facets"]) == (1, 2)
    env["result"]["formulation"][key] = value
    (tmp_path / "ef.json").write_text(json.dumps(env))
    out = tmp_path / "v.json"
    argv = ["verify", "--input", tmp_path / "seg.json", "--system", tmp_path / "ef.json"]
    assert main([str(a) for a in argv] + ["--output", str(out)]) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_verify_vertices_failure(tmp_path):
    obj = polytope_to_json(hypercube_polytope(2))
    obj["vertices"].append(["1/2", "1/2"])
    obj["vertex_labels"] = None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rc, env = run(["verify", "--input", bad], tmp_path / "v.json")
    assert rc == 1
    assert env["result"]["ok"] is False
    assert env["result"]["first_bad"] == 4


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 6: verify --input does not check that the vertex list is complete",
)
def test_verify_refuses_a_vertex_list_without_a_vertex(tmp_path):
    cube = hypercube_polytope(3)
    keep = [j for j, v in enumerate(cube.vertices) if v != (1, 1, 1)]
    partial = Polytope.build(
        *cube.ineqs,
        [cube.vertices[j] for j in keep],
        row_labels=cube.row_labels,
        vertex_labels=[cube.vertex_labels[j] for j in keep],
    )
    write_polytope(str(tmp_path / "p.json"), partial)
    rc, _ = run(["verify", "--input", tmp_path / "p.json"], tmp_path / "v.json")
    assert rc == 1


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: verify --system samples proj(Q) <= P on seeded objectives only",
)
def test_verify_refuses_a_system_whose_projection_is_larger(tmp_path):
    # Q is the slack-variable extension of a pentagon: the unit square
    # plus the point (101/100, 1/2), which no objective at seed 0 reaches.
    half, cent = Fraction(1, 2), Fraction(1, 100)
    rows = [(-1, 0), (0, -1), (0, 1), (half, -cent), (half, cent)]
    rhs = [0, 0, 1, half, Fraction(51, 100)]
    eq_rows = [[*row, *(int(i == k) for k in range(5))] for i, row in enumerate(rows)]
    system = formulation(2, 5, eq_rows, rhs)
    write_polytope(str(tmp_path / "p.json"), hypercube_polytope(2))
    (tmp_path / "q.json").write_text(json.dumps(formulation_to_json(system)))
    contract = ["contract", "--input", tmp_path / "p.json", "--system", tmp_path / "q.json"]
    assert run(contract, tmp_path / "c.json")[0] == 2
    verify = ["verify", "--input", tmp_path / "p.json", "--system", tmp_path / "q.json"]
    rc, _ = run(verify + ["--seed", 0], tmp_path / "v.json")
    assert rc == 1


def test_cover_optimal_and_exceeded(square_file, tmp_path):
    rc, env = run(["cover", "--input", square_file], tmp_path / "c.json")
    assert rc == 0
    assert env["result"]["status"] == "optimal"
    assert env["result"]["size"] == 4

    rc, env = run(["cover", "--input", square_file, "--limit", 2], tmp_path / "d.json")
    assert rc == 1
    assert env["result"]["status"] == "exceeded"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["cover", "--limit", -5], "limit"),
        (["cover", "--cap", -1], "cap"),
        (["factorize", "--r", 2, "--restarts", -1], "restarts"),
        (["bounds", "--cover-limit", -5], "cover_limit"),
        (["bounds", "--cover-cap", -1], "cover_cap"),
        (["bounds", "--nmf-restarts", -1], "nmf_restarts"),
        (["bounds", "--nmf-cell-cap", -1], "nmf_cell_cap"),
        (["bounds", "--nmf-tries", -2], "nmf_max_tries"),
    ],
)
def test_negative_budgets_are_input_errors(argv, name, square_file, tmp_path, capsys):
    out = tmp_path / "o.json"
    rc = main([str(a) for a in argv + ["--input", square_file, "--output", out]])
    assert rc == 2
    assert f"{name} must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_cover_zero_limit_is_exceeded(square_file, tmp_path):
    rc, env = run(["cover", "--input", square_file, "--limit", 0], tmp_path / "c.json")
    assert rc == 1
    assert env["result"]["status"] == "exceeded"
    assert env["result"]["explored"] == 0


def test_sep_pieces(tmp_path):
    rc, env = run(["sep", "--n", 10, "--t", 5, "--k", 5], tmp_path / "s.json")
    assert rc == 0
    assert env["result"]["inner_product"] == "1"
    assert env["result"]["slack_norm"] == "4"
    # an unchecked alpha is not accepted
    assert main(["sep", "--n", "10", "--t", "5", "--k", "5", "--alpha", "1/2"]) == 2


def test_qsize(tmp_path):
    rc, env = run(["qsize", "--n", 16, "--t", 5, "--ell", 3], tmp_path / "q.json")
    assert rc == 0
    assert env["result"]["size"] > 0
    assert main(["qsize", "--n", "16", "--t", "4", "--ell", "3"]) == 2


def test_only_the_envelope_write_lifts_the_int_digit_limit(tmp_path):
    # |Q_3| at n = 4000 has more than 4 300 digits, CPython's default limit
    limit = sys.get_int_max_str_digits()
    out = tmp_path / "q.json"
    assert main(["qsize", "--n", "4000", "--t", "3", "--ell", "3", "--output", str(out)]) == 0
    assert sys.get_int_max_str_digits() == limit
    text = out.read_text()
    with pytest.raises(ValueError, match="integer string conversion"):
        json.loads(text)
    sys.set_int_max_str_digits(0)
    try:
        size = json.loads(text)["result"]["size"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert size == q_class_size(4000, 3, 3)


@pytest.mark.parametrize(
    "argv",
    [
        ["mu", "--n", 3000, "--t", 5, "--ell", 3, "--e1", "0-1", "--e2", "2-3"],
        ["wdot", "--n", 3000, "--t", 5, "--k", 5, "--crosscheck"],
    ],
    ids=["mu", "wdot"],
)
def test_ground_over_the_cap_is_input_error_at_any_size(argv, tmp_path, capsys):
    # the pair count of (3000, 5) has more than 4 300 digits, CPython's
    # default int-to-str limit, so the refusal gives its digit count
    out = tmp_path / "o.json"
    assert main([str(a) for a in argv] + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "pair count has 4580 digits, over the materialization cap 1000000" in err
    assert not out.exists()


@pytest.mark.parametrize("token", ['"1{}"', "1{}"], ids=["rational-string", "json-integer"])
def test_oversized_number_in_an_input_file_is_input_error(token, tmp_path, capsys):
    obj = polytope_to_json(hypercube_polytope(2))
    obj["vertices"][0][0] = "BIG"
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(obj).replace('"BIG"', token.format("0" * 5000)))
    out = tmp_path / "o.json"
    assert main(["verify", "--input", str(bad), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not out.exists()


def test_wdot_crosscheck_mismatch_exits_1(monkeypatch, tmp_path):
    monkeypatch.setattr(
        "xclab.cli.ws_inner_product_materialized", lambda ground, k: Fraction(7, 4)
    )
    rc, env = run(
        ["wdot", "--n", 10, "--t", 5, "--k", 5, "--crosscheck"], tmp_path / "w.json"
    )
    assert rc == 1
    assert env["result"] == {"counting": "1", "materialized": "7/4", "equal": False}


def test_corrupt_ground_cache_is_rebuilt(monkeypatch, tmp_path):
    monkeypatch.setenv("XCLAB_CACHE_DIR", str(tmp_path / "cache"))
    args = ["wdot", "--n", 10, "--t", 5, "--k", 5, "--crosscheck"]
    assert run(args, tmp_path / "a.json")[0] == 0
    table = tmp_path / "cache" / "ground-n10-t5.txt"
    head, *body = table.read_text().splitlines()
    corrupt = [" ".join("3" if x == "1" else x for x in ln.split()) for ln in body]
    table.write_text("\n".join([head, *corrupt]) + "\n")

    rc, env = run(args, tmp_path / "b.json")
    assert rc == 0
    assert env["result"] == {"counting": "1", "materialized": "1", "equal": True}
    assert table.read_text().splitlines()[1:] == body


@pytest.mark.parametrize("stale", ["6 3 20 15", "xclab-ground 2 6 3 20 15"])
def test_stale_ground_cache_header_is_rebuilt(stale, monkeypatch, tmp_path):
    monkeypatch.setenv("XCLAB_CACHE_DIR", str(tmp_path / "cache"))
    args = ["mu", "--n", 6, "--t", 3, "--ell", 3, "--e1", "0-1", "--e2", "2-3"]
    rc, first = run(args, tmp_path / "a.json")
    assert rc == 0
    table = tmp_path / "cache" / "ground-n6-t3.txt"
    head, *body = table.read_text().splitlines()
    assert head == "xclab-ground 1 6 3 20 15"
    table.write_text("\n".join([stale, *body]) + "\n")

    rc, again = run(args, tmp_path / "b.json")
    assert rc == 0
    assert again["result"] == first["result"]
    assert table.read_text().splitlines() == [head, *body]


def test_failed_cache_write_warns(monkeypatch, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv("XCLAB_CACHE_DIR", str(blocker / "cache"))
    rc, env = run(
        ["mu", "--n", 6, "--t", 3, "--ell", 3, "--e1", "0-1", "--e2", "2-3"],
        tmp_path / "m.json",
    )
    assert rc == 0
    assert rat(env["result"]["mu"]) > 0
    assert "warning: ground cache not written" in capsys.readouterr().err


def test_wdot_crosscheck(ground_cache, tmp_path):
    rc, env = run(
        ["wdot", "--n", 10, "--t", 5, "--k", 5, "--crosscheck"], tmp_path / "w.json"
    )
    assert rc == 0
    assert env["result"] == {"counting": "1", "materialized": "1", "equal": True}

    rc, env = run(["wdot", "--n", 16, "--t", 5, "--k", 5], tmp_path / "w2.json")
    assert rc == 0
    assert env["result"]["counting"] == "1"
    assert env["result"]["materialized"] is None


def test_mu_and_rectvalue(ground_cache, tmp_path):
    rc, env = run(
        ["mu", "--n", 6, "--t", 3, "--ell", 3, "--e1", "0-1", "--e2", "2-3"],
        tmp_path / "m.json",
    )
    assert rc == 0
    assert rat(env["result"]["mu"]) > 0

    rc, env = run(
        ["rectvalue", "--n", 10, "--t", 5, "--k", 5, "--e1", "0-1", "--e2", "2-3"],
        tmp_path / "r.json",
    )
    assert rc == 0
    res = env["result"]
    assert res["finite"] is True and res["q1_hits"] == 0
    assert rat(res["value"]) == rat(res["mu3"]) - rat(res["muk"]) / 4

    assert main(
        ["mu", "--n", "6", "--t", "3", "--ell", "3", "--e1", "0-1", "--e2", "1-2"]
    ) == 2


@pytest.mark.parametrize("verb", [["mu", "--ell", 3], ["rectvalue", "--k", 5]], ids=["mu", "rectvalue"])
@pytest.mark.parametrize(
    "e1, message",
    [
        ("2-2", "self-loop (2, 2) is not an edge"),
        ("0-6", "edge (0, 6) out of range for n=6"),
        ("1-2", "edges (1, 2) and (2, 3) share a node"),
    ],
    ids=["self-loop", "out-of-range", "shared-node"],
)
def test_ground_rectangle_rejects_bad_edges(verb, e1, message, ground_cache, tmp_path, capsys):
    out = tmp_path / "o.json"
    argv = verb + ["--n", 6, "--t", 3, "--e1", e1, "--e2", "2-3", "--output", out]
    assert main([str(a) for a in argv]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bias(tmp_path):
    data = {"domains": [[0, 1], [0, 1]], "tuples": [[0, 0], [0, 1]]}
    inp = tmp_path / "y.json"
    inp.write_text(json.dumps(data))
    rc, env = run(["bias", "--input", inp, "--eps", "1/2"], tmp_path / "b.json")
    assert rc == 0
    assert env["result"]["biased"] == [0]

    inp.write_text("{broken")
    assert main(["bias", "--input", str(inp), "--eps", "1/2"]) == 2


def test_ratio_truncated_triangle(tmp_path):
    rc, _ = run(["gen", "pm-truncated", "--n", 3, "--s", 1], tmp_path / "relax.json")
    assert rc == 0
    rc, _ = run(["gen", "pm", "--n", 3], tmp_path / "pm.json")
    assert rc == 0
    rc, env = run(
        ["ratio", "--relaxation", tmp_path / "relax.json", "--polytope",
         tmp_path / "pm.json", "--trials", 10, "--objective", "1,1,1"],
        tmp_path / "r.json",
    )
    assert rc == 0
    assert env["result"]["ratio"] == "3/2"
    assert env["result"]["worst_objective"] == [1, 1, 1]


def test_ratio_trials(tmp_path):
    run(["gen", "pm-truncated", "--n", 3, "--s", 1], tmp_path / "relax.json")
    run(["gen", "pm", "--n", 3], tmp_path / "pm.json")
    ratio = ["ratio", "--relaxation", tmp_path / "relax.json", "--polytope", tmp_path / "pm.json"]
    out = tmp_path / "r.json"
    assert main([str(a) for a in ratio] + ["--trials", "-3", "--output", str(out)]) == 2
    assert not out.exists()
    # zero trials still measures the given objectives
    rc, env = run(ratio + ["--trials", 0, "--objective", "1,1,1"], out)
    assert rc == 0
    assert env["result"]["ratio"] == "3/2"
    assert env["result"]["trials"] == 1


@pytest.mark.parametrize(
    "verb, payload",
    [
        ("slack", {"command": "gen", "result": None}),
        ("slack", {"result": "polytope"}),
        ("contract", {"x_dim": 1, "y_dim": 1, "eqs": {"rows": [[1, 1]], "rhs": 0}}),
        ("contract", {"x_dim": 1, "y_dim": 1, "eqs": {"rows": 1, "rhs": [0]}}),
        ("bias", {"domains": [0, 1], "tuples": [[0, 1]]}),
        ("slack", {**polytope_to_json(hypercube_polytope(2)), "vertices": 5}),
        ("slack", {**polytope_to_json(hypercube_polytope(2)), "row_labels": 5}),
        ("slack", {**polytope_to_json(hypercube_polytope(2)), "eq_labels": 5}),
        ("bias", {"domains": [[[0], [1]]], "tuples": [[[0]]]}),
        ("bias", {"domains": [[{"a": 1}]], "tuples": [[{"a": 1}]]}),
        ("bias", {"domains": [[0, 1]], "tuples": [[[0]]]}),
    ],
)
def test_malformed_json_is_input_error(verb, payload, square_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    argv = {
        "slack": ["slack", "--input", bad],
        "contract": ["contract", "--input", square_file, "--system", bad],
        "bias": ["bias", "--input", bad, "--eps", "1/2"],
    }[verb]
    out = tmp_path / "o.json"
    assert main([str(a) for a in argv] + ["--output", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("case", ["utf16-bom"])
def test_non_utf8_input_is_input_error(case, tmp_path, capsys):
    doc = tmp_path / "poly.json"
    doc.write_bytes(b"\xff\xfe" + json.dumps(polytope_to_json(hypercube_polytope(2))).encode())
    out = tmp_path / "o.json"
    assert main(["verify", "--input", str(doc), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and f"{doc}: not UTF-8 text" in err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["verify", "bias"])
def test_deeply_nested_json_is_input_error(verb, tmp_path, capsys):
    """Nesting past the parser's recursion limit is refused like any other
    malformed JSON, not raised as a RecursionError."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    argv = {"verify": ["verify", "--input", deep], "bias": ["bias", "--input", deep, "--eps", "1/2"]}
    out = tmp_path / "o.json"
    assert main([str(a) for a in argv[verb]] + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and f"{deep}: JSON nested too deeply" in err
    assert not out.exists()


def test_missing_file_is_input_error(tmp_path, capsys):
    out = tmp_path / "o.json"
    assert main(["slack", "--input", "/nonexistent.json", "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "input error: [Errno 2] No such file or directory: '/nonexistent.json'\n"
    )
    assert not out.exists()


def test_inputs_hold_the_digest_of_the_file_before_the_run(square_file, tmp_path):
    """A verb that overwrites its own input records the digest of the file
    it read, not of the file it wrote."""
    read = hashlib.sha256(square_file.read_bytes()).hexdigest()
    rc, env = run(
        ["bounds", "--input", square_file, "--witness-out", square_file], tmp_path / "b.json"
    )
    assert rc == 0
    assert env["result"]["upper_witness_file"] == str(square_file)
    assert hashlib.sha256(square_file.read_bytes()).hexdigest() != read
    assert env["inputs"]["input"] == {"path": str(square_file), "sha256": read}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_piped_input_is_read_whole_and_not_hashed(square_file, tmp_path):
    """Hashing a pipe would drain it before the verb reads it, so a stream
    is recorded with sha256 null."""
    rfd, wfd = os.pipe()
    with os.fdopen(wfd, "wb") as fh:
        fh.write(square_file.read_bytes())
    try:
        path = f"/dev/fd/{rfd}"
        rc, env = run(["slack", "--input", path], tmp_path / "s.json")
    finally:
        os.close(rfd)
    assert rc == 0
    assert (env["result"]["nrows"], env["result"]["ncols"]) == (4, 4)
    assert env["inputs"]["input"] == {"path": path, "sha256": None}


@pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 200_000])
def test_file_digest_matches_hashlib_across_chunk_edges(size, tmp_path):
    path = tmp_path / "data.bin"
    data = bytes(i * 7 % 251 for i in range(size))
    path.write_bytes(data)
    assert _sha256(str(path)) == hashlib.sha256(data).hexdigest()


def test_envelope_digest_is_the_same_through_the_hashlib_fallback(square_file, tmp_path):
    """With neither built-in SHA-256 module importable, the CLI takes sha256
    from hashlib and records the same digest."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(xclab.__file__)))
    out = tmp_path / "s.json"
    code = (
        "import sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None; "
        "import xclab.cli; assert 'hashlib' in sys.modules; "
        f"sys.exit(xclab.cli.main(['slack', '--input', {str(square_file)!r}, "
        f"'--output', {str(out)!r}]))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True)
    digest = hashlib.sha256(square_file.read_bytes()).hexdigest()
    assert json.loads(out.read_text())["inputs"]["input"]["sha256"] == digest


# ---------------------------------------------------------------------------
# Regression net: every verb once on small inputs, pinning the exit code and
# the sha256 of the canonical `result` JSON.  A refactor of the CLI must
# leave every digest unchanged.

@pytest.fixture(scope="module")
def net_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("net")
    ppm4 = perfect_matching_polytope(4)
    polys = {
        "ppm4": ppm4,
        "cube3": hypercube_polytope(3),
        "pm3": matching_polytope(3),
        "pm3-s1": truncated_matching_relaxation(3, 1),
    }
    for name, poly in polys.items():
        write_polytope(str(d / f"{name}.json"), poly)
    fac = slack_variable_factorization(slack_matrix(ppm4))
    (d / "fac4.json").write_text(json.dumps(factorization_to_json(fac)))
    ef = extension_from_factorization(ppm4, fac)
    (d / "ext4.json").write_text(json.dumps(formulation_to_json(ef)))
    bias = {"domains": [[0, 1], [0, 1]], "tuples": [[0, 0], [0, 1], [1, 1]]}
    (d / "bias.json").write_text(json.dumps(bias))
    return d


NET_CASES = {
    "gen": (["gen", "pm-truncated", "--n", 4, "--s", 1], 0,
            "67340c9e21c7891e7a30dad8c6cc53e5174ca1cc7a31d406a46523cd00c5c52c"),
    "slack": (["slack", "--input", "{ppm4}", "--rows", "nonneg"], 0,
              "5bbcbe719253923d0b4e677be4bf62f8ec3d276645636d2c60a3e83c9117e5b1"),
    "bounds": (["bounds", "--input", "{cube3}", "--seed", 3], 0,
               "85677c7c4f82e94688b1dc1f5d5ff76089da64269ccc673a05c40b6dc93fab7e"),
    "factorize": (["factorize", "--input", "{ppm4}", "--r", 3, "--restarts", 2], 0,
                  "0b3de16273952e233d5a73ba6e5b41fc91da9703a1a6773192b819d7325f40f7"),
    "extend": (["extend", "--input", "{ppm4}"], 0,
               "f0a964824e809afd502eca54ce3f40139ba74a5087edd9e11aed235c47b08725"),
    "contract": (["contract", "--input", "{ppm4}", "--system", "{ext4}"], 0,
                 "fba2d6a51bb2620c86fdf92b1b676db607d62975b192f36b86242ba780dceeb5"),
    "cover": (["cover", "--input", "{cube3}", "--limit", 500], 1,
              "9234d22a6c9e885f4f03fd2eb89b522cbf23a0757879ad0aee3f610fdd2b1ef4"),
    "sep": (["sep", "--n", 10, "--t", 5, "--k", 5], 0,
            "35ab20a3d908a5593f907176879a0ebfcf26425b784b39652bcf60a5c482686c"),
    "qsize": (["qsize", "--n", 6, "--t", 3, "--ell", 3], 0,
              "a701a5798c3385ca8d76d62ff930c6fd06a93da17dea9d5824345baf2d8d2e4f"),
    "wdot": (["wdot", "--n", 10, "--t", 5, "--k", 5, "--crosscheck"], 0,
             "556dbaabec635958dbc71c4d86edcc2438f134614205518683476b472d18d13f"),
    "mu": (["mu", "--n", 6, "--t", 3, "--ell", 3, "--e1", "0-1", "--e2", "2-3"], 0,
           "834e6b2813dd1f2f10de3cfcffcf92646b71374004609ad250770089b526e449"),
    "rectvalue": (["rectvalue", "--n", 10, "--t", 5, "--k", 5, "--e1", "0-1", "--e2", "2-3"], 0,
                  "4c1715123275bfb5acf349938b30464c6e6a337d3f67973a987f381d41ce9ed4"),
    "bias": (["bias", "--input", "{bias}", "--eps", "1/2"], 0,
             "e57059d7ac004336196de40e23733bb5eb584e3f668354c734a99b01842ad88f"),
    "ratio": (["ratio", "--relaxation", "{pm3-s1}", "--polytope", "{pm3}", "--trials", 5,
               "--objective", "1,1,1", "--seed", 2], 0,
              "84b2ed85883e602586cef5c093523a24e3ec869508506f56465a3c8658573559"),
    "verify": (["verify", "--input", "{ppm4}", "--system", "{ext4}", "--trials", 4,
                "--seed", 5], 0,
               "e397e6565ec85f407ffa7dd4a5ca5f205ee0cbc0ed0565e971ab6aa9f609823e"),
}


def _run_net_case(verb, net_files, tmp_path):
    """Run the verb's net case; returns its argv and envelope."""
    files = {p.stem: str(p) for p in net_files.iterdir()}
    argv = [str(a).format(**files) for a in NET_CASES[verb][0]]
    rc, env = run(argv, tmp_path / "o.json")
    assert rc == NET_CASES[verb][1]
    assert set(env) == {"command", "inputs", "seed", "result", "timing"}
    assert env["command"] == verb
    return argv, env


@pytest.mark.parametrize("verb", sorted(NET_CASES))
def test_every_verb_keeps_its_result(verb, net_files, ground_cache, tmp_path):
    _, env = _run_net_case(verb, net_files, tmp_path)
    text = json.dumps(env["result"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == NET_CASES[verb][2]


def _verb_parsers() -> dict:
    (verbs,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return verbs.choices


@pytest.mark.parametrize("verb", sorted(NET_CASES))
def test_inputs_hold_every_parsed_argument(verb, net_files, ground_cache, tmp_path):
    """inputs is the verb's parsed arguments minus --seed and --output, with
    each file the run reads as {path, sha256}."""
    parsers = _verb_parsers()
    assert set(parsers) == set(NET_CASES)
    parser = parsers[verb]
    argv, env = _run_net_case(verb, net_files, tmp_path)
    dests = {a.dest for a in parser._actions} - {"help", "seed", "output"}
    assert set(env["inputs"]) == dests
    parsed = vars(parser.parse_args(argv[1:]))
    reads = {"input", "factorization", "system", "relaxation", "polytope"}
    for key, value in env["inputs"].items():
        if key in reads and parsed[key] is not None:
            with open(parsed[key], "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            assert value == {"path": parsed[key], "sha256": digest}, key
        else:
            assert value == parsed[key], key


# ---------------------------------------------------------------------------
# Seeds: only the verbs that draw at random take --seed.

SEEDED_VERBS = {"bounds", "factorize", "ratio", "verify"}


@pytest.mark.parametrize("verb", sorted(NET_CASES))
def test_seed_only_on_seeded_verbs(verb, net_files, ground_cache, tmp_path, capsys):
    """A seeded verb records its seed; every other verb records seed null
    and refuses --seed as bad usage."""
    argv, env = _run_net_case(verb, net_files, tmp_path)
    if verb in SEEDED_VERBS:
        assert env["seed"] == (int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0)
        return
    assert env["seed"] is None
    out = tmp_path / "seeded.json"
    assert main(argv + ["--seed", "1", "--output", str(out)]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["gen", "rectvalue"])
def test_unrecognized_argument_shows_the_verbs_usage(verb, net_files, tmp_path, capsys):
    """A flag the verb does not take is refused in the verb's own usage."""
    argv = [str(a) for a in NET_CASES[verb][0]]
    out = tmp_path / "o.json"
    assert main(argv + ["--seed", "1", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: xclab {verb} [-h]")
    assert f"xclab {verb}: error: unrecognized arguments: --seed 1" in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--trials", 5], ["--seed", 3]], ids=["trials", "seed"])
@pytest.mark.parametrize("check", ["vertices", "factorization"])
def test_verify_trials_and_seed_need_a_system(check, extra, net_files, tmp_path, capsys):
    """--trials and --seed change only the --system check, so the other
    checks refuse them; the verify net case runs --system with both."""
    argv = ["verify", "--input", net_files / "ppm4.json"]
    if check == "factorization":
        argv += ["--factorization", net_files / "fac4.json"]
    out = tmp_path / "v.json"
    assert main([str(a) for a in argv + extra + ["--output", out]]) == 2
    assert "--trials and --seed apply only to a --system check" in capsys.readouterr().err
    assert not out.exists()
    rc, env = run(argv, out)
    assert rc == 0
    assert env["result"]["check"] == check


# ---------------------------------------------------------------------------
# Input errors on paths the other tests do not reach.

@pytest.fixture(scope="module")
def error_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("errors")
    square = polytope_to_json(hypercube_polytope(2))

    def neg_square(top):
        """[-2, top]^2: top -1/2 relaxes top -1, and max x is top."""
        rows = [[1, 0], [0, 1], [-1, 0], [0, -1]]
        verts = [(top, top), (-2, top), (top, -2), (-2, -2)]
        return polytope_to_json(Polytope.build(rows, [top, top, 2, 2], verts))

    docs = {
        "square": square,
        "segment": polytope_to_json(face(hypercube_polytope(2), [2])),
        "header": {**square, "ineqs": {"file": "header.txt"}},
        "no-rhs": {**square, "ineqs": {"rows": square["ineqs"]["rows"]}},
        "vertex-dict": {**square, "vertices": {"rows": square["vertices"]}},
        "pm3": polytope_to_json(matching_polytope(3)),
        "pm3-s1": polytope_to_json(truncated_matching_relaxation(3, 1)),
        "neg-relax": neg_square(Fraction(-1, 2)),
        "neg-square": neg_square(-1),
        "string-rows": {"ineqs": {"rows": "12", "rhs": "34"}, "vertices": [["0"], ["1"]]},
        "string-row": {"ineqs": {"rows": ["1", "2"], "rhs": ["3", "4"]}, "vertices": [["0"], ["1"]]},
        "short-rhs": {**square, "ineqs": {**square["ineqs"], "rhs": square["ineqs"]["rhs"][:3]}},
        "short-eq-rhs": {**square, "eqs": {"rows": [["1", "-1"]], "rhs": []}},
        "narrow-eqs": {**square, "eqs": {"rows": [["1"]], "rhs": ["0"]}},
        "wide-vertex": {**square, "vertices": [["0", "0", "0"], ["1", "1", "1"]]},
        "eq-labels": {**square, "eqs": {"rows": [["1", "-1"]], "rhs": ["0"]},
                      "eq_labels": ["a", "b"]},
        "ext-string-row": {"x_dim": 2, "y_dim": 1, "eqs": {"rows": ["111"], "rhs": ["1"]}},
        "ext-no-y": {"x_dim": 2, "y_dim": 0, "eqs": {"rows": [["1", "1"]], "rhs": ["1"]}},
        "ext-x-dim": {"x_dim": 1, "y_dim": 1, "eqs": {"rows": [["1", "1"]], "rhs": ["1"]}},
        "fac-string-left": {"left": "12", "right": [["1", "0", "0", "0"]]},
        "bool-entry": {**square, "ineqs": {**square["ineqs"],
                                           "rows": [[True, "0"]] + square["ineqs"]["rows"][1:]}},
        "ext-bool-entry": {"x_dim": 2, "y_dim": 1, "eqs": {"rows": [["1", True, "1"]],
                                                           "rhs": ["1"]}},
        "fac-bool-entry": {"left": [[True]], "right": [["1", "0", "0", "0"]]},
        "empty-row": {**square, "ineqs": {"rows": [[]], "rhs": ["0"]}},
        "int-rows": {**square, "ineqs": {**square["ineqs"], "rows": [1, 2, 3, 4]}},
        "empty-domain": {"domains": [[]], "tuples": [[0]]},
    }
    for name, doc in docs.items():
        (d / f"{name}.json").write_text(json.dumps(doc))
    (d / "header.txt").write_text("2 x\n1 0\n0 1\n")
    return {name: str(d / f"{name}.json") for name in docs}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mu", "--n", 6, "--t", 3, "--ell", 3, "--e1", "0-1-2", "--e2", "2-3"],
         "edge must look like 'a-b', got '0-1-2'"),
        (["mu", "--n", 6, "--t", 3, "--ell", 3, "--e1", "a-b", "--e2", "2-3"],
         "edge must be two integers, got 'a-b'"),
        (["ratio", "--relaxation", "{pm3-s1}", "--polytope", "{pm3}", "--objective", "1,x,1"],
         "objective must be comma-separated integers, got '1,x,1'"),
        (["slack", "--input", "{header}"], "ineqs: need 'rows' and 'rhs'"),
        (["slack", "--input", "{no-rhs}"], "ineqs: need 'rows' and 'rhs'"),
        (["slack", "--input", "{vertex-dict}"], "vertices: need a list of coordinate rows"),
        (["ratio", "--relaxation", "{square}", "--polytope", "{segment}",
          "--objective", "0,1", "--trials", 0],
         "polytope optimum is 0 but relaxation reaches 1"),
        (["ratio", "--relaxation", "{neg-relax}", "--polytope", "{neg-square}",
          "--objective", "1,0", "--trials", 0],
         "polytope optimum is -1 < 0 on objective (1, 0)"),
        (["verify", "--input", "{string-rows}"], "ineqs: 'rhs' must be a list, got '34'"),
        (["verify", "--input", "{string-row}"],
         "a matrix row is a list of entries, not the string '1'"),
        (["verify", "--input", "{short-rhs}"], "4 inequality rows but 3 right-hand sides"),
        (["verify", "--input", "{short-eq-rhs}"], "1 equality rows but 0 right-hand sides"),
        (["verify", "--input", "{narrow-eqs}"],
         "equality and inequality systems disagree on dimension"),
        (["verify", "--input", "{wide-vertex}"],
         "vertex dimension does not match the constraint system"),
        (["verify", "--input", "{eq-labels}"], "equality label count mismatch"),
        (["contract", "--input", "{square}", "--system", "{ext-string-row}"],
         "a matrix row is a list of entries, not the string '111'"),
        (["contract", "--input", "{square}", "--system", "{ext-no-y}"],
         "an extension needs at least one lift variable"),
        (["contract", "--input", "{square}", "--system", "{ext-x-dim}"],
         "system x-dimension does not match the polytope"),
        (["verify", "--input", "{square}", "--factorization", "{fac-string-left}"],
         "a matrix is a list of rows, not the string '12'"),
        (["verify", "--input", "{bool-entry}"], "not a rational scalar: True"),
        (["contract", "--input", "{square}", "--system", "{ext-bool-entry}"],
         "not a rational scalar: True"),
        (["verify", "--input", "{square}", "--factorization", "{fac-bool-entry}"],
         "not a rational scalar: True"),
        (["verify", "--input", "{empty-row}"], "matrix needs at least one column"),
        (["verify", "--input", "{int-rows}"], "a matrix row is a list of entries, not 1"),
        (["bias", "--input", "{empty-domain}", "--eps", "1/2"],
         "every coordinate domain needs at least one value"),
        (["sep", "--n", 4, "--t", 1, "--k", 5], "class Q_3 is empty for n=4, t=1"),
        (["wdot", "--n", 4, "--t", 1, "--k", 5], "class Q_3 is empty for n=4, t=1"),
    ],
    ids=["edge-three-parts", "edge-not-integers", "objective-not-integers",
         "matrix-file-header", "ineqs-without-rhs", "vertices-dict-without-file",
         "zero-polytope-optimum", "negative-polytope-optimum", "string-for-rows-and-rhs",
         "string-for-a-row", "short-ineq-rhs", "short-eq-rhs", "eqs-of-another-dimension",
         "vertex-of-another-dimension", "eq-label-count", "formulation-string-row",
         "formulation-without-lift-variables", "formulation-x-dim-mismatch",
         "factorization-string-left", "bool-entry-in-a-polytope-row",
         "bool-entry-in-a-formulation-row", "bool-entry-in-a-factor", "row-without-entries",
         "rows-that-are-not-lists", "empty-bias-domain", "sep-with-empty-q3",
         "wdot-with-empty-q3"],
)
def test_input_errors_exit_2(argv, message, error_files, ground_cache, tmp_path, capsys):
    out = tmp_path / "o.json"
    argv = [str(a).format(**error_files) for a in argv] + ["--output", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err
    assert not out.exists()


def test_ratio_of_the_zero_objective_is_one(error_files, tmp_path):
    """Both optima are 0, so the objective is skipped and the ratio stays 1."""
    rc, env = run(
        ["ratio", "--relaxation", error_files["pm3-s1"], "--polytope", error_files["pm3"],
         "--objective", "0,0,0", "--trials", 0],
        tmp_path / "r.json",
    )
    assert rc == 0
    assert env["result"] == {"ratio": "1", "worst_objective": [0, 0, 0], "trials": 1}
