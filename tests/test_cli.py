import csv
import io
import json
import os
import stat
from fractions import Fraction

import pytest

from xclab.bounds import factorization_from_json
from xclab.cli import main
from xclab.exactla import rat
from xclab.polytope import (
    SlackMatrix,
    hypercube_polytope,
    polytope_to_json,
    simplex_polytope,
    slack_matrix,
    write_polytope,
)
from xclab.yannakakis import verify_factorization


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
    assert env["inputs"] == {"family": "ppm", "n": 6}
    assert env["seed"] == 0
    assert len(env["result"]["polytope"]["vertices"]) == 15
    assert env["timing"]["seconds"] >= 0


def test_gen_validation(tmp_path):
    out = tmp_path / "p.json"
    assert main(["gen", "ppm", "--n", "5", "--output", str(out)]) == 2
    assert not out.exists()
    assert main(["gen", "pm-truncated", "--n", "5", "--output", str(out)]) == 2
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

    out = tmp_path / "s.csv"
    rc = main(
        ["slack", "--input", str(tmp_path / "p.json"), "--rows", "oddset",
         "--format", "csv", "--output", str(out)]
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert len(rows) == 11
    assert rows[1][0].startswith("oddset:")

    out = tmp_path / "s.txt"
    rc = main(
        ["slack", "--input", str(tmp_path / "p.json"), "--rows", "oddset",
         "--format", "matrix-text", "--output", str(out)]
    )
    assert rc == 0
    parsed = SlackMatrix.from_text(out.read_text())
    assert parsed.nrows == 10 and parsed.ncols == 15


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


def test_factorize_found_and_not_found(square_file, tmp_path):
    rc, env = run(["factorize", "--input", square_file, "--r", 4], tmp_path / "f.json")
    assert rc == 0
    assert env["result"]["found"] is True
    fac = factorization_from_json(env["result"]["factorization"])
    assert verify_factorization(slack_matrix(hypercube_polytope(2)), fac)

    rc, env = run(["factorize", "--input", square_file, "--r", 3], tmp_path / "g.json")
    assert rc == 1
    assert env["result"]["found"] is False


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


def test_missing_file_is_input_error(tmp_path):
    out = tmp_path / "o.json"
    assert main(["slack", "--input", "/nonexistent.json", "--output", str(out)]) == 2
    assert not out.exists()
