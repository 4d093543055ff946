import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from multidom import DominationSpec, complete_bipartite, cycle, read_graph
from multidom import cli
from multidom.bounds import BoundReport
from multidom.cli import build_parser, main, parse_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_spec_strings(tmp_path):
    assert parse_spec("classical").variant == "classical"
    assert parse_spec("kdom:2").k == 2
    assert parse_spec("ktuple:3").variant == "k_tuple"
    assert parse_spec("totalk:1").variant == "total_k"
    assert parse_spec("bracek:2").variant == "brace_k"
    s = parse_spec("param:2,3")
    assert (s.k, s.l) == (2, 3)
    rfile = tmp_path / "r.txt"
    sfile = tmp_path / "s.txt"
    rfile.write_text("1 1 1 1\n")
    sfile.write_text("2 2 2 2\n")
    spec = parse_spec(f"rs:{rfile},{sfile}")
    assert spec.variant == "rs" and spec.r == (1, 1, 1, 1)
    spec = parse_spec(f"totalrs:{rfile},{sfile}")
    assert spec.variant == "total_rs"
    with pytest.raises(ValueError):
        parse_spec("nonsense")
    with pytest.raises(ValueError):
        parse_spec("rs:only_one_file")


@pytest.mark.parametrize("spec", ["param:1", "param:1,2,3", "param:1,x"])
def test_a_malformed_param_spec_gets_its_usage(capsys, spec):
    with pytest.raises(ValueError, match="^spec param needs two integers: param:K,L$"):
        parse_spec(spec)
    code, out, err = run_cli(capsys, "bounds", "--family", "cycle", "--n", "4", "--spec", spec)
    assert code == 1 and out == ""
    assert err == "multidom: error: spec param needs two integers: param:K,L\n"


def test_gen_writes_and_round_trips(capsys, tmp_path):
    out = tmp_path / "c5.edges"
    code, _, _ = run_cli(capsys, "gen", "--family", "cycle", "--n", "5",
                         "--out", str(out))
    assert code == 0
    assert read_graph(out.read_text()) == cycle(5)
    code, text, _ = run_cli(capsys, "gen", "--family", "petersen", "--format", "dimacs")
    assert code == 0 and text.startswith("p edge 10 15")


@pytest.mark.parametrize("family, given, missing", [
    ("gnp", ("--n", "5"), "p"),
    ("gnp", ("--p", "0.5"), "n"),
    ("random_regular", ("--n", "6"), "d"),
    ("complete_bipartite", ("--n", "2"), "n2"),
    ("cycle", (), "n"),
    ("path", (), "n"),
    ("complete", (), "n"),
])
def test_gen_names_the_missing_family_option(capsys, family, given, missing):
    code, out, err = run_cli(capsys, "gen", "--family", family, *given)
    assert code == 1 and out == ""
    assert err == f"multidom: error: family {family!r} needs --{missing}\n"


def test_gen_complete_bipartite(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "complete_bipartite", "--n", "2", "--n2", "3")
    assert code == 0
    assert read_graph(out) == complete_bipartite(2, 3)


def test_gen_deterministic(capsys):
    args = ("gen", "--family", "gnp", "--n", "20", "--p", "0.5", "--seed", "42")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_bounds_classical_on_c4(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--family", "cycle", "--n", "4",
                           "--spec", "classical", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    by = {row["name"]: row for row in payload["bounds"]}
    assert by["caro_roditty"]["coefficient"] < by["classical"]["coefficient"]
    assert payload["graph"]["min_degree"] == 2


def test_bounds_ktuple_with_c_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--family", "complete", "--n", "10",
                           "--spec", "ktuple:3", "--c", "3.0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("name,applicable,")
    names = {line.split(",")[0] for line in lines[1:]}
    assert {"rv", "ktuple_threshold", "rs_strong"} <= names


@pytest.mark.parametrize("c", ["nan", "inf", "-inf", "NaN", "x"])
@pytest.mark.parametrize("spec,fmt", [("ktuple:2", "json"), ("bracek:2", "csv")])
def test_bounds_rejects_a_non_finite_c(capsys, spec, fmt, c):
    code, out, err = run_cli(capsys, "bounds", "--family", "petersen", "--spec", spec,
                             f"--c={c}", "--format", fmt)
    assert code == 1 and out == ""
    assert f"argument --c: expected a finite number, got '{c}'" in err


def _no_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("argv,row,field", [
    (("--family", "petersen", "--spec", "ktuple:2", "--force", "--c", "0"),
     "ktuple_threshold", "coefficient"),  # was ZeroDivisionError
    (("--family", "petersen", "--spec", "ktuple:2", "--force", "--c", "1000"),
     "ktuple_ln_threshold", "coefficient"),  # was OverflowError
    (("--family", "petersen", "--spec", "ktuple:2", "--force", "--c", "-0.001"),
     "ktuple_threshold", "coefficient"),  # was OverflowError
    (("--family", "cycle", "--n", "6", "--spec", "kdom:5"),
     "parametric_strong", "log_b_phi1"),  # was -Infinity
])
def test_bounds_output_is_strict_json(capsys, argv, row, field):
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert code == 0 and err == ""
    payload = json.loads(out, parse_constant=_no_constant)
    rep = next(r for r in payload["bounds"] if r["name"] == row)
    assert (rep if field == "coefficient" else rep["params"])[field] is None


def test_a_non_finite_value_is_an_error_not_json(capsys, monkeypatch):
    nan_row = BoundReport("nan_row", True, "", math.nan, math.nan, None, False, {})
    monkeypatch.setattr(cli, "bounds_for_spec", lambda *args, **kwargs: [nan_row])
    code, out, err = run_cli(capsys, "bounds", "--family", "petersen", "--spec", "classical")
    assert code == 1 and out == ""
    assert err.startswith("multidom: error: Out of range float values are not JSON compliant")


def test_successive_calls_share_no_options(capsys):
    plain = ("bounds", "--family", "cycle", "--n", "6", "--spec", "classical", "--no-timestamp")
    first = run_cli(capsys, *plain)
    other = run_cli(capsys, "bounds", "--family", "complete", "--n", "8", "--spec", "ktuple:3",
                    "--c", "3.0", "--force", "--format", "csv")
    again = run_cli(capsys, *plain)
    assert first[0] == other[0] == 0
    assert again == first  # json again, no --c, --force or csv left over
    assert json.loads(again[1])["graph"]["n"] == 6
    assert other[1].startswith("name,applicable,")
    assert build_parser() is build_parser()


def test_infeasible_spec_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "bounds", "--family", "cycle", "--n", "4",
                           "--spec", "totalk:3")
    assert code == 2 and "infeasible" in err
    # verify_set reports the spec as data; the CLI still exits 2
    wfile = tmp_path / "w.json"
    wfile.write_text('{"set": [0, 1, 2, 3]}')
    code, out, err = run_cli(capsys, "verify", "--family", "cycle", "--n", "4",
                             "--spec", "totalk:3", "--witness", str(wfile))
    assert code == 2 and out == "" and "infeasible" in err


def test_parse_error_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 x\n")
    code, _, err = run_cli(capsys, "exact", "--graph", str(bad), "--spec", "classical")
    assert code == 1 and "line 1" in err
    code, _, _ = run_cli(capsys, "bounds", "--family", "cycle", "--n", "4",
                         "--spec", "wat:7")
    assert code == 1
    code, _, _ = run_cli(capsys, "bounds", "--family", "nope", "--n", "4",
                         "--spec", "classical")
    assert code == 1  # argparse usage errors are parse errors


def test_a_graph_file_that_is_not_utf8_exits_1(capsys, tmp_path):
    gfile = tmp_path / "g.edges"
    gfile.write_bytes(b"# n=3\n0 1\n\xff 2\n")
    wfile = tmp_path / "w.json"
    wfile.write_text('{"values": [1, 1, 1]}')
    for argv in (["bounds"], ["construct"], ["verify", "--witness", str(wfile)]):
        code, out, err = run_cli(capsys, *argv, "--graph", str(gfile), "--spec", "bracek:1")
        assert code == 1 and out == "" and err.startswith("multidom: error: ")


def test_missing_graph_is_error(capsys):
    code, _, err = run_cli(capsys, "bounds", "--spec", "classical")
    assert code == 1 and "graph is required" in err


def test_a_graph_file_and_a_family_together_are_an_error(capsys, tmp_path):
    gfile = tmp_path / "g.edges"
    gfile.write_text("0 1\n1 2\n2 0\n")
    code, out, err = run_cli(capsys, "bounds", "--graph", str(gfile), "--family", "petersen",
                             "--spec", "classical")
    assert code == 1 and out == "" and "not both" in err


def test_the_module_runs_as_a_script():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-m", "multidom.cli", "compare", "2", "10", "1",
                           "--format", "csv"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("k,rv,c3,tuned_c,tuned_value,best\n")


def test_exact_param22_on_c4(capsys):
    code, out, _ = run_cli(capsys, "exact", "--family", "cycle", "--n", "4",
                           "--spec", "param:2,2", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3


def test_exact_passes_limit_n_through(capsys):
    argv = ("exact", "--family", "cycle", "--n", "21", "--spec", "classical", "--no-timestamp")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and "limit_n=20" in err
    code, out, _ = run_cli(capsys, *argv, "--limit-n", "21")
    assert code == 0 and json.loads(out)["value"] == 7


def test_exact_rejects_nonpositive_node_budget(capsys):
    code, out, err = run_cli(capsys, "exact", "--family", "petersen", "--spec", "ktuple:2",
                             "--node-budget", "-5")
    assert code == 1 and out == ""
    assert "node_budget must be >= 1" in err


def test_exact_budget_stop_reports_lower_bound(capsys):
    code, out, err = run_cli(capsys, "exact", "--family", "gnp", "--n", "14", "--p", "0.3",
                             "--seed", "1", "--spec", "classical", "--node-budget", "3")
    assert code == 1 and out == ""
    assert err.rstrip().endswith("; the domination number is at least 2")  # gamma is 3


def test_construct_verify_pipeline(capsys, tmp_path):
    gfile = tmp_path / "g.edges"
    run_cli(capsys, "gen", "--family", "gnp", "--n", "25", "--p", "0.4",
            "--seed", "5", "--out", str(gfile))
    cfile = tmp_path / "construct.json"
    code, _, _ = run_cli(capsys, "construct", "--graph", str(gfile),
                         "--spec", "ktuple:2", "--seed", "3", "--trials", "20",
                         "--no-timestamp", "--out", str(cfile))
    assert code == 0
    result = json.loads(cfile.read_text())
    wfile = tmp_path / "witness.json"
    wfile.write_text(json.dumps(result["witness"]))
    code, out, _ = run_cli(capsys, "verify", "--graph", str(gfile),
                           "--spec", "ktuple:2", "--witness", str(wfile),
                           "--no-timestamp")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_construct_function_spec(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "--family", "gnp", "--n", "20",
                           "--p", "0.4", "--seed", "1", "--spec", "bracek:2",
                           "--trials", "10", "--no-timestamp", "--trace")
    assert code == 0
    payload = json.loads(out)
    assert "values" in payload["witness"]
    assert len(payload["weight_trace"]) == payload["trials"]


def test_verify_rejects_an_id_past_int64(capsys, tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text('{"set": [1000000000000000000000000000000]}')
    code, out, err = run_cli(capsys, "verify", "--family", "petersen", "--spec", "ktuple:2",
                             "--witness", str(wfile))
    assert code == 1 and out == ""
    assert err == ("multidom: error: witness vertex 1000000000000000000000000000000 "
                   "out of range for n=10\n")


def test_verify_invalid_witness_is_data_not_error(capsys, tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text('{"set": [0]}')
    code, out, _ = run_cli(capsys, "verify", "--family", "cycle", "--n", "6",
                           "--spec", "classical", "--witness", str(wfile),
                           "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is False and payload["deficiencies"]


def test_verify_witness_shape_mismatch(capsys, tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text('{"values": [1, 1, 1, 1]}')
    code, _, _ = run_cli(capsys, "verify", "--family", "cycle", "--n", "4",
                         "--spec", "classical", "--witness", str(wfile))
    assert code == 1


@pytest.mark.parametrize("spec,text", [
    ("kdom:1", '{"set": [0, 1.9, 3, 4.2]}'),  # was read as {0, 1, 3, 4}: valid, weight 4
    ("bracek:1", '{"values": [1.5, 1, 1, 1, 1, 1]}'),  # was read as weight 6
    ("kdom:1", '{"set": [true, 3]}'),  # was read as vertex 1
    ("kdom:1", '5'),
    ("kdom:1", '{"set": null}'),
    ("bracek:1", '{"values": 5}'),
    ("bracek:1", '[1, 1, 1, 1, 1, 1]'),
    ("kdom:1", '{"values": [0, 3]}'),  # the key of the other kind of spec
])
def test_verify_rejects_a_witness_that_is_not_a_list_of_integers(capsys, tmp_path, spec, text):
    wfile = tmp_path / "w.json"
    wfile.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--family", "cycle", "--n", "6",
                             "--spec", spec, "--witness", str(wfile))
    assert code == 1 and out == ""
    assert err.startswith("multidom: error: the witness must be a JSON object")


def test_construct_deterministic_output(capsys):
    args = ("construct", "--family", "gnp", "--n", "22", "--p", "0.4",
            "--seed", "7", "--spec", "param:2,2", "--trials", "15",
            "--no-timestamp")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_compare_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "compare", "5", "1000", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,rv,c3,tuned_c,tuned_value,best"
    row5 = lines[5].split(",")
    assert float(row5[1]) < 0.035 and float(row5[4]) < 0.027
    code, out, _ = run_cli(capsys, "compare", "5", "1000", "1", "--no-timestamp")
    payload = json.loads(out)
    assert payload["rv_cutoff"] == 72 and payload["crossover_k"] == 9


def test_compare_where_no_constant_is_tuned(capsys):
    code, out, _ = run_cli(capsys, "compare", "3", "2", "1", "--no-timestamp")
    assert code == 0
    assert [row["tuned_c"] for row in json.loads(out)["rows"]] == [1.001, 1.001, None]


def test_rs_spec_from_vector_files(capsys, tmp_path):
    rfile = tmp_path / "r.txt"
    sfile = tmp_path / "s.txt"
    rfile.write_text("2 2 2 2\n")
    sfile.write_text("2 2 2 2\n")
    code, out, _ = run_cli(capsys, "exact", "--family", "cycle", "--n", "4",
                           "--spec", f"rs:{rfile},{sfile}", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["value"] == 3  # same as bracek:2 on C4


def test_timestamp_present_by_default(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--family", "cycle", "--n", "4",
                           "--spec", "classical")
    assert code == 0
    assert "generated_at" in json.loads(out)


def test_exact_param13_on_k4_with_pendant(capsys, tmp_path):
    # delta = 1 < l-1, yet the 2-core K4 dominates the pendant vertex
    gfile = tmp_path / "g.edges"
    gfile.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n0 4\n")
    code, out, err = run_cli(capsys, "exact", "--graph", str(gfile),
                             "--spec", "param:1,3", "--no-timestamp")
    assert code == 0, err
    assert json.loads(out)["value"] == 3


def test_construct_below_min_degree_returns_the_core(capsys, tmp_path):
    # kdom:2 on P4 (delta = 1 < k) and param:1,3 on K4 plus a pendant vertex
    # (delta = 1 < l-1) are feasible; the construction falls back to the core
    gfile = tmp_path / "g.edges"
    gfile.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n0 4\n")
    for graph, spec in ((["--family", "path", "--n", "4"], "kdom:2"),
                        (["--graph", str(gfile)], "param:1,3")):
        code, out, err = run_cli(capsys, "construct", *graph, "--spec", spec, "--no-timestamp")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["witness"] == {"set": [0, 1, 2, 3]} and payload["met_target"]
        assert "returned the" in payload["notes"][0]


def test_feasibility_checked_at_most_once_per_subcommand(capsys, tmp_path, monkeypatch):
    calls = []
    feasibility = DominationSpec.feasibility

    def counted(self, g):
        calls.append(self.label())
        return feasibility(self, g)

    monkeypatch.setattr(DominationSpec, "feasibility", counted)
    graph = ["--family", "gnp", "--n", "30", "--p", "0.3", "--seed", "4"]
    for spec in ("ktuple:2", "bracek:2"):
        cfile = tmp_path / "construct.json"
        wfile = tmp_path / "w.json"
        commands = [
            ["bounds", *graph, "--spec", spec],
            ["construct", *graph, "--spec", spec, "--trials", "20", "--out", str(cfile)],
            ["verify", *graph, "--spec", spec, "--witness", str(wfile)],
            ["exact", "--family", "cycle", "--n", "6", "--spec", spec],
        ]
        for argv in commands:
            if argv[0] == "verify":
                wfile.write_text(json.dumps(json.loads(cfile.read_text())["witness"]))
            calls.clear()
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, err
            assert len(calls) <= 1, (argv[0], spec, calls)


@pytest.mark.parametrize("text", ["# n=1000000000\n", "0 1000000000\n",
                                  "p edge 1000000000 0\n"])
def test_huge_vertex_count_exits_1(capsys, tmp_path, text):
    gfile = tmp_path / "g.txt"
    gfile.write_text(text)
    code, out, err = run_cli(capsys, "gen", "--graph", str(gfile))
    assert code == 1 and out == ""
    assert "exceeds the limit" in err


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "cycle", "--n", "6", "--spec", "kdom:1", "--format", "json"],
    ["exact", "--family", "cycle", "--n", "6", "--spec", "kdom:1", "--format", "json"],
    ["verify", "--family", "cycle", "--n", "6", "--spec", "kdom:1", "--witness", "w.json",
     "--format", "json"],
    ["gen", "--family", "cycle", "--n", "6", "--no-timestamp"],
], ids=["construct-format", "exact-format", "verify-format", "gen-no-timestamp"])
def test_options_that_select_nothing_are_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "cycle", "--n", "6", "--format", "dimacs"],
    ["bounds", "--family", "cycle", "--n", "6", "--spec", "kdom:1", "--format", "csv"],
    ["compare", "3", "100", "10", "--format", "csv"],
    ["bounds", "--family", "cycle", "--n", "6", "--spec", "kdom:1", "--no-timestamp"],
    ["construct", "--family", "cycle", "--n", "6", "--spec", "kdom:1", "--no-timestamp"],
    ["exact", "--family", "cycle", "--n", "6", "--spec", "kdom:1", "--no-timestamp"],
    ["verify", "--family", "cycle", "--n", "6", "--spec", "kdom:1", "--witness", "W",
     "--no-timestamp"],
    ["compare", "3", "100", "10", "--no-timestamp"],
], ids=["gen-format", "bounds-format", "compare-format", "bounds-no-timestamp",
        "construct-no-timestamp", "exact-no-timestamp", "verify-no-timestamp",
        "compare-no-timestamp"])
def test_options_that_select_something_still_work(capsys, tmp_path, argv):
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({"set": [0, 3]}))
    code, out, _ = run_cli(capsys, *[str(witness) if a == "W" else a for a in argv])
    assert code == 0 and out
    if "--no-timestamp" in argv:
        assert "generated_at" not in json.loads(out)
    elif argv[0] == "gen":
        assert out.startswith("p edge 6 6")
    else:
        assert out.splitlines()[0].startswith(("name,", "k,"))
