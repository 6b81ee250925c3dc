import gc
import json
import subprocess
import sys
from pathlib import Path

from cutspec import cli

CORPUS = Path(__file__).parent.parent / "corpus"


def run(args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "cutspec.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def test_gen_pipe_oracle():
    gen = run(["gen", "petersen"])
    assert gen.returncode == 0
    res = run(["oracle", "maxcut", "--graph", "-"], stdin=gen.stdout)
    assert res.returncode == 0
    assert json.loads(res.stdout)["value"] == "4/5"


def test_oracle_from_file():
    res = run(["oracle", "cheeger", "--graph", str(CORPUS / "path4.txt")])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["value"] == "1/3" and payload["sets"] == [[0, 1]]


def test_cut_exact():
    res = run(["cut", "cheeger_tv", "--graph", str(CORPUS / "path4.txt")])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["value"] == "1/3" and payload["converged"]
    assert payload["trace"][0]["k"] == 0


def test_verify_roundtrip(tmp_path):
    vecfile = tmp_path / "x.txt"
    vecfile.write_text("0 1\n1 1\n2 -1\n3 -1\n")
    res = run(
        [
            "verify",
            "one_lap",
            "--graph",
            str(CORPUS / "path4.txt"),
            "--lambda",
            "1/3",
            "--vector",
            str(vecfile),
        ]
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["verdict"] is True
    res = run(
        [
            "verify",
            "one_lap",
            "--graph",
            str(CORPUS / "path4.txt"),
            "--lambda",
            "1/2",
            "--vector",
            str(vecfile),
        ]
    )
    assert json.loads(res.stdout)["verdict"] is False


def test_nodal_and_spectrum(tmp_path):
    vecfile = tmp_path / "x.txt"
    vecfile.write_text("0 1\n2 -1\n")
    res = run(
        [
            "nodal",
            "--graph",
            str(CORPUS / "path4.txt"),
            "--vector",
            str(vecfile),
            "--convention",
            "sup_norm_based",
        ]
    )
    payload = json.loads(res.stdout)
    assert payload["d_plus"] == [0] and payload["d_minus"] == [2]
    res = run(["spectrum", "--graph", str(CORPUS / "cycle4.txt")])
    vals = json.loads(res.stdout)["eigenvalues"]
    assert vals == [0.0, 1.0, 1.0, 2.0]


def test_check_exit_codes():
    res = run(["check", "--graph", str(CORPUS / "path4.txt")])
    assert res.returncode == 0
    assert json.loads(res.stdout)["all_hold"] is True


def test_scan_output():
    res = run(["scan", "maxcut_inf", "--graph", str(CORPUS / "complete3.txt")])
    vals = [e["value"] for e in json.loads(res.stdout)["eigenvalues"]]
    assert vals == ["0", "2/3"]


def test_usage_error_exit_2():
    res = run(["oracle"])  # missing --graph
    assert res.returncode == 2


def test_missing_file_usage_error_exit_2(tmp_path, capsys):
    graph = str(CORPUS / "path4.txt")
    missing = str(tmp_path / "missing.txt")
    for argv in (
        ["oracle", "cheeger", "--graph", missing],
        ["oracle", "cheeger", "--graph", graph, "--measure", missing],
        ["verify", "one_lap", "--graph", graph, "--lambda", "1", "--vector", missing],
        ["cut", "dual", "--graph", graph, "--x0", missing],
    ):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing.txt" in err


def test_zero_denominators_exit_1(tmp_path, capsys):
    edgeless = tmp_path / "edgeless.txt"
    edgeless.write_text("n 2\n")
    path3 = tmp_path / "path3.txt"
    path3.write_text("0 1\n1 2\n")
    measure = tmp_path / "measure.txt"
    measure.write_text("0 0\n")
    zero_mu = ["--graph", str(path3), "--measure", str(measure)]
    for argv in (
        ["oracle", "maxcut", "--graph", str(edgeless)],
        ["oracle", "mincut", "--graph", str(edgeless)],
        ["oracle", "dual_cheeger", "--graph", str(edgeless)],
        ["cut", "dual", "--graph", str(edgeless)],
        ["oracle", "dual_cheeger", *zero_mu],
        ["oracle", "k_way_dual_cheeger", *zero_mu],
        ["cut", "dual", *zero_mu],
    ):
        assert cli.main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_gen_bad_k_exit_1(capsys):
    for argv in (["gen", "cycle", "2"], ["gen", "path", "0"], ["gen", "star", "0"]):
        assert cli.main(argv) == 1, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")


def test_repeated_main_leaves_no_cyclic_garbage(capsys):
    cli.main(["gen", "path", "3"])
    gc.collect()
    cli.main(["gen", "path", "3"])
    assert gc.collect() == 0
    assert capsys.readouterr().out.count("n 3") == 2


def test_domain_error_exit_1(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 1\n")
    res = run(["oracle", "cheeger", "--graph", str(bad)])
    assert res.returncode == 1
    assert res.stderr.startswith("error:")


def test_repeat_runs_identical():
    args = ["scan", "signless", "--graph", str(CORPUS / "complete3.txt")]
    a, b = run(args), run(args)
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_suite_workers_identical(tmp_path):
    sub = tmp_path / "mini"
    sub.mkdir()
    for name in ("path4.txt", "complete3.txt", "cycle4.txt"):
        (sub / name).write_text((CORPUS / name).read_text())
    one = run(["suite", "--dir", str(sub), "--workers", "1"])
    two = run(["suite", "--dir", str(sub), "--workers", "2"])
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout
    lines = one.stdout.strip().splitlines()
    assert [json.loads(l)["file"] for l in lines] == sorted(
        ["path4.txt", "complete3.txt", "cycle4.txt"]
    )


def test_spectral_commands_need_degree_measure(tmp_path, capsys):
    graph = str(CORPUS / "path4.txt")
    custom = tmp_path / "custom.txt"
    custom.write_text("0 1\n1 1\n2 1\n3 1\n")
    for cmd in ("spectrum", "check"):
        assert cli.main([cmd, "--graph", graph, "--measure", str(custom)]) == 2, cmd
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and "measure" in out.err
    # the degrees of path4 written out as a measure file run as without one
    degrees = tmp_path / "degrees.txt"
    degrees.write_text("0 1\n1 2\n2 2\n3 1\n")
    for cmd in ("spectrum", "check"):
        assert cli.main([cmd, "--graph", graph, "--measure", str(degrees)]) == 0, cmd
        with_measure = capsys.readouterr().out
        assert cli.main([cmd, "--graph", graph]) == 0, cmd
        assert capsys.readouterr().out == with_measure


def _check_reports(argv, capsys):
    code = cli.main(["check", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)["reports"] if out else None


def test_check_suite_filters_reports(capsys):
    keep = {
        "cheeger": lambda name: name == "cheeger",
        "dual": lambda name: name in ("dual_cheeger", "sandwich_k1"),
        "forest": lambda name: name.startswith("forest_sandwich_k"),
        "kway": lambda name: name.startswith("kway_lower_m"),
        "multiplicity": lambda name: name == "multiplicity_bounds",
    }
    for name, forest in (("path6.txt", True), ("cycle5.txt", False)):
        graph = ["--graph", str(CORPUS / name)]
        code, full = _check_reports(graph, capsys)
        assert code == 0
        for suite, wanted in keep.items():
            if suite == "forest" and not forest:
                continue
            code, reports = _check_reports([*graph, "--suite", suite], capsys)
            assert code == 0, (name, suite)
            assert reports == [r for r in full if wanted(r["name"])], (name, suite)
            assert reports, (name, suite)
        # every report of the full run belongs to a narrower suite but one
        assert [r["name"] for r in full if not any(k(r["name"]) for k in keep.values())] == [
            "delorme_poljak"
        ]
    code, reports = _check_reports(["--graph", str(CORPUS / "cycle5.txt"), "--suite", "dual"], capsys)
    assert [r["name"] for r in reports] == ["dual_cheeger", "sandwich_k1"]


def test_check_forest_suite_needs_a_forest(capsys):
    graph = str(CORPUS / "cycle5.txt")
    assert cli.main(["check", "--graph", graph, "--suite", "forest"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:") and "forest" in out.err
