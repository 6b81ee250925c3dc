import gc
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from cutspec import cli
from cutspec import dinkelbach as dk
from cutspec import functionals as fn
from cutspec import graph as gr
from cutspec import oracles as orc
from cutspec import spectrum
from cutspec.graph import GENERATORS

CORPUS = Path(__file__).parent.parent / "corpus"
SRC = Path(__file__).parent.parent / "src"


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


# main in a fresh interpreter; prints its exit code, then the packages
# outside the standard library and cutspec that `import cutspec.cli` loaded,
# then those loaded once main has run ("-" for none)
IMPORT_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
def foreign():
    tops = {m.partition(".")[0] for m in set(sys.modules) - before}
    return ",".join(sorted(tops - set(sys.stdlib_module_names) - {"cutspec"})) or "-"
from cutspec import cli
on_import = foreign()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, on_import, foreign())
"""


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        pytest.param(["gen", "petersen"], False, id="gen"),
        pytest.param(["oracle", "cheeger", "--graph", "{cycle5}"], False, id="oracle"),
        pytest.param(["cut", "cheeger_tv", "--graph", "{path4}"], False, id="cut"),
        pytest.param(
            ["verify", "one_lap", "--graph", "{path4}", "--lambda", "1/3", "--vector", "{x}"],
            False,
            id="verify",
        ),
        pytest.param(["nodal", "--graph", "{path4}", "--vector", "{x}"], False, id="nodal"),
        pytest.param(["scan", "signless", "--graph", "{cycle5}"], False, id="scan"),
        pytest.param(
            ["check", "--suite", "multiplicity", "--graph", "{cycle5}"],
            False,
            id="check-multiplicity",
        ),
        pytest.param(["check", "--suite", "kway", "--graph", "{cycle5}"], False, id="check-kway"),
        pytest.param(["spectrum", "--graph", "{cycle5}"], True, id="spectrum"),
    ],
)
def test_only_the_eigensolver_loads_numpy(argv, loads_numpy, tmp_path):
    vecfile = tmp_path / "x.txt"
    vecfile.write_text("0 1\n1 1\n2 -1\n3 -1\n")
    paths = {"cycle5": CORPUS / "cycle5.txt", "path4": CORPUS / "path4.txt", "x": vecfile}
    argv = [a.format(**paths) for a in argv]
    res = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert res.returncode == 0, res.stderr
    # the import loads nothing outside the standard library, which keeps
    # start-up short; only the eigensolver then loads numpy
    assert res.stdout.split() == ["0", "-", "numpy" if loads_numpy else "-"]


# runs the CLI on its arguments once its stdin has closed
AFTER_STDIN = "import sys; sys.stdin.read(); from cutspec import cli; sys.exit(cli.main())"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_pipe_exits_1_without_traceback(unbuffered):
    cases = [
        (["-m", "cutspec.cli", "scan", "signless", "--graph", "-"], 1),
        # unbuffered the help's own write fails, buffered main's flush does
        (["-c", AFTER_STDIN, "scan", "--help"], 1),
    ]
    for args, code in cases:
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered),
        )
        # the child blocks reading its stdin until after the reader has gone
        proc.stdout.close()
        _, err = proc.communicate((CORPUS / "cycle5.txt").read_bytes(), timeout=60)
        assert proc.returncode == code, args
        assert b"Traceback" not in err and b"Exception ignored" not in err, err


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
        ["oracle", "k_way_dual_cheeger", *zero_mu],
    ):
        assert cli.main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:"), argv
    # Dinkelbach and the pair oracle skip the candidates of denominator 0,
    # as {0} is here
    assert cli.main(["cut", "dual", *zero_mu]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "0"
    assert cli.main(["oracle", "dual_cheeger", *zero_mu]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "4/3"  # ({0, 2}, {1})


def test_pair_oracles_refuse_an_edge_between_two_vertices_of_measure_zero(tmp_path, capsys):
    graph = tmp_path / "edge.txt"
    graph.write_text("n 3\n0 1\n")
    measure = tmp_path / "measure.txt"
    measure.write_text("0 0\n1 0\n2 1\n")
    # U = {0, 1} split as ({0}, {1}) is 2/0, +inf: not a 0/0 pair to skip
    for oracle in ("dual_cheeger", "modified_dual_cheeger"):
        argv = ["oracle", oracle, "--graph", str(graph), "--measure", str(measure)]
        assert cli.main(argv) == 1, argv
        assert "ratio denominator is zero" in capsys.readouterr().err, argv


def test_cheeger_oracle_skips_a_side_of_measure_zero(tmp_path, capsys):
    path3 = tmp_path / "path3.txt"
    path3.write_text("0 1\n1 2\n")
    measure = tmp_path / "measure.txt"
    measure.write_text("0 0\n")
    zero_mu = ["--graph", str(path3), "--measure", str(measure)]
    # ({0}, {1, 2}) is 1/0, +inf, never the minimum; ({0, 1}, {2}) gives 1
    for argv in (["oracle", "cheeger"], ["oracle", "ratio:cheeger_tv"], ["cut", "cheeger_tv"]):
        assert cli.main([*argv, *zero_mu]) == 0, argv
        assert json.loads(capsys.readouterr().out)["value"] == "1", argv
    # the cheeger_new scan keeps its refusal of a zero denominator
    assert cli.main(["scan", "cheeger_new", *zero_mu]) == 1
    assert "ratio denominator is zero" in capsys.readouterr().err
    # with vol(V) = 0 a maximum still raises on +inf, and a minimum has no
    # bipartition left
    edge = tmp_path / "edge.txt"
    edge.write_text("0 1\n")
    zero = tmp_path / "zero.txt"
    zero.write_text("0 0\n1 0\n")
    for oracle in ("maxcut", "anti_cheeger", "mincut", "cheeger"):
        assert cli.main(["oracle", oracle, "--graph", str(edge), "--measure", str(zero)]) == 1
        assert "ratio denominator is zero" in capsys.readouterr().err, oracle


def test_cut_on_a_graph_with_an_isolated_vertex(tmp_path, capsys):
    graph = tmp_path / "p3_and_isolated.txt"
    graph.write_text("n 4\n1 2\n2 3\n")  # vertex 0 has degree and measure 0
    for problem in sorted(fn.PROBLEMS):
        for inner in ("exact", "flip"):
            argv = ["cut", problem, "--graph", str(graph), "--inner", inner]
            assert cli.main(argv) == 0, argv
            assert json.loads(capsys.readouterr().out)["converged"], argv


def test_pair_oracles_on_a_graph_with_an_isolated_vertex(tmp_path, capsys):
    graph = tmp_path / "p3_and_isolated.txt"
    graph.write_text("n 4\n1 2\n2 3\n")  # vertex 0 has degree and measure 0
    for problem, oracle in (("dual", "dual_cheeger"), ("mdual", "modified_dual_cheeger")):
        values = []
        for argv in (["oracle", oracle], ["oracle", f"ratio:{problem}"], ["cut", problem]):
            assert cli.main([*argv, "--graph", str(graph)]) == 0, argv
            values.append(json.loads(capsys.readouterr().out)["value"])
        assert values == ["1", "0", "0"], problem
    # k_way_dual_cheeger still refuses a vertex of measure zero
    argv = ["oracle", "k_way_dual_cheeger", "--k", "1", "--graph", str(graph)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "command",
    [
        ["spectrum"],
        ["check"],
        ["oracle", "dual_cheeger"],
        ["cut", "cheeger_tv", "--inner", "flip"],
        ["cut", "dual", "--inner", "flip"],
    ],
    ids=lambda command: "_".join(w.lstrip("-") for w in command),
)
def test_graph_without_vertices_exit_1(command, tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    header = tmp_path / "n0.txt"
    header.write_text("n 0\n")
    for path in (empty, header):
        argv = [*command, "--graph", str(path)]
        assert cli.main(argv) == 1, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: graph has no vertices\n", argv


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


def test_lazy_mask_tables_leave_no_cyclic_garbage(capsys):
    """The lazy cut, deg and vol tables of min-max k-cut and the flip step
    are freed when their command returns: with automatic collection off,
    the cyclic collector then finds no _LazyTable."""
    cycle5 = str(CORPUS / "cycle5.txt")
    commands = (
        ["oracle", "minmax_k_cut", "--k", "2", "--graph", cycle5],
        ["cut", "dual", "--inner", "flip", "--graph", cycle5],
    )
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collector finds in gc.garbage
    try:
        for argv in commands:
            assert cli.main(argv) == 0, argv
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, gr._LazyTable)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()
    assert leaked == []


def test_graph_params_leave_no_cyclic_garbage():
    """The independence number and the matching search recurse through
    module functions, not through closures that name themselves, so a
    multiplicity check leaves no cyclic garbage."""
    g = gr.parse_graph((CORPUS / "cycle5.txt").read_text())
    spectrum.multiplicity_bounds_check(g)
    gc.collect()
    gc.disable()
    try:
        spectrum.multiplicity_bounds_check(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def test_suite_reports_a_bad_file_and_keeps_the_others(tmp_path):
    sub = tmp_path / "mixed"
    sub.mkdir()
    (sub / "path4.txt").write_text((CORPUS / "path4.txt").read_text())
    (sub / "bad_ids.txt").write_text("0 1\n1 x\n")
    (sub / "binary.txt").write_bytes(b"\xff\xfe\x00")
    (sub / "folder.txt").mkdir()  # matched by the glob, but no file to read
    one = run(["suite", "--dir", str(sub), "--workers", "1"])
    two = run(["suite", "--dir", str(sub), "--workers", "2"])
    assert one.returncode == two.returncode == 1
    assert one.stdout == two.stdout and one.stderr == ""
    rows = {r["file"]: r for r in map(json.loads, one.stdout.splitlines())}
    assert sorted(rows) == ["bad_ids.txt", "binary.txt", "folder.txt", "path4.txt"]
    assert rows["path4.txt"]["h"] == "1/3" and "error" not in rows["path4.txt"]
    assert rows["bad_ids.txt"] == {"file": "bad_ids.txt", "error": "line 2: bad vertex ids in '1 x'"}
    for name in ("binary.txt", "folder.txt"):
        assert set(rows[name]) == {"file", "error"}, name
        assert rows[name]["error"].startswith("cannot read ") and name in rows[name]["error"]


@pytest.mark.parametrize(
    "line, message",
    [
        ("x 1", "line 2: bad vertex id in 'x 1'"),
        ("7 1", "line 2: vertex id 7 out of range with n=3"),
        ("-1 1", "line 2: vertex id -1 out of range with n=3"),
    ],
    ids=["not_an_int", "past_n", "negative"],
)
def test_bad_measure_vertex_id_exit_1(line, message, tmp_path, capsys):
    graph = tmp_path / "path3.txt"
    graph.write_text("0 1\n1 2\n")
    measure = tmp_path / "measure.txt"
    measure.write_text(f"0 1\n{line}\n")
    argv = ["oracle", "cheeger", "--graph", str(graph), "--measure", str(measure)]
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


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


def test_dual_ratio_oracles_need_degree_measure(tmp_path, capsys):
    """1 - h+ is the dual ratios' optimum for the degree measure only: under
    another one it reads -5/3 here, for a ratio that is never negative."""
    graph = tmp_path / "triangle.txt"
    graph.write_text("0 1\n0 2 1/2\n1 2 2\n")
    custom = tmp_path / "custom.txt"
    custom.write_text("0 1\n1 1\n2 1/2\n")
    gm = ["--graph", str(graph), "--measure", str(custom)]
    for problem in ("dual", "mdual"):
        assert cli.main(["oracle", f"ratio:{problem}", *gm]) == 2, problem
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            f"error: ratio:{problem} needs the degree measure: "
            "--measure differs from the weighted degree\n"
        )
        assert cli.main(["oracle", f"ratio:{problem}", "--graph", str(graph)]) == 0, problem
        capsys.readouterr()
    assert cli.main(["oracle", "ratio:cheeger_tv", *gm]) == 0
    ratio = capsys.readouterr().out
    assert cli.main(["oracle", "cheeger", *gm]) == 0
    assert capsys.readouterr().out == ratio


def test_cap_zero_means_no_cap(capsys):
    graph = ["--graph", str(CORPUS / "cycle5.txt")]
    for argv in (["oracle", "cheeger"], ["oracle", "ratio:cheeger_tv"], ["cut", "dual"], ["scan", "signless"]):
        assert cli.main([*argv, *graph]) == 0, argv
        unset = capsys.readouterr().out
        assert cli.main(["--cap", "0", *argv, *graph]) == 0, argv
        assert capsys.readouterr().out == unset, argv


def test_negative_lambda_after_a_space(tmp_path, capsys):
    vector = tmp_path / "x.txt"
    vector.write_text("0 1\n1 1\n2 -1\n3 -1\n")
    common = ["verify", "signless", "--graph", str(CORPUS / "path4.txt"), "--vector", str(vector)]
    for lam in ("-1/2", "-1", "-3/2"):
        assert cli.main([*common, "--lambda", lam]) == 0, lam
        spaced = capsys.readouterr().out
        assert json.loads(spaced)["lambda"] == lam
        for same in ([f"--lambda={lam}"], ["--lam", lam]):
            assert cli.main([*common, *same]) == 0, same
            assert capsys.readouterr().out == spaced
    # an option after --lambda is still a missing value
    res = run(["verify", "signless", "--graph", str(CORPUS / "path4.txt"), "--lambda", "--vector", str(vector)])
    assert res.returncode == 2 and "--lambda: expected one argument" in res.stderr


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


def _every_command(n, graph, measure, vector, suite_dir):
    """One argv per subcommand, oracle, problem id, --inner, --suite and
    --convention choice, on one graph."""
    gm = ["--graph", graph, *measure]
    oracles = [*sorted(orc.ORACLES), "nope", *(f"ratio:{p}" for p in [*sorted(fn.PROBLEMS), "nope"])]
    suites = ("all", "cheeger", "dual", "kway", "forest", "multiplicity")
    conventions = ("sign_based", "support_based", "sup_norm_based")
    return [
        *(["gen", name, str(n)] for name in sorted(GENERATORS)),
        *(["oracle", name, *gm] for name in oracles),
        *(["oracle", "k_way_dual_cheeger", *gm, "--k", k] for k in ("1", "2")),
        *(["oracle", "minmax_k_cut", *gm, "--k", "2", *p] for p in ([], ["--partition"])),
        *(["cut", p, *gm, "--inner", i] for p in sorted(fn.PROBLEMS) for i in ("exact", "flip")),
        ["cut", "cheeger_tv", *gm, "--x0", vector],
        *(
            ["verify", s, *gm, "--lambda", "1/2", "--vector", vector]
            for s in sorted(fn.EIGENPROBLEMS)
        ),
        ["verify", "one_lap", *gm, "--lambda", "1", "--vector", vector, "--raw"],
        *(["nodal", *gm, "--vector", vector, "--convention", c] for c in conventions),
        ["spectrum", *gm],
        *(["check", *gm, "--suite", s] for s in suites),
        *(["scan", s, *gm] for s in sorted(fn.EIGENPROBLEMS)),
        ["suite", "--dir", suite_dir],
    ]


def test_no_exception_escapes_any_command(tmp_path, capsys):
    """Every command on small random graphs (edgeless, weighted, zero
    measures) ends in an exit code, never in an exception."""
    rng = random.Random(0)
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    graph, measure, vector = suite_dir / "g.txt", tmp_path / "mu.in", tmp_path / "x.in"
    codes = set()
    for _ in range(40):
        n = rng.randint(1, 5)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        weights = ("1", "2", "1/2", "3/2")
        edges = [f"{u} {v} {rng.choice(weights)}\n" for u, v in pairs]
        graph.write_text("".join([f"n {n}\n", *edges]))
        mu = rng.choice([None, "0", "01", "12"])  # degree, zero, some zeros, positive
        measure.write_text("".join(f"{i} {rng.choice(mu or '0')}\n" for i in range(n)))
        values = ("-1", "0", "1/2", "1")
        vector.write_text("".join(f"{i} {rng.choice(values)}\n" for i in range(n)))
        with_measure = [] if mu is None else ["--measure", str(measure)]
        for argv in _every_command(n, str(graph), with_measure, str(vector), str(suite_dir)):
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:
                pytest.fail(f"{argv} on {graph.read_text()!r}: {exc!r}")
            capsys.readouterr()
            assert code in (0, 1, 2), argv
            codes.add(code)
    assert codes == {0, 1, 2}


# -- one kernel per graph -------------------------------------------------------


def _clear_per_n_tables():
    """Empty the tables that graph keeps per n, so the next command builds
    them anew."""
    for per_n in (
        gr._mask_members,
        gr._member_order,
        gr._ternary_pairs,
        gr._ternary_representatives,
        gr._ternary_multipliers,
    ):
        per_n.cache_clear()


# n = 5; the second graph differs from the first in one weight, and the
# measure (with a zero) goes with the first edge list
KERNEL_GRAPH = "n 5\n0 1\n1 2 2\n2 3\n3 4\n0 4 1/2\n1 3\n"
KERNEL_GRAPH_REWEIGHTED = KERNEL_GRAPH.replace("1 3\n", "1 3 3\n")
KERNEL_MEASURE = "0 1\n1 2\n2 1/2\n3 0\n4 3\n"
KERNEL_COMMANDS = (
    ["oracle", "cheeger"],
    ["oracle", "maxcut"],
    ["oracle", "mincut"],
    ["oracle", "anti_cheeger"],
    ["oracle", "dual_cheeger"],
    ["oracle", "modified_dual_cheeger"],
    ["oracle", "ratio:cheeger_tv"],
    ["oracle", "k_way_dual_cheeger", "--k", "2"],
    ["oracle", "k_way_dual_cheeger", "--k", "3"],
    ["oracle", "k_way_dual_cheeger", "--k", "1"],
    ["oracle", "minmax_k_cut", "--k", "2"],
    ["scan", "signless"],
    ["scan", "one_lap"],
    ["scan", "hat_signless"],
    ["scan", "maxcut_inf"],
    ["scan", "cheeger_new"],
    ["scan", "anti_cheeger"],
    ["cut", "cheeger_tv", "--inner", "exact"],
    ["cut", "dual", "--inner", "exact"],
    ["cut", "maxcut_ratio", "--inner", "exact"],
    ["cut", "anti", "--inner", "flip"],
    ["cut", "mdual", "--inner", "flip"],
    ["check"],
)


def test_kernel_never_leaks_between_graphs(tmp_path, capsys):
    """Commands alternate between two graphs that differ in one weight and
    an edge list with and without --measure, each graph parsed once, so
    every command reads a kernel that the commands before it filled.  Each
    output equals the output for a freshly parsed graph and empty per-n
    tables."""
    first, second, measure = (tmp_path / name for name in ("a.txt", "b.txt", "mu.txt"))
    first.write_text(KERNEL_GRAPH)
    second.write_text(KERNEL_GRAPH_REWEIGHTED)
    measure.write_text(KERNEL_MEASURE)
    graphs = (
        ["--graph", str(first)],
        ["--graph", str(second)],
        ["--graph", str(first), "--measure", str(measure)],
    )

    def run(argv):
        code = cli.main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = {}
    for command in KERNEL_COMMANDS:
        for g in graphs:
            _clear_per_n_tables()
            fresh[(*command, *g)] = run([*command, *g])
    assert {code for code, _, _ in fresh.values()} == {0, 1, 2}

    parsed = {}
    real_parse = cli.parse_graph

    def parse_once(text, measure=None):
        if (text, measure) not in parsed:
            parsed[(text, measure)] = real_parse(text, measure)
        return parsed[(text, measure)]

    with mock.patch.object(cli, "parse_graph", parse_once):
        for order in (graphs, graphs[::-1]):
            for command in KERNEL_COMMANDS:
                for g in order:
                    assert run([*command, *g]) == fresh[(*command, *g)], [*command, *g]
    assert len(parsed) == 3


def test_suite_rows_equal_rows_of_freshly_parsed_graphs(capsys):
    """A suite over the corpus gives every file the row that _suite_one
    gives it alone, with the per-n tables built anew."""
    cli.main(["suite", "--dir", str(CORPUS)])
    rows = capsys.readouterr().out.splitlines()
    files = sorted(CORPUS.glob("*.txt"))
    assert len(rows) == len(files)
    for path, row in zip(files, rows):
        _clear_per_n_tables()
        assert cli._suite_one(str(path)) == row, path.name


# n and the k-way levels each row builds: none off a forest, k = 1 and 2 on
# tree8, where (2k + 1)^n refuses k = 3, and k = 1, 2, 3 on path6
SUITE_ROWS = {"random8a.txt": (8, 0), "tree8.txt": (8, 2), "path6.txt": (6, 3)}


@pytest.mark.parametrize("name", list(SUITE_ROWS))
def test_one_suite_row_builds_each_kernel_part_once(name):
    """A row that runs every stage builds its 2^n tables once, computes each
    subset oracle (cheeger, maxcut, mincut, anti-Cheeger) and the dual
    Cheeger pair oracle once, though inequality_suite asks again for
    cheeger, maxcut and dual_cheeger, and never calls ratio_objective: each
    Dinkelbach solve takes its default start's ratio from the integer
    form.  The pair-split table is built once, and a forest's k-way oracle
    (k = 1, 2, 3) reuses it and builds each of its levels once."""
    counts = Counter()

    def counted(key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)
        return wrapper

    with (
        mock.patch.object(gr, "_extend", counted("tables", gr._extend)),
        mock.patch.object(orc, "_subset_oracle", counted("subset", orc._subset_oracle)),
        mock.patch.object(orc, "_pair_oracle", counted("pair", orc._pair_oracle)),
        mock.patch.object(dk, "ratio_objective", counted("ratio", dk.ratio_objective)),
        mock.patch.object(orc, "_split_max", counted("split", orc._split_max)),
        mock.patch.object(orc, "_kway_level", counted("level", orc._kway_level)),
    ):
        row = json.loads(cli._suite_one(str(CORPUS / name)))
    n, levels = SUITE_ROWS[name]
    assert row["inequalities_hold"] and row["dinkelbach_cheeger_ok"] and row["n"] == n
    assert counts == Counter(tables=1, subset=4, pair=1, split=1, level=levels, ratio=0)
