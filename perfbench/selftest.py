"""Self-test of the benchmark harness; run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
import unittest
from fractions import Fraction

import run
import spans
import workloads

CUTSPEC = run.load_cutspec()


def span(name, start, end, parent):
    return [name, start, end, parent, "job", None]


class SelfTime(unittest.TestCase):
    def setUp(self):
        # eigen.spectrum_scan [0, 10]
        #   eigen.verify [1, 6]             same-layer child
        #     eigen.verify [1.5, 5.5]       same-layer recursion
        #       simplex.find_feasible [2, 5]
        #   functionals.ratio_objective [7, 8]
        #     graph.parse_graph [7.25, 7.5]
        self.sp = [
            span("eigen.spectrum_scan", 0.0, 10.0, -1),
            span("eigen.verify", 1.0, 6.0, 0),
            span("eigen.verify", 1.5, 5.5, 1),
            span("simplex.find_feasible", 2.0, 5.0, 2),
            span("functionals.ratio_objective", 7.0, 8.0, 0),
            span("graph.parse_graph", 7.25, 7.5, 4),
        ]

    def test_layer_self_times(self):
        got = spans.self_times(self.sp)
        self.assertEqual(got, {"eigen": 6.0, "simplex": 3.0, "functionals": 0.75,
                               "graph": 0.25})
        self.assertEqual(sum(got.values()), 10.0)  # nothing counted twice

    def test_inclusive_time_counts_recursion_once(self):
        self.assertEqual(spans.inclusive_time(self.sp, {"eigen.verify"}), 5.0)
        self.assertEqual(spans.inclusive_time(self.sp, {"eigen.spectrum_scan",
                                                        "eigen.verify"}), 10.0)


class Wrapping(unittest.TestCase):
    def test_spans_follow_imported_bindings(self):
        g = CUTSPEC.graph.parse_graph("0 1\n1 2\n2 0\n")
        x = (Fraction(1), Fraction(-1), Fraction(0))
        rec = spans.Recorder()
        modules = {layer: getattr(CUTSPEC, layer) for layer in spans.LAYERS}
        original = CUTSPEC.dinkelbach.verify
        uninstall = spans.install(rec, CUTSPEC, modules)
        try:
            # dinkelbach binds eigen.verify with `from .eigen import verify`
            CUTSPEC.dinkelbach.stationary_check("cheeger_tv", g, Fraction(1), x)
        finally:
            uninstall()
        self.assertIs(CUTSPEC.dinkelbach.verify, original)
        names = [s[spans.NAME] for s in rec.spans]
        self.assertEqual(names[:2], ["dinkelbach.stationary_check", "eigen.verify"])
        self.assertIn("simplex.find_feasible", names)
        parents = {s[spans.NAME]: s[spans.PARENT] for s in rec.spans}
        self.assertEqual(parents["eigen.verify"], 0)
        self.assertEqual(names[parents["simplex.find_feasible"]], "eigen.verify")


class Golden(unittest.TestCase):
    def test_one_altered_output_is_one_failure(self):
        golden = json.loads((run.HERE / "golden.json").read_text())["digests"]
        work = workloads.make_workdir(run.ROOT, "selftest-golden")
        try:
            inputs = workloads.Inputs("cli_requests", 3, run.ROOT, work, CUTSPEC)
            jobs = [j for j in inputs.jobs if j.argv[0] in ("gen", "nodal", "verify")][:20]
            results = workloads.run_cli_pass(CUTSPEC, jobs, lambda key: None)
        finally:
            shutil.rmtree(work)
        table = golden["cli_requests"]
        self.assertEqual(run.score(jobs, [results], table)[:2], (20, 0))
        dt, out, err = results[5]
        altered = list(results)
        altered[5] = (dt, out.replace(b"}", b" }", 1) if b"}" in out else out + b"\n", err)
        attempted, failed, failures = run.score(jobs, [altered], table)
        self.assertEqual((attempted, failed), (20, 1))
        self.assertEqual(list(failures), [f"{jobs[5].key}: digest mismatch"])


class SuiteRows(unittest.TestCase):
    def test_rows_come_from_stdout(self):
        golden = json.loads((run.HERE / "golden.json").read_text())["digests"]
        work = workloads.make_workdir(run.ROOT, "selftest-suite")
        try:
            jobs = []
            for fname in ("complete3.txt", "path4.txt"):
                (work / fname).write_text((run.ROOT / "corpus" / fname).read_text())
                jobs.append(workloads.Job(key=fname, props={}, path=str(work / fname)))
            results = workloads.run_suite_pass(CUTSPEC, jobs, work, lambda key: None)
        finally:
            shutil.rmtree(work)
        self.assertEqual(run.score(jobs, [results], golden["suite_corpus"])[:2], (2, 0))
        self.assertTrue(all(dt > 0 for dt, _, _ in results))

    def test_without_row_hook_rows_share_the_call_time(self):
        def main(argv):
            print("suite header")
            print(json.dumps({"file": "b.txt", "n": 2}))
            print(json.dumps({"file": "a.txt", "n": 3}))
            return 0

        fake = types.SimpleNamespace(cli=types.SimpleNamespace(main=main))
        jobs = [workloads.Job(key=k, props={}) for k in ("a.txt", "b.txt", "c.txt")]
        results = workloads.run_suite_pass(fake, jobs, "dir", lambda key: None)
        self.assertEqual([out for _, out, _ in results],
                         [b'{"file": "a.txt", "n": 3}\n',
                          b'{"file": "b.txt", "n": 2}\n', None])
        self.assertEqual(results[2][2], "no row")
        self.assertEqual(len({dt for dt, _, _ in results}), 1)


class BareDirectory(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        bare = run.ROOT / ".bench_runs" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            res = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli_requests",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout, "")


if __name__ == "__main__":
    unittest.main()
