"""cutspec benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports cutspec from ./src
and exits with code 2, printing no result, when there is none.

Workloads (one process, single-threaded, inputs chosen by --seed):
  suite_corpus  `cutspec suite --workers 1` over the nine shipped corpus files
                with n <= 7 and three seeded graphs; a job is one file row.
  ternary_scan  exact ternary `spectrum_scan` on five seeded connected graphs:
                signless, one_lap and hat_signless at n = 5, signless at n = 6;
                a job is one scan.
  cli_requests  a closed loop with one client sending 150 `cli.main(argv)`
                requests of every subcommand, three per kind, problem and
                size; a job is one request.

A pass runs the run's job list once.  Passes repeat until the next one would
end after S seconds.  Every job's output is hashed and compared with the
digest taken from the unchanged program (golden.json); a mismatch or an
exception counts as a failed job.

The last stdout line is the result.  With --trace 0 its metrics are the
end-to-end ones: wall_s (median pass time), job_p50_ms and job_p90_ms (over
the jobs of a pass, each job at its median latency over the passes), setup_s
(median of five fresh interpreters that import cutspec.cli and build the
inputs) and peak_rss_mb.  With --trace 1 passes alternate untraced and
traced; the metrics are per layer (see spans.py), each the median over
traced passes, plus the tracing overhead.
The line before it is a report: machine, inputs, samples and failures.  The
report, and with --trace 1 every span, is also written to
.bench_runs/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
RESIDUAL_TOL = 1e-9  # the eigensolver's own tolerance against exact values

SUBSET = {"oracles.cheeger", "oracles.maxcut", "oracles.mincut", "oracles.anti_cheeger"}
PAIR = {"oracles.dual_cheeger", "oracles.modified_dual_cheeger"}


def load_cutspec():
    src = ROOT / "src"
    if not (src / "cutspec" / "__init__.py").is_file():
        print(f"perfbench: no cutspec sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    cutspec = importlib.import_module("cutspec")
    for layer in spans.LAYERS:
        importlib.import_module(f"cutspec.{layer}")
    return cutspec


def setup_probe(cutspec, workload: str, seed: int):
    """Body of one set-up measurement: a fresh interpreter has imported
    cutspec (load_cutspec) and now builds the workload's inputs."""
    work = workloads.make_workdir(ROOT, f"probe-{os.getpid()}")
    try:
        workloads.Inputs(workload, seed, ROOT, work, cutspec)
    finally:
        shutil.rmtree(work)


def measure_setup(workload: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def layer_metrics(sp) -> dict:
    """Per-layer metrics of one traced pass."""
    selfs = spans.self_times(sp)
    calls = Counter(spans.layer_of(s[spans.NAME]) for s in sp)
    m = {}
    for layer in spans.LAYERS:
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    found = spans.note_values(sp, "simplex.find_feasible")
    verdicts = spans.note_values(sp, "eigen.verify")
    residuals = spans.note_values(sp, "spectrum.normalized_laplacian_spectrum")
    m["simplex.feasible_ratio"] = sum(found) / len(found) if found else 0.0
    m["eigen.verify_calls"] = len(verdicts)
    m["eigen.verify_accept_ratio"] = sum(verdicts) / len(verdicts) if verdicts else 0.0
    m["eigen.verify_s"] = spans.inclusive_time(sp, {"eigen.verify"})
    m["eigen.scan_s"] = spans.inclusive_time(sp, {"eigen.spectrum_scan"})
    m["dinkelbach.solve_s"] = spans.inclusive_time(sp, {"dinkelbach.solve"})
    m["dinkelbach.iterations"] = sum(spans.note_values(sp, "dinkelbach.solve"))
    m["oracles.subset_s"] = spans.inclusive_time(sp, SUBSET)
    m["oracles.pair_s"] = spans.inclusive_time(sp, PAIR)
    m["oracles.kway_s"] = spans.inclusive_time(sp, {"oracles.k_way_dual_cheeger"})
    m["oracles.minmax_s"] = spans.inclusive_time(sp, {"oracles.minmax_k_cut"})
    m["functionals.ratio_calls"] = spans.count(sp, {"functionals.ratio_objective"})
    m["spectrum.eigensolver_s"] = spans.inclusive_time(
        sp, {"spectrum.normalized_laplacian_spectrum"})
    m["spectrum.residual_max"] = max(residuals, default=0.0)
    m["spectrum.suite_s"] = spans.inclusive_time(sp, {"spectrum.inequality_suite"})
    m["graph.parse_s"] = spans.inclusive_time(sp, {"graph.parse_graph"})
    return m


def provenance(seed, n_passes) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
        "passes": n_passes,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "cutspec").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def input_properties(jobs, first_outputs) -> dict:
    graphs = [j.props for j in jobs if j.props["n"] is not None]
    share = lambda key: sum(p[key] for p in graphs) / len(graphs) if graphs else 0.0
    out = {
        "jobs_per_pass": len(jobs),
        "n_histogram": dict(sorted(Counter(p["n"] for p in graphs).items())),
        "weighted_share": share("weighted"),
        "custom_measure_share": share("measure"),
        "forest_share": share("forest"),
    }
    verdicts = []
    for j, out_bytes in zip(jobs, first_outputs):
        if j.argv[:1] == ["verify"] and out_bytes is not None:
            verdicts.append(json.loads(out_bytes.split(b"\n", 1)[1])["verdict"])
    if verdicts:
        out["verify_requests_rejected_share"] = verdicts.count(False) / len(verdicts)
    return out


def score(jobs, pass_results, golden):
    """(attempted, failed, failure counts): a job fails when it raised or
    when the digest of its output differs from its golden digest."""
    attempted = failed = 0
    failures = Counter()
    for results in pass_results:
        for job, (_, out, err) in zip(jobs, results):
            attempted += 1
            if out is None or workloads.digest(out) != golden.get(job.key):
                failed += 1
                failures[f"{job.key}: {err or 'digest mismatch'}"] += 1
    return attempted, failed, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    cutspec = load_cutspec()
    if args.setup_probe:
        setup_probe(cutspec, args.workload, args.seed)
        return 0
    golden = json.loads((HERE / "golden.json").read_text())["digests"][args.workload]
    setup_times = measure_setup(args.workload, args.seed)

    rec = spans.Recorder()
    modules = {layer: getattr(cutspec, layer) for layer in spans.LAYERS}
    work = workloads.make_workdir(ROOT, f"run-{os.getpid()}")
    passes = []  # (traced, wall seconds, results, spans)
    try:
        inputs = workloads.Inputs(args.workload, args.seed, ROOT, work, cutspec)
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            uninstall = spans.install(rec, cutspec, modules) if traced else None
            t0 = time.perf_counter()
            try:
                results = inputs.run_pass(cutspec, lambda key: setattr(rec, "job", key))
            finally:
                if uninstall:
                    uninstall()
            wall = time.perf_counter() - t0
            passes.append((traced, wall, results, rec.take()))
            elapsed = time.perf_counter() - start
            if len(passes) >= 1 + args.trace and elapsed + wall > args.seconds:
                break
    finally:
        shutil.rmtree(work)

    jobs = inputs.jobs
    attempted, failed, failures = score(jobs, [p[2] for p in passes], golden)
    # each job's median latency over the run's passes: a percentile over
    # jobs then does not jump with the number of passes
    untraced = [p for p in passes if not p[0]]
    latencies = [statistics.median(p[2][i][0] for p in untraced) * 1000
                 for i in range(len(jobs))]
    report = {
        "workload": args.workload,
        "provenance": provenance(args.seed, len(passes)),
        "inputs": input_properties(jobs, [out for _, out, _ in passes[0][2]]),
        "pass_walls_s": [w for _, w, _, _ in passes],
        "job_latency_samples": {"jobs": len(jobs), "passes": len(untraced)},
        "setup_probes_s": setup_times,
        # False: cli lost its per-file function and every suite row got an
        # equal share of the call's time (workloads.run_suite_pass)
        "suite_row_hook": (hasattr(cutspec.cli, workloads.SUITE_ROW_HOOK)
                           if args.workload == "suite_corpus" else None),
        "fail_frac": failed / attempted,
        "failures": dict(failures.most_common(10)),
    }
    correct = failed == 0
    if args.trace:
        per_pass = [layer_metrics(sp) for t, _, _, sp in passes if t]
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        untraced_wall = statistics.median(p[1] for p in untraced)
        traced_wall = statistics.median(w for t, w, _, _ in passes if t)
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced_wall
        total_self = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS) or 1.0
        report["layer_self_share"] = {
            layer: metrics[f"{layer}.self_s"] / total_self for layer in spans.LAYERS}
        report["spans_per_traced_pass"] = [len(sp) for t, _, _, sp in passes if t]
        if metrics["eigen.verify_calls"]:
            report["inputs"]["verify_calls_rejected_share"] = (
                1 - metrics["eigen.verify_accept_ratio"])
        correct = correct and metrics["spectrum.residual_max"] <= RESIDUAL_TOL
    else:
        metrics = {
            "wall_s": statistics.median(p[1] for p in untraced),
            "job_p50_ms": statistics.median(latencies),
            "job_p90_ms": statistics.quantiles(latencies, n=10)[8],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    # BENCHMARK.json names the metrics of each mode and their units
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = listed["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".bench_runs"
    out_dir.mkdir(exist_ok=True)
    record = dict(report, metrics=metrics, job_keys=[j.key for j in jobs],
                  job_seconds=[[dt for dt, _, _ in p[2]] for p in passes])
    if args.trace:
        record["span_fields"] = ["name", "start", "end", "parent", "job", "note"]
        record["spans"] = [sp for t, _, _, sp in passes if t]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))

    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
