"""Baseline records of the benchmark; run from the root of a source checkout.

    python3 perfbench/record.py golden            # rewrite golden.json
    python3 perfbench/record.py spread
    python3 perfbench/record.py layers
    python3 perfbench/record.py headroom

golden    runs every pool instance of every workload once and stores the
          sha256 of each job's output.  Run it only on a commit whose outputs
          are the reference (outputs must never change).
spread    runs run.py untraced on seeds 0-9 of every workload and records,
          per metric, the median and the quartile spread as a share of the
          median, against the bound in BENCHMARK.json.
layers    runs run.py traced on seeds 0 and 7 of every workload and records
          each layer's share of traced self time and the dominant layer.
headroom  times acceptance criteria 1 and 7 with the unchanged tests, next
          to their in-test gates.  Run once per baseline, not per check.

Records go to perfbench/baseline/<kind>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import run
import workloads

BASELINE = run.HERE / "baseline"
RUN = [sys.executable, str(run.HERE / "run.py")]
SPREAD_SEEDS = range(10)
LAYER_SEEDS = (0, 7)  # 0 is the seed the workloads were written on


def golden():
    cutspec = run.load_cutspec()
    out = {"source_sha256": run.source_digest(), "digests": {}}
    for name in workloads.WORKLOADS:
        work = workloads.make_workdir(run.ROOT, f"golden-{name}")
        try:
            inputs = workloads.Inputs(name, 0, run.ROOT, work, cutspec, pool_all=True)
            results = inputs.run_pass(cutspec)
        finally:
            shutil.rmtree(work)
        table = {}
        for job, (_, data, err) in zip(inputs.jobs, results):
            if data is None:
                raise SystemExit(f"{name} {job.key}: {err}")
            table[job.key] = workloads.digest(data)
        out["digests"][name] = dict(sorted(table.items()))
        print(f"{name}: {len(table)} digests", file=sys.stderr)
    (run.HERE / "golden.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2])["report"]
    result["process_s"] = time.perf_counter() - t0
    return result


def spread_of(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def spread(bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for w in [x["name"] for x in bench["workloads"]]:
        runs = []
        for seed in SPREAD_SEEDS:
            r = run_once(w, seed, bench["run_seconds"], 0)
            runs.append(r)
            print(w, seed, r["correct"], r["failed"], r["attempted"],
                  {k: round(v["value"], 4) for k, v in r["metrics"].items()},
                  f"{r['process_s']:.1f}s", file=sys.stderr, flush=True)
        per_metric = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread_of(values)
            per_metric[name] = {"median": statistics.median(values), "spread": s,
                                "bound": bound, "within_third": s < bound / 3,
                                "values": values}
        record["workloads"][w] = {
            "seeds": list(SPREAD_SEEDS),
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "process_s": [r["process_s"] for r in runs],
            "pass_walls_s": [r["report"]["pass_walls_s"] for r in runs],
            "metrics": per_metric,
            "provenance": runs[0]["report"]["provenance"],
            "inputs": runs[0]["report"]["inputs"],
        }
    write("spread", record)


def layers(bench):
    record = {}
    for w in [x["name"] for x in bench["workloads"]]:
        record[w] = {}
        for seed in LAYER_SEEDS:
            r = run_once(w, seed, bench["run_seconds"], 1)
            share = r["report"]["layer_self_share"]
            record[w][str(seed)] = {
                "correct": r["correct"],
                "failed": r["failed"],
                "dominant_layer": max(share, key=share.get),
                "layer_self_share": share,
                "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                "inputs": r["report"]["inputs"],
                "provenance": r["report"]["provenance"],
            }
            print(w, seed, record[w][str(seed)]["dominant_layer"],
                  {k: round(v, 3) for k, v in share.items() if v > 0.01},
                  file=sys.stderr, flush=True)
    write("layers", record)


def headroom(bench):
    gates = {"criterion_1": 60, "criterion_7": 120}  # the asserts in the tests
    record = {"provenance": run.provenance(None, None), "criteria": {}}
    for crit, gate in gates.items():
        t0 = time.perf_counter()
        res = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "tests/test_acceptance.py",
             "-k", f"test_{crit}_"],
            cwd=run.ROOT, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(run.ROOT / "src")},
        )
        seconds = time.perf_counter() - t0
        record["criteria"][crit] = {"seconds": seconds, "gate_s": gate,
                                    "passed": res.returncode == 0,
                                    "summary": res.stdout.strip().splitlines()[-1]}
        print(crit, round(seconds, 1), "s of", gate, file=sys.stderr, flush=True)
    write("headroom", record)


def write(kind, record):
    BASELINE.mkdir(exist_ok=True)
    path = BASELINE / f"{kind}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("kind", choices=("golden", "spread", "layers", "headroom"))
    args = ap.parse_args()
    if args.kind == "golden":
        return golden()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    {"spread": spread, "layers": layers, "headroom": headroom}[args.kind](bench)


if __name__ == "__main__":
    main()
