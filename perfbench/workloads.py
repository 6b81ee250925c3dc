"""Seeded inputs, fixed job lists and output digests of the workloads.

Every seeded input comes from a finite pool: slot ``s`` of a workload holds
``POOL`` instances, instance ``i`` is generated from the string seed
``"<workload>/<s>/<i>"``, and ``--seed`` only chooses instances and their
order.  Every instance therefore has a golden digest in ``golden.json``,
taken once from the unchanged program, while a run on a new seed still sees
inputs that were not used while a change was written.  Slots fix the
properties that set the cost of a job (problem, vertex count, edge count,
weights, measure), and the instances of a slot relabel one base input, so
runs on different seeds do about the same work.

Inputs are written by this module, not by the program: a change to the
program's own writers cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

POOL = 8
WEIGHTS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(2), Fraction(5, 3))
MEASURES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2))


@dataclass
class Job:
    key: str  # golden-digest key: slot and pool instance, never the seed
    props: dict  # n, weighted, measure, forest
    argv: list = field(default_factory=list)  # cli_requests
    family: str = ""  # ternary_scan
    graph: object = None  # ternary_scan, parsed at set-up
    path: str = ""  # suite_corpus


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- graphs -------------------------------------------------------------------


def random_graph(rng: random.Random, n: int, m: int, weighted: bool, forest=False):
    """Connected graph on n vertices: a random recursive tree plus m - n + 1
    random extra edges (none for a forest), relabelled at random.  Returns
    (file text, edge list with Fraction weights)."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    if not forest:
        rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
        edges.update(rng.sample(rest, m - (n - 1)))
    perm = rng.sample(range(n), n)
    relabelled = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in sorted(edges)
    )
    out = [(u, v, rng.choice(WEIGHTS) if weighted else Fraction(1)) for u, v in relabelled]
    return f"n {n}\n" + "".join(f"{u} {v} {w}\n" for u, v, w in out), out


def relabel_text(text: str, perm) -> str:
    """Apply a vertex permutation to a graph, vector or measure file."""
    head, rows = [], []
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "n":
            head.append(line + "\n")
        elif len(parts) == 3:
            u, v = perm[int(parts[0])], perm[int(parts[1])]
            rows.append((min(u, v), max(u, v), parts[2]))
        else:
            rows.append((perm[int(parts[0])], parts[1]))
    return "".join(head) + "".join(" ".join(map(str, r)) + "\n" for r in sorted(rows))


def permutations(workload, name, n):
    """The vertex permutations that make the pool of a slot.

    Every instance of a slot relabels one base input.  Between distinct
    random graphs of one size the work of a job differs up to 3x (simplex
    calls in a scan, Dinkelbach steps, median candidates in verify); between
    relabellings it differs less, though up to 1.6x for some cli requests
    (Dinkelbach cuts, spectra, n = 12 oracles), while the enumeration order,
    the tie-breaks and the certificates still change."""
    for i in range(POOL):
        yield i, random.Random(f"{workload}/{name}/{i}").sample(range(n), n)


def relabelled_pool(workload, name, n, m, weighted, forest=False):
    """(instance index, file text) of the relabellings of one base graph."""
    text, _ = random_graph(random.Random(f"{workload}/{name}"), n, m, weighted, forest)
    for i, perm in permutations(workload, name, n):
        yield i, relabel_text(text, perm)


def _degrees(n, edges):
    deg = [Fraction(0)] * n
    for u, v, w in edges:
        deg[u] += w
        deg[v] += w
    return deg


def _boundary(edges, a):
    return sum((w for u, v, w in edges if (u in a) != (v in a)), Fraction(0))


def _vector_text(x) -> str:
    return "".join(f"{i} {v}\n" for i, v in enumerate(x) if v != 0)


# -- suite_corpus ---------------------------------------------------------------

# The shipped corpus files with n <= 7.  The n = 8 and n = 10 files (tree8,
# random8a, random8b, petersen, random10) take 31 of the 42 s of a full
# corpus pass on a 2-core host, which leaves no room for a median over passes
# in one run.  The k-way oracle of tree8 is still exercised by path6, star5
# and the seeded forest, and the Dinkelbach solves by every file.
SUITE_FILES = (
    "complete3.txt", "complete4.txt", "cycle4.txt", "cycle5.txt", "path4.txt",
    "path6.txt", "star5.txt", "star_triangle_2.txt", "star_triangle_3.txt",
)
# (slot, n, m, weighted, forest)
SUITE_SLOTS = (
    ("forest5", 5, 4, False, True),
    ("weighted6", 6, 8, True, False),
    ("unit6", 6, 9, False, False),
)


def suite_pool(slot):
    name, n, m, weighted, forest = slot
    props = {"n": n, "weighted": weighted, "measure": False, "forest": forest}
    for i, text in relabelled_pool("suite_corpus", name, n, m, weighted, forest):
        yield f"{name}_{i}.txt", text, props


def build_suite(seed: int, root: Path, work: Path, pool_all=False):
    d = work / "suite"
    d.mkdir(parents=True)
    jobs = []
    for fname in SUITE_FILES:
        text = (root / "corpus" / fname).read_text()
        (d / fname).write_text(text)
        jobs.append(Job(key=fname, props=_text_props(text), path=str(d / fname)))
    rng = random.Random(seed)
    for slot in SUITE_SLOTS:
        pool = list(suite_pool(slot))
        chosen = pool if pool_all else [pool[rng.randrange(POOL)]]
        for fname, text, props in chosen:
            (d / fname).write_text(text)
            jobs.append(Job(key=fname, props=props, path=str(d / fname)))
    jobs.sort(key=lambda j: j.key)  # the suite runs files in name order
    return jobs, d


def _text_props(text: str) -> dict:
    edges, n = [], 0
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "n":
            n = int(parts[1])
            continue
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v, Fraction(parts[2]) if len(parts) > 2 else Fraction(1)))
        n = max(n, u + 1, v + 1)
    return {
        "n": n,
        "weighted": any(w != 1 for _, _, w in edges),
        "measure": False,
        "forest": len({(u, v) for u, v, _ in edges}) == n - 1,  # corpus graphs are connected
    }


SUITE_ROW_HOOK = "_suite_one"  # cli's per-file function; timing only


def suite_rows(stdout: bytes) -> dict:
    """File name -> output bytes of each JSON row that `cutspec suite`
    printed; a row's output is its line with the newline."""
    rows = {}
    for line in stdout.splitlines():
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if isinstance(row, dict) and "file" in row:
            rows[row["file"]] = line + b"\n"
    return rows


def run_suite_pass(cutspec, jobs, suite_dir, on_job):
    """One `cutspec suite` call over the batch; a job is one file row.
    Returns one (seconds, output bytes or None, error) per job.

    A row's output is taken from the call's stdout, so correctness rests on
    `cli.main` alone.  A row's latency comes from wrapping the private
    per-file function of cli (SUITE_ROW_HOOK) while the call runs; a row it
    did not time, because the function is gone or no longer called, gets an
    equal share of the call's time."""
    cli = cutspec.cli
    inner = getattr(cli, SUITE_ROW_HOOK, None)
    seconds = {}  # file name -> seconds; file names are unique in a batch

    def timed(path_str):
        key = Path(path_str).name
        on_job(key)
        t0 = time.perf_counter()
        row = inner(path_str)
        seconds[key] = time.perf_counter() - t0
        return row

    buf = io.StringIO()
    error = None
    if inner is not None:
        setattr(cli, SUITE_ROW_HOOK, timed)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            cli.main(["suite", "--dir", str(suite_dir), "--workers", "1"])
    except Exception as exc:  # noqa: BLE001 - a crash fails the jobs it cut off
        error = repr(exc)
    finally:
        if inner is not None:
            setattr(cli, SUITE_ROW_HOOK, inner)
    share = (time.perf_counter() - t0) / len(jobs)
    rows = suite_rows(buf.getvalue().encode())
    return [(seconds.get(j.key, share), rows.get(j.key),
             None if j.key in rows else error or "no row") for j in jobs]


# -- ternary_scan ---------------------------------------------------------------

TERNARY_FAMILIES = ("signless", "one_lap", "hat_signless")
# (slot, n, m, weighted, families).  At n = 6 a one_lap or hat_signless scan
# takes 1.5-2 s; only the signless family runs there, so that a pass stays
# short enough for a median over several passes in one run.
TERNARY_SLOTS = (
    ("unit5", 5, 7, False, TERNARY_FAMILIES),
    ("sparse5", 5, 6, False, TERNARY_FAMILIES),
    ("weighted5", 5, 7, True, TERNARY_FAMILIES),
    ("unit6", 6, 7, False, ("signless",)),
    ("weighted6", 6, 7, True, ("signless",)),
)


def ternary_pool(slot):
    name, n, m, weighted, _ = slot
    props = {"n": n, "weighted": weighted, "measure": False, "forest": False}
    for i, text in relabelled_pool("ternary_scan", name, n, m, weighted):
        yield f"{name}/{i}", text, props


def build_ternary(seed: int, cutspec, pool_all=False):
    rng = random.Random(seed)
    jobs = []
    for slot in TERNARY_SLOTS:
        pool = list(ternary_pool(slot))
        chosen = pool if pool_all else [pool[rng.randrange(POOL)]]
        for key, text, props in chosen:
            g = cutspec.graph.parse_graph(text)
            for fam in slot[4]:
                jobs.append(Job(key=f"{key}/{fam}", props=props, family=fam, graph=g))
    rng.shuffle(jobs)
    return jobs


def scan_bytes(pairs) -> bytes:
    """Canonical JSON of a scan: every eigenvalue with its certificate."""
    return json.dumps(
        [[str(v), c.kind, str(c.value), [sorted(s) for s in c.sets]] for v, c in pairs],
        separators=(",", ":"),
    ).encode()


def run_ternary_pass(cutspec, jobs, on_job):
    results = []
    for j in jobs:
        on_job(j.key)
        t0 = time.perf_counter()
        try:
            pairs = cutspec.eigen.spectrum_scan(j.family, j.graph)
        except Exception as exc:  # noqa: BLE001 - counted as a failed job
            results.append((time.perf_counter() - t0, None, repr(exc)))
            continue
        dt = time.perf_counter() - t0
        results.append((dt, scan_bytes(pairs), None))
    return results


# -- cli_requests ---------------------------------------------------------------
#
# A builder takes the instance's Random and returns (argv, files, props);
# "{name}" in argv is replaced by the path of files[name] at set-up.  The
# problem, n, m, weights and measure of a request are fixed by its slot: the
# cost of an oracle, Dinkelbach or verify call differs up to 5x between
# problems, and a seed that drew more of the slow ones would shift the
# latency percentiles.


def _graph_req(rng, n, m=None, weighted=False, measure=False):
    m = 3 * n // 2 if m is None else m
    text, edges = random_graph(rng, n, m, weighted)
    files = {"graph": text}
    extra = []
    if measure:
        files["measure"] = "".join(f"{i} {rng.choice(MEASURES)}\n" for i in range(n))
        extra = ["--measure", "{measure}"]
    props = {"n": n, "weighted": weighted, "measure": measure, "forest": False}
    return ["--graph", "{graph}", *extra], files, props, edges


def oracle(problem, n, extra=(), weighted=False, measure=False):
    def build(rng):
        g, files, props, _ = _graph_req(rng, n, weighted=weighted, measure=measure)
        return ["oracle", problem, *g, *extra], files, props
    return build


def cut(problem, n, inner, weighted=False):
    def build(rng):
        g, files, props, _ = _graph_req(rng, n, weighted=weighted)
        return ["cut", problem, *g, "--inner", inner], files, props
    return build


def verify(problem, n, wrong, weighted=False):
    """Constructor eigenpair (1_A - 1_{V-A}, lambda) of a sup-norm problem;
    with ``wrong`` the eigenvalue is off by 1/7."""
    def build(rng):
        g, files, props, edges = _graph_req(rng, n, weighted=weighted)
        deg = _degrees(n, edges)
        a = set(rng.sample(range(n), rng.randint(1, n - 1)))
        bnd = _boundary(edges, a)
        va = sum((deg[i] for i in a), Fraction(0))
        vc = sum(deg) - va
        lam = {
            "maxcut_inf": 2 * bnd / (va + vc),
            "cheeger_new": bnd / min(va, vc),
            "anti_cheeger": bnd / max(va, vc),
        }[problem]
        if wrong:
            lam += Fraction(1, 7)
        files["vector"] = _vector_text([1 if i in a else -1 for i in range(n)])
        return ["verify", problem, *g, "--lambda", str(lam), "--vector", "{vector}"], files, props
    return build


def nodal(n, convention, weighted=False):
    def build(rng):
        g, files, props, _ = _graph_req(rng, n, weighted=weighted)
        x = [rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(n)]
        x[rng.randrange(n)] = 1
        files["vector"] = _vector_text(x)
        return ["nodal", *g, "--vector", "{vector}", "--convention", convention], files, props
    return build


def spectrum(n):
    def build(rng):
        g, files, props, _ = _graph_req(rng, n, m=2 * n)
        return ["spectrum", *g], files, props
    return build


def check_multiplicity(n, weighted=False):
    def build(rng):
        g, files, props, _ = _graph_req(rng, n, weighted=weighted)
        return ["check", "--suite", "multiplicity", *g], files, props
    return build


def scan(problem, n):
    def build(rng):
        g, files, props, _ = _graph_req(rng, n)
        return ["scan", problem, *g], files, props
    return build


def gen(rng):
    name = rng.choice(("path", "cycle", "complete", "star", "star_triangle", "petersen"))
    argv = ["gen", name] + ([] if name == "petersen" else [str(rng.randint(3, 9))])
    return argv, {}, {"n": None, "weighted": False, "measure": False, "forest": False}


# One slot per request kind, problem and size; every slot sends CLI_PER_SLOT
# requests a pass, so no kind is weighted by a guess at how often users send
# it.  Sizes span the ranges the benchmark's definition names: subset
# oracles at n 8-12, pair oracles at n 7-8, k-way at n 5, min-max at n 5-6,
# exact cuts at n 5-6 and flip at n 10, verify at n 6-8 (accepted eigenpairs
# in twice as many slots as wrong ones), spectra at n 16-64 and sup-norm
# scans at n 8-10.
# Three requests per slot, drawn without repeats from the slot's pool, make
# 150 a pass (a 90th percentile needs 100) and average out the relabellings'
# cost differences, which with two per slot moved the percentiles by a tenth
# between seeds.
CLI_PER_SLOT = 3
CLI_SLOTS = (
    ("oracle_cheeger_n8", oracle("cheeger", 8)),
    ("oracle_maxcut_n8", oracle("maxcut", 8, weighted=True)),
    ("oracle_mincut_n8", oracle("mincut", 8)),
    ("oracle_anti_cheeger_n8", oracle("anti_cheeger", 8, measure=True)),
    ("oracle_cheeger_n10", oracle("cheeger", 10, measure=True)),
    ("oracle_maxcut_n10", oracle("maxcut", 10)),
    ("oracle_mincut_n10", oracle("mincut", 10, weighted=True)),
    ("oracle_anti_cheeger_n10", oracle("anti_cheeger", 10)),
    ("oracle_cheeger_n12", oracle("cheeger", 12)),
    ("oracle_maxcut_n12", oracle("maxcut", 12)),
    ("oracle_mincut_n12", oracle("mincut", 12, measure=True)),
    ("oracle_anti_cheeger_n12", oracle("anti_cheeger", 12, weighted=True)),
    ("oracle_dual_cheeger_n7", oracle("dual_cheeger", 7, weighted=True)),
    ("oracle_modified_dual_cheeger_n7", oracle("modified_dual_cheeger", 7)),
    ("oracle_dual_cheeger_n8", oracle("dual_cheeger", 8)),
    ("oracle_modified_dual_cheeger_n8", oracle("modified_dual_cheeger", 8, measure=True)),
    ("oracle_kway_n5", oracle("k_way_dual_cheeger", 5, ("--k", "2"))),
    ("oracle_minmax_n5", oracle("minmax_k_cut", 5, ("--k", "2"))),
    ("oracle_minmax_partition_n6", oracle("minmax_k_cut", 6, ("--k", "2", "--partition"))),
    ("cut_cheeger_tv_n5", cut("cheeger_tv", 5, "exact")),
    ("cut_maxcut_ratio_n5", cut("maxcut_ratio", 5, "exact", weighted=True)),
    ("cut_dual_n5", cut("dual", 5, "exact")),
    ("cut_mdual_n6", cut("mdual", 6, "exact")),
    ("cut_anti_n5", cut("anti", 5, "exact")),
    ("cut_flip_dual_n10", cut("dual", 10, "flip")),
    ("verify_maxcut_inf_n6", verify("maxcut_inf", 6, wrong=False)),
    ("verify_cheeger_new_n6", verify("cheeger_new", 6, wrong=False, weighted=True)),
    ("verify_anti_cheeger_n6", verify("anti_cheeger", 6, wrong=False)),
    ("verify_maxcut_inf_n8", verify("maxcut_inf", 8, wrong=False, weighted=True)),
    ("verify_cheeger_new_n8", verify("cheeger_new", 8, wrong=False)),
    ("verify_anti_cheeger_n8", verify("anti_cheeger", 8, wrong=False)),
    ("verify_wrong_maxcut_inf_n7", verify("maxcut_inf", 7, wrong=True)),
    ("verify_wrong_cheeger_new_n7", verify("cheeger_new", 7, wrong=True)),
    ("verify_wrong_anti_cheeger_n7", verify("anti_cheeger", 7, wrong=True)),
    ("nodal_sign_n10", nodal(10, "sign_based", weighted=True)),
    ("nodal_support_n10", nodal(10, "support_based")),
    ("nodal_sup_norm_n10", nodal(10, "sup_norm_based")),
    ("spectrum_n16", spectrum(16)),
    ("spectrum_n24", spectrum(24)),
    ("spectrum_n32", spectrum(32)),
    ("spectrum_n48", spectrum(48)),
    ("spectrum_n64", spectrum(64)),
    ("check_multiplicity_n10", check_multiplicity(10, weighted=True)),
    ("scan_maxcut_inf_n8", scan("maxcut_inf", 8)),
    ("scan_cheeger_new_n8", scan("cheeger_new", 8)),
    ("scan_anti_cheeger_n8", scan("anti_cheeger", 8)),
    ("scan_maxcut_inf_n10", scan("maxcut_inf", 10)),
    ("scan_cheeger_new_n10", scan("cheeger_new", 10)),
    ("scan_anti_cheeger_n10", scan("anti_cheeger", 10)),
    ("gen", gen),
)


def cli_pool(slot):
    name, builder = slot
    argv, files, props = builder(random.Random(f"cli_requests/{name}"))
    if props["n"] is None:  # gen reads no files
        for i in range(POOL):
            yield f"{name}/{i}", *builder(random.Random(f"cli_requests/{name}/{i}"))
        return
    for i, perm in permutations("cli_requests", name, props["n"]):
        relabelled = {k: relabel_text(text, perm) for k, text in files.items()}
        yield f"{name}/{i}", argv, relabelled, props


def build_cli(seed: int, work: Path, pool_all=False):
    d = work / "cli"
    d.mkdir(parents=True)
    rng = random.Random(seed)
    jobs = []
    for slot in CLI_SLOTS:
        pool = list(cli_pool(slot))
        chosen = pool if pool_all else rng.sample(pool, CLI_PER_SLOT)
        for key, argv, files, props in chosen:
            paths = {}
            for fname, text in files.items():
                p = d / f"{key.replace('/', '_')}_{fname}.txt"
                p.write_text(text)
                paths["{" + fname + "}"] = str(p)
            jobs.append(Job(key=key, props=props, argv=[paths.get(a, a) for a in argv]))
    rng.shuffle(jobs)
    return jobs


def run_cli_pass(cutspec, jobs, on_job):
    """Closed loop, one client: each request starts when the last returned."""
    results = []
    for j in jobs:
        on_job(j.key)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cutspec.cli.main(j.argv)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - a failed job
            results.append((time.perf_counter() - t0, None, repr(exc)))
            continue
        dt = time.perf_counter() - t0
        results.append((dt, f"exit {rc}\n{buf.getvalue()}".encode(), None))
    return results


# -- registry -------------------------------------------------------------------

WORKLOADS = ("suite_corpus", "ternary_scan", "cli_requests")


class Inputs:
    """The built inputs of one workload run; ``run_pass`` runs each job once."""

    def __init__(self, workload, seed, root: Path, work: Path, cutspec, pool_all=False):
        self.workload = workload
        self.suite_dir = None
        if workload == "suite_corpus":
            self.jobs, self.suite_dir = build_suite(seed, root, work, pool_all)
        elif workload == "ternary_scan":
            self.jobs = build_ternary(seed, cutspec, pool_all)
        elif workload == "cli_requests":
            self.jobs = build_cli(seed, work, pool_all)
        else:
            raise ValueError(f"unknown workload {workload!r}")

    def run_pass(self, cutspec, on_job=lambda key: None):
        if self.workload == "suite_corpus":
            return run_suite_pass(cutspec, self.jobs, self.suite_dir, on_job)
        if self.workload == "ternary_scan":
            return run_ternary_pass(cutspec, self.jobs, on_job)
        return run_cli_pass(cutspec, self.jobs, on_job)


def make_workdir(root: Path, tag: str) -> Path:
    work = root / ".bench_runs" / tag
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    return work
