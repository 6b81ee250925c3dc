"""Command-line interface.

Subcommands: gen, oracle, cut, verify, nodal, spectrum, check, scan,
suite.  Rationals are serialized as "p/q" strings; sets as sorted id
lists.  All output is deterministic for a fixed argv and seed; the batch
suite processes files in filename order so worker count never changes
the bytes produced.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import dinkelbach, eigen, graph, nodal, oracles, spectrum
from .errors import CutspecError, UsageError
from .functionals import parse_rvector, ratio_objective
from .graph import GENERATORS, Graph, emit_graph, parse_graph, parse_rational

ORACLE_FNS = {
    "cheeger": oracles.cheeger,
    "maxcut": oracles.maxcut,
    "mincut": oracles.mincut,
    "dual_cheeger": oracles.dual_cheeger,
    "modified_dual_cheeger": oracles.modified_dual_cheeger,
    "anti_cheeger": oracles.anti_cheeger,
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_graph(args) -> Graph:
    text = _read(args.graph) if args.graph != "-" else sys.stdin.read()
    measure = _read(args.measure) if getattr(args, "measure", None) else None
    return parse_graph(text, measure)


def _load_degree_measured_graph(args) -> Graph:
    """The graph of a spectral command, whose operator is the normalized
    Laplacian and whose theorems hold for mu = weighted degree only."""
    g = _load_graph(args)
    if any(g.mu[i] != g.degree(i) for i in range(g.n)):
        raise UsageError(
            f"{args.command} needs the degree measure: --measure differs from the weighted degree"
        )
    return g


def _emit(payload, args):
    out = json.dumps(payload, sort_keys=True)
    if not getattr(args, "quiet", False):
        print(out)


def _cert_payload(cert: oracles.CutCertificate) -> dict:
    return {
        "kind": cert.kind,
        "value": str(cert.value),
        "sets": [sorted(s) for s in cert.sets],
    }


def cmd_gen(args):
    fn = GENERATORS[args.name]
    g = fn(args.k) if args.name != "petersen" else fn()
    sys.stdout.write(emit_graph(g))
    return 0


def cmd_oracle(args):
    g = _load_graph(args)
    if args.problem in ORACLE_FNS:
        cert = (
            ORACLE_FNS[args.problem](g, args.cap)
            if args.cap
            else ORACLE_FNS[args.problem](g)
        )
    elif args.problem == "k_way_dual_cheeger":
        cert = oracles.k_way_dual_cheeger(g, args.k)
    elif args.problem == "minmax_k_cut":
        cert = oracles.minmax_k_cut(g, args.k, require_partition=args.partition)
    elif args.problem.startswith("ratio:"):
        cert = oracles.ratio_oracle(args.problem[len("ratio:") :], g, args.cap)
    else:
        raise CutspecError(f"unknown oracle {args.problem!r}")
    _emit(_cert_payload(cert), args)
    return 0


def cmd_cut(args):
    g = _load_graph(args)
    x0 = None
    if args.x0:
        x0 = parse_rvector(g, _read(args.x0))
    inner = {"exact": "exact_enum", "flip": "local_flip"}[args.inner]
    trace = dinkelbach.solve(
        args.problem,
        g,
        x0=x0,
        inner=inner,
        cap=args.cap or 12,
        seed=args.seed,
    )
    payload = {
        "value": str(trace.final.value),
        "certificate": _cert_payload(trace.final),
        "converged": trace.converged,
        "heuristic": inner == "local_flip",
        "trace": [
            {
                "k": it["k"],
                "r": str(it["r"]),
                "inner_value": None
                if it["inner_value"] is None
                else str(it["inner_value"]),
            }
            for it in trace.iterations
        ],
    }
    _emit(payload, args)
    return 0


def cmd_verify(args):
    g = _load_graph(args)
    lam = parse_rational(args.lam)
    x = parse_rvector(g, _read(args.vector))
    rep = eigen.verify(args.problem, g, lam, x, raw_one_lap=args.raw)
    payload = {
        "verdict": rep.verdict,
        "lambda": str(rep.lam),
        "violated": rep.violated,
        "witness": _witness_payload(rep.witness),
    }
    _emit(payload, args)
    return 0


def _witness_payload(w: dict) -> dict:
    out = {}
    for key, val in w.items():
        if isinstance(val, dict):
            out[key] = _witness_payload(val)
        else:
            out[key] = str(val)
    return out


def cmd_nodal(args):
    g = _load_graph(args)
    x = parse_rvector(g, _read(args.vector))
    rep = nodal.analyze(g, x, args.convention)
    payload = {
        "convention": rep.convention,
        "strong_pos": [sorted(s) for s in rep.strong_pos],
        "strong_neg": [sorted(s) for s in rep.strong_neg],
        "support_domains": [sorted(s) for s in rep.support_domains],
        "d_plus": sorted(rep.d_plus),
        "d_minus": sorted(rep.d_minus),
        "d_zero": sorted(rep.d_zero),
        "S": rep.S,
        "S0": rep.S0,
        "Sprime": rep.Sprime,
        "N_nonsingleton": rep.N_nonsingleton,
    }
    _emit(payload, args)
    return 0


def cmd_spectrum(args):
    g = _load_degree_measured_graph(args)
    sp = spectrum.normalized_laplacian_spectrum(g, want_vectors=False)
    _emit(
        {
            "eigenvalues": [round(v, 9) for v in sp.eigenvalues],
            "residual_bound": sp.residual_bound,
        },
        args,
    )
    return 0


# inequality_suite reports kept by each narrower --suite
CHECK_SUITES = {
    "cheeger": lambda name: name == "cheeger",
    "dual": lambda name: name in ("dual_cheeger", "sandwich_k1"),
    "forest": lambda name: name.startswith("forest_sandwich_k"),
}


def cmd_check(args):
    g = _load_degree_measured_graph(args)
    if args.suite == "forest" and not graph.is_forest(g):
        raise UsageError("check --suite forest needs a forest")
    reports = []
    if args.suite == "all":
        reports.extend(spectrum.inequality_suite(g))
    elif args.suite in CHECK_SUITES:
        keep = CHECK_SUITES[args.suite]
        reports.extend(r for r in spectrum.inequality_suite(g) if keep(r.name))
    if args.suite in ("all", "kway") and g.n <= 8:
        reports.extend(spectrum.kway_nodal_reports(g))
    if args.suite in ("all", "multiplicity"):
        reports.append(spectrum.multiplicity_bounds_check(g))
    payload = [
        {
            "name": r.name,
            "holds": r.holds,
            "lhs": round(r.lhs, 9),
            "mid": round(r.mid, 9),
            "rhs": "inf" if r.rhs == float("inf") else round(r.rhs, 9),
            "detail": {k: str(v) for k, v in r.detail.items()},
        }
        for r in reports
    ]
    _emit({"reports": payload, "all_hold": all(r.holds for r in reports)}, args)
    return 0 if all(r.holds for r in reports) else 1


def cmd_scan(args):
    g = _load_graph(args)
    pairs = eigen.spectrum_scan(args.problem, g, cap=args.cap or 12)
    _emit(
        {
            "eigenvalues": [
                {"value": str(v), "witness": _cert_payload(c)} for v, c in pairs
            ]
        },
        args,
    )
    return 0


def _suite_one(path_str: str) -> str:
    path = Path(path_str)
    g = parse_graph(path.read_text())
    row = {"file": path.name, "n": g.n, "edges": len(g.edges)}
    try:
        h = oracles.cheeger(g)
        hmax = oracles.maxcut(g)
        hmin = oracles.mincut(g)
        hanti = oracles.anti_cheeger(g)
        row["h"] = str(h.value)
        row["h_max"] = str(hmax.value)
        row["h_min"] = str(hmin.value)
        row["h_anti"] = str(hanti.value)
        if g.n <= 10:
            row["h_plus"] = str(oracles.dual_cheeger(g).value)
        if g.n <= 12:
            mscan = eigen.spectrum_scan("maxcut_inf", g, cap=12)
            cscan = eigen.spectrum_scan("cheeger_new", g, cap=12)
            row["scan_max_is_hmax"] = mscan[-1][0] == hmax.value
            row["scan_min_nonzero_is_h"] = (
                min(v for v, _ in cscan if v != 0) == h.value
            )
        if g.n <= 8:
            tr = dinkelbach.solve("cheeger_tv", g, cap=8)
            row["dinkelbach_cheeger_ok"] = (
                tr.converged and tr.final.value == h.value
            )
            tr = dinkelbach.solve("maxcut_ratio", g, cap=8)
            row["dinkelbach_maxcut_ok"] = (
                tr.converged and tr.final.value == hmax.value
            )
        if g.n <= 12:
            reps = spectrum.inequality_suite(g)
            row["inequalities_hold"] = all(r.holds for r in reps)
    except CutspecError as exc:
        row["error"] = str(exc)
    return json.dumps(row, sort_keys=True)


def cmd_suite(args):
    files = sorted(str(p) for p in Path(args.dir).glob("*.txt"))
    if args.workers > 1:
        import multiprocessing  # only the parallel path pays for the import

        with multiprocessing.Pool(args.workers) as pool:
            lines = pool.map(_suite_one, files)
    else:
        lines = [_suite_one(f) for f in files]
    for line in lines:
        print(line)
    ok = all('"error"' not in line for line in lines)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cutspec")
    ap.add_argument("--format", choices=["json"], default="json")
    ap.add_argument("--cap", type=int, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quiet", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a generated graph as an edge list")
    p.add_argument("name", choices=sorted(GENERATORS))
    p.add_argument("k", type=int, nargs="?", default=4)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("oracle", help="exact brute-force cut constants")
    p.add_argument("problem")
    p.add_argument("--graph", required=True)
    p.add_argument("--measure")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--partition", action="store_true")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("cut", help="Dinkelbach ratio solver")
    p.add_argument("problem", choices=sorted(dinkelbach.PROBLEMS))
    p.add_argument("--graph", required=True)
    p.add_argument("--measure")
    p.add_argument("--inner", choices=["exact", "flip"], default="exact")
    p.add_argument("--x0")
    p.set_defaults(fn=cmd_cut)

    p = sub.add_parser("verify", help="exact eigenpair verification")
    p.add_argument("problem", choices=sorted(eigen.EIGENPROBLEM_IDS))
    p.add_argument("--graph", required=True)
    p.add_argument("--measure")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--raw", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("nodal", help="nodal domain statistics")
    p.add_argument("--graph", required=True)
    p.add_argument("--measure")
    p.add_argument("--vector", required=True)
    p.add_argument(
        "--convention",
        choices=["sign_based", "support_based", "sup_norm_based"],
        default="sign_based",
    )
    p.set_defaults(fn=cmd_nodal)

    p = sub.add_parser("spectrum", help="normalized Laplacian eigenvalues")
    p.add_argument("--graph", required=True)
    p.add_argument("--measure")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("check", help="inequality suite")
    p.add_argument("--graph", required=True)
    p.add_argument("--measure")
    p.add_argument(
        "--suite",
        choices=["all", "cheeger", "dual", "kway", "forest", "multiplicity"],
        default="all",
    )
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("scan", help="indicator-realized eigenvalues")
    p.add_argument("problem", choices=sorted(eigen.EIGENPROBLEM_IDS))
    p.add_argument("--graph", required=True)
    p.add_argument("--measure")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("suite", help="batch run over a corpus directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_suite)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process: argparse leaves a few hundred objects in
    # reference cycles per parser built, which repeated in-process main()
    # calls would pile up until a full garbage collection.  parse_args does
    # not modify the parser.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except CutspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
