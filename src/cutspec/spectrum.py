"""Normalized Laplacian spectrum and the inequality suite.

Floating point is confined to this module.  Eigenvalues come from a
cyclic Jacobi sweep with a deterministic rotation order; comparisons
against exact rational cut constants convert the rational to float and
use an absolute tolerance of 1e-9.

numpy is imported on the first eigensolver call, inside the two functions
that use it, not at module import: `import cutspec` and every exact
command (cut constants, eigenpair verdicts, nodal domains) start without
loading it.

Each rotation changes only rows and columns p and q, and it changes them
through numpy's BLAS matrix product with a 2x2 rotation.  The BLAS kernel computes
each rotated entry as a two-term fused multiply-add chain.  The dense
product rot.T @ a @ rot computes the same chain for each entry (its other
terms are exact zeros and 1·a_ij), so the spectrum is bit for bit the
dense rotation's wherever the kernel treats all columns alike.  An
elementwise update such as c*x - s*y rounds twice where the fused
multiply-add rounds once, and differs in the last bits.

The spectrum therefore depends on the BLAS kernel numpy runs on.  Some
kernels compute the dense product's edge columns differently: OpenBLAS
0.3.31 on an AVX-512 CPU sums the two products of each of the last n mod 8
columns without a fused multiply-add when n >= 17 and n mod 8 is 1 to 4
(and p, q differ mod 8).  At those n the dense rotation and this one
differ in the last bits; `cutspec spectrum` rounds eigenvalues to nine
places, so there it prints a different `residual_bound` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from .errors import BadK, IsolatedVertex, TooLarge
from .graph import Graph, graph_params, is_forest, vol, weighted_degrees
from . import oracles
from .eigen import spectrum_scan
from .functionals import indicator
from .nodal import analyze

if TYPE_CHECKING:
    import numpy as np

TOL = 1e-9
JACOBI_TARGET = 1e-12
SIZE_CAP = 64


@dataclass
class Spectrum:
    eigenvalues: List[float]
    eigenvectors: Optional[np.ndarray]
    residual_bound: float


@dataclass
class InequalityReport:
    name: str
    lhs: float
    mid: float
    rhs: float
    holds: bool
    slack: float
    detail: dict = field(default_factory=dict)


def _report(name, lhs, mid, rhs, detail=None) -> InequalityReport:
    holds = lhs <= mid + TOL and mid <= rhs + TOL
    slack = min(mid - lhs, rhs - mid)
    return InequalityReport(
        name=name,
        lhs=float(lhs),
        mid=float(mid),
        rhs=float(rhs),
        holds=holds,
        slack=float(slack),
        detail=detail or {},
    )


def _jacobi(a: np.ndarray):
    """Cyclic Jacobi rotations until the off-diagonal norm is negligible."""
    import numpy as np

    n = a.shape[0]
    # a above v: one product rotates the columns of both.
    av = np.empty((2 * n, n))
    av[:n] = a
    av[n:] = np.eye(n)
    a, v = av[:n], av[n:]
    item, dot = a.item, np.dot
    r2 = np.empty((2, 2))
    r2t = r2.T
    tiny = JACOBI_TARGET / (n * n)
    for _ in range(100):
        off = np.sqrt(np.sum((a - np.diag(np.diag(a))) ** 2))
        if off < JACOBI_TARGET:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = item(p, q)
                if abs(apq) < tiny:
                    continue
                theta = (item(q, q) - item(p, p)) / (2 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta**2 + 1)
                )
                if theta == 0:
                    t = 1.0
                c = 1 / math.sqrt(t**2 + 1)
                s = t * c
                r2[0, 0] = r2[1, 1] = c
                r2[0, 1] = s
                r2[1, 0] = -s
                # Both updates must stay BLAS matrix products: written out
                # elementwise they round twice where the BLAS kernel uses
                # one fused multiply-add, and the spectrum changes in the
                # last bits.  np.dot hands every operand to BLAS, copying
                # a strided one to a contiguous block first.
                rows = a[p : q + 1 : q - p]
                rows[...] = dot(r2t, rows)
                cols = av[:, p : q + 1 : q - p]
                cols[...] = dot(cols, r2)
    return a, v


def normalized_laplacian_spectrum(g: Graph, want_vectors: bool = True) -> Spectrum:
    """Eigen decomposition of I - D^{-1/2} W D^{-1/2}."""
    import numpy as np

    if g.n > SIZE_CAP:
        raise TooLarge(f"dense eigensolver capped at n={SIZE_CAP}")
    deg = weighted_degrees(g.n, g.edges)
    w = np.zeros((g.n, g.n))
    for u, vtx, wt in g.edges:
        w[u, vtx] = w[vtx, u] = float(wt)
    if any(d == 0 for d in deg):
        raise IsolatedVertex("normalized Laplacian needs positive degrees")
    dinv = np.diag([1 / np.sqrt(float(d)) for d in deg])
    lap = np.eye(g.n) - dinv @ w @ dinv
    diag, vecs = _jacobi(lap)
    order = np.argsort(np.diag(diag), kind="stable")
    vals = np.diag(diag)[order]
    vecs = vecs[:, order]
    residual = float(
        np.max(np.abs(lap @ vecs - vecs * vals[np.newaxis, :]))
    )
    return Spectrum(
        eigenvalues=[float(x) for x in vals],
        eigenvectors=vecs if want_vectors else None,
        residual_bound=residual,
    )


def inequality_suite(g: Graph) -> List[InequalityReport]:
    """Every spectral-vs-combinatorial inequality testable at g's size."""
    spec = normalized_laplacian_spectrum(g, want_vectors=False)
    lam = spec.eigenvalues
    volV = float(vol(g, range(g.n)))
    out = []

    h = oracles.cheeger(g).value
    out.append(
        _report(
            "cheeger",
            float(h) ** 2 / 2,
            lam[1],
            2 * float(h),
            {"h": str(h)},
        )
    )

    def sandwich(name, k, hk, detail):
        # c^2/2 <= 2 - lambda_{n-k+1} <= 2c with c = 1 - h_k+
        c = 1 - float(hk)
        return _report(name, c**2 / 2, 2 - lam[g.n - k], 2 * c, detail)

    hplus = oracles.dual_cheeger(g).value
    out.append(sandwich("dual_cheeger", 1, hplus, {"h_plus": str(hplus)}))

    hmax = oracles.maxcut(g).value
    out.append(
        _report(
            "delorme_poljak",
            float(hmax),
            volV / 4 * lam[-1],
            float("inf"),
            {"h_max": str(hmax)},
        )
    )

    # forest mode: c_k = 1 - h_k+ is exact, so the two-sided bound applies
    if is_forest(g):
        for k in (1, 2, 3):  # up to the first k the oracle refuses
            try:
                hk = oracles.k_way_dual_cheeger(g, k).value
            except (BadK, TooLarge):
                break
            out.append(
                sandwich(f"forest_sandwich_k{k}", k, hk, {"h_k_plus": str(hk), "k": k})
            )
    else:
        # k = 1 is exact on every graph
        out.append(sandwich("sandwich_k1", 1, hplus, {"h_plus": str(hplus)}))
    return out


def kway_nodal_reports(g: Graph) -> List[InequalityReport]:
    """Lower half of the k-way bound on scanned ternary eigenpairs: an
    eigenvalue c whose eigenvector has m support domains obeys
    1 - h_m+ <= c, reported for each m the k-way oracle accepts and decided
    exactly.  The oracle runs once per distinct m."""
    out = []
    h_plus = {}  # m -> h_m+, or None where the k-way oracle refuses m
    for value, cert in spectrum_scan("signless", g):
        x = indicator(g, *cert.sets)
        m = len(analyze(g, x, "support_based").support_domains)
        if m not in h_plus:
            try:
                h_plus[m] = oracles.k_way_dual_cheeger(g, m).value
            except (BadK, TooLarge):
                h_plus[m] = None
        hm = h_plus[m]
        if hm is None:
            continue
        rep = _report(
            f"kway_lower_m{m}",
            float(1 - hm),
            float(value),
            float("inf"),
            {"m": m, "eigenvalue": str(value)},
        )
        # both sides are rationals: decided exactly, the floats only shown
        rep.holds = 1 - hm <= value
        out.append(rep)
    return out


def multiplicity_bounds_check(g: Graph) -> InequalityReport:
    """alpha <= edge cover number, with equality on connected bipartite
    graphs; reports the triple (alpha, eta, bipartite)."""
    params = graph_params(g)
    alpha = params["alpha"]
    eta = params["edge_cover"]
    if eta is None:
        raise IsolatedVertex("edge cover undefined with isolated vertices")
    bip = params["is_bipartite"]
    rep = _report(
        "multiplicity_bounds",
        alpha,
        eta,
        float("inf"),
        {"alpha": alpha, "eta": eta, "bipartite": bip},
    )
    if bip:
        rep.holds = rep.holds and alpha == eta
    return rep
