"""Nodal domain statistics for candidate eigenvectors.

Three conventions:
  sign_based      components of {x > 0} and {x < 0}
  support_based   components of {x != 0}
  sup_norm_based  components of the extreme-value sets D+, D-, D0

Connectivity always refers to edges of positive weight within the set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ZeroVector
from .functionals import RVector, sup_norm
from .graph import Graph, connected_components


@dataclass
class NodalReport:
    convention: str
    strong_pos: list
    strong_neg: list
    support_domains: list
    d_plus: frozenset
    d_minus: frozenset
    d_zero: frozenset
    pm_domains: list  # components of D+ union D-
    null_domains: list  # components of D0
    S: int
    S0: int
    Sprime: int
    N_nonsingleton: int


def _sup_norm_classes(x: RVector):
    """||x||_inf and the extreme-value sets D+, D- and D0 of x."""
    m = sup_norm(x)
    d_plus = frozenset(i for i, t in enumerate(x) if t == m)
    d_minus = frozenset(i for i, t in enumerate(x) if t == -m)
    d_zero = frozenset(range(len(x))) - d_plus - d_minus
    return m, d_plus, d_minus, d_zero


def analyze(g: Graph, x: RVector, convention: str = "sign_based") -> NodalReport:
    if all(t == 0 for t in x):
        raise ZeroVector("nodal analysis of the zero vector")
    pos = frozenset(i for i, t in enumerate(x) if t > 0)
    neg = frozenset(i for i, t in enumerate(x) if t < 0)
    strong_pos = connected_components(g, pos)
    strong_neg = connected_components(g, neg)
    support_domains = connected_components(g, pos | neg)
    _, d_plus, d_minus, d_zero = _sup_norm_classes(x)
    pm_domains = connected_components(g, d_plus | d_minus)
    null_domains = connected_components(g, d_zero)
    n_nonsingleton = sum(1 for c in null_domains if len(c) >= 2)
    if convention == "sign_based":
        s = len(strong_pos) + len(strong_neg)
        s0 = len(connected_components(g, g.vertices() - pos - neg))
    elif convention == "support_based":
        s = len(support_domains)
        s0 = len(connected_components(g, g.vertices() - pos - neg))
    elif convention == "sup_norm_based":
        s = len(connected_components(g, d_plus)) + len(
            connected_components(g, d_minus)
        )
        s0 = len(null_domains)
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return NodalReport(
        convention=convention,
        strong_pos=strong_pos,
        strong_neg=strong_neg,
        support_domains=support_domains,
        d_plus=d_plus,
        d_minus=d_minus,
        d_zero=d_zero,
        pm_domains=pm_domains,
        null_domains=null_domains,
        S=s,
        S0=s0,
        Sprime=len(pm_domains),
        N_nonsingleton=n_nonsingleton,
    )
