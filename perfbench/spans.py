"""Layer spans recorded from outside the program.

One module of ``cutspec`` is one layer.  ``install`` replaces every public
function of each layer module by a wrapper that records a span, and it does
so at every binding inside the package: module attributes bound with
``from ... import ...`` and values of module-level dicts such as
``cli.ORACLE_FNS``.  The spans therefore follow the real call graph.

A span is ``[name, start, end, parent, job, note]``: ``parent`` is the index
of the enclosing span in the same list (-1 at the top), ``job`` the job id
set by the harness, and ``note`` a number taken from the result (a verdict,
an iteration count, a residual) for the functions listed in ``NOTES``.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = (
    "cli",
    "graph",
    "functionals",
    "oracles",
    "simplex",
    "eigen",
    "nodal",
    "dinkelbach",
    "spectrum",
)

# Helpers called once per edge, vertex or candidate vector inside the
# exhaustive loops.  A span there costs about as much as the work it would
# measure, so they stay unwrapped and their time counts to the caller.
SKIP = {
    "graph": {"vol", "boundary", "cut_weight", "intra_weight", "parse_rational",
              "format_rational"},
    "functionals": {"tv", "tv_plus", "sup_norm", "l1_mu_norm", "median_distance",
                    "median_interval", "indicator"},
}

NOTES = {
    "simplex.find_feasible": lambda r: int(r is not None),
    "eigen.verify": lambda r: int(r.verdict),
    "dinkelbach.solve": lambda r: len(r.iterations),
    "spectrum.normalized_laplacian_spectrum": lambda r: r.residual_bound,
}

NAME, START, END, PARENT, JOB, NOTE = range(6)


class Recorder:
    """Holds the spans of one traced pass in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    def take(self) -> list:
        """Return the spans recorded so far and start an empty list."""
        out = self.spans[:]
        self.spans.clear()
        return out

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        return wrapper


def install(rec: Recorder, package, modules: dict):
    """Wrap the public functions of ``modules`` (layer name -> module) at
    every binding in ``package`` and its layer modules.  Returns a function
    that puts the original functions back."""
    wrapped = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or name in SKIP.get(layer, ()):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrapped[id(obj)] = rec.wrap(f"{layer}.{name}", obj)
    undo = []
    for mod in (package, *modules.values()):
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])
                undo.append((mod.__dict__, name, obj))
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if id(val) in wrapped:
                        obj[key] = wrapped[id(val)]
                        undo.append((obj, key, val))

    def uninstall():
        for container, key, original in reversed(undo):
            container[key] = original

    return uninstall


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict:
    """Self time per layer.

    Each instant counts to the layer of the innermost open span: a span's
    duration minus the durations of its direct children.  A child of the
    same layer (recursion) keeps its time in that layer without counting
    it twice, and the layer totals add up to the top-level spans' time.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out = {}
    for i, s in enumerate(spans):
        layer = layer_of(s[NAME])
        out[layer] = out.get(layer, 0.0) + (s[END] - s[START] - child[i])
    return out


def inclusive_time(spans, names) -> float:
    """Wall time inside calls to any of ``names``, each instant counted
    once: spans nested in another span of the group are skipped."""
    inside = [False] * len(spans)
    total = 0.0
    for i, s in enumerate(spans):
        hit = s[NAME] in names
        parent_inside = s[PARENT] >= 0 and inside[s[PARENT]]
        inside[i] = hit or parent_inside
        if hit and not parent_inside:
            total += s[END] - s[START]
    return total


def count(spans, names) -> int:
    return sum(1 for s in spans if s[NAME] in names)


def note_values(spans, name) -> list:
    return [s[NOTE] for s in spans if s[NAME] == name and s[NOTE] is not None]
