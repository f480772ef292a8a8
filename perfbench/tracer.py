"""Spans around specgap's public functions, installed from outside the package.

A wrapped call opens a span.  Its self time and self work are its duration
and its multiply-add count (``tensor.work_count()`` read at both ends)
minus what its child spans cover, so self work summed over every span
equals the counter's total.  ``from .tensor import svd_fixed`` binds a
second name in the importing module, so a wrapper replaces the function
under every specgap module that binds it, not only in its home module.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

from specgap import tensor

MODULES = ("tensor", "wii", "estimator", "imps", "ipeps", "cli")

# layer (module) -> public functions that get a span in a traced run
LAYERS = {
    "ipeps": (
        "apply_axis_mpo", "superorthogonalize", "truncate_bonds",
        "simple_update_bond", "expectation_terms_peps", "run_evolution_peps",
    ),
    "imps": (
        "tebd_step", "recanonicalize", "canonical_defect",
        "expectation_terms_imps", "bond_gate", "run_evolution_1d",
    ),
    "wii": ("build_wii",),
    "tensor": ("einsum2", "svd_fixed", "psd_factor", "qr_counted"),
    "estimator": ("estimate_gap",),
    "cli": ("run",),
}

# functions whose second return value is a solver result worth keeping
RESULTS = {
    "ipeps.superorthogonalize", "ipeps.truncate_bonds",
    "ipeps.simple_update_bond", "imps.tebd_step",
}

# operand shapes are recorded for the functions the kernel cases replay
SHAPED = {
    "tensor.einsum2", "tensor.svd_fixed", "tensor.psd_factor",
    "wii.build_wii", "imps.tebd_step", "ipeps.superorthogonalize",
}


@contextlib.contextmanager
def patched(replacements: dict[str, object]):
    """Swap ``{"module.fn": wrapper_factory}`` into every specgap module
    that binds the function; restore the originals on exit.

    Factories applied later wrap the ones applied earlier.
    """
    mods = [importlib.import_module(f"specgap.{m}") for m in MODULES]
    undo = []
    try:
        for qualname, factory in replacements.items():
            home, name = qualname.split(".")
            orig = getattr(importlib.import_module(f"specgap.{home}"), name)
            wrapper = factory(orig)
            for mod in mods:
                if getattr(mod, name, None) is orig:
                    setattr(mod, name, wrapper)
                    undo.append((mod, name, orig))
        yield
    finally:
        for mod, name, orig in reversed(undo):
            setattr(mod, name, orig)


def describe(value):
    """Operand signature: array shapes, subscripts, and state tensor shapes."""
    if isinstance(value, np.ndarray):
        return value.shape
    if isinstance(value, str):
        return value
    for attr in ("gammas", "tensors"):
        if hasattr(value, attr):
            return tuple(t.shape for t in getattr(value, attr))
    return type(value).__name__


class Tracer:
    """Per-function calls, self time, inclusive time and self multiply-adds,
    parent/child call counts, solver results and operand shapes."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.self_madds: Counter = Counter()
        self.edges: Counter = Counter()  # (parent, child) -> calls
        self.results: dict[str, list] = defaultdict(list)
        self.shapes: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[list] = []  # [name, child seconds, child madds]

    def factories(self) -> dict[str, object]:
        return {
            f"{layer}.{fn}": self._factory(f"{layer}.{fn}")
            for layer, fns in LAYERS.items()
            for fn in fns
        }

    def _factory(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                stack = self._stack
                if stack:
                    self.edges[(stack[-1][0], name)] += 1
                if name in SHAPED:
                    self.shapes[name][tuple(describe(a) for a in args)] += 1
                frame = [name, 0.0, 0.0]
                stack.append(frame)
                w0 = tensor.work_count()
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dur = time.perf_counter() - t0
                    work = tensor.work_count() - w0
                    stack.pop()
                    self.calls[name] += 1
                    self.incl_s[name] += dur
                    self.self_s[name] += dur - frame[1]
                    self.self_madds[name] += work - frame[2]
                    if stack:
                        stack[-1][1] += dur
                        stack[-1][2] += work
                if name in RESULTS:
                    self.results[name].append(out[1])
                return out

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def total_madds(self) -> float:
        return sum(self.self_madds.values())

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every named per-layer and solver metric as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                name = f"{layer}.{fn}"
                out[f"{name}.self_s"] = (self.self_s[name], "s")
                out[f"{name}.calls"] = (self.calls[name], "count")
                out[f"{name}.madds"] = (self.self_madds[name], "madd")
                if layer == "tensor":
                    rate = (self.self_madds[name] / self.self_s[name] / 1e9
                            if self.self_s[name] > 0 else 0.0)
                    out[f"{name}.gmadds_per_s"] = (rate, "Gmadd/s")

        so = self.results["ipeps.superorthogonalize"]
        n_so = max(len(so), 1)
        out["ipeps.superorthogonalize.passes_per_call"] = (
            sum(r.iterations for r in so) / n_so, "passes/call")
        out["ipeps.superorthogonalize.unconverged_frac"] = (
            sum(not r.converged for r in so) / n_so, "ratio")
        out["ipeps.superorthogonalize.residual_max"] = (
            max((r.residual for r in so), default=0.0), "1")
        for name in ("ipeps.truncate_bonds", "ipeps.simple_update_bond",
                     "imps.tebd_step"):
            out[f"{name}.discarded_max"] = (
                max(self.results[name], default=0.0), "ratio")
        sweeps = self.edges[("imps.recanonicalize", "imps.canonical_defect")]
        out["imps.recanonicalize.sweeps_per_call"] = (
            sweeps / max(self.calls["imps.recanonicalize"], 1), "sweeps/call")
        return out

    def top_shapes(self, n: int = 3) -> dict[str, list]:
        return {
            name: [[repr(sig), count] for sig, count in c.most_common(n)]
            for name, c in sorted(self.shapes.items())
        }
