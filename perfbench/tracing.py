"""Traced mode: spans around calls into each mixloci module, installed from here.

`Tracer.install()` replaces each function in `WRAPPED` by a wrapper in every
mixloci module namespace that binds it (so `from .io import load_state` in
`cli` is caught too), counts `Pencil.evaluate` calls, and times the
`numpy.linalg` entry points while a mixloci span is open.  Spans (name, start,
end, parent, request id) stay in memory until `dump()`.  `uninstall()` puts
every original back.

Only public functions are wrapped, so a refactor of private helpers cannot
silently void a counter.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from oracle import GENERIC_THRESHOLD_BOUND

WRAPPED = [
    ("cli", "main"),
    ("io", "load_state"), ("io", "file_sha256"),
    ("states", "eigen_ensemble"), ("states", "random_density"),
    ("numeric", "null_space"),
    ("loci", "sample_locus"), ("loci", "locus_zero"),
    ("mixing", "check_component_necessary"), ("mixing", "monte_carlo_genericity"),
    ("mixing", "schmidt_rank_cap"), ("mixing", "forces_separable"),
    ("mixing", "excludes_max_schmidt_rank"),
]
LAPACK = ["svd", "eigh", "eigvalsh", "norm", "qr", "det", "matrix_rank"]


def layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = [f"{mod}.{fn}.{what}" for mod, fn in WRAPPED for what in ("calls", "total_ms", "self_ms")]
    names += [f"numeric.lapack.{fn}.{what}" for fn in LAPACK for what in ("calls", "total_ms")]
    names += ["loci.starts", "loci.pencil_evals", "loci.pencil_evals_per_start",
              "loci.converged_frac", "loci.points_found", "mixing.residual_gap_min",
              "mixing.k_scanned_per_check", "trace.untraced_ms_per_request",
              "trace.traced_ms_per_request", "trace.overhead_frac"]
    return names


class _Frame:
    __slots__ = ("span_id", "leaf")

    def __init__(self, span_id):
        self.span_id = span_id
        self.leaf = 0.0  # time in numpy.linalg calls made directly under this span


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, request id, leaf seconds)
        self.stack = []
        self.request_id = -1
        self.lapack = defaultdict(lambda: [0, 0.0])
        self.pencil_evals = 0
        self.starts = self.converged = self.points = 0
        self.checks = self.k_scanned = 0
        self.generic_min_residual = float("inf")
        self._restore = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("mixloci") and mod is not None}
        for mod_name, fn_name in WRAPPED:
            original = getattr(modules[f"mixloci.{mod_name}"], fn_name)
            wrapper = self._span_wrapper(f"{mod_name}.{fn_name}", original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        pencil = modules["mixloci.loci"].Pencil
        evaluate = pencil.evaluate

        def counted_evaluate(p, coords):
            self.pencil_evals += 1
            return evaluate(p, coords)

        self._patch(pencil, "evaluate", counted_evaluate)
        for fn_name in LAPACK:
            self._patch(np.linalg, fn_name, self._lapack_wrapper(fn_name, getattr(np.linalg, fn_name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name, original):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1].span_id if self.stack else None
            frame = _Frame(len(self.spans))
            self.spans.append(None)  # reserve the id; filled in on exit
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[frame.span_id] = (frame.span_id, name, start, end, parent,
                                             self.request_id, frame.leaf)
            self._observe(name, args, result)
            return result
        wrapper.__wrapped__ = original
        return wrapper

    def _lapack_wrapper(self, name, original):
        counter = self.lapack[name]

        def wrapper(*args, **kwargs):
            if not self.stack:
                return original(*args, **kwargs)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                counter[0] += 1
                counter[1] += elapsed
                self.stack[-1].leaf += elapsed
        return wrapper

    def _observe(self, name, args, result) -> None:
        if name == "loci.sample_locus":
            self.starts += result.search_stats.get("starts", 0)
            self.converged += result.search_stats.get("converged", 0)
            self.points += len(result.points)
        elif name == "mixing.check_component_necessary":
            self.checks += 1
            self.k_scanned += len(result.stats)
        elif name == "mixing.monte_carlo_genericity":
            query = args[0]
            if (query.m, query.n, query.r, query.t) == (4, 4, 4, 2) and result.min_residuals:
                self.generic_min_residual = min(self.generic_min_residual,
                                                min(result.min_residuals))

    # -- results ---------------------------------------------------------
    def layer_totals(self) -> dict:
        """Per wrapped function: calls, total seconds, self seconds.  Self time is
        the span's duration minus its child spans and its direct numpy.linalg calls."""
        child = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, name, start, end, _, _, leaf in self.spans:
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[span_id] - leaf
        return totals

    def metrics(self, requests: int, untraced_s: float, traced_s: float) -> dict:
        """Per-request layer metrics over `requests` traced requests; `untraced_s`
        and `traced_s` are the mean seconds per request without and with tracing."""
        totals = self.layer_totals()
        out = {}
        for mod, fn in WRAPPED:
            calls, total, own = totals.get(f"{mod}.{fn}", (0, 0.0, 0.0))
            out[f"{mod}.{fn}.calls"] = (calls / requests, "count")
            out[f"{mod}.{fn}.total_ms"] = (1e3 * total / requests, "ms")
            out[f"{mod}.{fn}.self_ms"] = (1e3 * own / requests, "ms")
        for fn in LAPACK:
            calls, total = self.lapack[fn]
            out[f"numeric.lapack.{fn}.calls"] = (calls / requests, "count")
            out[f"numeric.lapack.{fn}.total_ms"] = (1e3 * total / requests, "ms")
        starts = max(self.starts, 1)
        gap = self.generic_min_residual / GENERIC_THRESHOLD_BOUND
        out.update({
            "loci.starts": (self.starts / requests, "count"),
            "loci.pencil_evals": (self.pencil_evals / requests, "count"),
            "loci.pencil_evals_per_start": (self.pencil_evals / starts if self.starts else 0.0,
                                            "count"),
            "loci.converged_frac": (self.converged / starts if self.starts else 0.0, "ratio"),
            "loci.points_found": (self.points / requests, "count"),
            # 0 where the workload runs no 4x4 genericity trial
            "mixing.residual_gap_min": (gap if np.isfinite(gap) else 0.0, "ratio"),
            "mixing.k_scanned_per_check": (self.k_scanned / self.checks if self.checks else 0.0,
                                           "count"),
            "trace.untraced_ms_per_request": (1e3 * untraced_s, "ms"),
            "trace.traced_ms_per_request": (1e3 * traced_s, "ms"),
            "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        })
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request, leaf in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "linalg_s": leaf}) + "\n")
