"""Per-layer trace for the fracflux benchmark.

The ledger wraps the public functions of each fracflux layer, and the
module-level Prabhakar route functions of ``fracflux.specfun``, from outside
the package: it replaces the module attribute, and every other reference a
fracflux module holds to the same function object (``from .x import f``
copies), with a wrapper that records a span and updates counters.  Nothing in
``src/`` is edited.  A traced iteration runs in a child process of its own,
so the wrappers are never taken out again.

A target whose name no longer exists is listed in ``missing`` and every metric
that depends on it is left out of the report, never reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

#: (module, attribute, span name); the span name is the metric prefix
TARGETS = (
    ("fracflux.specfun", "prabhakar_diag", "specfun.prabhakar"),
    ("fracflux.specfun", "_series_route", "specfun.route.series"),
    ("fracflux.specfun", "_asym_route", "specfun.route.asym"),
    ("fracflux.specfun", "_contour_route", "specfun.route.contour"),
    ("fracflux.specfun", "_mp_series_scalar", "specfun.route.mpmath"),
    ("fracflux.specfun", "monomial_laplace_truncated", "specfun.monomial_laplace"),
    ("fracflux.modes", "build_mode_table", "modes.build_mode_table"),
    ("fracflux.modes", "check_separation", "modes.check_separation"),
    ("fracflux.forward", "solve", "forward.solve"),
    ("fracflux.forward", "extend_complex", "forward.extend_complex"),
    ("fracflux.forward", "boundary_flux", "forward.boundary_flux"),
    ("fracflux.inverse", "lsq_reconstruct", "inverse.lsq"),
    ("numpy.linalg", "svd", "inverse.svd"),
    ("fracflux.inverse", "residue_ip1", "inverse.residue"),
    ("fracflux.inverse", "residue_ip2", "inverse.residue"),
    ("fracflux.laplace", "q_branch", "laplace.q_branch"),
    ("fracflux.laplace", "jump", "laplace.jump"),
    ("fracflux.laplace", "flux_transform", "laplace.flux_transform"),
    ("fracflux.cli", "_load", "cli.load"),
    ("fracflux.cli", "_atomic_write", "cli.write"),
)

#: the series route's acceptance rule in ``prabhakar_diag`` (safety factor 25)
SERIES_SAFETY = 25.0

#: units of the metrics, by name suffix; the first match wins
UNITS = (
    (".points_per_s", "1/s"),
    ("_s", "s"),
    (".calls", "count"),
    (".points", "count"),
    (".accepted", "count"),
    (".bytes", "bytes"),
    ("_ratio", "ratio"),
    (".est_max", "rel"),
)


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in UNITS if name.endswith(suffix))


class Ledger:
    """Spans ``[name, start, end, parent]`` and counters of one traced iteration."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._target = None  # accuracy target of the enclosing prabhakar_diag call

    # -- patching -------------------------------------------------------------
    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(span)
                continue
            wrapper = wrapped.setdefault(id(original), self._wrap(span, original))
            holders = [module] + [
                m for name, m in list(sys.modules.items()) if name.startswith("fracflux") and m is not None
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def _wrap(self, span_name: str, fn):
        count = _COUNTERS.get(span_name)
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(ledger.spans)
            record = [span_name, 0.0, 0.0, ledger._stack[-1] if ledger._stack else -1]
            ledger.spans.append(record)
            ledger._stack.append(index)
            saved_target = ledger._target
            if span_name == "specfun.prabhakar":
                ledger._target = kwargs.get("target", args[2] if len(args) > 2 else None)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                ledger._stack.pop()
                ledger._target = saved_target
            if count is not None:
                count(ledger, args, kwargs, result)
            return result

        return wrapper

    # -- aggregation ----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-iteration layer metrics; names follow ``BENCHMARK.json``."""
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: dict[str, float] = defaultdict(float)
        svd_in_lsq = 0.0
        for name, start, end, parent in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
            if name == "inverse.svd" and self._inside(parent, "inverse.lsq"):
                svd_in_lsq += end - start

        out: dict[str, float] = {}

        def put(metric: str, value, *needs: str) -> None:
            if not any(n in self.missing for n in needs):
                out[metric] = float(value)

        c = self.counts
        p = "specfun.prabhakar"
        put(f"{p}.calls", calls[p], p)
        put(f"{p}.points", c["prabhakar.points"], p)
        put(f"{p}.busy_s", busy[p], p)
        put(f"{p}.points_per_s", c["prabhakar.points"] / busy[p] if busy[p] > 0 else 0.0, p)
        put(f"{p}.est_max", c["prabhakar.est_max"], p)
        for route in ("series", "asym", "contour", "mpmath"):
            r = f"specfun.route.{route}"
            put(f"{r}.points", c[f"{route}.points"], r)
            put(f"{r}.busy_s", busy[r], r)
        r = "specfun.route.series"
        put(f"{r}.accepted", c["series.accepted"], r, p)
        attempted = c["series.points"]
        put(f"{r}.accept_ratio", c["series.accepted"] / attempted if attempted else 0.0, r, p)
        m = "specfun.monomial_laplace"
        put(f"{m}.calls", calls[m], m)
        put(f"{m}.busy_s", busy[m], m)
        put("modes.busy_s", busy["modes.build_mode_table"] + busy["modes.check_separation"],
            "modes.build_mode_table", "modes.check_separation")
        for name in ("forward.solve", "forward.extend_complex"):
            put(f"{name}.busy_s", busy[name], name)
            put(f"{name}.self_s", busy[name] - child[name], name)
        put("forward.solve.calls", calls["forward.solve"], "forward.solve")
        put("forward.boundary_flux.busy_s", busy["forward.boundary_flux"], "forward.boundary_flux")
        put("inverse.lsq.busy_s", busy["inverse.lsq"], "inverse.lsq")
        put("inverse.lsq.assembly_s", busy["inverse.lsq"] - svd_in_lsq, "inverse.lsq", "inverse.svd")
        put("inverse.svd.busy_s", svd_in_lsq, "inverse.svd", "inverse.lsq")
        put("inverse.residue.calls", calls["inverse.residue"], "inverse.residue")
        put("inverse.residue.busy_s", busy["inverse.residue"], "inverse.residue")
        put("laplace.q_branch.calls", calls["laplace.q_branch"], "laplace.q_branch")
        for name in ("laplace.q_branch", "laplace.jump", "laplace.flux_transform", "cli.load", "cli.write"):
            put(f"{name}.busy_s", busy[name], name)
        put("cli.write.bytes", c["cli.write.bytes"], "cli.write")
        return out

    def _inside(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False


# ---------------------------------------------------------------------------
# counters, keyed by span name; each sees (ledger, args, kwargs, result)
# ---------------------------------------------------------------------------


def _count_prabhakar(ledger, args, kwargs, result):
    z = kwargs.get("z", args[1] if len(args) > 1 else None)
    ledger.counts["prabhakar.points"] += np.size(z)
    est = np.asarray(result[1])
    if est.size:
        ledger.counts["prabhakar.est_max"] = max(ledger.counts["prabhakar.est_max"], float(est.max()))


def _count_route(route):
    def count(ledger, args, kwargs, result):
        points = np.size(args[3])
        ledger.counts[f"{route}.points"] += points
        if route == "series":
            from fracflux.specfun import TARGET

            target = TARGET if ledger._target is None else ledger._target
            ledger.counts["series.accepted"] += int(np.count_nonzero(SERIES_SAFETY * result[1] <= target))

    return count


def _count_write(ledger, args, kwargs, result):
    text = kwargs.get("text", args[1] if len(args) > 1 else "")
    ledger.counts["cli.write.bytes"] += len(text.encode())


_COUNTERS = {
    "specfun.prabhakar": _count_prabhakar,
    "specfun.route.series": _count_route("series"),
    "specfun.route.asym": _count_route("asym"),
    "specfun.route.contour": _count_route("contour"),
    "specfun.route.mpmath": _count_route("mpmath"),
    "cli.write": _count_write,
}
