"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each fermicert layer from the
outside, records one span (name, start, end, parent) per call in memory,
and turns the spans into per-layer metrics after the run.  It changes no
package code: it rebinds names, and because ``from .fock import
trace_norm`` copies a name into the importing module, every binding of a
wrapped function in every ``fermicert`` module is rebound.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from workloads import ALL_SUITES

PACKAGE = "fermicert"

#: Wrapped callables as (layer, module, qualified name).  ``linalg`` holds
#: the numpy/scipy calls the package makes; calls from elsewhere are not
#: recorded.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("linalg", "numpy.linalg", "eigh"),
    ("linalg", "numpy.linalg", "eigvalsh"),
    ("linalg", "scipy.sparse.linalg", "eigsh"),
    ("linalg", "numpy", "kron"),
    ("definetti", "fermicert.definetti", "verify_theorem1"),
    ("definetti", "fermicert.definetti", "best_mixture_approx"),
    ("definetti", "fermicert.definetti", "product_power"),
    ("invariance", "fermicert.invariance", "check_invariance"),
    ("invariance", "fermicert.invariance", "check_invariance_dense"),
    ("invariance", "fermicert.invariance", "verify_lemma3"),
    ("invariance", "fermicert.invariance", "mu_family_state"),
    ("cumulants", "fermicert.cumulants", "ladder_matrix"),
    ("cumulants", "fermicert.cumulants", "cumulant_mats"),
    ("cumulants", "fermicert.cumulants", "fourier_cumulant"),
    ("cumulants", "fermicert.cumulants", "gaussian_mixture_deviation"),
    ("rdm", "fermicert.rdm", "one_rdm"),
    ("rdm", "fermicert.rdm", "circulant_spectrum_with_fallback"),
    ("meanfield", "fermicert.meanfield", "verify_gs_bound"),
    ("meanfield", "fermicert.meanfield", "min_product_energy"),
    ("meanfield", "fermicert.meanfield", "ground_state"),
    ("meanfield", "fermicert.meanfield", "ground_state_lowdim"),
    ("meanfield", "fermicert.meanfield", "ProductEnergyEvaluator.energy"),
    ("fock", "fermicert.fock", "to_matrix"),
    ("fock", "fermicert.fock", "jw_matrix"),
    ("fock", "fermicert.fock", "reduce_expansion"),
    ("fock", "fermicert.fock", "trace_norm"),
    ("fock", "fermicert.fock", "partial_trace_sites"),
    ("fock", "fermicert.fock", "expectation_word_dense"),
    ("fock", "fermicert.fock", "check_state"),
    ("algebra", "fermicert.algebra", "OperatorExpansion.expectation"),
    ("algebra", "fermicert.algebra", "OperatorExpansion.multiply"),
    ("algebra", "fermicert.algebra", "OperatorExpansion.even_channel"),
)

#: best_mixture_approx stops a start below this distance: an exact witness.
EXACT_HIT = 5e-12

#: Per-layer metrics beyond calls and self time, as (name, unit, better).
EXTRA_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("linalg.eigh.dim_p50", "dim", "lower"),
    ("linalg.eigh.dim_max", "dim", "lower"),
    ("linalg.eigh.n3_sum", "dim3", "lower"),
    ("definetti.best_mixture_approx.eigh_per_call", "count", "lower"),
    ("definetti.best_mixture_approx.exact_hits", "count", "higher"),
    ("invariance.check_invariance.words_checked", "count", "lower"),
    ("invariance.check_invariance.sampled_calls", "count", "lower"),
    ("invariance.check_invariance.distinct_ratio", "ratio", "higher"),
    ("rdm.circulant_spectrum_with_fallback.singular_ks", "count", "lower"),
    ("meanfield.min_product_energy.retries", "count", "lower"),
    ("fock.to_matrix.dim_sum", "dim", "lower"),
)


def metric_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    specs = []
    for layer, _, qualname in TARGETS:
        specs.append((f"{layer}.{qualname}.calls", "count", "lower"))
        specs.append((f"{layer}.{qualname}.self_s", "s", "lower"))
    specs.extend(EXTRA_METRICS)
    specs.extend((f"suites.{name}.wall_s", "s", "lower")
                 for name in ALL_SUITES)
    specs.append(("suites.self_s", "s", "lower"))
    specs.append(("run.cpu_s", "s", "lower"))
    specs.append(("run.trace_overhead_s", "s", "lower"))
    specs.append(("run.span_coverage", "ratio", "higher"))
    return specs


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Self time of each span: its duration minus the part of its interval
    that its children cover.

    Spans are listed in the order they opened, so a parent precedes its
    children and children of one parent arrive sorted by start.
    """
    covered = [0.0] * len(starts)
    reach = list(starts)
    for i, p in enumerate(parents):
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], ends[i])
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


def _state_key(rho) -> int:
    return hash((rho.shape, tuple(sorted(rho.terms.items()))))


class Tracer:
    """Records spans for wrapped calls; ``install`` and ``uninstall``
    rebind the wrapped names."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self.extras: Dict[str, list] = defaultdict(list)
        self._restore: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.starts)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.span_name.append(name_id)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _close(self, sid: int):
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None,
             package_callers_only: bool = False) -> Callable:
        """A wrapper recording one span per call of ``fn`` and passing the
        call's arguments and result to ``observe``."""
        name_id = self._name_id(name)
        getframe = sys._getframe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if package_callers_only and not getframe(1).f_globals.get(
                    "__name__", "").startswith(PACKAGE):
                return fn(*args, **kwargs)
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def _rebind(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target and rebind each name that refers to it, in the
        defining module and in every loaded fermicert module."""
        for layer, module_name, qualname in TARGETS:
            module = importlib.import_module(module_name)
            name = f"{layer}.{qualname}"
            observe = _OBSERVERS.get(name)
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                self._rebind(cls, meth, self.wrap(name, vars(cls)[meth],
                                                  observe))
                continue
            orig = getattr(module, qualname)
            wrapper = self.wrap(name, orig, observe,
                                package_callers_only=(layer == "linalg"))
            owners = [module] + [
                mod for mod_name, mod in sorted(sys.modules.items())
                if (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))
                and mod is not module]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is orig:
                        self._rebind(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def save(self, path):
        """Write the spans as arrays plus the name table."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), span_name=np.array(self.span_name),
            start=np.array(self.starts), end=np.array(self.ends),
            parent=np.array(self.parents))

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of the recorded spans.  ``wall_s`` is the
        time the traced pass spent in suite calls."""
        selfs = self_times(self.starts, self.ends, self.parents)
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        dur: Dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.span_name):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += selfs[i]
            dur[name] += self.ends[i] - self.starts[i]

        out: Dict[str, float] = {}
        for layer, _, qualname in TARGETS:
            name = f"{layer}.{qualname}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]

        dims = self.extras["eigh_dim"]
        out["linalg.eigh.dim_p50"] = statistics.median(dims) if dims else 0
        out["linalg.eigh.dim_max"] = max(dims, default=0)
        out["linalg.eigh.n3_sum"] = sum(d ** 3 for d in dims)

        bma = "definetti.best_mixture_approx"
        n_bma = calls[bma]
        out[f"{bma}.eigh_per_call"] = (
            self._descendants("linalg.eigh", bma) / n_bma if n_bma else 0.0)
        dists = self.extras["mixture_dist"]
        out[f"{bma}.exact_hits"] = sum(d < EXACT_HIT for d in dists)

        inv = "invariance.check_invariance"
        keys = self.extras["inv_state"]
        out[f"{inv}.words_checked"] = sum(self.extras["inv_words"])
        out[f"{inv}.sampled_calls"] = sum(self.extras["inv_sampled"])
        out[f"{inv}.distinct_ratio"] = (len(set(keys)) / len(keys)
                                        if keys else 0.0)

        out["rdm.circulant_spectrum_with_fallback.singular_ks"] = sum(
            self.extras["singular_ks"])
        out["meanfield.min_product_energy.retries"] = (
            self._children("meanfield.min_product_energy",
                           "meanfield.verify_gs_bound")
            - calls["meanfield.verify_gs_bound"])
        out["fock.to_matrix.dim_sum"] = sum(self.extras["to_matrix_dim"])

        suite_self = 0.0
        for suite in ALL_SUITES:
            name = f"suites.{suite}"
            out[f"{name}.wall_s"] = dur[name]
            suite_self += self_s[name]
        out["suites.self_s"] = suite_self
        layer_self = sum(v for k, v in self_s.items()
                         if not k.startswith("suites."))
        out["run.span_coverage"] = layer_self / wall_s if wall_s > 0 else 0.0
        return out

    def _ancestors_named(self, sid: int, target: int):
        p = self.parents[sid]
        while p >= 0:
            if self.span_name[p] == target:
                return True
            p = self.parents[p]
        return False

    def _descendants(self, name: str, ancestor: str) -> int:
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nid, aid = self._ids[name], self._ids[ancestor]
        return sum(1 for sid, n in enumerate(self.span_name)
                   if n == nid and self._ancestors_named(sid, aid))

    def _children(self, name: str, parent: str) -> int:
        if name not in self._ids or parent not in self._ids:
            return 0
        nid, pid = self._ids[name], self._ids[parent]
        return sum(1 for sid, n in enumerate(self.span_name)
                   if n == nid and self.parents[sid] >= 0
                   and self.span_name[self.parents[sid]] == pid)


def _observe_eigh(tracer, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    tracer.extras["eigh_dim"].append(int(a.shape[-1]))


def _observe_mixture(tracer, args, kwargs, result):
    tracer.extras["mixture_dist"].append(float(result[1]))


def _observe_invariance(tracer, args, kwargs, result):
    rho = args[0] if args else kwargs["rho"]
    tracer.extras["inv_state"].append(_state_key(rho))
    tracer.extras["inv_words"].append(int(result.checked_words))
    tracer.extras["inv_sampled"].append(int(bool(result.sampled)))


def _observe_circulant(tracer, args, kwargs, result):
    tracer.extras["singular_ks"].append(len(result[1]))


def _observe_to_matrix(tracer, args, kwargs, result):
    tracer.extras["to_matrix_dim"].append(int(result.dim))


_OBSERVERS = {
    "linalg.eigh": _observe_eigh,
    "definetti.best_mixture_approx": _observe_mixture,
    "invariance.check_invariance": _observe_invariance,
    "rdm.circulant_spectrum_with_fallback": _observe_circulant,
    "fock.to_matrix": _observe_to_matrix,
}
