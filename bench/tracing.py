"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces each traced function of dichospec with a
wrapper at every place it is bound: the defining module, each module that
did `from .x import y`, the package's re-exports, the calling modules it
is handed (the benchmark's own), and, for methods, the class.  Binding sites are found by identity, so a name re-exported under
any module is covered; `missed_bindings` reports any module or class
attribute that still holds an original after installation.

Spans are kept in memory as parallel arrays (name, start, end, parent).
A span's self time is its duration minus the durations of its children,
which nest inside it because everything runs on one thread.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

Counts = Callable[[dict[str, Any], Any], dict[str, float]]


@dataclass(frozen=True)
class Target:
    """A function to wrap: `module.qualname` is reported as `layer.qualname`.

    `counts` maps the call's bound arguments and its result to the counters
    named in `keys`; `factors` maps the positional arguments of a factor
    request to (sequence, lo, hi) for the factor reuse ratio.
    """

    module: str
    qualname: str
    counts: Counts | None = None
    keys: tuple[str, ...] = ()
    factors: Callable[[tuple], tuple[Any, int, int]] | None = None
    outermost: bool = False  # skip recursive calls into itself

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


def _steps(lo: int, hi: int) -> dict[str, float]:
    return {"steps": int(hi) - int(lo)}


def _containment_samples(_a, report) -> dict[str, float]:
    return {"samples": len(report.rows), "escalations": sum(r.escalated for r in report.rows)}


TARGETS = (
    Target("sequences", "MatrixSequence.window",
           lambda a, _r: {"factors": a["hi"] - a["lo"] + 1}, ("factors",),
           factors=lambda a: (a[0], int(a[1]), int(a[2]))),
    Target("sequences", "MatrixSequence.validate"),
    Target("sequences", "MatrixSequence.evaluate",
           factors=lambda a: (a[0], int(a[1]), int(a[1]))),
    Target("sequences", "MatrixSequence.inverse_at"),
    Target("transition", "orbit_lognorms", lambda a, _r: _steps(*a["span"]), ("steps",)),
    Target("transition", "transition", lambda a, _r: _steps(*sorted((a["m"], a["n"]))), ("steps",)),
    Target("transition", "WindowProducts.__init__",
           lambda a, _r: {"factors": len(a["factors"])}, ("factors",)),
    Target("transition", "WindowProducts.max_log_norm"),
    Target("bohl", "bohl_exponents"),
    Target("bohl", "scalar_bohl_estimate"),
    # two QR rate sweeps, forward and backward, over the extent
    Target("dichotomy", "DichotomyAnalyzer.__init__",
           lambda a, _r: {"steps": 2 * a["self"].params.extent}, ("steps",)),
    Target("dichotomy", "DichotomyAnalyzer.verdict"),
    Target("dichotomy", "estimate_spectrum", lambda _a, est: {"probes": len(est.grid)}, ("probes",)),
    Target("bundles", "restricted_fiber_system",
           lambda a, _r: {"steps": 2 * (int(a["window"]) + max(int(a["burn_in"]), 8))}, ("steps",)),
    Target("bundles", "bundle_fibers"),
    Target("bundles", "whitney_sum_check"),
    Target("containment", "verify_fiber_containment", _containment_samples,
           ("samples", "escalations")),
    Target("containment", "verify_global_containment", _containment_samples,
           ("samples", "escalations")),
    Target("containment", "verify_endpoint_attainability"),
    Target("triangularize", "qr_triangularize",
           lambda _a, pair: {"steps": pair.upper.table.shape[0]}, ("steps",)),
    Target("triangularize", "KinematicPair.residual_max"),
    Target("triangularize", "diagonal_significance"),
    Target("scenario", "load_scenario"),
    Target("scenario", "canonical_json", outermost=True),
    Target("cli", "main"),
    Target("linalg", "qr_positive"),
    Target("linalg", "subspace_intersection"),
    Target("linalg", "spectral_norm"),
)

# counters summed into one per-layer figure instead of one per function
_LAYER_COUNTERS = {"probes": "dichotomy.probes", "escalations": "containment.escalations"}

ROOT = "bench.op"


def _counter_name(t: Target, key: str) -> str:
    return _LAYER_COUNTERS.get(key, f"{t.name}.{key}")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for t in TARGETS:
        names += [f"{t.name}.calls", f"{t.name}.self_s"]
        names += [_counter_name(t, k) for k in t.keys if k not in _LAYER_COUNTERS]
    names += ["sequences.factor_reuse", *sorted(set(_LAYER_COUNTERS.values())),
              "trace.spans", "trace.pass_s", "trace.overhead_s"]
    return names


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("factor_reuse"):
        return "ratio"
    return "count"


def package_modules() -> list:
    """dichospec and all of its submodules, imported."""
    pkg = importlib.import_module("dichospec")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__, "dichospec."):
        mods.append(importlib.import_module(info.name))
    return mods


def _resolve(t: Target):
    """(owner, attribute, original) for the definition of a target."""
    owner = sys.modules[f"dichospec.{t.module}"]
    *path, attr = t.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """Span recorder for the traced functions of dichospec."""

    def __init__(self):
        self.names = [ROOT] + [t.name for t in TARGETS]
        self._installed: list[tuple[Any, str, Any]] = []  # (owner, attribute, original)
        self._originals: dict[int, tuple[Target, Callable]] = {}  # id -> (target, original)
        self._callers: tuple = ()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._requests: dict[int, list] = {}  # id(seq) -> [seq, requested, [(lo, hi)]]

    # -- recording ---------------------------------------------------------------

    def _open(self, name_index: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_index)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, fn: Callable[[], Any]) -> Any:
        """Run `fn` under a root span, as one operation."""
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)

    def _count(self, target: Target, key: str, value: float) -> None:
        name = _counter_name(target, key)
        self.counters[name] = self.counters.get(name, 0) + value

    def _request(self, seq, lo: int, hi: int) -> None:
        entry = self._requests.get(id(seq))
        if entry is None:
            entry = self._requests[id(seq)] = [seq, 0, []]
        entry[1] += hi - lo + 1
        entry[2].append((lo, hi))

    # -- installation --------------------------------------------------------------

    def _wrap(self, target: Target, original: Callable) -> Callable:
        name_index = self.names.index(target.name)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if target.outermost and stack and self.span_name[stack[-1]] == name_index:
                return original(*args, **kwargs)
            idx = self._open(name_index)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if target.factors is not None:
                self._request(*target.factors(args))
            if target.counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in target.counts(bound.arguments, result).items():
                    self._count(target, key, value)
            return result

        return wrapper

    def install(self, *callers) -> None:
        """Wrap every target in dichospec and in the given caller modules."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._callers = callers
        modules = package_modules() + list(callers)
        for t in TARGETS:
            owner, attr, original = _resolve(t)
            self._originals[id(original)] = (t, original)
            wrapper = self._wrap(t, original)
            if isinstance(owner, type):
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def missed_bindings(self) -> list[str]:
        """Module or class attributes still holding an unwrapped target."""
        missed = []
        for mod in package_modules() + list(self._callers):
            scopes = [(mod.__name__, vars(mod))]
            scopes += [(f"{mod.__name__}.{k}", vars(v)) for k, v in vars(mod).items()
                       if isinstance(v, type) and v.__module__.startswith("dichospec")]
            for where, namespace in scopes:
                for key, value in namespace.items():
                    hit = self._originals.get(id(value))
                    if hit is not None and value is hit[1]:
                        missed.append(f"{where}.{key}")
        return sorted(set(missed))

    def bound_sites(self) -> dict[str, list[str]]:
        """Target name -> binding sites replaced by `install`."""
        sites: dict[str, list[str]] = {}
        for owner, attr, original in self._installed:
            where = owner.__module__ + "." + owner.__qualname__ if isinstance(owner, type) else owner.__name__
            sites.setdefault(self._originals[id(original)][0].name, []).append(f"{where}.{attr}")
        return sites

    # -- aggregation -------------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Self time of every span recorded so far."""
        start = np.frombuffer(self.span_start, dtype=float)
        dur = np.frombuffer(self.span_end, dtype=float) - start
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - covered

    def layer_metrics(self) -> dict[str, float]:
        """calls and self seconds per target, counters and the factor reuse ratio."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=self.self_times(), minlength=len(self.names))
        out: dict[str, float] = {}
        for t in TARGETS:
            i = self.names.index(t.name)
            out[f"{t.name}.calls"] = int(calls[i])
            out[f"{t.name}.self_s"] = float(self_s[i])
            for key in t.keys:
                name = _counter_name(t, key)
                out[name] = self.counters.get(name, 0)
        requested = sum(e[1] for e in self._requests.values())
        unique = sum(_union_length(e[2]) for e in self._requests.values())
        out["sequences.factor_reuse"] = unique / requested if requested else 1.0
        out["trace.spans"] = int(calls[1:].sum())  # wrapped calls, operations excluded
        return out


def _union_length(ranges: list[tuple[int, int]]) -> int:
    """Number of integers covered by a list of closed ranges."""
    total, reach = 0, None
    for lo, hi in sorted(ranges):
        if reach is None or lo > reach:
            total += hi - lo + 1
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total
