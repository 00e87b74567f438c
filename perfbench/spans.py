"""Span tracing of ``ssrc`` from outside the package.

``Tracer.install`` replaces every public function of the ``ssrc`` modules,
and every SciPy callable those modules bound by name, with a wrapper that
records a span.  A name bound in several namespaces (``make_basis`` is
imported into ``cli``, ``cvlimit``, ``encodings`` ...) is wrapped in each
of them, so calls through any binding are seen; a span is labelled by the
module that defines the function (``hilbert.make_basis``) or, for SciPy,
by the module that calls it (``synthesis.expm_frechet``).

Spans stay in memory until the run ends.  Each records name, start, end,
thread, parent and request.  Pool threads start with no open span, so a
span's parent is the innermost open span on its own thread or, failing
that, the running request's ``cli.run_experiment`` span.

``prng`` runs once per random draw, so it gets no spans: calls to
``SplitMix64.next_u64`` are counted and timed in aggregate instead, and the
module shares leave ``prng`` out (its time sits in its callers' self time).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import logging
import threading
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass

SPAN_MODULES = ("cli", "synthesis", "encodings", "cvlimit", "hilbert",
                "schwinger")

# Functions whose self time, calls or inclusive time the per-layer report
# names; every other wrapped function still gets spans and feeds the
# module shares.
SELF_PCT = {
    "synthesis": ("plan_two_mode", "execute_plan",
                  "synthesis_complexity_probe"),
    "encodings": ("grid_error_floor", "sg_gate_search", "cnot_search"),
    "cvlimit": ("coherent_window_fidelity", "displacement_residual",
                "squeezed_window_fidelity", "commutator_residual",
                "overlap_asymptotics", "phase_locking_curve", "fit_rate"),
}
INCLUSIVE = ("synthesis.expm_frechet", "synthesis.expm",
             "encodings.minimize", "hilbert.make_basis",
             "schwinger.j_operator")
USEFUL_TOL = 1e-9


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    request: int | None


def _is_scipy(obj) -> bool:
    module = getattr(obj, "__module__", None) or ""
    if module.startswith("scipy"):
        return callable(obj)
    # SciPy ufuncs such as gammaln carry no __module__.
    return type(obj).__name__ == "ufunc" and not module


class _Counting(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.minimize_runs: list[tuple[int, float, int]] = []
        self.request: int | None = None
        self._root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._keep: list = []
        self._patches: list = []
        self._drift = _Counting()
        self._next_u64 = [0, 0.0]
        self._lock = threading.Lock()
        self._showwarning = None
        self._filters: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for short in SPAN_MODULES:
            module = getattr(self.package, short)
            for name, obj in list(vars(module).items()):
                label = self._label(short, name, obj)
                if label is not None:
                    self._patch(module, name, self._wrap(label, obj))
        rng_cls = self.package.prng.SplitMix64
        self._patch(rng_cls, "next_u64", self._aggregate(rng_cls.next_u64))
        logging.getLogger("ssrc.hilbert").addHandler(self._drift)
        self._filters = warnings.filters[:]
        warnings.simplefilter("always", RuntimeWarning)
        self._showwarning = warnings.showwarning
        warnings.showwarning = self._on_warning

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        logging.getLogger("ssrc.hilbert").removeHandler(self._drift)
        warnings.showwarning = self._showwarning
        warnings.filters[:] = self._filters

    def _label(self, short: str, name: str, obj) -> str | None:
        if name.startswith("_"):
            return None
        if inspect.isfunction(obj) and obj.__name__ == name and \
                obj.__module__.startswith("ssrc."):
            return f"{obj.__module__.split('.')[-1]}.{name}"
        if _is_scipy(obj):
            return f"{short}.{name}"
        return None

    def _patch(self, owner, name, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, label: str, fn):
        after = {
            "synthesis.plan_two_mode": self._after_plan,
            "encodings.minimize": self._after_minimize,
            "hilbert.make_basis": self._after_basis,
        }.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else self._root
            span_id = next(self._ids)
            if label == "cli.run_experiment" and not stack:
                self._root = span_id
            stack.append((span_id, label))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, label, start, end,
                                       threading.get_ident(), parent,
                                       self.request))
            if after is not None:
                after(stack, args, result)
            return result

        return wrapper

    def _aggregate(self, fn):
        totals, lock = self._next_u64, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            with lock:
                totals[0] += 1
                totals[1] += elapsed
            return result

        return wrapper

    def _after_plan(self, stack, args, plan) -> None:
        if stack and stack[-1][1] == "synthesis.plan_two_mode":
            return  # inner plan of a pre-rotated target
        with self._lock:
            self.counts["synthesis.plan.steps"] += len(plan.steps)
            self.counts["synthesis.plan.repetitions.max"] = max(
                self.counts["synthesis.plan.repetitions.max"],
                plan.total_repetitions)

    def _after_minimize(self, stack, args, result) -> None:
        # Runs of one search share their objective, a bound method of the
        # search's manifold; keep the manifold alive so its id stays unique.
        owner = getattr(args[0], "__self__", args[0])
        with self._lock:
            self._keep.append(owner)
            self.minimize_runs.append(
                (id(owner), float(result.fun), int(result.nfev)))

    def _after_basis(self, stack, args, basis) -> None:
        with self._lock:
            self.counts["hilbert.make_basis.states"] += basis.dimension

    def _on_warning(self, message, category, *rest, **kwargs):
        if issubclass(category, RuntimeWarning):
            stack = self._stack()
            module = stack[-1][1].split(".")[0] if stack else "other"
            with self._lock:
                self.counts[f"{module}.runtime_warnings"] += 1
        self._showwarning(message, category, *rest, **kwargs)

    # -- report ------------------------------------------------------------

    def metrics(self, request_wall: float, cache: tuple[int, int]) -> dict:
        """Per-layer metrics over the spans of all requests.

        ``request_wall`` is the summed wall time of the requests and
        ``cache`` the hop-matrix cache (hits, misses) taken over them.
        """
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        calls, incl, self_s = Counter(), Counter(), Counter()
        module_self = Counter()
        top_level = 0.0
        roots = set()
        for span in self.spans:
            dur = span.end - span.start
            own = dur - _covered(span.start, span.end, children[span.id])
            calls[span.name] += 1
            incl[span.name] += dur
            self_s[span.name] += own
            if span.request is not None:
                module_self[span.name.split(".")[0]] += own
            if span.name == "cli.run_experiment":
                roots.add(span.id)
        for span in self.spans:
            if span.parent in roots:
                top_level += span.end - span.start

        def pct(seconds: float) -> float:
            return 100.0 * seconds / request_wall

        def mean(total: float, n: int) -> float:
            return total / n if n else 0.0

        out = {
            "cli.load_config.s": mean(incl["cli.load_config"],
                                      calls["cli.load_config"]),
            "cli.run_experiment.calls": calls["cli.run_experiment"],
            "cli.run_experiment.self_s": mean(self_s["cli.run_experiment"],
                                              calls["cli.run_experiment"]),
            "cli.run_experiment.overlap": top_level / request_wall,
        }
        for module, names in SELF_PCT.items():
            for name in names:
                label = f"{module}.{name}"
                out[f"{label}.calls"] = calls[label]
                out[f"{label}.self_pct"] = pct(self_s[label])
        for label in INCLUSIVE:
            out[f"{label}.calls"] = calls[label]
            out[f"{label}.pct"] = pct(incl[label])
        runs = self.minimize_runs
        best: dict = {}
        for group, fun, _ in runs:
            best[group] = min(best.get(group, fun), fun)
        useful = sum(fun <= best[group] + USEFUL_TOL for group, fun, _ in runs)
        out["encodings.minimize.nfev"] = sum(n for *_, n in runs)
        out["encodings.minimize.useful_frac"] = mean(useful, len(runs))
        for key in ("synthesis.plan.steps", "synthesis.plan.repetitions.max",
                    "synthesis.runtime_warnings", "hilbert.make_basis.states"):
            out[key] = self.counts[key]
        out["hilbert.drift_warnings"] = self._drift.count
        hits, misses = cache
        out["schwinger.hop_cache.hits"] = hits
        out["schwinger.hop_cache.misses"] = misses
        out["schwinger.hop_cache.hit_frac"] = mean(hits, hits + misses)
        out["prng.next_u64.calls"] = self._next_u64[0]
        out["prng.next_u64.pct"] = pct(self._next_u64[1])
        busy = sum(module_self.values())
        for module in SPAN_MODULES:
            out[f"share.{module}"] = 100.0 * mean(module_self[module], busy)
        return out


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
