"""Spans and counters recorded from outside the library.

The tracer rebinds public functions of ``plrvo`` at the names where the
library looks them up (a ``from .x import f`` copy has to be rebound in the
importing module, not in ``x``), times every call, and restores the original
bindings when tracing ends. Nothing under ``src/`` changes.

Each span knows the span that caused it: the innermost open span on its own
thread, or, for a span that starts on a worker thread with nothing open, the
innermost open span of the thread that created the tracer (the accountant's
pool threads work for the span that called the pool). A span's self time is
its duration minus the length of the union of its direct children's
intervals, so children that overlap on two threads are not counted twice.
Spans are folded into per-name totals as they end rather than kept, because
the optimizer workload makes millions of leaf calls.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from collections import defaultdict

import numpy as np


class _Span:
    __slots__ = ("name", "parent", "owner", "start", "children", "child_s", "foreign")

    def __init__(self, name: str, parent: "_Span | None", owner: list):
        self.name = name
        self.parent = parent
        self.owner = owner          # span stack of the thread that opened it
        self.children = None        # flat (start, end) pairs of direct children
        self.child_s = 0.0          # summed durations of same-thread children
        self.foreign = False        # a child ran on another thread
        self.start = time.perf_counter()


def _union_length(pairs: array, lo: float, hi: float) -> float:
    """Length of the union of [start, end] intervals, clipped to [lo, hi]."""
    iv = np.frombuffer(pairs, dtype=np.float64).reshape(-1, 2)
    iv = np.clip(iv[np.argsort(iv[:, 0], kind="stable")], lo, hi)
    starts, ends = iv[:, 0], iv[:, 1]
    reach = np.maximum.accumulate(ends)
    covered_from = np.maximum(starts, np.concatenate(([lo], reach[:-1])))
    return float(np.sum(np.maximum(ends - covered_from, 0.0)))


class Tracer:
    """Thread-safe per-name span totals (calls, busy seconds, self seconds)
    and named counters. ``busy_s`` sums span durations, so a layer that runs
    on two threads at once accrues thread-seconds.

    Children on the parent's own thread run one after another, so their
    union is their summed duration; only a span with a child on another
    thread needs the interval union."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._per_thread: list[dict[str, list[float]]] = []
        self._root_stack = self._thread_state()[0]
        self.counts: dict[str, float] = defaultdict(float)

    def _thread_state(self) -> tuple[list, dict]:
        local = self._local
        try:
            return local.stack, local.totals
        except AttributeError:
            local.stack, local.totals = [], {}
            with self._lock:
                self._per_thread.append(local.totals)
            return local.stack, local.totals

    @property
    def spans(self) -> dict[str, list[float]]:
        """name -> [calls, busy_s, self_s] over every thread; read it after
        the traced work has finished."""
        merged: dict[str, list[float]] = {}
        with self._lock:
            for totals in self._per_thread:
                for name, (calls, busy, own) in totals.items():
                    acc = merged.setdefault(name, [0, 0.0, 0.0])
                    acc[0] += calls
                    acc[1] += busy
                    acc[2] += own
        return merged

    def begin(self, name: str) -> _Span:
        stack, _ = self._thread_state()
        if stack:
            parent = stack[-1]
        else:
            root = self._root_stack
            parent = root[-1] if root else None
        span = _Span(name, parent, stack)
        stack.append(span)
        return span

    def end(self, span: _Span) -> None:
        now = time.perf_counter()
        stack, totals = self._thread_state()
        stack.pop()
        duration = now - span.start
        if span.foreign:
            with self._lock:
                covered = _union_length(span.children, span.start, now)
        else:
            covered = span.child_s
        acc = totals.get(span.name)
        if acc is None:
            acc = totals[span.name] = [0, 0.0, 0.0]
        acc[0] += 1
        acc[1] += duration
        acc[2] += duration - covered
        parent = span.parent
        if parent is not None:
            with self._lock:
                if parent.children is None:
                    parent.children = array("d")
                parent.children.extend((span.start, now))
                if parent.owner is stack:
                    parent.child_s += duration
                else:
                    parent.foreign = True

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open on this thread."""
        return any(s.name == name for s in self._thread_state()[0])

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` timed as span ``name``; ``on_call(tracer, args, kwargs)``
        records counters taken from the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced


# ---------------------------------------------------------------------------
# Where each layer is looked up, and what its calls count.

def _orders(lambdas) -> list[int]:
    return sorted({int(lam) for lam in lambdas})


def _count_cells(tracer: Tracer, args, kwargs) -> None:
    job = args[1] if len(args) > 1 else kwargs["job"]
    lambdas = _orders(args[2] if len(args) > 2 else kwargs["lambdas"])
    n = job.model_dim_N
    tracer.add("accountant.mix_cells", n * sum(lam + 2 for lam in lambdas))
    tracer.add("accountant.kernel_cells", n * (lambdas[-1] + 1))


def _count_orders(tracer: Tracer, args, kwargs) -> None:
    lambdas = args[2] if len(args) > 2 else kwargs["lambdas"]
    tracer.add("accountant.orders_evaluated", len(_orders(lambdas)))


def _count_elements(tracer: Tracer, args, kwargs) -> None:
    lo, hi = args[1], args[2]
    tracer.add("majorization.coordinates.elements", hi - lo + 1)


def _count_coords(tracer: Tracer, args, kwargs) -> None:
    n = args[1] if len(args) > 1 else kwargs["n"]
    tracer.add("sampler.coords", n)


def _count_gamma_draws(tracer: Tracer, args, kwargs) -> None:
    size = args[2] if len(args) > 2 else kwargs["size"]
    tracer.add("sampler.gamma_draws", size)


def _count_uniforms(tracer: Tracer, fn):
    """Uniforms drawn while a noise draw is open (``sampler.uniforms``; the
    Laplace inverse CDF takes one per coordinate), and the part of them the
    gamma rejection sampler draws (``sampler.gamma_uniforms``; its polar
    normals, acceptance tests and k < 1 boost). Batch sampling and data
    generation are not counted."""

    @functools.wraps(fn)
    def counted(self, size):
        if tracer.inside("sampler.sample_plrv_noise"):
            tracer.add("sampler.uniforms", size)
            if tracer.inside("sampler.sample_gamma_vector"):
                tracer.add("sampler.gamma_uniforms", size)
        return fn(self, size)

    return counted


def _sites(plrvo_modules: dict) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, on_call) for every rebinding, innermost
    first where one attribute is wrapped twice."""
    accountant = plrvo_modules["accountant"]
    optimizer = plrvo_modules["optimizer"]
    dpsgd = plrvo_modules["dpsgd"]
    sampler = plrvo_modules["sampler"]
    cli = plrvo_modules["cli"]
    mset = plrvo_modules["majorization"].MajorizationSet
    return [
        (accountant, "account", "accountant.account", None),
        (dpsgd, "account", "accountant.account", None),
        (optimizer, "account", "accountant.account", None),
        (optimizer, "account", "optimizer.c2", None),
        (accountant, "per_step_alpha_batch", "accountant.per_step_alpha_batch", _count_orders),
        (accountant, "minimize_epsilon_lazy", "accountant.minimize_epsilon_lazy", None),
        (accountant, "build_curve", "accountant.build_curve", None),
        (accountant, "plrv_multivariate_log_moments",
         "accountant.plrv_multivariate_log_moments", _count_cells),
        (accountant, "compose", "accountant.conversion", None),
        (accountant, "epsilon_from_delta", "accountant.conversion", None),
        (accountant, "_grid_min", "accountant.conversion", None),
        (mset, "coordinates", "majorization.coordinates", _count_elements),
        (accountant, "log_binomial", "numerics.log_binomial", None),
        (optimizer, "regularized_lower_gamma", "numerics.regularized_lower_gamma", None),
        (accountant, "validate", "params.validate", None),
        (optimizer, "solve", "optimizer.solve", None),
        (optimizer, "check_feasible", "optimizer.check_feasible", None),
        (dpsgd, "sample_plrv_noise", "sampler.sample_plrv_noise", _count_coords),
        (sampler, "sample_gamma_vector", "sampler.sample_gamma_vector", _count_gamma_draws),
        (sampler, "sample_laplace_vector", "sampler.sample_laplace_vector", None),
        (sampler, "standard_normal", "sampler.standard_normal", None),
        (dpsgd, "noisy_step", "dpsgd.noisy_step", None),
        (dpsgd, "poisson_subsample", "dpsgd.poisson_subsample", None),
        (dpsgd, "train", "dpsgd.train", None),
        (cli, "load_job_file", "cli.load_job_file", None),
    ]


class installed:
    """Context manager: rebind every site to a traced wrapper, restore on
    exit. ``missing`` lists sites whose attribute does not exist."""

    def __init__(self, tracer: Tracer, plrvo_modules: dict):
        self.tracer = tracer
        self.modules = plrvo_modules
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        try:
            for owner, attr, name, on_call in _sites(self.modules):
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                self._rebind(owner, attr, self.tracer.wrap(name, fn, on_call))
            source = self.modules["sampler"].DeterministicSource
            self._rebind(source, "uniform", _count_uniforms(self.tracer, source.uniform))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# The per-layer metrics: name -> (unit, better, which end-to-end metric the
# layer metric should move, on which workload).

ACC = "job_s_p50,batch_s on sweep-paper-1e5,account-paper-1e6"
SWEEP = "job_s_p50,batch_s on sweep-paper-1e5"
OPT = "batch_s on optimize-crit8"
OPT_TRAIN = "batch_s on optimize-crit8,train-plrvo"
TRAIN = "batch_s on train-plrvo"

LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "accountant.plrv_multivariate_log_moments.calls": ("count", "lower", ACC),
    "accountant.plrv_multivariate_log_moments.busy_s": ("s", "lower", ACC),
    "accountant.plrv_multivariate_log_moments.self_s": ("s", "lower", ACC),
    "accountant.mix_cells": ("count", "lower", ACC),
    "accountant.kernel_cells": ("count", "lower", ACC),
    "accountant.cells_per_s": ("1/s", "higher", ACC),
    "accountant.account.calls": ("count", "lower", SWEEP),
    "accountant.account.busy_s": ("s", "lower", SWEEP),
    "accountant.per_step_alpha_batch.calls": ("count", "lower", SWEEP),
    "accountant.per_step_alpha_batch.busy_s": ("s", "lower", SWEEP),
    "accountant.minimize_epsilon_lazy.calls": ("count", "lower", SWEEP),
    "accountant.minimize_epsilon_lazy.busy_s": ("s", "lower", SWEEP),
    "accountant.build_curve.calls": ("count", "lower", SWEEP),
    "accountant.build_curve.busy_s": ("s", "lower", SWEEP),
    "accountant.orders_evaluated": ("count", "lower", SWEEP),
    "accountant.conversion_s": ("s", "lower", SWEEP),
    "accountant.thread_speedup": ("ratio", "higher", "batch_s,cpu_s on account-paper-1e6"),
    "majorization.coordinates.calls": ("count", "lower", "batch_s,peak_rss_mb on account-paper-1e6"),
    "majorization.coordinates.elements": ("count", "lower", "batch_s,peak_rss_mb on account-paper-1e6"),
    "majorization.coordinates.busy_s": ("s", "lower", "batch_s,peak_rss_mb on account-paper-1e6"),
    "numerics.log_binomial.calls": ("count", "lower", OPT),
    "numerics.log_binomial.busy_s": ("s", "lower", OPT),
    "numerics.regularized_lower_gamma.calls": ("count", "lower", OPT_TRAIN),
    "numerics.regularized_lower_gamma.busy_s": ("s", "lower", OPT_TRAIN),
    "params.validate.calls": ("count", "lower", OPT),
    "optimizer.solve.busy_s": ("s", "lower", OPT_TRAIN),
    "optimizer.solve.self_s": ("s", "lower", OPT_TRAIN),
    "optimizer.c2_calls": ("count", "lower", OPT_TRAIN),
    "optimizer.c2_s": ("s", "lower", OPT_TRAIN),
    "optimizer.check_feasible.busy_s": ("s", "lower", OPT_TRAIN),
    "sampler.sample_plrv_noise.calls": ("count", "lower", TRAIN),
    "sampler.sample_plrv_noise.busy_s": ("s", "lower", TRAIN),
    "sampler.sample_gamma_vector.calls": ("count", "lower", TRAIN),
    "sampler.sample_gamma_vector.busy_s": ("s", "lower", TRAIN),
    "sampler.sample_laplace_vector.calls": ("count", "lower", TRAIN),
    "sampler.sample_laplace_vector.busy_s": ("s", "lower", TRAIN),
    "sampler.standard_normal.calls": ("count", "lower", TRAIN),
    "sampler.standard_normal.busy_s": ("s", "lower", TRAIN),
    "sampler.uniforms": ("count", "lower", TRAIN),
    "sampler.coords": ("count", "higher", TRAIN),
    "sampler.uniforms_per_coord": ("ratio", "lower", TRAIN),
    "sampler.gamma_uniforms_per_draw": ("ratio", "lower", TRAIN),
    "dpsgd.noisy_step.calls": ("count", "lower", TRAIN),
    "dpsgd.noisy_step.busy_s": ("s", "lower", TRAIN),
    "dpsgd.noisy_step.self_s": ("s", "lower", TRAIN),
    "dpsgd.poisson_subsample.busy_s": ("s", "lower", TRAIN),
    "dpsgd.train.self_s": ("s", "lower", TRAIN),
    "cli.load_job_file.busy_s": ("s", "lower", "setup_s on every workload"),
    "cli.self_s": ("s", "lower", "job_s_p50 on every workload"),
    "trace.overhead_ratio": ("ratio", "lower", "none: cost of tracing itself"),
}

JOB_SPAN = "cli.job"


def layer_values(spans: dict[str, list[float]], counts: dict[str, float],
                 thread_speedup: float, overhead_ratio: float) -> dict[str, float]:
    """Every LAYER_METRICS value from one traced batch's ``Tracer.spans`` and
    ``Tracer.counts``."""
    counts = defaultdict(float, counts)
    column = {"calls": 0, "busy_s": 1, "self_s": 2}

    def total(name: str, field: str) -> float:
        return float(spans[name][column[field]]) if name in spans else 0.0

    values: dict[str, float] = {}
    for metric in LAYER_METRICS:
        base, _, field = metric.rpartition(".")
        if field in column:
            values[metric] = total(base, field)
    kernel_self = total("accountant.plrv_multivariate_log_moments", "self_s")
    cells = counts["accountant.mix_cells"] + counts["accountant.kernel_cells"]
    coords = counts["sampler.coords"]
    gamma_draws = counts["sampler.gamma_draws"]
    values.update({
        "accountant.mix_cells": counts["accountant.mix_cells"],
        "accountant.kernel_cells": counts["accountant.kernel_cells"],
        "accountant.cells_per_s": cells / kernel_self if kernel_self > 0 else 0.0,
        "accountant.orders_evaluated": counts["accountant.orders_evaluated"],
        "accountant.conversion_s": total("accountant.conversion", "busy_s"),
        "accountant.thread_speedup": thread_speedup,
        "majorization.coordinates.elements": counts["majorization.coordinates.elements"],
        "optimizer.c2_calls": total("optimizer.c2", "calls"),
        "optimizer.c2_s": total("optimizer.c2", "busy_s"),
        "sampler.uniforms": counts["sampler.uniforms"],
        "sampler.coords": coords,
        "sampler.uniforms_per_coord": counts["sampler.uniforms"] / coords if coords else 0.0,
        "sampler.gamma_uniforms_per_draw": (counts["sampler.gamma_uniforms"] / gamma_draws
                                            if gamma_draws else 0.0),
        "cli.self_s": total(JOB_SPAN, "self_s"),
        "trace.overhead_ratio": overhead_ratio,
    })
    return values
