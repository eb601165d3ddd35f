"""Span recorder for the traced benchmark pass, and its wiring into fragsim.

Wrappers are installed from outside the package, at the names callers look
up at call time (``fragsim.suites.run``, ``fragsim.simulator.dislocate``,
the law-class methods, ...), so nothing under ``src/`` knows about tracing.
Each span records its name, start, end, parent span and thread. Spans live
in flat per-thread arrays while the pass runs and are folded into per-name
call counts and self times afterwards; a span's self time is its duration
minus the durations of its child spans on the same thread.

The wrappers draw no random numbers and change no argument or result, so a
traced pass must produce byte-identical outputs to an untraced one.
"""

import contextlib
import functools
import importlib
import threading
import time
from array import array

import numpy as np


class WiringError(RuntimeError):
    """A name the span table wraps no longer exists, or a span stayed idle."""


class _ThreadLog:
    """Spans and exact counters of one thread; only that thread writes here."""

    def __init__(self):
        self.thread = threading.get_ident()
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = {}


class Tracer:
    def __init__(self):
        self._ids = {}
        self._local = threading.local()
        self._logs = []
        self._lock = threading.Lock()

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
            self._local.log = log
        return log

    def span(self, name, fn, hook=None):
        """Wrap fn in a span; hook(counts, args, kwargs, result) updates counters."""
        sid = self._ids.setdefault(name, len(self._ids))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = self._log()
            idx = len(log.name)
            log.name.append(sid)
            log.parent.append(log.stack[-1] if log.stack else -1)
            log.start.append(clock())
            log.end.append(0.0)
            log.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                log.end[idx] = clock()
                log.stack.pop()
            if hook is not None:
                hook(log.counts, args, kwargs, out)
            return out

        return traced

    def counter(self, fn, hook):
        """Wrap fn with a counter hook only, no span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook(self._log().counts, args, kwargs, out)
            return out

        return counted

    def layers(self):
        """{span name: (calls, self seconds)} over every thread."""
        names = sorted(self._ids, key=self._ids.get)
        calls = np.zeros(len(names))
        self_s = np.zeros(len(names))
        for log in self._logs:
            sid = np.frombuffer(log.name, dtype=np.int32)
            if sid.size == 0:
                continue
            parent = np.frombuffer(log.parent, dtype=np.int64)
            dur = np.frombuffer(log.end) - np.frombuffer(log.start)
            nested = parent >= 0
            child = np.bincount(parent[nested], weights=dur[nested],
                                minlength=sid.size)
            calls += np.bincount(sid, minlength=len(names))
            self_s += np.bincount(sid, weights=dur - child,
                                  minlength=len(names))
        return {n: (int(c), float(s)) for n, c, s in zip(names, calls, self_s)}

    def counts(self):
        """Counters summed over threads; keys ending in _hwm take the max."""
        total = {}
        for log in self._logs:
            for key, value in log.counts.items():
                if key.endswith("_hwm"):
                    total[key] = max(total.get(key, value), value)
                else:
                    total[key] = total.get(key, 0) + value
        return total


# ------------------------------------------------------------ span table


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _count_event(counts, args, _kwargs, out):
    _add(counts, "events", 1)
    _add(counts, "parts_sum", len(args[0].parts))
    counts["parts_hwm"] = max(counts.get("parts_hwm", 0), len(out.parts))


def _count_replicas(counts, args, kwargs, _out):
    _add(counts, "replicas", args[1] if len(args) > 1 else kwargs["n"])


def _count_labels(counts, args, _kwargs, _out):
    _add(counts, "labels", len(args[1]))


_LAWS = ("FiniteAtomic", "BinaryPowerLaw", "BrennanDurrett")

# span name -> the (module, attribute) names callers resolve at call time.
# A "module:Class" owner patches a method on the class, which every
# instance looks up.
SPANS = {
    "suites.run_suite": [("fragsim.suites", "run_suite")],
    "suites.run_replicas": [("fragsim.suites", "run_replicas")],
    "rng.replica_rng": [("fragsim.suites", "replica_rng"),
                        ("fragsim.cli", "replica_rng")],
    "simulator.run": [("fragsim.suites", "run"), ("fragsim.cli", "run")],
    "simulator.next_event": [("fragsim.simulator", "next_event")],
    "simulator.write_csv": [("fragsim.cli", "write_event_csv"),
                            ("fragsim.cli", "write_snapshot_csv")],
    "measures.truncated_mass": [("fragsim.measures:" + c, "truncated_mass")
                                for c in _LAWS],
    "measures.sample_dislocation": [("fragsim.measures:" + c,
                                     "sample_dislocation") for c in _LAWS],
    "ranked_state.dislocate": [("fragsim.simulator", "dislocate"),
                               ("fragsim.suites", "dislocate")],
    "partitions.paintbox": [("fragsim.suites", "paintbox")],
    "partitions.partition_step": [("fragsim.suites", "partition_step")],
    "partitions.frequencies": [("fragsim.suites", "frequencies")],
    "stats.ks": [("fragsim.suites", "ks_stat"),
                 ("fragsim.suites", "ks_two_sample")],
    "stats.chi_square": [("fragsim.suites", "pooled_chi_square"),
                         ("fragsim.suites", "poisson_pmf_test")],
    "asymptotics.cdf": [("fragsim.suites", "extreme_cdf"),
                        ("fragsim.suites", "frechet_k_cdf"),
                        ("fragsim.suites", "record_cdf")],
    "asymptotics.normalize_lambda2": [("fragsim.suites", "normalize_lambda2")],
    "asymptotics.run_subordinator": [("fragsim.suites", "run_subordinator")],
}
# The step kernel is a closure, so its factory is wrapped to span what it returns.
STEP_KERNEL = "simulator.step_kernel"
SPAN_NAMES = tuple(SPANS) + (STEP_KERNEL,)

# Exact counters: only the event loop's own dislocate lookup counts events,
# so the conservation suite's replay of logged events is not counted twice.
_HOOKS = {
    ("fragsim.simulator", "dislocate"): _count_event,
    ("fragsim.suites", "run_replicas"): _count_replicas,
}
_COUNTERS = {("fragsim.partitions", "_paint_over"): _count_labels}


def _owner(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _original(owner, path, attr):
    if attr not in vars(owner):
        raise WiringError(f"{path} has no attribute {attr!r}; the benchmark's "
                          f"span table no longer matches the code")
    return vars(owner)[attr]


@contextlib.contextmanager
def installed(tracer):
    """Patch the span table in for the duration; restore the originals after."""
    saved = []

    def patch(path, attr, make):
        owner = _owner(path)
        fn = _original(owner, path, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def kernel_factory(factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return tracer.span(STEP_KERNEL, factory(*args, **kwargs))
        return make

    try:
        for name, targets in SPANS.items():
            for path, attr in targets:
                hook = _HOOKS.get((path, attr))
                patch(path, attr, lambda fn, n=name, h=hook: tracer.span(n, fn, h))
        for (path, attr), hook in _COUNTERS.items():
            patch(path, attr, lambda fn, h=hook: tracer.counter(fn, h))
        patch("fragsim.suites", "make_step_kernel", kernel_factory)
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
