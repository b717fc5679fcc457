"""Run-time span tracing of the polarchan modules, from outside the package.

``Tracer.install()`` replaces every public function of the six package
modules with a timing wrapper, in every ``polarchan`` module namespace that
holds the function (``cli`` and ``depolarizer`` keep their own references to
``propagate``, ``affine_map`` and others, and ``Waveplate.jones`` looks up
``waveplate_jones`` in ``bench_sim``).  ``uninstall()`` puts the originals
back, so timed runs never see a wrapper.

Spans stay in memory, one list per thread; ``write()`` dumps them once at the
end of a run.  A span's parent is the innermost open span on its own thread
or, for a thread that has none open (a ``--jobs 2`` sweep worker), the
innermost open span of the main thread.  Self time is a span's duration
minus the part of its interval that its children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("polar_core", "bench_sim", "depolarizer", "channel_analysis", "tomography", "cli")

#: names timed although they are not defined in the layer module itself;
#: ``tomography.minimize`` is scipy's L-BFGS-B driver, NLL evaluations included
EXTRA_NAMES = {"tomography": ("minimize",)}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    for name in EXTRA_NAMES.get(module.__name__.rsplit(".", 1)[-1], ()):
        out[name] = getattr(module, name)
    return out


class _ThreadLog:
    __slots__ = ("number", "spans", "stack", "counters")

    def __init__(self, number):
        self.number = number
        self.spans = []       # [name, start_ns, end_ns, parent_key, item]
        self.stack = []       # indices into spans of the open spans
        self.counters = defaultdict(int)


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self):
        self._local = threading.local()
        self._logs = []
        self._logs_lock = threading.Lock()
        self._main = self._log()
        self._patches = []    # (namespace dict, name, original)
        self.current_item = None

    # -- recording ---------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._logs_lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def _parent(self, log):
        if log.stack:
            return (log.number, log.stack[-1])
        main = self._main
        if log is not main and main.stack:
            return (main.number, main.stack[-1])
        return None

    @contextmanager
    def span(self, name):
        """Record a span around harness code."""
        log, idx = self._open(name)
        try:
            yield
        finally:
            self._close(log, idx)

    def _open(self, name):
        log = self._log()
        idx = len(log.spans)
        log.spans.append([name, time.perf_counter_ns(), 0, self._parent(log), self.current_item])
        log.stack.append(idx)
        return log, idx

    @staticmethod
    def _close(log, idx):
        log.spans[idx][2] = time.perf_counter_ns()
        log.stack.pop()

    def _wrap(self, qualname, func):
        hook = _HOOKS.get(qualname)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            log, idx = tracer._open(qualname)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(log, idx)
            if hook is not None:
                hook(log.counters, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if m is not None and (n == "polarchan" or n.startswith("polarchan."))]
        for layer in LAYERS:
            module = sys.modules[f"polarchan.{layer}"]
            for name, func in _public_functions(module).items():
                wrapper = self._wrap(f"{layer}.{name}", func)
                for ns in namespaces:
                    if ns.get(name) is func:
                        self._patches.append((ns, name, func))
                        ns[name] = wrapper

    def uninstall(self) -> None:
        for ns, name, func in reversed(self._patches):
            ns[name] = func
        self._patches = []

    # -- results -----------------------------------------------------------

    def all_spans(self):
        """Every recorded span as (key, name, start_ns, end_ns, parent_key, item)."""
        for log in self._logs:
            for idx, (name, start, end, parent, item) in enumerate(log.spans):
                yield (log.number, idx), name, start, end, parent, item

    def counters(self) -> dict:
        total = defaultdict(int)
        for log in self._logs:
            for key, value in log.counters.items():
                total[key] += value
        return dict(total)

    def summary(self):
        """Per-name calls and self time (ns), plus the parallel-overlap excess.

        The excess is the time by which child spans on different threads
        overlap each other; without threads it is zero, and the self times
        then sum exactly to the root spans' durations.
        """
        spans = list(self.all_spans())
        children = defaultdict(list)
        for key, _name, start, end, parent, _item in spans:
            if parent is not None:
                children[parent].append((start, end))
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        excess = 0
        for key, name, start, end, _parent, _item in spans:
            kids = children.get(key, ())
            covered = _union_length(kids, start, end)
            calls[name] += 1
            self_ns[name] += (end - start) - covered
            excess += sum(min(e, end) - max(s, start) for s, e in kids) - covered
        return dict(calls), dict(self_ns), excess

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for key, name, start, end, parent, item in self.all_spans():
                fh.write(json.dumps([list(key), name, start, end,
                                     list(parent) if parent else None, item]))
                fh.write("\n")


def _union_length(intervals, lo, hi) -> int:
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _count_kraus_ops(counters, kraus):
    counters["bench_sim.kraus_ops"] += len(kraus)


def _count_mle(counters, fit):
    counters["tomography.mle_iterations"] += int(fit.iterations)
    counters["tomography.mle_nonconverged"] += 0 if fit.converged else 1


#: counters that the hooks below fill in
COUNTERS = ("bench_sim.kraus_ops", "tomography.mle_iterations", "tomography.mle_nonconverged")

_HOOKS = {
    "bench_sim.propagate": _count_kraus_ops,
    "tomography.qpt_mle": _count_mle,
}
