"""Span tracer that times spinstar's layers from outside the package.

The tracer rebinds names that one spinstar module looks up in another
(``spinstar.entangle.eof``, ``spinstar.entangle.solve_ivp``,
``spinstar.cli.distributed_pair`` ...) with wrappers that record a span:
``(name, start, end, span_id, parent_id, call_id, info)``.  Spans stay in
memory; :meth:`Tracer.write` stores them once, at the end of a run.

Process-pool workers are forked from a traced process, so they inherit
the wrappers and the open span stack: their root spans get the pool span
as parent.  Each worker dumps its spans to a file when it exits, and the
parent merges those files when the pool shuts down.  This relies on the
``fork`` start method, the default for ``ProcessPoolExecutor`` on Linux
up to Python 3.13.

A hooked name the program no longer has is recorded in
:attr:`Tracer.missing` and simply yields no spans.
"""

from __future__ import annotations

import builtins
import contextlib
import glob
import gzip
import importlib
import itertools
import json
import marshal
import multiprocessing.util
import os
import time

# (module, attribute, span name, info extractor name)
HOOKS = (
    ("spinstar.cli", "max_entanglement_scan", "entangle.scan", "extended"),
    ("spinstar.experiments", "max_entanglement_scan", "entangle.scan", "extended"),
    ("spinstar.entangle", "solve_ivp", "lindblad.integrate", "nfev"),
    ("spinstar.lindblad", "solve_ivp", "lindblad.integrate", "nfev"),
    ("spinstar.entangle", "eof", "entangle.eof", None),
    ("spinstar.entangle", "assert_density", "qops.assert_density", None),
    ("spinstar.entangle", "pair_state_from_sector", "entangle.pair_state", None),
    ("spinstar.entangle", "build_coupling_graph", "chain.graph", None),
    ("spinstar.entangle", "single_excitation_matrix", "chain.graph", None),
    ("spinstar.lindblad", "build_coupling_graph", "chain.graph", None),
    ("spinstar.lindblad", "single_excitation_matrix", "chain.graph", None),
    ("spinstar.lindblad", "evolve_chain", "lindblad.evolve_chain", None),
    ("spinstar.cli", "disorder_monte_carlo", "experiments.disorder", None),
    ("spinstar.cli", "loss_study", "experiments.loss", None),
    ("spinstar.cli", "distributed_pair", "experiments.distributed_pair", None),
    ("spinstar.cli", "gradient_coherence", "experiments.coherence", None),
    ("spinstar.cli", "estimate_gradient_xy", "experiments.estimate", None),
    ("spinstar.experiments", "ProcessPoolExecutor", "experiments.pool", "pool"),
    ("spinstar.cli", "open", "cli.write", "open"),
)

CALL_SPAN = "cli.main"


def _info_nfev(result, args, kwargs):
    # a dense-output solve marks the start of the tau* refinement phase
    return (int(getattr(result, "nfev", 0)), int(bool(kwargs.get("dense_output"))))


def _info_extended(result, args, kwargs):
    return int(bool(getattr(result, "extended", False)))


_INFO = {"nfev": _info_nfev, "extended": _info_extended}


class _WrittenFile:
    """File proxy that closes its ``cli.write`` span with the bytes on disk."""

    def __init__(self, tracer, fh, sid, parent, start):
        self._tracer, self._fh = tracer, fh
        self._span = (sid, parent, start)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self._span is None:
            return
        self._fh.flush()
        size = os.fstat(self._fh.fileno()).st_size
        self._fh.close()
        sid, parent, start = self._span
        self._span = None
        self._tracer.record("cli.write", start, time.perf_counter(), sid,
                            parent, size)


class Tracer:
    """Records spans at the layer boundaries listed in :data:`HOOKS`."""

    def __init__(self, workdir: str, hooks=HOOKS):
        self.workdir = workdir
        self.hooks = hooks
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._call_id = 0
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._saved: list = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- span bookkeeping ------------------------------------------------

    def _new_id(self) -> int:
        return self._pid * 10**9 + next(self._ids)

    def record(self, name, start, end, sid, parent, info=None) -> None:
        self.spans.append((name, start, end, sid, parent, self._call_id, info))

    @contextlib.contextmanager
    def call(self, call_id: int):
        """Root span of one CLI call."""
        self._call_id = call_id
        sid = self._new_id()
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.record(CALL_SPAN, start, time.perf_counter(), sid, None)

    def _wrap(self, name, fn, info):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._new_id()
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            value = info(result, args, kwargs) if info else None
            tracer.record(name, start, end, sid, parent, value)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_open(self):
        tracer = self

        def traced_open(file, mode="r", *args, **kwargs):
            fh = builtins.open(file, mode, *args, **kwargs)
            if not any(c in mode for c in "wax+"):
                return fh
            parent = tracer._stack[-1] if tracer._stack else None
            return _WrittenFile(tracer, fh, tracer._new_id(), parent,
                                time.perf_counter())

        return traced_open

    def _wrap_pool(self, cls):
        tracer = self

        class TracedPool(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._bench_sid = tracer._new_id()
                self._bench_parent = tracer._stack[-1] if tracer._stack else None
                self._bench_start = time.perf_counter()
                tracer._stack.append(self._bench_sid)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._bench_sid is not None:
                        tracer._stack.remove(self._bench_sid)
                        tracer.record("experiments.pool", self._bench_start,
                                      time.perf_counter(), self._bench_sid,
                                      self._bench_parent, self._max_workers)
                        self._bench_sid = None
                        tracer.collect_workers()

        TracedPool.__name__ = cls.__name__
        return TracedPool

    # -- installing and removing the hooks -------------------------------

    def install(self) -> None:
        for module_name, attr, name, info in self.hooks:
            module = importlib.import_module(module_name)
            if info == "open":
                original = module.__dict__.get("open", _ABSENT)
                setattr(module, "open", self._wrap_open())
            elif not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            else:
                original = getattr(module, attr)
                if info == "pool":
                    setattr(module, attr, self._wrap_pool(original))
                else:
                    setattr(module, attr, self._wrap(name, original, _INFO.get(info)))
            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            if original is _ABSENT:
                delattr(module, attr)
            else:
                setattr(module, attr, original)
        self._saved.clear()

    # -- pool workers ----------------------------------------------------

    def _after_fork(self) -> None:
        # the parent's spans stay with the parent; the open stack is kept
        # so that worker root spans hang under the pool span
        self.spans = []
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=10)

    def _worker_path(self, pid) -> str:
        return os.path.join(self.workdir, f"worker-{pid}.spans")

    def _dump_worker(self) -> None:
        with builtins.open(self._worker_path(os.getpid()), "wb") as fh:
            marshal.dump(self.spans, fh)

    def collect_workers(self) -> None:
        for path in sorted(glob.glob(self._worker_path("*"))):
            with builtins.open(path, "rb") as fh:
                self.spans.extend(marshal.load(fh))
            os.remove(path)

    def write(self, path: str) -> None:
        """Store every span, once, as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "span_id", "parent_id",
                                  "call_id", "info"],
                       "missing": self.missing, "spans": self.spans}, fh)


_ABSENT = object()
