"""Spans around calls into metagames, recorded from outside the package.

A :class:`Tracer` wraps the listed public functions and methods of
``metagames`` and records one span per call: name, wall-clock start and
end, the thread's CPU clock at start and end, parent span and thread.
Spans are kept in flat typed arrays (about 44 bytes each) and written out
once the run ends.

Two details matter for correct attribution:

- Names are patched wherever they are looked up, not only where they are
  defined. ``harness`` binds ``saddle_point`` and friends at import, and
  ``OMDLearner``'s Euclidean fast path calls ``metagames.learners.project_simplex``,
  so every ``metagames`` module attribute bound to a traced function is
  replaced.
- The span stack is thread-local. ``compare_arms`` runs arms on a
  ``ThreadPoolExecutor``; the executor is swapped for one that hands the
  submitting thread's current span to the worker, so arm spans become
  children of the ``compare_arms`` span.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from array import array
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Layer boundaries: (module, attribute) with "Class.method" for methods.
TARGETS = (
    ("geometry", "project_simplex"),
    ("geometry", "prox_step"),
    ("games", "utility_gradient"),
    ("games", "lipschitz_constant"),
    ("games", "sample_game_sequence"),
    ("learners", "OMDLearner.play"),
    ("learners", "OMDLearner.update"),
    ("learners", "external_regret"),
    ("learners", "rvu_terms"),
    ("swapregret", "stationary_distribution"),
    ("swapregret", "SwapWrapper.update"),
    ("swapregret", "swap_regret"),
    ("meta", "ewoo_next_eta"),
    ("meta", "Initializer.observe"),
    ("meta", "Initializer.initialization"),
    ("meta", "ne_similarity_worst"),
    ("meta", "kl_anchor_variance"),
    ("metrics", "saddle_point"),
    ("metrics", "duality_gap"),
    ("metrics", "ne_gap"),
    ("stackelberg", "run_meta_stackelberg"),
    ("stackelberg", "defender_payoff"),
    ("stackelberg", "build_extreme_points"),
    ("harness", "run_experiment"),
    ("harness", "compare_arms"),
    ("harness", "make_learner"),
    ("harness", "write_records_csv"),
    ("harness", "write_task_summaries"),
    ("cli", "main"),
)


def _saddle_point_bytes(tracer, args, kwargs):
    game = args[0] if args else kwargs["game"]
    tracer.distinct["metrics.saddle_point"].add(game.A.tobytes())


def _records_csv_bytes(tracer, args, kwargs):
    path = args[0] if args else kwargs["path"]
    tracer.counters["harness.write_records_csv.bytes"] += os.path.getsize(path)


# Argument observers, run after the call and outside its span.
OBSERVERS = {
    "metrics.saddle_point": _saddle_point_bytes,
    "harness.write_records_csv": _records_csv_bytes,
}


class Tracer:
    """In-memory span recorder with thread-local span stacks."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.thread = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu_start = array("d")
        self.cpu_end = array("d")
        self.counters = defaultdict(int)
        self.distinct = defaultdict(set)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_ids = {}
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.tid
        except AttributeError:
            with self._lock:
                tid = self._thread_ids.setdefault(threading.get_ident(), len(self._thread_ids))
            local.stack, local.tid = [-1], tid
            return local.stack, tid

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def current(self):
        """Index of the innermost open span on this thread, or -1."""
        return self._state()[0][-1]

    def run_under(self, parent, fn, *args, **kwargs):
        """Run ``fn`` on this thread with ``parent`` as the enclosing span."""
        stack, _ = self._state()
        saved = stack[:]
        stack[:] = [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    def wrap(self, name, fn):
        nid = self.name_id(name)
        observe = OBSERVERS.get(name)
        clock, cpu_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, tid = self._state()
            with self._lock:
                idx = len(self.start)
                self.name.append(nid)
                self.parent.append(stack[-1])
                self.thread.append(tid)
                self.start.append(0.0)
                self.end.append(0.0)
                self.cpu_start.append(0.0)
                self.cpu_end.append(0.0)
            stack.append(idx)
            self.start[idx] = clock()
            self.cpu_start[idx] = cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.cpu_end[idx] = cpu_clock()
                self.end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, package="metagames", targets=TARGETS):
        """Wrap every target wherever a ``package`` module binds it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for mod_name, attr in targets:
            mod = sys.modules[f"{package}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, orig), orig)
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped, orig)
        tracer = self

        class ContextPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_under, tracer.current(), fn, *args, **kwargs)

        for m in modules:
            if vars(m).get("ThreadPoolExecutor") is ThreadPoolExecutor:
                self._set(m, "ThreadPoolExecutor", ContextPool, ThreadPoolExecutor)

    def _set(self, owner, key, new, old):
        setattr(owner, key, new)
        self._undo.append((owner, key, old))

    def uninstall(self):
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def arrays(self, lo=0, hi=None):
        """Spans [lo, hi) as numpy arrays; parents stay global indices."""
        hi = len(self.start) if hi is None else hi
        fields = ("name", "parent", "thread", "start", "end", "cpu_start", "cpu_end")
        return {f: np.array(getattr(self, f)[lo:hi]) for f in fields}

    def save(self, path):
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, offset=0):
    """Per-span self time in thread CPU seconds.

    A span's CPU time on its own thread, minus that of its children on the
    same thread. Children on other threads (pool workers) spend other
    threads' CPU, so overlapping spans of different threads never mix, and
    time a thread spends waiting for the GIL counts for no span.
    ``offset`` is the global index of ``spans``'s first row.
    """
    cpu = spans["cpu_end"] - spans["cpu_start"]
    own = cpu.copy()
    parent = spans["parent"] - offset
    inside = parent >= 0
    same = np.zeros(len(cpu), dtype=bool)
    same[inside] = spans["thread"][inside] == spans["thread"][parent[inside]]
    np.subtract.at(own, parent[same], cpu[same])
    return own


def root_coverage(spans, offset=0):
    """Wall time covered by spans that have no parent inside the window."""
    roots = spans["parent"] < offset
    return union_length(list(zip(spans["start"][roots], spans["end"][roots])))
