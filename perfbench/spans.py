"""In-memory span tracing of driftlab's public functions, from outside src/.

A span is one call of a traced function. Each span records its inclusive
time, its self time (inclusive time minus the time of traced spans nested
inside it) and, for some functions, a count of the work it did (rows,
optimizer steps, EM iterations, bytes written). Spans are aggregated per
name as they close, so memory stays constant however many steps a run
takes.

A wrapper is installed in every driftlab namespace that holds the traced
function, because a module that did ``from .optim import apply_step`` looks
the name up in its own globals, not in ``driftlab.optim``.

Pool workers forked by the harness inherit the wrappers. A worker writes its
aggregates to a spool file whenever its outermost span closes, and the
parent merges the spool files with ``collect``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import Counter
from time import perf_counter


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _tree_bytes(root):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


def _fisher_rows(args, kwargs, result):
    return {"rows": kwargs.get("n_samples") or len(args[1])}


def _em(args, kwargs, result):
    max_iter = (args[3] if len(args) > 3 else kwargs["config"]).max_iter
    traces = result.ll_traces
    return {"em_iters": sum(len(t) for t in traces), "mixtures": len(traces),
            "converged": sum(len(t) < max_iter for t in traces)}


# (span name, defining module, attribute or Class.method, work counter)
SPANS = (
    ("config.load_config", "driftlab.config", "load_config", None),
    ("benchmarks.build_stream", "driftlab.benchmarks", "build_stream", None),
    ("harness.execute_run", "driftlab.harness", "execute_run", None),
    ("harness.select", "driftlab.harness", "_select_and_train",
     lambda a, k, r: {"candidates": len(a[1])}),
    ("harness.persist_results", "driftlab.harness", "persist_results",
     lambda a, k, r: {"bytes": sum(os.path.getsize(p) for p in r.values())}),
    ("strategies.save_checkpoint", "driftlab.strategies", "save_checkpoint",
     lambda a, k, r: {"bytes": _tree_bytes(a[1])}),
    ("strategies.Strategy.clone", "driftlab.strategies", "Strategy.clone", None),
    ("training.train_classifier", "driftlab.training", "train_classifier",
     lambda a, k, r: {"steps": r.n_steps}),
    ("training.estimate_fisher_diag", "driftlab.training", "estimate_fisher_diag",
     _fisher_rows),
    ("training.ewc_penalty", "driftlab.training", "ewc_penalty", None),
    ("nn.loss_and_grad", "driftlab.nn", "loss_and_grad", _rows),
    ("nn.predict", "driftlab.nn", "predict", _rows),
    ("optim.apply_step", "driftlab.optim", "apply_step", None),
    ("gmm.fit_generator", "driftlab.gmm", "fit_generator", _em),
    ("gmm.sample_buffer", "driftlab.gmm", "sample_buffer",
     lambda a, k, r: {"rows": len(r)}),
    ("kmeans.CentroidRouter.add_domain", "driftlab.kmeans", "CentroidRouter.add_domain",
     None),
    ("kmeans.CentroidRouter.predict", "driftlab.kmeans", "CentroidRouter.predict", _rows),
    ("pca.pca_project_2d", "driftlab.pca", "pca_project_2d", None),
    ("memory.update_replay_buffer", "driftlab.memory", "update_replay_buffer", None),
    ("memory.compose_replay_trainset", "driftlab.memory", "compose_replay_trainset",
     None),
    ("memory.build_router_trainset", "driftlab.memory", "build_router_trainset", None),
)

POOL_SPAN = "harness.pool"


class Tracer:
    """Aggregates spans by name; one per process, reused across repeats."""

    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.stats = {}        # span name -> Counter(calls, s, self_s, work counts)
        self.root_s = 0.0      # inclusive time of spans with no traced parent
        self._stack = []       # [start, nested span time] per open span
        self._worker = False
        self._spooled = 0
        self._undo = []
        os.register_at_fork(after_in_child=self._forked)

    # -- recording --------------------------------------------------------

    def _open(self):
        self._stack.append([perf_counter(), 0.0])

    def _close(self, name, work=None):
        start, nested = self._stack.pop()
        dt = perf_counter() - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Counter()
        st["calls"] += 1
        st["s"] += dt
        st["self_s"] += dt - nested
        if work:
            st.update(work)
        if self._stack:
            self._stack[-1][1] += dt
        else:
            self.root_s += dt
            if self._worker:
                self._spool()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name)
                raise
            self._close(name, count(args, kwargs, result) if count else None)
            return result
        return traced

    # -- pool workers -----------------------------------------------------

    def _forked(self):
        if self._undo:
            self._worker = True
            self.reset()

    def _spool(self):
        self._spooled += 1
        path = os.path.join(self.spool_dir, f"{os.getpid()}-{self._spooled}.json")
        with open(path, "w") as fh:
            json.dump(self.stats, fh)
        self.stats = {}

    def collect(self):
        """Merge what pool workers spooled into this process's aggregates."""
        for entry in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, entry)
            with open(path) as fh:
                for name, counts in json.load(fh).items():
                    self.stats.setdefault(name, Counter()).update(counts)
            os.remove(path)

    # -- installation -----------------------------------------------------

    def reset(self):
        self.stats = {}
        self.root_s = 0.0
        self._stack = []

    def install(self):
        """Wrap every traced function wherever driftlab looks it up."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, module, attr, count in SPANS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth], count))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(name, original, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "driftlab":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)
        harness = sys.modules["driftlab.harness"]
        self._set(harness, "ProcessPoolExecutor",
                  _traced_pool(self, harness.ProcessPoolExecutor))

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


def _traced_pool(tracer, base):
    """The executor class with its lifetime, start to joined workers, as a span."""

    class TracedPool(base):
        def __enter__(self):
            tracer._open()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer._close(POOL_SPAN)

    return TracedPool
