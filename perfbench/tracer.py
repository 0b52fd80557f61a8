"""Call-boundary tracing for the benchmark's traced run.

The tracer wraps public calls of the simulator's layers from the outside:
module attributes and class methods are replaced by thin wrappers while the
traced phase runs and restored afterwards, so ``src/repro`` itself carries
no benchmark code.  Wrappers resolve at call time because the program looks
its callees up at call time (module attributes, class attributes), which is
also why a module that imported a name into its own namespace is patched
there (``repro.parallel.runner.execute_job``, ``repro.parallel.jobs.summarize``).

Spans live in memory as tuples and are turned into ``repro.obs`` span
records (``type``, ``name``, ``ts``, ``seconds``, ``pid``, ``source``) at the
end, so ``repro.obs.flight.write_chrome_trace`` and ``repro obs timeline``
render them unchanged.
"""

import contextlib
import functools
import importlib
import time

__all__ = ["TARGETS", "Tracer", "self_times"]

_clock = time.perf_counter


def _step_post(record, args, kwargs, result):
    """Stage ``step_batch``: count rows whose color changed (output != input)."""
    state = args[2] if len(args) > 2 else kwargs["state"]
    changed = None
    for old, new in zip(state, result):
        diff = old != new
        changed = diff if changed is None else (changed | diff)
    rows = int(state[0].shape[0]) if state else 0
    record["changed"] = int(changed.sum()) if changed is not None else 0
    record["rows"] = rows


def _gather_post(record, args, kwargs, result):
    """``CSRAdjacency.gather``: computed bytes = index stream + gathered values."""
    csr = args[0]
    record["bytes"] = int(csr.indices.nbytes) + int(result.nbytes)


def _selfstab_step_post(record, args, kwargs, result):
    """Batch selfstab round: changed set size over live vertices."""
    engine = args[0]
    record["changed"] = len(result)
    record["rows"] = len(engine.graph.vertices())


def _rounds_post(record, args, kwargs, result):
    """``run_to_quiescence``: the round count it returns."""
    record["rounds"] = int(result)


# (module, attribute path, span name, post hook).  Post hooks run after the
# span closes, inside a ``trace.bookkeeping`` span of their own, so their
# cost is visible and never inflates the wrapped layer or its parent.
TARGETS = [
    ("repro.graphgen", "random_regular", "graphgen.random_regular", None),
    ("repro.oocore.writers", "ensure_sharded", "oocore.writers.ensure_sharded", None),
    ("repro.runtime.graph", "DynamicGraph.from_static", "runtime.graph.from_static", None),
    ("repro.parallel.runner", "execute_job", "parallel.jobs.execute_job", None),
    ("repro.parallel.jobs", "summarize", "runtime.results.summarize", None),
    ("repro.runtime.fast_engine", "BatchColoringEngine.run", "runtime.fast_engine.run", None),
    ("repro.linial.core", "LinialColoring.step_batch", "linial.step", _step_post),
    ("repro.core.ag", "AdditiveGroupColoring.step_batch", "core.ag.step", _step_post),
    ("repro.core.reductions", "StandardColorReduction.step_batch", "core.reductions.step", _step_post),
    ("repro.core.hybrid", "ExactDeltaPlusOneHybrid.step_batch", "core.hybrid.step", _step_post),
    ("repro.linial.core", "LinialColoring.batch_is_final", "runtime.fast_engine.final_check", None),
    ("repro.core.ag", "AdditiveGroupColoring.batch_is_final", "runtime.fast_engine.final_check", None),
    ("repro.core.reductions", "StandardColorReduction.batch_is_final", "runtime.fast_engine.final_check", None),
    ("repro.core.hybrid", "ExactDeltaPlusOneHybrid.batch_is_final", "runtime.fast_engine.final_check", None),
    ("repro.runtime.csr", "CSRAdjacency.gather", "runtime.csr.gather", _gather_post),
    ("repro.selfstab.engine", "SelfStabEngine.run_to_quiescence", "selfstab.run_to_quiescence", _rounds_post),
    ("repro.selfstab.fast_engine", "BatchSelfStabEngine.step", "selfstab.step", _selfstab_step_post),
    ("repro.selfstab.engine", "SelfStabEngine.step", "selfstab.scalar_step", None),
    ("repro.selfstab.fast_engine", "BatchSelfStabEngine.is_legal", "selfstab.is_legal", None),
    ("repro.selfstab.adversary", "FaultCampaign.corrupt_random_rams", "selfstab.inject", None),
    ("repro.selfstab.fast_engine", "BatchSelfStabEngine.add_edge", "selfstab.inject", None),
    ("repro.selfstab.fast_engine", "BatchSelfStabEngine.remove_edge", "selfstab.inject", None),
    ("repro.oocore.engine", "OocoreColoringEngine.run", "oocore.engine.run", None),
    ("repro.oocore.store", "ShardedCSRGraph.local", "oocore.store.local", None),
]


class Tracer:
    """In-memory span recorder with install/uninstall of call wrappers.

    A finished span is ``(span_id, parent_id, name, start, end, job,
    fields)``; ``job`` is the id of the job (or ``"setup"``) the span
    belongs to, ``fields`` holds counts attached by post hooks.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 1
        self._patches = []
        self.job = "setup"
        self.paused = False

    # -- spans ------------------------------------------------------------------

    def open(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        fields = {}
        self._stack.append((span_id, parent, name, _clock(), fields))
        return fields

    def close(self):
        span_id, parent, name, start, fields = self._stack.pop()
        self.spans.append((span_id, parent, name, start, _clock(), self.job, fields))

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-owned span (job roots, the setup phase)."""
        self.open(name)
        try:
            yield
        finally:
            self.close()

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name, post):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            fields = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if post is not None:
                tracer.open("trace.bookkeeping")
                try:
                    post(fields, args, kwargs, result)
                finally:
                    tracer.close()
            return result

        return functools.update_wrapper(wrapper, fn)

    @property
    def installed(self):
        """True while the wrappers are in place."""
        return bool(self._patches)

    def install(self):
        """Patch every target; a second call is a no-op."""
        if self._patches:
            return
        for module_name, path, name, post in TARGETS:
            owner = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, post))
            else:
                patched = self._wrap(raw, name, post)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, raw))

    def uninstall(self):
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- export -----------------------------------------------------------------

    def records(self, pid):
        """The spans as ``repro.obs`` span records, in completion order."""
        names = {span[0]: span[2] for span in self.spans}
        parents = {span[0]: span[1] for span in self.spans}

        def path(span_id):
            parts = []
            while span_id is not None:
                parts.append(names[span_id])
                span_id = parents.get(span_id)
            return "/".join(reversed(parts))

        out = []
        for span_id, parent, name, start, end, job, fields in self.spans:
            record = {
                "type": "span",
                "name": name,
                "path": path(span_id),
                "ts": start,
                "seconds": end - start,
                "pid": pid,
                "source": "perfbench.setup" if job == "setup" else "perfbench.jobs",
                "job": job,
                "span_id": span_id,
                "parent": parent,
            }
            record.update(fields)
            out.append(record)
        return out


def self_times(spans):
    """``{span_id: self seconds}``: duration minus the direct children's.

    Spans nest strictly (one thread, wrappers close in ``finally``), so the
    children's union is the sum of their durations.
    """
    child = {}
    for span_id, parent, _name, start, end, _job, _fields in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {
        span[0]: (span[4] - span[3]) - child.get(span[0], 0.0) for span in spans
    }
