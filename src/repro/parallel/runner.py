"""The sharded job runner and the ``repro.run`` facade functions.

:class:`JobRunner` executes :class:`~repro.parallel.jobs.JobSpec` lists:

* **process mode** — a ``multiprocessing`` pool (``fork`` start method when
  the platform offers it, so custom :func:`~repro.parallel.jobs.register_algorithm`
  entries propagate to workers) with *chunked dispatch*: jobs are grouped
  into chunks and each chunk crosses the process boundary once, amortizing
  pickling over many small jobs.
* **inline mode** — the same jobs executed in this process, used for
  ``workers=1`` and as the graceful fallback whenever multiprocessing (or
  NumPy, whose absence makes fork-per-job overhead pointless) is
  unavailable.  Results are bit-identical either way, because a job is a
  pure function of its spec.

Per-job **timeout**: with ``timeout=T`` set, jobs are dispatched one per
task and the parent waits at most ``T`` seconds per result; on expiry the
pool is terminated and rebuilt (the only way to reclaim a stuck worker), the
offending job is charged one attempt, and undelivered jobs are re-dispatched
uncharged.  **Bounded retry**: a job that errors or times out is re-run up
to ``retries`` additional times before its failure becomes the final
outcome.

**Telemetry stitching**: when the parent's :mod:`repro.obs` collector is
live, each worker captures its own collector around the job and ships the
records back inside the result envelope; the runner absorbs every segment
into the parent stream *in job order* (tagged ``job=<job_id>``), then logs
one ``parallel.job`` event per job — so ``--telemetry out.jsonl`` on a
parallel CLI run produces a single merged stream.  Payloads also carry the
parent collector's trace context, so worker records share the run's
``trace_id`` and land on per-job ``(pid, source)`` timeline lanes.

**Worker health watchdog**: while telemetry is live, pool payloads carry a
:class:`~repro.obs.flight.HeartbeatBoard` path that workers touch between
chunk jobs; the parent polls the board while waiting on results and emits
``worker.stalled`` — *before* the per-job timeout fires — plus
``worker.restarted`` after a timeout pool rebuild and per-worker
utilization counters (``parallel.worker.jobs``).  ``REPRO_DISABLE_WATCHDOG=1``
(or ``watchdog=False``) switches the machinery off; with telemetry disabled
it never engages at all.
"""

import os

from repro.obs import core as obs
from repro.parallel.jobs import (
    JobOutcome,
    JobSpec,
    execute_chunk,
    execute_job,
)

__all__ = ["JobRunner", "run", "run_many", "run_sweep", "sweep_specs"]


def _default_workers():
    """Worker count when unspecified: one per CPU (floor 1)."""
    return max(1, os.cpu_count() or 1)


def _multiprocessing_context():
    """The preferred multiprocessing context, or None when unusable.

    ``fork`` keeps parent-registered algorithms visible in workers; platforms
    without it (Windows, some macOS configurations) get the default start
    method, and platforms where multiprocessing itself is broken (missing
    ``_multiprocessing``, sandboxed semaphores) report None — the runner
    then falls back to inline execution.
    """
    try:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()
    except (ImportError, ValueError, OSError):
        return None


class JobRunner:
    """Executes job specs across a worker pool, with timeout and retry.

    Parameters
    ----------
    workers:
        Process count (default: CPU count).  ``workers=1`` runs inline.
    timeout:
        Per-job wall-clock budget in seconds (None = unlimited).  Enforced
        only in process mode — inline execution cannot preempt a job.
    retries:
        Additional attempts for a job that errors or times out (default 1).
    chunk_size:
        Jobs per pool task.  Default: jobs split evenly, four chunks per
        worker (ceiling 1); forced to 1 when ``timeout`` is set so a reset
        charges exactly the offending job.
    mode:
        ``"auto"`` (process pool when useful and available, else inline),
        ``"process"`` (force the pool), or ``"inline"`` (force in-process).
    shm:
        ``None`` (zero-copy shared-memory fan-out when available — the
        default), ``True`` (require it; RuntimeError when unavailable), or
        ``False`` (force the by-value protocol).  Only meaningful in process
        mode; results are bit-identical either way.
    watchdog:
        ``None`` (heartbeat monitoring whenever telemetry is live in process
        mode — the default) or ``False`` (never).  ``REPRO_DISABLE_WATCHDOG=1``
        forces it off regardless.
    on_status:
        Optional callback ``fn(spec, status)`` observing per-job lifecycle
        transitions: ``"running"`` when a job is dispatched (again on each
        retry), then exactly one terminal ``"done"`` / ``"failed"`` /
        ``"timeout"`` as its envelope finalizes — *before* the whole batch
        completes, which is what lets the experiment service persist status
        rows while a batch is still in flight.  Callback exceptions are
        swallowed: observation must never take down the run.  The attribute
        is plain and may be reassigned between ``map_jobs`` calls.
    """

    def __init__(self, workers=None, timeout=None, retries=1, chunk_size=None, mode="auto", shm=None, watchdog=None, on_status=None):
        if mode not in ("auto", "process", "inline"):
            raise ValueError("unknown runner mode %r" % mode)
        self.workers = _default_workers() if workers is None else max(1, int(workers))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.chunk_size = chunk_size
        self.mode = mode
        self.shm = shm
        self.watchdog = watchdog
        self.on_status = on_status
        self._context = None
        self._pool = None
        self._manager = None
        self._watchdog = None

    def _notify(self, spec, status):
        """Report one lifecycle transition to ``on_status`` (never raises)."""
        if self.on_status is None:
            return
        try:
            self.on_status(spec, status)
        except Exception:
            pass


    # -- pool lifecycle ----------------------------------------------------------

    def _use_pool(self):
        """Decide process-vs-inline once per runner (memoizes the context)."""
        if self.mode == "inline" or self.workers <= 1:
            return False
        if self._context is None:
            self._context = _multiprocessing_context()
        if self._context is None:
            if self.mode == "process":
                raise RuntimeError("multiprocessing is unavailable; use mode='inline'")
            return False
        return True

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._context.Pool(processes=self.workers)
        return self._pool

    def _reset_pool(self):
        """Kill a pool containing a stuck worker and start fresh."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def close(self):
        """Release the worker pool and any shared-memory segments (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        if self._manager is not None:
            self._manager.close()
            self._manager = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- execution ---------------------------------------------------------------

    def submit(self, spec):
        """Run one job; returns its :class:`JobOutcome`."""
        return self.map_jobs([spec])[0]

    def run_sweep(self, ns, degrees, seeds, algorithm="cor36", backend="auto", family="regular", params=None):
        """Run the cartesian product sweep; see :func:`sweep_specs`."""
        return self.map_jobs(
            sweep_specs(ns, degrees, seeds, algorithm=algorithm, backend=backend, family=family, params=params)
        )

    def map_jobs(self, specs):
        """Run every spec; returns outcomes in input order.

        Failures never raise out of the runner — inspect ``outcome.ok`` /
        ``outcome.error`` / ``outcome.timed_out``.
        """
        specs = [s if isinstance(s, JobSpec) else JobSpec.from_dict(dict(s)) for s in specs]
        if not specs:
            return []
        tel = obs.active()
        collect = tel.enabled
        self._watchdog = None
        if self._use_pool():
            outcomes = self._map_pool(specs, collect)
        else:
            outcomes = self._map_inline(specs, collect)
        if collect:
            self._stitch(tel, outcomes)
        return outcomes

    def _map_inline(self, specs, collect):
        outcomes = []
        for spec in specs:
            attempts = 0
            while True:
                attempts += 1
                self._notify(spec, "running")
                envelope = execute_job(spec, collect_telemetry=collect)
                if envelope["ok"] or attempts > self.retries:
                    break
            self._notify(spec, "done" if envelope["ok"] else "failed")
            outcomes.append(JobOutcome(spec, envelope, attempts))
        return outcomes

    def _chunks(self, indices):
        """Split pending job indices into dispatch chunks."""
        if self.timeout is not None:
            size = 1
        elif self.chunk_size is not None:
            size = max(1, int(self.chunk_size))
        else:
            size = max(1, -(-len(indices) // (self.workers * 4)))
        return [indices[i:i + size] for i in range(0, len(indices), size)]

    def _shm_plane(self, specs, payloads):
        """Annotate payloads with shared-memory metadata; None when by-value.

        The plane's segments deliberately outlive ``_reset_pool``: jobs
        re-dispatched after a timeout attach to the same names.  Everything
        is released when each job finalizes, with ``close``/``atexit`` as
        backstops.
        """
        if self.shm is False:
            return None
        from repro.parallel import shm as shm_mod

        if not shm_mod.shm_available():
            if self.shm is True:
                raise RuntimeError(
                    "shared-memory fan-out requested but unavailable "
                    "(no multiprocessing.shared_memory)"
                )
            return None
        if self._manager is None:
            self._manager = shm_mod.SegmentManager()
        plane = shm_mod.ShmPlane(self._manager)
        plane.annotate(specs, payloads)
        return plane

    def _make_watchdog(self, tel):
        """A watchdog over a fresh heartbeat board, or None when switched off.

        The stall threshold is clamped under the per-job timeout (when one is
        set): a ``worker.stalled`` event that can only fire after the timeout
        already killed the pool would be useless.
        """
        if self.watchdog is False:
            return None
        from repro.obs import flight

        return flight.pool_watchdog(tel, self.timeout)

    def _wait(self, handle, njobs, watchdog):
        """Wait for one chunk's results (per-chunk budget), polling the watchdog."""
        from repro.obs import flight

        total = self.timeout * njobs if self.timeout is not None else None
        return flight.wait_result(handle, total, watchdog)

    def _map_pool(self, specs, collect):
        import multiprocessing

        payloads = [{"spec": spec.to_dict(), "telemetry": collect} for spec in specs]
        attempts = [0] * len(specs)
        timed_out = [False] * len(specs)
        envelopes = [None] * len(specs)
        pending = list(range(len(specs)))
        watchdog = None
        if collect:
            tel = obs.active()
            trace = tel.trace_context() if hasattr(tel, "trace_context") else None
            watchdog = self._make_watchdog(tel)
            for payload in payloads:
                if trace is not None:
                    payload["trace"] = trace
                if watchdog is not None:
                    payload["heartbeat"] = watchdog.board.path
        self._watchdog = watchdog
        plane = self._shm_plane(specs, payloads)

        try:
            while pending:
                pool = self._ensure_pool()
                handles = [
                    (chunk, pool.apply_async(execute_chunk, ([payloads[i] for i in chunk],)))
                    for chunk in self._chunks(pending)
                ]
                for chunk, _handle in handles:
                    for i in chunk:
                        self._notify(specs[i], "running")
                next_pending = []
                aborted = False
                for chunk, handle in handles:
                    if aborted:
                        # The pool died reclaiming an earlier stuck worker; these
                        # chunks were lost undelivered — re-dispatch uncharged.
                        next_pending.extend(chunk)
                        continue
                    try:
                        results = self._wait(handle, len(chunk), watchdog)
                    except multiprocessing.TimeoutError:
                        self._reset_pool()
                        if watchdog is not None:
                            watchdog.notice_restart()
                        aborted = True
                        for i in chunk:
                            attempts[i] += 1
                            timed_out[i] = True
                            if attempts[i] <= self.retries:
                                next_pending.append(i)
                            else:
                                envelopes[i] = _timeout_envelope(self.timeout)
                                if plane is not None:
                                    plane.finalize(i, envelopes[i])
                                self._notify(specs[i], "timeout")
                        continue
                    for i, envelope in zip(chunk, results):
                        attempts[i] += 1
                        timed_out[i] = False
                        if not envelope["ok"] and attempts[i] <= self.retries:
                            next_pending.append(i)
                        else:
                            if plane is not None:
                                plane.finalize(i, envelope)
                            envelopes[i] = envelope
                            self._notify(specs[i], "done" if envelope["ok"] else "failed")
                pending = next_pending
        finally:
            if plane is not None:
                plane.close()
            if watchdog is not None:
                watchdog.board.close()

        return [
            JobOutcome(spec, envelopes[i], attempts[i], timed_out=timed_out[i])
            for i, spec in enumerate(specs)
        ]

    def _stitch(self, tel, outcomes):
        """Merge worker telemetry segments into the parent stream, in job order."""
        watchdog = self._watchdog
        for outcome in outcomes:
            if outcome.telemetry:
                tel.absorb(outcome.telemetry, job=outcome.spec.job_id)
            tel.counter("parallel.jobs", ok=outcome.ok)
            if outcome.attempts > 1:
                tel.counter("parallel.retries", value=outcome.attempts - 1)
            if outcome.timed_out:
                tel.counter("parallel.timeouts")
            if watchdog is not None:
                watchdog.record_job(outcome.worker)
            tel.event(
                "parallel.job",
                job=outcome.spec.job_id,
                ok=outcome.ok,
                worker=outcome.worker,
                seconds=outcome.seconds,
                attempts=outcome.attempts,
                timed_out=outcome.timed_out,
            )


def _timeout_envelope(timeout):
    return {
        "ok": False,
        "summary": None,
        "error": {
            "kind": "TimeoutError",
            "message": "job exceeded the %.3gs per-job budget" % timeout,
            "traceback": None,
        },
        "seconds": timeout,
        "telemetry": [],
    }


# -- facade --------------------------------------------------------------------------


def run(job, **kwargs):
    """Run one job in this process; returns its :class:`JobOutcome`.

    ``job`` is a :class:`JobSpec` or its dict form.  Keyword arguments
    (``retries``, ...) forward to :class:`JobRunner`; single jobs always run
    inline — there is nothing to shard.
    """
    kwargs.setdefault("mode", "inline")
    kwargs.setdefault("workers", 1)
    with JobRunner(**kwargs) as runner:
        return runner.submit(job)


def run_many(jobs, workers=None, timeout=None, retries=1, chunk_size=None, mode="auto", shm=None):
    """Run a list of jobs across a worker pool; outcomes in input order.

    The multi-job entry point of the facade: builds a :class:`JobRunner`,
    maps the jobs, closes the pool.  Bit-identical to running each job with
    :func:`run` — only the wall-clock differs.
    """
    with JobRunner(workers=workers, timeout=timeout, retries=retries, chunk_size=chunk_size, mode=mode, shm=shm) as runner:
        return runner.map_jobs(jobs)


def sweep_specs(ns, degrees, seeds, algorithm="cor36", backend="auto", family="regular", params=None):
    """The cartesian product ``ns x degrees x seeds`` as a JobSpec list.

    ``family`` must accept ``n``/``degree``-style parameters (``regular``
    uses both; families ignoring ``degree`` still enumerate it).
    """
    specs = []
    for n in ns:
        for degree in degrees:
            for seed in seeds:
                graph = {"family": family, "n": n, "degree": degree, "seed": seed}
                specs.append(
                    JobSpec(algorithm=algorithm, graph=graph, backend=backend, seed=seed, params=params)
                )
    return specs


def run_sweep(ns, degrees, seeds, algorithm="cor36", backend="auto", family="regular", params=None, workers=None, timeout=None, retries=1, mode="auto", shm=None):
    """Sweep the parameter grid across workers; outcomes in grid order."""
    return run_many(
        sweep_specs(ns, degrees, seeds, algorithm=algorithm, backend=backend, family=family, params=params),
        workers=workers,
        timeout=timeout,
        retries=retries,
        mode=mode,
        shm=shm,
    )
