"""The benchmark's three workloads: inputs, timed jobs and output checks.

Each workload derives every input (graph seeds, the burst schedule, churn
edges) from the workload seed and hands the program only the generated
inputs.  A workload exposes:

``setup()``
    One full setup repetition (generation / shard write / cold start).
``warmup_keys()``
    One untimed job per distinct spec, run right after ``setup``.
``next_cycle()``
    The job keys of one schedule cycle; the timed loop runs whole cycles.
``prepare(key)`` / ``execute(key, payload)`` / ``verify(record, result)``
    Untimed input preparation, the timed job itself, and the output checks
    (run outside the timer).
``overhead_pairs()``
    Job pairs for the ``obs.capture()`` on/off comparison.
"""

import hashlib
import os
import random
import shutil
import time

import numpy as np

import repro
from repro import graphgen
from repro.obs.flight import cpu_seconds
from repro.oocore import writers
from repro.parallel import jobs
from repro.runtime.backends import resolve_backend
from repro.runtime.graph import DynamicGraph
from repro.selfstab import FaultCampaign, SelfStabExactColoring

__all__ = ["WORKLOADS", "JobRecord", "make_workload"]

clock = time.perf_counter

# A job slower than this counts as timed out (inline jobs cannot be preempted,
# so the limit is applied after the fact).
JOB_TIMEOUT_S = 30.0


def digest(colors):
    """Short SHA-256 of an int64 color vector."""
    return hashlib.sha256(np.ascontiguousarray(colors, dtype=np.int64).tobytes()).hexdigest()[:16]


class JobRecord:
    """One attempted operation: timing, outputs and check failures."""

    __slots__ = ("key", "label", "seconds", "cpu", "rounds", "digest", "errors")

    def __init__(self, key, label):
        self.key = key
        self.label = label
        self.seconds = 0.0
        self.cpu = 0.0
        self.rounds = None
        self.digest = None
        self.errors = []

    @property
    def ok(self):
        """True when the job ran and passed every check."""
        return not self.errors

    def fail(self, message):
        """Record a failed check (or a job error)."""
        self.errors.append(message)


def check_palette(record, colors, palette):
    """Every color in ``[0, palette)``."""
    if colors.size and (int(colors.min()) < 0 or int(colors.max()) >= palette):
        record.fail("color outside palette [0, %d)" % palette)


def check_proper(record, colors, edge_u, edge_v, where=""):
    """Vectorised O(m) properness over parallel endpoint arrays."""
    if edge_u.size and bool((colors[edge_u] == colors[edge_v]).any()):
        record.fail("improper coloring" + where)
        return False
    return True


class Workload:
    """Shared bookkeeping: repeat and golden checks, tracer pausing."""

    name = None
    cycle_len = 1

    def __init__(self, seed, workdir, golden):
        self.seed = seed
        self.workdir = workdir
        self.golden = golden or {}
        self.rng = random.Random("%s/%d" % (self.name, seed))
        self.reference = {}

    def expect(self, record, ref_key, golden_entry):
        """Every repeat of a spec (``ref_key``; None for one-off jobs) gives
        one digest and round count; at the recorded seed both equal the
        golden entry (None when there is none)."""
        got = (record.digest, record.rounds)
        if ref_key is not None:
            seen = self.reference.setdefault(ref_key, got)
            if seen != got:
                record.fail("repeat of %s differs: %s/%s vs %s/%s" % ((ref_key,) + got + seen))
        if golden_entry is not None:
            want = (golden_entry["digest"], golden_entry["rounds"])
            if want != got:
                record.fail(
                    "%s differs from the recorded result: %s/%s vs %s/%s"
                    % ((record.label,) + got + want)
                )

    def setup_record(self):
        """A checked operation performed by ``setup`` itself (default: none)."""
        return None

    def prepare(self, key):
        """Untimed input preparation for one job (default: nothing)."""
        return None

    def teardown(self):
        """Release what the workload holds (default: nothing)."""


class _RunFacadeWorkload(Workload):
    """Jobs that are one ``repro.run`` call each."""

    def execute(self, key, payload):
        """Time one ``repro.run`` call."""
        record = JobRecord(key, key)
        spec = self.specs[key]
        cpu0 = cpu_seconds()
        start = clock()
        outcome = repro.run(spec)
        record.seconds = clock() - start
        record.cpu = cpu_seconds() - cpu0
        if not outcome.ok:
            error = outcome.error or {}
            record.fail("%s: %s" % (error.get("kind"), error.get("message")))
            return record, None
        return record, outcome

    def verify(self, record, outcome):
        """Palette, properness, repeat and golden checks (outside the timer)."""
        if outcome is None:
            return
        if record.seconds > JOB_TIMEOUT_S:
            record.fail("timed out (%.1fs)" % record.seconds)
        spec = self.specs[record.key]
        colors = np.asarray(outcome.colors, dtype=np.int64)
        record.rounds = outcome.rounds
        record.digest = digest(colors)
        self.check_edges(record, colors, spec)
        self.expect(record, record.key, self.golden.get(record.key))


class Cor36Warm(_RunFacadeWorkload):
    """``cor36`` and ``exact`` jobs over two cached random-regular graphs."""

    name = "cor36-warm"
    N = 20000
    DEGREES = (32, 64)
    # Job times are bimodal (Delta=32 vs Delta=64).  With 2 of 7 jobs at
    # Delta=32, p50 falls 30 % and p75 65 % of the way into the Delta=64
    # cluster, away from its lower edge where the clusters meet.
    CYCLE = ("cor36-d64", "exact-d32", "exact-d64", "cor36-d64",
             "cor36-d32", "exact-d64", "cor36-d64")
    cycle_len = len(CYCLE)

    def __init__(self, seed, workdir, golden):
        super().__init__(seed, workdir, golden)
        self.graphs = {
            d: {"family": "regular", "n": self.N, "degree": d,
                "seed": self.rng.randrange(1, 2 ** 31)}
            for d in self.DEGREES
        }
        self.specs = {}
        for algorithm in ("cor36", "exact"):
            for d in self.DEGREES:
                self.specs["%s-d%d" % (algorithm, d)] = {
                    "algorithm": algorithm,
                    "graph": self.graphs[d],
                    "backend": "batch",
                    "seed": self.graphs[d]["seed"],
                }

    def setup(self):
        """Generate both graphs into the default graph cache."""
        jobs.clear_graph_cache()
        for graph in self.graphs.values():
            jobs.build_graph(graph)

    def warmup_keys(self):
        """One warm-up job per distinct spec."""
        return sorted(self.specs)

    def next_cycle(self):
        """The fixed seven-job cycle."""
        return list(self.CYCLE)

    def overhead_pairs(self):
        """Each cycle job twice: telemetry captured and not."""
        return [(key, key) for key in self.CYCLE]

    def check_edges(self, record, colors, spec):
        """Properness over the cached graph's CSR edge arrays."""
        csr = jobs.peek_graph(spec["graph"]).csr()
        check_palette(record, colors, spec["graph"]["degree"] + 1)
        check_proper(record, colors, csr.edge_u, csr.edge_v)


class OocoreCor36(_RunFacadeWorkload):
    """``cor36`` through the out-of-core backend on a 4-shard graph."""

    name = "oocore-cor36"
    N = 250000
    DEGREE = 16
    SHARDS = 4

    def __init__(self, seed, workdir, golden):
        super().__init__(seed, workdir, golden)
        self.graph = {"family": "regular", "n": self.N, "degree": self.DEGREE,
                      "seed": self.rng.randrange(1, 2 ** 31)}
        self.specs = {"cor36": {"algorithm": "cor36", "graph": self.graph,
                                "backend": "oocore", "seed": self.graph["seed"]}}
        m = self.N * self.DEGREE // 2
        # A quarter of the in-memory footprint estimate, 112 * (n + 2m).
        self.budget = int(0.25 * 112 * (self.N + 2 * m))
        self.directory = os.path.join(workdir, "oocore")
        os.environ["REPRO_OOCORE_BUDGET"] = str(self.budget)
        os.environ["REPRO_OOCORE_SHARDS"] = str(self.SHARDS)
        os.environ["REPRO_OOCORE_DIR"] = self.directory
        self.sharded = None
        self.shard_bytes = 0

    def setup(self):
        """Empty the private shard directory and write the shards."""
        self.teardown()
        os.makedirs(self.directory)
        self.sharded = writers.ensure_sharded(self.graph)
        self.shard_bytes = self.sharded.on_disk_nbytes

    def teardown(self):
        """Close the shard handles and delete the private directory."""
        if self.sharded is not None:
            self.sharded.close()
            self.sharded = None
        shutil.rmtree(self.directory, ignore_errors=True)

    def warmup_keys(self):
        """The single spec, once."""
        return ["cor36"]

    def next_cycle(self):
        """One job a cycle."""
        return ["cor36"]

    def overhead_pairs(self):
        """One on/off pair (a job takes about two seconds)."""
        return [("cor36", "cor36")]

    def check_edges(self, record, colors, spec):
        """Properness streamed shard by shard from the memmapped CSR."""
        check_palette(record, colors, self.DEGREE + 1)
        for shard_id in range(self.sharded.shards):
            local = self.sharded.local(shard_id)
            where = " in shard %d" % shard_id
            if not check_proper(record, colors, local.owner_globals(), local.global_indices(), where):
                break


class SelfStabBursts(Workload):
    """Theorem 7.5 on the batch selfstab engine, one fault burst per job."""

    name = "selfstab-bursts"
    N = 20000
    DEGREE = 16
    SIZES = (16, 56, 200, 632, 2000)
    CHURN_EDGES = 8
    CHURN_PER_CYCLE = 2
    # (size, churn); churn None marks the warm-up burst outside the schedule.
    WARMUP = (200, None)
    cycle_len = len(SIZES)

    def __init__(self, seed, workdir, golden):
        super().__init__(seed, workdir, golden)
        self.graph_seed = self.rng.randrange(1, 2 ** 31)
        self.fault_seed = self.rng.randrange(1, 2 ** 31)
        self.churn_seed = self.rng.randrange(1, 2 ** 31)
        self.schedule_seed = self.rng.randrange(1, 2 ** 31)
        self.engine = None
        self.edge_keys = None
        self.cold = None

    def setup(self):
        """Generate, ``from_static``, build the engine, cold-start it."""
        self.engine = None
        self.edge_keys = None
        static = graphgen.random_regular(self.N, self.DEGREE, seed=self.graph_seed)
        edges = np.asarray(static.edges, dtype=np.int64)
        # Sorted u * N + v keys (edges come sorted with u < v): the
        # benchmark's own copy of the topology, for churn and checks.
        self.edge_keys = edges[:, 0] * self.N + edges[:, 1]
        dynamic = DynamicGraph.from_static(static)
        del static, edges
        algorithm = SelfStabExactColoring(dynamic.n_bound, dynamic.delta_bound)
        self.engine = resolve_backend("selfstab", "batch")(dynamic, algorithm)
        record = JobRecord("cold", "cold")
        start = clock()
        try:
            record.rounds = self.engine.run_to_quiescence()
        except Exception as exc:  # a failed stabilization is a failed operation
            record.fail("%s: %s" % (type(exc).__name__, exc))
        record.seconds = clock() - start
        self.campaign = FaultCampaign(self.fault_seed)
        self.churn_rng = random.Random(self.churn_seed)
        self.schedule_rng = random.Random(self.schedule_seed)
        self.churn_turn = self.schedule_rng.randrange(len(self.SIZES))
        self.burst_index = 0
        self.cold = record

    def setup_record(self):
        """The cold start, checked like a burst."""
        record = self.cold
        if record.ok:
            self._verify_state(record, "cold", self.golden.get("cold"))
        return record

    def warmup_keys(self):
        """One untimed burst outside the schedule."""
        return [self.WARMUP]

    def next_cycle(self):
        """Every burst size once, in seeded order; two bursts also churn.

        The churned sizes rotate from a seeded start, so every size churns
        twice in five cycles and no seed gets a churn-heavy mix (a churned
        burst takes about 0.1 s longer).
        """
        sizes = list(self.SIZES)
        churn = {sizes[(self.churn_turn + i) % len(sizes)] for i in range(self.CHURN_PER_CYCLE)}
        self.churn_turn += self.CHURN_PER_CYCLE
        self.schedule_rng.shuffle(sizes)
        return [(size, size in churn) for size in sizes]

    def overhead_pairs(self):
        """Two corruption-only bursts per size: telemetry captured and not."""
        return [((size, False), (size, False)) for size in self.SIZES]

    def _churn_plan(self):
        """Remove CHURN_EDGES disjoint edges, reconnect their ends rotated.

        Degrees are preserved (every endpoint loses one edge and gains one),
        so the Delta bound holds; the new pairs avoid existing edges.
        """
        n, k = self.N, self.CHURN_EDGES
        keys = self.edge_keys
        while True:
            picks = self.churn_rng.sample(range(keys.size), k)
            removed = [divmod(int(keys[i]), n) for i in picks]
            if len({x for edge in removed for x in edge}) < 2 * k:
                continue
            added = []
            for i in range(k):
                a, b = removed[i][0], removed[(i + 1) % k][1]
                added.append((min(a, b), max(a, b)))
            remaining = np.delete(keys, picks)
            new = np.array([a * n + b for a, b in added], dtype=np.int64)
            pos = np.searchsorted(remaining, new)
            exists = (pos < remaining.size) & (remaining[np.minimum(pos, remaining.size - 1)] == new)
            if bool(exists.any()) or np.unique(new).size < k:
                continue
            return removed, added, np.sort(np.concatenate([remaining, new]))

    def prepare(self, key):
        """Churn edges are chosen before the timer starts."""
        size, churn = key
        return self._churn_plan() if churn else None

    def execute(self, key, plan):
        """Inject the burst (and churn) and run to quiescence, timed."""
        size, churn = key
        label = "warmup" if churn is None else "burst"
        record = JobRecord(key, "%s%d%s" % (label, size, "+churn" if churn else ""))
        engine = self.engine
        cpu0 = cpu_seconds()
        start = clock()
        try:
            self.campaign.corrupt_random_rams(engine, size)
            if plan is not None:
                for u, v in plan[0]:
                    engine.remove_edge(u, v)
                for u, v in plan[1]:
                    engine.add_edge(u, v)
            record.rounds = engine.run_to_quiescence()
        except Exception as exc:  # a failed recovery is a failed operation
            record.fail("%s: %s" % (type(exc).__name__, exc))
        record.seconds = clock() - start
        record.cpu = cpu_seconds() - cpu0
        if plan is not None:
            self.edge_keys = plan[2]
        return record, key

    def verify(self, record, key):
        """``is_legal``, palette and properness after every burst."""
        golden = None
        if key[1] is not None:
            bursts = self.golden.get("bursts", [])
            if self.burst_index < len(bursts):
                golden = bursts[self.burst_index]
            self.burst_index += 1
        if not record.ok:
            return
        if record.seconds > JOB_TIMEOUT_S:
            record.fail("timed out (%.1fs)" % record.seconds)
        self._verify_state(record, None, golden)

    def _verify_state(self, record, ref_key, golden):
        engine = self.engine
        if not engine.is_legal():
            record.fail("is_legal() is False after quiescence")
        by_vertex = engine.algorithm.final_colors(engine.graph, engine.rams)
        colors = np.fromiter((by_vertex[v] for v in range(self.N)), dtype=np.int64, count=self.N)
        record.digest = digest(colors)
        u, v = np.divmod(self.edge_keys, self.N)
        check_palette(record, colors, self.DEGREE + 1)
        check_proper(record, colors, u, v)
        self.expect(record, ref_key, golden)


WORKLOADS = {
    Cor36Warm.name: Cor36Warm,
    SelfStabBursts.name: SelfStabBursts,
    OocoreCor36.name: OocoreCor36,
}


def make_workload(name, seed, workdir, golden):
    """Instantiate a workload by name, with its golden record (may be None)."""
    return WORKLOADS[name](seed, workdir, golden)
