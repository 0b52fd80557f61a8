"""The bounded LRU graph cache behind ``build_graph``.

Caching is safe because generation is deterministic in the spec and graphs
are immutable; these tests pin the accounting (hits/misses/evictions), the
LRU bound and its env knobs, the key's sensitivity to every parameter, and
— the property the shared-memory exporter relies on — that a cached graph's
CSR equals a freshly generated one even on the far side of a fork.
"""

import pytest

from repro import obs
from repro.parallel import (
    JobSpec,
    build_graph,
    clear_graph_cache,
    graph_cache_stats,
    run_many,
)
from repro.parallel.jobs import graph_key, peek_graph
from repro.parallel.runner import _multiprocessing_context


def _spec(seed=1, n=64, degree=4, **extra):
    spec = {"family": "regular", "n": n, "degree": degree, "seed": seed}
    spec.update(extra)
    return spec


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_graph_cache()
    yield
    clear_graph_cache()


class TestAccounting:
    def test_hit_miss_counts(self):
        build_graph(_spec())
        stats = graph_cache_stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 1, 1)
        build_graph(_spec())
        stats = graph_cache_stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)
        assert stats["bytes"] > 0

    def test_hit_returns_the_same_object(self):
        first = build_graph(_spec())
        second = build_graph(_spec())
        assert first is second

    def test_cache_false_bypasses(self):
        first = build_graph(_spec())
        fresh = build_graph(_spec(), cache=False)
        assert fresh is not first
        assert graph_cache_stats()["hits"] == 0

    def test_peek_never_builds_or_counts(self):
        assert peek_graph(_spec()) is None
        assert graph_cache_stats()["misses"] == 0
        built = build_graph(_spec())
        assert peek_graph(_spec()) is built
        assert graph_cache_stats()["hits"] == 0

    def test_counters_reach_obs(self):
        with obs.capture() as tel:
            build_graph(_spec())
            build_graph(_spec())
        assert tel.counter_value("parallel.graph_cache.misses") == 1
        assert tel.counter_value("parallel.graph_cache.hits") == 1


class TestBounds:
    def test_lru_eviction_respects_size_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_CACHE_SIZE", "2")
        build_graph(_spec(seed=1))
        build_graph(_spec(seed=2))
        build_graph(_spec(seed=3))  # evicts seed=1, the least recently used
        stats = graph_cache_stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert peek_graph(_spec(seed=1)) is None
        assert peek_graph(_spec(seed=2)) is not None
        assert peek_graph(_spec(seed=3)) is not None

    def test_hit_refreshes_recency(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_CACHE_SIZE", "2")
        build_graph(_spec(seed=1))
        build_graph(_spec(seed=2))
        build_graph(_spec(seed=1))  # hit: seed=1 becomes most recent
        build_graph(_spec(seed=3))  # so seed=2 is the one evicted
        assert peek_graph(_spec(seed=1)) is not None
        assert peek_graph(_spec(seed=2)) is None

    def test_size_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_CACHE_SIZE", "0")
        first = build_graph(_spec())
        second = build_graph(_spec())
        assert first is not second
        assert graph_cache_stats()["entries"] == 0

    def test_byte_budget_keeps_oversized_graphs_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_CACHE_BYTES", "1")
        build_graph(_spec())
        assert graph_cache_stats()["entries"] == 0


class TestKeySensitivity:
    def test_seed_and_params_distinguish_entries(self):
        base = build_graph(_spec(seed=1))
        assert build_graph(_spec(seed=2)) is not base
        assert build_graph(_spec(seed=1, degree=6)) is not base
        assert build_graph(_spec(seed=1, n=66)) is not base
        assert graph_cache_stats()["misses"] == 4

    def test_key_is_order_insensitive(self):
        a = {"family": "regular", "n": 64, "degree": 4, "seed": 1}
        b = {"seed": 1, "degree": 4, "n": 64, "family": "regular"}
        assert graph_key(a) == graph_key(b)

    def test_edges_family_is_hashable(self):
        spec = {"family": "edges", "n": 3, "edges": [[0, 1], [1, 2]]}
        key = graph_key(spec)
        assert build_graph(spec) is build_graph(spec)
        assert peek_graph(spec) is not None
        assert isinstance(hash(key), int)

    def test_unhashable_params_bypass_the_cache(self):
        spec = {"family": "regular", "n": 64, "degree": 4, "seed": 1, "weird": {"a": 1}}
        with pytest.raises(TypeError):
            graph_key(spec)
        first = build_graph(spec)
        second = build_graph(spec)
        assert first is not second
        assert graph_cache_stats()["entries"] == 0


class TestForkParity:
    def test_cached_and_fresh_csr_agree_across_fork(self):
        context = _multiprocessing_context()
        if context is None or context.get_start_method() != "fork":
            pytest.skip("fork start method unavailable")
        spec = _spec(n=120, degree=6)
        cached = build_graph(spec)
        cached_csr = cached.csr()

        with context.Pool(processes=1) as pool:
            remote = pool.apply(_remote_csr_fields, (spec,))
        fresh = build_graph(spec, cache=False)
        fresh_csr = fresh.csr()
        for field in ("indptr", "indices", "rows", "degrees", "edge_u", "edge_v"):
            local = getattr(cached_csr, field).tolist()
            assert local == getattr(fresh_csr, field).tolist()
            assert local == remote[field]

    def test_cached_graph_outcomes_match_uncached(self):
        spec = _spec(n=120, degree=6)
        jobs = [JobSpec(algorithm="cor36", graph=spec, seed=s) for s in (1, 2)]
        build_graph(spec)  # warm: both jobs hit the cache
        warm = run_many(jobs, workers=1)
        clear_graph_cache()
        cold = run_many(jobs, workers=1)

        def views(outcomes):
            rows = []
            for outcome in outcomes:
                data = outcome.to_dict()
                data.pop("seconds")
                rows.append(data)
            return rows

        assert views(warm) == views(cold)


def _remote_csr_fields(spec):
    """Pool target: the CSR columns of the fork-inherited cached graph."""
    graph = build_graph(spec)
    csr = graph.csr()
    return {
        field: getattr(csr, field).tolist()
        for field in ("indptr", "indices", "rows", "degrees", "edge_u", "edge_v")
    }
