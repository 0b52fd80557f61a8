"""Command-line interface.

Examples::

    repro-coloring color --family regular --n 96 --degree 8 --algorithm exact
    repro-coloring color --family gnp --n 80 --prob 0.1 --set-local
    repro-coloring color --n 2000 --degree 32 --telemetry run.jsonl
    repro-coloring color --n 500 --degree 8 --seeds 4 --workers 4
    repro-coloring sweep --n 200,500 --degree 8,16 --seeds 3 --workers 4
    repro-coloring edge-color --family regular --n 64 --degree 6
    repro-coloring mis --family grid --rows 8 --cols 9
    repro-coloring selfstab --n 40 --delta 6 --corruptions 12 --churn 2
    repro-coloring obs summary run.jsonl
    repro-coloring obs timeline run.jsonl -o trace.json
    repro-coloring serve --db registry.sqlite --socket svc.sock
    repro-coloring submit --address unix:svc.sock --n 256 --degree 8 --wait
    repro-coloring runs --address unix:svc.sock --status done --limit 10
    repro-coloring rerun 3 --address unix:svc.sock --wait
    repro-coloring tail 3 --address unix:svc.sock --follow
"""

import argparse
import contextlib
import os
import sys

from repro import graphgen, obs
from repro.analysis import (
    is_maximal_independent_set,
    is_maximal_matching,
    is_proper_coloring,
    is_proper_edge_coloring,
)
from repro.apps import locally_iterative_maximal_matching, locally_iterative_mis
from repro.mathutil import log_star
from repro.recipes import (
    delta_plus_one_coloring,
    delta_plus_one_exact_no_reduction,
    one_plus_eps_delta_coloring,
)
from repro.edge import edge_coloring_congest
from repro.runtime import Visibility
from repro.runtime.backends import backend_names

__all__ = ["main", "build_parser"]

#: CLI algorithm name -> parallel-registry algorithm name.
_JOB_ALGORITHMS = {"cor36": "cor36", "exact": "exact", "sublinear": "one-plus-eps"}


def _add_graph_arguments(parser):
    parser.add_argument(
        "--family",
        choices=["regular", "gnp", "cycle", "path", "grid", "unit-disk", "tree"],
        default="regular",
        help="workload graph family",
    )
    parser.add_argument("--n", type=int, default=64, help="number of vertices")
    parser.add_argument("--degree", type=int, default=6, help="degree (regular)")
    parser.add_argument("--prob", type=float, default=0.1, help="edge prob (gnp)")
    parser.add_argument("--rows", type=int, default=8, help="grid rows")
    parser.add_argument("--cols", type=int, default=8, help="grid cols")
    parser.add_argument("--radius", type=float, default=0.15, help="unit-disk radius")
    parser.add_argument("--seed", type=int, default=1, help="generator seed")


def _build_graph(args):
    if args.family == "regular":
        return graphgen.random_regular(args.n, args.degree, seed=args.seed)
    if args.family == "gnp":
        return graphgen.gnp_graph(args.n, args.prob, seed=args.seed)
    if args.family == "cycle":
        return graphgen.cycle_graph(args.n)
    if args.family == "path":
        return graphgen.path_graph(args.n)
    if args.family == "grid":
        return graphgen.grid_graph(args.rows, args.cols)
    if args.family == "unit-disk":
        return graphgen.unit_disk_graph(args.n, args.radius, seed=args.seed)
    if args.family == "tree":
        return graphgen.random_tree(args.n, seed=args.seed)
    raise ValueError("unknown family %r" % args.family)


@contextlib.contextmanager
def _telemetry_sink(args, out):
    """Collect telemetry for one command when ``--telemetry PATH`` is given.

    Installs a live collector around the command body, then writes the JSONL
    event stream (plus the aggregate snapshot line) to the requested path.
    ``--profile`` additionally sets ``REPRO_PROFILE=1`` in the environment —
    forked workers inherit it — and runs the sampling profiler over the
    parent process, flushing its samples into the same stream.
    """
    profiling = getattr(args, "profile", False)
    saved = os.environ.get("REPRO_PROFILE")
    if profiling:
        os.environ["REPRO_PROFILE"] = "1"
    try:
        path = getattr(args, "telemetry", None)
        if not path:
            yield
            return
        with obs.capture() as telemetry:
            profiler = obs.maybe_profiler(telemetry)
            try:
                yield
            finally:
                if profiler is not None:
                    profiler.stop()
        lines = obs.write_jsonl(telemetry, path)
        if not getattr(args, "json", False):
            out.write("telemetry: wrote %d records to %s\n" % (lines, path))
    finally:
        if profiling:
            if saved is None:
                os.environ.pop("REPRO_PROFILE", None)
            else:
                os.environ["REPRO_PROFILE"] = saved


def _graph_spec(args):
    """The :func:`repro.parallel.build_graph` dict matching ``args``."""
    spec = {"family": args.family, "n": args.n, "seed": args.seed}
    if args.family == "regular":
        spec["degree"] = args.degree
    elif args.family == "gnp":
        spec["prob"] = args.prob
    elif args.family == "grid":
        spec["rows"], spec["cols"] = args.rows, args.cols
    elif args.family == "unit-disk":
        spec["radius"] = args.radius
    return spec


def _add_oocore_arguments(parser):
    parser.add_argument(
        "--oocore",
        action="store_true",
        help="run out of core: stream the graph into memory-mapped CSR "
        "shards and use the partition-aware engine (backend=oocore)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="S",
        help="shard count for --oocore (default: a slot-volume heuristic, "
        "env REPRO_OOCORE_SHARDS)",
    )
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="resident-byte budget for --oocore, e.g. 2G or 512M "
        "(env REPRO_OOCORE_BUDGET); the engine refuses runs that "
        "would not fit",
    )


def _apply_oocore_args(args):
    """Fold --oocore/--shards/--memory-budget into the backend + env knobs.

    The env variables are the single source of truth the oocore tier reads
    (so jobs forked by the runner inherit them); the flags just set them.
    """
    if getattr(args, "shards", None):
        os.environ["REPRO_OOCORE_SHARDS"] = str(args.shards)
    if getattr(args, "memory_budget", None):
        from repro.oocore.store import parse_bytes

        os.environ["REPRO_OOCORE_BUDGET"] = str(parse_bytes(args.memory_budget))
    if getattr(args, "oocore", False):
        args.backend = "oocore"


def _print_outcomes(args, out, outcomes):
    """Render a list of job outcomes (table or JSON); returns the exit code."""
    failures = [o for o in outcomes if not o.ok]
    if args.json:
        import json

        out.write(json.dumps([o.to_dict() for o in outcomes], indent=2) + "\n")
        return 1 if failures else 0
    for o in outcomes:
        if o.ok:
            out.write(
                "%-40s ok  rounds=%-5d colors=%-4d %.3fs\n"
                % (o.spec.job_id, o.rounds, o.num_colors, o.seconds)
            )
        else:
            state = "timeout" if o.timed_out else o.error["kind"]
            out.write(
                "%-40s FAILED (%s, %d attempts)\n" % (o.spec.job_id, state, o.attempts)
            )
    out.write(
        "jobs: %d ok, %d failed\n" % (len(outcomes) - len(failures), len(failures))
    )
    return 1 if failures else 0


def _cmd_color_jobs(args, out, workers):
    """The sharded fan-out path of ``color`` (``--workers`` / ``--seeds``)."""
    from repro import parallel

    if args.set_local:
        out.write("error: --set-local is not supported with --workers/--seeds\n")
        return 2
    algorithm = _JOB_ALGORITHMS[args.algorithm]
    specs = []
    for seed in range(args.seed, args.seed + args.seeds):
        graph = dict(_graph_spec(args), seed=seed)
        specs.append(
            parallel.JobSpec(
                algorithm=algorithm, graph=graph, backend=args.backend, seed=seed
            )
        )
    with _telemetry_sink(args, out):
        outcomes = parallel.run_many(specs, workers=workers)
    return _print_outcomes(args, out, outcomes)


def _cmd_color(args, out):
    _apply_oocore_args(args)
    workers = args.workers if args.workers is not None else 1
    if workers > 1 or args.seeds > 1:
        return _cmd_color_jobs(args, out, workers)
    if args.backend == "oocore":
        from repro.oocore.writers import ensure_sharded

        graph = ensure_sharded(_graph_spec(args), shards=args.shards)
    else:
        graph = _build_graph(args)
    visibility = Visibility.SET_LOCAL if args.set_local else None
    with _telemetry_sink(args, out):
        if args.algorithm == "cor36":
            result = delta_plus_one_coloring(
                graph, visibility=visibility, backend=args.backend
            )
            colors, rounds = result.colors, result.rounds_by_stage()
        elif args.algorithm == "exact":
            result = delta_plus_one_exact_no_reduction(
                graph, visibility=visibility, backend=args.backend
            )
            colors, rounds = result.colors, result.rounds_by_stage()
        else:  # sublinear
            result = one_plus_eps_delta_coloring(graph, backend=args.backend)
            colors, rounds = result.colors, result.stage_rounds
    assert is_proper_coloring(graph, colors)
    if args.json:
        import json

        out.write(json.dumps(result.to_dict(), indent=2) + "\n")
        return 0
    out.write(
        "graph: n=%d m=%d Delta=%d (log* n = %d)\n"
        % (graph.n, graph.m, graph.max_degree, log_star(graph.n))
    )
    out.write("colors used: %d\n" % len(set(colors)))
    out.write("max color:   %d\n" % (max(colors) if colors else 0))
    for stage, r in rounds.items():
        out.write("rounds[%s] = %d\n" % (stage, r))
    out.write("total rounds: %d\n" % sum(rounds.values()))
    return 0


def _cmd_edge_color(args, out):
    graph = _build_graph(args)
    result = edge_coloring_congest(graph, exact=not args.no_exact)
    assert is_proper_edge_coloring(graph, result.edge_colors)
    if args.json:
        import json

        out.write(json.dumps(result.to_dict(), indent=2) + "\n")
        return 0
    out.write(
        "graph: n=%d m=%d Delta=%d\n" % (graph.n, graph.m, graph.max_degree)
    )
    out.write(
        "edge colors: %d (palette %d, 2*Delta-1 = %d)\n"
        % (result.num_colors, result.palette_size, max(1, 2 * graph.max_degree - 1))
    )
    out.write("CONGEST rounds: %d\n" % result.total_rounds)
    out.write("bits per edge:  %d\n" % result.total_bits_per_edge)
    out.write("max message:    %d bits\n" % result.max_message_bits)
    return 0


def _cmd_mis(args, out):
    graph = _build_graph(args)
    result = locally_iterative_mis(graph)
    assert is_maximal_independent_set(graph, result.members)
    out.write("graph: n=%d m=%d Delta=%d\n" % (graph.n, graph.m, graph.max_degree))
    out.write("MIS size: %d\n" % len(result.members))
    out.write("rounds: %d (coloring %d + sweep %d)\n"
              % (result.total_rounds, result.coloring_rounds, result.sweep_rounds))
    return 0


def _cmd_matching(args, out):
    graph = _build_graph(args)
    result = locally_iterative_maximal_matching(graph)
    assert is_maximal_matching(graph, result.edges)
    out.write("graph: n=%d m=%d Delta=%d\n" % (graph.n, graph.m, graph.max_degree))
    out.write("matching size: %d\n" % len(result.edges))
    out.write("rounds: %d (edge coloring %d + sweep %d)\n"
              % (result.total_rounds, result.coloring_rounds, result.sweep_rounds))
    return 0


def _cmd_trace(args, out):
    from repro.core import (
        AdditiveGroupColoring,
        ExactDeltaPlusOneHybrid,
        ThreeDimensionalAG,
    )
    from repro.runtime.backends import resolve_backend
    from repro.trace import format_trace, trace_run

    graph = _build_graph(args)
    initial = list(range(graph.n))
    palette = graph.n
    if args.stage == "hybrid":
        # The hybrid wants a near-(2 Delta)-sized palette: AG first.
        engine = resolve_backend("engine", args.backend)(graph)
        ag = AdditiveGroupColoring()
        pre = engine.run(ag, initial)
        initial, palette = pre.int_colors, ag.out_palette_size
        stage = ExactDeltaPlusOneHybrid()
    elif args.stage == "3ag":
        stage = ThreeDimensionalAG()
    else:
        stage = AdditiveGroupColoring()
    trace = trace_run(
        graph, stage, initial, in_palette_size=palette, backend=args.backend
    )
    out.write(format_trace(trace, graph, title="%s stage" % args.stage) + "\n")
    return 0


def _cmd_selfstab(args, out):
    import random

    from repro.runtime.backends import resolve_backend
    from repro.runtime.graph import DynamicGraph
    from repro.selfstab import FaultCampaign, SelfStabExactColoring

    rng = random.Random(args.seed)
    graph = DynamicGraph(args.n, args.delta)
    for v in range(args.n):
        graph.add_vertex(v)
    for u in range(args.n):
        for v in range(u + 1, args.n):
            if (
                rng.random() < args.prob
                and graph.degree(u) < args.delta
                and graph.degree(v) < args.delta
            ):
                graph.add_edge(u, v)

    algorithm = SelfStabExactColoring(args.n, args.delta)
    engine = resolve_backend("selfstab", args.backend)(graph, algorithm)
    with _telemetry_sink(args, out):
        rounds = engine.run_to_quiescence()
        out.write("cold start: stabilized in %d rounds (bound budget %d)\n"
                  % (rounds, algorithm.stabilization_bound()))
        campaign = FaultCampaign(args.seed)
        for burst in range(args.bursts):
            campaign.corrupt_random_rams(engine, args.corruptions)
            if args.churn:
                campaign.churn_edges(engine, removals=args.churn, additions=args.churn)
            rounds = engine.run_to_quiescence()
            out.write("burst %d: re-stabilized in %d rounds (legal: %s)\n"
                      % (burst + 1, rounds, engine.is_legal()))
    colors = algorithm.final_colors(graph, engine.rams)
    palette = (max(colors.values()) + 1) if colors else 0
    out.write("final palette: %d <= Delta+1 = %d\n" % (palette, args.delta + 1))
    return 0


def _cmd_sweep(args, out):
    """Run an ``ns x degrees x seeds`` grid through the sharded job runner."""
    from repro import parallel

    _apply_oocore_args(args)

    ns = [int(value) for value in args.n.split(",")]
    degrees = [int(value) for value in args.degree.split(",")]
    seeds = list(range(args.seed, args.seed + args.seeds))
    with _telemetry_sink(args, out):
        outcomes = parallel.run_sweep(
            ns,
            degrees,
            seeds,
            algorithm=args.algorithm,
            backend=args.backend,
            family=args.family,
            params={"k": args.k} if getattr(args, "k", None) else None,
            workers=args.workers if args.workers is not None else 1,
            timeout=args.timeout,
            retries=args.retries,
        )
    return _print_outcomes(args, out, outcomes)


def _load_records(paths):
    """Records from one or more telemetry JSONL files (``-`` reads stdin).

    A single input is returned verbatim.  Several inputs are merged through a
    fresh :class:`~repro.obs.Telemetry` via :meth:`~repro.obs.Telemetry.absorb`
    — snapshots fold together, events re-sequence while keeping their original
    flight-recorder stamps — so a parent stream plus per-worker streams read
    as one coherent run.
    """
    batches = [
        obs.read_jsonl(sys.stdin if path == "-" else path) for path in paths
    ]
    if len(batches) == 1:
        return batches[0]
    merged = obs.Telemetry()
    for batch in batches:
        merged.absorb(batch)
    return list(merged.events) + [merged.snapshot()]


def _client(args):
    """A :class:`~repro.service.client.ServiceClient` for ``--address``."""
    from repro.service.client import ServiceClient

    return ServiceClient(args.address)


def _print_run_record(args, out, record):
    """Render one run record (one table line, or JSON with ``--json``)."""
    if args.json:
        import json

        out.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return
    summary = record.get("summary") or {}
    detail = ""
    if record["status"] == "done":
        detail = " rounds=%-5s colors=%-4s" % (
            summary.get("rounds"),
            summary.get("num_colors"),
        )
    elif record.get("error"):
        detail = " %s" % record["error"]["kind"]
    out.write(
        "run %-4d %-8s %-40s%s\n"
        % (record["id"], record["status"], record["job_id"], detail)
    )


def _service_errors(out):
    """Context manager mapping daemon/transport errors to exit-code prose."""
    import contextlib as _contextlib

    @_contextlib.contextmanager
    def _guard():
        from repro.service.client import ServiceError

        try:
            yield
        except ServiceError as exc:
            out.write("error: %s\n" % exc)
            raise SystemExit(1)
        except (ConnectionError, FileNotFoundError, OSError) as exc:
            out.write("error: cannot reach the service: %s\n" % exc)
            raise SystemExit(1)

    return _guard()


def _cmd_serve(args, out):
    """``repro-coloring serve`` — run the experiment daemon until interrupted."""
    from repro.service.app import serve

    def _ready(address):
        out.write("serving on %s (registry %s)\n" % (address, args.db))
        out.flush()

    serve(
        args.db,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        telemetry_dir=args.telemetry_dir,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        mode=args.mode,
        verbose=args.verbose,
        ready=_ready,
    )
    return 0


def _cmd_submit(args, out):
    """``repro-coloring submit`` — queue one job on a running daemon."""
    spec = {
        "algorithm": args.algorithm,
        "graph": _graph_spec(args),
        "backend": args.backend,
        "seed": args.seed,
    }
    if args.label:
        spec["label"] = args.label
    with _service_errors(out):
        record = _client(args).submit(spec, wait=args.wait, timeout=args.wait_timeout)
    _print_run_record(args, out, record)
    return 0 if record["status"] in ("queued", "running", "done") else 1


def _cmd_runs(args, out):
    """``repro-coloring runs`` — list/filter the daemon's run registry."""
    with _service_errors(out):
        records = _client(args).runs(
            algorithm=args.algorithm,
            n=args.n,
            delta=args.delta,
            status=args.status,
            since=args.since,
            job_id=args.job_id,
            limit=args.limit,
        )
    if args.json:
        import json

        out.write(json.dumps(records, indent=2, sort_keys=True) + "\n")
        return 0
    for record in records:
        _print_run_record(args, out, record)
    out.write("%d run(s)\n" % len(records))
    return 0


def _cmd_rerun(args, out):
    """``repro-coloring rerun`` — re-execute a stored run by id or job id."""
    with _service_errors(out):
        record = _client(args).rerun(args.ref, wait=args.wait, timeout=args.wait_timeout)
    _print_run_record(args, out, record)
    return 0 if record["status"] in ("queued", "running", "done") else 1


def _cmd_tail(args, out):
    """``repro-coloring tail`` — stream a run's telemetry JSONL records."""
    import json

    with _service_errors(out):
        for record in _client(args).tail(args.ref, follow=args.follow):
            out.write(json.dumps(record, sort_keys=True) + "\n")
            out.flush()
    return 0


def _cmd_obs_summary(args, out):
    records = _load_records(args.paths)
    out.write(obs.summary_table(records))
    return 0


def _cmd_obs_timeline(args, out):
    records = _load_records(args.paths)
    if args.output and args.output != "-":
        events = obs.write_chrome_trace(records, args.output)
        out.write("timeline: wrote %d trace events to %s\n" % (events, args.output))
    else:
        obs.write_chrome_trace(records, out)
    return 0


def _cmd_obs_prom(args, out):
    records = obs.read_jsonl(args.path)
    snapshots = [r for r in records if r.get("type") == "snapshot"]
    if not snapshots:
        out.write("no snapshot record in %s\n" % args.path)
        return 1
    out.write(obs.prometheus_text(snapshots[-1]))
    return 0


def build_parser():
    """Construct the argparse parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-coloring",
        description="Locally-iterative distributed coloring (PODC'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    color = sub.add_parser("color", help="(Delta+1)-vertex-coloring")
    _add_graph_arguments(color)
    color.add_argument(
        "--algorithm",
        choices=["cor36", "exact", "sublinear"],
        default="cor36",
        help="cor36 = Linial+AG+reduction; exact = Section 7 hybrid; "
        "sublinear = Theorem 6.4 arbdefective route",
    )
    color.add_argument(
        "--set-local", action="store_true", help="run in the SET-LOCAL model"
    )
    color.add_argument(
        "--backend",
        choices=backend_names("engine"),
        default="auto",
        help="engine backend: auto picks the vectorized NumPy engine when "
        "every stage has batch kernels, the reference engine otherwise",
    )
    color.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard across N worker processes (with --seeds > 1)",
    )
    color.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="K",
        help="run K seeds (seed, seed+1, ...) through the job runner",
    )
    color.add_argument(
        "--json", action="store_true", help="emit the full result as JSON"
    )
    color.add_argument(
        "--telemetry",
        metavar="PATH",
        help="collect structured telemetry for the run and write it as "
        "JSONL to PATH (inspect with `repro-coloring obs summary PATH`)",
    )
    color.add_argument(
        "--profile",
        action="store_true",
        help="enable the sampling profiler (REPRO_PROFILE=1) in this process "
        "and every worker; samples land in the --telemetry stream",
    )
    _add_oocore_arguments(color)
    color.set_defaults(func=_cmd_color)

    sweep = sub.add_parser(
        "sweep", help="parameter sweep through the sharded job runner"
    )
    sweep.add_argument(
        "--n", default="64,128", help="comma-separated vertex counts"
    )
    sweep.add_argument("--degree", default="6", help="comma-separated degrees")
    sweep.add_argument("--seeds", type=int, default=1, metavar="K",
                       help="seeds per grid point (seed, seed+1, ...)")
    sweep.add_argument("--seed", type=int, default=1, help="first seed")
    sweep.add_argument(
        "--family",
        choices=["regular", "gnp", "cycle", "path", "tree"],
        default="regular",
        help="workload graph family",
    )
    sweep.add_argument(
        "--algorithm",
        default="cor36",
        help="job algorithm name (see repro.parallel.algorithm_names)",
    )
    sweep.add_argument(
        "--backend", choices=backend_names("engine"), default="auto",
        help="engine backend for every job",
    )
    sweep.add_argument(
        "--k", type=int, default=None, metavar="K",
        help="Maus tradeoff knob for the sublinear family: O(k*Delta) "
             "colors against O(Delta/k) + log*(n) rounds (algorithms "
             "one-plus-eps, sublinear, defective)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker process count",
    )
    sweep.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget (process mode only)",
    )
    sweep.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts for a failed or timed-out job",
    )
    sweep.add_argument(
        "--json", action="store_true", help="emit every outcome as JSON"
    )
    sweep.add_argument(
        "--telemetry",
        metavar="PATH",
        help="write the merged parent+worker telemetry stream to PATH",
    )
    sweep.add_argument(
        "--profile",
        action="store_true",
        help="enable the sampling profiler (REPRO_PROFILE=1) in this process "
        "and every worker; samples land in the --telemetry stream",
    )
    _add_oocore_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    edge = sub.add_parser("edge-color", help="(2*Delta-1)-edge-coloring (CONGEST)")
    _add_graph_arguments(edge)
    edge.add_argument(
        "--no-exact", action="store_true", help="stop at O(Delta) colors"
    )
    edge.add_argument(
        "--json", action="store_true", help="emit the full result as JSON"
    )
    edge.set_defaults(func=_cmd_edge_color)

    mis = sub.add_parser("mis", help="maximal independent set")
    _add_graph_arguments(mis)
    mis.set_defaults(func=_cmd_mis)

    matching = sub.add_parser("matching", help="maximal matching")
    _add_graph_arguments(matching)
    matching.set_defaults(func=_cmd_matching)

    trace = sub.add_parser("trace", help="round-by-round trace of the AG stage")
    _add_graph_arguments(trace)
    trace.add_argument(
        "--stage",
        choices=["ag", "3ag", "hybrid"],
        default="ag",
        help="which AG-family stage to trace",
    )
    trace.add_argument(
        "--backend",
        choices=backend_names("engine"),
        default="auto",
        help="engine backend used to record the trace (histories are "
        "bit-for-bit identical across backends)",
    )
    trace.set_defaults(func=_cmd_trace)

    selfstab = sub.add_parser("selfstab", help="self-stabilizing coloring demo")
    selfstab.add_argument("--n", type=int, default=40)
    selfstab.add_argument("--delta", type=int, default=6)
    selfstab.add_argument("--prob", type=float, default=0.15)
    selfstab.add_argument("--seed", type=int, default=1)
    selfstab.add_argument("--bursts", type=int, default=3)
    selfstab.add_argument("--corruptions", type=int, default=10)
    selfstab.add_argument("--churn", type=int, default=0)
    selfstab.add_argument(
        "--backend",
        choices=backend_names("selfstab"),
        default="auto",
        help="self-stabilization engine backend: auto picks the vectorized "
        "NumPy engine when the algorithm has batch transitions, the "
        "reference engine otherwise",
    )
    selfstab.add_argument(
        "--telemetry",
        metavar="PATH",
        help="collect structured telemetry for the demo and write it as "
        "JSONL to PATH",
    )
    selfstab.add_argument(
        "--profile",
        action="store_true",
        help="enable the sampling profiler (REPRO_PROFILE=1) for the demo; "
        "samples land in the --telemetry stream",
    )
    selfstab.set_defaults(func=_cmd_selfstab)

    serve = sub.add_parser(
        "serve", help="run the experiment daemon over a durable run registry"
    )
    serve.add_argument(
        "--db", default="registry.sqlite", metavar="PATH",
        help="SQLite run-registry file (created, with migrations, on first use)",
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="listen on a unix domain socket instead of TCP",
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    serve.add_argument("--port", type=int, default=8357, help="TCP bind port")
    serve.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="per-run telemetry JSONL directory (default: telemetry/ beside --db)",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for the daemon's job runner",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget (process mode only)",
    )
    serve.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts for a failed or timed-out job",
    )
    serve.add_argument(
        "--mode", choices=["auto", "process", "inline"], default="auto",
        help="job-runner execution mode",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )
    serve.set_defaults(func=_cmd_serve)

    def _add_client_arguments(client_parser):
        client_parser.add_argument(
            "--address", default="127.0.0.1:8357", metavar="ADDR",
            help="daemon address: host:port or unix:PATH",
        )

    submit = sub.add_parser("submit", help="queue one job on a running daemon")
    _add_client_arguments(submit)
    _add_graph_arguments(submit)
    submit.add_argument(
        "--algorithm", default="cor36",
        help="job algorithm name (see repro.api.algorithm_names)",
    )
    submit.add_argument(
        "--backend", default="auto", help="engine backend for the job"
    )
    submit.add_argument("--label", default=None, help="explicit job id")
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until the run is terminal and print the finished record",
    )
    submit.add_argument(
        "--wait-timeout", type=float, default=None, metavar="SECONDS",
        help="give up waiting after this long (the run itself keeps going)",
    )
    submit.add_argument("--json", action="store_true", help="print the record as JSON")
    submit.set_defaults(func=_cmd_submit)

    runs = sub.add_parser("runs", help="list/filter the daemon's run registry")
    _add_client_arguments(runs)
    runs.add_argument("--algorithm", default=None, help="filter: algorithm name")
    runs.add_argument("--n", type=int, default=None, help="filter: vertex count")
    runs.add_argument(
        "--delta", type=int, default=None,
        help="filter: graph degree bound (the spec's degree parameter)",
    )
    runs.add_argument(
        "--status", default=None,
        choices=["queued", "running", "done", "failed", "timeout"],
        help="filter: run status",
    )
    runs.add_argument(
        "--since", type=float, default=None, metavar="EPOCH",
        help="filter: runs created at or after this unix timestamp",
    )
    runs.add_argument("--job-id", default=None, help="filter: exact job id")
    runs.add_argument("--limit", type=int, default=None, help="newest K runs only")
    runs.add_argument("--json", action="store_true", help="print records as JSON")
    runs.set_defaults(func=_cmd_runs)

    rerun = sub.add_parser(
        "rerun", help="re-execute a stored run from its registry spec"
    )
    _add_client_arguments(rerun)
    rerun.add_argument("ref", help="run id, or job-id string (latest matching run)")
    rerun.add_argument(
        "--wait", action="store_true",
        help="poll until the new run is terminal and print the finished record",
    )
    rerun.add_argument(
        "--wait-timeout", type=float, default=None, metavar="SECONDS",
        help="give up waiting after this long (the run itself keeps going)",
    )
    rerun.add_argument("--json", action="store_true", help="print the record as JSON")
    rerun.set_defaults(func=_cmd_rerun)

    tail = sub.add_parser("tail", help="stream a run's telemetry JSONL records")
    _add_client_arguments(tail)
    tail.add_argument("ref", help="run id, or job-id string (latest matching run)")
    tail.add_argument(
        "-f", "--follow", action="store_true",
        help="keep the stream open while the run is in flight (live tail)",
    )
    tail.set_defaults(func=_cmd_tail)

    obs_parser = sub.add_parser(
        "obs", help="inspect telemetry JSONL files written by --telemetry"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_summary = obs_sub.add_parser(
        "summary", help="human-readable summary of a telemetry stream"
    )
    obs_summary.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="telemetry JSONL file(s); '-' reads stdin, several files are "
        "merged into one stream",
    )
    obs_summary.set_defaults(func=_cmd_obs_summary)
    obs_timeline = obs_sub.add_parser(
        "timeline",
        help="export a Chrome-trace / Perfetto timeline (open in ui.perfetto.dev)",
    )
    obs_timeline.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="telemetry JSONL file(s); '-' reads stdin, several files are "
        "merged into one stream",
    )
    obs_timeline.add_argument(
        "-o",
        "--output",
        metavar="TRACE",
        help="write the trace JSON here instead of stdout",
    )
    obs_timeline.set_defaults(func=_cmd_obs_timeline)
    obs_prom = obs_sub.add_parser(
        "prom", help="Prometheus text exposition of the aggregate snapshot"
    )
    obs_prom.add_argument("path", help="telemetry JSONL file")
    obs_prom.set_defaults(func=_cmd_obs_prom)

    return parser


def main(argv=None, out=None):
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, out or sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
