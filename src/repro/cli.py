"""Command-line interface: ``parhde`` (or ``python -m repro``).

Subcommands
-----------
``layout``
    Lay out a graph (collection name or edge-list file) and write
    coordinates and/or a PNG drawing.
``gaps``
    Print the Fibonacci-binned adjacency-gap histogram (Figure 2).
``bench``
    Simulated phase breakdown and scaling table for one graph.
``collection``
    Print the preprocessed collection statistics (Table 2).
``partition``
    Layout-driven k-way partitioning with optional FM refinement and a
    colored drawing (section 4.5.4).
``zoom``
    Layout of the k-hop neighborhood of a vertex (section 4.5.2).
``cluster``
    Spectral clustering (k-means on the ParHDE embedding) or label
    propagation, with an optional colored drawing.
``export-html``
    Self-contained interactive HTML viewer for a layout.
``serve``
    Long-running layout server: content-addressed caching, request
    coalescing, admission control, and a JSON HTTP endpoint
    (see :mod:`repro.service`).  ``--workers N`` shards the engine over
    N spawned worker processes behind a consistent-hash router
    (:mod:`repro.cluster`); ``--workers 0`` (the default) keeps the
    single-process path.
``stream``
    Replay an edge-event file through a dynamic layout session
    (:mod:`repro.stream`), printing per-update mode, drift, modeled BFS
    work and latency.
``reproduce``
    Run the paper-reproduction benchmarks (all of them, or by table /
    figure id) via pytest-benchmark.
``check``
    Run the pipeline invariant suite (:mod:`repro.validate`) on a graph
    and print the per-phase residual report; ``--inject`` corrupts one
    pipeline intermediate and verifies the checkers catch it.

Commands that *consume* a layout (``zoom``, ``partition``,
``export-html``) accept ``--layout FILE.npz`` to reuse one saved with
``layout --save-layout`` instead of recomputing — the same archive
format the serve cache's disk tier uses.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import datasets
from .core import parhde
from .core.kernels import KERNEL_FIELDS, KernelConfig
from .drawing import save_drawing
from .graph import fibonacci_histogram, read_edge_list
from .parallel import BRIDGES_ESM, BRIDGES_RSM, LAPTOP, format_breakdown_table, format_scaling_table
from .parallel.report import breakdown
from .service.engine import DEFAULT_ALGORITHMS

_MACHINES = {
    "bridges-rsm": BRIDGES_RSM,
    "bridges-esm": BRIDGES_ESM,
    "laptop": LAPTOP,
}


def _load_graph(spec: str, scale: str, seed: int):
    if spec in datasets.available() or spec in datasets.PAPER_NAMES.values():
        return datasets.load(spec, scale=scale, seed=seed)
    from .graph import preprocess

    return preprocess(read_edge_list(spec, name=spec))


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "graph",
        help="collection name (e.g. 'barth', 'road') or edge-list file path",
    )
    p.add_argument("--scale", default="small", choices=datasets.SCALES)
    p.add_argument("--seed", type=int, default=0)


def _add_layout_input(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--layout",
        metavar="FILE.npz",
        help="reuse a layout saved with 'layout --save-layout' instead of"
        " recomputing",
    )


def _load_saved_coords(path: str, g, parser: argparse.ArgumentParser):
    from .core import load_layout

    try:
        saved = load_layout(path)
    except (OSError, ValueError, KeyError) as exc:
        parser.error(f"cannot load layout {path!r}: {exc}")
    if saved.coords.shape[0] != g.n:
        parser.error(
            f"layout {path!r} has {saved.coords.shape[0]} vertices but the"
            f" graph has {g.n}; was it computed for a different"
            " graph/scale/seed?"
        )
    print(
        f"layout <- {path} ({saved.algorithm},"
        f" s={saved.params.get('s', '?')})",
        file=sys.stderr,
    )
    return saved.coords


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="parhde", description="Fast spectral graph layout (ICPP'20 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_layout = sub.add_parser("layout", help="compute a layout")
    _add_graph_args(p_layout)
    p_layout.add_argument(
        "--algo", default="parhde", choices=sorted(DEFAULT_ALGORITHMS)
    )
    p_layout.add_argument("-s", "--subspace", type=int, default=10)
    p_layout.add_argument("--pivots", default="kcenters")
    p_layout.add_argument(
        "--traversal",
        default="per-source",
        choices=("per-source", "batched"),
        help="BFS backend: per-source (seed behaviour) or the batched"
        " frontier-matrix multi-source sweep (unweighted only)",
    )
    p_layout.add_argument(
        "--subspace-method",
        default="deterministic",
        choices=("deterministic", "randomized"),
        help="subspace-refinement kernel used when --rounds > 0"
        " (parhde only)",
    )
    p_layout.add_argument(
        "--rounds",
        type=int,
        default=0,
        help="subspace-refinement rounds between DOrtho and TripleProd"
        " (parhde only; 0 = skip)",
    )
    p_layout.add_argument(
        "--pin",
        action="append",
        default=[],
        metavar="V:X,Y",
        help="pin vertex V at coordinates X,Y (repeatable); pinned"
        " coordinates are held bitwise-fixed while free vertices relax",
    )
    p_layout.add_argument(
        "--mass",
        action="append",
        default=[],
        metavar="V:M",
        help="give vertex V mass M > 0 (repeatable); the"
        " orthogonalization weight becomes M*D",
    )
    p_layout.add_argument(
        "--region",
        metavar="LO:HI,LO:HI",
        help="bounding box per axis, e.g. '-1:1,-1:1'; free coordinates"
        " are clamped into it",
    )
    p_layout.add_argument("--coords-out", help="write x y per line")
    p_layout.add_argument(
        "--save-layout",
        metavar="FILE.npz",
        help="persist the full layout archive (reloadable by zoom,"
        " partition, export-html and the serve disk cache)",
    )
    p_layout.add_argument("--png", help="write a drawing")
    p_layout.add_argument("--width", type=int, default=800)
    p_layout.add_argument(
        "--lod",
        action="store_true",
        help="progressive level-of-detail: build a spectral coarsening"
        " hierarchy and print each refinement tier's timing to stderr;"
        " outputs (coords/png/archive) come from the final full-quality"
        " frame (see docs/lod.md)",
    )

    p_gaps = sub.add_parser("gaps", help="adjacency-gap histogram (Fig 2)")
    _add_graph_args(p_gaps)

    p_bench = sub.add_parser("bench", help="simulated breakdown + scaling")
    _add_graph_args(p_bench)
    p_bench.add_argument("-s", "--subspace", type=int, default=10)
    p_bench.add_argument("--machine", default="bridges-rsm", choices=sorted(_MACHINES))
    p_bench.add_argument(
        "--threads", type=int, nargs="+", default=[1, 4, 7, 14, 28]
    )

    p_coll = sub.add_parser("collection", help="collection stats (Table 2)")
    p_coll.add_argument("--scale", default="small", choices=datasets.SCALES)
    p_coll.add_argument("--seed", type=int, default=0)

    p_part = sub.add_parser("partition", help="layout-driven partitioning")
    _add_graph_args(p_part)
    p_part.add_argument("-k", "--parts", type=int, default=2)
    p_part.add_argument("-s", "--subspace", type=int, default=10)
    p_part.add_argument("--refine", action="store_true",
                        help="FM-refine a bipartition (k=2 only)")
    p_part.add_argument("--out", help="write one part label per line")
    p_part.add_argument("--png", help="write a colored drawing")
    _add_layout_input(p_part)

    p_zoom = sub.add_parser("zoom", help="k-hop neighborhood layout")
    _add_graph_args(p_zoom)
    p_zoom.add_argument("--center", type=int, default=0)
    p_zoom.add_argument("--hops", type=int, default=10)
    p_zoom.add_argument("-s", "--subspace", type=int, default=10)
    p_zoom.add_argument("--png", help="write the zoomed drawing")
    _add_layout_input(p_zoom)

    p_clu = sub.add_parser("cluster", help="spectral / label-prop clustering")
    _add_graph_args(p_clu)
    p_clu.add_argument("--method", default="spectral",
                       choices=("spectral", "labelprop"))
    p_clu.add_argument("-k", "--clusters", type=int, default=4,
                       help="cluster count (spectral only)")
    p_clu.add_argument("--out", help="write one label per line")
    p_clu.add_argument("--png", help="write a colored drawing")

    p_html = sub.add_parser(
        "export-html", help="interactive pan/zoom HTML viewer"
    )
    _add_graph_args(p_html)
    p_html.add_argument("-s", "--subspace", type=int, default=10)
    p_html.add_argument("output", help="HTML file to write")
    _add_layout_input(p_html)

    p_serve = sub.add_parser(
        "serve", help="HTTP layout server (cache + admission control)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="TCP port (0 = ephemeral)")
    p_serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker *processes* behind a consistent-hash router"
        " (0 = single-process, engine in this process; see"
        " docs/cluster.md)",
    )
    p_serve.add_argument(
        "--threads",
        type=int,
        default=2,
        help="concurrent layout computations per engine (each worker"
        " process gets its own pool of this size)",
    )
    p_serve.add_argument("--queue-depth", type=int, default=8,
                         help="queued computations before 503 Overloaded")
    p_serve.add_argument("--timeout", type=float, default=60.0,
                         help="per-request deadline in seconds")
    p_serve.add_argument("--cache-mb", type=float, default=256.0,
                         help="in-memory cache budget (MiB)")
    p_serve.add_argument("--cache-dir",
                         help="directory for the persistent disk cache tier")
    p_serve.add_argument(
        "--wal",
        metavar="DIR",
        help="write-ahead-log directory: journal graph updates durably and"
        " replay them on (re)start, so restarts — including respawned"
        " cluster workers — resume at the post-update epochs instead of"
        " pristine state (per-worker subdirs in cluster mode; see"
        " docs/wal.md)",
    )
    p_serve.add_argument(
        "--wal-fsync",
        default="batch",
        choices=("always", "batch", "off"),
        help="WAL durability policy: fsync per update, coalesced, or never",
    )
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")
    p_serve.add_argument(
        "--resilience",
        action="store_true",
        help="serve degraded (never erroring) layouts under failures and"
        " deadline pressure: degradation ladder + retries + per-graph"
        " circuit breakers (see docs/resilience.md)",
    )
    p_serve.add_argument(
        "--lod",
        metavar="MODE",
        default=None,
        help="default progressive-LOD mode for requests that do not set"
        " one: 'auto', 'off', or a first-paint budget in ms (per-request"
        " 'lod' always works regardless; see docs/lod.md)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="graceful-shutdown budget: seconds to wait for in-flight"
        " requests after SIGTERM/SIGINT before exiting",
    )

    p_stream = sub.add_parser(
        "stream",
        help="replay an edge-event file through a dynamic layout session",
    )
    _add_graph_args(p_stream)
    p_stream.add_argument(
        "events",
        help="edge-event file: '+ u v [w]' inserts, '- u v' deletes,"
        " '---' batch boundaries, '#' comments",
    )
    p_stream.add_argument("-s", "--subspace", type=int, default=10)
    p_stream.add_argument(
        "--traversal",
        default="per-source",
        choices=("per-source", "batched"),
        help="BFS backend for the initial layout and every full"
        " relayout (batched = frontier-matrix multi-source sweep)",
    )
    p_stream.add_argument(
        "--batch",
        type=int,
        default=1,
        help="events per update when the file has no '---' boundaries",
    )
    p_stream.add_argument(
        "--drift-threshold",
        type=float,
        default=0.10,
        help="B-entry change fraction that escalates to a full relayout",
    )
    p_stream.add_argument(
        "--staleness-limit",
        type=int,
        default=64,
        help="consecutive repairs before a warm full relayout",
    )
    p_stream.add_argument(
        "--layout",
        metavar="FILE.npz",
        help="warm-start from a saved layout archive (include_subspace)",
    )
    p_stream.add_argument(
        "--save-layout",
        metavar="FILE.npz",
        help="save the final frame (warm-startable archive)",
    )
    p_stream.add_argument(
        "--wal",
        metavar="DIR",
        help="write-ahead-log directory: O(delta) journaling + periodic"
        " checkpoints; resumes from DIR when it already holds a journal"
        " (docs/wal.md)",
    )
    p_stream.add_argument(
        "--strict",
        action="store_true",
        help="error on no-op edits instead of skipping them",
    )

    p_check = sub.add_parser(
        "check", help="run the pipeline invariant suite (repro.validate)"
    )
    _add_graph_args(p_check)
    p_check.add_argument("-s", "--subspace", type=int, default=8)
    p_check.add_argument(
        "--strict",
        action="store_true",
        help="also run the deep checks (stream repair equivalence, cache"
        " round-trip); exit 1 on any violation either way",
    )
    p_check.add_argument(
        "--weighted",
        action="store_true",
        help="apply deterministic integer weights and check the SSSP path",
    )
    p_check.add_argument(
        "--inject",
        metavar="FAULT",
        help="corrupt one pipeline intermediate and report whether its"
        " checker catches it ('all' = every registered fault, 'list' ="
        " print the registry)",
    )

    p_rep = sub.add_parser(
        "reproduce", help="run the paper-reproduction benchmarks"
    )
    p_rep.add_argument(
        "ids",
        nargs="*",
        help="experiment ids, e.g. table3 fig4 sssp (default: all)",
    )
    p_rep.add_argument("--list", action="store_true", dest="list_only")
    p_rep.add_argument(
        "--scale",
        default=None,
        choices=datasets.SCALES,
        help="dataset scale override (sets REPRO_BENCH_SCALE)",
    )

    args = parser.parse_args(argv)

    if args.command == "reproduce":
        return _reproduce(args, parser)

    if args.command == "collection":
        rows = datasets.collection_table(args.scale, args.seed)
        print(datasets.format_table2(rows))
        return 0

    if args.command == "serve":
        return _serve(args)

    g = _load_graph(args.graph, args.scale, args.seed)
    print(f"loaded {g!r}", file=sys.stderr)

    if args.command == "gaps":
        print(fibonacci_histogram(g).format())
        return 0

    if args.command == "stream":
        return _stream(g, args, parser)

    if args.command == "check":
        return _check(g, args, parser)

    if args.command == "layout":
        algo = DEFAULT_ALGORITHMS[args.algo]
        try:
            cfg = KernelConfig(
                pivots=args.pivots,
                traversal=args.traversal,
                rounds=args.rounds,
                subspace=args.subspace_method,
            )
            cfg.require_only(
                getattr(algo, "honoured_kernels", KERNEL_FIELDS), args.algo
            )
        except ValueError as exc:
            parser.error(str(exc))
        kwargs = {"kernels": cfg}
        try:
            constraints = _parse_constraint_flags(args)
        except ValueError as exc:
            parser.error(str(exc))
        if constraints is not None:
            if args.rounds:
                parser.error("--pin/--mass/--region require --rounds 0")
            kwargs["constraints"] = constraints
        if args.lod:
            import time as _time

            from .lod import progressive_layout

            t0 = _time.perf_counter()
            res = None
            for frame in progressive_layout(
                g,
                args.subspace,
                seed=args.seed,
                algorithm=algo,
                algorithm_name=args.algo,
                **kwargs,
            ):
                print(
                    f"lod: tier={frame.tier} depth={frame.depth}"
                    f" t={_time.perf_counter() - t0:.3f}s",
                    file=sys.stderr,
                )
                res = frame.result
            assert res is not None
        else:
            res = algo(g, args.subspace, seed=args.seed, **kwargs)
        print(
            f"{args.algo}: s={args.subspace} pivots={list(map(int, res.pivots))} "
            f"dropped={res.dropped}",
            file=sys.stderr,
        )
        if args.coords_out:
            np.savetxt(args.coords_out, res.coords, fmt="%.10g")
            print(f"coordinates -> {args.coords_out}", file=sys.stderr)
        if args.save_layout:
            from .core import save_layout

            save_layout(res, args.save_layout)
            print(f"layout archive -> {args.save_layout}", file=sys.stderr)
        if args.png:
            save_drawing(
                g, res.coords, args.png, width=args.width, height=args.width
            )
            print(f"drawing -> {args.png}", file=sys.stderr)
        if not args.coords_out and not args.png and not args.save_layout:
            np.savetxt(sys.stdout, res.coords, fmt="%.10g")
        return 0

    if args.command == "partition":
        from .partition import (
            balance,
            coordinate_bisection,
            cut_fraction,
            fm_refine,
        )

        if args.layout:
            coords = _load_saved_coords(args.layout, g, parser)
        else:
            coords = parhde(g, args.subspace, seed=args.seed).coords
        parts = coordinate_bisection(g, coords, args.parts)
        if args.refine:
            if args.parts != 2:
                parser.error("--refine supports bipartitions (k=2)")
            parts, stats = fm_refine(g, parts)
            print(
                f"FM: cut {stats.cut_before:.0f} -> {stats.cut_after:.0f}",
                file=sys.stderr,
            )
        print(
            f"k={args.parts}: cut fraction {cut_fraction(g, parts):.4f},"
            f" balance {balance(parts, args.parts):.3f}",
            file=sys.stderr,
        )
        if args.out:
            np.savetxt(args.out, parts, fmt="%d")
            print(f"labels -> {args.out}", file=sys.stderr)
        if args.png:
            from .drawing import partition_edge_colors, render_layout, write_png

            u, v = g.edge_list()
            canvas = render_layout(
                g,
                coords,
                width=args.width if hasattr(args, "width") else 800,
                height=800,
                edge_colors=partition_edge_colors(u, v, parts),
            )
            write_png(args.png, canvas.pixels)
            print(f"drawing -> {args.png}", file=sys.stderr)
        if not args.out and not args.png:
            np.savetxt(sys.stdout, parts, fmt="%d")
        return 0

    if args.command == "zoom":
        if args.layout:
            # Reuse the saved full-graph layout: restrict its coordinates
            # to the k-hop ball instead of re-running ParHDE on it.
            from .core import khop_subgraph

            full_coords = _load_saved_coords(args.layout, g, parser)
            sub, ids = khop_subgraph(g, args.center, args.hops)
            coords = full_coords[ids]
        else:
            from .core import zoom_layout

            z = zoom_layout(
                g, center=args.center, hops=args.hops, s=args.subspace,
                seed=args.seed,
            )
            sub, coords = z.subgraph, z.layout.coords
        print(
            f"zoom: {sub.n} vertices / {sub.m} edges within"
            f" {args.hops} hops of {args.center}",
            file=sys.stderr,
        )
        if args.png:
            save_drawing(sub, coords, args.png)
            print(f"drawing -> {args.png}", file=sys.stderr)
        else:
            np.savetxt(sys.stdout, coords, fmt="%.10g")
        return 0

    if args.command == "cluster":
        if args.method == "spectral":
            from .partition import spectral_clustering

            km = spectral_clustering(g, args.clusters, seed=args.seed)
            labels = km.labels
            print(
                f"spectral clustering: k={args.clusters},"
                f" inertia {km.inertia:.4g}",
                file=sys.stderr,
            )
        else:
            from .partition import label_propagation

            lp = label_propagation(g, seed=args.seed)
            labels = lp.labels
            print(
                f"label propagation: {lp.communities} communities in"
                f" {lp.sweeps} sweeps",
                file=sys.stderr,
            )
        if args.out:
            np.savetxt(args.out, labels, fmt="%d")
            print(f"labels -> {args.out}", file=sys.stderr)
        if args.png:
            from .drawing import partition_edge_colors, render_layout, write_png

            res = parhde(g, 10, seed=args.seed)
            u, v = g.edge_list()
            canvas = render_layout(
                g, res.coords, width=800, height=800,
                edge_colors=partition_edge_colors(u, v, labels),
            )
            write_png(args.png, canvas.pixels)
            print(f"drawing -> {args.png}", file=sys.stderr)
        if not args.out and not args.png:
            np.savetxt(sys.stdout, labels, fmt="%d")
        return 0

    if args.command == "export-html":
        from .drawing import write_interactive_html

        if args.layout:
            coords = _load_saved_coords(args.layout, g, parser)
        else:
            coords = parhde(g, args.subspace, seed=args.seed).coords
        write_interactive_html(
            g, coords, args.output, title=f"ParHDE: {g.name or args.graph}"
        )
        print(f"interactive viewer -> {args.output}", file=sys.stderr)
        return 0

    if args.command == "bench":
        machine = _MACHINES[args.machine]
        res = parhde(g, args.subspace, seed=args.seed)
        rows = {g.name or args.graph: res.breakdown(machine, max(args.threads))}
        print(format_breakdown_table(rows))
        series = {
            g.name
            or args.graph: {
                p: res.simulated_seconds(machine, p) for p in args.threads
            }
        }
        print()
        print(format_scaling_table(series))
        return 0

    return 1


def _serve(args) -> int:
    import signal
    import threading

    if args.workers < 0:
        print("--workers must be >= 0", file=sys.stderr)
        return 2

    cache = None
    engine = None
    router = None
    if args.workers == 0:
        from .service import LayoutCache, LayoutEngine, make_server

        cache = LayoutCache(
            max_bytes=int(args.cache_mb * 1024 * 1024),
            disk_dir=args.cache_dir,
        )
        engine = LayoutEngine(
            cache=cache,
            workers=args.threads,
            queue_limit=args.queue_depth,
            timeout=args.timeout,
            resilience=True if args.resilience else None,
            wal_dir=args.wal,
            wal_fsync=args.wal_fsync,
            lod=args.lod,
        )
        server = make_server(
            engine, host=args.host, port=args.port, verbose=args.verbose
        )
        mode = f"single-process, threads={args.threads}"
    else:
        from .cluster import ClusterRouter, make_cluster_server

        router = ClusterRouter(
            args.workers,
            compute_threads=args.threads,
            queue_limit=args.queue_depth,
            timeout=args.timeout,
            cache_mb=args.cache_mb,
            cache_dir=args.cache_dir,
            resilience=args.resilience,
            lod=args.lod,
            wal_dir=args.wal,
            wal_fsync=args.wal_fsync,
        )
        print(
            f"parhde serve: spawning {args.workers} worker"
            f" process{'es' if args.workers != 1 else ''}...",
            file=sys.stderr,
        )
        router.start()
        server = make_cluster_server(
            router, host=args.host, port=args.port, verbose=args.verbose
        )
        mode = f"{args.workers} worker processes, threads={args.threads}/worker"
    host, port = server.address
    print(
        f"parhde serve: listening on http://{host}:{port}"
        f" ({mode}, queue={args.queue_depth},"
        f" cache={args.cache_mb:g} MiB"
        + (f", disk={args.cache_dir}" if args.cache_dir else "")
        + (f", wal={args.wal}" if args.wal else "")
        + (", resilience=on" if args.resilience else "")
        + (f", lod={args.lod}" if args.lod else "")
        + ")",
        file=sys.stderr,
    )
    print(
        "routes: POST /layout  GET /layout  POST /update  GET /healthz"
        "  GET /stats[?format=text]",
        file=sys.stderr,
    )

    stop = threading.Event()

    def _signalled(signum, frame):  # noqa: ARG001 — signal API
        stop.set()

    try:
        signal.signal(signal.SIGTERM, _signalled)
        signal.signal(signal.SIGINT, _signalled)
    except ValueError:
        pass  # not the main thread (embedded use) — Ctrl-C still works

    server.start()
    try:
        while not stop.is_set():
            stop.wait(0.5)
    except KeyboardInterrupt:
        pass
    # Graceful shutdown: flip to draining (new POSTs get 503, /healthz
    # reports "draining"), wait out in-flight work, persist caches,
    # then stop the accept loop.  In cluster mode the drain fans out to
    # every worker engine and close() tears the processes down.
    print("draining: refusing new work", file=sys.stderr)
    clean = server.drain(args.drain_timeout)
    flushed = cache.flush() if cache is not None else None
    server.shutdown()
    if engine is not None:
        engine.close()
    if router is not None:
        router.close()
    print(
        f"shutdown: drained={'clean' if clean else 'timed out'}"
        + (f" cache_flushed={flushed}" if flushed is not None else ""),
        file=sys.stderr,
    )
    return 0


def _parse_constraint_flags(args):
    """Translate --pin/--mass/--region flags into a ConstraintSpec dict.

    Returns ``None`` when no constraint flag was given.  Spellings:
    ``--pin 5:0.5,0.5``, ``--mass 3:10``, ``--region='-1:1,-1:1'``.
    """
    pins = {}
    for spec in args.pin:
        vertex, sep, coords = spec.partition(":")
        if not sep:
            raise ValueError(f"--pin needs V:X,Y, got {spec!r}")
        try:
            pins[int(vertex)] = tuple(float(c) for c in coords.split(","))
        except ValueError:
            raise ValueError(f"--pin needs V:X,Y, got {spec!r}") from None
    masses = {}
    for spec in args.mass:
        vertex, sep, mass = spec.partition(":")
        if not sep:
            raise ValueError(f"--mass needs V:M, got {spec!r}")
        try:
            masses[int(vertex)] = float(mass)
        except ValueError:
            raise ValueError(f"--mass needs V:M, got {spec!r}") from None
    region = None
    if args.region:
        region = []
        for axis in args.region.split(","):
            lo, sep, hi = axis.partition(":")
            if not sep:
                raise ValueError(
                    f"--region needs LO:HI per axis, got {args.region!r}"
                )
            try:
                region.append((float(lo), float(hi)))
            except ValueError:
                raise ValueError(
                    f"--region needs LO:HI per axis, got {args.region!r}"
                ) from None
    if not pins and not masses and region is None:
        return None
    out = {}
    if pins:
        out["pins"] = pins
    if masses:
        out["masses"] = masses
    if region is not None:
        out["region"] = region
    return out


def _stream(g, args, parser) -> int:
    import statistics
    import time

    from .stream import (
        EdgeDelta,
        StreamPolicy,
        StreamSession,
        bfs_work_units,
        read_events,
    )

    try:
        events = read_events(args.events)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read events {args.events!r}: {exc}")
    # Batches: explicit '---' boundaries win; otherwise chunk by --batch.
    batches: list[list[tuple]] = [[]]
    if any(ev == ("|",) for ev in events):
        for ev in events:
            if ev == ("|",):
                batches.append([])
            else:
                batches[-1].append(ev)
    else:
        if args.batch < 1:
            parser.error("--batch must be >= 1")
        for i in range(0, len(events), args.batch):
            if batches == [[]]:
                batches = []
            batches.append(events[i : i + args.batch])
    batches = [b for b in batches if b]
    if not batches:
        parser.error(f"no events in {args.events!r}")

    policy = StreamPolicy(
        drift_threshold=args.drift_threshold,
        staleness_limit=args.staleness_limit,
    )
    t0 = time.perf_counter()
    wal = getattr(args, "wal", None)
    if args.layout:
        try:
            session = StreamSession.from_layout(
                g, args.layout, policy=policy, wal=wal
            )
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"cannot warm-start from {args.layout!r}: {exc}")
    else:
        opts = dict(
            s=args.subspace,
            seed=args.seed,
            policy=policy,
            kernels={"traversal": args.traversal},
        )
        if wal:
            session = StreamSession.resume_wal(g, wal, **opts)
            if session.epoch:
                print(
                    f"resumed from WAL {wal} (epoch {session.epoch})",
                    file=sys.stderr,
                )
        else:
            session = StreamSession(g, **opts)
    print(
        f"initial layout: {time.perf_counter() - t0:.3f}s"
        f" (s={session.s}, n={session.n})",
        file=sys.stderr,
    )

    latencies: list[float] = []
    rejected = 0
    for i, batch in enumerate(batches):
        try:
            delta = EdgeDelta.from_events(batch)
        except ValueError as exc:
            parser.error(f"bad batch {i}: {exc}")
        try:
            up = session.update(delta, strict=args.strict)
        except ValueError as exc:
            rejected += 1
            print(f"update {i}: rejected ({exc})", file=sys.stderr)
            continue
        latencies.append(up.elapsed)
        print(
            f"update {i}: mode={up.mode} reason={up.reason}"
            f" edits={up.applied_edits} drift={up.drift:.4f}"
            f" bfs_work={bfs_work_units(up.ledger):.0f}"
            f" latency_ms={up.elapsed * 1e3:.1f}"
        )
    st = session.stats
    total = st["repairs"] + st["relayouts"]
    if total:
        print(
            f"updates={total} repairs={st['repairs']}"
            f" relayouts={st['relayouts']} rejected={rejected}"
            f" repair_rate={st['repairs'] / total:.2f}"
        )
    else:
        print(f"updates=0 rejected={rejected}")
    if latencies:
        print(
            f"latency_ms: median={statistics.median(latencies) * 1e3:.1f}"
            f" max={max(latencies) * 1e3:.1f}"
        )
    if args.save_layout:
        from .core import save_layout

        save_layout(session.snapshot_result(), args.save_layout)
        print(f"layout archive -> {args.save_layout}", file=sys.stderr)
    session.close()
    return 0


def _check(g, args, parser) -> int:
    from .validate import FAULTS, run_injection, run_suite

    if args.weighted:
        from .graph.weights import random_integer_weights

        g = random_integer_weights(g, seed=args.seed)

    if args.inject:
        if args.inject == "list":
            for name, (description, _) in FAULTS.items():
                print(f"{name:<24} {description}")
            return 0
        names = None if args.inject == "all" else [args.inject]
        try:
            outcomes = run_injection(
                g, names, s=args.subspace, seed=args.seed
            )
        except KeyError as exc:
            parser.error(str(exc.args[0]))
        for outcome in outcomes:
            print(outcome.format())
        if args.inject == "all":
            # Harness self-test: success means every corruption was caught.
            caught = sum(o.caught for o in outcomes)
            print(f"harness: {caught}/{len(outcomes)} faults caught")
            return 0 if caught == len(outcomes) else 1
        # Single fault: the exit code mirrors a real corrupted run —
        # nonzero when the checkers flag the pipeline as broken.
        return 1 if outcomes[0].caught else 0

    report = run_suite(
        g,
        args.subspace,
        seed=args.seed,
        policy="strict" if args.strict else "warn",
        weighted=args.weighted,
    )
    print(report.format())
    return 0 if report.ok else 1


def _reproduce(args, parser) -> int:
    import os
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parent.parent.parent / "benchmarks"
    if not bench_dir.is_dir():
        print(
            "benchmarks/ not found next to the package; run from a source"
            " checkout",
            file=sys.stderr,
        )
        return 1
    files = sorted(bench_dir.glob("bench_*.py"))
    if args.list_only:
        for f in files:
            print(f.stem.removeprefix("bench_"))
        return 0
    if args.ids:
        chosen = [
            f
            for f in files
            if any(ident in f.stem for ident in args.ids)
        ]
        if not chosen:
            parser.error(
                f"no benchmark matches {args.ids}; try 'reproduce --list'"
            )
    else:
        chosen = files
    if args.scale:
        os.environ["REPRO_BENCH_SCALE"] = args.scale
    import pytest

    return pytest.main(
        [str(f) for f in chosen] + ["--benchmark-only", "-q"]
    )


if __name__ == "__main__":
    raise SystemExit(main())
