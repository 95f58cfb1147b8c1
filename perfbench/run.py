"""End-to-end benchmark of the L2R reproduction.

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. One run goes through the whole life of
an L2R deployment on one fixed world (see ``world.py``):

1. set-up: start Spark, generate the world (three times; the median counts)
   and warm up on a tiny world;
2. ``offline_build``: ``build_l2r`` on the training split;
3. ``transfer_sweep``: the amr part of the Fig. 9 ``transfer_cv_experiment``
   over the built region graph, at amr 0.5, 0.7 and 0.9 (three
   ``run_transfer`` calls, from a dense to a sparse similarity graph),
   three times; the median counts;
4. Spark is stopped;
5. ``online_route``: a single client in a closed loop with no think time
   sends each query of a seeded OD stream to the L2R router and then to
   ``FastestRouter``, pass after pass until ``--seconds`` have passed;
   each latency metric is the median of its values in the passes after
   the first, which warms up.

The workloads differ only in the OD stream's category shares; the world,
the build and the sweep are the same in both. Every answer is checked (a
contiguous s->d walk, equal to the recorded reference), and so are the
preferences and the Fig. 9 table; a failed check counts in ``failed``.

``--trace 1`` records spans around the public functions of each layer
(routing included: a span per L2R query and per kernel call), reads the
Spark task count of every stage, runs the kernel micro-benchmarks, writes
the spans to ``perfbench/out/`` and reports the per-layer metrics instead
of the end-to-end ones.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

import checks
import world as wd
from spans import Tracer, stage_tasks

WORKLOADS = {
    # Equal thirds: each router case and the shortest-path kernel are used.
    "mixed": {"same_region": 1 / 3, "cross_region": 1 / 3, "outside": 1 / 3},
    # The shares of the training trajectories' own ODs (wd.traffic_shares):
    # at the default world seeds 2 % same-region, 98 % cross-region and no
    # Case 2, the trips the drivers made.
    "traffic": None,
}
LAYER_UNITS = (
    ("_s", "s"), ("_ms", "ms"), ("ms_p50", "ms"), ("ms_per_search", "ms"), ("_us", "us"),
    ("min_stage_tasks", "tasks"),
    ("kernel_calls", "calls/query"), ("_share", "share"), ("_rate", "share"),
)
WORLD_REPEATS = 3
# The amr end points and the default of Fig. 9's amr sweep (4 labeled folds).
# The whole nine-setting sweep would add 5 s to every run.
SWEEP_AMR = (0.5, 0.7, 0.9)
SWEEP_REPEATS = 3
KERNEL_ODS = 100

# The six stage functions as repro.core.pipeline binds them, by layer.
STAGES = (
    ("edge_popularity_array", "popularity"),
    ("bottom_up_clustering", "clustering"),
    ("build_region_graph", "region_graph"),
    ("learn_t_edge_preferences", "preference"),
    ("transfer_b_edge_preferences", "transfer"),
    ("apply_preferences", "apply_prefs"),
)
SPARK_LAYERS = ("popularity", "region_graph", "preference", "apply_prefs")


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


# --------------------------------------------------------------------------
# Phases
# --------------------------------------------------------------------------
def start() -> tuple[object, float]:
    """Start Spark and import the program; returns (session, seconds)."""
    t = perf_counter()
    spark = wd.start_spark()
    import repro.core.pipeline  # noqa: F401  (import cost belongs to set-up)

    return spark, perf_counter() - t


def set_up(spark, seeds):
    """Make the world (median of three) and warm up; returns (world, seconds)."""
    from repro.core.pipeline import build_l2r

    world_s = []
    for _ in range(WORLD_REPEATS):
        t = perf_counter()
        world = wd.make_world(seeds)
        world_s.append(perf_counter() - t)
    t = perf_counter()
    tiny = wd.make_world(seeds, **wd.WARMUP)
    build_l2r(spark, tiny.city, tiny.train)
    return world, statistics.median(world_s) + perf_counter() - t


def offline_build(spark, world, tally: Tally, ref):
    from repro.core.pipeline import build_l2r

    t = perf_counter()
    arts = build_l2r(spark, world.city, world.train)
    build_s = perf_counter() - t
    rg = arts.router.rg
    shape, prefs = checks.world_shape(world, rg), checks.prefs_digest(rg)
    tally.check(
        ref is None or (shape == ref["world"] and prefs == ref["prefs_digest"]),
        f"build: world {shape} or preferences {prefs} differ from the reference",
    )
    return arts, build_s


def transfer_sweep(spark, rg, tally: Tally, ref, repeats: int = SWEEP_REPEATS):
    """The sweep ``repeats`` times; returns its table and the median time."""
    from repro.core.transfer import transfer_cv_experiment

    times = []
    for _ in range(repeats):
        t = perf_counter()
        table = transfer_cv_experiment(spark, rg, amr_values=SWEEP_AMR, partitions_sweep=False)
        times.append(perf_counter() - t)
        rows = checks.fig9_rows(table)
        want = {(r[0], r[1]): r for r in (ref["fig9"] if ref is not None else rows)}
        for row in rows:
            tally.check(want.get((row[0], row[1])) == row, f"Fig. 9 row {row} != reference")
        tally.check(len(rows) == len(SWEEP_AMR), f"Fig. 9 sweep has {len(rows)} rows")
    return table, statistics.median(times)


def route_pass(routers, stream):
    """One closed-loop pass. Each query goes to every router in turn, so the
    routers are timed over the same stretch of time. Returns per-router
    latencies (s), answers (None where the router raised) and errors."""
    lat = {name: np.empty(len(stream)) for name in routers}
    answers: dict[str, list] = {name: [None] * len(stream) for name in routers}
    errors: list[str] = []
    for i, q in enumerate(stream):
        for name, router in routers.items():
            t = perf_counter()
            try:
                answers[name][i] = router.route(q.s, q.d, peak=q.peak)
            except Exception as exc:  # a failed query is counted, the loop goes on
                errors.append(f"{name} {q}: {type(exc).__name__}: {exc}")
            lat[name][i] = perf_counter() - t
    return lat, answers, errors


def check_answers(name, stream, answers, first, adj, ref, tally: Tally) -> None:
    """First pass: a walk equal to the reference; later passes: as the first."""
    for q, path, ok0 in zip(stream, answers, first or [None] * len(stream)):
        if first is not None:
            tally.check(path is not None and path == ok0, f"{name} {q} changed between passes")
            continue
        ok = path is not None and adj.is_walk(path, q.s, q.d)
        if ok and ref is not None:
            ok = checks.path_digest(path) == ref["answers"][q.source][name][q.index]
        tally.check(ok, f"{name} {q} is not the reference walk")


def online_route(routers, stream, seconds, adj, tally: Tally, ref):
    """Passes over the stream until ``seconds`` have passed, at least two;
    returns per-pass latencies (ms) per router and the first pass's answers.

    The first pass warms the routers up and is checked like the others, but
    its latencies are not returned: it runs slower than the later passes.
    """
    lat: dict[str, list] = {name: [] for name in routers}
    first: dict[str, list] = {}
    t0 = perf_counter()
    while len(lat["l2r"]) < 2 or perf_counter() - t0 < seconds:
        l, answers, errors = route_pass(routers, stream)
        tally.reasons.extend(errors[: max(0, 20 - len(tally.reasons))])
        for name in routers:
            lat[name].append(l[name])
            check_answers(name, stream, answers[name], first.get(name), adj, ref, tally)
        first = first or answers
    return {k: [a * 1000 for a in v[1:]] for k, v in lat.items()}, first


def route_accuracy(world, stream, answers) -> float:
    from repro.eval.similarity import psim

    net = world.city.net
    sims = [
        psim(net, world.test[q.index].path, a)
        for q, a in zip(stream, answers)
        if q.source == "test" and a is not None
    ]
    return float(np.mean(sims))


def routing_metrics(lat) -> dict:
    """Median over passes of each pass's figure, so that a stall of the host
    during one pass does not set the run's value."""
    def med(f, name):
        return float(np.median([f(p) for p in lat[name]]))

    return {
        "route_ms_p50": med(lambda p: np.percentile(p, 50), "l2r"),
        "route_ms_p99": med(lambda p: np.percentile(p, 99), "l2r"),
        "route_qps": med(lambda p: 1000 * len(p) / p.sum(), "l2r"),
        "fastest_ms_p50": med(lambda p: np.percentile(p, 50), "fastest"),
    }


# --------------------------------------------------------------------------
# Traced phases (per-layer metrics)
# --------------------------------------------------------------------------
def traced_build(spark, world, tracer: Tracer, tally: Tally, ref):
    import repro.core.pipeline as pipeline
    import repro.core.transfer as transfer

    sc = spark.sparkContext

    def before(layer):
        return lambda attrs: sc.setJobGroup(layer, layer)

    def after(layer):
        def done(attrs, result):
            attrs["stage_tasks"] = stage_tasks(sc, layer)
            sc.setJobGroup("pipeline", "pipeline")
            if layer == "popularity":
                attrs["covered_edges"] = int((result > 0).sum())
            elif layer == "clustering":
                attrs["regions"] = len(result)
            elif layer == "region_graph":
                t = [e for e in result.edges.values() if e.kind == "T"]
                attrs["t_edges"] = len(t)
                attrs["b_edges"] = len(result.edges) - len(t)
                attrs["t_paths"] = sum(len(e.paths) for e in t)
            elif layer == "apply_prefs":
                attrs["paths_built"] = int(result)

        return done

    for attr, layer in STAGES:
        tracer.wrap(pipeline, attr, layer, before(layer), after(layer))
    tracer.wrap(transfer, "run_transfer", "run_transfer", after=lambda a, r: a.update(solve_s=r[1]))
    own = tracer.own_s
    try:
        with tracer.span("pipeline", trace="build") as attrs:
            sc.setJobGroup("pipeline", "pipeline")
            arts, build_s = offline_build(spark, world, tally, ref)
    finally:
        tracer.unwrap()
    attrs["own_s"] = tracer.own_s - own
    return arts, build_s


def build_metrics(tracer: Tracer, rg) -> dict:
    span = {s.name: s for s in tracer.spans if s.trace == "build"}
    m: dict[str, float] = {}
    for _, layer in STAGES:
        m[f"{layer}.wall_s"] = span[layer].duration
    for layer in SPARK_LAYERS:
        m[f"{layer}.min_stage_tasks"] = min(span[layer].attrs["stage_tasks"])
    m["popularity.covered_edges"] = span["popularity"].attrs["covered_edges"]
    m["clustering.regions"] = span["clustering"].attrs["regions"]
    for k in ("t_edges", "b_edges", "t_paths"):
        m[f"region_graph.{k}"] = span["region_graph"].attrs[k]
    searches = 9 * m["region_graph.t_paths"]  # 3 masters + 6 slaves per path
    m["preference.searches"] = searches
    m["preference.ms_per_search"] = 1000 * m["preference.wall_s"] / searches
    run = span["run_transfer"]
    m["transfer.solve_s"] = run.attrs["solve_s"]
    m["transfer.similarity_s"] = run.duration - run.attrs["solve_s"]
    m["transfer.null_prefs"] = sum(1 for e in rg.edges.values() if e.kind == "B" and e.pref is None)
    m["apply_prefs.paths_built"] = span["apply_prefs"].attrs["paths_built"]
    m["pipeline.self_s"] = tracer.self_time(span["pipeline"])
    m["trace_overhead.build_s"] = span["pipeline"].attrs["own_s"]
    return m


def traced_sweep(spark, rg, tracer: Tracer, tally: Tally, ref):
    import repro.core.transfer as transfer

    tracer.wrap(transfer, "run_transfer", "run_transfer", after=lambda a, r: a.update(solve_s=r[1]))
    own = tracer.own_s
    try:
        with tracer.span("transfer_sweep", trace="sweep"):
            table, transfer_s = transfer_sweep(spark, rg, tally, ref, repeats=1)
    finally:
        tracer.unwrap()
    calls = [s for s in tracer.named("run_transfer") if s.trace == "sweep"]
    solve = sum(s.attrs["solve_s"] for s in calls)
    return table, transfer_s, {
        "transfer_sweep.solve_s": solve,
        "transfer_sweep.similarity_s": sum(s.duration for s in calls) - solve,
        "trace_overhead.transfer_s": tracer.own_s - own,
    }


def similarity_pairs(spark, rg) -> dict:
    """Region-edge pairs above amr at both ends of the sweep's range."""
    from repro.core.transfer import pairwise_similarity, region_edge_features

    feat = region_edge_features(spark, rg).cache()
    out = {f"transfer.pairs_amr_{amr}": pairwise_similarity(feat, amr).count() for amr in (0.5, 0.9)}
    feat.unpersist()
    return out


def traced_route(routers, stream, seconds, adj, tracer, tally, ref, vr):
    """The routing phase with a span per L2R query and per kernel call (Fastest
    is not traced); returns latencies, first-pass answers and the metrics."""
    import repro.core.routing as routing

    class Traced:
        def __init__(self, router):
            self.router = router
            self.n = 0

        def route(self, s, d, peak=False):
            self.n += 1
            with tracer.span("route", trace=f"q{self.n}", s=s, d=d):
                return self.router.route(s, d, peak=peak)

    traced = Traced(routers["l2r"])
    tracer.wrap(routing, "dijkstra", "kernel")
    own = tracer.own_s
    try:
        lat, first = online_route(
            {"l2r": traced, "fastest": routers["fastest"]}, stream, seconds, adj, tally, ref
        )
    finally:
        tracer.unwrap()
    kids = tracer.by_parent()
    per_cat = {c: ([], [], [0.0, 0.0]) for c in wd.CATEGORIES}
    for s in tracer.named("route"):
        ms, calls, share = per_cat[wd.category(vr, s.attrs["s"], s.attrs["d"])]
        k = [c for c in kids.get(s.sid, []) if c.name == "kernel"]
        ms.append(1000 * s.duration)
        calls.append(len(k))
        share[0] += sum(c.duration for c in k)
        share[1] += s.duration
    m = {"trace_overhead.route_ms": 1000 * (tracer.own_s - own) / traced.n}
    for cat, (ms, calls, share) in per_cat.items():
        m[f"routing.{cat}.ms_p50"] = float(np.median(ms))
        m[f"routing.{cat}.kernel_calls"] = float(np.mean(calls))
        m[f"routing.{cat}.kernel_share"] = share[0] / share[1]
    return lat, first, m


def kernel_micro(net, seed: int, tracer: Tracer) -> dict:
    """Dijkstra under DI/TT/FC and Alg. 2 under 3 masters x 6 slaves over a
    seeded OD set on the workload's network; pSim on the resulting pairs."""
    import repro.roadnet.shortest_path as sp
    from repro.eval.similarity import psim
    from repro.roadnet.model import COSTS, ROAD_TYPES

    dijkstra, alg2 = sp.dijkstra, sp.preference_dijkstra
    g = np.random.default_rng(seed)
    ods = [(int(s), int(d)) for s, d in g.integers(0, net.n_vertices, size=(KERNEL_ODS, 2)) if s != d]
    weights = {c: net.weights(c) for c in COSTS}
    m: dict[str, float] = {}
    fastest = {}
    total = 0.0
    for c in COSTS:
        t = perf_counter()
        for s, d in ods:
            res = dijkstra(net, s, d, weights[c])
            if c == "TT":
                fastest[(s, d)] = res[0]
        m[f"shortest_path.dijkstra_ms.{c}"] = 1000 * (perf_counter() - t) / len(ods)
        total += perf_counter() - t
    m["shortest_path.dijkstra_ms"] = 1000 * total / (len(ods) * len(COSTS))
    # Alg. 2 falls back to sp.dijkstra when the slave gate traps the search.
    tracer.wrap(sp, "dijkstra", "alg2_fallback")
    pairs, total = [], 0.0
    try:
        for c in COSTS:
            t = perf_counter()
            for rt in range(len(ROAD_TYPES)):
                for s, d in ods:
                    with tracer.span("alg2", trace="kernel"):
                        res = alg2(net, s, d, weights[c], rt)
                    pairs.append((fastest[(s, d)], res[0]))
            m[f"shortest_path.alg2_ms.{c}"] = 1000 * (perf_counter() - t) / (len(ods) * len(ROAD_TYPES))
            total += perf_counter() - t
    finally:
        tracer.unwrap()
    m["shortest_path.alg2_ms"] = 1000 * total / len(pairs)
    kids = tracer.by_parent()
    calls = tracer.named("alg2")
    m["shortest_path.alg2_trap_rate"] = sum(1 for s in calls if s.sid in kids) / len(calls)
    t = perf_counter()
    for gt, cand in pairs:
        psim(net, gt, cand)
    m["similarity.psim_us"] = 1e6 * (perf_counter() - t) / len(pairs)
    return m


def layer_unit(name: str) -> str:
    base = name.removesuffix(".DI").removesuffix(".TT").removesuffix(".FC")
    for suffix, unit in LAYER_UNITS:
        if base.endswith(suffix):
            return unit
    return "count"


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------
def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="draws and orders the OD stream")
    p.add_argument("--seconds", type=float, required=True, help="length of the routing phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--world-seeds", default=",".join(map(str, wd.WORLD_SEEDS)),
        help="city,trajectory,split seeds; references exist for the default only",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (wd.SRC / "repro").is_dir():
        print(f"perfbench: no program source at {wd.SRC / 'repro'}", file=sys.stderr)
        return 2
    seeds = tuple(int(x) for x in args.world_seeds.split(","))
    wd.prepare_environment()
    from repro.baselines.costcentric import FastestRouter

    ref = checks.load_reference(seeds)
    tally = Tally()
    tracer = Tracer()
    report: dict[str, object] = {}
    layer: dict[str, float] = {}

    spark, start_s = start()
    try:
        world, setup_s = set_up(spark, seeds)
        setup_s += start_s
        if args.trace:
            arts, build_s = traced_build(spark, world, tracer, tally, ref)
            rg = arts.router.rg
            layer.update(build_metrics(tracer, rg))
            for s in tracer.spans:
                if "stage_tasks" in s.attrs:
                    report[f"stage_tasks.{s.name}"] = s.attrs["stage_tasks"]
            layer.update(similarity_pairs(spark, rg))
            table, transfer_s, sweep_m = traced_sweep(spark, rg, tracer, tally, ref)
            layer.update(sweep_m)
        else:
            arts, build_s = offline_build(spark, world, tally, ref)
            rg = arts.router.rg
            table, transfer_s = transfer_sweep(spark, rg, tally, ref)
        report["prefs_digest"] = checks.prefs_digest(rg)
        report["payload_digest"] = checks.payload_digest(rg)
    finally:
        wd.stop_spark(spark)

    net = world.city.net
    vr = rg.vertex_region
    shares = WORKLOADS[args.workload] or wd.traffic_shares(world.train, vr)
    report["stream_shares"] = {c: round(v, 4) for c, v in shares.items()}
    stream = wd.make_stream(world, vr, shares, args.seed)
    routers = {"l2r": arts.router, "fastest": FastestRouter(net)}
    adj = checks.Adjacency(net)
    if args.trace:
        lat, first, route_layer = traced_route(
            routers, stream, args.seconds, adj, tracer, tally, ref, vr
        )
        layer.update(route_layer)
    else:
        lat, first = online_route(routers, stream, args.seconds, adj, tally, ref)
    route = routing_metrics(lat)
    route_acc = route_accuracy(world, stream, first["l2r"])
    if ref is not None:
        tally.check(round(route_acc, 9) == round(ref["route_acc"], 9), f"route_acc {route_acc}")
    report["answers_digest"] = checks.stream_digest(first["l2r"] + first["fastest"])
    report["timed_queries"] = {k: sum(len(p) for p in v) for k, v in lat.items()}
    report["timed_passes"] = len(lat["l2r"])
    report["pass_route_ms_p50"] = [round(float(np.median(p)), 4) for p in lat["l2r"]]

    if args.trace:
        same = sum(1 for a, b in zip(first["l2r"], first["fastest"]) if a == b)
        layer["routing.fastest_equal_rate"] = same / len(stream)
        layer.update(kernel_micro(net, args.seed, tracer))
        tracer.write(wd.OUT / f"spans-{args.workload}-{args.seed}.jsonl")

    e2e = {
        "setup_s": (setup_s, "s"),
        "build_s": (build_s, "s"),
        "transfer_s": (transfer_s, "s"),
        "route_ms_p50": (route["route_ms_p50"], "ms"),
        "route_ms_p99": (route["route_ms_p99"], "ms"),
        "route_qps": (route["route_qps"], "1/s"),
        "fastest_ms_p50": (route["fastest_ms_p50"], "ms"),
        "route_acc": (route_acc, "pSim"),
        "transfer_acc": (float(table["accuracy"].mean()), "Jaccard"),
        "driver_peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if args.trace:
        metrics = {k: {"value": float(v), "unit": layer_unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in e2e.items()}

    for k, v in report.items():
        print(f"# {k}: {v}")
    for r in tally.reasons:
        print(f"# FAILED: {r}")
    for k, m in metrics.items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
