"""Record ``reference.json``: the program's outputs on the default world.

    python3 perfbench/record_reference.py

Builds once, runs the whole Fig. 9 sweep, and answers every test-split OD and
every pool OD with both routers. Run it only when a change is meant to
alter these outputs, and say so in the change.
"""
from __future__ import annotations

import json
import sys

import checks
import run
import world as wd


def main() -> int:
    wd.prepare_environment()
    from repro.baselines.costcentric import FastestRouter
    from repro.core.transfer import transfer_cv_experiment

    tally = run.Tally()
    spark, _ = run.start()
    try:
        world, _ = run.set_up(spark, wd.WORLD_SEEDS)
        arts, _ = run.offline_build(spark, world, tally, None)
        rg = arts.router.rg
        table = transfer_cv_experiment(spark, rg)  # the whole Fig. 9 table
    finally:
        wd.stop_spark(spark)
    routers = {"l2r": arts.router, "fastest": FastestRouter(world.city.net)}
    adj = checks.Adjacency(world.city.net)
    test = [(t.path[0], t.path[-1], t.peak) for t in world.test]
    sources = {"test": test} | {
        cat: [(s, d, False) for s, d in ods] for cat, ods in wd.od_pools(rg.vertex_region).items()
    }
    answers: dict[str, dict[str, list[str]]] = {}
    for source, ods in sources.items():
        answers[source] = {}
        for name, router in routers.items():
            paths = [router.route(s, d, peak=p) for s, d, p in ods]
            bad = [od for od, p in zip(ods, paths) if not adj.is_walk(p, od[0], od[1])]
            if bad:
                print(f"{name} answers {len(bad)} {source} ODs with no walk", file=sys.stderr)
                return 1
            answers[source][name] = [checks.path_digest(p) for p in paths]
    stream = [wd.Query(s, d, p, "test", i) for i, (s, d, p) in enumerate(test)]
    ref = {
        "world_seeds": list(wd.WORLD_SEEDS),
        "world": checks.world_shape(world, rg),
        "prefs_digest": checks.prefs_digest(rg),
        "payload_digest": checks.payload_digest(rg),
        "fig9": checks.fig9_rows(table),
        "route_acc": run.route_accuracy(world, stream, [routers["l2r"].route(s, d) for s, d, _ in test]),
        "answers": answers,
    }
    checks.REFERENCE.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    print(f"wrote {checks.REFERENCE}: {ref['world']}, route_acc {ref['route_acc']:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
