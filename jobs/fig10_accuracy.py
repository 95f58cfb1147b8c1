"""Figs. 10, 11 and 12 as tables — accuracy (Eqs. 1 & 4) and run-time of
L2R vs Shortest / Fastest / Dom / TRIP, by distance bucket and region
category; plus the offline stage timings (Sec. VII-C)."""
from common import build_world, get_session, scale_from_argv

from repro.baselines.costcentric import FastestRouter, ShortestRouter
from repro.baselines.dom import DomRouter
from repro.baselines.trip import TripRouter
from repro.core.pipeline import build_l2r
from repro.eval.harness import (
    accuracy_by_bucket,
    accuracy_by_category,
    evaluate,
    pivot_pdf,
    runtime_table,
)
from repro.traj.stats import D2_BUCKETS


def main() -> None:
    spark = get_session("fig10")
    city, train, test = build_world(scale_from_argv())
    arts = build_l2r(spark, city, train)
    print("\n=== Offline processing times (Sec. VII-C), seconds ===")
    print(arts.timings_s)

    routers = {
        "L2R": arts.router,
        "Shortest": ShortestRouter(city.net),
        "Fastest": FastestRouter(city.net),
        "Dom": DomRouter(city.net).fit(train),
        "TRIP": TripRouter(city.net).fit(train),
    }
    res = evaluate(spark, routers, test, city.net, arts.router.rg.vertex_region).cache()
    buckets = accuracy_by_bucket(res, D2_BUCKETS)
    cats = accuracy_by_category(res)
    print("\n=== Fig. 10(a) as table: accuracy (Eq. 1) by distance bucket ===")
    print(pivot_pdf(buckets, "router", "bucket", "acc_eq1"))
    print("\n=== Fig. 10(b) as table: accuracy (Eq. 1) by region category ===")
    print(pivot_pdf(cats, "router", "category", "acc_eq1"))
    print("\n=== Fig. 11(a) as table: accuracy (Eq. 4) by distance bucket ===")
    print(pivot_pdf(buckets, "router", "bucket", "acc_eq4"))
    print("\n=== Fig. 11(b) as table: accuracy (Eq. 4) by region category ===")
    print(pivot_pdf(cats, "router", "category", "acc_eq4"))
    print("\n=== Fig. 12 as table: mean per-query routing time (ms) ===")
    print(pivot_pdf(runtime_table(res), "router", "category", "mean_ms"))


if __name__ == "__main__":
    main()
