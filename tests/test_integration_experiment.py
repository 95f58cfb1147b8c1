"""End-to-end integration: the paper's headline orderings at test scale.

Builds the full offline pipeline on a small city and checks the *shape* of
the evaluation results (Figs. 10–13): L2R attains the best overall
accuracy, Shortest degrades with distance, Dom is the slowest router, and
the Google surrogate lands in a plausible band below L2R.
"""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.baselines.costcentric import FastestRouter, ShortestRouter
from repro.baselines.dom import DomRouter
from repro.baselines.external import GoogleSimRouter
from repro.baselines.trip import TripRouter
from repro.core.pipeline import build_l2r
from repro.eval.band_match import band_accuracy
from repro.eval.harness import evaluate, runtime_table
from repro.roadnet.generator import make_city
from repro.traj.generator import generate_trajectories, split_train_test


@pytest.fixture(scope="module")
def world(spark):
    city = make_city(grid_n=24, cell_m=250.0, zone_cells=6, seed=7, local_cost_sigma=0.15)
    trajs = generate_trajectories(city, n=700, n_drivers=40, seed=11, alpha=1.0)
    train, test = split_train_test(trajs, 0.2, seed=13)
    arts = build_l2r(spark, city, train)
    routers = {
        "L2R": arts.router,
        "Shortest": ShortestRouter(city.net),
        "Fastest": FastestRouter(city.net),
        "Dom": DomRouter(city.net).fit(train),
        "TRIP": TripRouter(city.net).fit(train),
    }
    results = evaluate(spark, routers, test, city.net, arts.router.rg.vertex_region).cache()
    return city, arts, train, test, results


def _mean_sim(results, router):
    return results.where(F.col("router") == router).agg(F.avg("sim1")).first()[0]


def test_l2r_highest_overall_accuracy(world):
    """Fig. 10: 'L2R achieves the highest accuracy in all settings'."""
    _, _, _, _, results = world
    sims = {r: _mean_sim(results, r) for r in ["L2R", "Shortest", "Fastest", "Dom", "TRIP"]}
    best_baseline = max(v for k, v in sims.items() if k != "L2R")
    assert sims["L2R"] >= best_baseline - 1e-9, sims


def test_shortest_worst_at_long_distance(world):
    """Fig. 10: Shortest's accuracy drops with travel distance."""
    _, _, _, _, results = world
    far = results.where(F.col("dist_m") > 4000)
    sims = {
        r: far.where(F.col("router") == r).agg(F.avg("sim1")).first()[0]
        for r in ["Shortest", "Fastest", "L2R"]
    }
    assert sims["Shortest"] <= sims["Fastest"] + 0.02
    assert sims["Shortest"] <= sims["L2R"] + 0.02


def test_dom_is_slowest(world):
    """Fig. 12: Dom's multi-objective candidate generation dominates runtime."""
    _, _, _, _, results = world
    ms = {
        r["router"]: r["m"]
        for r in results.groupBy("router").agg(F.avg("ms").alias("m")).collect()
    }
    assert ms["Dom"] == max(ms.values())
    # TRIP performs single-objective routing: comparable to Fastest.
    assert ms["TRIP"] < 2.0 * ms["Fastest"]


def test_eq4_ordering_matches_eq1(world):
    """Fig. 11 uses Eq. 4: the L2R-on-top ordering must also hold there."""
    _, _, _, _, results = world
    sims = {
        r["router"]: r["m"]
        for r in results.groupBy("router").agg(F.avg("sim4").alias("m")).collect()
    }
    best_baseline = max(v for k, v in sims.items() if k != "L2R")
    assert sims["L2R"] >= best_baseline - 0.02


def test_google_surrogate_band(world):
    """Fig. 13: the external-service surrogate scores below L2R on the
    band-matching metric and sits in a plausible (not degenerate) band."""
    city, arts, _, test, results = world
    gs = GoogleSimRouter(city.net, seed=29)
    g_sims, l_sims = [], []
    for t in test[:60]:
        p = gs.route(t.path[0], t.path[-1], peak=t.peak)
        wps = gs.waypoints(p, every=3, noise_m=3.0, seed=t.traj_id)
        g_sims.append(band_accuracy(city.net, t.path, wps))
        l = arts.router.route(t.path[0], t.path[-1])
        l_wps = city.net.xy[np.asarray(l)]
        l_sims.append(band_accuracy(city.net, t.path, l_wps))
    assert 0.2 < np.mean(g_sims) < 0.95
    assert np.mean(l_sims) >= np.mean(g_sims) - 0.02


def test_offline_timings_all_stages(world):
    _, arts, _, _, _ = world
    t = arts.timings_s
    assert all(t[k] > 0 for k in ("region_graph", "step1_learn", "step2_transfer", "step3_apply"))
