"""Offline L2R pipeline orchestration.

Runs the paper's full offline flow — popularity aggregation, Algorithm 1
clustering, region-graph construction, Steps 1–3 of Section V — and
returns a ready :class:`repro.core.routing.L2RRouter` plus per-stage
wall-clock timings (the "offline processing time" numbers of Sec. VII-C).

One region graph is built from the whole trajectory set, and Steps 1 and 3
search under off-peak costs; the router answers every query, peak or
off-peak, on it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import pandas as pd

from ..roadnet.generator import City
from ..traj.generator import Trajectory, trajectories_df
from .apply_prefs import apply_preferences
from .clustering import bottom_up_clustering
from .popularity import edge_popularity_array
from .preference import learn_t_edge_preferences
from .region_graph import build_region_graph
from .routing import L2RRouter
from .transfer import transfer_b_edge_preferences


@dataclass
class L2RArtifacts:
    """Everything the offline pipeline produced, for inspection and tables."""

    router: L2RRouter
    regions: list
    prefs: pd.DataFrame
    timings_s: dict[str, float] = field(default_factory=dict)


def build_l2r(spark, city: City, train: list[Trajectory]) -> L2RArtifacts:
    """Offline build on all of ``train``, under off-peak costs."""
    net = city.net
    timings: dict[str, float] = {}
    traj_df = trajectories_df(spark, train).cache()

    t0 = time.perf_counter()
    edge_pop = edge_popularity_array(traj_df, net, spark)
    regions = bottom_up_clustering(net, edge_pop)
    rg = build_region_graph(spark, net, regions, traj_df)
    timings["region_graph"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    prefs = learn_t_edge_preferences(spark, net, rg)
    timings["step1_learn"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    transfer_b_edge_preferences(rg)
    timings["step2_transfer"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    apply_preferences(spark, net, rg)
    timings["step3_apply"] = time.perf_counter() - t0

    traj_df.unpersist()
    return L2RArtifacts(
        router=L2RRouter(net=net, rg=rg),
        regions=regions,
        prefs=prefs,
        timings_s={k: round(v, 3) for k, v in timings.items()},
    )

