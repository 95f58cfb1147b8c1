"""Offline L2R pipeline orchestration.

Runs the paper's full offline flow — popularity aggregation, Algorithm 1
clustering, region-graph construction, Steps 1–3 of Section V — and
returns a ready :class:`repro.core.routing.L2RRouter` plus per-stage
wall-clock timings (the "offline processing time" numbers of Sec. VII-C).

Peak/off-peak: the paper builds one region graph per period from the
trajectories of that period (Sec. III scope). ``build_l2r_per_period``
does exactly that and returns a dispatcher that picks the graph by the
query's departure period.
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


def build_l2r(
    spark,
    city: City,
    train: list[Trajectory],
    peak: bool = False,
) -> L2RArtifacts:
    """Offline build on one period's trajectories."""
    net = city.net
    timings: dict[str, float] = {}
    traj_df = trajectories_df(spark, train).cache()

    t0 = time.perf_counter()
    edge_pop = edge_popularity_array(traj_df, net, spark)
    regions = bottom_up_clustering(net, edge_pop)
    rg = build_region_graph(spark, net, regions, traj_df)
    timings["region_graph"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    prefs = learn_t_edge_preferences(spark, net, rg, peak=peak)
    timings["step1_learn"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    transfer_b_edge_preferences(rg)
    timings["step2_transfer"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    apply_preferences(spark, net, rg, peak=peak)
    timings["step3_apply"] = time.perf_counter() - t0

    traj_df.unpersist()
    return L2RArtifacts(
        router=L2RRouter(net=net, rg=rg, peak=peak),
        regions=regions,
        prefs=prefs,
        timings_s={k: round(v, 3) for k, v in timings.items()},
    )


@dataclass
class PeriodL2R:
    """Departure-time dispatcher over peak / off-peak region graphs."""

    off: L2RRouter
    peak: L2RRouter

    def route(self, s: int, d: int, peak: bool = False, driver: int = 0) -> list[int]:
        return (self.peak if peak else self.off).route(s, d)


def build_l2r_per_period(spark, city: City, train: list[Trajectory]) -> tuple[PeriodL2R, dict]:
    off = build_l2r(spark, city, [t for t in train if not t.peak], peak=False)
    peak = build_l2r(spark, city, [t for t in train if t.peak], peak=True)
    return PeriodL2R(off=off.router, peak=peak.router), {
        "off": off.timings_s,
        "peak": peak.timings_s,
    }
