"""Evaluation harness — produces the numbers behind Figs. 10–13.

For every test trajectory (its driver's actual path is the ground truth,
Sec. VII-A) each router answers the same (source, destination, departure
period, driver) query; we score both pSim variants (Eqs. 1 and 4) and the
per-query wall-clock. Queries are independent, so evaluation is a
``repro.spark.fan_out`` with the routers broadcast once; results come back as a
per-query DataFrame whose grouped aggregations (accuracy/runtime per
distance bucket / region category) are oracle-checked in the tests.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from ..roadnet.model import RoadNetwork
from ..spark import fan_out
from ..traj.generator import Trajectory
from .similarity import psim, psim_union

CATEGORIES = ["InRegion", "InOutRegion", "OutRegion"]


def category_of(vertex_region: np.ndarray, s: int, d: int) -> str:
    """Sec. VII-A categorisation of a query by region membership of s/d."""
    n_in = int(vertex_region[s] >= 0) + int(vertex_region[d] >= 0)
    return CATEGORIES[2 - n_in]


def _answers(q, shared):
    routers, net, vertex_region = shared
    gt = list(map(int, q.path))
    cat = category_of(vertex_region, int(q.s), int(q.d))
    for name, router in routers.items():
        t0 = time.perf_counter()
        path = router.route(int(q.s), int(q.d), peak=bool(q.peak), driver=int(q.driver))
        ms = (time.perf_counter() - t0) * 1000
        sim1, sim4 = psim(net, gt, path), psim_union(net, gt, path)
        yield int(q.traj_id), name, sim1, sim4, ms, float(q.dist_m), cat


def evaluate(
    spark: SparkSession,
    routers: dict[str, object],
    test: list[Trajectory],
    net: RoadNetwork,
    vertex_region: np.ndarray,
) -> DataFrame:
    """Per-query results: traj_id, router, sim1, sim4, ms, dist_m, category."""
    queries = pd.DataFrame(
        {
            "traj_id": [t.traj_id for t in test],
            "s": [t.path[0] for t in test],
            "d": [t.path[-1] for t in test],
            "peak": [t.peak for t in test],
            "driver": [t.driver for t in test],
            "dist_m": [t.dist_m for t in test],
            "path": [[int(v) for v in t.path] for t in test],
        }
    )
    schema = "traj_id long, router string, sim1 double, sim4 double, ms double, dist_m double, category string"
    return fan_out(spark, queries, _answers, schema, (routers, net, vertex_region))


def accuracy_by_bucket(results: DataFrame, edges_km: list[float]) -> DataFrame:
    """Figs. 10/11 as a table: mean pSim per router per distance bucket."""
    from ..traj.stats import bucket_expr

    return (
        results.withColumn("bucket", bucket_expr("dist_m", list(edges_km)))
        .groupBy("router", "bucket")
        .agg(
            F.round(F.avg("sim1"), 3).alias("acc_eq1"),
            F.round(F.avg("sim4"), 3).alias("acc_eq4"),
            F.count("*").alias("n"),
        )
    )


def accuracy_by_category(results: DataFrame) -> DataFrame:
    """Figs. 10(b)/11(b): mean pSim per router per region category."""
    return results.groupBy("router", "category").agg(
        F.round(F.avg("sim1"), 3).alias("acc_eq1"),
        F.round(F.avg("sim4"), 3).alias("acc_eq4"),
        F.count("*").alias("n"),
    )


def runtime_table(results: DataFrame) -> DataFrame:
    """Fig. 12 as a table: mean per-query routing time per router/category."""
    return results.groupBy("router", "category").agg(
        F.round(F.avg("ms"), 2).alias("mean_ms"), F.count("*").alias("n")
    )


def pivot_pdf(df: DataFrame, index: str, column: str, value: str) -> pd.DataFrame:
    """Small-result pivot for printing tables in jobs / EXPERIMENTS.md."""
    pdf = df.toPandas()
    return pdf.pivot_table(index=index, columns=column, values=value).round(3)
