"""Edge popularity from trajectories — the clustering input (Sec. IV-A).

The popularity s_ij of edge (v_i, v_j) is the number of trajectories that
occurred on that edge; Alg. 1 sums it into the vertex popularity S_i
itself (``clustering._Cluster.S``). This is
the data-heavy reduction of the pipeline (raw trajectories → per-edge
counts), so it is a pure DataFrame aggregation: posexplode each path into
(position, vertex), self-join consecutive positions into traversed vertex
pairs, canonicalise to undirected pairs, join against the edge table, and
count *distinct* trajectories per edge. Oracle-checked in the tests.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, functions as F

from ..roadnet.model import RoadNetwork


def traversals_df(traj_df: DataFrame) -> DataFrame:
    """One row per traversed (undirected) vertex pair: traj_id, a, b."""
    pos = traj_df.select("traj_id", F.posexplode("path").alias("pos", "v"))
    nxt = pos.select(
        F.col("traj_id").alias("t2"), (F.col("pos") - 1).alias("pos2"), F.col("v").alias("v2")
    )
    pairs = pos.join(
        nxt, (pos.traj_id == nxt.t2) & (pos.pos == nxt.pos2), "inner"
    ).select(
        "traj_id",
        F.least("v", "v2").alias("a"),
        F.greatest("v", "v2").alias("b"),
    )
    return pairs


def edge_popularity_df(traj_df: DataFrame, edges_df: DataFrame) -> DataFrame:
    """Per-edge popularity s_ij: eid, a, b, popularity (distinct trajectories)."""
    pairs = traversals_df(traj_df)
    e = edges_df.select(
        "eid", F.least("u", "v").alias("a"), F.greatest("u", "v").alias("b"), "rt"
    )
    return (
        pairs.join(e, ["a", "b"], "inner")
        .groupBy("eid", "a", "b", "rt")
        .agg(F.countDistinct("traj_id").alias("popularity"))
    )


def edge_popularity_array(traj_df: DataFrame, net: RoadNetwork, spark) -> np.ndarray:
    """Collect s_ij into a dense (n_edges,) array for the driver-side merge loop."""
    pdf = edge_popularity_df(traj_df, net.edges_df(spark)).select("eid", "popularity").toPandas()
    s = np.zeros(net.n_edges, dtype=np.float64)
    s[pdf["eid"].to_numpy()] = pdf["popularity"].to_numpy()
    return s

