"""Edge popularity from trajectories — the clustering input (Sec. IV-A).

The popularity s_ij of edge (v_i, v_j) is the number of trajectories that
occurred on that edge; Alg. 1 sums it into the vertex popularity S_i
itself (``clustering._Cluster.S``). This is the data-heavy reduction of the
pipeline (raw trajectories → per-edge counts): a ``repro.spark.fan_out``
over the trajectory DataFrame maps each path to the ids of the edges it
traverses, each once, and a groupBy counts the trajectories per edge. A
path with a non-adjacent vertex pair fails the job with ``path_edges``'
``ValueError``. Oracle-checked in the tests.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from ..roadnet.model import RoadNetwork
from ..spark import fan_out


def _edges_once(row, net: RoadNetwork):
    return ((int(e),) for e in np.unique(net.path_edges(row.path.tolist())))


def edge_popularity_array(traj_df: DataFrame, net: RoadNetwork, spark) -> np.ndarray:
    """s_ij as a dense (n_edges,) array for the driver-side merge loop."""
    pdf = (
        fan_out(spark, traj_df.select("path"), _edges_once, "eid long", net)
        .groupBy("eid")
        .count()
        .toPandas()
    )
    s = np.zeros(net.n_edges, dtype=np.float64)
    s[pdf["eid"].to_numpy()] = pdf["count"].to_numpy()
    return s
