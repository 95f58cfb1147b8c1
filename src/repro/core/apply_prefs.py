"""Applying transferred preferences — paper Section V-C (Step 3).

For each B-edge (R_i, R_j) with a transferred preference ⟨master, slave⟩,
build a path per (transfer-center of R_i) × (transfer-center of R_j) pair
with the preference-modified Dijkstra (Alg. 2) and attach the paths to the
B-edge. B-edges whose transfer yielded a null preference get fastest
paths instead (Sec. VII-B: "we simply associate fastest paths with
B-edges with null preference vectors").

The per-pair searches are independent, so they run as a Spark
``mapInPandas`` fan-out over the (B-edge, center pair) work list with the
road network broadcast.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..roadnet.model import COSTS, RoadNetwork
from ..roadnet.shortest_path import preference_dijkstra
from .region_graph import RegionGraph

MAX_CENTERS = 3  # cap transfer-center pairs per B-edge (3×3 searches)


def _work_list(rg: RegionGraph) -> pd.DataFrame:
    rows = {"ra": [], "rb": [], "src": [], "dst": [], "master": [], "slave": []}
    for (a, b), e in sorted(rg.edges.items()):
        if e.kind != "B":
            continue
        master, slave = e.pref if e.pref is not None else ("TT", None)
        for s in rg.transfer_centers[a][:MAX_CENTERS]:
            for d in rg.transfer_centers[b][:MAX_CENTERS]:
                rows["ra"].append(a); rows["rb"].append(b)
                rows["src"].append(int(s)); rows["dst"].append(int(d))
                rows["master"].append(master)
                rows["slave"].append(-1 if slave is None else int(slave))
    return pd.DataFrame(rows)


def apply_preferences(
    spark: SparkSession, net: RoadNetwork, rg: RegionGraph, peak: bool = False
) -> int:
    """Attach preference-derived paths to every B-edge. Returns #paths built."""
    work = _work_list(rg)
    if len(work) == 0:
        return 0
    bc = spark.sparkContext.broadcast((net, {c: net.weights(c, peak=peak) for c in COSTS}))

    def gen(batches):
        net_w, weights = bc.value
        for pdf in batches:
            out = {"ra": [], "rb": [], "path": []}
            for r in pdf.itertuples(index=False):
                res = preference_dijkstra(
                    net_w, int(r.src), int(r.dst), weights[r.master],
                    None if r.slave < 0 else int(r.slave),
                )
                if res is not None and len(res[0]) > 1:
                    out["ra"].append(int(r.ra)); out["rb"].append(int(r.rb))
                    out["path"].append([int(v) for v in res[0]])
            yield pd.DataFrame(out)

    rows = (
        spark.createDataFrame(work)
        .repartition(max(2, spark.sparkContext.defaultParallelism))
        .mapInPandas(gen, schema="ra long, rb long, path array<long>")
        .toPandas()
    )
    n = 0
    for _, r in rows.iterrows():
        e = rg.edges[(int(r.ra), int(r.rb))]
        e.paths.append(([int(v) for v in r.path], 1))
        n += 1
    return n
