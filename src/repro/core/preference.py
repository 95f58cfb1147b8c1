"""Routing-preference learning for T-edges — paper Section V-A (Step 1).

A routing preference is a 2-dimensional vector ⟨master, slave⟩: master ∈
{DI, TT, FC} (travel-cost feature), slave ∈ the six road types or None
(road-condition feature). For each T-edge (R_i, R_j) with path set ℙ_ij we
solve, by the paper's coordinate-descent:

1. per master cost c, build the lowest-cost path P̂ᶜ for every ground-truth
   path's (source, destination) and score Σ pSim(P_k, P̂ᶜ_k) (Eq. 1);
   choose the best master;
2. per road-condition feature, rebuild the paths with the preference-
   modified Dijkstra (Alg. 2) under the chosen master; keep the slave only
   if it strictly improves the summed similarity.

Learning is embarrassingly parallel across T-edges, so it runs as a Spark
``applyInPandas`` over the T-edge path rows with the road network and its
three weight arrays broadcast once. Per-path preferences (for the Fig. 6(a)
statistics) are computed in the same pass.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from ..roadnet.model import COSTS, ROAD_TYPES, RoadNetwork
from ..roadnet.shortest_path import dijkstra, preference_dijkstra
from ..eval.similarity import psim
from .region_graph import RegionGraph

SLAVES = list(range(len(ROAD_TYPES)))  # candidate slave road-type codes


def _best_preference(
    net: RoadNetwork, paths: list[list[int]], weights: dict[str, np.ndarray]
) -> tuple[str, int | None, float, list[tuple[str, int | None]]]:
    """Coordinate-descent preference fit over a path set.

    Returns (master, slave_rt_or_None, mean pSim of the fitted preference,
    per-path individually fitted preferences).
    """
    ods = [(p[0], p[-1]) for p in paths]
    # Master dimension: score each cost feature on all paths.
    sims = np.zeros((len(COSTS), len(paths)))
    for ci, c in enumerate(COSTS):
        for pi, ((s, d), gt) in enumerate(zip(ods, paths)):
            res = dijkstra(net, s, d, weights[c])
            sims[ci, pi] = psim(net, gt, res[0]) if res else 0.0
    master_i = int(np.argmax(sims.sum(axis=1)))
    master = COSTS[master_i]
    base = sims[master_i].copy()
    # Slave dimension: try each road type under the chosen master.
    slave_sims = {}
    for rt in SLAVES:
        row = np.zeros(len(paths))
        for pi, ((s, d), gt) in enumerate(zip(ods, paths)):
            res = preference_dijkstra(net, s, d, weights[master], rt)
            row[pi] = psim(net, gt, res[0]) if res else 0.0
        slave_sims[rt] = row
    best_rt, best_gain = None, 0.0
    for rt, row in slave_sims.items():
        gain = row.sum() - base.sum()
        if gain > best_gain + 1e-12:
            best_rt, best_gain = rt, gain
    score = (slave_sims[best_rt] if best_rt is not None else base).mean()
    # Per-path preferences (Fig. 6(a) statistic: unique preferences per T-edge).
    per_path: list[tuple[str, int | None]] = []
    for pi in range(len(paths)):
        m_i = int(np.argmax(sims[:, pi]))
        m = COSTS[m_i]
        b = sims[m_i, pi]
        s_best, s_val = None, b
        for rt in SLAVES:
            # Reuse the chosen-master rows when applicable; otherwise skip —
            # per-path stats only need the dominant pattern, and recomputing
            # all 3×6 combinations per path would triple the Dijkstra count.
            if m == master and slave_sims[rt][pi] > s_val + 1e-12:
                s_best, s_val = rt, slave_sims[rt][pi]
        per_path.append((m, s_best))
    return master, best_rt, float(score), per_path


def t_edge_paths_df(spark: SparkSession, rg: RegionGraph) -> DataFrame:
    """DataFrame of T-edge path rows: ra, rb, path, cnt."""
    rows = {"ra": [], "rb": [], "path": [], "cnt": []}
    for (a, b), e in rg.edges.items():
        if e.kind != "T":
            continue
        for p, c in e.paths:
            rows["ra"].append(a); rows["rb"].append(b); rows["path"].append(p); rows["cnt"].append(c)
    return spark.createDataFrame(pd.DataFrame(rows))


def learn_t_edge_preferences(
    spark: SparkSession, net: RoadNetwork, rg: RegionGraph, peak: bool = False
) -> pd.DataFrame:
    """Learn ⟨master, slave⟩ per T-edge via Spark applyInPandas fan-out.

    Returns a pandas frame: ra, rb, master, slave (−1 for None), score,
    n_paths, n_unique_prefs; also writes the preferences into ``rg.edges``.
    """
    pdf_in = t_edge_paths_df(spark, rg)
    bc = spark.sparkContext.broadcast((net, {c: net.weights(c, peak=peak) for c in COSTS}))

    def fit(key, pdf):  # untyped on purpose: pyspark's eval-type inference
        # warns on partially-hinted applyInPandas callables
        net_w, weights = bc.value
        paths = [list(map(int, p)) for p in pdf["path"]]
        master, slave, score, per_path = _best_preference(net_w, paths, weights)
        uniq = len({pp for pp in per_path})
        return pd.DataFrame(
            {
                "ra": [key[0]], "rb": [key[1]],
                "master": [master],
                "slave": [-1 if slave is None else int(slave)],
                "score": [score],
                "n_paths": [len(paths)],
                "n_unique_prefs": [uniq],
            }
        )

    out = (
        pdf_in.groupBy("ra", "rb")
        .applyInPandas(fit, schema="ra long, rb long, master string, slave int, score double, n_paths long, n_unique_prefs long")
        .toPandas()
    )
    for _, r in out.iterrows():
        e = rg.edges[(int(r.ra), int(r.rb))]
        e.pref = (r.master, None if r.slave < 0 else int(r.slave))
    return out


def preference_distribution(prefs: pd.DataFrame) -> pd.DataFrame:
    """Fig. 6(a) as a table: share of T-edges per #unique-preferences, and
    the distribution of learned preferences over master features."""
    uniq = (
        prefs.groupby("n_unique_prefs").size().rename("n_t_edges").reset_index()
    )
    uniq["pct"] = (100 * uniq.n_t_edges / len(prefs)).round(1)
    master = prefs.groupby("master").size().rename("n_t_edges").reset_index()
    master["pct"] = (100 * master.n_t_edges / len(prefs)).round(1)
    uniq["kind"] = "unique_prefs_per_t_edge"
    master["kind"] = "master_distribution"
    master = master.rename(columns={"master": "key"})
    uniq = uniq.rename(columns={"n_unique_prefs": "key"})
    uniq["key"] = uniq["key"].astype(str)
    return pd.concat([uniq, master], ignore_index=True)[["kind", "key", "n_t_edges", "pct"]]
