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

The searches are done by source vertex, not by T-edge: payload paths start
at transfer centers, which many T-edges share. For each source, one
multi-target search per master (full CSR) and per (master, slave) (gated
CSR) scores every path from that source in a pSim *grid* of 3 masters ×
[master, 6 slaves]; a T-edge's fit then only reads its paths' grids. A
gated search that never settles a destination is a trapped Alg. 2 search,
whose answer is the master path already scored in the grid's master column.
The sources are a ``repro.spark.fan_out`` with the road network, its three
off-peak weight arrays and the paths broadcast once. Per-path preferences
(for the Fig. 6(a) statistics) come from the same grids.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..roadnet.model import COSTS, ROAD_TYPES, RoadNetwork
from ..roadnet.shortest_path import _search
from ..eval.similarity import psim
from ..spark import fan_out
from .region_graph import RegionGraph

SLAVES = list(range(len(ROAD_TYPES)))  # candidate slave road-type codes


def _source_grids(
    net: RoadNetwork, src: int, paths: list[list[int]], weights: dict[str, np.ndarray]
) -> np.ndarray:
    """pSim grids of ground-truth paths that all start at ``src``.

    Returns an array of shape (len(paths), len(COSTS), 1 + len(SLAVES)):
    ``[k, ci, 0]`` scores path k's lowest-cost path under master ``COSTS[ci]``
    (0 if unreachable) and ``[k, ci, 1 + rt]`` its Alg. 2 path under
    ⟨COSTS[ci], rt⟩, which is the master path where the gate traps.
    """
    targets = {p[-1] for p in paths}
    out = np.zeros((len(paths), len(COSTS), 1 + len(SLAVES)))
    for ci, c in enumerate(COSTS):
        w = weights[c]
        plain = _search(net.indptr, net.nbr, net.nbr_edge, src, targets, w)
        gated = [_search(*net.gated_csr(rt), src, targets, w) for rt in SLAVES]
        for k, gt in enumerate(paths):
            d = gt[-1]
            base = psim(net, gt, plain[d][0]) if d in plain else 0.0
            out[k, ci, 0] = base
            for rt, res in zip(SLAVES, gated):
                out[k, ci, 1 + rt] = psim(net, gt, res[d][0]) if d in res else base
    return out


def _decide(
    grids: list[np.ndarray],
) -> tuple[str, int | None, float, list[tuple[str, int | None]]]:
    """Coordinate-descent preference fit of a path set from its paths' grids.

    Returns (master, slave_rt_or_None, mean pSim of the fitted preference,
    per-path individually fitted preferences).
    """
    g = np.stack(grids, axis=-1)  # (masters, 1 + slaves, paths)
    # Master dimension: score each cost feature on all paths.
    sims = g[:, 0].copy()
    master_i = int(np.argmax(sims.sum(axis=1)))
    master = COSTS[master_i]
    base = sims[master_i].copy()
    # Slave dimension: try each road type under the chosen master.
    slave_sims = {rt: g[master_i, 1 + rt].copy() for rt in SLAVES}
    best_rt, best_gain = None, 0.0
    for rt, row in slave_sims.items():
        gain = row.sum() - base.sum()
        if gain > best_gain + 1e-12:
            best_rt, best_gain = rt, gain
    score = (slave_sims[best_rt] if best_rt is not None else base).mean()
    # Per-path preferences (Fig. 6(a) statistic: unique preferences per T-edge).
    per_path: list[tuple[str, int | None]] = []
    for pi in range(len(grids)):
        m_i = int(np.argmax(sims[:, pi]))
        m = COSTS[m_i]
        b = sims[m_i, pi]
        s_best, s_val = None, b
        for rt in SLAVES:
            # Only the chosen master's slave rows count, as in the T-edge fit:
            # per-path stats need the dominant pattern only.
            if m == master and slave_sims[rt][pi] > s_val + 1e-12:
                s_best, s_val = rt, slave_sims[rt][pi]
        per_path.append((m, s_best))
    return master, best_rt, float(score), per_path


def _by_source(paths: list[list[int]]) -> dict[int, list[int]]:
    """Indices of ``paths`` grouped by their first vertex."""
    groups: dict[int, list[int]] = {}
    for i, p in enumerate(paths):
        groups.setdefault(p[0], []).append(i)
    return groups


def _grid_rows(row, shared):
    net, weights, paths = shared
    ids = [int(i) for i in row.pids]
    g = _source_grids(net, int(row.src), [paths[i] for i in ids], weights)
    return zip(ids, g.reshape(len(ids), -1).tolist())


def learn_t_edge_preferences(spark: SparkSession, net: RoadNetwork, rg: RegionGraph) -> pd.DataFrame:
    """Learn ⟨master, slave⟩ per T-edge: grids by source on Spark, one
    ``fan_out`` slice per core, then ``_decide`` per T-edge on the driver.

    Returns a pandas frame sorted by (ra, rb): ra, rb, master, slave (−1 for
    None), score, n_paths, n_unique_prefs; also writes the preferences into
    ``rg.edges``.
    """
    t_edges = [(k, [p for p, _ in e.paths]) for k, e in sorted(rg.edges.items()) if e.kind == "T"]
    pid: dict[tuple[int, ...], int] = {}
    for _, paths in t_edges:
        for p in paths:
            pid.setdefault(tuple(p), len(pid))
    uniq = [list(p) for p in pid]
    groups = _by_source(uniq)
    work = pd.DataFrame({"src": list(groups), "pids": list(groups.values())})
    shared = (net, {c: net.weights(c) for c in COSTS}, uniq)
    rows = fan_out(spark, work, _grid_rows, "pid long, grid array<double>", shared).toPandas()
    shape = (len(COSTS), 1 + len(SLAVES))
    grid = {int(i): np.asarray(g, dtype=np.float64).reshape(shape) for i, g in zip(rows.pid, rows.grid)}
    out = {k: [] for k in ("ra", "rb", "master", "slave", "score", "n_paths", "n_unique_prefs")}
    for (a, b), paths in t_edges:
        master, slave, score, per_path = _decide([grid[pid[tuple(p)]] for p in paths])
        rg.edges[(a, b)].pref = (master, slave)
        out["ra"].append(a); out["rb"].append(b)
        out["master"].append(master)
        out["slave"].append(-1 if slave is None else slave)
        out["score"].append(score)
        out["n_paths"].append(len(paths))
        out["n_unique_prefs"].append(len(set(per_path)))
    return pd.DataFrame(out).astype(
        {"ra": "int64", "rb": "int64", "slave": "int32", "score": "float64", "n_paths": "int64", "n_unique_prefs": "int64"}
    )


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
