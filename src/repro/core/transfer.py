"""Preference transfer from T-edges to B-edges — paper Section V-B (Step 2).

Pipeline:

1. **Region-edge features**: each region edge re gets ``re.dis`` (Euclidean
   distance between its regions' centroids) and ``re.𝔽`` (Cartesian product
   of the two regions' top-k road-type sets).
2. **Pairwise similarity**

       reSim(re_i, re_j) = ½·( min(dis_i,dis_j)/max(dis_i,dis_j)
                               + J(𝔽_i, 𝔽_j) )

   normalised to [0, 1] (the paper's sum is in [0, 2]; its amr range
   0.5–0.9 reads naturally on the normalised scale). ``similarity_pairs``
   computes it driver-side, a blocked numpy pass over the upper triangle
   with 𝔽 as a bit mask and J = popcount(AND) / popcount(OR): the
   region-edge count grows with the region graph, not with trajectory
   volume, and the pass is far cheaper than a Spark job (DESIGN.md §5).
   ``region_edge_features`` + ``pairwise_similarity`` are the Spark
   crossJoin (Jaccard via ``array_intersect``/``array_union``) that the
   tests compare the numpy pairs against, bit for bit.
3. **Adjacency matrix reduction**: entries below threshold ``amr`` are
   zeroed (Table III default 0.7).
4. **Graph-based transduction** (Eq. 2/3): solve, per feature column x,
   ``(S + μ1·L + μ2·I) Ŷ·x = S·Y·x`` with conjugate gradients on the SPD
   system (L = D − M unnormalised Laplacian). Feature space: 3 master
   columns (DI, TT, FC) + 7 slave columns (6 road types + "none").
5. **Decode**: per unlabeled edge, master = argmax over master columns,
   slave = argmax over slave columns; an all-zero row (edge disconnected
   from every labeled edge after reduction) yields a null preference —
   such B-edges later fall back to fastest paths (Sec. VII-B).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from ..roadnet.model import COSTS, ROAD_TYPES
from .region_graph import RegionGraph

AMR_DEFAULT = 0.7
MU1_DEFAULT = 1.0
MU2_DEFAULT = 0.01
N_RT = len(ROAD_TYPES)
N_SLAVE = N_RT + 1  # six road types + "none"
P_FEATURES = len(COSTS) + N_SLAVE
# Cells per row block of the similarity pass: a block's temporaries stay
# a few MB and below the dense n×n matrices of the solve.
SIM_BLOCK_CELLS = 1 << 18

EdgeKey = tuple[int, int]
Pref = tuple[str, int | None]


def edge_features(rg: RegionGraph) -> tuple[list[EdgeKey], np.ndarray, np.ndarray]:
    """Sorted region-edge keys, ``dis`` per edge (centroid distance in metres,
    at least 1) and 𝔽 per edge as a uint64 mask with bit ``ta * N_RT + tb``
    set for every ta in the top types of ra and tb in those of rb."""
    keys = sorted(rg.edges)
    dis = np.empty(len(keys))
    fmask = np.zeros(len(keys), dtype=np.uint64)
    for i, (a, b) in enumerate(keys):
        dis[i] = max(float(np.linalg.norm(rg.centroids[a] - rg.centroids[b])), 1.0)
        bits = {ta * N_RT + tb for ta in rg.top_types[a] for tb in rg.top_types[b]}
        fmask[i] = sum(1 << t for t in bits)
    return keys, dis, fmask


def region_edge_features(spark: SparkSession, rg: RegionGraph) -> DataFrame:
    """Feature DataFrame: idx, ra, rb, kind, dis, f (array of 'ta|tb' tokens)."""
    keys, dis, fmask = edge_features(rg)
    bits = range(N_RT * N_RT)
    return spark.createDataFrame(pd.DataFrame({
        "idx": range(len(keys)),
        "ra": [a for a, _ in keys],
        "rb": [b for _, b in keys],
        "kind": [rg.edges[k].kind for k in keys],
        "dis": dis,
        "f": [[f"{t // N_RT}|{t % N_RT}" for t in bits if int(m) >> t & 1] for m in fmask],
    }))


def pairwise_similarity(feat_df: DataFrame, amr: float) -> DataFrame:
    """Spark crossJoin: reSim for every region-edge pair with sim ≥ amr.
    The reference that ``similarity_pairs`` is tested against."""
    a = feat_df.select(
        F.col("idx").alias("i"), F.col("dis").alias("dis_i"), F.col("f").alias("f_i")
    )
    b = feat_df.select(
        F.col("idx").alias("j"), F.col("dis").alias("dis_j"), F.col("f").alias("f_j")
    )
    sim = (
        F.least("dis_i", "dis_j") / F.greatest("dis_i", "dis_j")
        + F.size(F.array_intersect("f_i", "f_j"))
        / F.greatest(F.size(F.array_union("f_i", "f_j")), F.lit(1))
    ) / 2.0
    return (
        a.crossJoin(b)
        .where(F.col("i") < F.col("j"))
        .withColumn("sim", sim)
        .where(F.col("sim") >= amr)
        .select("i", "j", "sim")
    )


_M1, _M2, _M4, _H01 = (
    np.uint64(c) for c in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101)
)


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits per uint64 element (SWAR; numpy < 2 has no bitwise_count)."""
    x = x - ((x >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return ((x * _H01) >> np.uint64(56)).astype(np.int64)


def similarity_pairs(
    dis: np.ndarray, fmask: np.ndarray, amr: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, sim) for every pair i < j with reSim ≥ ``amr``, in (i, j) order.

    Same expression, in the same order, as the ``pairwise_similarity``
    column, so the sims are bit-identical to Spark's. Row blocks of the
    upper triangle bound the temporaries to ``SIM_BLOCK_CELLS`` cells."""
    n = len(dis)
    step = max(1, SIM_BLOCK_CELLS // max(n, 1))
    out_i, out_j, out_s = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for r0 in range(0, n - 1, step):
        r1 = min(r0 + step, n - 1)
        di, dj = dis[r0:r1, None], dis[None, r0 + 1 :]
        fi, fj = fmask[r0:r1, None], fmask[None, r0 + 1 :]
        inter, union = _popcount(fi & fj), _popcount(fi | fj)
        sim = (np.minimum(di, dj) / np.maximum(di, dj) + inter / np.maximum(union, 1)) / 2.0
        # Local (a, b) is the pair (r0 + a, r0 + 1 + b): the upper triangle is b ≥ a.
        a, b = np.nonzero((sim >= amr) & np.triu(np.ones(sim.shape, dtype=bool)))
        out_i.append(a + r0)
        out_j.append(b + r0 + 1)
        out_s.append(sim[a, b])
    return np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_s)


def _conjugate_gradient(A: np.ndarray, b: np.ndarray, tol: float = 1e-10, maxiter: int = 10000) -> np.ndarray:
    """CG for SPD A (numpy-only; the container has no scipy)."""
    x = np.zeros_like(b)
    r = b - A @ x
    p = r.copy()
    rs = r @ r
    for _ in range(maxiter):
        if rs < tol:
            break
        Ap = A @ p
        alpha = rs / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = r @ r
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def _one_hot(pref: Pref) -> np.ndarray:
    y = np.zeros(P_FEATURES)
    y[COSTS.index(pref[0])] = 1.0
    slave = pref[1]
    y[len(COSTS) + (len(ROAD_TYPES) if slave is None else int(slave))] = 1.0
    return y


def _decode(row: np.ndarray, eps: float = 1e-9) -> Pref | None:
    m = row[: len(COSTS)]
    s = row[len(COSTS) :]
    if m.max() <= eps:  # disconnected from all labeled edges -> null pref
        return None
    master = COSTS[int(np.argmax(m))]
    slave_i = int(np.argmax(s))
    return (master, None if slave_i == len(ROAD_TYPES) else slave_i)


def run_transfer(
    spark: SparkSession,
    rg: RegionGraph,
    labeled: dict[EdgeKey, Pref],
    amr: float = AMR_DEFAULT,
    mu1: float = MU1_DEFAULT,
    mu2: float = MU2_DEFAULT,
) -> tuple[dict[EdgeKey, Pref | None], float]:
    """Transfer ``labeled`` preferences to all other region edges.

    Returns (predictions for every unlabeled edge, wall-clock seconds of
    the transduction stage: matrix build and CG, not the similarity pass).
    Everything runs driver-side: the adjacency matrix from
    ``similarity_pairs``, then the (small, dense) linear systems with CG.
    ``spark`` is unused and kept for the callers' signature.
    """
    keys, dis, fmask = edge_features(rg)
    n = len(keys)
    idx_of = {k: i for i, k in enumerate(keys)}
    pi, pj, psim = similarity_pairs(dis, fmask, amr)

    t0 = time.perf_counter()
    M = np.zeros((n, n))
    M[pi, pj] = psim
    M += M.T
    D = np.diag(M.sum(axis=1))
    L = D - M

    S = np.zeros((n, n))
    Y = np.zeros((n, P_FEATURES))
    for k, pref in labeled.items():
        i = idx_of[k]
        S[i, i] = 1.0
        Y[i] = _one_hot(pref)

    A = S + mu1 * L + mu2 * np.eye(n)
    Yhat = np.zeros_like(Y)
    for x in range(P_FEATURES):
        Yhat[:, x] = _conjugate_gradient(A, S @ Y[:, x])
    elapsed = time.perf_counter() - t0

    preds: dict[EdgeKey, Pref | None] = {}
    for k in keys:
        if k in labeled:
            continue
        preds[k] = _decode(Yhat[idx_of[k]])
    return preds, elapsed


def transfer_b_edge_preferences(
    spark: SparkSession,
    rg: RegionGraph,
    amr: float = AMR_DEFAULT,
    mu1: float = MU1_DEFAULT,
    mu2: float = MU2_DEFAULT,
) -> dict[EdgeKey, Pref | None]:
    """Production path: T-edge preferences (already learned into ``rg``) are
    the labels; predictions are written into the B-edges' ``pref``."""
    labeled = {k: e.pref for k, e in rg.edges.items() if e.kind == "T" and e.pref is not None}
    preds, _ = run_transfer(spark, rg, labeled, amr=amr, mu1=mu1, mu2=mu2)
    for k, pref in preds.items():
        if rg.edges[k].kind == "B":
            rg.edges[k].pref = pref
    return preds


# --------------------------------------------------------------------------
# Fig. 9 experiment: cross-validated transfer accuracy
# --------------------------------------------------------------------------
def _pref_jaccard(p1: Pref | None, p2: Pref | None) -> float:
    """Accuracy metric of Sec. VII-B: Jaccard between preference feature sets."""
    if p1 is None or p2 is None:
        return 0.0
    s1 = {("m", p1[0]), ("s", p1[1])}
    s2 = {("m", p2[0]), ("s", p2[1])}
    return len(s1 & s2) / len(s1 | s2)


def transfer_cv_experiment(
    spark: SparkSession,
    rg: RegionGraph,
    n_folds: int = 5,
    amr_values: list[float] = (0.5, 0.6, 0.7, 0.8, 0.9),
    partitions_sweep: bool = True,
    seed: int = 17,
) -> pd.DataFrame:
    """Reproduces Fig. 9: hold out one fold of T-edge preferences as ground
    truth; vary (a) the number of labeled folds at amr=default and (b) amr
    with 4 labeled folds. Reports accuracy, N-rate and transfer runtime."""
    t_edges = [(k, e.pref) for k, e in sorted(rg.edges.items()) if e.kind == "T" and e.pref]
    g = np.random.default_rng(seed)
    order = g.permutation(len(t_edges))
    folds = [order[i::n_folds] for i in range(n_folds)]
    truth = {t_edges[i][0]: t_edges[i][1] for i in folds[-1]}

    rows = []
    sweeps = []
    if partitions_sweep:
        sweeps += [("partitions", f"{x}X", list(range(x)), AMR_DEFAULT) for x in range(1, n_folds)]
    sweeps += [("amr", f"{amr:g}", list(range(n_folds - 1)), amr) for amr in amr_values]
    for kind, label, fold_ids, amr in sweeps:
        labeled = {}
        for fi in fold_ids:
            for i in folds[fi]:
                labeled[t_edges[i][0]] = t_edges[i][1]
        preds, elapsed = run_transfer(spark, rg, labeled, amr=amr)
        accs = [_pref_jaccard(preds.get(k), v) for k, v in truth.items()]
        n_null = sum(1 for k in truth if preds.get(k) is None)
        rows.append(
            {
                "sweep": kind,
                "setting": label,
                "accuracy": round(float(np.mean(accs)), 3),
                "n_rate": round(n_null / max(1, len(truth)), 3),
                "runtime_s": round(elapsed, 4),
            }
        )
    return pd.DataFrame(rows)
