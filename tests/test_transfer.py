"""Tests for Step 2 — preference transfer via graph transduction (Sec. V-B)."""
import copy

import numpy as np
import pandas as pd
import pytest

from repro.core import transfer
from repro.core.region_graph import RegionEdge, RegionGraph
from repro.core.transfer import (
    P_FEATURES,
    _conjugate_gradient,
    _decode,
    _one_hot,
    _popcount,
    _pref_jaccard,
    edge_features,
    pairwise_similarity,
    region_edge_features,
    run_transfer,
    similarity_pairs,
    transfer_b_edge_preferences,
    transfer_cv_experiment,
)
from repro.oracle import assert_equivalent
from repro.roadnet.model import COSTS


# -- numerics ---------------------------------------------------------------
@pytest.mark.parametrize("n,seed", [(5, 0), (20, 1), (50, 2)])
def test_cg_solves_spd_system(n, seed):
    g = np.random.default_rng(seed)
    R = g.normal(size=(n, n))
    A = R @ R.T + n * np.eye(n)
    b = g.normal(size=n)
    x = _conjugate_gradient(A, b)
    assert np.allclose(A @ x, b, atol=1e-6)


def test_one_hot_and_decode_roundtrip():
    for master in COSTS:
        for slave in [None, 0, 3, 5]:
            y = _one_hot((master, slave))
            assert y.sum() == 2
            assert _decode(y) == (master, slave)


def test_decode_null_for_zero_row():
    assert _decode(np.zeros(P_FEATURES)) is None


@pytest.mark.parametrize(
    "p1,p2,expect",
    [
        (("DI", 1), ("DI", 1), 1.0),
        (("DI", 1), ("DI", 2), 1 / 3),
        (("DI", 1), ("TT", 2), 0.0),
        (("DI", None), ("DI", None), 1.0),
        (None, ("DI", 1), 0.0),
    ],
)
def test_pref_jaccard(p1, p2, expect):
    assert _pref_jaccard(p1, p2) == pytest.approx(expect)


def test_popcount():
    g = np.random.default_rng(0)
    x = g.integers(0, 1 << 36, size=200, dtype=np.uint64)
    assert _popcount(x).tolist() == [bin(int(v)).count("1") for v in x]


# -- transduction on a hand-built graph -------------------------------------
def _tiny_rg(edges: dict) -> RegionGraph:
    """Six regions; geometry makes (0,1)~(2,3) similar (same centroid
    distance) and their top-type sets identical."""
    centroids = np.array([[0.0, 0], [1000, 0], [0, 5000], [1000, 5000], [8000, 0], [8000, 9000]])
    return RegionGraph(
        vertex_region=np.array([]),
        region_vertices=[np.array([0])] * 6,
        centroids=centroids,
        top_types=[[0, 2], [5, 3], [0, 2], [5, 3], [0, 2], [0, 2]],
        transfer_centers=[[0]] * 6,
        inner_paths={},
        edges=edges,
    )


FIG7_EDGES = {
    (0, 1): RegionEdge(0, 1, "T"),
    (2, 3): RegionEdge(2, 3, "B"),
    (0, 4): RegionEdge(0, 4, "T"),
    (4, 5): RegionEdge(4, 5, "B"),
}
FIG7_LABELED = {(0, 1): ("DI", 5), (0, 4): ("TT", 0)}


def test_transfer_on_tiny_graph():
    """Paper Fig. 7 scenario: two labeled T-edges, two B-edges; each B-edge
    must inherit the preference of its similar T-edge."""
    preds, elapsed = run_transfer(_tiny_rg(FIG7_EDGES), FIG7_LABELED, amr=0.5)
    assert elapsed >= 0
    # (2,3) is similar to (0,1): same dis (1000 m) and same 𝔽 sets.
    assert preds[(2, 3)] == ("DI", 5)
    # (4,5) shares 𝔽 with (0,4) and is closer in dis to it than to (0,1).
    assert preds[(4, 5)] == ("TT", 0)


def test_transfer_no_pair_above_amr():
    """reSim ≤ 1, so amr 1.01 leaves every edge disconnected: null prefs."""
    preds, _ = run_transfer(_tiny_rg(FIG7_EDGES), FIG7_LABELED, amr=1.01)
    assert preds == {(2, 3): None, (4, 5): None}


def test_transfer_without_labels():
    preds, _ = run_transfer(_tiny_rg(FIG7_EDGES), {}, amr=0.5)
    assert preds == {k: None for k in FIG7_EDGES}


@pytest.mark.parametrize("n_edges", [0, 1])
def test_transfer_degenerate_region_graph(n_edges):
    edges = dict(list(FIG7_EDGES.items())[:n_edges])
    rg = _tiny_rg(edges)
    i, j, sim = similarity_pairs(*edge_features(rg)[1:], amr=0.0)
    assert len(i) == len(j) == len(sim) == 0
    preds, _ = run_transfer(rg, {}, amr=0.0)
    assert preds == {k: None for k in edges}
    labeled = {k: ("FC", 1) for k in edges}
    assert run_transfer(rg, labeled, amr=0.0)[0] == {}


# -- pipeline-level -------------------------------------------------------
@pytest.fixture(scope="module")
def built(learned):
    """Step 1's region graph, copied: Step 2 below writes B-edge prefs."""
    return copy.deepcopy(learned[0])


def test_region_edge_features(spark, built):
    feat = region_edge_features(spark, built).toPandas()
    assert len(feat) == len(built.edges)
    assert (feat.dis > 0).all()
    assert feat.f.map(len).min() >= 1


RESIM_SQL = """
    SELECT a.idx AS i, b.idx AS j,
           (LEAST(a.dis, b.dis) / GREATEST(a.dis, b.dis)
            + CAST(len(list_intersect(a.f, b.f)) AS DOUBLE)
              / GREATEST(len(list_distinct(list_concat(a.f, b.f))), 1)) / 2.0 AS sim
    FROM t a JOIN t b ON a.idx < b.idx
"""


def test_pairwise_similarity_oracle(spark, built):
    """The Spark crossJoin Jaccard+distance similarity vs DuckDB."""
    feat = region_edge_features(spark, built)
    out = pairwise_similarity(feat, amr=0.0).select("i", "j", "sim")
    assert_equivalent(out, RESIM_SQL, t=feat.select("idx", "dis", "f"))


def _numpy_pairs(rg, amr) -> pd.DataFrame:
    i, j, sim = similarity_pairs(*edge_features(rg)[1:], amr)
    return pd.DataFrame({"i": i, "j": j, "sim": sim})


def test_similarity_pairs_oracle(spark, built):
    """The driver-side numpy similarity vs the same DuckDB SQL."""
    feat = region_edge_features(spark, built)
    assert_equivalent(_numpy_pairs(built, 0.0), RESIM_SQL, t=feat.select("idx", "dis", "f"))


@pytest.mark.parametrize("amr", [0.5, 0.7, 0.9])
def test_similarity_pairs_bit_identical_to_spark(spark, built, amr):
    ref = (
        pairwise_similarity(region_edge_features(spark, built), amr)
        .toPandas()
        .sort_values(["i", "j"])
    )
    got = _numpy_pairs(built, amr)
    assert len(got) == len(ref) > 0
    assert np.array_equal(got.i.to_numpy(), ref.i.to_numpy())
    assert np.array_equal(got.j.to_numpy(), ref.j.to_numpy())
    assert got.sim.to_numpy().tobytes() == ref.sim.to_numpy(dtype=np.float64).tobytes()


def test_similarity_pairs_independent_of_block_size(built, monkeypatch):
    whole = _numpy_pairs(built, 0.5)
    monkeypatch.setattr(transfer, "SIM_BLOCK_CELLS", 3 * len(built.edges))
    blocked = _numpy_pairs(built, 0.5)
    pd.testing.assert_frame_equal(blocked, whole)


def test_pairwise_similarity_threshold(spark, built):
    feat = region_edge_features(spark, built)
    lo = pairwise_similarity(feat, 0.5).count()
    hi = pairwise_similarity(feat, 0.9).count()
    assert hi <= lo
    sims = pairwise_similarity(feat, 0.7).toPandas()
    assert (sims.sim >= 0.7).all() and (sims.sim <= 1.0 + 1e-9).all()


def test_transfer_fills_b_edges(spark, built):
    preds = transfer_b_edge_preferences(built)
    b_edges = [e for e in built.edges.values() if e.kind == "B"]
    assert b_edges
    n_filled = sum(1 for e in b_edges if e.pref is not None)
    # Most B-edges should receive a transferred preference at amr=0.7.
    assert n_filled >= 0.5 * len(b_edges)
    for e in b_edges:
        if e.pref is not None:
            assert e.pref[0] in COSTS


def test_transfer_cv_experiment(spark, built):
    tbl = transfer_cv_experiment(spark, built, amr_values=(0.5, 0.7, 0.9))
    assert set(tbl.sweep) == {"partitions", "amr"}
    parts = tbl[tbl.sweep == "partitions"]
    assert list(parts.setting) == ["1X", "2X", "3X", "4X"]
    assert ((tbl.accuracy >= 0) & (tbl.accuracy <= 1)).all()
    assert ((tbl.n_rate >= 0) & (tbl.n_rate <= 1)).all()
    # More labeled partitions must not hurt accuracy much (paper Fig. 9a
    # shows monotone improvement; allow sampling noise).
    assert parts.accuracy.iloc[-1] >= parts.accuracy.iloc[0] - 0.1
