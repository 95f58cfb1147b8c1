"""Tests for the edge-popularity aggregation (clustering input) and the
Spark fan-out it runs on."""
from collections import Counter

import numpy as np
import pandas as pd
import pytest

from repro.core.popularity import edge_popularity_array
from repro.oracle import assert_equivalent
from repro.roadnet.generator import make_city
from repro.spark import fan_out
from repro.traj.generator import generate_trajectories, trajectories_df
from repro.world import LOCAL_COST_SIGMA, SCALES, SEED_CITY


@pytest.fixture(scope="module")
def trajs(city):
    return generate_trajectories(city, n=120, n_drivers=12, seed=11)


@pytest.fixture(scope="module")
def traj_df(spark, trajs):
    return trajectories_df(spark, trajs).cache()


def _paths_df(spark, paths):
    return spark.createDataFrame(pd.DataFrame({"traj_id": range(len(paths)), "path": paths}))


def test_edge_popularity_oracle(spark, city, traj_df):
    """Popularity counts distinct trajectories per undirected edge."""
    arr = edge_popularity_array(traj_df, city.net, spark)
    eid = np.flatnonzero(arr)
    out = pd.DataFrame({"eid": eid, "popularity": arr[eid].astype(np.int64)})
    net = city.net
    edges = pd.DataFrame({"eid": np.arange(net.n_edges), "u": net.eu.astype(np.int64), "v": net.ev.astype(np.int64)})
    sql = """
        WITH hops AS (
            SELECT traj_id,
                   LEAST(path[i], path[i+1]) AS a,
                   GREATEST(path[i], path[i+1]) AS b
            FROM t, UNNEST(range(1, len(path))) AS r(i)
        )
        SELECT e.eid, COUNT(DISTINCT h.traj_id) AS popularity
        FROM hops h
        JOIN (SELECT eid, LEAST(u, v) AS a, GREATEST(u, v) AS b FROM e) e
          USING (a, b)
        GROUP BY e.eid
    """
    assert_equivalent(out, sql, t=traj_df.select("traj_id", "path"), e=edges)


def test_popularity_array_matches_df(spark, city, traj_df, trajs):
    """The array equals a driver-side count of each trajectory's edge set."""
    arr = edge_popularity_array(traj_df, city.net, spark)
    counts = Counter(e for t in trajs for e in set(city.net.path_edges(t.path).tolist()))
    pdf = pd.DataFrame({"eid": list(counts), "popularity": list(counts.values())})
    assert arr.shape == (city.net.n_edges,)
    for _, r in pdf.iterrows():
        assert arr[int(r.eid)] == r.popularity
    assert arr.sum() == pdf.popularity.sum()


def test_covered_edges_subset(spark, city, traj_df, trajs):
    """Exactly the traversed edges have popularity > 0."""
    arr = edge_popularity_array(traj_df, city.net, spark)
    covered = set()
    for t in trajs:
        covered.update(map(int, city.net.path_edges(t.path)))
    assert set(np.flatnonzero(arr > 0)) == covered


def test_edge_traversed_twice_counts_once(spark, city):
    """A trajectory a→b→a occurred on edge (a, b) once."""
    a, b = int(city.net.eu[0]), int(city.net.ev[0])
    arr = edge_popularity_array(_paths_df(spark, [[a, b, a]]), city.net, spark)
    assert arr[0] == 1 and arr.sum() == 1


def test_non_contiguous_path_raises(spark, city):
    """A path with a non-adjacent vertex pair fails the job with
    ``path_edges``' ValueError instead of being dropped."""
    net = city.net
    a = 0
    c = next(v for v in range(1, net.n_vertices) if v not in set(net.neighbors(a)[0].tolist()))
    with pytest.raises(Exception, match=f"ValueError: no edge between {a} and {c}"):
        edge_popularity_array(_paths_df(spark, [[a, c]]), net, spark)


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_make_city_has_no_parallel_edges(scale):
    """Popularity counts each edge ``path_edges`` finds in a vertex pair's
    first CSR slot; that equals counting by vertex pair (the oracle's join)
    only when no two edges join the same pair."""
    cfg = SCALES[scale]
    net = make_city(
        grid_n=cfg["grid_n"], cell_m=cfg["cell_m"], zone_cells=cfg["zone_cells"],
        seed=SEED_CITY, local_cost_sigma=LOCAL_COST_SIGMA,
    ).net
    pairs = {(min(u, v), max(u, v)) for u, v in zip(net.eu.tolist(), net.ev.tolist())}
    assert len(pairs) == net.n_edges


def _fan_fn(row, shared):
    """0 to 3 output rows per input row, using the broadcast value."""
    for k in range(row.x % 4):
        yield int(row.x), k, shared[int(row.x) % len(shared)] * k


def test_fan_out_equals_driver_loop(spark):
    shared = [0.5, 1.25, 2.0]
    work = pd.DataFrame({"x": np.arange(50, dtype=np.int64)})
    want = sorted(out for row in work.itertuples(index=False) for out in _fan_fn(row, shared))
    for w in (work, spark.createDataFrame(work)):
        got = fan_out(spark, w, _fan_fn, "x long, k long, y double", shared).toPandas()
        assert sorted(got.itertuples(index=False, name=None)) == want


def test_fan_out_empty_work(spark):
    df = fan_out(spark, pd.DataFrame({"x": []}), _fan_fn, "x long, k long, y double", [1.0])
    assert df.schema.simpleString() == "struct<x:bigint,k:bigint,y:double>"
    assert df.count() == 0
