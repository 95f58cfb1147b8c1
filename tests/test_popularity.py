"""Tests for the Spark edge-popularity aggregation (clustering input)."""
import numpy as np
import pytest

from repro.core.popularity import (
    edge_popularity_array,
    edge_popularity_df,
    traversals_df,
)
from repro.oracle import assert_equivalent
from repro.traj.generator import generate_trajectories, trajectories_df


@pytest.fixture(scope="module")
def trajs(city):
    return generate_trajectories(city, n=120, n_drivers=12, seed=11)


@pytest.fixture(scope="module")
def traj_df(spark, trajs):
    return trajectories_df(spark, trajs).cache()


def test_traversals_count(spark, traj_df, trajs):
    n_pairs = sum(len(t.path) - 1 for t in trajs)
    assert traversals_df(traj_df).count() == n_pairs


def test_traversals_oracle(spark, traj_df):
    out = (
        traversals_df(traj_df)
        .groupBy("traj_id")
        .count()
        .withColumnRenamed("count", "n")
    )
    sql = "SELECT traj_id, CAST(len(path) - 1 AS BIGINT) AS n FROM t"
    assert_equivalent(out, sql, t=traj_df.select("traj_id", "path"))


def test_edge_popularity_oracle(spark, city, traj_df):
    """Popularity counts distinct trajectories per undirected edge."""
    edges = city.net.edges_df(spark)
    out = edge_popularity_df(traj_df, edges).select("eid", "popularity")
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


def test_popularity_array_matches_df(spark, city, traj_df):
    arr = edge_popularity_array(traj_df, city.net, spark)
    pdf = edge_popularity_df(traj_df, city.net.edges_df(spark)).toPandas()
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

