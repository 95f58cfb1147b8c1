"""Tests for the trajectory substrate: generator and Table II stats."""
import numpy as np
import pytest

from repro.oracle import assert_equivalent
from repro.roadnet.generator import make_city
from repro.traj.generator import (
    PREF_TABLE,
    generate_trajectories,
    latent_preference,
    split_train_test,
    trajectories_df,
)
from repro.traj.stats import D2_BUCKETS, distance_table, distance_table_pdf


def test_generator_count_and_ids(trajs):
    assert len(trajs) == 150
    assert [t.traj_id for t in trajs] == list(range(150))


def test_paths_are_contiguous(city, trajs):
    for t in trajs[:30]:
        city.net.path_edges(t.path)  # raises on a broken path


def test_dist_matches_path(city, trajs):
    for t in trajs[:20]:
        assert t.dist_m == pytest.approx(city.net.path_length(t.path))


def test_generator_deterministic(city):
    a = generate_trajectories(city, n=40, seed=3)
    b = generate_trajectories(city, n=40, seed=3)
    assert all(x.path == y.path for x, y in zip(a, b))


def test_demand_is_skewed(city, trajs):
    """Zipf OD sampling: some zone pairs dominate, many are never used."""
    pairs = {}
    for t in trajs:
        key = (int(city.zone_of[t.path[0]]), int(city.zone_of[t.path[-1]]))
        pairs[key] = pairs.get(key, 0) + 1
    n_zones = len(city.zone_func)
    assert len(pairs) < n_zones * (n_zones - 1)  # sparsity
    counts = sorted(pairs.values(), reverse=True)
    assert counts[0] >= 5 * counts[-1]  # skew


def test_peak_share(trajs):
    share = np.mean([t.peak for t in trajs])
    assert 0.2 < share < 0.6
    for t in trajs:
        assert (t.dep_hour in (7, 8, 16, 17)) == t.peak


@pytest.fixture(scope="module")
def zoned_city():
    """A 6×6-zone city. The shared 4×4-zone city has no business zone: its
    zones lie 0.5 (centre) or 1.5 zones from the middle, outside the
    business band of 4/3."""
    return make_city(grid_n=24, cell_m=250.0, zone_cells=4, seed=7)


@pytest.mark.parametrize("fs,fd", list(PREF_TABLE.keys()))
def test_latent_preference_table(zoned_city, fs, fd):
    # Find a short od pair with the requested functionalities.
    city = zoned_city
    zs = [z for z, f in enumerate(city.zone_func) if f == fs]
    zd = [z for z, f in enumerate(city.zone_func) if f == fd]
    assert zs and zd, "functionality not present in this city layout"
    s = int(np.flatnonzero(city.zone_of == zs[0])[0])
    d = int(np.flatnonzero(city.zone_of == zd[0])[0])
    pref = latent_preference(city, s, d)
    span = city.grid_n * city.cell_m * np.sqrt(2)
    if np.linalg.norm(city.net.xy[s] - city.net.xy[d]) <= 0.55 * span:
        assert pref == PREF_TABLE[(fs, fd)]
    else:
        assert pref == ("TT", "motorway")


def test_long_trips_prefer_motorway(city):
    s, d = 0, city.net.n_vertices - 1
    assert latent_preference(city, s, d) == ("TT", "motorway")


def test_split_train_test(trajs):
    train, test = split_train_test(trajs, test_frac=0.2, seed=13)
    assert len(test) == int(0.2 * len(trajs))
    assert len(train) + len(test) == len(trajs)
    assert {t.traj_id for t in train}.isdisjoint({t.traj_id for t in test})


def test_trajectories_df(spark, trajs):
    df = trajectories_df(spark, trajs[:50])
    assert df.count() == 50
    row = df.first()
    assert isinstance(row["path"], list)


# -- Table II statistics ----------------------------------------------------
def test_distance_table_oracle(spark, trajs):
    df = trajectories_df(spark, trajs)
    out = distance_table(df, D2_BUCKETS).select("bucket", "n_trajectories")
    total = len(trajs)
    sql = """
        SELECT CASE
            WHEN dist_m <= 2000 THEN '(0,2]'
            WHEN dist_m <= 5000 THEN '(2,5]'
            WHEN dist_m <= 10000 THEN '(5,10]'
            WHEN dist_m <= 35000 THEN '(10,35]'
            ELSE '>35' END AS bucket,
            COUNT(*) AS n_trajectories
        FROM t GROUP BY 1
    """
    assert_equivalent(out, sql, t=df.select("dist_m"))


def test_distance_table_percentages(spark, trajs):
    pdf = distance_table_pdf(trajectories_df(spark, trajs), D2_BUCKETS)
    assert pdf.n_trajectories.sum() == len(trajs)
    assert abs(pdf.percentage.sum() - 100.0) < 1.0


def test_distance_table_bucket_order(spark, trajs):
    pdf = distance_table_pdf(trajectories_df(spark, trajs), D2_BUCKETS)
    present = list(pdf.bucket)
    full_order = ["(0,2]", "(2,5]", "(5,10]", "(10,35]", ">35"]
    assert present == [b for b in full_order if b in present]
