"""The test world most modules share, built once per session.

``city`` is the 20×20 test city and ``trajs`` its 150 trajectories of 15
drivers; ``clustered``, ``region_graph`` and ``learned`` run the pipeline
on them up to Alg. 1, the region graph and Step 1. ``arts`` is the whole
offline build on another draw of 200 trajectories, and ``od_corpus`` a
seeded set of queries of every router case on its regions. A module that
needs another city or trajectory set defines its own fixture of the same
name.

The values are shared, so no test may change them: each fixture checks at
session end that its data is what it built. A module that runs a later
step on a region graph takes a ``copy.deepcopy`` of it.
"""
import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.clustering import bottom_up_clustering
from repro.core.pipeline import build_l2r
from repro.core.popularity import edge_popularity_array
from repro.core.preference import learn_t_edge_preferences
from repro.core.region_graph import build_region_graph
from repro.roadnet.generator import make_city
from repro.traj.generator import generate_trajectories, split_train_test, trajectories_df


def _data(value) -> bytes:
    """The pickled data fields of a fixture value. Dataclasses are taken
    field by field, so a RoadNetwork's gated-CSR cache is left out."""
    if dataclasses.is_dataclass(value):
        return pickle.dumps(dataclasses.astuple(value))
    if isinstance(value, (list, tuple)):
        return b"".join(_data(v) for v in value)
    return pickle.dumps(value)


def _unchanged(value):
    before = _data(value)
    yield value
    assert _data(value) == before, "a test changed a shared session fixture"


@pytest.fixture(scope="session")
def city():
    yield from _unchanged(make_city(grid_n=20, cell_m=250.0, zone_cells=5, seed=7))


@pytest.fixture(scope="session")
def trajs(city):
    yield from _unchanged(generate_trajectories(city, n=150, n_drivers=15, seed=11))


@pytest.fixture(scope="session")
def clustered(spark, city, trajs):
    """(edge popularity, Alg. 1 regions) of ``trajs``."""
    pop = edge_popularity_array(trajectories_df(spark, trajs), city.net, spark)
    yield from _unchanged((pop, bottom_up_clustering(city.net, pop)))


@pytest.fixture(scope="session")
def region_graph(spark, city, trajs, clustered):
    """The region graph of ``trajs`` before Steps 1–3."""
    rg = build_region_graph(spark, city.net, clustered[1], trajectories_df(spark, trajs))
    yield from _unchanged(rg)


@pytest.fixture(scope="session")
def learned(spark, city, region_graph):
    """(a copy of ``region_graph`` with Step 1's T-edge preferences, the
    preference table)."""
    rg = copy.deepcopy(region_graph)
    prefs = learn_t_edge_preferences(spark, city.net, rg)
    yield from _unchanged((rg, prefs))


@pytest.fixture(scope="session")
def arts(spark, city):
    """``build_l2r`` on the training split of 200 trajectories of 20 drivers."""
    train, _ = split_train_test(generate_trajectories(city, n=200, n_drivers=20, seed=11), 0.2, 13)
    yield from _unchanged(build_l2r(spark, city, train))


@pytest.fixture(scope="session")
def od_corpus(arts):
    """Seeded (s, d) queries on ``arts``' regions: 5 with s == d, then 100
    each of same-region, cross-region and Case-2 (an endpoint uncovered)."""
    vr = arts.router.rg.vertex_region
    g = np.random.default_rng(2018)
    want = {"same": 100, "cross": 100, "case2": 100}
    ods = [(v, v) for v in map(int, g.integers(0, len(vr), 5))]
    while any(want.values()):
        s, d = map(int, g.integers(0, len(vr), 2))
        if s == d:
            continue
        kind = "case2" if min(vr[s], vr[d]) < 0 else "same" if vr[s] == vr[d] else "cross"
        if want[kind]:
            want[kind] -= 1
            ods.append((s, d))
    return ods
