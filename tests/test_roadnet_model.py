"""Unit tests for the road-network model substrate."""
import pickle

import numpy as np
import pytest

from repro.roadnet.generator import ZONE_FUNCS, make_city
from repro.roadnet.model import (
    COSTS,
    PEAK_FACTOR,
    ROAD_TYPES,
    RT_CODE,
    SPEED_KMH,
    RoadNetwork,
    fuel_per_km,
)
from repro.roadnet.shortest_path import dijkstra, preference_dijkstra


@pytest.fixture(scope="module")
def city():
    return make_city(grid_n=20, cell_m=250.0, zone_cells=5, seed=7)


def test_road_type_vocab():
    assert len(ROAD_TYPES) == 6
    assert RT_CODE["motorway"] == 0
    assert RT_CODE["residential"] == 5


@pytest.mark.parametrize("i,name", list(enumerate(ROAD_TYPES)))
def test_rt_code_roundtrip(i, name):
    assert RT_CODE[name] == i


def test_speeds_monotone_with_hierarchy():
    assert list(SPEED_KMH) == sorted(SPEED_KMH, reverse=True)


@pytest.mark.parametrize("v_lo,v_hi", [(30, 50), (110, 90), (110, 70), (30, 60)])
def test_fuel_prefers_mid_speeds(v_lo, v_hi):
    # Fuel per km decreases toward the optimal cruise speed from both sides.
    assert fuel_per_km(np.array([float(v_lo)]))[0] > fuel_per_km(np.array([float(v_hi)]))[0] or abs(
        v_hi - 65
    ) > abs(v_lo - 65)


def test_csr_adjacency_symmetric(city):
    net = city.net
    for v in [0, 1, 57, net.n_vertices - 1]:
        nbrs, eids = net.neighbors(v)
        for x, e in zip(nbrs, eids):
            back, back_e = net.neighbors(int(x))
            assert v in back
            assert e in back_e


def test_csr_covers_all_edges(city):
    net = city.net
    # Every undirected edge appears exactly twice in the CSR arrays.
    assert len(net.nbr) == 2 * net.n_edges
    counts = np.bincount(net.nbr_edge, minlength=net.n_edges)
    assert (counts == 2).all()


@pytest.mark.parametrize("cost", COSTS)
def test_weights_positive(city, cost):
    w = city.net.weights(cost)
    assert w.shape == (city.net.n_edges,)
    assert (w > 0).all()


def test_weights_unknown_cost_raises(city):
    with pytest.raises(ValueError):
        city.net.weights("XX")


def test_peak_travel_time_slower(city):
    net = city.net
    assert (net.travel_time(peak=True) >= net.travel_time(peak=False)).all()
    # Arterials congest more than motorways.
    assert PEAK_FACTOR[RT_CODE["primary"]] > PEAK_FACTOR[RT_CODE["motorway"]]


def test_travel_time_matches_speed(city):
    net = city.net
    e = 0
    v_kmh = SPEED_KMH[net.rt[e]]
    assert net.travel_time()[e] == pytest.approx(net.dist[e] / (v_kmh / 3.6))


def test_path_edges_and_length(city):
    net = city.net
    nbrs, _ = net.neighbors(0)
    path = [0, int(nbrs[0])]
    eids = net.path_edges(path)
    assert len(eids) == 1
    assert net.path_length(path) == pytest.approx(net.dist[eids[0]])
    assert net.path_length([0]) == 0.0


def test_path_edges_invalid_pair_raises(city):
    with pytest.raises(ValueError):
        city.net.path_edges([0, city.net.n_vertices - 1])


def test_pickle_roundtrip_keeps_gated_csr(city):
    """The Spark fan-outs broadcast the network itself, gated CSRs included."""
    net = city.net
    for rt in range(len(ROAD_TYPES)):
        net.gated_csr(rt)
    net2 = pickle.loads(pickle.dumps(net))
    assert np.array_equal(net2.dist, net.dist)
    assert net2._gated.keys() == net._gated.keys()
    for rt in range(len(ROAD_TYPES)):
        assert all(np.array_equal(a, b) for a, b in zip(net2.gated_csr(rt), net.gated_csr(rt)))
    w = net.travel_time()
    for s, d in [(0, net.n_vertices - 1), (5, 180), (37, 12)]:
        assert dijkstra(net2, s, d, w) == dijkstra(net, s, d, w)
        for rt in range(len(ROAD_TYPES)):
            assert preference_dijkstra(net2, s, d, w, rt) == preference_dijkstra(net, s, d, w, rt)


def test_city_zones(city):
    assert len(city.zone_func) == city.zone_of.max() + 1
    assert set(city.zone_func) <= set(ZONE_FUNCS)
    assert city.zone_centroid.shape == (len(city.zone_func), 2)
    # Zones partition all vertices.
    assert city.zone_of.min() == 0
    assert len(city.zone_of) == city.net.n_vertices


def test_city_road_type_mix(city):
    counts = np.bincount(city.net.rt.astype(int), minlength=6)
    # Residential dominates; the hierarchy is present.
    assert counts[RT_CODE["residential"]] == counts.max()
    for name in ("motorway", "trunk", "primary", "secondary"):
        assert counts[RT_CODE[name]] > 0


def test_city_deterministic():
    a = make_city(grid_n=12, seed=3)
    b = make_city(grid_n=12, seed=3)
    assert np.array_equal(a.net.xy, b.net.xy)
    assert np.array_equal(a.net.rt, b.net.rt)


def test_spark_dfs(city, spark):
    v = city.net.vertices_df(spark)
    e = city.net.edges_df(spark)
    assert v.count() == city.net.n_vertices
    assert e.count() == city.net.n_edges
    assert set(e.columns) == {"eid", "u", "v", "dist", "rt", "tt", "fc"}
