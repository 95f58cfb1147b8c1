"""Tests for the baseline routers: Shortest, Fastest, Dom, TRIP, GoogleSim."""
import numpy as np
import pytest

from repro.baselines.costcentric import FastestRouter, ShortestRouter
from repro.baselines.dom import DomRouter
from repro.baselines.external import GoogleSimRouter
from repro.baselines.trip import TripRouter
from repro.eval.similarity import psim
from repro.roadnet.model import COSTS
from repro.roadnet.shortest_path import dijkstra
from repro.traj.generator import generate_trajectories


@pytest.fixture(scope="module")
def trajs(city):
    return generate_trajectories(city, n=120, n_drivers=10, seed=11)


@pytest.mark.parametrize("seed", range(5))
def test_shortest_minimizes_distance(city, seed):
    g = np.random.default_rng(seed)
    s, d = map(int, g.integers(0, city.net.n_vertices, 2))
    path = ShortestRouter(city.net).route(s, d)
    ref = dijkstra(city.net, s, d, city.net.dist)
    assert city.net.path_length(path) == pytest.approx(ref[1])


@pytest.mark.parametrize("peak", [False, True])
def test_fastest_minimizes_time(city, peak):
    r = FastestRouter(city.net)
    s, d = 3, city.net.n_vertices - 5
    path = r.route(s, d, peak=peak)
    w = city.net.travel_time(peak=peak)
    ref = dijkstra(city.net, s, d, w)
    eids = city.net.path_edges(path)
    assert w[eids].sum() == pytest.approx(ref[1])


def test_fastest_peak_can_differ(city):
    """Peak congestion on arterials may reroute the fastest path."""
    r = FastestRouter(city.net)
    diffs = 0
    g = np.random.default_rng(1)
    for _ in range(30):
        s, d = map(int, g.integers(0, city.net.n_vertices, 2))
        if r.route(s, d, peak=False) != r.route(s, d, peak=True):
            diffs += 1
    assert diffs > 0


def test_dom_learns_driver_prefs(city, trajs):
    dom = DomRouter(city.net).fit(trajs)
    assert set(dom.driver_pref) == {t.driver for t in trajs}
    assert all(p in COSTS for p in dom.driver_pref.values())


def test_dom_routes_with_driver_pref(city, trajs):
    dom = DomRouter(city.net).fit(trajs)
    drv = trajs[0].driver
    pref = dom.driver_pref[drv]
    path = dom.route(10, 250, peak=False, driver=drv)
    ref = dijkstra(city.net, 10, 250, city.net.weights(pref))
    assert path == ref[0]


def test_dom_unknown_driver_defaults_tt(city, trajs):
    dom = DomRouter(city.net).fit(trajs)
    path = dom.route(10, 250, driver=99999)
    assert path == dijkstra(city.net, 10, 250, city.net.travel_time())[0]


def test_trip_ratios(city, trajs):
    trip = TripRouter(city.net).fit(trajs)
    for drv, ratio in trip.driver_ratio.items():
        assert ratio.shape == (6,)
        assert ((ratio > 0.6) & (ratio <= 1.0)).all()


def test_trip_routes_valid(city, trajs):
    trip = TripRouter(city.net).fit(trajs)
    path = trip.route(0, city.net.n_vertices - 1, driver=trajs[0].driver)
    city.net.path_edges(path)
    assert path[0] == 0 and path[-1] == city.net.n_vertices - 1


def test_trip_biases_toward_habitual_roads(city, trajs):
    """A driver with heavy motorway usage gets motorway-discounted weights."""
    trip = TripRouter(city.net).fit(trajs)
    shares = {d: r for d, r in trip.driver_ratio.items()}
    # The discount is 1 - gamma*share: stronger usage -> lower ratio.
    for drv, r in shares.items():
        assert r.min() >= 1 - 0.3 - 1e-9


def test_googlesim_deterministic(city):
    a = GoogleSimRouter(city.net, seed=29)
    b = GoogleSimRouter(city.net, seed=29)
    assert a.route(0, 300) == b.route(0, 300)


def test_googlesim_differs_from_fastest_sometimes(city):
    gs = GoogleSimRouter(city.net, seed=29)
    fast = FastestRouter(city.net)
    diffs = 0
    g = np.random.default_rng(2)
    for _ in range(30):
        s, d = map(int, g.integers(0, city.net.n_vertices, 2))
        if gs.route(s, d) != fast.route(s, d):
            diffs += 1
    assert diffs > 0  # private speed model: not identical to ground truth


def test_googlesim_waypoints(city):
    gs = GoogleSimRouter(city.net, seed=29)
    path = gs.route(0, city.net.n_vertices - 1)
    wps = gs.waypoints(path, every=3, noise_m=2.0, seed=1)
    assert wps.shape[1] == 2
    assert len(wps) >= len(path) // 3
    # Way-points stay near the answer polyline.
    assert np.linalg.norm(wps[0] - city.net.xy[path[0]]) < 20


def test_googlesim_reasonable_accuracy(city, trajs):
    """The surrogate is plausible but imperfect — between 0.3 and 0.98 mean
    similarity against local ground truth (paper: 60–85%)."""
    gs = GoogleSimRouter(city.net, seed=29)
    sims = [
        psim(city.net, t.path, gs.route(t.path[0], t.path[-1], peak=t.peak))
        for t in trajs[:40]
    ]
    assert 0.3 < np.mean(sims) < 0.98
