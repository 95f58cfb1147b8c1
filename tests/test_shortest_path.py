"""Tests for Dijkstra and the preference-modified Dijkstra (Algorithm 2)."""
import heapq

import numpy as np
import pytest

import repro.roadnet.shortest_path as sp
from repro.roadnet.generator import make_city
from repro.roadnet.model import COSTS, ROAD_TYPES, RT_CODE, RoadNetwork
from repro.roadnet.shortest_path import dijkstra, multi_source_reach, preference_dijkstra


@pytest.fixture(scope="module")
def city():
    return make_city(grid_n=15, cell_m=200.0, seed=5)


def _bellman_ford_cost(net: RoadNetwork, src: int, dst: int, w: np.ndarray) -> float:
    """Reference implementation for cost cross-checks."""
    dist = np.full(net.n_vertices, np.inf)
    dist[src] = 0.0
    for _ in range(net.n_vertices):
        du = dist[net.eu] + w
        dv = dist[net.ev] + w
        new = dist.copy()
        np.minimum.at(new, net.ev, du)
        np.minimum.at(new, net.eu, dv)
        if np.array_equal(new, dist):
            break
        dist = new
    return float(dist[dst])


@pytest.mark.parametrize("seed", range(8))
def test_dijkstra_matches_bellman_ford(city, seed):
    g = np.random.default_rng(seed)
    s, d = g.integers(0, city.net.n_vertices, 2)
    w = city.net.dist
    res = dijkstra(city.net, int(s), int(d), w)
    assert res is not None
    path, cost = res
    assert path[0] == s and path[-1] == d
    assert cost == pytest.approx(_bellman_ford_cost(city.net, int(s), int(d), w))


@pytest.mark.parametrize("seed", range(8))
def test_dijkstra_path_cost_consistent(city, seed):
    g = np.random.default_rng(100 + seed)
    s, d = g.integers(0, city.net.n_vertices, 2)
    w = city.net.travel_time()
    res = dijkstra(city.net, int(s), int(d), w)
    path, cost = res
    eids = city.net.path_edges(path)  # raises if the path is not contiguous
    assert w[eids].sum() == pytest.approx(cost)


def test_dijkstra_trivial(city):
    assert dijkstra(city.net, 3, 3, city.net.dist) == ([3], 0.0)


def test_dijkstra_unreachable():
    # Two isolated components.
    xy = np.array([[0.0, 0], [1, 0], [10, 0], [11, 0]])
    net = RoadNetwork.from_edges(xy, [0, 2], [1, 3], [1.0, 1.0], [5, 5])
    assert dijkstra(net, 0, 3, net.dist) is None


@pytest.mark.parametrize("slave", [None, 0, 2, 5])
def test_preference_dijkstra_valid_paths(city, slave):
    res = preference_dijkstra(city.net, 0, city.net.n_vertices - 1, city.net.dist, slave)
    assert res is not None
    path, _ = res
    city.net.path_edges(path)  # contiguity check


def test_preference_none_equals_plain(city):
    w = city.net.travel_time()
    a = preference_dijkstra(city.net, 5, 180, w, None)
    b = dijkstra(city.net, 5, 180, w)
    assert a[1] == pytest.approx(b[1])


def test_preference_gates_expansion():
    """At a vertex with a satisfying edge, only satisfying edges are explored."""
    # Diamond: 0-1 (rt A), 0-2 (rt B), 1-3, 2-3. Slave prefers rt B: even
    # though 0-1 is cheaper, expansion from 0 must use the rt-B edge.
    xy = np.array([[0.0, 0], [1, 1], [1, -1], [2, 0]])
    eu, ev = [0, 0, 1, 2], [1, 2, 3, 3]
    w = np.array([1.0, 5.0, 1.0, 5.0])
    rt = np.array([2, 5, 2, 5])
    net = RoadNetwork.from_edges(xy, eu, ev, w, rt)
    path, cost = preference_dijkstra(net, 0, 3, w, 5)
    assert path == [0, 2, 3]
    assert cost == pytest.approx(10.0)


def test_preference_falls_back_when_unsatisfiable():
    """With no satisfying edge anywhere, behaves like plain Dijkstra."""
    xy = np.array([[0.0, 0], [1, 0], [2, 0]])
    net = RoadNetwork.from_edges(xy, [0, 1], [1, 2], [1.0, 1.0], [5, 5])
    path, cost = preference_dijkstra(net, 0, 2, net.dist, 0)  # motorway nowhere
    assert path == [0, 1, 2]


def test_preference_changes_route(city):
    """A motorway slave pulls long routes onto the border ring."""
    net = city.net
    n = city.grid_n
    s, d = n + 1, net.n_vertices - n - 2  # near opposite corners, off-border
    plain = dijkstra(net, s, d, net.dist)[0]
    pref = preference_dijkstra(net, s, d, net.dist, RT_CODE["motorway"])[0]
    rt_share = lambda p: (net.rt[net.path_edges(p)] == RT_CODE["motorway"]).mean()
    assert rt_share(pref) >= rt_share(plain)


def test_multi_source_reach_stops_at_flags(city):
    net = city.net
    stop = np.zeros(net.n_vertices, dtype=bool)
    stop[100:110] = True
    reached = multi_source_reach(net, [0], stop)
    assert reached <= set(range(100, 110))
    # Flagged vertices are reached but not expanded: a vertex whose only
    # paths from 0 pass through flagged vertices stays unreached.
    stop2 = np.zeros(net.n_vertices, dtype=bool)
    nbrs, _ = net.neighbors(0)
    for x in nbrs:
        stop2[int(x)] = True
    reached2 = multi_source_reach(net, [0], stop2)
    assert reached2 == {int(x) for x in nbrs}


# -- reference kernels: the two separate loops the shared search replaced ----
def _ref_reconstruct(parent: dict[int, int], dst: int) -> list[int]:
    path = [dst]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _ref_dijkstra(
    net: RoadNetwork, src: int, dst: int, w: np.ndarray
) -> tuple[list[int], float] | None:
    """Lowest-cost path from ``src`` to ``dst`` under edge weights ``w``.

    Returns ``(vertex path, cost)`` or ``None`` if unreachable.
    """
    if src == dst:
        return [src], 0.0
    INF = np.inf
    dist = {src: 0.0}
    parent = {src: -1}
    done = set()
    pq: list[tuple[float, int]] = [(0.0, src)]
    indptr, nbr, nbr_edge = net.indptr, net.nbr, net.nbr_edge
    while pq:
        d, u = heapq.heappop(pq)
        if u in done:
            continue
        if u == dst:
            return _ref_reconstruct(parent, dst), d
        done.add(u)
        lo, hi = indptr[u], indptr[u + 1]
        for x, e in zip(nbr[lo:hi], nbr_edge[lo:hi]):
            x = int(x)
            if x in done:
                continue
            nd = d + w[e]
            if nd < dist.get(x, INF):
                dist[x] = nd
                parent[x] = u
                heapq.heappush(pq, (nd, x))
    return None


def _ref_preference_dijkstra(
    net: RoadNetwork,
    src: int,
    dst: int,
    master_w: np.ndarray,
    slave_rt: int | None,
) -> tuple[list[int], float] | None:
    """Alg. 2 with the slave gate evaluated at every settled vertex."""
    if slave_rt is None:
        return _ref_dijkstra(net, src, dst, master_w)
    if src == dst:
        return [src], 0.0
    INF = np.inf
    dist = {src: 0.0}
    parent = {src: -1}
    done = set()
    pq: list[tuple[float, int]] = [(0.0, src)]
    indptr, nbr, nbr_edge, rt = net.indptr, net.nbr, net.nbr_edge, net.rt
    while pq:
        d, u = heapq.heappop(pq)
        if u in done:
            continue
        if u == dst:
            return _ref_reconstruct(parent, dst), d
        done.add(u)
        lo, hi = indptr[u], indptr[u + 1]
        edges = nbr_edge[lo:hi]
        sat = rt[edges] == slave_rt  # lines 8-9: does any edge satisfy V.slave?
        none_sat = not bool(sat.any())
        for x, e, s in zip(nbr[lo:hi], edges, sat):
            if not (s or none_sat):  # line 11
                continue
            x = int(x)
            if x in done:
                continue
            nd = d + master_w[e]
            if nd < dist.get(x, INF):
                dist[x] = nd
                parent[x] = u
                heapq.heappush(pq, (nd, x))
    # Gated search trapped before reaching dst: master-only fallback.
    return _ref_dijkstra(net, src, dst, master_w)


@pytest.mark.parametrize("master", COSTS)
def test_kernels_match_reference(city, master):
    """Identical (path, cost), ties included, for every slave on a seeded
    OD corpus; the corpus must contain trapped gated searches."""
    net = city.net
    w = net.weights(master)
    g = np.random.default_rng(2018)
    ods = [(int(s), int(d)) for s, d in g.integers(0, net.n_vertices, size=(100, 2))]
    trapped = 0
    for s, d in ods:
        assert dijkstra(net, s, d, w) == _ref_dijkstra(net, s, d, w)
        for rt in [None, *range(len(ROAD_TYPES))]:
            got = preference_dijkstra(net, s, d, w, rt)
            assert got == _ref_preference_dijkstra(net, s, d, w, rt), (s, d, rt)
            if rt is not None:
                trapped += sp._search(*net.gated_csr(rt), s, d, w) is None
    assert trapped > 0


def test_gated_csr(city):
    """Per vertex: the slave-typed slots if any, else all slots, in CSR order;
    a road type that appears nowhere gives the full CSR."""
    net = city.net
    for rt in range(len(ROAD_TYPES) + 1):
        indptr, nbr, nbr_edge = net.gated_csr(rt)
        assert len(indptr) == net.n_vertices + 1
        for v in range(net.n_vertices):
            slots = list(range(net.indptr[v], net.indptr[v + 1]))
            keep = [i for i in slots if net.rt[net.nbr_edge[i]] == rt] or slots
            lo, hi = indptr[v], indptr[v + 1]
            assert np.array_equal(nbr[lo:hi], net.nbr[keep])
            assert np.array_equal(nbr_edge[lo:hi], net.nbr_edge[keep])
    absent = net.gated_csr(len(ROAD_TYPES))
    assert all(np.array_equal(a, b) for a, b in zip(absent, (net.indptr, net.nbr, net.nbr_edge)))


def test_trapped_search_calls_module_dijkstra_once(monkeypatch):
    """The fallback goes through the module-level ``dijkstra`` exactly when
    the gated search traps (callers count traps by wrapping it)."""
    calls = []
    orig = sp.dijkstra
    monkeypatch.setattr(sp, "dijkstra", lambda *a: calls.append(a) or orig(*a))
    # The chain of test_preference_falls_back_when_unsatisfiable has no
    # motorway, so its gate keeps every slot and nothing traps ...
    xy = np.array([[0.0, 0], [1, 0], [2, 0]])
    net = RoadNetwork.from_edges(xy, [0, 1], [1, 2], [1.0, 1.0], [5, 5])
    assert preference_dijkstra(net, 0, 2, net.dist, 0) == ([0, 1, 2], 2.0)
    assert calls == []
    # ... but a motorway spur at the source confines the search to the spur.
    xy = np.array([[0.0, 0], [1, 0], [2, 0], [0, 1]])
    net = RoadNetwork.from_edges(xy, [0, 1, 0], [1, 2, 3], [1.0, 1.0, 1.0], [5, 5, 0])
    assert preference_dijkstra(net, 0, 2, net.dist, 0) == ([0, 1, 2], 2.0)
    assert len(calls) == 1
