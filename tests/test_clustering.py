"""Tests for Algorithm 1: modularity gain, Table I conditions, invariants."""
import numpy as np
import pytest

from repro.core.clustering import (
    _check_q,
    _Cluster,
    bottom_up_clustering,
    modularity_gain,
    vertex_region_map,
)
from repro.roadnet.model import RoadNetwork


# -- modularity gain --------------------------------------------------------
@pytest.mark.parametrize(
    "s_ij,S_i,S_j,S,positive",
    [
        (10, 12, 12, 100, True),   # strong edge between small clusters
        (1, 50, 50, 100, False),   # weak edge between heavy clusters
        (5, 10, 10, 100, True),
        (0.5, 40, 40, 100, False),
    ],
)
def test_modularity_gain_sign(s_ij, S_i, S_j, S, positive):
    assert (modularity_gain(s_ij, S_i, S_j, S) > 0) == positive


def test_modularity_gain_formula():
    assert modularity_gain(3, 6, 9, 30) == pytest.approx(3 / 30 - 54 / 900)


# -- Table I conditions -----------------------------------------------------
def _mk(simple, rt=None):
    return _Cluster(members=[0], S=1.0, rt=rt, simple=simple)


@pytest.mark.parametrize("dq", [-0.1, 0.0])
def test_checkq_requires_positive_gain(dq):
    assert not _check_q(_mk(True), _mk(True), 1, dq)


def test_checkq_simple_simple_no_rt_condition():
    assert _check_q(_mk(True), _mk(True), 3, 0.1)


def test_checkq_aggregate_simple_needs_edge_rt():
    vk = _mk(False, rt=2)
    assert _check_q(vk, _mk(True), 2, 0.1)
    assert not _check_q(vk, _mk(True), 3, 0.1)


def test_checkq_simple_aggregate_needs_edge_rt():
    vj = _mk(False, rt=4)
    assert _check_q(_mk(True), vj, 4, 0.1)
    assert not _check_q(_mk(True), vj, 5, 0.1)


def test_checkq_aggregate_aggregate_needs_same_rt():
    assert _check_q(_mk(False, rt=1), _mk(False, rt=1), 9, 0.1)
    assert not _check_q(_mk(False, rt=1), _mk(False, rt=2), 1, 0.1)


# -- toy-graph behaviour ----------------------------------------------------
def _toy_net():
    """Paper Figure 3-like: a hot same-type core plus weakly attached rim."""
    #       0 -100- 1        edges 0-1,1-2,2-3 rt 1 popular (a corridor)
    #  4 -1- 0      2 -100- 3; rim edges rt 2 with popularity 1
    xy = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0], [-1, 0], [4, 0]])
    eu = [0, 1, 2, 4, 3]
    ev = [1, 2, 3, 0, 5]
    dist = np.ones(5)
    rt = np.array([1, 1, 1, 2, 2])
    return RoadNetwork.from_edges(xy, eu, ev, dist, rt)


def test_toy_clustering_corridor_pairs():
    """Faithful Algorithm 1 on the hot corridor: the highest-popularity
    vertex merges with its positive-gain neighbour and *cuts* the edge to
    the negative-gain one (lines 12-13), so the corridor forms rt-1 pair
    clusters and the weakly-attached rim stays out."""
    net = _toy_net()
    pop = np.array([100.0, 100.0, 100.0, 1.0, 1.0])
    regions = bottom_up_clustering(net, pop)
    by_vertex = {int(v): r.rid for r in regions for v in r.vertices}
    assert by_vertex[0] == by_vertex[1]
    assert by_vertex[2] == by_vertex[3]
    for rid in (by_vertex[0], by_vertex[2]):
        assert regions[rid].rt == 1
        assert len(regions[rid].vertices) == 2
    # Rim vertices (rt-2 edges into rt-1 aggregates) are blocked out.
    assert by_vertex[4] not in (by_vertex[0], by_vertex[2])
    assert by_vertex[5] not in (by_vertex[0], by_vertex[2])


def test_toy_rt_constraint_blocks_merge():
    """Identical topology/popularity; only the rim edge's road type differs.
    With a matching road type the rim vertex joins the aggregate, with a
    mismatching one Table I blocks the (positive-gain) merge."""
    xy = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0], [-1, 0], [4, 0]])
    eu, ev = [0, 1, 2, 4, 3], [1, 2, 3, 0, 5]
    pop = np.array([100.0, 100.0, 100.0, 1.0, 1.0])

    def cluster_with_rim_rt(rim_rt):
        rt = np.array([1, 1, 1, rim_rt, 2])
        net = RoadNetwork.from_edges(xy, eu, ev, np.ones(5), rt)
        regions = bottom_up_clustering(net, pop)
        return {int(v): r.rid for r in regions for v in r.vertices}

    blocked = cluster_with_rim_rt(2)  # rt mismatch with the rt-1 aggregate
    allowed = cluster_with_rim_rt(1)  # rt match: ΔQ({0,1},4) is tiny but > 0
    assert blocked[4] != blocked[0]
    assert allowed[4] == allowed[0]


def test_empty_popularity_yields_no_regions():
    net = _toy_net()
    assert bottom_up_clustering(net, np.zeros(5)) == []


# -- full-city invariants ---------------------------------------------------
def test_regions_partition_covered_vertices(city, clustered):
    pop, regions = clustered
    covered = set()
    for e in np.flatnonzero(pop > 0):
        covered.add(int(city.net.eu[e]))
        covered.add(int(city.net.ev[e]))
    seen = []
    for r in regions:
        seen.extend(int(v) for v in r.vertices)
    assert len(seen) == len(set(seen)), "regions overlap"
    assert set(seen) == covered, "regions must cover exactly the trajectory graph"


def test_region_ids_dense(clustered):
    _, regions = clustered
    assert [r.rid for r in regions] == list(range(len(regions)))


def test_multi_vertex_regions_have_rt(clustered):
    _, regions = clustered
    for r in regions:
        if len(r.vertices) > 1:
            assert r.rt is not None and 0 <= r.rt <= 5


def test_aggregate_regions_internally_connected(city, clustered):
    """Each region is connected in the road network (merges follow edges)."""
    from collections import deque

    _, regions = clustered
    for r in regions:
        members = set(map(int, r.vertices))
        start = next(iter(members))
        seen = {start}
        dq = deque([start])
        while dq:
            u = dq.popleft()
            for x in city.net.neighbors(u)[0]:
                x = int(x)
                if x in members and x not in seen:
                    seen.add(x)
                    dq.append(x)
        assert seen == members


def test_clusters_are_moderately_sized(clustered):
    """Modularity stops runaway merging: no region swallows the graph."""
    pop, regions = clustered
    covered = sum(len(r.vertices) for r in regions)
    biggest = max(len(r.vertices) for r in regions)
    assert biggest < 0.5 * covered
    assert len(regions) >= 5


def test_vertex_region_map(city, clustered):
    _, regions = clustered
    vr = vertex_region_map(city.net, regions)
    assert vr.shape == (city.net.n_vertices,)
    for r in regions[:10]:
        assert (vr[r.vertices] == r.rid).all()
    n_covered = sum(len(r.vertices) for r in regions)
    assert (vr >= 0).sum() == n_covered
