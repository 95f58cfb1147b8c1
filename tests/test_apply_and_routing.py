"""Tests for Step 3 (applying preferences) and the unified L2R routing."""
import numpy as np
import pytest

from repro.core.routing import _dedupe
from repro.eval.similarity import psim
from repro.roadnet.shortest_path import dijkstra
from repro.traj.generator import generate_trajectories, split_train_test


def test_pipeline_timings_recorded(arts):
    assert set(arts.timings_s) == {"region_graph", "step1_learn", "step2_transfer", "step3_apply"}
    assert all(v >= 0 for v in arts.timings_s.values())


def test_b_edges_have_paths_after_step3(city, arts):
    rg = arts.router.rg
    b_edges = [e for e in rg.edges.values() if e.kind == "B"]
    assert b_edges
    with_paths = [e for e in b_edges if e.paths]
    # Step 3 must attach paths to the (overwhelming) majority of B-edges.
    assert len(with_paths) >= 0.8 * len(b_edges)
    for e in with_paths[:20]:
        for path, _ in e.paths[:2]:
            city.net.path_edges(path)  # contiguity


def test_b_edge_paths_touch_both_regions(arts):
    rg = arts.router.rg
    for (a, b), e in list(rg.edges.items())[:60]:
        if e.kind != "B" or not e.paths:
            continue
        path = e.paths[0][0]
        assert rg.vertex_region[path[0]] in (a, b)
        assert rg.vertex_region[path[-1]] in (a, b)


def test_every_payload_is_a_road_path(city, arts):
    """The router prices every stored payload with ``path_edges`` and no
    ``ValueError`` guard: T-edge and Step-3 B-edge payloads, either way round.
    Its payload table holds each edge's payloads in both orientations, in
    stored order, each with the TT cost summed over the oriented path, bit
    for bit."""
    router = arts.router
    rg, vr, w = router.rg, router.rg.vertex_region, router._tt
    priced = {"T": 0, "B": 0}
    for e in rg.edges.values():
        for path, _ in e.paths:
            for p in (path, path[::-1]):
                assert len(city.net.path_edges(p)) == len(p) - 1
                priced[e.kind] += 1
        for a, b in ((e.ra, e.rb), (e.rb, e.ra)):
            rows = router._payloads.get((a, b))
            if not e.paths:
                assert rows is None
                continue
            assert [cnt for _, cnt, _ in rows] == [cnt for _, cnt in e.paths]
            for (p, _, cost), (path, _) in zip(rows, e.paths):
                flip = vr[path[0]] == b or vr[path[-1]] == a
                assert p == (path[::-1] if flip else path)
                assert cost == float(w[city.net.path_edges(p)].sum())
    assert priced["T"] > 0 and priced["B"] > 0
    assert len(router._payloads) == 2 * sum(1 for e in rg.edges.values() if e.paths)


def test_dedupe():
    assert _dedupe([1, 1, 2, 2, 3, 3, 3]) == [1, 2, 3]
    assert _dedupe([5]) == [5]


@pytest.mark.parametrize("seed", range(10))
def test_route_is_valid_path(city, arts, seed):
    """L2R must return a contiguous path from s to d for arbitrary pairs."""
    g = np.random.default_rng(seed)
    s, d = map(int, g.integers(0, city.net.n_vertices, 2))
    path = arts.router.route(s, d)
    assert path[0] == s
    if s != d:
        assert path[-1] == d
        city.net.path_edges(path)  # raises if not contiguous


def test_route_same_vertex(arts):
    assert arts.router.route(42, 42) == [42]


def test_route_same_region_uses_inner_paths(city, arts):
    """For s,d inside one region covered by an inner path, L2R must return
    that trajectory path (the paper's Case 1 lookup)."""
    rg = arts.router.rg
    found = False
    for rid, paths in rg.inner_paths.items():
        for path, cnt in paths:
            if len(path) >= 3:
                s, d = path[0], path[-1]
                if rg.vertex_region[s] == rid and rg.vertex_region[d] == rid:
                    got = arts.router.route(s, d)
                    assert got[0] == s and got[-1] == d
                    found = True
                    break
        if found:
            break
    assert found, "no usable inner path in fixture"


def test_route_out_region_falls_back_to_fastest(city, arts):
    """Both endpoints uncovered and no region between: fastest path."""
    vr = arts.router.rg.vertex_region
    uncovered = np.flatnonzero(vr < 0)
    if len(uncovered) < 2:
        pytest.skip("city fully covered")
    # Adjacent uncovered vertices: the probe fastest path hits ≤1 region.
    for v in uncovered:
        nbrs, _ = city.net.neighbors(int(v))
        unc = [int(x) for x in nbrs if vr[x] < 0]
        if unc:
            s, d = int(v), unc[0]
            fastest = dijkstra(city.net, s, d, city.net.travel_time())[0]
            assert arts.router.route(s, d) == fastest
            return
    pytest.skip("no adjacent uncovered pair")


def test_region_path_greedy_reaches_destination(arts):
    """The greedy region search must find a region path between any two
    regions of the (connected) region graph."""
    rg = arts.router.rg
    n = rg.n_regions
    g = np.random.default_rng(0)
    for _ in range(15):
        rs, rd = map(int, g.integers(0, n, 2))
        rp = arts.router._region_path(rs, rd)
        assert rp is not None
        assert rp[0] == rs and rp[-1] == rd
        for a, b in zip(rp, rp[1:]):
            assert rg.edge(a, b) is not None


def test_l2r_beats_fastest_on_training_pairs(city, arts, spark):
    """Sanity: on ODs drawn from *training* trajectories (memorized paths),
    L2R should reconstruct the driver path better than Fastest."""
    from repro.baselines.costcentric import FastestRouter

    trajs = generate_trajectories(city, n=200, n_drivers=20, seed=11)
    train, _ = split_train_test(trajs, test_frac=0.2, seed=13)
    fastest = FastestRouter(city.net)
    sims_l2r, sims_fast = [], []
    for t in train[:40]:
        s, d = t.path[0], t.path[-1]
        sims_l2r.append(psim(city.net, t.path, arts.router.route(s, d)))
        sims_fast.append(psim(city.net, t.path, fastest.route(s, d, peak=t.peak)))
    assert np.mean(sims_l2r) > np.mean(sims_fast) - 0.02


@pytest.mark.parametrize("n_train", [0, 1])
def test_build_on_empty_or_tiny_trajectory_set(spark, city, od_corpus, n_train):
    """With no trajectories there are no regions, so every answer is the
    fastest path; with one there are a few, and every answer is still a
    contiguous s→d road path."""
    from repro.baselines.costcentric import FastestRouter
    from repro.core.pipeline import build_l2r

    train = generate_trajectories(city, n=5, n_drivers=2, seed=11)[:n_train]
    router = build_l2r(spark, city, train).router
    assert (router.rg.n_regions > 0) == (n_train > 0)
    fastest = FastestRouter(city.net)
    for s, d in od_corpus:
        path = router.route(s, d)
        assert path[0] == s and path[-1] == d
        city.net.path_edges(path)
        if n_train == 0:
            assert path == fastest.route(s, d)
