"""Tests for the L2R router's detour guard, its landmark and payload tables
and its work counters.

``ReferenceRouter`` keeps ``_case1`` and ``_edge_road_path`` verbatim as they
were before the tables: every payload priced per query and the guard gated
on the straight-line bound alone. The router must answer exactly as it does.
"""
import pickle

import numpy as np
import pytest

import repro.core.routing as routing
from repro.core.routing import COUNTERS, L2RRouter, _dedupe, landmark_bound, landmark_table
from repro.roadnet.model import RoadNetwork
from repro.roadnet.shortest_path import dijkstra


class ReferenceRouter(L2RRouter):
    """The router with the two methods as they were, verbatim."""

    def _edge_road_path(self, a: int, b: int, cur: int, dest: int) -> list[int] | None:
        """Select region edge (a, b)'s payload path for a traveller now at
        ``cur`` heading for ``dest``.

        Among the stored paths (oriented a→b), estimate each candidate's
        stitched travel time (payload TT plus straight-line connector
        estimates cur→entry and exit→dest), keep candidates within
        ``PAYLOAD_FILTER`` of the cheapest, and of those return the most
        *popular* (the paper's rule: recommend the path with the highest
        popularity). The cost filter removes through-trip payloads that
        would imply large detours for this particular query; popularity
        then selects what local drivers collectively chose."""
        e = self.rg.edge(a, b)
        if e is None or not e.paths:
            return None
        xy = self.net.xy
        vr = self.rg.vertex_region
        w = self._tt
        per_m = self.CONNECTOR_S_PER_M

        def oriented(path: list[int]) -> list[int]:
            if vr[path[0]] == b or vr[path[-1]] == a:
                return path[::-1]
            return list(path)

        cands = []
        # Every stored payload is a contiguous road path (a trajectory
        # sub-path or a Step-3 Dijkstra path), so path_edges cannot raise.
        for path, cnt in e.paths:
            p = oriented(path)
            payload_cost = float(w[self.net.path_edges(p)].sum())
            connector = float(
                np.linalg.norm(xy[p[0]] - xy[cur]) + np.linalg.norm(xy[p[-1]] - xy[dest])
            )
            cands.append((p, cnt, payload_cost + per_m * connector))
        min_cost = min(c for _, _, c in cands)
        ok = [x for x in cands if x[2] <= self.PAYLOAD_FILTER * min_cost]
        return max(ok, key=lambda x: (x[1], -x[2]))[0]

    def _case1(self, s: int, d: int, rs: int, rd: int) -> list[int]:
        if rs == rd:
            return self._same_region(s, d, rs)
        rpath = self._region_path(rs, rd)
        if rpath is None:
            return self._fastest(s, d)
        # Map the region path back to road-network paths and stitch.
        full = [s]
        for a, b in zip(rpath, rpath[1:]):
            seg = self._edge_road_path(a, b, full[-1], d)
            if seg is None:  # B-edge that got no path (null pref + unreachable)
                continue
            full.extend(self._connector(full[-1], seg[0])[1:])
            full.extend(seg[1:] if seg[0] == full[-1] else seg)
        full.extend(self._connector(full[-1], d)[1:])
        full = _dedupe(full)
        # Detour guard: reject stitched routes that cost far more than the
        # fastest path (payloads of long through-trips can loop the city).
        # A straight-line lower bound on the fastest cost gates the exact
        # check, so the common (non-detouring) case never pays a full
        # Dijkstra and L2R keeps its small-graph efficiency edge (Fig. 12).
        try:
            cost = self._tt[self.net.path_edges(full)].sum()
        except ValueError:
            return self._fastest(s, d)
        lb = float(np.linalg.norm(self.net.xy[s] - self.net.xy[d])) / (110.0 / 3.6)
        if cost > self.MAX_DETOUR * lb:
            fastest = self._fastest(s, d)
            fast_cost = self._tt[self.net.path_edges(fastest)].sum()
            if fast_cost > 0 and cost > self.MAX_DETOUR * fast_cost:
                return fastest
        return full


@pytest.fixture(scope="module")
def routed(arts, od_corpus):
    """(router, its answers, the reference's answers) over ``od_corpus``;
    the router is fresh, so its counters count the corpus."""
    net, rg = arts.router.net, arts.router.rg
    router = L2RRouter(net=net, rg=rg)
    ref = ReferenceRouter(net=net, rg=rg)
    return router, [router.route(s, d) for s, d in od_corpus], [ref.route(s, d) for s, d in od_corpus]


def test_answers_equal_reference(routed):
    router, got, want = routed
    assert sum(a != b for a, b in zip(got, want)) == 0


def test_corpus_exercises_the_guard(routed):
    """The landmark bound skips guard searches that the straight-line bound
    would have run, and the guard still runs and rejects routes, so the
    parity above is not vacuous."""
    c = routed[0].counters
    assert c["guard.landmark_skips"] > 0
    assert c["kernel.guard"] > c["guard.rejections"] > 0


def test_case_counts_sum_to_queries(routed, od_corpus):
    c = routed[0].counters
    assert set(c) == set(COUNTERS)
    cases = ("queries.same_vertex", "queries.same_region", "queries.cross_region", "queries.case2")
    assert sum(c[k] for k in cases) == len(od_corpus)
    assert [c[k] for k in cases] == [5, 100, 100, 100]
    assert c["kernel.probe"] == c["queries.case2"]
    assert c["case1.path_edges_fallbacks"] == 0


@pytest.mark.parametrize("peak", [False, True], ids=["offpeak", "peak"])
def test_landmark_bound_below_fastest_cost(arts, peak):
    net = arts.router.net
    w = net.travel_time(peak=peak)
    table = landmark_table(net, w, L2RRouter.LANDMARKS)
    assert table.shape == (net.n_vertices, L2RRouter.LANDMARKS)
    if not peak:  # the router's own table, built under off-peak weights
        assert np.array_equal(table, arts.router._landmarks)
    g = np.random.default_rng(7)
    tight = 0
    for s, d in g.integers(0, net.n_vertices, size=(300, 2)):
        s, d = int(s), int(d)
        path = dijkstra(net, s, d, w)[0]
        cost = w[net.path_edges(path)].sum()
        bound = landmark_bound(table, s, d, L2RRouter.LANDMARK_MARGIN)
        assert bound <= cost
        tight += bound > 0.5 * cost
    assert tight > 150  # the bound is informative, not merely safe


def _two_grids() -> RoadNetwork:
    """Two 3×3 grids of 100 m cells, 1 km apart, with no edge between them."""
    xy, eu, ev = [], [], []
    for ox in (0.0, 1000.0):
        base = len(xy)
        xy += [(ox + 100.0 * i, 100.0 * j) for i in range(3) for j in range(3)]
        for i in range(3):
            for j in range(3):
                v = base + 3 * i + j
                if i < 2:
                    eu.append(v), ev.append(v + 3)
                if j < 2:
                    eu.append(v), ev.append(v + 1)
    xy = np.array(xy)
    dist = np.linalg.norm(xy[eu] - xy[ev], axis=1)
    return RoadNetwork.from_edges(xy, eu, ev, dist, np.arange(len(eu)) % 6)


def test_landmark_table_on_two_components():
    net = _two_grids()
    w = net.travel_time()
    table = landmark_table(net, w, L2RRouter.LANDMARKS)
    assert table.shape == (18, 8)
    assert not np.isnan(table).any()
    # Each component holds a landmark, which reaches it and only it.
    reached = np.isfinite(table)
    assert reached[:9].any(axis=1).all() and reached[9:].any(axis=1).all()
    assert not (reached[:9].any(axis=0) & reached[9:].any(axis=0)).any()
    for s in range(18):
        for d in range(18):
            bound = landmark_bound(table, s, d, L2RRouter.LANDMARK_MARGIN)
            assert np.isfinite(bound)
            res = dijkstra(net, s, d, w)
            if res is not None:
                assert bound <= w[net.path_edges(res[0])].sum()


def test_pickle_keeps_tables(arts, od_corpus, monkeypatch):
    """The evaluation broadcasts the router: unpickling must not rebuild its
    tables, and the copy must answer as the original does."""
    router = arts.router
    blob = pickle.dumps(router)

    def rebuilt(*_):
        raise AssertionError("table rebuilt on unpickling")

    monkeypatch.setattr(routing, "landmark_table", rebuilt)
    monkeypatch.setattr(L2RRouter, "_payload_table", rebuilt)
    copy = pickle.loads(blob)
    assert np.array_equal(copy._landmarks, router._landmarks)
    assert copy._payloads == router._payloads
    assert [copy.route(s, d) for s, d in od_corpus] == [router.route(s, d) for s, d in od_corpus]
