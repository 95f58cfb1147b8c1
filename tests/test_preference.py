"""Tests for Step 1 — routing-preference learning on T-edges (Sec. V-A)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.preference import SLAVES, _by_source, _decide, _source_grids, preference_distribution
from repro.eval.similarity import psim
from repro.roadnet.model import COSTS, RT_CODE, RoadNetwork
from repro.roadnet.shortest_path import dijkstra, preference_dijkstra


@pytest.fixture(scope="module")
def weights(city):
    return {c: city.net.weights(c) for c in COSTS}


def fit_preference(
    net: RoadNetwork, paths: list[list[int]], weights: dict[str, np.ndarray]
) -> tuple[str, int | None, float, list[tuple[str, int | None]]]:
    """Step 1's fit of one path set on the driver: ``_decide`` over its
    ``_source_grids``, as ``learn_t_edge_preferences`` fits a T-edge."""
    grids: dict[int, np.ndarray] = {}
    for src, idx in _by_source(paths).items():
        grids.update(zip(idx, _source_grids(net, src, [paths[i] for i in idx], weights)))
    return _decide([grids[i] for i in range(len(paths))])


# -- reference: the per-T-edge fit with 9 point searches per path ------------
def _best_preference(
    net: RoadNetwork, paths: list[list[int]], weights: dict[str, np.ndarray]
) -> tuple[str, int | None, float, list[tuple[str, int | None]]]:
    """Coordinate-descent preference fit over a path set.

    Returns (master, slave_rt_or_None, mean pSim of the fitted preference,
    per-path individually fitted preferences).
    """
    ods = [(p[0], p[-1]) for p in paths]
    # Master dimension: score each cost feature on all paths.
    sims = np.zeros((len(COSTS), len(paths)))
    for ci, c in enumerate(COSTS):
        for pi, ((s, d), gt) in enumerate(zip(ods, paths)):
            res = dijkstra(net, s, d, weights[c])
            sims[ci, pi] = psim(net, gt, res[0]) if res else 0.0
    master_i = int(np.argmax(sims.sum(axis=1)))
    master = COSTS[master_i]
    base = sims[master_i].copy()
    # Slave dimension: try each road type under the chosen master.
    slave_sims = {}
    for rt in SLAVES:
        row = np.zeros(len(paths))
        for pi, ((s, d), gt) in enumerate(zip(ods, paths)):
            res = preference_dijkstra(net, s, d, weights[master], rt)
            row[pi] = psim(net, gt, res[0]) if res else 0.0
        slave_sims[rt] = row
    best_rt, best_gain = None, 0.0
    for rt, row in slave_sims.items():
        gain = row.sum() - base.sum()
        if gain > best_gain + 1e-12:
            best_rt, best_gain = rt, gain
    score = (slave_sims[best_rt] if best_rt is not None else base).mean()
    # Per-path preferences (Fig. 6(a) statistic: unique preferences per T-edge).
    per_path: list[tuple[str, int | None]] = []
    for pi in range(len(paths)):
        m_i = int(np.argmax(sims[:, pi]))
        m = COSTS[m_i]
        b = sims[m_i, pi]
        s_best, s_val = None, b
        for rt in SLAVES:
            # Reuse the chosen-master rows when applicable; otherwise skip —
            # per-path stats only need the dominant pattern, and recomputing
            # all 3×6 combinations per path would triple the Dijkstra count.
            if m == master and slave_sims[rt][pi] > s_val + 1e-12:
                s_best, s_val = rt, slave_sims[rt][pi]
        per_path.append((m, s_best))
    return master, best_rt, float(score), per_path


def test_step1_equals_reference(city, weights, region_graph, learned):
    """Source-grouped Step 1 gives every T-edge the reference's preference,
    score (float-equal), path count and per-path preferences."""
    rg, prefs = learned
    rows = {k: [] for k in prefs.columns}
    for (a, b), e in sorted(region_graph.edges.items()):
        if e.kind != "T":
            continue
        paths = [p for p, _ in e.paths]
        ref = _best_preference(city.net, paths, weights)
        assert fit_preference(city.net, paths, weights) == ref
        master, slave, score, per_path = ref
        assert rg.edges[(a, b)].pref == (master, slave)
        for k, v in zip(rows, (a, b, master, -1 if slave is None else slave, score, len(paths), len(set(per_path)))):
            rows[k].append(v)
    expected = pd.DataFrame(rows).astype(prefs.dtypes.to_dict())
    got = prefs.sort_values(["ra", "rb"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, expected, check_exact=True)


# -- direct coordinate-descent tests ---------------------------------------
@pytest.mark.parametrize("master", COSTS)
def test_recovers_planted_master(city, weights, master):
    """Paths generated by cost c must be explained best by master c
    (up to ties when two cost types produce identical paths)."""
    g = np.random.default_rng(3)
    paths = []
    while len(paths) < 4:
        s, d = g.integers(0, city.net.n_vertices, 2)
        res = dijkstra(city.net, int(s), int(d), weights[master])
        if res and len(res[0]) > 8:
            paths.append(res[0])
    m, slave, score, per_path = fit_preference(city.net, paths, weights)
    # The learned preference must reproduce the planted paths essentially
    # perfectly (master may differ if another cost yields identical paths).
    assert score > 0.95
    assert len(per_path) == 4


@pytest.mark.parametrize("master", COSTS)
@pytest.mark.parametrize("slave_name", ["motorway", "trunk", "primary"])
def test_learned_pref_reconstructs_planted(city, weights, master, slave_name):
    """Coordinate descent cannot always recover the *labels* of a planted
    ⟨master, slave⟩ (several preferences generate identical paths on a
    clean grid — the paper's identifiability comes from messy real road
    networks), but the learned preference must *reconstruct* the planted
    paths at least as well as every master-only alternative."""
    slave = RT_CODE[slave_name]
    g = np.random.default_rng(4)
    paths = []
    tries = 0
    while len(paths) < 4 and tries < 1000:
        tries += 1
        s, d = g.integers(0, city.net.n_vertices, 2)
        res = preference_dijkstra(city.net, int(s), int(d), weights[master], slave)
        plain = dijkstra(city.net, int(s), int(d), weights[master])
        if res and plain and res[0] != plain[0] and len(res[0]) > 8:
            paths.append(res[0])
    assert len(paths) == 4
    m, learned_slave, score, _ = fit_preference(city.net, paths, weights)
    master_only = max(
        np.mean([psim(city.net, p, dijkstra(city.net, p[0], p[-1], weights[c])[0]) for p in paths])
        for c in COSTS
    )
    assert score >= master_only - 1e-9
    assert score > 0.4


def _identifiable_toy():
    """Two corridors s→d: corridor B (secondary) wins on *every* master
    cost; corridor A (primary) is only explicable by a primary slave."""
    from repro.roadnet.model import RoadNetwork

    xy = np.array(
        [[0.0, 0], [100, 40], [200, 40], [300, 0], [120, -60], [240, -60]]
    )
    eu = [0, 1, 2, 0, 4, 5]
    ev = [1, 2, 3, 4, 5, 3]
    dist = np.array([100.0, 100.0, 100.0, 120.0, 120.0, 120.0])
    rt = np.array([3, 3, 3, 2, 2, 2])  # B: secondary, A: primary
    return RoadNetwork.from_edges(xy, eu, ev, dist, rt)


def test_exact_slave_recovery_when_identifiable():
    net = _identifiable_toy()
    weights = {c: net.weights(c) for c in COSTS}
    # All three masters route via the secondary corridor…
    for c in COSTS:
        assert dijkstra(net, 0, 3, weights[c])[0] == [0, 1, 2, 3]
    # …so a path on the primary corridor is only explained by slave=primary.
    planted = preference_dijkstra(net, 0, 3, weights["DI"], RT_CODE["primary"])[0]
    assert planted == [0, 4, 5, 3]
    m, slave, score, _ = fit_preference(net, [planted], weights)
    assert slave == RT_CODE["primary"]
    assert score == pytest.approx(1.0)


def test_best_preference_no_slave_for_plain_paths(city, weights):
    """Shortest paths need no road-condition feature: slave stays None
    unless it strictly improves similarity."""
    g = np.random.default_rng(5)
    paths = []
    while len(paths) < 3:
        s, d = g.integers(0, city.net.n_vertices, 2)
        res = dijkstra(city.net, int(s), int(d), weights["DI"])
        if res and len(res[0]) > 6:
            paths.append(res[0])
    m, slave, score, _ = fit_preference(city.net, paths, weights)
    assert score > 0.95


# -- Spark fan-out over the region graph ------------------------------------
@pytest.fixture(scope="module")
def built(trajs, learned):
    return trajs, *learned


def test_every_t_edge_gets_preference(built):
    _, rg, prefs = built
    n_t = sum(1 for e in rg.edges.values() if e.kind == "T")
    assert len(prefs) == n_t
    for e in rg.edges.values():
        if e.kind == "T":
            assert e.pref is not None
            master, slave = e.pref
            assert master in COSTS
            assert slave is None or 0 <= slave <= 5


def test_preference_scores_reasonable(built):
    """Trajectories were generated *by* preferences, so learned preferences
    should reconstruct T-edge paths well on average."""
    _, _, prefs = built
    assert prefs.score.mean() > 0.75


def test_preference_distribution_table(built):
    _, _, prefs = built
    dist = preference_distribution(prefs)
    uniq = dist[dist.kind == "unique_prefs_per_t_edge"]
    master = dist[dist.kind == "master_distribution"]
    assert uniq.n_t_edges.sum() == len(prefs)
    assert master.n_t_edges.sum() == len(prefs)
    # Fig. 6(a): the bulk of T-edges carries a single preference.
    single = uniq[uniq.key == "1"].pct.sum()
    assert single >= 50.0
