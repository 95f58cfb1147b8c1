"""Single-source shortest-path engines.

``dijkstra`` is the classical algorithm used for the Shortest / Fastest
baselines and for the lowest-cost paths in preference learning (Sec. V-A).
``preference_dijkstra`` is the paper's Algorithm 2 (*Applying Preferences
Modified Dijkstra*): the master dimension selects the edge-weight function
and the slave dimension gates edge expansion — if at least one incident
edge satisfies the slave road type, only those edges are explored,
otherwise all are.

The gate depends only on the vertex, so each slave road type defines a
fixed sub-graph (:meth:`repro.roadnet.model.RoadNetwork.gated_csr`), and
both engines run the same search loop: ``dijkstra`` on the network's CSR
arrays, ``preference_dijkstra`` on the gated CSR. The loop terminates
early when the destination is settled and needs nothing but numpy arrays,
so it runs inside Spark workers on a broadcast network with no JVM
round-trips.
"""
from __future__ import annotations

import heapq

import numpy as np

from .model import RoadNetwork


def _reconstruct(parent: dict[int, int], dst: int) -> list[int]:
    path = [dst]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _search(
    indptr: np.ndarray, nbr: np.ndarray, nbr_edge: np.ndarray,
    src: int, dst: int, w: np.ndarray,
) -> tuple[list[int], float] | None:
    """Dijkstra from ``src`` to ``dst`` over CSR arrays; ``None`` if unreached."""
    if src == dst:
        return [src], 0.0
    INF = np.inf
    dist = {src: 0.0}
    parent = {src: -1}
    done = set()
    pq: list[tuple[float, int]] = [(0.0, src)]
    while pq:
        d, u = heapq.heappop(pq)
        if u in done:
            continue
        if u == dst:
            return _reconstruct(parent, dst), d
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


def dijkstra(
    net: RoadNetwork, src: int, dst: int, w: np.ndarray
) -> tuple[list[int], float] | None:
    """Lowest-cost path from ``src`` to ``dst`` under edge weights ``w``.

    Returns ``(vertex path, cost)`` or ``None`` if unreachable.
    """
    return _search(net.indptr, net.nbr, net.nbr_edge, src, dst, w)


def preference_dijkstra(
    net: RoadNetwork,
    src: int,
    dst: int,
    master_w: np.ndarray,
    slave_rt: int | None,
) -> tuple[list[int], float] | None:
    """Paper Algorithm 2: modified Dijkstra honouring a ⟨master, slave⟩
    preference vector.

    ``master_w`` is the per-edge weight array of the master cost feature;
    ``slave_rt`` is a road-type code (or ``None`` for no road-condition
    preference, in which case this reduces to plain Dijkstra).

    Note: as specified in the paper, the slave gate ("if any incident edge
    satisfies V.slave, explore only those") can disconnect the destination
    — e.g. a vertex on a primary corridor only ever expands along the
    corridor, so a search can get trapped on it. Real road networks are
    patchy enough that the paper never discusses this; our synthetic grid
    makes it systematic, so when the gated search exhausts without
    settling the destination we fall back to plain Dijkstra on the master
    weights (the same fallback the paper applies to null preferences).
    """
    if slave_rt is not None:
        res = _search(*net.gated_csr(slave_rt), src, dst, master_w)
        if res is not None:
            return res
    # Through the module-level name, so that wrapping ``dijkstra`` counts
    # the trapped searches.
    return dijkstra(net, src, dst, master_w)


def multi_source_reach(
    net: RoadNetwork, sources: list[int], stop_at: np.ndarray
) -> set[int]:
    """BFS from all ``sources`` that does not expand beyond flagged vertices.

    ``stop_at[v]`` true means: v may be *reached* but its neighbours are not
    explored (the paper's B-edge BFS rule — a search entering another region
    stops there, Sec. IV-B). Returns the set of reached flagged vertices.
    """
    from collections import deque

    reached: set[int] = set()
    seen = set(sources)
    dq = deque(sources)
    while dq:
        u = dq.popleft()
        for x in net.neighbors(u)[0]:
            x = int(x)
            if x in seen:
                continue
            seen.add(x)
            if stop_at[x]:
                reached.add(x)
                continue  # do not expand beyond a foreign region vertex
            dq.append(x)
    return reached
