"""Road-network model: the weighted graph G = (V, E, W) of Section III.

The paper's road network carries four weight functions — distance (DI),
travel time (TT), fuel consumption (FC) and road type (RT). We store an
undirected graph as flat numpy arrays plus a CSR adjacency so that
single-source searches run fast in plain Python workers, and the whole
structure pickles cheaply for ``SparkContext.broadcast``.

Road types follow the six OpenStreetMap classes the paper uses
(Sec. VII-A): motorway, trunk, primary, secondary, tertiary, residential.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Road-type vocabulary (index == code used throughout the repo).
ROAD_TYPES = ["motorway", "trunk", "primary", "secondary", "tertiary", "residential"]
RT_CODE = {name: i for i, name in enumerate(ROAD_TYPES)}

# Free-flow speed per road type (km/h) — drives TT and FC.
SPEED_KMH = np.array([110.0, 90.0, 70.0, 60.0, 50.0, 30.0])

# Peak-hour congestion factor per road type: arterials congest most.
PEAK_FACTOR = np.array([1.10, 1.20, 1.50, 1.50, 1.30, 1.10])

# Fuel model (EcoMark substitution, see DESIGN.md §3): litres per km is a
# quadratic in deviation from an optimal cruise speed, so FC-optimal routing
# prefers mid-speed arterials over both motorways and residential streets.
_FC_BASE = 0.05
_FC_QUAD = 2.0e-5
_FC_V_OPT = 65.0

COSTS = ["DI", "TT", "FC"]  # master-dimension travel-cost features


def fuel_per_km(speed_kmh: np.ndarray) -> np.ndarray:
    """Litres of fuel per km at a given cruise speed."""
    return _FC_BASE + _FC_QUAD * (speed_kmh - _FC_V_OPT) ** 2


@dataclass
class RoadNetwork:
    """Undirected road network with CSR adjacency.

    Attributes
    ----------
    xy : (n, 2) float64 — planar vertex coordinates in metres.
    eu, ev : (m,) int32 — endpoints of each undirected edge (stored once).
    dist : (m,) float64 — edge length in metres (DI weight).
    rt : (m,) int8 — road-type code, index into ``ROAD_TYPES``.
    indptr, nbr, nbr_edge : CSR adjacency; ``nbr[indptr[v]:indptr[v+1]]``
        are v's neighbours and ``nbr_edge`` the corresponding edge ids.
    """

    xy: np.ndarray
    eu: np.ndarray
    ev: np.ndarray
    dist: np.ndarray
    rt: np.ndarray
    indptr: np.ndarray
    nbr: np.ndarray
    nbr_edge: np.ndarray

    def __post_init__(self):
        self._gated: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._edge_at: dict[tuple[int, int], int] | None = None

    # -- construction -----------------------------------------------------
    @classmethod
    def from_edges(
        cls, xy: np.ndarray, eu: np.ndarray, ev: np.ndarray, dist: np.ndarray, rt: np.ndarray
    ) -> "RoadNetwork":
        n = len(xy)
        eu = np.asarray(eu, dtype=np.int32)
        ev = np.asarray(ev, dtype=np.int32)
        heads = np.concatenate([eu, ev])
        tails = np.concatenate([ev, eu])
        eid = np.concatenate([np.arange(len(eu)), np.arange(len(eu))]).astype(np.int32)
        order = np.argsort(heads, kind="stable")
        heads, tails, eid = heads[order], tails[order], eid[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, heads + 1, 1)
        indptr = np.cumsum(indptr)
        return cls(
            xy=np.asarray(xy, dtype=np.float64),
            eu=eu,
            ev=ev,
            dist=np.asarray(dist, dtype=np.float64),
            rt=np.asarray(rt, dtype=np.int8),
            indptr=indptr,
            nbr=tails.astype(np.int32),
            nbr_edge=eid,
        )

    # -- sizes ------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return len(self.xy)

    @property
    def n_edges(self) -> int:
        return len(self.eu)

    # -- weight functions W ----------------------------------------------
    def speed(self) -> np.ndarray:
        """Free-flow speed (km/h) per edge."""
        return SPEED_KMH[self.rt]

    def travel_time(self, peak: bool = False) -> np.ndarray:
        """TT weight: seconds per edge; peak hours congest arterials."""
        tt = self.dist / (self.speed() / 3.6)
        return tt * PEAK_FACTOR[self.rt] if peak else tt

    def fuel(self) -> np.ndarray:
        """FC weight: litres per edge (quadratic speed model)."""
        return (self.dist / 1000.0) * fuel_per_km(self.speed())

    def weights(self, cost: str, peak: bool = False) -> np.ndarray:
        """Per-edge weight array for a master cost feature DI/TT/FC."""
        if cost == "DI":
            return self.dist
        if cost == "TT":
            return self.travel_time(peak)
        if cost == "FC":
            return self.fuel()
        raise ValueError(f"unknown cost feature {cost!r}")

    # -- neighbourhood ----------------------------------------------------
    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbour vertices, incident edge ids) of vertex v."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.nbr[lo:hi], self.nbr_edge[lo:hi]

    def gated_csr(self, rt: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, nbr, nbr_edge) of Alg. 2's gated graph for slave road type rt.

        At each vertex it keeps the slots whose edge has road type ``rt`` if
        there are any, and otherwise all of the vertex's slots, in CSR order.
        The gate depends only on the vertex, not on the search, so the gated
        graph is built once per road type and cached on the instance.
        """
        if rt not in self._gated:
            owner = np.repeat(np.arange(self.n_vertices), np.diff(self.indptr))
            sat = self.rt[self.nbr_edge] == rt
            keep = sat | ~np.bincount(owner[sat], minlength=self.n_vertices).astype(bool)[owner]
            indptr = np.zeros(self.n_vertices + 1, dtype=np.int64)
            indptr[1:] = np.cumsum(np.bincount(owner[keep], minlength=self.n_vertices))
            self._gated[rt] = (indptr, self.nbr[keep], self.nbr_edge[keep])
        return self._gated[rt]

    def path_edges(self, path: list[int]) -> np.ndarray:
        """Edge ids traversed by a vertex path (adjacent-pair lookup).

        Each pair (a, b) maps to the edge in the first of a's CSR slots that
        leads to b. The map is built on the first call and cached on the
        instance; a non-adjacent pair raises ``ValueError``.
        """
        if self._edge_at is None:
            owner = np.repeat(np.arange(self.n_vertices), np.diff(self.indptr)).tolist()
            slots = list(zip(zip(owner, self.nbr.tolist()), self.nbr_edge.tolist()))
            self._edge_at = dict(reversed(slots))  # the first slot is written last
        out = []
        for a, b in zip(path, path[1:]):
            e = self._edge_at.get((a, b))
            if e is None:
                raise ValueError(f"no edge between {a} and {b}")
            out.append(e)
        return np.asarray(out, dtype=np.int64)

    def path_length(self, path: list[int]) -> float:
        """Total length (metres) of a vertex path."""
        if len(path) < 2:
            return 0.0
        return float(self.dist[self.path_edges(path)].sum())
