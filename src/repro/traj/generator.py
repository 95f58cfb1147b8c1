"""Synthetic trajectory generator (substitute for the GPS fleets D1/D2).

The paper's premise is that local drivers' path choices encode *routing
preferences* that are consistent per region pair and transferable between
similar region pairs. We therefore generate trajectories whose paths are
produced by a **latent preference table** keyed on the functionality of the
origin/destination zones (and trip length): the same signal L2R mines.

Sparsity is reproduced by sampling origin-destination *zone pairs* from a
zipf distribution — a few zone pairs receive many trajectories (future
T-edges), most receive none (future B-edges) — matching the paper's
motivation that any real trajectory set leaves most (s, d) pairs uncovered.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..roadnet.generator import City
from ..roadnet.shortest_path import preference_dijkstra
from ..roadnet.model import RT_CODE

# Latent routing preference per (origin functionality, destination
# functionality). Master ∈ {DI, TT, FC}; slave is a road-type name or None.
# Symmetric on purpose: similar zone pairs share preferences, which is the
# property preference transfer exploits (Sec. V-B intuition).
PREF_TABLE: dict[tuple[str, str], tuple[str, str | None]] = {
    ("residential", "center"): ("TT", "trunk"),
    ("center", "residential"): ("TT", "trunk"),
    ("residential", "business"): ("TT", "primary"),
    ("business", "residential"): ("TT", "primary"),
    ("residential", "residential"): ("DI", None),
    ("business", "business"): ("DI", "secondary"),
    ("center", "business"): ("FC", "secondary"),
    ("business", "center"): ("FC", "secondary"),
    ("center", "center"): ("DI", None),
    ("industrial", "industrial"): ("FC", "primary"),
}
_INDUSTRIAL_DEFAULT = ("FC", "primary")
# Trips longer (euclidean) than this fraction of the city diagonal switch to
# the motorway preference — the paper's D1 observation that long trips use
# highways even when not shortest.
LONG_TRIP_FRAC = 0.55
LONG_TRIP_PREF = ("TT", "motorway")
# Share of trips departing in the peak hours (7–9 h and 16–18 h).
PEAK_SHARE = 0.4


def latent_preference(city: City, s: int, d: int) -> tuple[str, str | None]:
    """The ground-truth ⟨master, slave⟩ preference for a trip s→d."""
    span = city.grid_n * city.cell_m * np.sqrt(2.0)
    if np.linalg.norm(city.net.xy[s] - city.net.xy[d]) > LONG_TRIP_FRAC * span:
        return LONG_TRIP_PREF
    fs = city.zone_func[city.zone_of[s]]
    fd = city.zone_func[city.zone_of[d]]
    if (fs, fd) in PREF_TABLE:
        return PREF_TABLE[(fs, fd)]
    if "industrial" in (fs, fd):
        return _INDUSTRIAL_DEFAULT
    return ("TT", None)


@dataclass
class Trajectory:
    """A trajectory: the road-network path plus metadata (the stand-in for a
    map-matched GPS trace)."""

    traj_id: int
    driver: int
    path: list[int]
    dep_hour: int
    peak: bool
    dist_m: float
    master: str  # latent ground-truth preference (for diagnostics only)
    slave: str | None


def _zone_pair_weights(
    city: City, g: np.random.Generator, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Zipf × gravity weights over the ordered zone pairs (z_s != z_d).

    The zipf rank term concentrates demand on a few popular pairs (the
    sparsity driver); the gravity term exp(−distance/d₀) makes short trips
    dominate, matching the paper's Table II distance distributions (73 % of
    Chengdu trips are ≤ 5 km) and keeping T-edge path sets dominated by
    trips *between* the connected regions rather than through-traffic."""
    n_zones = len(city.zone_func)
    pairs = np.array([(a, b) for a in range(n_zones) for b in range(n_zones) if a != b])
    ranks = g.permutation(len(pairs)) + 1
    w = 1.0 / ranks**alpha
    d0 = 0.25 * city.grid_n * city.cell_m
    dz = np.linalg.norm(
        city.zone_centroid[pairs[:, 0]] - city.zone_centroid[pairs[:, 1]], axis=1
    )
    w = w * np.exp(-dz / d0)
    return pairs, w / w.sum()


def generate_trajectories(
    city: City,
    n: int = 400,
    n_drivers: int = 40,
    seed: int = 11,
    alpha: float = 1.25,
) -> list[Trajectory]:
    """Generate ``n`` trajectories by routing with the latent preferences.

    Each trajectory picks a zone pair (zipf-skewed), a random vertex in each
    zone, a driver and a departure hour, then follows the path produced by
    the preference-modified Dijkstra under the latent preference (peak
    travel times during peak hours).
    """
    g = np.random.default_rng(seed)
    net = city.net
    pairs, w = _zone_pair_weights(city, g, alpha)
    # Drivers optimise their *perceived* costs: the model weights times the
    # hidden local factors (City.local_cost_factor). Routing algorithms
    # only ever see the clean model weights.
    lf = city.local_cost_factor
    tt_off = net.travel_time(peak=False) * lf
    tt_peak = net.travel_time(peak=True) * lf
    weights_by_master = {
        ("TT", False): tt_off, ("TT", True): tt_peak,
        ("DI", False): net.dist * lf, ("DI", True): net.dist * lf,
        ("FC", False): net.fuel() * lf, ("FC", True): net.fuel() * lf,
    }
    zone_vertices = [np.flatnonzero(city.zone_of == z) for z in range(len(city.zone_func))]
    out: list[Trajectory] = []
    attempts = 0
    while len(out) < n and attempts < 20 * n:
        attempts += 1
        zs, zd = pairs[g.choice(len(pairs), p=w)]
        s = int(g.choice(zone_vertices[zs]))
        d = int(g.choice(zone_vertices[zd]))
        if s == d:
            continue
        peak = bool(g.random() < PEAK_SHARE)
        hour = int(g.choice([7, 8, 16, 17])) if peak else int(g.choice([10, 11, 13, 14, 20]))
        master, slave = latent_preference(city, s, d)
        res = preference_dijkstra(
            net, s, d, weights_by_master[(master, peak)],
            None if slave is None else RT_CODE[slave],
        )
        if res is None:
            continue
        path, _ = res
        out.append(
            Trajectory(
                traj_id=len(out),
                driver=int(g.integers(n_drivers)),
                path=path,
                dep_hour=hour,
                peak=peak,
                dist_m=net.path_length(path),
                master=master,
                slave=slave,
            )
        )
    return out


def split_train_test(trajs: list[Trajectory], test_frac: float = 0.2, seed: int = 13) -> tuple[list[Trajectory], list[Trajectory]]:
    """Chronology-free random split standing in for the paper's by-period
    split (first 18 months / last 6 months): our generator is stationary, so
    a random split is the faithful equivalent."""
    g = np.random.default_rng(seed)
    idx = g.permutation(len(trajs))
    n_test = int(len(trajs) * test_frac)
    test = {int(i) for i in idx[:n_test]}
    return [t for t in trajs if t.traj_id not in test], [t for t in trajs if t.traj_id in test]


def trajectories_df(spark: SparkSession, trajs: list[Trajectory]) -> DataFrame:
    """Spark DataFrame view: one row per trajectory with its vertex path."""
    pdf = pd.DataFrame(
        {
            "traj_id": [t.traj_id for t in trajs],
            "driver": [t.driver for t in trajs],
            "dep_hour": [t.dep_hour for t in trajs],
            "peak": [t.peak for t in trajs],
            "dist_m": [t.dist_m for t in trajs],
            "path": [[int(v) for v in t.path] for t in trajs],
        }
    )
    schema = "traj_id long, driver long, dep_hour long, peak boolean, dist_m double, path array<long>"
    return spark.createDataFrame(pdf, schema=schema)
