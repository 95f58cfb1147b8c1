"""The synthetic worlds the jobs and benchmarks run on.

A world is a city plus a train/test split of its trajectories, fixed by the
scale and the seeds below. The *bench* scale is the "D2-like" configuration
recorded in EXPERIMENTS.md; the *test* scale is the unit-test size. Building
a world needs no Spark session.
"""
from __future__ import annotations

from .roadnet.generator import City, make_city
from .traj.generator import Trajectory, generate_trajectories, split_train_test

SCALES = {
    "test": dict(grid_n=20, cell_m=250.0, zone_cells=5, n=400, n_drivers=30),
    "bench": dict(grid_n=32, cell_m=300.0, zone_cells=6, n=1800, n_drivers=60),
}
SEED_CITY, SEED_TRAJ, SEED_SPLIT = 7, 11, 13
LOCAL_COST_SIGMA = 0.15
DEMAND_ALPHA = 1.0
TEST_FRAC = 0.2


def build_world(scale: str = "bench") -> tuple[City, list[Trajectory], list[Trajectory]]:
    """Deterministic city + train/test trajectory split for a scale."""
    cfg = SCALES[scale]
    city = make_city(
        grid_n=cfg["grid_n"], cell_m=cfg["cell_m"], zone_cells=cfg["zone_cells"],
        seed=SEED_CITY, local_cost_sigma=LOCAL_COST_SIGMA,
    )
    trajs = generate_trajectories(
        city, n=cfg["n"], n_drivers=cfg["n_drivers"], seed=SEED_TRAJ, alpha=DEMAND_ALPHA
    )
    train, test = split_train_test(trajs, test_frac=TEST_FRAC, seed=SEED_SPLIT)
    return city, train, test
