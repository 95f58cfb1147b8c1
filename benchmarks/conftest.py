"""Shared bench-scale fixtures.

Benchmarks share one world (city + trajectories) and one built L2R
pipeline so each bench target times only its own stage. The world is
``repro.world``'s ``bench`` scale, the one the jobs run (the numbers
recorded in EXPERIMENTS.md).
"""
import pytest

from repro.core.pipeline import build_l2r
from repro.world import build_world


@pytest.fixture(scope="session")
def bench_world():
    return build_world("bench")


@pytest.fixture(scope="session")
def bench_city(bench_world):
    return bench_world[0]


@pytest.fixture(scope="session")
def bench_trajs(bench_world):
    return bench_world[1:]


@pytest.fixture(scope="session")
def bench_arts(spark, bench_city, bench_trajs):
    train, _ = bench_trajs
    return build_l2r(spark, bench_city, train)
