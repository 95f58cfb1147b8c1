"""The benchmark's world, its Spark session and its OD streams.

The world has the shape of the repository's unit-test scale: a 20x20 grid
of 250 m cells, 5-cell zones, 400 trajectories from 30 drivers, and an
80/20 train/test split. At the default world seeds it has 400 vertices,
85 regions and 928 region edges. The larger bench scale builds in minutes,
which is too slow for the number of runs a comparison needs.

Nothing here runs at import time: the Spark session starts only when
``start_spark`` is called.
"""
from __future__ import annotations

import os
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORLD_SEEDS = (7, 11, 13)  # city, trajectories, train/test split
GRID_N, CELL_M, ZONE_CELLS = 20, 250.0, 5
N_TRAJ, N_DRIVERS = 400, 30
LOCAL_COST_SIGMA, DEMAND_ALPHA, TEST_FRAC = 0.15, 1.0, 0.2

# A few-second build on a tiny world that runs every Spark and Python code
# path of the pipeline once, so the timed build measures warm code (a cold
# JVM roughly triples the popularity and region-graph stages).
WARMUP = dict(grid_n=8, cell_m=250.0, zone_cells=4, n=60, n_drivers=5)

CATEGORIES = ("same_region", "cross_region", "outside")
POOL_SEED = 2018  # fixed: the reference answers are recorded per pool OD
POOL_SIZE = 500
STREAM_SEEDED = 1320  # seeded ODs per stream, on top of the test-split ODs


def prepare_environment() -> None:
    """Point Python, the Spark workers and every scratch file at the checkout.

    Must run before pyspark launches its JVM: the driver memory, the local
    directories and the temp directory are read at launch.
    """
    local = OUT / "spark-local"
    local.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(local)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # -XX:-UsePerfData: a JVM would otherwise write /tmp/hsperfdata_<user>.
    # spark-submit starts a short launcher JVM before the driver JVM.
    java_opts = f"-Djava.io.tmpdir={local} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[*] --driver-memory 2g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.local.dir={shlex.quote(str(local))} "
        f"--driver-java-options {shlex.quote(java_opts)} "
        "pyspark-shell"
    )


def start_spark():
    """The session the repository's jobs use (``jobs/common.py``)."""
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.warehouse.dir", str(OUT / "spark-warehouse"))
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None


@dataclass
class World:
    city: object
    train: list
    test: list


def make_world(seeds: tuple[int, int, int], **shape) -> World:
    from repro.roadnet.generator import make_city
    from repro.traj.generator import generate_trajectories, split_train_test

    cfg = dict(grid_n=GRID_N, cell_m=CELL_M, zone_cells=ZONE_CELLS, n=N_TRAJ, n_drivers=N_DRIVERS)
    cfg.update(shape)
    city = make_city(
        grid_n=cfg["grid_n"], cell_m=cfg["cell_m"], zone_cells=cfg["zone_cells"],
        seed=seeds[0], local_cost_sigma=LOCAL_COST_SIGMA,
    )
    trajs = generate_trajectories(
        city, n=cfg["n"], n_drivers=cfg["n_drivers"], seed=seeds[1], alpha=DEMAND_ALPHA
    )
    train, test = split_train_test(trajs, test_frac=TEST_FRAC, seed=seeds[2])
    return World(city=city, train=train, test=test)


# --------------------------------------------------------------------------
# OD streams
# --------------------------------------------------------------------------
def category(vr: np.ndarray, s: int, d: int) -> str:
    """Which router case an OD exercises: both endpoints in one region, in
    two regions, or at least one endpoint outside every region (Case 2)."""
    if vr[s] < 0 or vr[d] < 0:
        return "outside"
    return "same_region" if vr[s] == vr[d] else "cross_region"


def od_pools(vr: np.ndarray) -> dict[str, list[tuple[int, int]]]:
    """``POOL_SIZE`` distinct-endpoint ODs per category, fixed by ``POOL_SEED``.

    Streams draw from these pools, so every answer a stream can ask for has
    a recorded reference.
    """
    g = np.random.default_rng(POOL_SEED)
    n = len(vr)
    pools: dict[str, list[tuple[int, int]]] = {c: [] for c in CATEGORIES}
    covered = np.flatnonzero(vr >= 0)
    while any(len(p) < POOL_SIZE for p in pools.values()):
        if len(pools["same_region"]) < POOL_SIZE:
            # Same-region pairs are rare among uniform pairs: draw s from the
            # covered vertices and d from s's region.
            s = int(g.choice(covered))
            d = int(g.choice(np.flatnonzero(vr == vr[s])))
        else:
            s, d = (int(x) for x in g.integers(0, n, size=2))
        if s == d:
            continue
        pool = pools[category(vr, s, d)]
        if len(pool) < POOL_SIZE:
            pool.append((s, d))
    return pools


def traffic_shares(trajs: list, vr: np.ndarray) -> dict[str, float]:
    """The category shares of the trajectories' own ODs (first to last
    vertex): the mix of trips the drivers actually made."""
    cats = [category(vr, int(t.path[0]), int(t.path[-1])) for t in trajs]
    return {c: cats.count(c) / len(cats) for c in CATEGORIES}


@dataclass(frozen=True)
class Query:
    s: int
    d: int
    peak: bool
    source: str  # "test" or a pool category
    index: int  # position in the test split or in the pool


def make_stream(
    world: World, vr: np.ndarray, shares: dict[str, float], seed: int
) -> list[Query]:
    """The test-split ODs plus ``STREAM_SEEDED`` pool ODs in the workload's
    category shares, drawn and shuffled by ``seed``.

    A category's ODs are drawn without replacement, pool after pool, so a
    stream holds each pool OD as often as its share allows and streams of
    different seeds differ in order far more than in content.
    """
    pools = od_pools(vr)
    g = np.random.default_rng(seed)
    qs = [
        Query(int(t.path[0]), int(t.path[-1]), bool(t.peak), "test", i)
        for i, t in enumerate(world.test)
    ]
    for cat in CATEGORIES:
        n = round(shares[cat] * STREAM_SEEDED)
        rounds = [g.permutation(POOL_SIZE) for _ in range(n // POOL_SIZE + 1)]
        for i in np.concatenate(rounds)[:n]:
            s, d = pools[cat][int(i)]
            qs.append(Query(s, d, False, cat, int(i)))
    return [qs[int(i)] for i in g.permutation(len(qs))]
