"""Spark start-up (the JVM launch settings and the one session factory) and
the one per-row fan-out every Spark stage of the pipeline goes through.

``spark.driver.memory`` and the master are read when the JVM launches, not
from a ``SparkConf``, so ``get_session`` puts them into
``PYSPARK_SUBMIT_ARGS`` before it builds the first session (pyspark reads
that variable when it launches the JVM).

Environment (each optional): ``SPARK_DRIVER_MEM`` (driver heap),
``SPARK_MASTER`` (default ``local[*]``), ``SPARK_SHUFFLE_PARTITIONS``
(default 64) and ``PYSPARK_SUBMIT_ARGS`` itself, which replaces the derived
launch arguments.
"""
from __future__ import annotations

import os
from typing import Any, Callable, Iterable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback.

    The cgroup read is best-effort: the sandbox runs under gVisor, whose
    sysfs emulation may not pass the host limit through. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


def get_session(app: str) -> SparkSession:
    """The local SparkSession (created on the first call, then reused) with
    the configs every caller shares: shuffle partitions, Arrow transfers,
    no console progress bar, and ERROR-level logs."""
    os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        f"--conf spark.driver.host=127.0.0.1 "
        f"--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def fan_out(
    spark: SparkSession,
    work: pd.DataFrame | DataFrame,
    fn: Callable[[Any, Any], Iterable[tuple]],
    schema: str,
    shared: Any,
) -> DataFrame:
    """Run ``fn(row, shared)`` on every row of ``work`` in Spark workers.

    ``work`` is a pandas frame (made into a Spark DataFrame here) or a Spark
    DataFrame; ``row`` is one of its rows as a namedtuple. ``shared`` is
    broadcast once. Each call yields output tuples in the order of the
    fields of ``schema`` (a DDL string). The work is spread over
    ``max(2, defaultParallelism)`` partitions, so every core gets a slice.
    An empty pandas ``work`` gives an empty DataFrame of ``schema``.
    """
    empty = spark.createDataFrame([], schema)
    if isinstance(work, pd.DataFrame):
        if work.empty:
            return empty
        work = spark.createDataFrame(work)
    names = empty.columns
    bc = spark.sparkContext.broadcast(shared)

    def gen(batches):
        value = bc.value
        for pdf in batches:
            rows = [out for row in pdf.itertuples(index=False) for out in fn(row, value)]
            yield pd.DataFrame(rows, columns=names)

    return work.repartition(max(2, spark.sparkContext.defaultParallelism)).mapInPandas(
        gen, schema=empty.schema
    )
