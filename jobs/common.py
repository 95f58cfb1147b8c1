"""Shared spark-submit plumbing for the table/figure jobs.

Every job reproduces one table of EXPERIMENTS.md on a world of
``repro.world``. The *bench* scale is the default (the "D2-like"
configuration recorded there); ``--scale test`` runs the same job at
unit-test scale for a quick smoke.
"""
from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
os.environ.setdefault("SPARK_DRIVER_MEM", "8g")
import conftest  # noqa: F401  — sets PYSPARK_SUBMIT_ARGS before the JVM launches

from pyspark.sql import SparkSession

from repro.world import build_world  # noqa: F401  (the jobs import it from here)


def get_spark(app: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def scale_from_argv() -> str:
    return "test" if "--scale" in sys.argv and "test" in sys.argv else "bench"
