"""Shared spark-submit plumbing for the table/figure jobs.

Every job reproduces one table of EXPERIMENTS.md on a world of
``repro.world``, in a session from ``repro.spark.get_session``. The *bench*
scale is the default (the "D2-like" configuration recorded there);
``--scale test`` runs the same job at unit-test scale for a quick smoke.
"""
from __future__ import annotations

import os
import sys

from repro.spark import get_session  # noqa: F401  (the jobs import both from here)
from repro.world import build_world  # noqa: F401

os.environ.setdefault("SPARK_DRIVER_MEM", "8g")  # the jobs' driver heap


def scale_from_argv() -> str:
    return "test" if "--scale" in sys.argv and "test" in sys.argv else "bench"
