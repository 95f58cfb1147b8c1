import os
import sys

import pytest

from repro.spark import get_session


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session.

    Master, driver memory and the shared configs come from
    ``repro.spark``. Broadcast joins are disabled here, for the tests only,
    so the joins exercise the shuffle path at SF~=0.1; a test that wants a
    broadcast join sets the threshold back for that query.
    """
    s = get_session("repro")
    s.conf.set("spark.sql.autoBroadcastJoinThreshold", -1)
    # One line in test_output.txt that tells whether the cgroup derivation
    # saw the real limit.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
