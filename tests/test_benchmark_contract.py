"""The names and call forms the benchmark (``perfbench/``) uses from the
program, so a change to the program cannot break the benchmark unseen.

``perfbench/run.py`` is imported only to read its ``STAGES`` table; the
calls are read from the benchmark's source with ``ast`` and bound against
the program's signatures.
"""
import ast
import copy
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import repro.core.pipeline as pipeline
import repro.core.routing as routing
import repro.core.transfer as transfer
import repro.roadnet.shortest_path as shortest_path
from repro.core.routing import COUNTERS, L2RRouter
from repro.roadnet.generator import make_city
from repro.traj.generator import generate_trajectories, split_train_test, trajectories_df

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CALLED = {
    "make_city": make_city,
    "generate_trajectories": generate_trajectories,
    "split_train_test": split_train_test,
    "build_l2r": pipeline.build_l2r,
    "transfer_cv_experiment": transfer.transfer_cv_experiment,
}


@pytest.fixture(scope="module")
def run_module():
    """``perfbench/run.py`` loaded as a module. ``sys.path`` and bytecode
    writing are restored afterwards, and the benchmark's own modules are
    dropped from ``sys.modules``."""
    path = list(sys.path)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        for name, m in list(sys.modules.items()):  # checks, world, spans
            if str(getattr(m, "__file__", "")).startswith(str(PERFBENCH)):
                del sys.modules[name]
        sys.dont_write_bytecode = dont_write
    return module


def test_stages_are_bound_in_pipeline(run_module):
    assert run_module.STAGES
    for attr, _ in run_module.STAGES:
        assert callable(getattr(pipeline, attr)), attr


@pytest.mark.parametrize(
    "module,attr",
    [
        (transfer, "run_transfer"),
        (transfer, "region_edge_features"),
        (transfer, "pairwise_similarity"),
        (routing, "dijkstra"),
        (shortest_path, "dijkstra"),
        (shortest_path, "preference_dijkstra"),
    ],
)
def test_wrapped_and_called_names_exist(module, attr):
    assert callable(getattr(module, attr))


def _calls(name: str):
    """(positional count, keyword names) of every call to ``name`` in the
    benchmark's run, world and reference scripts."""
    out = []
    for script in ("run.py", "world.py", "record_reference.py"):
        for node in ast.walk(ast.parse((PERFBENCH / script).read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) != name:
                continue
            assert not any(isinstance(a, ast.Starred) for a in node.args), (script, name)
            assert all(k.arg is not None for k in node.keywords), (script, name)
            out.append((len(node.args), tuple(k.arg for k in node.keywords)))
    return out


@pytest.mark.parametrize("name", sorted(CALLED))
def test_benchmark_calls_bind(name):
    calls = _calls(name)
    assert calls, f"the benchmark no longer calls {name}"
    sig = inspect.signature(CALLED[name])
    for n_args, kwargs in calls:
        sig.bind(*[None] * n_args, **dict.fromkeys(kwargs))


def test_both_transfer_cv_forms_are_called():
    """The whole Fig. 9 table and the amr-only sweep."""
    assert {(2, ()), (2, ("amr_values", "partitions_sweep"))} <= set(_calls("transfer_cv_experiment"))


def test_router_kernel_counter_matches_traced_calls(run_module, arts, od_corpus):
    """The traced run counts ``routing.*.kernel_calls`` by wrapping
    ``routing.dijkstra`` with its ``Tracer``. Wrapped the same way, the router
    must make exactly the kernel calls its own counter reports, and building
    it must make none: its tables are built on construction, so their cost
    falls in ``build_s`` and not in a query span or the warm-up pass."""
    tracer = run_module.Tracer()
    tracer.wrap(routing, "dijkstra", "kernel")
    try:
        router = L2RRouter(net=arts.router.net, rg=arts.router.rg)
        assert not tracer.named("kernel")
        assert {"_landmarks", "_payloads"} <= set(vars(router))
        for s, d in od_corpus:
            router.route(s, d)
    finally:
        tracer.unwrap()
    kernel = sum(router.counters[k] for k in COUNTERS if k.startswith("kernel."))
    assert kernel == len(tracer.named("kernel")) > 0


def test_every_spark_layer_runs_a_stage(run_module, spark, city, trajs, clustered, learned):
    """The traced run takes ``min`` over each Spark layer's stage task counts,
    so each of its ``SPARK_LAYERS`` must launch at least one Spark stage when
    its stage function runs under that layer's job group, as it does there."""
    net = city.net
    calls = {
        "edge_popularity_array": lambda f: f(trajectories_df(spark, trajs), net, spark),
        "build_region_graph": lambda f: f(spark, net, clustered[1], trajectories_df(spark, trajs)),
        "learn_t_edge_preferences": lambda f: f(spark, net, copy.deepcopy(learned[0])),
        "apply_preferences": lambda f: f(spark, net, copy.deepcopy(learned[0])),
    }
    layers = {layer: attr for attr, layer in run_module.STAGES}
    sc = spark.sparkContext
    for layer in run_module.SPARK_LAYERS:
        sc.setJobGroup(layer, layer)
        try:
            calls[layers[layer]](getattr(pipeline, layers[layer]))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert run_module.stage_tasks(sc, layer), layer
