"""Bench target for Fig. 9 — the preference-transfer CV experiment
(similarity pass + transduction solve per sweep setting)."""
from repro.core.transfer import transfer_cv_experiment


def test_fig9_transfer_cv(benchmark, spark, bench_arts):
    rg = bench_arts.router.rg

    tbl = benchmark.pedantic(
        lambda: transfer_cv_experiment(spark, rg, amr_values=(0.5, 0.7, 0.9)),
        rounds=1, iterations=1,
    )
    assert ((tbl.accuracy >= 0) & (tbl.accuracy <= 1)).all()
