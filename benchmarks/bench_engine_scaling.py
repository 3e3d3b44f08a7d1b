"""EXP-S bench plus micro-benchmarks of the hot paths.

The experiment-level bench regenerates the throughput table — both
record modes and all engine cores, dispatched through the session
:class:`ParallelRunner` — into ``benchmarks/reports/EXP-S.txt`` and
asserts its speedup floors on the full grid.  The smoke runs the quick
grid end to end; its exact costs and rounds executed are pinned in
``tests/test_golden.py``, and wall-clock regressions are the
performance ledger's to catch (``benchmarks/ledger``).  The micro
benches time the individual hot paths (engine round loop full and fast,
Par-EDF, exact offline search, capacity lower bound) under
pytest-benchmark's statistical clock so regressions show up in
``--benchmark-compare``.
"""

import pytest

from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.par_edf import run_par_edf
from repro.offline.lower_bounds import capacity_lower_bound
from repro.offline.optimal import optimal_offline
from repro.simulation.engine import simulate
from repro.workloads.random_batched import random_rate_limited


def bench_scaling_table(run_and_report, parallel_runner):
    report = run_and_report("EXP-S", runner=parallel_runner)
    assert report.summary["min_rounds_per_second"] > 100
    assert report.summary["fast_path_speedup_geomean"] > 1.0
    assert report.summary["sparse_core_speedup_geomean"] > 1.0
    # The general engine's sparse core must pay for itself decisively on
    # its sparse-friendly cells (the ISSUE-4 acceptance floor).
    assert report.summary["general_sparse_speedup_geomean"] >= 2.0
    # The vectorized core must clear 10x over the dense core on the dense
    # EXP-S cells (the ISSUE-6 acceptance floor).
    assert report.summary["vectorized_speedup_geomean"] >= 10.0


def bench_scaling_smoke(parallel_runner):
    """Tiny grid for CI: EXP-S end to end in a few seconds, no clock stats."""
    from repro.experiments.registry import run_experiment

    report = run_experiment("EXP-S", quick=True, runner=parallel_runner)
    assert report.summary["min_rounds_per_second"] > 100
    assert report.summary["sparse_core_speedup_geomean"] > 1.0
    assert report.summary["general_sparse_speedup_geomean"] > 1.0
    records = {row["record"] for row in report.rows}
    assert records == {"full", "costs"}
    engines = {row["engine"] for row in report.rows}
    assert engines == {
        "dense",
        "sparse",
        "vectorized",
        "general-dense",
        "general-sparse",
    }


@pytest.fixture(scope="module")
def medium_instance():
    return random_rate_limited(
        8, 4, 512, seed=0, load=0.6, bound_choices=(2, 4, 8, 16)
    )


def bench_engine_round_loop(benchmark, medium_instance):
    result = benchmark(lambda: simulate(medium_instance, DeltaLRUEDF(), 16))
    assert result.verify().ok


def bench_engine_fast_path(benchmark, medium_instance):
    result = benchmark(
        lambda: simulate(medium_instance, DeltaLRUEDF(), 16, record="costs")
    )
    full = simulate(medium_instance, DeltaLRUEDF(), 16)
    assert result.cost.summary() == full.cost.summary()


def bench_engine_vectorized(benchmark, medium_instance):
    result = benchmark(
        lambda: simulate(
            medium_instance,
            DeltaLRUEDF(),
            16,
            record="costs",
            engine="vectorized",
        )
    )
    reference = simulate(medium_instance, DeltaLRUEDF(), 16, record="costs")
    assert result.cost.summary() == reference.cost.summary()


def bench_par_edf(benchmark, medium_instance):
    result = benchmark(lambda: run_par_edf(medium_instance, 4))
    assert result.num_executions > 0


def bench_capacity_lower_bound(benchmark, medium_instance):
    value = benchmark(lambda: capacity_lower_bound(medium_instance, 2))
    assert value >= 0


def bench_exact_offline_search(benchmark):
    instance = random_rate_limited(
        3, 2, 16, seed=0, load=0.7, bound_choices=(2, 4)
    )
    result = benchmark.pedantic(
        lambda: optimal_offline(instance, 2, max_states=600_000),
        rounds=3,
        iterations=1,
    )
    assert result.cost >= 0
