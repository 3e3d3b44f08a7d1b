"""Tests of the ``repro.runtime`` subsystem and the engine fast path.

Three layers:

* seeding / parallel map / telemetry unit tests;
* the fast-path contract — ``record="costs"`` must produce *identical*
  :class:`CostBreakdown`s to ``record="full"``, asserted property-style
  over random rate-limited instances and all three paper schemes (and
  for the general engine's policies);
* parallel ≡ serial — dispatching sweeps and the adversary search over a
  :class:`ParallelRunner` must be bit-identical to the serial run.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.edf import EDF
from repro.algorithms.greedy import GreedyPendingPolicy
from repro.algorithms.never import AlwaysReconfigurePolicy
from repro.analysis.adversary_search import SearchConfig, search_adversary
from repro.experiments.sweeps import run_matrix
from repro.runtime import (
    ParallelRunner,
    derive_seed,
    read_bench_json,
    spawn_seeds,
    throughput_regressions,
    write_bench_json,
)
from repro.simulation.engine import simulate
from repro.simulation.general import simulate_general
from repro.workloads.random_batched import random_general, random_rate_limited


# --------------------------------------------------------------- seeding


class TestSeeding:
    def test_deterministic(self):
        assert derive_seed(7, "sweep", 3) == derive_seed(7, "sweep", 3)

    def test_key_sensitivity(self):
        seeds = {
            derive_seed(7, "sweep", 3),
            derive_seed(7, "sweep", 4),
            derive_seed(8, "sweep", 3),
            derive_seed(7, "search", 3),
            derive_seed(7),
        }
        assert len(seeds) == 5

    def test_range_fits_numpy_seed(self):
        for seed in (0, 1, 2**31, 123456789):
            derived = derive_seed(seed, "x")
            assert 0 <= derived < 2**63
            np.random.default_rng(derived)  # must not raise

    def test_spawn_seeds(self):
        seeds = spawn_seeds(0, 16, "restarts")
        assert len(seeds) == 16
        assert len(set(seeds)) == 16
        assert seeds == spawn_seeds(0, 16, "restarts")


# ---------------------------------------------------------- parallel map


def _square(x: int) -> int:
    return x * x


def _raise(x: int) -> int:
    raise RuntimeError(f"task {x} failed")


class TestParallelRunner:
    def test_map_preserves_task_order(self):
        runner = ParallelRunner(max_workers=2)
        assert runner.map(_square, list(range(23))) == [
            x * x for x in range(23)
        ]

    def test_serial_path_used_for_tiny_inputs(self):
        runner = ParallelRunner(max_workers=4)
        assert runner.map(_square, [5]) == [25]
        assert runner.map(_square, []) == []

    def test_force_serial(self):
        runner = ParallelRunner(max_workers=4, force_serial=True)
        assert runner.resolved_workers() == 1
        assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_unpicklable_fn_falls_back_to_serial(self):
        runner = ParallelRunner(max_workers=2)
        fn = lambda x: x + 1  # noqa: E731 - deliberately unpicklable
        with pytest.raises(Exception):
            pickle.dumps(fn)
        assert runner.map(fn, [1, 2, 3, 4]) == [2, 3, 4, 5]

    def test_worker_exceptions_propagate(self):
        runner = ParallelRunner(max_workers=2)
        with pytest.raises(RuntimeError, match="task"):
            runner.map(_raise, [1, 2, 3, 4])

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        assert ParallelRunner.from_env().resolved_workers() == 1
        monkeypatch.setenv("REPRO_PARALLEL", "3")
        assert ParallelRunner.from_env().resolved_workers() == 3
        monkeypatch.setenv("REPRO_PARALLEL", "nonsense")
        with pytest.raises(ValueError):
            ParallelRunner.from_env()
        # A negative count used to be clamped to one worker.
        monkeypatch.setenv("REPRO_PARALLEL", "-3")
        with pytest.raises(ValueError, match="REPRO_PARALLEL"):
            ParallelRunner.from_env()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_is_refused(self, workers):
        # resolved_workers used to clamp these to one worker.
        with pytest.raises(ValueError, match="max_workers"):
            ParallelRunner(max_workers=workers)


# ------------------------------------------------------------- telemetry


class TestTelemetry:
    def test_round_trip(self, tmp_path):
        rows = [{"record": "full", "rounds_per_second": 123.0}]
        path = tmp_path / "BENCH_engine.json"
        write_bench_json(path, rows, summary={"min_rounds_per_second": 123})
        payload = read_bench_json(path)
        assert payload["schema"] == "repro-bench-engine/v3"
        assert payload["rows"] == rows
        assert payload["summary"]["min_rounds_per_second"] == 123
        assert payload["machine"]["cpu_count"] >= 1
        assert "metrics" not in payload

    def test_round_trip_with_metrics_block(self, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("engine.drops").inc(7)
        path = tmp_path / "BENCH_engine.json"
        write_bench_json(path, [], metrics=registry.snapshot())
        payload = read_bench_json(path)
        assert payload["metrics"]["counters"]["engine.drops"] == 7

    def test_throughput_regressions_matches_rows_by_key(self):
        baseline = [
            {
                "resources": 8,
                "colors": 4,
                "horizon": 256,
                "record": "costs",
                "engine": "sparse",
                "rounds_per_second": 1000.0,
            },
            {"kind": "adversary_cache", "score_cache_hit_rate": 0.2},
        ]
        fresh = [dict(baseline[0], rounds_per_second=650.0)]
        regs = throughput_regressions(baseline, fresh, tolerance=0.30)
        assert len(regs) == 1
        assert regs[0]["kind"] == "regression"
        assert regs[0]["ratio"] == pytest.approx(0.65)
        assert regs[0]["key"]["engine"] == "sparse"
        # Within tolerance: no report.
        ok = [dict(baseline[0], rounds_per_second=750.0)]
        assert throughput_regressions(baseline, ok, tolerance=0.30) == []
        # A fresh cell with no baseline row (a grid that grew) surfaces
        # as missing_baseline so it enters the baseline on regeneration.
        unmatched = [dict(baseline[0], horizon=512, rounds_per_second=1.0)]
        grown = throughput_regressions(baseline, unmatched)
        assert [r["kind"] for r in grown] == ["missing_baseline"]
        assert grown[0]["key"]["horizon"] == 512
        # Baseline cells with no fresh counterpart stay ignored.
        assert throughput_regressions(baseline + unmatched, fresh) == [
            regs[0]
        ]
        with pytest.raises(ValueError):
            throughput_regressions(baseline, fresh, tolerance=1.5)

    def test_throughput_regressions_reports_missing_baseline(self):
        # A throughput-shaped baseline row without the measurement must
        # surface as missing_baseline, not silently pass.
        broken = {
            "resources": 8,
            "colors": 4,
            "horizon": 256,
            "record": "costs",
            "engine": "sparse",
        }
        fresh = [dict(broken, rounds_per_second=900.0)]
        regs = throughput_regressions([broken], fresh)
        assert len(regs) == 1
        assert regs[0]["kind"] == "missing_baseline"
        assert regs[0]["key"]["resources"] == 8
        assert regs[0]["fresh_rounds_per_second"] == pytest.approx(900.0)
        # Non-throughput rows (e.g. adversary_cache) never match, so a
        # baseline of only those leaves the fresh cell baseline-less —
        # which must also surface as missing_baseline, not pass.
        other = {"kind": "adversary_cache", "score_cache_hit_rate": 0.2}
        regs = throughput_regressions([other], fresh)
        assert [r["kind"] for r in regs] == ["missing_baseline"]

    def test_throughput_duplicate_cells_are_rejected(self):
        # A baseline file with two rows for the same cell (a bad merge
        # of two regenerations) must raise, not silently guard against
        # whichever copy came last.
        row = {
            "resources": 8,
            "colors": 4,
            "horizon": 256,
            "record": "costs",
            "engine": "sparse",
            "rounds_per_second": 1000.0,
        }
        fresh = [dict(row)]
        with pytest.raises(ValueError, match="duplicate throughput cell"):
            throughput_regressions(
                [row, dict(row, rounds_per_second=5.0)], fresh
            )
        # Duplicates on the fresh side are rejected the same way.
        with pytest.raises(ValueError, match="duplicate throughput cell"):
            throughput_regressions([row], [dict(row), dict(row)])

    def test_missing_baseline_fires_once_per_fresh_cell(self):
        # When a whole dimension grows — e.g. a new engine backend joins
        # the grid — every new cell gets its own missing_baseline entry,
        # not one blanket entry per run (and not zero).
        def cell(engine, horizon, rps):
            return {
                "resources": 8,
                "colors": 4,
                "horizon": horizon,
                "record": "costs",
                "engine": engine,
                "rounds_per_second": rps,
            }

        baseline = [cell("sparse", 256, 1000.0), cell("sparse", 512, 900.0)]
        fresh = baseline + [
            cell("vectorized", 256, 50000.0),
            cell("vectorized", 512, 60000.0),
        ]
        regs = throughput_regressions(baseline, fresh)
        assert [r["kind"] for r in regs] == [
            "missing_baseline",
            "missing_baseline",
        ]
        assert {r["key"]["engine"] for r in regs} == {"vectorized"}
        assert {r["key"]["horizon"] for r in regs} == {256, 512}


# ----------------------------------------------------- fast-path parity


def _cost_fingerprint(result):
    cost = result.cost
    return (
        cost.summary(),
        cost.reconfigs_by_color,
        cost.drops_by_color,
        cost.executions_by_color,
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    num_colors=st.integers(1, 5),
    delta=st.sampled_from([1, 2, 4]),
    scheme=st.sampled_from([DeltaLRU, EDF, DeltaLRUEDF]),
)
def test_costs_record_matches_full_batched(seed, num_colors, delta, scheme):
    instance = random_rate_limited(
        num_colors, delta, 48, seed=seed, load=0.7, bound_choices=(2, 4, 8)
    )
    full = simulate(instance, scheme(), 8)
    fast = simulate(instance, scheme(), 8, record="costs")
    assert _cost_fingerprint(fast) == _cost_fingerprint(full)
    assert fast.schedule is None and fast.trace is None
    assert full.verify().ok


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    policy=st.sampled_from([GreedyPendingPolicy, AlwaysReconfigurePolicy]),
    copies=st.sampled_from([1, 2]),
)
def test_costs_record_matches_full_general(seed, policy, copies):
    instance = random_general(3, 2, 32, seed=seed, rate=0.7)
    full = simulate_general(instance, policy(), 4, copies=copies)
    fast = simulate_general(
        instance, policy(), 4, copies=copies, record="costs"
    )
    assert _cost_fingerprint(fast) == _cost_fingerprint(full)


def test_costs_record_has_no_schedule_to_verify():
    instance = random_rate_limited(3, 2, 32, seed=0)
    result = simulate(instance, DeltaLRUEDF(), 8, record="costs")
    assert result.record == "costs"
    with pytest.raises(RuntimeError, match="record='full'"):
        result.verify()


def test_invalid_record_mode_rejected():
    instance = random_rate_limited(3, 2, 32, seed=0)
    with pytest.raises(ValueError, match="record"):
        simulate(instance, DeltaLRUEDF(), 8, record="trace")


def test_run_result_reports_throughput():
    instance = random_rate_limited(3, 2, 64, seed=0)
    result = simulate(instance, DeltaLRUEDF(), 8)
    assert result.wall_seconds > 0
    assert result.rounds_per_second > 0


# ------------------------------------------------------ parallel ≡ serial


class TestParallelIdentity:
    def test_run_matrix_parallel_matches_serial(self):
        instances = [
            random_rate_limited(4, 2, 48, seed=s, bound_choices=(2, 4))
            for s in range(5)
        ]
        factories = [DeltaLRUEDF, DeltaLRU, EDF]
        serial = run_matrix(instances, factories, 8, record="costs")
        parallel = run_matrix(
            instances,
            factories,
            8,
            record="costs",
            runner=ParallelRunner(max_workers=2),
        )
        assert np.array_equal(serial.total_costs, parallel.total_costs)
        assert np.array_equal(serial.reconfig_costs, parallel.reconfig_costs)
        assert np.array_equal(serial.drop_costs, parallel.drop_costs)

    def test_search_parallel_matches_serial(self):
        config = SearchConfig(
            iterations=30, restarts=3, horizon=24, num_colors=3, seed=5
        )
        serial = search_adversary(DeltaLRU, config)
        parallel = search_adversary(
            DeltaLRU, config, runner=ParallelRunner(max_workers=2)
        )
        assert serial.best_ratio == parallel.best_ratio
        assert serial.trajectory == parallel.trajectory
        assert serial.evaluations == parallel.evaluations
        assert (
            serial.best_instance.sequence.jobs
            == parallel.best_instance.sequence.jobs
        )
