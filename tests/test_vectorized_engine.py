"""Vectorized backend: optional-dependency gating, selection, obs parity.

Bit-identity of the ``CostBreakdown`` against the other cores lives in
``test_sparse_engine.py`` / ``test_fixed_point_contract.py``; this file
covers everything around the backend:

* the ``repro[vec]`` optional-dependency contract — a clear
  ``RuntimeError`` without numpy, clean skips for the rest of the suite;
* ``simulate(engine=...)`` selection and validation;
* obs-stream identity: with instrumentation attached the backend rides
  the faithful sparse core, so its record stream must be byte-identical
  (modulo volatile keys) — property-tested on small EXP-S-style cells;
* ``reconfig_observer`` support on the columnar fast path (the
  ``record="costs"`` reduction pipelines stream outer costs through it);
* stable-tail cells and round-accounting sanity.

This module (and the gating tests in it) must import and collect with
no numpy installed — the random workload generators need numpy, so they
are imported inside the numpy-marked tests only; the gating tests build
instances by hand.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.core.instance import BatchMode, make_instance
from repro.core.job import JobFactory
from repro.obs import MemorySink, MetricsRegistry, Tracer, diff_traces
from repro.simulation.engine import ENGINE_NAMES, BatchedEngine, simulate
from repro.simulation.vectorized import VectorizedEngine, numpy_available

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed (repro[vec] extra)"
)


def _cost_fingerprint(result):
    cost = result.cost
    return (
        cost.summary(),
        cost.reconfigs_by_color,
        cost.drops_by_color,
        cost.executions_by_color,
    )


def _tiny_instance():
    """A handful of jobs built without the numpy-backed generators."""
    factory = JobFactory()
    jobs = factory.batch(0, 0, 4, 2) + factory.batch(4, 1, 4, 2)
    return make_instance(
        jobs, {0: 4, 1: 4}, 2, batch_mode=BatchMode.BATCHED, horizon=16
    )


class TestOptionalDependency:
    def test_missing_numpy_raises_clear_error(self, monkeypatch):
        # Simulate an environment without the repro[vec] extra: a None
        # entry in sys.modules makes ``import numpy`` raise ImportError.
        instance = _tiny_instance()
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert not numpy_available()
        with pytest.raises(RuntimeError, match=r"repro\[vec\]"):
            VectorizedEngine(instance, DeltaLRUEDF(), 4)
        with pytest.raises(RuntimeError, match=r"repro\[vec\]"):
            simulate(instance, DeltaLRUEDF(), 4, engine="vectorized")

    @requires_numpy
    def test_numpy_available_reports_presence(self):
        assert numpy_available()

    def test_importing_the_module_needs_no_numpy(self, monkeypatch):
        # The module itself must import cleanly without numpy so that
        # ``numpy_available()`` gating works in a bare environment.
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.delitem(sys.modules, "repro.simulation.vectorized")
        import repro.simulation.vectorized  # noqa: F401

    def test_other_engines_run_without_numpy(self, monkeypatch):
        # "Rest of package unaffected": the dense and sparse backends of
        # the batched engine never touch numpy.
        instance = _tiny_instance()
        monkeypatch.setitem(sys.modules, "numpy", None)
        dense = simulate(instance, DeltaLRUEDF(), 4, record="costs", engine="dense")
        sparse = simulate(
            instance, DeltaLRUEDF(), 4, record="costs", engine="sparse"
        )
        assert dense.cost.summary() == sparse.cost.summary()


class TestEngineSelection:
    def test_engine_names_include_vectorized(self):
        assert set(ENGINE_NAMES) == {"sparse", "dense", "vectorized"}

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            simulate(_tiny_instance(), DeltaLRUEDF(), 4, engine="warp")
        # BatchedEngine runs the driver's two modes; vectorized is its
        # own class.
        with pytest.raises(ValueError, match="VectorizedEngine"):
            BatchedEngine(_tiny_instance(), DeltaLRUEDF(), 4, engine="vectorized")

    @requires_numpy
    def test_engine_name_is_surfaced(self):
        engine = VectorizedEngine(
            _tiny_instance(), DeltaLRUEDF(), 4, record="costs"
        )
        assert engine.engine_name == "vectorized"


@requires_numpy
class TestObsStreamIdentity:
    """Instrumented runs must be indistinguishable from the sparse core."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_record_stream_identical_modulo_volatile(self, seed):
        # Attaching a tracer routes the backend through the faithful
        # fallback; the resulting stream must be byte-identical to the
        # sparse core's, modulo the volatile keys (wall_seconds).  The
        # small dense cell mirrors an EXP-S grid point.
        from repro.workloads.random_batched import random_rate_limited

        instance = random_rate_limited(
            4, 4, 128, seed=seed, load=0.8, bound_choices=(2, 4, 8)
        )

        def run(engine):
            sink = MemorySink(capacity=None)
            simulate(
                instance, DeltaLRUEDF(), 4, record="costs",
                engine=engine, tracer=Tracer(sink),
            )
            # The run span's ``engine=`` label is the one intentional
            # difference (it identifies the backend); mask it so the
            # diff checks everything else.
            for record in sink.records:
                record.data.pop("engine", None)
            return sink.records

        diff = diff_traces(run("sparse"), run("vectorized"))
        assert diff.identical

    def test_filtered_event_stream_matches_dense(self):
        # Against the dense core only the sparse-core markers
        # (fast_forward, cache_hit) and round scaffolding may differ —
        # the same contract the sparse core is held to, so PR-5 monitors
        # attach unchanged.
        from repro.workloads.random_batched import random_rate_limited

        instance = random_rate_limited(
            4, 4, 128, seed=11, load=0.8, bound_choices=(2, 4, 8)
        )

        def run(engine):
            sink = MemorySink(capacity=None)
            registry = MetricsRegistry()
            simulate(
                instance, DeltaLRUEDF(), 4, record="costs",
                engine=engine, tracer=Tracer(sink), registry=registry,
            )
            events = [
                (r.name, r.round_index, tuple(sorted(r.data.items())))
                for r in sink.records
                if r.kind == "event"
                and r.name not in ("phase", "fast_forward", "cache_hit")
            ]
            return events, registry.snapshot()["counters"]

        dense_events, dense_counters = run("dense")
        vec_events, vec_counters = run("vectorized")
        assert dense_events == vec_events
        for name in ("engine.drops", "engine.reconfigs", "engine.executions"):
            assert dense_counters.get(name, 0) == vec_counters.get(name, 0)


@requires_numpy
class TestReconfigObserverParity:
    def test_distribute_costs_mode_matches_across_engines(self):
        # The reduction's costs mode streams outer reconfiguration costs
        # through reconfig_observer — supported on the columnar fast
        # path, in event order.
        from repro.reductions.distribute import run_distribute
        from repro.workloads.random_batched import random_batched

        for seed in (0, 1, 2):
            instance = random_batched(
                6, 4, 96, seed=seed, load=0.5, bound_choices=(2, 4, 8)
            )
            baseline = run_distribute(instance, 8, record="costs")
            vectorized = run_distribute(
                instance, 8, record="costs", engine="vectorized"
            )
            assert _cost_fingerprint(baseline) == _cost_fingerprint(vectorized)
            full = run_distribute(instance, 8)
            assert _cost_fingerprint(full) == _cost_fingerprint(vectorized)


@requires_numpy
class TestStableTail:
    def test_dense_cell_reaches_the_columnar_tail(self):
        # Capacity covers every color, so eventually every color is
        # cached and the closed-form tail settles the rest.  Costs must
        # still be bit-identical to the dense core.
        from repro.workloads.random_batched import random_rate_limited

        instance = random_rate_limited(
            8, 4, 4096, seed=2, load=0.9, bound_choices=(2, 4, 8)
        )
        dense = simulate(instance, DeltaLRUEDF(), 8, record="costs")
        vectorized = simulate(
            instance, DeltaLRUEDF(), 8, record="costs", engine="vectorized"
        )
        assert _cost_fingerprint(dense) == _cost_fingerprint(vectorized)
        # The event-driven loop visits boundary rounds only, so the
        # round accounting must reflect genuine skipping.
        assert vectorized.rounds_executed is not None
        assert 0 < vectorized.rounds_executed < instance.horizon
        assert 0.0 < vectorized.active_round_fraction < 1.0

    def test_empty_instance(self):
        instance = make_instance(
            [], {0: 4, 1: 8}, 2, batch_mode=BatchMode.BATCHED, horizon=64
        )
        result = simulate(
            instance, DeltaLRUEDF(), 4, record="costs", engine="vectorized"
        )
        assert result.cost.total == 0

    @pytest.mark.parametrize("speed", [1, 2])
    def test_single_color_saturated(self, speed):
        # One color, every boundary saturated: entry-pending carryover
        # and final-batch leftovers exercise the tail edge cases.
        factory = JobFactory()
        jobs = []
        for arrival in range(0, 64, 2):
            jobs += factory.batch(arrival, 0, 2, 4)
        instance = make_instance(
            jobs, {0: 2}, 2, batch_mode=BatchMode.BATCHED, horizon=66
        )
        dense = simulate(
            instance, DeltaLRU(), 1, copies=1, speed=speed, record="costs"
        )
        vectorized = simulate(
            instance, DeltaLRU(), 1, copies=1, speed=speed, record="costs",
            engine="vectorized",
        )
        assert _cost_fingerprint(dense) == _cost_fingerprint(vectorized)
        # Speed 1 genuinely saturates (drops accrue); speed 2 drains
        # every window exactly — both tail regimes covered.
        assert dense.cost.num_drops == (64 if speed == 1 else 0)
