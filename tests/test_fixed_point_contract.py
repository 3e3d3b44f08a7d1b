"""Fixed-point token contract: parity, soundness, and lifecycle tests.

The sparse cores may skip an inactive stretch only when the scheme's
``fixed_point_token()`` proves the skipped rounds are identity maps —
immediately for :data:`STATIONARY_TOKEN`, via the one-round probe
protocol for any other token, never for ``None``.  Everything here pins
that contract:

* randomized and credit schemes (probe tokens) stay bit-identical to the
  dense core across speeds and record modes, on workloads where the
  sparse core genuinely skips;
* the filtered obs event streams of the two cores are identical;
* a scheme without a token is never skipped, and a hostile scheme that
  mutates the cache behind a constant token is never skipped either
  (the cache epoch defeats it);
* ``reset()`` makes back-to-back runs of one scheme instance
  bit-identical (the RNG-lifecycle regression);
* fast-forward targets are clamped at the horizon and never jump a
  final drop round, in both engine cores;
* drain stretches a stationary scheme provably sits out are settled in
  closed form without moving a cost counter or a registry instrument,
  under every attachment and segmentation that allows them.
"""

import importlib.util
from functools import partial
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.algorithms.greedy import GreedyPendingPolicy
from repro.algorithms.never import AlwaysReconfigurePolicy, NeverReconfigurePolicy
from repro.algorithms.randomized import RandomEvict, RandomizedMarking
from repro.algorithms.static import StaticPartitionPolicy
from repro.analysis.credits import CreditScheme
from repro.core.events import DropEvent
from repro.core.instance import BatchMode, make_instance
from repro.core.job import JobFactory
from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.edf import EDF
from repro.algorithms.seq_edf import SeqEDF
from repro.obs import MemorySink, MetricsRegistry, PhaseProfiler, Tracer
from repro.offline.heuristic import LookaheadPolicy
from repro.simulation.engine import (
    STATIONARY_TOKEN,
    ReconfigurationScheme,
    simulate,
)
from repro.simulation.general import simulate_general
from repro.simulation.vectorized import numpy_available
from repro.streaming import InstanceSource, StreamSession
from repro.workloads.random_batched import (
    random_batched,
    random_general,
    random_rate_limited,
)

TOKEN_SCHEMES = [
    pytest.param(RandomEvict, id="random-evict"),
    pytest.param(RandomizedMarking, id="randomized-marking"),
    pytest.param(CreditScheme, id="credit-edf"),
]

GENERAL_POLICIES = [
    pytest.param(GreedyPendingPolicy, id="greedy"),
    pytest.param(StaticPartitionPolicy, id="static"),
    pytest.param(AlwaysReconfigurePolicy, id="always"),
    pytest.param(NeverReconfigurePolicy, id="never"),
    pytest.param(partial(LookaheadPolicy, 16), id="lookahead"),
]


def _assert_costs_identical(a, b):
    """Bit-identical CostBreakdown, per-color attributions included."""
    assert a.summary() == b.summary()
    assert a.reconfigs_by_color == b.reconfigs_by_color
    assert a.drops_by_color == b.drops_by_color
    assert a.executions_by_color == b.executions_by_color


def _quiet_tail_instance(horizon=1024):
    """A burst per color, then long empty stretches — the skip regime."""
    factory = JobFactory()
    bounds = {0: 4, 1: 8, 2: 4, 3: 16}
    jobs = []
    for color, bound in bounds.items():
        jobs += factory.batch(0, color, bound, 6)
        jobs += factory.batch(bound * 2, color, bound, 3)
    return make_instance(
        jobs, bounds, 4, batch_mode=BatchMode.BATCHED, horizon=horizon
    )


def _batched_workloads(seed):
    yield random_rate_limited(
        6, 3, 96, seed=seed, load=0.7, bound_choices=(2, 4, 8)
    )
    yield random_rate_limited(
        8, 4, 192, seed=seed + 50, load=0.2, bound_choices=(8, 16, 32)
    )
    yield _quiet_tail_instance()


class TestTokenSchemeParity:
    """Randomized & credit schemes: sparse == dense, bit for bit."""

    @pytest.mark.parametrize("scheme_cls", TOKEN_SCHEMES)
    @pytest.mark.parametrize("speed", [1, 2])
    @pytest.mark.parametrize("record", ["costs", "full"])
    def test_sparse_matches_dense(self, scheme_cls, speed, record):
        for seed in (0, 1):
            for instance in _batched_workloads(seed):
                dense = simulate(
                    instance, scheme_cls(), 8, speed=speed,
                    record=record, engine="dense",
                )
                sparse = simulate(
                    instance, scheme_cls(), 8, speed=speed,
                    record=record, engine="sparse",
                )
                _assert_costs_identical(dense.cost, sparse.cost)
                if record == "full":
                    assert list(dense.trace) == list(sparse.trace)

    @pytest.mark.parametrize("scheme_cls", TOKEN_SCHEMES)
    def test_probe_protocol_actually_skips(self, scheme_cls):
        # The quiet-tail workload must be skipped through, not merely
        # survived: a probe token that never matches would silently
        # degrade the sparse core to dense speed.
        sparse = simulate(
            _quiet_tail_instance(), scheme_cls(), 8,
            record="costs", engine="sparse",
        )
        assert sparse.rounds_executed is not None
        assert sparse.active_round_fraction < 0.8

    @pytest.mark.parametrize("scheme_cls", TOKEN_SCHEMES)
    def test_obs_event_streams_match(self, scheme_cls):
        # The cost-relevant event stream (drops, arrivals, reconfigs,
        # executions, ...) must be identical; only the sparse-core
        # markers (fast_forward, cache_hit) and per-round scaffolding
        # (phase markers, round spans) may differ.
        def run(engine):
            sink = MemorySink()
            registry = MetricsRegistry()
            simulate(
                _quiet_tail_instance(), scheme_cls(), 8,
                record="costs", engine=engine,
                tracer=Tracer(sink), registry=registry,
            )
            events = [
                (r.name, r.round_index, tuple(sorted(r.data.items())))
                for r in sink.records
                if r.kind == "event"
                and r.name not in ("phase", "fast_forward", "cache_hit")
            ]
            return events, registry.snapshot()["counters"]

        dense_events, dense_counters = run("dense")
        sparse_events, sparse_counters = run("sparse")
        assert dense_events == sparse_events
        for name in ("engine.drops", "engine.reconfigs", "engine.executions"):
            assert dense_counters.get(name, 0) == sparse_counters.get(name, 0)
        assert dense_counters.get("engine.rounds_fast_forwarded", 0) == 0
        assert sparse_counters["engine.rounds_fast_forwarded"] > 0
        assert (
            sparse_counters["engine.rounds_executed"]
            + sparse_counters["engine.rounds_fast_forwarded"]
            == dense_counters["engine.rounds_executed"]
        )


@pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed (repro[vec] extra)"
)
class TestVectorizedBackendContract:
    """The vectorized backend under the same scheme contract.

    Kernel schemes (the four paper schemes) take the columnar fast path;
    token schemes (randomized, credit) fall back to the faithful sparse
    core inside the same backend — both must stay bit-identical to the
    dense core, and the fallback must keep honoring the
    ``fixed_point_token()``/``reset(seed)`` lifecycle.
    """

    @pytest.mark.parametrize("scheme_cls", TOKEN_SCHEMES)
    @pytest.mark.parametrize("speed", [1, 2])
    @pytest.mark.parametrize("record", ["costs", "full"])
    def test_token_schemes_match_dense(self, scheme_cls, speed, record):
        for instance in _batched_workloads(0):
            dense = simulate(
                instance, scheme_cls(), 8, speed=speed,
                record=record, engine="dense",
            )
            vectorized = simulate(
                instance, scheme_cls(), 8, speed=speed,
                record=record, engine="vectorized",
            )
            _assert_costs_identical(dense.cost, vectorized.cost)
            if record == "full":
                assert list(dense.trace) == list(vectorized.trace)

    def test_fallback_still_skips_quiet_tails(self):
        # A token scheme through the vectorized backend rides the sparse
        # fallback, calendar fast-forward included.
        from repro.algorithms.randomized import RandomEvict

        result = simulate(
            _quiet_tail_instance(), RandomEvict(), 8,
            record="costs", engine="vectorized",
        )
        assert result.rounds_executed is not None
        assert result.active_round_fraction < 0.8

    def test_back_to_back_runs_are_bit_identical(self):
        # reset() at engine construction applies to the vectorized
        # backend exactly as to the others.
        from repro.algorithms.randomized import RandomEvict

        instance = random_rate_limited(
            6, 3, 96, seed=5, load=0.7, bound_choices=(2, 4, 8)
        )
        scheme = RandomEvict()
        first = simulate(instance, scheme, 8, record="costs", engine="vectorized")
        second = simulate(instance, scheme, 8, record="costs", engine="vectorized")
        _assert_costs_identical(first.cost, second.cost)


class _TokenlessScheme(ReconfigurationScheme):
    """Opts out of skipping entirely: ``fixed_point_token() -> None``."""

    name = "tokenless"

    def fixed_point_token(self):
        return None

    def reconfigure(self, engine):
        return None


class _HostileScheme(ReconfigurationScheme):
    """Mutates the cache every call behind a constant token.

    A constant token alone must never authorize a skip: the cache epoch
    in the probe tuple changes every round, so the probe never proves a
    fixed point and the engine must execute every round.
    """

    name = "hostile"

    def fixed_point_token(self):
        return "constant"

    def reconfigure(self, engine):
        if 0 in engine.cache:
            engine.cache_evict(0)
        else:
            engine.cache_insert(0)


class TestSkipSoundness:
    def test_tokenless_scheme_never_skipped(self):
        # Default contract sanity first.
        assert _TokenlessScheme().fixed_point_token() is None
        assert RandomEvict().fixed_point_token() is not STATIONARY_TOKEN
        result = simulate(
            _quiet_tail_instance(), _TokenlessScheme(), 8,
            record="costs", engine="sparse",
        )
        assert result.active_round_fraction == 1.0

    def test_hostile_constant_token_never_skipped(self):
        instance = _quiet_tail_instance(horizon=256)
        sparse = simulate(
            instance, _HostileScheme(), 8, record="costs", engine="sparse"
        )
        dense = simulate(
            instance, _HostileScheme(), 8, record="costs", engine="dense"
        )
        # The evict/insert churn bumps the cache epoch every round even
        # though the physical slot keeps its color (same-color reinsert
        # is elided), so the probe must fail on the epoch, not the bill.
        assert sparse.active_round_fraction == 1.0
        _assert_costs_identical(dense.cost, sparse.cost)


class TestResetLifecycle:
    @pytest.mark.parametrize("scheme_cls", TOKEN_SCHEMES)
    def test_back_to_back_runs_are_bit_identical(self, scheme_cls):
        # One scheme instance, two engines: reset() at engine
        # construction must re-derive the RNG/credit state so the second
        # run replays the first instead of continuing its streams.
        instance = random_rate_limited(
            6, 3, 96, seed=5, load=0.7, bound_choices=(2, 4, 8)
        )
        scheme = scheme_cls()
        first = simulate(instance, scheme, 8, record="costs")
        second = simulate(instance, scheme, 8, record="costs")
        _assert_costs_identical(first.cost, second.cost)

    def test_reset_reroots_the_seed(self):
        # reset(seed) adopts the new seed durably: the next no-arg reset
        # (e.g. at the next engine construction) replays the new stream,
        # not the constructor's.
        a, b = RandomEvict(seed=1), RandomEvict(seed=2)
        a.reset(seed=2)
        assert a.fixed_point_token() == b.fixed_point_token()
        a._rng.random()
        a.reset()
        assert a.fixed_point_token() == b.fixed_point_token()


class _InertScheme(ReconfigurationScheme):
    """Never caches anything; every job is dropped at its deadline."""

    name = "inert"
    stationary = True

    def reconfigure(self, engine):
        return None


class TestHorizonEdge:
    """Fast-forward may clamp to the horizon but never jump a drop."""

    def test_batched_final_drop_round_survives_fast_forward(self):
        # Quiet rounds 0..55, then a batch whose deadline (64) is the
        # last legal round of the minimum horizon (65).  The sparse core
        # skips the leading stretch; the deadline round is a calendar
        # boundary, so every one of the 20 drops must still be charged.
        factory = JobFactory()
        jobs = factory.batch(56, 0, 8, 20)
        instance = make_instance(
            jobs, {0: 8}, 4, batch_mode=BatchMode.BATCHED, horizon=65
        )
        sink = MemorySink()
        sparse = simulate(
            instance, _InertScheme(), 4, record="costs",
            engine="sparse", tracer=Tracer(sink),
        )
        dense = simulate(
            instance, _InertScheme(), 4, record="costs", engine="dense"
        )
        _assert_costs_identical(dense.cost, sparse.cost)
        assert sparse.cost.num_drops == 20
        forwards = [r for r in sink.records if r.name == "fast_forward"]
        assert forwards  # the leading stretch was skipped
        assert all(
            r.data["to_round"] <= instance.horizon for r in forwards
        )
        drops = [r for r in sink.records if r.name == "drop"]
        assert [r.round_index for r in drops] == [64]

    def test_batched_fast_forward_clamps_at_horizon(self):
        # After the last deadline, the tail has no boundaries for large
        # bounds: the target must clamp to the horizon, not overshoot.
        factory = JobFactory()
        jobs = factory.batch(0, 0, 64, 4)
        instance = make_instance(
            jobs, {0: 64}, 4, batch_mode=BatchMode.BATCHED, horizon=1000
        )
        sink = MemorySink()
        result = simulate(
            instance, _InertScheme(), 4, record="costs",
            engine="sparse", tracer=Tracer(sink),
        )
        assert result.rounds_executed < instance.horizon
        forwards = [r for r in sink.records if r.name == "fast_forward"]
        assert forwards
        assert max(r.data["to_round"] for r in forwards) == instance.horizon

    def test_general_final_drop_round_survives_fast_forward(self):
        factory = JobFactory()
        jobs = factory.batch(56, 0, 8, 5)
        instance = make_instance(
            jobs, {0: 8}, 4, batch_mode=BatchMode.GENERAL, horizon=65
        )
        sink = MemorySink()
        sparse = simulate_general(
            instance, NeverReconfigurePolicy(), 4, record="costs",
            sparse=True, tracer=Tracer(sink),
        )
        dense = simulate_general(
            instance, NeverReconfigurePolicy(), 4, record="costs",
            sparse=False,
        )
        _assert_costs_identical(dense.cost, sparse.cost)
        assert sparse.cost.num_drops == 5
        forwards = [r for r in sink.records if r.name == "fast_forward"]
        assert forwards
        assert all(
            r.data["to_round"] <= instance.horizon for r in forwards
        )
        drops = [r for r in sink.records if r.name == "drop"]
        assert [r.round_index for r in drops] == [64]

    def test_general_fast_forward_clamps_at_horizon(self):
        factory = JobFactory()
        jobs = factory.batch(0, 0, 8, 2)
        instance = make_instance(
            jobs, {0: 8}, 4, batch_mode=BatchMode.GENERAL, horizon=1000
        )
        sink = MemorySink()
        result = simulate_general(
            instance, NeverReconfigurePolicy(), 4, record="costs",
            sparse=True, tracer=Tracer(sink),
        )
        assert result.rounds_executed < instance.horizon
        forwards = [r for r in sink.records if r.name == "fast_forward"]
        assert forwards
        assert max(r.data["to_round"] for r in forwards) == instance.horizon


class TestGeneralEngineParity:
    """The general engine's new sparse path against its dense core."""

    @pytest.mark.parametrize("policy_cls", GENERAL_POLICIES)
    @pytest.mark.parametrize("speed", [1, 2])
    @pytest.mark.parametrize("record", ["costs", "full"])
    def test_sparse_matches_dense(self, policy_cls, speed, record):
        for seed in (0, 1):
            instance = random_general(
                6, 4, 192, seed=seed, rate=0.1, bound_choices=(4, 8, 16)
            )
            dense = simulate_general(
                instance, policy_cls(), 8, speed=speed,
                record=record, sparse=False,
            )
            sparse = simulate_general(
                instance, policy_cls(), 8, speed=speed,
                record=record, sparse=True,
            )
            _assert_costs_identical(dense.cost, sparse.cost)
            if record == "full":
                assert list(dense.trace) == list(sparse.trace)

    @pytest.mark.parametrize("record", ["costs", "full"])
    @pytest.mark.parametrize(
        "bounds, arrivals, drop_round",
        [
            # The spec declares color 3 before color 1; both drop at 4.
            ({3: 4, 1: 4}, {3: 0, 1: 0}, 4),
            # Color 5 arrives first; color 2 arrives later with a
            # shorter bound, and both drop at 8.
            ({5: 8, 2: 4}, {5: 0, 2: 4}, 8),
        ],
        ids=["same-bound", "mixed-bounds"],
    )
    def test_drop_order_is_ascending_in_both_modes(
        self, record, bounds, arrivals, drop_round
    ):
        factory = JobFactory()
        jobs = []
        for color, bound in bounds.items():
            jobs += factory.batch(arrivals[color], color, bound, 2)
        instance = make_instance(jobs, bounds, 2)
        expected = [(drop_round, c) for c in sorted(bounds)]
        for sparse in (True, False):
            sink = MemorySink()
            result = simulate_general(
                instance, NeverReconfigurePolicy(), 2, record=record,
                sparse=sparse, tracer=Tracer(sink),
            )
            drops = [
                (r.round_index, r.data["color"])
                for r in sink.records
                if r.name == "drop"
            ]
            assert drops == expected
            assert list(result.cost.drops_by_color) == sorted(bounds)
            if record == "full":
                assert [
                    (e.round_index, e.color)
                    for e in result.trace
                    if isinstance(e, DropEvent)
                ] == expected

    def test_general_sparse_actually_skips(self):
        instance = random_general(
            8, 4, 2048, seed=3, rate=0.01, bound_choices=(32, 64)
        )
        sparse = simulate_general(
            instance, GreedyPendingPolicy(), 8, record="costs", sparse=True
        )
        dense = simulate_general(
            instance, GreedyPendingPolicy(), 8, record="costs", sparse=False
        )
        _assert_costs_identical(dense.cost, sparse.cost)
        assert sparse.rounds_executed < instance.horizon
        assert 0.0 < sparse.active_round_fraction < 1.0

    def test_general_full_record_never_skips(self):
        instance = random_general(
            8, 4, 512, seed=3, rate=0.01, bound_choices=(32, 64)
        )
        result = simulate_general(
            instance, GreedyPendingPolicy(), 8, record="full", sparse=True
        )
        assert result.active_round_fraction == 1.0

    def test_obs_event_streams_match(self):
        instance = random_general(
            8, 4, 1024, seed=3, rate=0.02, bound_choices=(32, 64)
        )

        def run(sparse):
            sink = MemorySink()
            registry = MetricsRegistry()
            simulate_general(
                instance, GreedyPendingPolicy(), 8,
                record="costs", sparse=sparse,
                tracer=Tracer(sink), registry=registry,
            )
            events = [
                (r.name, r.round_index, tuple(sorted(r.data.items())))
                for r in sink.records
                if r.kind == "event"
                and r.name not in ("phase", "fast_forward", "cache_hit")
            ]
            return events, registry.snapshot()["counters"]

        dense_events, dense_counters = run(sparse=False)
        sparse_events, sparse_counters = run(sparse=True)
        assert dense_events == sparse_events
        for name in ("engine.drops", "engine.reconfigs", "engine.executions"):
            assert dense_counters.get(name, 0) == sparse_counters.get(name, 0)
        assert sparse_counters["engine.rounds_fast_forwarded"] > 0
        assert (
            sparse_counters["engine.rounds_executed"]
            + sparse_counters["engine.rounds_fast_forwarded"]
            == dense_counters["engine.rounds_executed"]
        )


class TestReductionsCostsMode:
    """record='costs' through Distribute/VarBatch/Arbitrary/pipeline."""

    def test_distribute_costs_mode_matches_full(self):
        from repro.reductions.distribute import run_distribute
        from repro.workloads.random_batched import random_batched

        for seed in (0, 1, 2):
            instance = random_batched(
                6, 4, 96, seed=seed, load=0.5, bound_choices=(2, 4, 8)
            )
            for speed in (1, 2):
                full = run_distribute(instance, 8, speed=speed)
                costs = run_distribute(
                    instance, 8, speed=speed, record="costs"
                )
                assert costs.schedule is None
                assert costs.inner.schedule is None
                _assert_costs_identical(full.cost, costs.cost)

    def test_pipeline_costs_mode_matches_full_all_stacks(self):
        from repro.reductions.pipeline import run_pipeline
        from repro.workloads.random_batched import random_batched

        cases = [
            # batched -> Distribute
            random_batched(5, 3, 64, seed=0, load=0.5, bound_choices=(2, 4)),
            # general, power-of-two -> VarBatch
            random_general(5, 3, 64, seed=1, rate=0.4, bound_choices=(2, 4, 8)),
            # general, arbitrary bounds -> ArbitraryBounds
            random_general(5, 3, 64, seed=2, rate=0.4, bound_choices=(3, 5, 12)),
        ]
        for instance in cases:
            full = run_pipeline(instance, 8)
            costs = run_pipeline(instance, 8, record="costs")
            assert costs.schedule is None
            assert costs.stages == full.stages
            _assert_costs_identical(full.cost, costs.cost)
            with pytest.raises(RuntimeError, match="record='costs'"):
                costs.verify()

    def test_pipeline_costs_mode_runs_sparse_inner_engine(self):
        # The point of the whole exercise: the reduction stack's inner
        # engine must actually fast-forward on a sparse-friendly
        # workload in costs mode.
        from repro.reductions.distribute import run_distribute

        instance = _quiet_tail_instance(horizon=1024)
        result = run_distribute(instance, 8, record="costs")
        assert result.inner.rounds_executed is not None
        assert result.inner.active_round_fraction < 1.0
        full = run_distribute(instance, 8)
        _assert_costs_identical(full.cost, result.cost)


#: ``(scheme, copies)`` of the four stationary kernel schemes, each run
#: at both speeds by the drain-settling tests.
DRAIN_CASES = [
    (scheme_cls, copies, speed)
    for scheme_cls, copies in (
        (DeltaLRU, 2),
        (EDF, 2),
        (DeltaLRUEDF, 2),
        (SeqEDF, 1),
    )
    for speed in (1, 2)
]

#: A fixed budget of drawn instances per test, replayed identically on
#: every run; no shrink phase, so a failure reports its first
#: counterexample instead of re-running dozens of simulations.
drain_settings = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    phases=(Phase.explicit, Phase.generate),
)

#: Rate-limited batches, and batched ones whose bursts of up to 3·D_ℓ
#: jobs break the rate limit and leave long drains behind.
drain_instances = st.builds(
    lambda make, colors, seed, load, bounds: make(
        colors, 3, 384, seed=seed, load=load, bound_choices=bounds
    ),
    make=st.sampled_from([random_rate_limited, random_batched]),
    colors=st.integers(4, 16),
    seed=st.integers(0, 2**16),
    load=st.floats(0.2, 0.6),
    bounds=st.sampled_from([(16, 32), (32, 64, 128), (16, 32, 64, 128)]),
)


def _counters_without_split(snapshot):
    """Snapshot minus the executed/fast-forwarded split, plus its sum."""
    counters = dict(snapshot["counters"])
    covered = counters.pop("engine.rounds_executed", 0) + counters.pop(
        "engine.rounds_fast_forwarded", 0
    )
    return {**snapshot, "counters": counters}, covered


class TestDrainSettling:
    """Drain stretches settled in closed form by the sparse core.

    After a round in which a stationary scheme completed its pass, every
    round up to the next boundary (or the first queue to run empty) is
    pure execution; the sparse core settles it in one step.  That must
    be invisible in costs, in registry instruments, and across stream
    segmentations.
    """

    @drain_settings
    @given(instance=drain_instances)
    def test_sparse_matches_dense(self, instance):
        settled = 0
        for scheme_cls, copies, speed in DRAIN_CASES:
            kwargs = dict(copies=copies, speed=speed, record="costs")
            dense = simulate(instance, scheme_cls(), 8, engine="dense", **kwargs)
            registry = MetricsRegistry()
            sparse = simulate(instance, scheme_cls(), 8, registry=registry, **kwargs)
            _assert_costs_identical(dense.cost, sparse.cost)
            # Settled rounds count as fast-forwarded, not executed.
            counters = registry.snapshot()["counters"]
            assert counters["engine.rounds_executed"] == sparse.rounds_executed
            assert counters["engine.rounds_fast_forwarded"] > 0
            traced = simulate(
                instance, scheme_cls(), 8, tracer=Tracer(MemorySink()), **kwargs
            )
            settled += traced.rounds_executed - sparse.rounds_executed
        # A silent disable of the settle would leave these equal.
        assert settled > 0

    @drain_settings
    @given(instance=drain_instances)
    def test_registry_matches_traced_run(self, instance):
        # A tracer keeps the per-round loop, so its registry records
        # every drain round as simulated; the settled run must record
        # the same samples, ages and skips, and only move rounds from
        # executed to fast-forwarded.
        for scheme_cls, copies, speed in DRAIN_CASES:
            kwargs = dict(copies=copies, speed=speed, record="costs")
            plain, traced = MetricsRegistry(), MetricsRegistry()
            simulate(instance, scheme_cls(), 8, registry=plain, **kwargs)
            simulate(
                instance, scheme_cls(), 8, registry=traced,
                tracer=Tracer(MemorySink()), **kwargs,
            )
            assert _counters_without_split(
                plain.snapshot()
            ) == _counters_without_split(traced.snapshot())

    @drain_settings
    @given(instance=drain_instances)
    def test_profiler_keeps_the_settled_path(self, instance):
        for scheme_cls, copies, speed in DRAIN_CASES:
            kwargs = dict(copies=copies, speed=speed, record="costs")
            plain = simulate(instance, scheme_cls(), 8, **kwargs)
            profiler = PhaseProfiler()
            profiled = simulate(
                instance, scheme_cls(), 8, profiler=profiler, **kwargs
            )
            _assert_costs_identical(plain.cost, profiled.cost)
            assert profiled.rounds_executed == plain.rounds_executed
            assert profiler.seconds["execute"] > 0

    @drain_settings
    @given(instance=drain_instances)
    def test_stream_segments_match_one_shot(self, instance):
        for scheme_cls, copies, speed in DRAIN_CASES:
            one_shot = simulate(
                instance, scheme_cls(), 8, copies=copies, speed=speed,
                record="costs",
            )
            for segment in (7, 64, 1000):
                for registry in (None, MetricsRegistry()):
                    session = StreamSession(
                        InstanceSource(instance), scheme_cls(), 8,
                        copies=copies, speed=speed, registry=registry,
                        segment_rounds=segment,
                    )
                    _assert_costs_identical(one_shot.cost, session.run().cost)


def _load_example(name):
    path = Path(__file__).resolve().parents[1] / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExampleSchemeParity:
    """The schemes ``examples/custom_scheme.py`` teaches users to write.

    Their stationarity claims decide what the sparse core may skip: a
    scheme whose nudges read the round index or the cost counters must
    not claim it, or the skipped calls change its costs.
    """

    @pytest.mark.parametrize("name", ["StickyEDF", "AdaptiveHybrid"])
    @pytest.mark.parametrize("speed", [1, 2])
    def test_sparse_matches_dense(self, name, speed):
        scheme_cls = getattr(_load_example("custom_scheme"), name)
        for seed in range(20):
            instance = random_rate_limited(
                8, 3, 512, seed=seed, load=0.3, bound_choices=(32, 64, 128)
            )
            dense = simulate(
                instance, scheme_cls(), 8, speed=speed, record="costs",
                engine="dense",
            )
            sparse = simulate(
                instance, scheme_cls(), 8, speed=speed, record="costs"
            )
            _assert_costs_identical(dense.cost, sparse.cost)
