"""Stored sort keys: the sparse core's orders against from-scratch sorts.

In sparse mode the batched engine sorts the EDF ranking and the ΔLRU
order on per-color keys that the phases store where they change them
(a color's own boundaries, its queue running empty, ``import_state``).
A checking scheme wraps ΔLRU-EDF, ΔLRU or EDF and, before every pass,
compares both orders with a sort of the eligible colors computed
straight from :class:`~repro.simulation.state.ColorState` — so a key
the phases forgot to rewrite, anywhere in the round loop, the closed-form
drain settling or a restored stream segment, fails here by name.
"""

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.edf import EDF
from repro.obs import MetricsRegistry
from repro.simulation.engine import ReconfigurationScheme, simulate
from repro.streaming import InstanceSource, StreamSession
from repro.workloads.random_batched import random_batched, random_rate_limited


def reference_orders(engine) -> tuple[list[int], list[int]]:
    """The EDF ranking and the ΔLRU order, sorted from scratch."""
    now, states = engine.round_index, engine.states
    eligible = [c for c in sorted(states) if states[c].eligible]
    rank = sorted(
        eligible,
        key=lambda c: (
            states[c].pending == 0,
            states[c].dd,
            states[c].delay_bound,
            c,
        ),
    )
    lru = sorted(eligible, key=lambda c: (-states[c].timestamp(now), c))
    return rank, lru


class OrderCheck(ReconfigurationScheme):
    """Runs ``inner``'s pass after checking both orders.

    The three wrapped schemes keep no state besides the engine's, so
    only ``reconfigure`` needs delegating.
    """

    def __init__(self, inner: ReconfigurationScheme) -> None:
        self.inner = inner
        self.name = inner.name
        # Stationary like the inner scheme, so the sparse core still
        # settles drain stretches and reads the keys they rewrote.
        self.stationary = inner.stationary
        self.checks = 0

    def reconfigure(self, engine):
        rank, lru = reference_orders(engine)
        assert engine.eligible_colors() == sorted(rank)
        assert engine.rank_eligible() == rank, engine.round_index
        assert engine.lru_order() == lru, engine.round_index
        self.checks += 1
        self.inner.reconfigure(engine)


INNER = {"dlru-edf": DeltaLRUEDF, "dlru": DeltaLRU, "edf": EDF}

order_settings = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    phases=(Phase.explicit, Phase.generate),
)

#: Rate-limited instances, and batched ones whose bursts break the rate
#: limit and leave drain stretches for the sparse core to settle.
instances = st.builds(
    lambda make, colors, delta, seed, load, bounds: make(
        colors, delta, 192, seed=seed, load=load, bound_choices=bounds
    ),
    make=st.sampled_from([random_rate_limited, random_batched]),
    colors=st.integers(3, 12),
    delta=st.integers(2, 4),
    seed=st.integers(0, 2**16),
    load=st.floats(0.2, 0.9),
    bounds=st.sampled_from([(2, 4, 8), (4, 8, 16), (8, 16, 32, 64)]),
)


class TestStoredOrders:
    @order_settings
    @given(
        instance=instances,
        scheme=st.sampled_from(sorted(INNER)),
        speed=st.sampled_from([1, 2]),
        copies=st.sampled_from([1, 2]),
        record=st.sampled_from(["full", "costs"]),
        with_registry=st.booleans(),
    )
    def test_one_shot_orders_match_reference(
        self, instance, scheme, speed, copies, record, with_registry
    ):
        check = OrderCheck(INNER[scheme]())
        registry = MetricsRegistry() if with_registry else None
        checked = simulate(
            instance, check, 8, copies=copies, speed=speed, record=record,
            registry=registry,
        )
        plain = simulate(
            instance, INNER[scheme](), 8, copies=copies, speed=speed,
            record=record,
        )
        assert check.checks > 0
        assert checked.cost == plain.cost

    @order_settings
    @given(
        instance=instances,
        scheme=st.sampled_from(sorted(INNER)),
        speed=st.sampled_from([1, 2]),
        copies=st.sampled_from([1, 2]),
        segment=st.sampled_from([5, 16, 64]),
        kill_at=st.integers(1, 191),
        with_registry=st.booleans(),
    )
    def test_restored_segments_match_reference(
        self, instance, scheme, speed, copies, segment, kill_at, with_registry
    ):
        # Every segment after the first imports its predecessor's state
        # at start_round > 0, and so does the resumed session.
        kwargs = dict(copies=copies, speed=speed, segment_rounds=segment)
        first = StreamSession(
            InstanceSource(instance), OrderCheck(INNER[scheme]()), 8,
            registry=MetricsRegistry() if with_registry else None, **kwargs,
        )
        first.run(kill_at)
        checkpoint = first.checkpoint()
        resumed_check = OrderCheck(INNER[scheme]())
        resumed = StreamSession.resume(
            InstanceSource(instance), resumed_check, checkpoint,
            registry=MetricsRegistry() if with_registry else None,
            segment_rounds=segment,
        )
        result = resumed.run()
        one_shot = simulate(
            instance, INNER[scheme](), 8, copies=copies, speed=speed,
            record="costs",
        )
        assert result.cost == one_shot.cost
        assert first.scheme.checks + resumed_check.checks > 0
