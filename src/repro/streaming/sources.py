"""Arrival sources: per-round batch counts on demand.

An :class:`ArrivalSource` is the streaming replacement for a materialized
:class:`~repro.core.instance.RequestSequence`: the session pulls round
``k``'s batch when (and only when) it is about to simulate round ``k``,
so memory stays bounded by pending work instead of total work.

Contract
--------
* ``batch(k)`` returns ``{color: count}``: how many jobs of each color
  arrive in round ``k``.  A batched engine reads nothing else, so there
  are no job objects and no job ids on the streaming path.
* ``batch(k)`` must be a **pure function of** ``k`` — no draw cursor, no
  consumed-iterator state.  That is what makes checkpoints trivial
  (:meth:`ArrivalSource.state_dict` is empty for every source here) and
  resumed runs bit-identical: the session simply re-asks for the rounds
  after the checkpoint.  Sources that cannot avoid mutable state must
  round-trip it through ``state_dict``/``load_state``.
* Finite sources raise :class:`IndexError` past their horizon — the same
  contract as :meth:`RequestSequence.arrivals
  <repro.core.instance.RequestSequence.arrivals>`, which
  :class:`InstanceSource` preserves.
* For batched specs the session queries only integral multiples of some
  delay bound (the only rounds a batched workload may populate); sources
  return an empty mapping for rounds they leave empty, never ``None``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.instance import Instance, ProblemSpec, is_count


class ArrivalSource(ABC):
    """Per-round batch counts for one problem spec (see module contract)."""

    #: The problem the stream belongs to; engines validate against it.
    spec: ProblemSpec

    @abstractmethod
    def horizon(self) -> int | None:
        """Total rounds available, or ``None`` for an unbounded source."""

    @abstractmethod
    def batch(self, round_index: int) -> Mapping[int, int]:
        """``{color: count}`` arriving in ``round_index`` (pure function
        of the round)."""

    def state_dict(self) -> dict:
        """Mutable source state for checkpoints (default: none)."""
        return {}

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (default: must be empty)."""
        if state:
            raise ValueError(
                f"source {type(self).__name__} has no load_state override "
                f"but the checkpoint carries state keys {sorted(state)}"
            )

    def describe(self) -> str:
        bound = self.horizon()
        extent = "unbounded" if bound is None else f"horizon {bound}"
        return f"{type(self).__name__} ({extent})"


class InstanceSource(ArrivalSource):
    """Serve a finite, materialized instance as a stream.

    Useful for replaying existing workload generators through the
    streaming path and for the bit-identity property tests (stream vs.
    one-shot ``simulate`` on the same instance).  Preserves the
    ``arrivals`` horizon contract: querying a round at or past the
    materialized horizon raises :class:`IndexError`.
    """

    def __init__(self, instance: Instance) -> None:
        if not instance.spec.batch_mode.is_batched:
            raise ValueError(
                "streaming consumes batched instances; wrap general "
                "instances with the VarBatch reduction first"
            )
        self.instance = instance
        self.spec = instance.spec

    def horizon(self) -> int | None:
        return self.instance.horizon

    def batch(self, round_index: int) -> Mapping[int, int]:
        horizon = self.instance.horizon
        if not 0 <= round_index < horizon:
            raise IndexError(
                f"round {round_index} is outside the materialized horizon "
                f"[0, {horizon}); the instance has no such round"
            )
        return dict(self.instance.sequence.arrival_counts.get(round_index, ()))

    def describe(self) -> str:
        return f"instance {self.instance.name or 'unnamed'}"


class GeneratorSource(ArrivalSource):
    """Adapt a ``(round) -> [(color, count), ...]`` law to a source.

    ``counts`` must be a pure function of the round (the module
    contract).  ``batch`` passes the law's counts through, summing
    repeated colors and leaving out zero counts, and raises
    :class:`ValueError` naming the round and the color when the law
    returns an undeclared color or a count that is not a nonnegative
    integer.
    """

    def __init__(
        self,
        spec: ProblemSpec,
        counts: Callable[[int], Iterable[tuple[int, int]]],
        *,
        horizon: int | None = None,
        name: str = "",
    ) -> None:
        if not spec.batch_mode.is_batched:
            raise ValueError("GeneratorSource requires a batched spec")
        if horizon is not None and horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {horizon}")
        self.spec = spec
        self._counts = counts
        self._horizon = horizon
        self.name = name

    def horizon(self) -> int | None:
        return self._horizon

    def batch(self, round_index: int) -> Mapping[int, int]:
        if round_index < 0 or (
            self._horizon is not None and round_index >= self._horizon
        ):
            raise IndexError(
                f"round {round_index} is outside the source horizon "
                f"[0, {self._horizon})"
            )
        declared = self.spec.delay_bounds
        counts: dict[int, int] = {}
        for color, count in self._counts(round_index):
            if color not in declared or not is_count(count):
                raise ValueError(
                    f"round {round_index}: the arrival law returned "
                    f"{count!r} jobs of color {color!r}; colors must be "
                    "declared and counts nonnegative integers"
                )
            if count:
                counts[color] = counts.get(color, 0) + count
        return counts

    def describe(self) -> str:
        label = self.name or "generator"
        bound = self._horizon
        extent = "unbounded" if bound is None else f"horizon {bound}"
        return f"{label} ({extent})"


def rate_limited_source(
    num_colors: int,
    delta: int,
    *,
    seed: int,
    load: float = 0.5,
    bound_choices: Sequence[int] = (8, 16, 32, 64),
    horizon: int | None = None,
) -> GeneratorSource:
    """Unbounded rate-limited workload as a source (splitmix-pure draws).

    The streaming analog of :func:`repro.workloads.random_batched.
    random_rate_limited`: at every multiple of ``D_ℓ``, color ℓ receives
    ``Binomial(D_ℓ, load)`` jobs, computed as a pure function of
    ``(seed, round, color)`` — no cursor, and O(block) memory: the law
    draws a 1,024-round block in one numpy pass and keeps it as a memo
    that no checkpoint carries (:mod:`repro.workloads.streaming`).
    """
    from repro.workloads.streaming import rate_limited_stream

    stream = rate_limited_stream(
        num_colors,
        delta,
        seed=seed,
        load=load,
        bound_choices=bound_choices,
    )
    return GeneratorSource(
        stream.spec,
        stream.batch_counts,
        horizon=horizon,
        name=f"rate-limited-stream(seed={seed}, load={load})",
    )
