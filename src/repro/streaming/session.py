"""The streaming driver: segments, state carry-over, checkpoints.

:class:`StreamSession` runs any engine backend over an
:class:`~repro.streaming.sources.ArrivalSource` without ever
materializing the whole workload.  The mechanism is *segmentation*: the
session pulls one window of per-boundary counts (``segment_rounds``
rounds) through the admission layer, builds a segment instance over a
:class:`~repro.core.instance.CountSequence` of the admitted counts (no
job objects) and a segment engine over global rounds ``[start, end)``
with the previous segment's exported state imported, runs it, and
exports the state again.  Because round indices stay global,
deadlines, boundary calendars, ΔLRU timestamps, and scheme decisions
are identical to one uninterrupted engine run — segmentation is
cost-transparent (property-tested against one-shot ``simulate``).

Checkpointing falls out for free: the between-segments state *is* the
checkpoint.  A resumed session starts from the same exported state the
uninterrupted session would have carried across that round, so the two
produce bit-identical :class:`~repro.core.cost.CostBreakdown`\\ s.

Memory is O(colors + segment): the engine, its segment instance, and
the admitted-count window are dropped after every segment; only the
exported state survives — one pending count per color (with its
arrival round), per-color counters, cache slots, cost counters —
stored in checkpoints as schema ``repro-stream-checkpoint/v4``.  An
attached series recorder's history goes to the checkpoint's series
sidecar instead: each save appends only the samples recorded since the
previous one (:class:`~repro.streaming.checkpoint.SeriesSidecar`).
``record`` is fixed to ``"costs"`` — full-record streaming would
retain O(total jobs) schedule state, defeating the point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.cost import CostBreakdown
from repro.core.instance import CountSequence, Instance
# Unused since segments are count sequences; the ledger's traced run
# still patches the name (ROADMAP: ledger refresh).
from repro.core.instance import RequestSequence  # noqa: F401
from repro.simulation.engine import (
    ENGINE_NAMES,
    BatchedEngine,
    ReconfigurationScheme,
    check_geometry,
)
from repro.streaming.checkpoint import (
    CheckpointError,
    SeriesSidecar,
    StreamCheckpoint,
    spec_digest,
)
from repro.streaming.ingest import AdmissionPolicy, StreamIngest
from repro.streaming.sources import ArrivalSource

#: Default segment width; bounds the per-segment arrival window.
DEFAULT_SEGMENT_ROUNDS = 4096


@dataclass
class StreamResult:
    """Cumulative outcome of a streaming session (so far)."""

    name: str
    algorithm: str
    engine: str
    num_resources: int
    speed: int
    rounds: int
    rounds_executed: int
    wall_seconds: float
    cost: CostBreakdown
    offered: int
    admitted: int
    rejected: int
    rejection_rate: float
    checkpoints_written: int

    @property
    def total_cost(self) -> int:
        return self.cost.total

    @property
    def rounds_per_second(self) -> float:
        """Covered mini-rounds per wall-clock second (0.0 when untimed)."""
        if self.wall_seconds <= 0 or self.rounds <= 0:
            return 0.0
        return self.rounds * self.speed / self.wall_seconds


class StreamSession:
    """Drive a reconfiguration scheme over an arrival stream.

    Parameters mirror :func:`repro.simulation.engine.simulate` where they
    overlap; ``policy`` bounds admission (see
    :class:`~repro.streaming.ingest.AdmissionPolicy`), ``registry``
    receives both the ``stream.*`` ingestion metrics and the engines'
    ``engine.*`` instruments, and ``segment_rounds`` sets the window
    width (cost-transparent; tune for memory vs. per-segment overhead).

    ``recorder`` attaches a
    :class:`~repro.obs.timeseries.SeriesRecorder`: the session samples
    it at every segment end (a deterministic round clock), so metric
    history — and any alert rules riding on the recorder — accrues as
    the stream runs.  A saved checkpoint carries the recorder's
    derivation and alert state, and its series sidecar the history, so
    a killed-and-resumed session continues the exact series and fires
    the exact alerts an uninterrupted one would.
    """

    def __init__(
        self,
        source: ArrivalSource,
        scheme: ReconfigurationScheme,
        num_resources: int,
        *,
        engine: str = "sparse",
        copies: int = 2,
        speed: int = 1,
        policy: AdmissionPolicy | None = None,
        registry=None,
        recorder=None,
        segment_rounds: int = DEFAULT_SEGMENT_ROUNDS,
        name: str = "stream",
    ) -> None:
        if engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}"
            )
        if not source.spec.batch_mode.is_batched:
            raise ValueError("streaming sessions require a batched spec")
        if segment_rounds < 1:
            raise ValueError("segment_rounds must be at least 1")
        # Checked here, not at the first segment's engine, so a bad
        # geometry fails before any arrival is drawn.
        check_geometry(num_resources, copies, speed)
        self.source = source
        self.scheme = scheme
        self.spec = source.spec
        self.num_resources = num_resources
        self.engine = engine
        self.copies = copies
        self.speed = speed
        self.segment_rounds = segment_rounds
        self.name = name
        self.registry = registry
        if recorder is not None and recorder.registry is not registry:
            raise ValueError(
                "recorder must sample this session's registry; construct "
                "it as SeriesRecorder(registry, ...) with the same object"
            )
        self.recorder = recorder
        self._sidecar = SeriesSidecar(recorder) if recorder is not None else None
        self.ingest = StreamIngest(policy, registry)
        self.last_checkpoint_round: int | None = None
        self.last_checkpoint_path: str | None = None
        self._round = 0
        self._engine_state: dict | None = None
        self._scheme_state: dict | None = None
        self._cost = CostBreakdown(self.spec.cost)
        self._rounds_executed = 0
        self._wall_seconds = 0.0
        self._checkpoints_written = 0
        self._boundary_step = min(self.spec.delay_bounds.values())
        if registry is not None:
            self._round_gauge = registry.gauge("stream.round")
            self._checkpoint_ctr = registry.counter("stream.checkpoints")
        else:
            self._round_gauge = None
            self._checkpoint_ctr = None

    # ------------------------------------------------------------- state

    @property
    def round(self) -> int:
        """Next global round to simulate."""
        return self._round

    @property
    def cost(self) -> CostBreakdown:
        """Cumulative cost breakdown across all segments so far."""
        return self._cost

    def result(self) -> StreamResult:
        return StreamResult(
            name=self.name,
            algorithm=self.scheme.name,
            engine=self.engine,
            num_resources=self.num_resources,
            speed=self.speed,
            rounds=self._round,
            rounds_executed=self._rounds_executed,
            wall_seconds=self._wall_seconds,
            cost=self._cost,
            offered=self.ingest.offered,
            admitted=self.ingest.admitted,
            rejected=self.ingest.rejected,
            rejection_rate=self.ingest.rejection_rate,
            checkpoints_written=self._checkpoints_written,
        )

    # --------------------------------------------------------------- run

    def run(
        self,
        rounds: int | None = None,
        *,
        checkpoint_every: int | None = None,
        checkpoint_path=None,
        on_checkpoint=None,
    ) -> StreamResult:
        """Advance the session ``rounds`` rounds (or to a finite source's
        horizon) and return the cumulative result.

        ``checkpoint_every`` forces a checkpoint every that many rounds
        (aligned to multiples of it); each checkpoint is written to
        ``checkpoint_path`` (atomic overwrite) and/or passed to
        ``on_checkpoint``.  Callable repeatedly — an unbounded source is
        consumed in as many ``run`` calls as the caller likes.
        """
        horizon = self.source.horizon()
        if rounds is None:
            if horizon is None:
                raise ValueError(
                    "an unbounded source needs an explicit rounds= target"
                )
            target = horizon
        else:
            if rounds < 0:
                raise ValueError("rounds must be nonnegative")
            target = self._round + rounds
            if horizon is not None and target > horizon:
                raise ValueError(
                    f"target round {target} exceeds the source horizon "
                    f"{horizon}"
                )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        while self._round < target:
            end = min(target, self._round + self.segment_rounds)
            if checkpoint_every is not None:
                next_ckpt = (
                    (self._round // checkpoint_every) + 1
                ) * checkpoint_every
                end = min(end, next_ckpt)
            self._run_segment(self._round, end)
            if (
                checkpoint_every is not None
                and self._round % checkpoint_every == 0
                and self._round > 0
            ):
                # Count first so the checkpoint carries a total that
                # includes itself — a resumed session then re-seeds the
                # counter to exactly what the uninterrupted one shows.
                self._checkpoints_written += 1
                if self._checkpoint_ctr is not None:
                    self._checkpoint_ctr.inc()
                ckpt = self.checkpoint()
                if checkpoint_path is not None:
                    ckpt.save(checkpoint_path)
                    self.last_checkpoint_path = str(checkpoint_path)
                self.last_checkpoint_round = self._round
                if on_checkpoint is not None:
                    on_checkpoint(ckpt)
        return self.result()

    def _boundary_rounds(self, start: int, end: int) -> list[int]:
        """Rounds in ``[start, end)`` that are a multiple of some bound —
        the only rounds a batched source may populate."""
        rounds: set[int] = set()
        for bound in set(self.spec.delay_bounds.values()):
            first = ((start + bound - 1) // bound) * bound
            rounds.update(range(first, end, bound))
        return sorted(rounds)

    def _run_segment(self, start: int, end: int) -> None:
        if end <= start:
            return
        counts: dict[int, dict[int, int]] = {}
        for k in self._boundary_rounds(start, end):
            offered = self.source.batch(k)
            if offered:
                admitted = self.ingest.admit(k, offered)
                if admitted:
                    counts[k] = admitted
        instance = Instance(
            self.spec,
            CountSequence(counts, end),
            name=f"{self.name}[{start}:{end}]",
        )
        engine = self._build_engine(instance, start)
        if self._scheme_state is not None:
            # After construction: the engine's ctor reset the scheme, and
            # the checkpointed decision state must win.
            self.scheme.load_state(self._scheme_state)
        if self._engine_state is not None:
            engine.import_state(self._engine_state)
        result = engine.run()
        self._engine_state = engine.export_state()
        self._scheme_state = self.scheme.state_dict()
        # import_state restored the cumulative CostBreakdown into the
        # engine, which kept accumulating onto it — result.cost IS the
        # session-cumulative breakdown.
        self._cost = result.cost
        self._rounds_executed += result.rounds_executed or 0
        self._wall_seconds += result.wall_seconds
        self._round = end
        if self._round_gauge is not None:
            self._round_gauge.set(end)
        if self.recorder is not None:
            self._sidecar.note(end, self.recorder.sample(end))

    def _build_engine(self, instance: Instance, start: int) -> BatchedEngine:
        # The vectorized compile ingests whole sequences from empty
        # initial state, so a "vectorized" session runs every segment on
        # the sparse core it would fall back to; the name stays accepted
        # so sessions and checkpoints that record it still run.
        return BatchedEngine(
            instance,
            self.scheme,
            self.num_resources,
            copies=self.copies,
            speed=self.speed,
            record="costs",
            engine="dense" if self.engine == "dense" else "sparse",
            start_round=start,
            registry=self.registry,
        )

    # ------------------------------------------------- checkpoint/restore

    def _config(self) -> dict:
        return {
            "spec_digest": spec_digest(self.spec),
            "scheme": self.scheme.name,
            "engine": self.engine,
            "num_resources": self.num_resources,
            "copies": self.copies,
            "speed": self.speed,
            "name": self.name,
            "policy": self.ingest.policy.to_dict(),
        }

    def checkpoint(self) -> StreamCheckpoint:
        """Snapshot the session (valid at any between-rounds point).

        With a recorder attached, the series history reaches disk only
        through the checkpoint's :meth:`~StreamCheckpoint.save`, which
        must come before the session runs on; resuming a recorder from
        a checkpoint never saved raises :class:`CheckpointError`.
        """
        obs_state = {}
        if self.registry is not None:
            obs_state["registry"] = self.registry.snapshot()
        if self.recorder is not None:
            obs_state["series"] = self.recorder.state_dict()
        return StreamCheckpoint(
            round=self._round,
            config=self._config(),
            engine_state=self._engine_state or {},
            scheme_state=self._scheme_state or {},
            ingest_state=self.ingest.state_dict(),
            source_state=self.source.state_dict(),
            rounds_executed=self._rounds_executed,
            wall_seconds=self._wall_seconds,
            checkpoints_written=self._checkpoints_written,
            obs_state=obs_state,
            sidecar=self._sidecar,
        )

    def save_checkpoint(self, path) -> StreamCheckpoint:
        """Checkpoint to ``path`` now, recording the metadata the ops
        surface reports (last checkpoint round and path)."""
        self._checkpoints_written += 1
        if self._checkpoint_ctr is not None:
            self._checkpoint_ctr.inc()
        ckpt = self.checkpoint()
        ckpt.save(path)
        self.last_checkpoint_round = self._round
        self.last_checkpoint_path = str(path)
        return ckpt

    def load_checkpoint(self, checkpoint: StreamCheckpoint) -> None:
        """Restore a checkpoint into this (fresh) session; an attached
        recorder is rebuilt from the series sidecar it names."""
        if self._round != 0:
            raise RuntimeError(
                "load_checkpoint requires a fresh session (round 0)"
            )
        config = checkpoint.config
        mine = self._config()
        mismatched = [
            key
            for key in ("spec_digest", "scheme", "engine", "num_resources", "copies", "speed")
            if config.get(key) != mine[key]
        ]
        if mismatched:
            raise CheckpointError(
                "checkpoint does not match this session: "
                + ", ".join(
                    f"{key}={config.get(key)!r} vs {mine[key]!r}"
                    for key in mismatched
                )
            )
        horizon = self.source.horizon()
        if horizon is not None and checkpoint.round > horizon:
            raise CheckpointError(
                f"checkpoint round {checkpoint.round} exceeds the source "
                f"horizon {horizon}"
            )
        self._round = checkpoint.round
        self._engine_state = checkpoint.engine_state or None
        self._scheme_state = checkpoint.scheme_state or None
        if self.registry is not None and "registry" in checkpoint.obs_state:
            # Fold the checkpoint's full instrument state into the fresh
            # registry before the ingest re-seed: engine.* counters and
            # histograms continue from their pre-kill values (so recorded
            # series and /metrics match the uninterrupted session for
            # every instrument, not just stream.*), while the idempotent
            # stream.* re-seed below collapses to a zero delta.
            self.registry.merge_snapshot(checkpoint.obs_state["registry"])
        self.ingest.load_state(checkpoint.ingest_state)
        self.source.load_state(checkpoint.source_state)
        self._rounds_executed = checkpoint.rounds_executed
        self._wall_seconds = checkpoint.wall_seconds
        self._checkpoints_written = checkpoint.checkpoints_written
        if self._checkpoint_ctr is not None:
            self._checkpoint_ctr.inc(
                self._checkpoints_written - self._checkpoint_ctr.value
            )
        if self._engine_state is not None:
            self._cost = CostBreakdown.from_dict(self._engine_state["cost"])
        if self._round_gauge is not None:
            # Re-seed the round gauge so a scrape right after resume
            # matches the uninterrupted session's exposition.
            self._round_gauge.set(self._round)
        if self.recorder is not None and "series" in checkpoint.obs_state:
            self._sidecar.restore(checkpoint)

    @classmethod
    def resume(
        cls,
        source: ArrivalSource,
        scheme: ReconfigurationScheme,
        checkpoint: StreamCheckpoint | str,
        *,
        policy: AdmissionPolicy | None = None,
        registry=None,
        recorder=None,
        segment_rounds: int = DEFAULT_SEGMENT_ROUNDS,
    ) -> "StreamSession":
        """Build a session from a checkpoint (or its file path).

        Engine, resources, copies, speed, and (unless overridden by an
        explicit ``policy``) the admission policy come from the
        checkpoint's configuration echo; source and scheme are supplied
        by the caller and validated against it.
        """
        if not isinstance(checkpoint, StreamCheckpoint):
            checkpoint = StreamCheckpoint.load(checkpoint)
        config = checkpoint.config
        if policy is None and config.get("policy") is not None:
            policy = AdmissionPolicy.from_dict(config["policy"])
        session = cls(
            source,
            scheme,
            config["num_resources"],
            engine=config["engine"],
            copies=config["copies"],
            speed=config["speed"],
            policy=policy,
            registry=registry,
            recorder=recorder,
            segment_rounds=segment_rounds,
            name=config.get("name", "stream"),
        )
        session.load_checkpoint(checkpoint)
        return session
