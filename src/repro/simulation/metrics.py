"""Per-round metrics collection.

Collectors preallocate numpy arrays over the horizon (no per-round Python
object churn) and compute derived series — utilization, cumulative cost,
occupancy — as vectorized operations, per the HPC guide idioms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised in no-numpy installs
    # Metrics collection preallocates numpy arrays; the engines
    # themselves never touch numpy, so the module must import without
    # it (collect_metrics=True then raises below).
    np = None

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.engine import BatchedEngine


@dataclass(frozen=True)
class RoundMetrics:
    """Immutable snapshot of the per-round series after a run."""

    executions: np.ndarray
    drops: np.ndarray
    reconfigs: np.ndarray
    occupancy: np.ndarray
    pending: np.ndarray

    @property
    def horizon(self) -> int:
        return int(self.executions.shape[0])

    def utilization(self, num_resources: int, speed: int = 1) -> np.ndarray:
        """Fraction of execution slots used each round."""
        capacity = float(num_resources * speed)
        return self.executions / capacity

    def cumulative_cost(self, reconfig_cost: int, drop_cost: int = 1) -> np.ndarray:
        """Running total cost after each round."""
        per_round = self.reconfigs * reconfig_cost + self.drops * drop_cost
        return np.cumsum(per_round)


class MetricsCollector:
    """Accumulates per-round counters during an engine run.

    Besides the per-round series, the collector carries the run's perf
    telemetry: the engines report the round loop's wall-clock time via
    :meth:`record_wall_clock`, exposed as :attr:`wall_seconds` and
    :attr:`rounds_per_second` so throughput trajectories (EXP-S,
    ``BENCH_engine.json``) read it from one place.
    """

    def __init__(self, horizon: int) -> None:
        if np is None:
            raise RuntimeError(
                "per-round metrics collection requires numpy; install it "
                "with `pip install repro[vec]` or run with "
                "collect_metrics=False"
            )
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.horizon = horizon
        self._executions = np.zeros(horizon, dtype=np.int64)
        self._drops = np.zeros(horizon, dtype=np.int64)
        self._reconfigs = np.zeros(horizon, dtype=np.int64)
        self._occupancy = np.zeros(horizon, dtype=np.int64)
        self._pending = np.zeros(horizon, dtype=np.int64)
        self._prev_exec = 0
        self._prev_drops = 0
        self._prev_reconfigs = 0
        self.wall_seconds: float | None = None
        self._timed_rounds = 0

    def record_wall_clock(self, seconds: float, rounds: int) -> None:
        """Record the wall-clock duration of ``rounds`` simulated rounds."""
        if seconds < 0:
            raise ValueError("wall-clock seconds must be nonnegative")
        self.wall_seconds = seconds
        self._timed_rounds = rounds

    @property
    def rounds_per_second(self) -> float:
        """Simulated-round throughput (0 until a run has been timed)."""
        if not self.wall_seconds or self._timed_rounds <= 0:
            return 0.0
        return self._timed_rounds / self.wall_seconds

    def end_round(self, k: int, engine: "BatchedEngine") -> None:
        """Record deltas for round ``k`` from the engine's accumulators."""
        cost = engine.cost
        self._executions[k] = cost.executions - self._prev_exec
        self._drops[k] = cost.num_drops - self._prev_drops
        self._reconfigs[k] = cost.num_reconfigs - self._prev_reconfigs
        self._prev_exec = cost.executions
        self._prev_drops = cost.num_drops
        self._prev_reconfigs = cost.num_reconfigs
        self._occupancy[k] = engine.cache.occupancy()
        # ``st.pending`` is a count on both engines' per-color states.
        self._pending[k] = sum(st.pending for st in engine.states.values())

    def snapshot(self) -> RoundMetrics:
        """Freeze the collected series."""
        return RoundMetrics(
            executions=self._executions.copy(),
            drops=self._drops.copy(),
            reconfigs=self._reconfigs.copy(),
            occupancy=self._occupancy.copy(),
            pending=self._pending.copy(),
        )
