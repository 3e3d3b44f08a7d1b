"""Hindsight (offline) heuristics: feasible schedules upper-bounding OFF.

These are *valid schedules*, so their costs are upper bounds on the
optimal offline cost.  The adversarial experiments use them as
denominators (a smaller denominator makes the online ratio larger, so the
measured growth is conservative), and the tests use them to sandwich the
exact optimum: ``lower_bound <= optimal <= heuristic``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

from repro.algorithms.greedy import GreedyPendingPolicy
from repro.algorithms.static import StaticPartitionPolicy
from repro.core.instance import Instance
from repro.simulation.engine import RunResult
from repro.simulation.general import GeneralEngine, GeneralPolicy, simulate_general


class LookaheadPolicy(GeneralPolicy):
    """Greedy with a future window: an explicitly offline policy.

    At each round the policy scores every color by the work available in
    the next ``window`` rounds (current backlog plus *future arrivals*,
    read straight from the instance — legal offline) and keeps the
    top-capacity scorers cached, swapping only when a challenger's score
    beats the victim's by ``hysteresis * Δ``.
    """

    name = "offline-lookahead"

    def __init__(self, window: int = 64, hysteresis: float = 1.0) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if hysteresis < 0:
            raise ValueError("hysteresis must be nonnegative")
        self.window = window
        self.hysteresis = hysteresis
        self._future: dict[int, list[int]] | None = None

    def setup(self, engine: GeneralEngine) -> None:
        # Precompute per-color cumulative arrival counts so the per-round
        # window score is two array lookups.
        horizon = engine.instance.horizon
        cumulative: dict[int, list[int]] = {
            color: [0] * (horizon + 1)
            for color in engine.instance.spec.delay_bounds
        }
        for job in engine.instance.sequence:
            cumulative[job.color][job.arrival + 1] += 1
        for series in cumulative.values():
            for i in range(1, horizon + 1):
                series[i] += series[i - 1]
        self._future = cumulative

    def reconfigure(self, engine: GeneralEngine) -> None:
        margin = self.hysteresis * engine.delta
        k = engine.round_index
        horizon = engine.instance.horizon
        end = min(horizon, k + self.window)
        start = min(k + 1, horizon)
        pending = engine.pending
        # Backlog plus the arrivals in rounds (k, k + window).
        scores = {
            color: len(pending[color]) + series[end] - series[start]
            for color, series in self._future.items()
        }
        challengers = sorted(
            (c for c in scores if c not in engine.cache and scores[c] > 0),
            key=lambda c: (-scores[c], c),
        )
        for color in challengers:
            if not engine.cache.is_full():
                engine.cache_insert(color, section="lookahead")
                continue
            victim = min(
                engine.cache.cached_colors(), key=lambda c: (scores[c], c)
            )
            if scores[color] >= scores[victim] + margin:
                engine.cache_evict(victim)
                engine.cache_insert(color, section="lookahead")
            else:
                break


@dataclass(frozen=True)
class HeuristicOutcome:
    """Cheapest heuristic of a portfolio and the candidates considered.

    Candidates are scored on the engine's ``record="costs"`` path, so
    :attr:`cost` and :attr:`candidates` never build a schedule; reading
    :attr:`best` replays only the winning policy with ``record="full"``.
    """

    instance: Instance
    num_resources: int
    candidates: tuple[tuple[str, int], ...]
    #: Builds a fresh instance of the winning (first cheapest) policy.
    winner: Callable[[], GeneralPolicy]

    @property
    def cost(self) -> int:
        return min(cost for _, cost in self.candidates)

    @cached_property
    def best(self) -> RunResult:
        """The winning policy's full run: schedule, trace and costs."""
        return simulate_general(self.instance, self.winner(), self.num_resources)


def best_offline_heuristic(
    instance: Instance,
    num_resources: int,
    *,
    windows: tuple[int, ...] = (16, 64, 256),
    hysteresis_values: tuple[float, ...] = (0.5, 1.0, 2.0),
) -> HeuristicOutcome:
    """Run a small portfolio of hindsight policies; return the cheapest.

    The portfolio: lookahead greedy over a grid of windows and
    hysteresis values, plain (online) greedy, and a static partition
    weighted by total per-color demand.
    """
    portfolio: list[tuple[str, Callable[[], GeneralPolicy]]] = [
        (
            f"lookahead(w={window},h={hysteresis})",
            partial(LookaheadPolicy, window, hysteresis),
        )
        for window in windows
        for hysteresis in hysteresis_values
    ]
    portfolio.append(("greedy", GreedyPendingPolicy))
    demand = instance.sequence.count_by_color()
    if demand:
        weights = {c: float(n) for c, n in demand.items()}
        portfolio.append(
            ("static-demand", partial(StaticPartitionPolicy, weights=weights))
        )
    candidates = tuple(
        (
            label,
            simulate_general(
                instance, make(), num_resources, record="costs"
            ).total_cost,
        )
        for label, make in portfolio
    )
    winner = min(range(len(candidates)), key=lambda i: candidates[i][1])
    return HeuristicOutcome(
        instance, num_resources, candidates, portfolio[winner][1]
    )
