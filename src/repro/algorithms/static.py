"""Static partition baseline.

Assigns cache slots to colors once, up front, proportionally to expected
demand (or round-robin when no weights are given), and never reconfigures
again.  This is the "underutilization" extreme of the introduction's
dilemma: one reconfiguration burst, then every workload shift turns into
drops.  Used as a comparator in the motivation experiment (``EXP-M``).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.simulation.general import GeneralEngine, GeneralPolicy


class StaticPartitionPolicy(GeneralPolicy):
    """Configure a fixed color per slot in round 0 and never change it."""

    name = "static"
    # Only acts in (round 0, mini-round 0), which the sparse core never
    # skips; every later call is a no-op by construction, so inactive
    # stretches fast-forward.
    stationary = True

    def __init__(
        self,
        assignment: Sequence[int] | None = None,
        weights: Mapping[int, float] | None = None,
    ) -> None:
        """``assignment`` lists the color for each slot explicitly; or
        ``weights`` apportions slots proportionally (largest remainder).
        With neither, slots are assigned round-robin over declared colors.
        """
        if assignment is not None and weights is not None:
            raise ValueError("give either an explicit assignment or weights")
        self._assignment = list(assignment) if assignment is not None else None
        self._weights = dict(weights) if weights is not None else None

    def setup(self, engine: GeneralEngine) -> None:
        capacity = engine.cache.capacity
        if self._assignment is not None:
            plan = self._assignment
            if len(plan) > capacity:
                raise ValueError(
                    f"assignment lists {len(plan)} slots, cache has {capacity}"
                )
        elif self._weights is not None:
            plan = _largest_remainder(self._weights, capacity)
        else:
            colors = sorted(engine.instance.spec.delay_bounds)
            plan = [colors[i % len(colors)] for i in range(capacity)]
        self._plan = plan

    def reconfigure(self, engine: GeneralEngine) -> None:
        if engine.round_index > 0 or engine.mini_round > 0:
            return
        # Multiple slots may carry the same color: insert once per distinct
        # color, then widen by re-inserting into extra slots is not possible
        # with a distinct-color pool, so replicate by declaring the color
        # once and letting `copies` handle width. Distinct slots hold
        # distinct colors; duplicate plan entries are collapsed.
        seen: set[int] = set()
        for color in self._plan:
            if color in seen or color in engine.cache:
                continue
            seen.add(color)
            if engine.cache.is_full():
                break
            engine.cache_insert(color, section="static")


def _largest_remainder(weights: Mapping[int, float], capacity: int) -> list[int]:
    """Apportion ``capacity`` slots to colors proportionally to weights."""
    total = sum(weights.values())
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    shares = {c: capacity * w / total for c, w in weights.items()}
    floors = {c: int(share) for c, share in shares.items()}
    remaining = capacity - sum(floors.values())
    by_remainder = sorted(
        weights, key=lambda c: (-(shares[c] - floors[c]), c)
    )
    for c in by_remainder[:remaining]:
        floors[c] += 1
    plan: list[int] = []
    for color in sorted(weights):
        plan.extend([color] * floors[color])
    return plan
