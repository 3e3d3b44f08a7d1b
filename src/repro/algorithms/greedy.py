"""Greedy most-pending baseline with hysteresis.

Each round the policy wants the colors with the largest pending backlogs
cached.  A swap only happens when the challenger's backlog exceeds the
victim's by at least ``hysteresis * Δ`` pending jobs, which interpolates
between the two failure modes of the introduction: ``hysteresis = 0``
thrashes, very large hysteresis underutilizes.  Used as a practitioner's
strawman in ``EXP-M`` and the ablations.
"""

from __future__ import annotations

from repro.simulation.general import GeneralEngine, GeneralPolicy


class GreedyPendingPolicy(GeneralPolicy):
    """Cache the colors with the most pending jobs, with sticky swaps."""

    name = "greedy-pending"
    # Zero backlog ⇒ no challengers ⇒ no-op, and evictions only happen
    # paired with an insertion.
    stationary = True

    def __init__(self, hysteresis: float = 1.0) -> None:
        if hysteresis < 0:
            raise ValueError("hysteresis must be nonnegative")
        self.hysteresis = hysteresis

    def reconfigure(self, engine: GeneralEngine) -> None:
        # A completed pass is idempotent only with positive hysteresis
        # (at margin 0, equal-backlog colors can swap endlessly), so the
        # fixed-point elision of the O(colors) backlog scan is gated on
        # it; the round driver's dense mode never honors at_fixed_point,
        # so every pass runs there and parity stays testable.
        sticky = self.hysteresis > 0
        if sticky and engine.at_fixed_point():
            return
        capacity = engine.cache.capacity
        margin = self.hysteresis * engine.delta
        backlog = {
            color: engine.pending_count(color)
            for color in engine.instance.spec.delay_bounds
        }
        # Challengers: uncached colors by descending backlog.
        challengers = sorted(
            (c for c in backlog if c not in engine.cache and backlog[c] > 0),
            key=lambda c: (-backlog[c], c),
        )
        for color in challengers:
            if not engine.cache.is_full():
                engine.cache_insert(color, section="greedy")
                continue
            victim = min(
                engine.cache.cached_colors(), key=lambda c: (backlog[c], c)
            )
            if backlog[color] >= backlog[victim] + margin:
                engine.cache_evict(victim)
                engine.cache_insert(color, section="greedy")
            else:
                break
        if sticky:
            engine.mark_fixed_point()
