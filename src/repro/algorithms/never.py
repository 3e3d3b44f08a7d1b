"""Degenerate baselines: the two extremes of the introduction's dilemma.

* :class:`NeverReconfigurePolicy` never pays a reconfiguration — it drops
  every job.  Its cost (= total number of jobs) is a useful normalizer.
* :class:`AlwaysReconfigurePolicy` re-derives the most-backlogged colors
  every round with no hysteresis — maximal thrashing.
"""

from __future__ import annotations

from repro.simulation.general import GeneralEngine, GeneralPolicy


class NeverReconfigurePolicy(GeneralPolicy):
    """Leave every resource black forever; all jobs are dropped."""

    name = "never-reconfigure"
    stationary = True

    def reconfigure(self, engine: GeneralEngine) -> None:
        return None


class AlwaysReconfigurePolicy(GeneralPolicy):
    """Chase the instantaneous backlog with zero stickiness."""

    name = "always-reconfigure"
    # NOT stationary: an empty backlog makes it evict every cached color,
    # so the *first* empty-queue round still mutates the cache; the
    # engine simulates every round.

    def reconfigure(self, engine: GeneralEngine) -> None:
        capacity = engine.cache.capacity
        backlog = {
            color: engine.pending_count(color)
            for color in engine.instance.spec.delay_bounds
        }
        desired = sorted(
            (c for c in backlog if backlog[c] > 0),
            key=lambda c: (-backlog[c], c),
        )[:capacity]
        desired_set = set(desired)
        for color in sorted(engine.cache.cached_colors() - desired_set):
            engine.cache_evict(color)
        for color in desired:
            if color not in engine.cache:
                engine.cache_insert(color, section="chase")
