"""Algorithm ΔLRU (Section 3.1.1).

ΔLRU maintains the invariant that the cache holds the eligible colors with
the most recent ΔLRU timestamps (up to the distinct-color capacity — half
the resources, the other half replicating).  The timestamp of a color only
advances when a counter wrapping event is followed by an integral multiple
of the color's delay bound, which throttles timestamp churn to roughly one
update per ``Δ`` job arrivals.

The paper proves (Appendix A, reproduced in ``EXP-A``) that ΔLRU alone is
*not* resource competitive: it happily keeps idle colors with recent
timestamps cached, starving a backlog of long-delay-bound work —
underutilization.
"""

from __future__ import annotations

from repro.simulation.engine import BatchedEngine, ReconfigurationScheme


class DeltaLRU(ReconfigurationScheme):
    """Keep the most-recently-stamped eligible colors cached.

    Ties in timestamps are broken by the consistent order of colors
    (ascending color id), making runs deterministic.
    """

    name = "dLRU"
    # Pure function of (eligibility, timestamps, cache); once desired ⊆
    # cache holds, repeat calls with frozen state are no-ops, so the
    # sparse core may skip inactive stretches and settle drains.
    stationary = True

    def reconfigure(self, engine: BatchedEngine) -> None:
        if engine.at_fixed_point():
            return
        cache = engine.cache
        top = engine.lru_order()[: cache.capacity]
        desired = set(top)
        # Maintain the invariant as a set difference: evict anything that
        # fell out of the top-capacity timestamp order, then admit the rest.
        for color in sorted(cache.cached_colors() - desired):
            engine.cache_evict(color)
        for color in top:
            if color not in cache:
                engine.cache_insert(color, section="lru")
        engine.mark_fixed_point()
