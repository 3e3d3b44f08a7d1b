"""Algorithm ΔLRU-EDF (Section 3.1.3) — the paper's core contribution.

The reconfiguration scheme keeps *two* sets of colors configured:

1. **LRU set** — the ``n/4`` eligible colors with the most recent ΔLRU
   timestamps (a quarter of the resources, doubled by replication).  This
   is the recency component: colors with short delay bounds stay cached as
   long as their timestamps are recent even while momentarily idle, which
   suppresses thrashing.
2. **EDF set** — among the eligible *non-LRU* colors, the nonidle ones in
   the top ``n/4`` of the EDF ranking are brought in, evicting the
   lowest-ranked non-LRU cached colors as needed.  This is the deadline
   component: it keeps the resources utilized.

Theorem 1 shows this combination is resource competitive for rate-limited
``[Δ | 1 | D_ℓ | D_ℓ]`` with power-of-two bounds when given ``n = 8m``
resources (empirically reproduced in ``EXP-T1``).
"""

from __future__ import annotations

from repro.simulation.engine import BatchedEngine, ReconfigurationScheme
from repro.simulation.resources import CachePool


class DeltaLRUEDF(ReconfigurationScheme):
    """Combined recency + deadline reconfiguration scheme."""

    name = "dLRU-EDF"
    # Both components are pure functions of the scheme-visible state; the
    # LRU set is cached after one call and the EDF component only admits
    # nonidle colors, so frozen state ⇒ no-op.
    stationary = True

    def __init__(self, lru_fraction: float = 0.5) -> None:
        """``lru_fraction`` splits the distinct-color capacity between the
        LRU and EDF sections.  The paper uses an even split (``n/4`` each
        out of ``n/2`` distinct slots); other splits are exposed for the
        ablation experiments (``EXP-ABL``).
        """
        if not 0.0 <= lru_fraction <= 1.0:
            raise ValueError("lru_fraction must lie in [0, 1]")
        self.lru_fraction = lru_fraction

    def reconfigure(self, engine: BatchedEngine) -> None:
        if engine.at_fixed_point():
            return
        capacity = engine.cache.capacity
        lru_capacity = int(capacity * self.lru_fraction)
        edf_capacity = capacity - lru_capacity

        cache = engine.cache
        # Step 1: the ΔLRU component. The LRU set is the lru_capacity
        # eligible colors with the most recent timestamps; they must all be
        # cached.
        lru_top = engine.lru_order()[:lru_capacity]
        lru_set = set(lru_top)
        # Rank eligible non-LRU colors the EDF way; this ranking also
        # supplies eviction victims (cached colors are always eligible).
        non_lru_ranking = [
            c for c in engine.rank_eligible() if c not in lru_set
        ]
        for color in lru_top:
            if color in cache:
                continue
            if cache.is_full():
                victim = self._lowest_ranked_cached(cache, non_lru_ranking)
                engine.cache_evict(victim)
            engine.cache_insert(color, section="lru")

        # Step 2: the EDF component over non-LRU colors. X is the set of
        # nonidle, non-LRU colors in the top edf_capacity ranks that are
        # not cached; bring all of them in.
        admit = [
            color
            for color in non_lru_ranking[:edf_capacity]
            if not engine.state(color).idle and color not in cache
        ]
        for color in admit:
            if cache.is_full():
                victim = self._lowest_ranked_cached(cache, non_lru_ranking)
                engine.cache_evict(victim)
            engine.cache_insert(color, section="edf")
        engine.mark_fixed_point()

    @staticmethod
    def _lowest_ranked_cached(
        cache: CachePool, non_lru_ranking: list[int]
    ) -> int:
        """The cached non-LRU color with the lowest EDF rank."""
        for color in reversed(non_lru_ranking):
            if color in cache:
                return color
        raise RuntimeError(
            "cache full of LRU colors; capacity split leaves no EDF room"
        )
