#!/usr/bin/env python3
"""Writing your own reconfiguration scheme.

The engine owns the protocol (counters, eligibility, drops, execution);
a scheme is just the reconfiguration-phase policy.  This example builds
two custom schemes and pits them against the paper's three on the same
workloads — the intended extension path for downstream users.

* ``Hybrid`` — ΔLRU-EDF with a *dynamic* split: the LRU section grows
  when recent rounds were thrash-heavy and shrinks when idle-heavy.
* ``Sticky`` — EDF with a minimum residency: a color may not be evicted
  within ``Δ`` rounds of being cached.

Run:  python examples/custom_scheme.py
"""

from repro import DeltaLRU, DeltaLRUEDF, EDF, simulate
from repro.analysis.report import format_table
from repro.simulation.engine import BatchedEngine, ReconfigurationScheme
from repro.workloads import bursty_rate_limited, random_rate_limited
from repro.workloads.adversarial import appendix_a_instance, appendix_b_instance


class StickyEDF(ReconfigurationScheme):
    """EDF with minimum residency Δ rounds (a practitioner anti-thrash)."""

    name = "sticky-EDF"

    def setup(self, engine: BatchedEngine) -> None:
        self._cached_since: dict[int, int] = {}

    def reconfigure(self, engine: BatchedEngine) -> None:
        capacity = engine.cache.capacity
        ranking = engine.rank_eligible()
        now = engine.round_index
        for color in ranking[:capacity]:
            if engine.state(color).idle or color in engine.cache:
                continue
            if engine.cache.is_full():
                victim = self._evictable(engine, ranking, now)
                if victim is None:
                    break
                engine.cache_evict(victim)
                self._cached_since.pop(victim, None)
            engine.cache_insert(color)
            self._cached_since[color] = now

    def _evictable(self, engine, ranking, now):
        cached = engine.cache.cached_colors()
        for color in reversed(ranking):
            if color in cached and now - self._cached_since.get(color, -10**9) >= engine.delta:
                return color
        return None


class AdaptiveHybrid(DeltaLRUEDF):
    """ΔLRU-EDF whose LRU fraction adapts to the observed failure mode."""

    name = "adaptive-hybrid"
    # Its nudges read the round index and the cost counters, which the
    # stationarity contract forbids, so it must not inherit the flag.
    stationary = False

    def __init__(self) -> None:
        super().__init__(lru_fraction=0.5)
        self._last_reconfigs = 0
        self._last_execs = 0

    def reconfigure(self, engine: BatchedEngine) -> None:
        # Every 16 rounds, nudge the split: thrash-heavy -> grow LRU,
        # idle-heavy -> grow EDF.
        if engine.round_index % 16 == 0 and engine.round_index > 0:
            reconfigs = engine.cost.num_reconfigs - self._last_reconfigs
            execs = engine.cost.executions - self._last_execs
            self._last_reconfigs = engine.cost.num_reconfigs
            self._last_execs = engine.cost.executions
            capacity_slots = engine.cache.capacity * 16
            if reconfigs * engine.delta > execs:
                self.lru_fraction = min(0.75, self.lru_fraction + 0.125)
            elif execs < capacity_slots // 2:
                self.lru_fraction = max(0.25, self.lru_fraction - 0.125)
        super().reconfigure(engine)


def main() -> None:
    from repro.workloads.adversarial import AppendixBConstruction

    workloads = [
        ("random", random_rate_limited(4, 3, 96, seed=1, load=0.5, bound_choices=(2, 4, 8))),
        ("bursty", bursty_rate_limited(4, 3, 96, seed=1, bound_choices=(2, 4, 8))),
        ("appendix-a", appendix_a_instance(8, 2, j=6, k=8)[1]),
        ("appendix-b", AppendixBConstruction(8, 9, 4, 8).instance()),
    ]
    scheme_factories = [DeltaLRUEDF, DeltaLRU, EDF, StickyEDF, AdaptiveHybrid]
    rows = []
    for factory in scheme_factories:
        costs = []
        for _, instance in workloads:
            scheme = factory()  # fresh scheme per run (they carry state)
            result = simulate(instance, scheme, 8)
            assert result.verify().ok
            costs.append(result.total_cost)
        rows.append((factory().name, *costs))
    print(
        format_table(
            "Custom schemes vs the paper's three (total cost, 8 resources)",
            ("scheme", *[label for label, _ in workloads]),
            rows,
        )
    )
    print()
    print(
        "ΔLRU blows up on both adversaries (recency pins idle colors); EDF\n"
        "pays for appendix-b's bait-and-switch, and the sticky residency\n"
        "hack makes it WORSE (it holds decoys longer) — ad-hoc anti-thrash\n"
        "tweaks are not a substitute for the recency half. The combination\n"
        "and its adaptive variant stay flat everywhere. Write your own\n"
        "ReconfigurationScheme subclass and drop it into simulate() to join\n"
        "this table."
    )


if __name__ == "__main__":
    main()
