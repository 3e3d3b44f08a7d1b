"""CI gate for the trace bus's zero-overhead contract and the metrics budget.

Four promises, measured on the EXP-S quick cells, *interleaved and
best-of-N* so each pair sees the same thermal/cache conditions:

1. **Disabled tracing is free.**  A tracer over a
   :class:`~repro.obs.tracing.NullSink` reports ``enabled = False`` and
   is normalized to ``None`` at engine construction, so the hot round
   loop pays exactly one ``is not None`` check per emission site.
   Gate: geomean slowdown <= ``--threshold`` (default 3%).

2. **Live metrics are cheap.**  An attached
   :class:`~repro.obs.metrics.MetricsRegistry` uses pre-resolved
   instrument handles and *buffered* histogram observes (appends in the
   loop, one aggregated ``observe(value, n)`` per distinct value at run
   end), so live collection costs a fraction of what per-round registry
   lookups did.  Gate: geomean slowdown <= ``--metrics-threshold``
   (default 15%; was ~45-50% before the batching).

3. **Sampled tracing holds its budget.**  A
   :class:`~repro.obs.sampling.SamplingTracer` with the adaptive
   controller must keep the overhead it can actually control — the cost
   *above the floor* — under the target.  The floor is a sampling
   tracer at ``probability=0.0``: monitor events, run/phase spans, and
   the per-round keep decision are always-on guarantees (they dominate
   total overhead), so the gate measures
   ``(t_sampled - t_floor) / t_plain <= --sampling-threshold``
   (default 5%, matching the controller's default target).

4. **Series recording is cheap.**  A
   :class:`~repro.obs.timeseries.SeriesRecorder` (with the example alert
   rules attached) samples a streaming session once per segment — a
   bounded amount of work on a coarse clock — so attaching metric
   history + alerting to a stream must cost <= ``--series-threshold``
   (default 5%) over the same stream with a bare registry.

Best-of-N is the right statistic: both variants of each pair run nearly
identical code, so any gap beyond the real overhead is scheduling noise,
and the minimum is the noise-robust estimator.  All sections also
assert the instrumented run's cost is bit-identical to the plain one.
Every gate runs and prints its readings even after an earlier one
fails; the exit status is 1 if any gate failed.

Usage::

    PYTHONPATH=src python benchmarks/check_tracing_overhead.py
"""

from __future__ import annotations

import argparse
import math
import sys
import time

#: (colors, delta, horizon, resources) — mirrors the EXP-S quick cells.
CELLS = (
    (4, 2, 512, 8),
    (8, 4, 512, 16),
    (8, 4, 2048, 16),
)


def _run_cell(instance, resources, tracer=None, registry=None):
    from repro.algorithms.dlru_edf import DeltaLRUEDF
    from repro.simulation.engine import simulate

    start = time.perf_counter()
    result = simulate(
        instance,
        DeltaLRUEDF(),
        resources,
        record="costs",
        tracer=tracer,
        registry=registry,
    )
    return time.perf_counter() - start, result.total_cost


def _gate(label, repeats, variant_factory, threshold) -> tuple[bool, list[float]]:
    """Run paired cells; variant_factory() -> kwargs for the variant run."""
    from repro.workloads.random_batched import random_rate_limited

    ratios = []
    print(f"{label}: {repeats} paired runs per cell")
    for colors, delta, horizon, resources in CELLS:
        instance = random_rate_limited(
            colors, delta, horizon, seed=0, load=0.6, bound_choices=(2, 4, 8)
        )
        best_plain = math.inf
        best_variant = math.inf
        cost_plain = cost_variant = None
        for _ in range(repeats):
            # Interleave the pair so both see the same machine state.
            seconds, cost_plain = _run_cell(instance, resources)
            best_plain = min(best_plain, seconds)
            seconds, cost_variant = _run_cell(
                instance, resources, **variant_factory()
            )
            best_variant = min(best_variant, seconds)
        if cost_plain != cost_variant:
            print(
                f"  FATAL: cell {(colors, delta, horizon, resources)} "
                f"cost diverged: {cost_plain} plain vs {cost_variant} "
                "instrumented"
            )
            return False, ratios
        ratio = best_variant / best_plain
        ratios.append(ratio)
        print(
            f"  colors={colors} horizon={horizon}: "
            f"{best_plain * 1e3:.1f}ms plain, "
            f"{best_variant * 1e3:.1f}ms instrumented (x{ratio:.3f})"
        )
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    overhead = geomean - 1.0
    print(f"  geomean overhead: {overhead:+.1%} (gate {threshold:.0%})")
    return overhead <= threshold, ratios


def _sampling_gate(repeats: int, threshold: float) -> bool:
    """Adaptive sampling must hold its above-floor overhead budget.

    Interleaves plain / floor (``probability=0.0``) / adaptive runs so
    all three see the same machine state, takes best-of-N each, and
    gates the *time-weighted* above-floor overhead across cells:
    ``(sum(t_sampled) - sum(t_floor)) / sum(t_plain)``.  Per-cell ratios
    on the small cells are printed but not gated — a millisecond of
    scheduler noise is 20% of a 5ms run.  Timing runs with gc paused.
    Also requires all three costs bit-identical (sampling is strictly
    observational).
    """
    import gc

    from repro.obs.sampling import SamplingController, SamplingTracer
    from repro.obs.tracing import MemorySink
    from repro.workloads.random_batched import random_rate_limited

    def _floor():
        return SamplingTracer(
            MemorySink(), controller=SamplingController(probability=0.0, seed=0)
        )

    def _adaptive():
        return SamplingTracer(
            MemorySink(),
            controller=SamplingController(target_overhead=0.05, seed=0),
        )

    print(f"sampled tracing gate: {repeats} interleaved triples per cell")
    totals = {"plain": 0.0, "floor": 0.0, "sampled": 0.0}
    gc_was_enabled = gc.isenabled()
    try:
        for colors, delta, horizon, resources in CELLS:
            instance = random_rate_limited(
                colors, delta, horizon, seed=0, load=0.6, bound_choices=(2, 4, 8)
            )
            best = {"plain": math.inf, "floor": math.inf, "sampled": math.inf}
            costs = {}
            for _ in range(repeats):
                for key, kwargs in (
                    ("plain", {}),
                    ("floor", {"tracer": _floor()}),
                    ("sampled", {"tracer": _adaptive()}),
                ):
                    gc.collect()
                    gc.disable()
                    try:
                        seconds, costs[key] = _run_cell(
                            instance, resources, **kwargs
                        )
                    finally:
                        gc.enable()
                    best[key] = min(best[key], seconds)
            if len(set(costs.values())) != 1:
                print(
                    f"  FATAL: cell {(colors, delta, horizon, resources)} "
                    f"cost diverged under sampling: {costs}"
                )
                return False
            for key in totals:
                totals[key] += best[key]
            above_floor = (best["sampled"] - best["floor"]) / best["plain"]
            print(
                f"  colors={colors} horizon={horizon}: "
                f"{best['plain'] * 1e3:.1f}ms plain, "
                f"{best['floor'] * 1e3:.1f}ms floor, "
                f"{best['sampled'] * 1e3:.1f}ms adaptive "
                f"(above-floor {above_floor:+.1%})"
            )
    finally:
        if not gc_was_enabled:
            gc.disable()
    aggregate = (totals["sampled"] - totals["floor"]) / totals["plain"]
    print(
        f"  time-weighted above-floor overhead: {aggregate:+.1%} "
        f"(gate {threshold:.0%})"
    )
    return aggregate <= threshold


def _recorder_gate(repeats: int, threshold: float) -> bool:
    """A series recorder + alert rules must barely tax a stream.

    Streams the same rate-limited workload twice per repeat — bare
    registry vs. registry + :class:`SeriesRecorder` with the example
    alert rules — interleaved, best-of-N, and gates the slowdown.  The
    recorder samples once per segment (the deterministic round clock),
    so its cost is O(instruments) on a coarse clock, not per-round.
    Costs must stay bit-identical: recording is strictly observational.
    """
    import math as _math

    from repro.algorithms.dlru_edf import DeltaLRUEDF
    from repro.obs import MetricsRegistry, SeriesRecorder
    from repro.obs.alerts import example_rules
    from repro.streaming import StreamSession, rate_limited_source

    rounds, segment = 8192, 256

    def _run(with_recorder: bool):
        registry = MetricsRegistry()
        recorder = None
        if with_recorder:
            recorder = SeriesRecorder(registry, rules=example_rules())
        session = StreamSession(
            rate_limited_source(6, 8, seed=0, load=0.6, bound_choices=(8, 16)),
            DeltaLRUEDF(),
            8,
            registry=registry,
            recorder=recorder,
            segment_rounds=segment,
        )
        start = time.perf_counter()
        result = session.run(rounds)
        return time.perf_counter() - start, result.total_cost

    print(f"series-recorder gate: {repeats} paired {rounds}-round streams")
    best_plain = best_recorded = _math.inf
    cost_plain = cost_recorded = None
    for _ in range(repeats):
        seconds, cost_plain = _run(False)
        best_plain = min(best_plain, seconds)
        seconds, cost_recorded = _run(True)
        best_recorded = min(best_recorded, seconds)
    if cost_plain != cost_recorded:
        print(
            f"  FATAL: cost diverged: {cost_plain} bare vs "
            f"{cost_recorded} recorded"
        )
        return False
    ratio = best_recorded / best_plain
    print(
        f"  {best_plain * 1e3:.1f}ms bare registry, "
        f"{best_recorded * 1e3:.1f}ms with recorder+rules "
        f"(x{ratio:.3f}, gate {threshold:.0%})"
    )
    return ratio - 1.0 <= threshold


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.03,
        help="allowed fractional null-sink slowdown (default 0.03)",
    )
    parser.add_argument(
        "--metrics-threshold",
        type=float,
        default=0.15,
        help="allowed fractional live-registry slowdown (default 0.15)",
    )
    parser.add_argument(
        "--sampling-threshold",
        type=float,
        default=0.05,
        help="allowed above-floor adaptive-sampling slowdown (default 0.05)",
    )
    parser.add_argument(
        "--series-threshold",
        type=float,
        default=0.05,
        help="allowed fractional series-recorder slowdown (default 0.05)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=15,
        help="paired repetitions per cell; best-of wins (default 15)",
    )
    args = parser.parse_args(argv)

    from repro.obs import MetricsRegistry, NullSink, Tracer

    failures = 0
    ok_null, _ = _gate(
        "null-sink tracing gate",
        args.repeats,
        lambda: {"tracer": Tracer(NullSink())},
        args.threshold,
    )
    if not ok_null:
        failures += 1
        print(
            "FAIL: a disabled tracer must be free — a hot-loop emission "
            "site is probably paying more than its `is not None` check"
        )

    ok_metrics, _ = _gate(
        "live metrics gate",
        args.repeats,
        lambda: {"registry": MetricsRegistry()},
        args.metrics_threshold,
    )
    if not ok_metrics:
        failures += 1
        print(
            "FAIL: live metrics exceed the budget — check that histogram "
            "observes are buffered and instrument handles are pre-resolved "
            "(EngineInstruments.flush)"
        )

    if not _sampling_gate(args.repeats, args.sampling_threshold):
        failures += 1
        print(
            "FAIL: adaptive sampling exceeds its above-floor budget — "
            "check that the controller starts at min_probability and that "
            "the engine's keep_round shortcut is wired (RoundDriver."
            "_run_rounds)"
        )

    if not _recorder_gate(args.repeats, args.series_threshold):
        failures += 1
        print(
            "FAIL: the series recorder exceeds its budget — sampling must "
            "stay once-per-segment and O(instruments) per sample (check "
            "SeriesRecorder.sample and Series._compact)"
        )

    if failures:
        print(f"fail: {failures} of 4 gates over budget")
        return 1
    print("pass: tracing, metrics, sampling, and series recording are "
          "within their budgets")
    return 0

if __name__ == "__main__":
    sys.exit(main())
