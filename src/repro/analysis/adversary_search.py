"""Randomized adversary search.

The appendix constructions are hand-built worst cases; this tool *hunts*
for bad inputs automatically: a mutation hill-climber over rate-limited
batched instances that maximizes an algorithm's measured competitive
ratio (cost against the best certified offline estimate).  It serves two
purposes:

* **validation** — for ΔLRU-EDF the search should plateau at a small
  constant (Theorem 1 says no input family blows up);
* **exploration** — for ΔLRU and EDF it rediscovers the appendix failure
  modes from random seeds, which the tests assert.

Instances are encoded as batch-size matrices (color x block), mutated by
point edits, and scored with a seeded, deterministic pipeline.

Restarts are independent once their random draws are fixed, so the
search pre-draws every restart's initial matrix and mutation schedule
from the single seeded generator (in the exact order a serial climb
would consume them) and then climbs each restart separately — serially,
or fanned out over a :class:`~repro.runtime.parallel.ParallelRunner`
with *identical* results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.instance import BatchMode, Instance, make_instance
from repro.core.job import JobFactory
from repro.obs.tracing import MemorySink, Tracer
from repro.offline.heuristic import best_offline_heuristic
from repro.offline.lower_bounds import combined_lower_bound
from repro.runtime.parallel import ParallelRunner
from repro.simulation.engine import ReconfigurationScheme, simulate


@dataclass
class SearchConfig:
    """Knobs of the hill climber."""

    num_colors: int = 4
    bounds: Sequence[int] = (2, 4, 8)
    horizon: int = 64
    delta: int = 2
    num_resources: int = 8
    offline_resources: int = 1
    iterations: int = 200
    restarts: int = 3
    mutations_per_step: int = 3
    seed: int = 0
    #: "lower" scores against a feasible hindsight schedule (ratio lower
    #: bound — right for showing an algorithm is bad); "upper" scores
    #: against the certified lower bound on OFF.
    denominator: str = "lower"
    #: Lookahead windows tried by the hindsight-schedule denominator
    #: (``denominator="lower"``).  More windows score tighter but slower.
    offline_windows: Sequence[int] = (32,)
    #: Hysteresis values tried by the hindsight-schedule denominator.
    offline_hysteresis: Sequence[float] = (1.0,)
    #: Optional warm start: a rate-limited instance to seed the first
    #: restart with (its per-color delay bounds override the random
    #: bound assignment).  Random mutation rarely synthesizes the
    #: knife-edge appendix structures from scratch; warm-starting shows
    #: whether a scheme's known adversary is a local optimum the search
    #: can hold on to (pure schemes) or not an adversary at all
    #: (ΔLRU-EDF).
    warm_start: Instance | None = None
    #: Opt-in cross-restart score cache: restarts climb serially sharing
    #: one :class:`ScoreCache`, so every restart sees the merged contents
    #: of all earlier ones.  Hits return exactly what recomputation
    #: would, so the best instance/ratio/trajectory stay bit-identical
    #: to the per-restart default — only the hit rate (and wall clock)
    #: change.  A passed ``runner`` is not fanned out in this mode;
    #: per-restart caching stays the default so the serial==parallel
    #: bit-identity gate is unaffected.
    shared_cache: bool = False

    def __post_init__(self) -> None:
        for name, low in (
            ("num_colors", 1),
            ("horizon", 1),
            ("num_resources", 1),
            ("offline_resources", 1),
            ("iterations", 0),
            ("restarts", 1),
            ("mutations_per_step", 0),
        ):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be at least {low}, got {value}")
        if not self.bounds or min(self.bounds) < 1:
            raise ValueError(
                f"bounds must be a non-empty list of positive delay bounds, "
                f"got {tuple(self.bounds)}"
            )
        if self.denominator not in ("lower", "upper"):
            raise ValueError(
                f"denominator must be 'lower' or 'upper', "
                f"got {self.denominator!r}"
            )


@dataclass
class SearchResult:
    """Best instance found and the score trajectory."""

    best_instance: Instance
    best_ratio: float
    trajectory: list[float] = field(default_factory=list)
    evaluations: int = 0
    #: Scoring-pipeline memoization telemetry, summed over restarts (a
    #: hit means a simulation or offline estimate was skipped entirely).
    score_cache_hits: int = 0
    score_cache_misses: int = 0
    #: Whether the run used the cross-restart shared cache.
    shared_cache: bool = False
    #: Wall-clock seconds spent climbing (compare a shared-cache run
    #: against a per-restart run of the same config for the delta).
    wall_clock_seconds: float = 0.0
    #: Seconds spent inside cache-miss computations, summed over
    #: restarts; divides out to a per-miss cost for the saved estimate.
    score_cache_miss_seconds: float = 0.0

    @property
    def score_cache_hit_rate(self) -> float:
        """Fraction of score lookups answered from the cache."""
        lookups = self.score_cache_hits + self.score_cache_misses
        return self.score_cache_hits / lookups if lookups else 0.0

    @property
    def score_cache_saved_seconds(self) -> float:
        """Estimated wall clock the cache saved: hits x mean miss cost."""
        if not self.score_cache_misses:
            return 0.0
        per_miss = self.score_cache_miss_seconds / self.score_cache_misses
        return self.score_cache_hits * per_miss


def _decode(matrix: np.ndarray, config: SearchConfig, bounds: dict[int, int]) -> Instance:
    factory = JobFactory()
    jobs = []
    for color in range(config.num_colors):
        bound = bounds[color]
        for block_index in range(matrix.shape[1]):
            start = block_index * bound
            if start >= config.horizon:
                break
            size = int(matrix[color, block_index])
            size = max(0, min(size, bound))  # rate limit
            jobs += factory.batch(start, color, bound, size)
    return make_instance(
        jobs,
        bounds,
        config.delta,
        batch_mode=BatchMode.RATE_LIMITED,
        horizon=config.horizon + max(bounds.values()),
        name="searched-adversary",
    )


class ScoreCache:
    """Content-addressed memo for the adversary scoring pipeline.

    Keys are the exact bytes of a batch-size matrix plus the bound
    assignment and a config fingerprint, so a hit can only ever return
    what recomputation would — caching never perturbs the (serial or
    parallel) search trajectory.  Hill climbs revisit matrices often: a
    point mutation that rewrites a cell to its current value reproduces
    the incumbent bit for bit.  Online and offline scores are cached
    separately because the offline denominator does not depend on the
    scheme under attack.
    """

    __slots__ = ("_online", "_offline", "hits", "misses", "miss_seconds")

    def __init__(self) -> None:
        self._online: dict[tuple, int] = {}
        self._offline: dict[tuple, int] = {}
        self.hits = 0
        self.misses = 0
        self.miss_seconds = 0.0

    def _lookup(self, table: dict, key: tuple, compute: Callable[[], int]) -> int:
        try:
            value = table[key]
            self.hits += 1
        except KeyError:
            started = time.perf_counter()
            value = table[key] = compute()
            self.miss_seconds += time.perf_counter() - started
            self.misses += 1
        return value

    def merge_from(self, other: "ScoreCache") -> None:
        """Absorb another cache's entries (post-restart merge path).

        Existing entries win: both sides are content-addressed, so a
        collision means equal values and keeping ours is free.
        """
        for mine, theirs in (
            (self._online, other._online),
            (self._offline, other._offline),
        ):
            for key, value in theirs.items():
                mine.setdefault(key, value)

    def online_cost(self, key: tuple, compute: Callable[[], int]) -> int:
        return self._lookup(self._online, key, compute)

    def offline_cost(self, key: tuple, compute: Callable[[], int]) -> int:
        return self._lookup(self._offline, key, compute)


def _matrix_key(matrix: np.ndarray, bounds: dict[int, int], horizon: int) -> tuple:
    """Content address of one candidate: canonical matrix bytes + bounds.

    The key uses the matrix as :func:`_decode` actually reads it — batch
    sizes clamped to the rate limit and blocks starting at or beyond the
    horizon zeroed — so mutations that only touch clamped or dead cells
    hit the cache instead of re-simulating an identical instance.
    """
    canon = matrix.copy()
    num_blocks = canon.shape[1]
    for color in range(canon.shape[0]):
        bound = bounds[color]
        np.clip(canon[color], 0, bound, out=canon[color])
        first_dead = (horizon + bound - 1) // bound
        if first_dead < num_blocks:
            canon[color, first_dead:] = 0
    return (canon.shape, canon.tobytes(), tuple(sorted(bounds.items())))


def _online_fingerprint(config: SearchConfig, scheme_name: str) -> tuple:
    return (
        scheme_name,
        config.num_resources,
        config.delta,
        config.horizon,
    )


def _offline_fingerprint(config: SearchConfig) -> tuple:
    return (
        config.denominator,
        config.offline_resources,
        config.delta,
        config.horizon,
        tuple(config.offline_windows),
        tuple(config.offline_hysteresis),
    )


def _score(
    instance: Instance,
    scheme_factory: Callable[[], ReconfigurationScheme],
    config: SearchConfig,
    *,
    cache: ScoreCache | None = None,
    content_key: tuple | None = None,
) -> float:
    if len(instance.sequence) == 0:
        return 0.0

    def run_online() -> int:
        # Only the total cost matters here, so take the engine fast path.
        # Every backend gives the same cost, so the default core scores.
        return simulate(
            instance, scheme_factory(), config.num_resources, record="costs"
        ).total_cost

    def run_offline() -> int:
        if config.denominator == "lower":
            return best_offline_heuristic(
                instance,
                config.offline_resources,
                windows=tuple(config.offline_windows),
                hysteresis_values=tuple(config.offline_hysteresis),
            ).cost
        return combined_lower_bound(instance, config.offline_resources)

    if cache is not None and content_key is not None:
        scheme_name = scheme_factory().name
        online_cost = cache.online_cost(
            (content_key, _online_fingerprint(config, scheme_name)), run_online
        )
        off = cache.offline_cost(
            (content_key, _offline_fingerprint(config)), run_offline
        )
    else:
        online_cost = run_online()
        off = run_offline()
    if off <= 0:
        return 0.0 if online_cost == 0 else float(online_cost)
    return online_cost / off


def encode_instance(
    instance: Instance, num_blocks: int
) -> tuple[np.ndarray, dict[int, int]]:
    """Encode a rate-limited batched instance as a batch-size matrix.

    Colors are renumbered densely in ascending order; entry ``[c, i]`` is
    the batch size of color ``c`` at its ``i``-th multiple.
    """
    colors = sorted(instance.spec.delay_bounds)
    bounds = {
        index: instance.spec.delay_bounds[color]
        for index, color in enumerate(colors)
    }
    index_of = {color: index for index, color in enumerate(colors)}
    matrix = np.zeros((len(colors), num_blocks), dtype=np.int64)
    for job in instance.sequence:
        index = index_of[job.color]
        block_index = job.arrival // job.delay_bound
        if block_index < num_blocks:
            matrix[index, block_index] += 1
    return matrix, bounds


@dataclass(frozen=True)
class _RestartPlan:
    """One restart's pre-drawn randomness: start matrix + mutation schedule."""

    matrix: np.ndarray
    #: Per step, ``mutations_per_step`` point edits ``(color, block, value)``.
    mutations: tuple[tuple[tuple[int, int, int], ...], ...]


def _plan_restarts(
    config: SearchConfig,
    bounds: dict[int, int],
    max_blocks: int,
    rng: np.random.Generator,
) -> list[_RestartPlan]:
    """Pre-draw every restart's randomness in serial-climb order.

    The hill climber's draws never depend on accept/reject decisions, so
    consuming the generator up front leaves each restart a deterministic
    pure function — parallel and serial execution agree bit for bit.
    """
    steps = config.iterations // config.restarts
    plans: list[_RestartPlan] = []
    for restart in range(config.restarts):
        if restart == 0 and config.warm_start is not None:
            matrix, _ = encode_instance(config.warm_start, max_blocks)
        else:
            matrix = rng.integers(
                0, max(config.bounds) + 1, size=(config.num_colors, max_blocks)
            )
        mutations = []
        for _ in range(steps):
            step = []
            for _ in range(config.mutations_per_step):
                color = int(rng.integers(config.num_colors))
                block_index = int(rng.integers(max_blocks))
                value = int(rng.integers(0, bounds[color] + 1))
                step.append((color, block_index, value))
            mutations.append(tuple(step))
        plans.append(_RestartPlan(matrix, tuple(mutations)))
    return plans


def _climb_restart(
    task: tuple[_RestartPlan, SearchConfig, dict[int, int], Callable, int, bool],
    cache: ScoreCache | None = None,
) -> tuple[tuple[np.ndarray, float, list[float], int, int, int, float], list]:
    """Run one restart's hill climb; module-level so it pickles to workers.

    The :class:`ScoreCache` lives for the whole restart, so every step
    that reproduces an already-scored matrix (point mutations frequently
    rewrite cells to their current values) skips its simulations.
    ``cache`` overrides the per-restart cache for the shared-cache mode;
    the returned hit/miss telemetry is this restart's delta either way.

    When ``traced`` is set, the climb narrates itself into a local
    ``MemorySink`` — a ``restart`` span plus one ``improvement`` event
    per accepted step — and returns the records alongside the result so
    the orchestrator can replay them into its tracer tagged with the
    restart id (see :meth:`~repro.runtime.parallel.ParallelRunner.map_traced`).
    """
    plan, config, bounds, scheme_factory, restart_index, traced = task
    if cache is None:
        cache = ScoreCache()
    hits0, misses0 = cache.hits, cache.misses
    miss_seconds0 = cache.miss_seconds
    tracer: Tracer | None = None
    sink: MemorySink | None = None
    if traced:
        sink = MemorySink(capacity=None)
        tracer = Tracer(sink)
        tracer.begin("restart", restart=restart_index, seed=config.seed)

    def scored(candidate: np.ndarray) -> float:
        return _score(
            _decode(candidate, config, bounds),
            scheme_factory,
            config,
            cache=cache,
            content_key=_matrix_key(candidate, bounds, config.horizon),
        )

    matrix = plan.matrix
    current_ratio = scored(matrix)
    evaluations = 1
    trajectory: list[float] = []
    for step_index, step in enumerate(plan.mutations):
        candidate = matrix.copy()
        for color, block_index, value in step:
            candidate[color, block_index] = value
        ratio = scored(candidate)
        evaluations += 1
        if ratio >= current_ratio:
            if tracer is not None and ratio > current_ratio:
                tracer.event(
                    "improvement",
                    restart=restart_index,
                    step=step_index,
                    ratio=round(ratio, 6),
                )
            matrix, current_ratio = candidate, ratio
        trajectory.append(current_ratio)
    hits = cache.hits - hits0
    misses = cache.misses - misses0
    miss_seconds = cache.miss_seconds - miss_seconds0
    if tracer is not None:
        tracer.end(
            "restart",
            restart=restart_index,
            best_ratio=round(current_ratio, 6),
            evaluations=evaluations,
            cache_hits=hits,
            cache_misses=misses,
        )
    records = sink.records if sink is not None else []
    return (
        (matrix, current_ratio, trajectory, evaluations, hits, misses, miss_seconds),
        records,
    )


def search_adversary(
    scheme_factory: Callable[[], ReconfigurationScheme],
    config: SearchConfig | None = None,
    *,
    runner: ParallelRunner | None = None,
    tracer=None,
    registry=None,
    recorder=None,
    series=None,
) -> SearchResult:
    """Hill-climb batch-size matrices to maximize the measured ratio.

    Pass a ``runner`` to climb the restarts in parallel; the result is
    identical to the serial search (see :func:`_plan_restarts`).

    Pass a ``tracer`` to record a ``search`` span with per-restart
    ``restart`` spans and ``improvement`` events — restart records are
    collected worker-side and replayed in restart order tagged
    ``restart-{i}/seed-{s}``, so serial and parallel searches emit the
    same trace.  Pass a metrics ``registry`` to accumulate
    ``adversary.*`` counters (evaluations, score-cache hits/misses).
    Pass a ``recorder`` (:class:`~repro.obs.registry.RegistrySink`) to
    append the finished search to the persistent run registry.
    Pass ``series`` (a :class:`~repro.obs.timeseries.SeriesRecorder`)
    to sample ``adversary.*`` metrics once per restart, in restart
    order — the series are identical for serial and parallel runners
    because climbs are folded in plan order, not completion order.
    """
    config = config or SearchConfig()
    rng = np.random.default_rng(config.seed)
    if config.warm_start is not None:
        warm_colors = sorted(config.warm_start.spec.delay_bounds)
        if len(warm_colors) != config.num_colors:
            raise ValueError(
                "warm_start must declare exactly num_colors colors"
            )
    bounds = {
        c: int(rng.choice(np.asarray(sorted(config.bounds))))
        for c in range(config.num_colors)
    }
    if config.warm_start is not None:
        _, bounds = encode_instance(config.warm_start, 1)
    max_blocks = config.horizon // min(bounds.values()) + 1

    active_tracer = (
        tracer
        if tracer is not None and getattr(tracer, "enabled", True)
        else None
    )
    scheme_name = scheme_factory().name
    if active_tracer is not None:
        active_tracer.begin(
            "search",
            algorithm=scheme_name,
            restarts=config.restarts,
            iterations=config.iterations,
            seed=config.seed,
        )

    plans = _plan_restarts(config, bounds, max_blocks, rng)
    traced = active_tracer is not None
    tasks = [
        (plan, config, bounds, scheme_factory, index, traced)
        for index, plan in enumerate(plans)
    ]
    tags = [
        f"restart-{index}/seed-{config.seed}" for index in range(len(plans))
    ]
    climb_started = time.perf_counter()
    if config.shared_cache:
        # Merge-as-you-go: one cache, restarts in order, each seeing the
        # merged contents of all earlier ones.  Hits return exactly what
        # recomputation would, so this matches per-restart results bit
        # for bit; a passed runner is deliberately not fanned out.
        shared = ScoreCache()
        climbs = []
        for index, task in enumerate(tasks):
            result, records = _climb_restart(task, cache=shared)
            if active_tracer is not None and records:
                active_tracer.replay(records, worker=tags[index])
            climbs.append(result)
    else:
        effective_runner = (
            runner if runner is not None else ParallelRunner(force_serial=True)
        )
        climbs = effective_runner.map_traced(
            _climb_restart, tasks, tracer=active_tracer, tags=tags
        )
    wall_clock = time.perf_counter() - climb_started

    best_matrix: np.ndarray | None = None
    best_ratio = -1.0
    trajectory: list[float] = []
    evaluations = 0
    cache_hits = 0
    cache_misses = 0
    miss_seconds = 0.0
    for restart_index, (
        matrix,
        current_ratio,
        restart_trajectory,
        restart_evals,
        hits,
        misses,
        restart_miss_seconds,
    ) in enumerate(climbs):
        trajectory.extend(restart_trajectory)
        evaluations += restart_evals
        cache_hits += hits
        cache_misses += misses
        miss_seconds += restart_miss_seconds
        if current_ratio > best_ratio:
            best_ratio, best_matrix = current_ratio, matrix
        if series is not None:
            # Per-restart history on the series recorder's own registry:
            # cumulative counters plus the best-so-far gauge, sampled on
            # the restart-index clock (deterministic in plan order).
            sr = series.registry
            sr.counter("adversary.evaluations").inc(restart_evals)
            sr.counter("adversary.score_cache_hits").inc(hits)
            sr.counter("adversary.score_cache_misses").inc(misses)
            sr.gauge("adversary.best_ratio").set(best_ratio)
            sr.gauge("adversary.restart_ratio").set(current_ratio)
            series.sample(restart_index)

    if registry is not None:
        registry.counter("adversary.evaluations").inc(evaluations)
        registry.counter("adversary.score_cache_hits").inc(cache_hits)
        registry.counter("adversary.score_cache_misses").inc(cache_misses)
        registry.counter("adversary.restarts").inc(len(plans))
        registry.gauge("adversary.best_ratio").set(best_ratio)
    if active_tracer is not None:
        active_tracer.end(
            "search",
            algorithm=scheme_name,
            best_ratio=round(best_ratio, 6),
            evaluations=evaluations,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
        )

    assert best_matrix is not None
    result = SearchResult(
        best_instance=_decode(best_matrix, config, bounds),
        best_ratio=best_ratio,
        trajectory=trajectory,
        evaluations=evaluations,
        score_cache_hits=cache_hits,
        score_cache_misses=cache_misses,
        shared_cache=config.shared_cache,
        wall_clock_seconds=wall_clock,
        score_cache_miss_seconds=miss_seconds,
    )
    if recorder is not None:
        recorder.record_search(result, scheme=scheme_name, config=config)
    return result
