"""The ledger's six workloads: inputs, the timed operation, its checks.

Every workload is a closed loop with one caller: the next operation (op)
starts when the previous one returns.  Inputs derive from the run seed
and the op's input index only (:func:`op_seed`), so a run is a fixed
amount of work: two commits measured with the same seed and run length
do exactly the same ops on exactly the same inputs.

A workload implements

* ``prepare(index)`` -- build input ``index`` (untimed; it is set-up);
  index ``-1`` is the warm-up op's input;
* ``step(i, inp, spans)`` -- run op ``i`` and return ``(result, times)``,
  where ``times["op"]`` is the op's wall time and other keys time its
  parts (or, traced, the dense core beside it).  With ``spans`` set it
  also records the op as a root span;
* ``check(inp, result)`` -- invariants that hold on any seed;
* ``record(result)`` -- the output compared against ``golden.json``;
* ``counters(inp, result)`` -- exact work counts, summed over ops;
* ``instrument(spans)`` -- the traced run's wrappers (inside
  :meth:`Spans.patched`, which restores them).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.analysis import adversary_search
from repro.analysis.adversary_search import SearchConfig, search_adversary
from repro.obs.alerts import example_rules
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import PhaseProfiler
from repro.obs.timeseries import SeriesRecorder
from repro.offline import optimal as offline_optimal
from repro.offline.optimal import optimal_offline
from repro.reductions import distribute as reductions_distribute
from repro.reductions import varbatch as reductions_varbatch
from repro.reductions.pipeline import run_pipeline
from repro.simulation.engine import BatchedEngine, simulate
from repro.streaming import session as streaming_session
from repro.streaming import (
    AdmissionPolicy,
    GeneratorSource,
    StreamCheckpoint,
    StreamSession,
)
from repro.workloads import random_general, random_rate_limited
from repro.workloads.streaming import RateLimitedStream

from spans import Spans, engine_attrs


def op_seed(seed: int, index: int) -> int:
    """Generator seed of input ``index`` (``-1``: the warm-up input)."""
    return seed * 1_000_000 + index + 1


def _root(spans: Spans | None, op_id: int):
    return nullcontext() if spans is None else spans.root(op_id)


def _timed(spans: Spans | None, name: str, fn, *args, **kwargs):
    """Call ``fn``, as a span named ``name`` when tracing; return
    ``(result, seconds)``."""
    call = fn if spans is None else spans.wrap(name, fn)
    started = perf_counter()
    result = call(*args, **kwargs)
    return result, perf_counter() - started


class Workload:
    name = ""
    #: Ops per second of run length (``run_seconds`` of BENCHMARK.json,
    #: 10).  Every workload runs at least 100 ops, 6-13 s of them on a
    #: 2-CPU x86 container: the fewest that give a p90 ten samples at or
    #: above it, so that many repeated runs of all six stay short.
    ops_per_second = 10.0
    #: Consecutive ops that share one generated input (inputs that take
    #: longer to generate than to run would otherwise dominate set-up).
    reuse = 1
    #: ``(metric, unit, counter, time key)``: Σ counter / Σ times.
    rates: tuple[tuple[str, str, str, str], ...] = ()
    #: ``(metric, time key, quantile)``: a latency of a part of the op.
    latencies: tuple[tuple[str, str, float], ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def op_count(self, seconds: float) -> int:
        return max(2, round(self.ops_per_second * seconds))

    def prepare(self, index: int):
        return None

    def warm_up(self) -> None:
        """One untimed op on its own input, so lazy imports and caches
        are in place before the first timed op."""
        self.step(-1, self.prepare(-1), None)

    def step(self, i: int, inp, spans: Spans | None):
        raise NotImplementedError

    def check(self, inp, result) -> list[str]:
        return []

    def record(self, result):
        raise NotImplementedError

    def counters(self, inp, result) -> dict[str, int]:
        return {}

    def instrument(self, spans: Spans) -> None:
        pass

    def final(self):
        """Run-level output checked against golden (``None``: none)."""
        return None

    def layer_extras(self, spans: Spans, counters: dict, n_ops: int) -> dict[str, float]:
        """Traced-run layer metrics beyond span times and counters/op."""
        return {}


def _cost_identity(cost, jobs: int) -> list[str]:
    """Every job is executed or dropped exactly once."""
    if cost.executions + cost.num_drops != jobs:
        return [
            f"executions {cost.executions} + drops {cost.num_drops} != "
            f"{jobs} jobs"
        ]
    return []


class _Core(Workload):
    """One ``simulate()`` on the default sparse core, then one on the
    vectorized core, timed separately, on the same instance."""

    resources = 32
    rates = (
        ("rounds_per_s", "rounds/s", "rounds", "sparse"),
        ("vec_rounds_per_s", "rounds/s", "rounds", "vec"),
        ("simulation.dense.rounds_per_s", "rounds/s", "rounds", "dense"),
    )
    #: Ops that also time the dense reference core in a traced run.
    dense_ops = 10

    def step(self, i, inst, spans):
        sparse_call = vec_call = simulate
        profiler = None
        if spans is not None:
            profiler = PhaseProfiler()
            sparse_call = spans.wrap(
                "simulation.simulate", simulate, engine_attrs("sparse", profiler)
            )
            vec_call = spans.wrap("simulation.vec", simulate, engine_attrs("vectorized"))
        with _root(spans, i):
            t0 = perf_counter()
            sparse = sparse_call(
                inst, DeltaLRUEDF(), self.resources, record="costs", profiler=profiler
            )
            t1 = perf_counter()
            vec = vec_call(
                inst, DeltaLRUEDF(), self.resources, record="costs", engine="vectorized"
            )
            t2 = perf_counter()
        times = {"op": t2 - t0, "sparse": t1 - t0, "vec": t2 - t1}
        if spans is not None and i < self.dense_ops:
            # The dense reference core, outside the op: its throughput
            # gives the dense -> sparse and dense -> vectorized ratios.
            started = perf_counter()
            simulate(inst, DeltaLRUEDF(), self.resources, record="costs", engine="dense")
            times["dense"] = perf_counter() - started
        return (sparse, vec), times

    def check(self, inst, result):
        sparse, vec = result
        errors = _cost_identity(sparse.cost, len(inst.sequence))
        if sparse.cost != vec.cost:
            errors.append(
                f"sparse cost {sparse.total_cost} != vectorized cost "
                f"{vec.total_cost}"
            )
        if sparse.rounds_total != inst.horizon:
            errors.append(f"covered {sparse.rounds_total} of {inst.horizon} rounds")
        return errors

    def record(self, result):
        return result[0].total_cost

    def counters(self, inst, result):
        sparse, vec = result
        return {
            "rounds": sparse.rounds_total * sparse.speed,
            "rounds_executed": sparse.rounds_executed,
            "vec_rounds_executed": vec.rounds_executed,
            "cost": sparse.total_cost,
        }


class CoreDense(_Core):
    name = "core-dense"
    reuse = 5

    def prepare(self, index):
        return random_rate_limited(
            32, 4, 1024, seed=op_seed(self.seed, index), load=0.6,
            bound_choices=(2, 4, 8, 16),
        )


class CoreIdle(_Core):
    name = "core-idle"
    reuse = 5

    def prepare(self, index):
        return random_rate_limited(
            16, 4, 16384, seed=op_seed(self.seed, index), load=0.25,
            bound_choices=(128, 256, 512),
        )


class PipelineGeneral(Workload):
    name = "pipeline-general"
    resources = 16
    rates = (("rounds_per_s", "rounds/s", "rounds", "op"),)

    def prepare(self, index):
        return random_general(
            16, 4, 4096, seed=op_seed(self.seed, index), rate=0.05,
            bound_choices=(8, 16, 32, 64),
        )

    def instrument(self, spans):
        spans.patch(reductions_varbatch, "varbatch_instance", "reductions.varbatch")
        spans.patch(
            reductions_distribute,
            "distribute_instance",
            "reductions.distribute",
            lambda out: {
                "inner_jobs": len(out[0].sequence),
                "inner_colors": len(out[0].spec.delay_bounds),
            },
        )
        spans.patch(
            reductions_distribute, "simulate", "reductions.engine", engine_attrs("sparse")
        )

    def step(self, i, inst, spans):
        with _root(spans, i):
            result, seconds = _timed(
                spans, "reductions.other", run_pipeline, inst, self.resources,
                record="costs",
            )
        return result, {"op": seconds}

    def check(self, inst, result):
        errors = _cost_identity(result.cost, len(inst.sequence))
        if result.stages[:2] != ("VarBatch", "Distribute"):
            errors.append(f"unexpected stages {result.stages}")
        return errors

    def record(self, result):
        return result.total_cost

    def counters(self, inst, result):
        return {"rounds": inst.horizon, "cost": result.total_cost}

    def layer_extras(self, spans, counters, n_ops):
        sums = {"reductions.inner_jobs": 0, "reductions.inner_colors": 0}
        for record in spans.records:
            if record["name"] == "reductions.distribute" and "attrs" in record:
                sums["reductions.inner_jobs"] += record["attrs"]["inner_jobs"]
                sums["reductions.inner_colors"] += record["attrs"]["inner_colors"]
        return {name: value / n_ops for name, value in sums.items()}


class StreamCkpt(Workload):
    """``repro stream --series --rules --checkpoint`` as a closed loop.

    One op is one segment, its checkpoint and, every ``resume_every``-th
    op, a resume from that checkpoint, so the end-to-end op times cover
    checkpoint writes and resume reads as well as the segment.  A fifth
    of the ops resume: the p50 then falls among the ops without a resume
    and the p90 among those with one, each well inside its group, where
    a tenth would put the p90 on the boundary between the two.  Segments
    are 1024 rounds: 100 ops of 2048-round segments with their
    checkpoints took 15 s, half again the longest other workload.

    The source is ``rate_limited_source``'s arrival law with a fixed
    mix of delay bounds, six colors at each of 8, 16, 32 and 64; the seed
    draws the arrivals.  ``rate_limited_source`` picks each color's bound
    from the seed, and one run serves one mix: seeds with more 64-round
    colors hold more pending jobs, write larger checkpoints, and ran up
    to 22% slower at the median and 31% at the p90, more than a bound
    may absorb.
    """

    name = "stream-ckpt"
    segment = 1024
    resume_every = 5
    bounds = {color: (8, 16, 32, 64)[color % 4] for color in range(24)}
    rates = (("rounds_per_s", "rounds/s", "rounds", "run"),)
    latencies = (
        ("ckpt_p50_ms", "ckpt", 0.5),
        ("ckpt_p90_ms", "ckpt", 0.9),
        ("resume_p50_ms", "resume", 0.5),
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.path = workdir / "stream.ckpt.json"
        self.ckpt_bytes = 0
        source, registry, recorder = self._parts()
        self.session = StreamSession(
            source,
            DeltaLRUEDF(),
            32,
            policy=AdmissionPolicy(queue_cap=32),
            registry=registry,
            recorder=recorder,
            segment_rounds=self.segment,
        )

    def warm_up(self):
        # Op -1 resumes too, so checkpoint and resume code is warm.
        super().warm_up()
        self.ckpt_bytes = 0

    def _parts(self):
        law = RateLimitedStream(self.bounds, 32, load=0.5, seed=op_seed(self.seed, 0))
        source = GeneratorSource(law.spec, law.batch_counts, name="ledger-stream")
        registry = MetricsRegistry()
        recorder = SeriesRecorder(registry, rules=example_rules(32))
        return source, registry, recorder

    def instrument(self, spans):
        spans.patch(streaming_session, "Instance", "streaming.instance")
        spans.patch(streaming_session, "RequestSequence", "streaming.instance")
        spans.patch(streaming_session, "BatchedEngine", "streaming.engine_construct")
        spans.patch(BatchedEngine, "run", "streaming.engine_run")
        spans.patch(BatchedEngine, "export_state", "streaming.state")
        spans.patch(BatchedEngine, "import_state", "streaming.state")
        self._instrument_session(spans)

    def _instrument_session(self, spans):
        session = self.session
        spans.patch(session.source, "batch", "streaming.source")
        spans.patch(session.ingest, "admit", "streaming.admit")
        spans.patch(session.scheme, "state_dict", "streaming.state")
        spans.patch(session.scheme, "load_state", "streaming.state")
        spans.patch(session.recorder, "sample", "obs.recorder_sample")

    def step(self, i, _inp, spans):
        session = self.session
        before = session.result()
        resume = (i + 1) % self.resume_every == 0
        if resume:
            # The resumed session's fresh source and obs objects are its
            # inputs: built before the op, like every other input.
            source, registry, recorder = self._parts()
        with _root(spans, i):
            started = perf_counter()
            result, run_s = _timed(spans, "streaming.other", session.run, self.segment)
            times = {"run": run_s}
            # Scoped patches: the registry is also snapshotted inside
            # session.run, which is not checkpoint work.
            with spans.patched() if spans is not None else nullcontext():
                if spans is not None:
                    spans.patch(StreamCheckpoint, "save", "streaming.ckpt_write")
                    spans.patch(session.registry, "snapshot", "obs.snapshot")
                _, times["ckpt"] = _timed(
                    spans, "streaming.ckpt_build", session.save_checkpoint, self.path
                )
            if resume:
                with spans.patched() if spans is not None else nullcontext():
                    if spans is not None:
                        spans.patch(registry, "merge_snapshot", "obs.merge_snapshot")
                        spans.patch(StreamCheckpoint, "load", "streaming.resume_load")
                    self.session, times["resume"] = _timed(
                        spans,
                        "streaming.resume_restore",
                        StreamSession.resume,
                        source,
                        DeltaLRUEDF(),
                        self.path,
                        registry=registry,
                        recorder=recorder,
                        segment_rounds=self.segment,
                    )
            times["op"] = perf_counter() - started
        self.ckpt_bytes += self.path.stat().st_size
        resumed = None
        if resume:
            if spans is not None:
                self._instrument_session(spans)
            resumed = self.session.result()
        return (before, result, resumed), times

    def check(self, _inp, outcome):
        before, result, resumed = outcome
        errors = []
        if result.rounds != before.rounds + self.segment:
            errors.append(f"advanced to round {result.rounds} from {before.rounds}")
        if result.offered != result.admitted + result.rejected:
            errors.append(
                f"offered {result.offered} != admitted {result.admitted} + "
                f"rejected {result.rejected}"
            )
        if resumed is not None and (
            resumed.cost != result.cost
            or resumed.rounds != result.rounds
            or resumed.offered != result.offered
        ):
            errors.append(
                f"resume at round {resumed.rounds} restored cost "
                f"{resumed.total_cost}, expected {result.total_cost} at "
                f"round {result.rounds}"
            )
        return errors

    def record(self, outcome):
        return outcome[1].total_cost

    def counters(self, _inp, outcome):
        before, result, _ = outcome
        return {
            "rounds": (result.rounds - before.rounds) * result.speed,
            "streaming.offered": result.offered - before.offered,
            "streaming.admitted": result.admitted - before.admitted,
            "streaming.rejected": result.rejected - before.rejected,
        }

    def final(self):
        return self.session.cost.summary()

    def layer_extras(self, spans, counters, n_ops):
        offered = counters.get("streaming.offered", 0)
        return {
            "streaming.ckpt_bytes": self.ckpt_bytes / n_ops,
            "streaming.rejection_rate": (
                counters.get("streaming.rejected", 0) / offered if offered else 0.0
            ),
        }


class SearchShort(Workload):
    name = "search-short"
    ops_per_second = 10.0
    iterations = 40
    restarts = 2
    rates = (("evals_per_s", "evals/s", "search.evaluations", "op"),)

    def prepare(self, index):
        return SearchConfig(
            iterations=self.iterations,
            restarts=self.restarts,
            seed=op_seed(self.seed, index),
        )

    def instrument(self, spans):
        spans.patch(adversary_search, "simulate", "search.online", engine_attrs("sparse"))
        spans.patch(adversary_search, "best_offline_heuristic", "search.bound")

    def step(self, i, config, spans):
        with _root(spans, i):
            result, seconds = _timed(
                spans, "search.other", search_adversary, DeltaLRUEDF, config
            )
        return result, {"op": seconds}

    def check(self, config, result):
        expected = config.restarts * (1 + config.iterations // config.restarts)
        errors = []
        if result.evaluations != expected:
            errors.append(f"{result.evaluations} evaluations, expected {expected}")
        if not (math.isfinite(result.best_ratio) and result.best_ratio >= 0):
            errors.append(f"best ratio {result.best_ratio}")
        return errors

    def record(self, result):
        return [result.best_ratio, result.evaluations]

    def counters(self, config, result):
        return {
            "search.evaluations": result.evaluations,
            "search.score_cache_hits": result.score_cache_hits,
            "search.score_cache_misses": result.score_cache_misses,
        }

    def layer_extras(self, spans, counters, n_ops):
        hits = counters.get("search.score_cache_hits", 0)
        lookups = hits + counters.get("search.score_cache_misses", 0)
        return {"search.cache_hit_rate": hits / lookups if lookups else 0.0}


def bound_metric(source: str) -> str:
    """``offline.bound.<source>`` with characters outside
    ``[A-Za-z0-9_.-]`` mapped to ``_``."""
    clean = "".join(
        ch if ch.isascii() and (ch.isalnum() or ch in "_.-") else "_" for ch in source
    )
    return f"offline.bound.{clean}"


class OfflineExact(Workload):
    name = "offline-exact"
    ops_per_second = 32.0
    resources = 2
    rates = (("offline.nodes_per_s", "nodes/s", "offline.nodes_expanded", "op"),)

    def prepare(self, index):
        # Lighter than the EXP-P cells (rate 0.4 at horizons 48-96), which
        # expand 20-100% more nodes.  Solve times vary about 0.5x their
        # mean between instances on either, so percentiles that hold
        # still from seed to seed need hundreds of ops.  320 of these
        # take 12 s; with 200, ten seeds spread op_p50_ms by 0.07.  The
        # 125-225 EXP-P solves that fit the same time give it a spread
        # of 0.06-0.15 from the inputs alone (resampled from measured
        # solve times), before any host noise.
        return random_general(
            3, 2, 48, seed=op_seed(self.seed, index), rate=0.3, bound_choices=(2, 4)
        )

    def instrument(self, spans):
        spans.patch(offline_optimal, "warm_start_incumbent", "offline.warm_start")

    def step(self, i, inst, spans):
        with _root(spans, i):
            result, seconds = _timed(
                spans, "offline.solve", optimal_offline, inst, self.resources
            )
        return result, {"op": seconds}

    def check(self, inst, result):
        errors = []
        if result.cost != result.breakdown.total:
            errors.append(f"cost {result.cost} != witness {result.breakdown.total}")
        if result.warm_start_cost is not None and result.cost > result.warm_start_cost:
            errors.append(f"cost {result.cost} above incumbent {result.warm_start_cost}")
        return errors

    def record(self, result):
        return result.cost

    def counters(self, inst, result):
        counts = {"offline.nodes_expanded": result.nodes_expanded, "cost": result.cost}
        for source, count in result.bound_source_histogram.items():
            counts[bound_metric(source)] = count
        return counts


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        CoreDense,
        CoreIdle,
        PipelineGeneral,
        StreamCkpt,
        SearchShort,
        OfflineExact,
    )
}

