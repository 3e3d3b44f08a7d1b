"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands::

    repro list                      # registered experiments
    repro run EXP-A [--quick]       # run one experiment, print its report
    repro run-all [--quick]         # run every experiment
    repro export EXP-A --dir out/   # run + write .txt/.json/.csv bundle
    repro search dlru-edf           # adversary-hunt a scheme
    repro offline --check exhaustive  # exact offline optimum, cross-checked
    repro describe trace.json       # workload statistics for a saved trace
    repro record run.jsonl          # traced run: JSONL trace + metrics
    repro stream --rounds 1000000   # unbounded arrivals, bounded memory,
                                    #   periodic checkpoints, resumable
    repro trace run.jsonl           # render a recorded trace as a timeline
    repro stats run.jsonl           # aggregate statistics of a recorded run
    repro alerts example            # starter alert-rule file (JSON)
    repro alerts check s.jsonl ...  # evaluate rules over a recorded series
    repro alerts watch URL          # poll a live /alerts endpoint
    repro obs monitor               # run with live invariant monitors attached
    repro obs diff a.jsonl b.jsonl  # first divergence + cost attribution
    repro obs export SRC --chrome=… # Perfetto / Prometheus exporters
    repro runs list                 # persistent run registry: recent runs
    repro runs show RUN_ID          # one run record in full
    repro runs diff RUN_A RUN_B     # field/cost diff of two runs
    repro serve --port 9100         # live ops HTTP: /metrics /health /runs
    repro demo                      # 30-second tour on a random workload

``repro record|search|offline`` take ``--registry-dir DIR`` to append
each invocation to the persistent run registry the ``runs`` and
``serve`` commands read.

Reports are printed as fixed-width tables plus ASCII series; pass
``--output PATH`` to also write the rendered report to a file.

Exit codes::

    0    success
    1    the command ran and its answer is negative: a cross-check
         mismatch, a search space exceeded, a monitor violation, a
         firing alert, differing runs or traces
    2    bad input (an unknown id, an unreadable or malformed file, an
         out-of-range flag, an unwritable output path), reported as one
         ``error:`` line on stderr
    130  interrupted
    141  standard output closed early (a pipe's reader exited), as
         for a process killed by SIGPIPE; nothing is printed

:func:`main` alone reports bad input: the commands raise
:class:`~repro.core.inputs.InputError` (or let an ``OSError`` through).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path

from repro.core.inputs import InputError

#: Where ``--registry-dir`` points when passed without a value.
DEFAULT_REGISTRY_DIR = ".repro/runs"

#: Reconfiguration cost Δ of ``repro offline``'s workloads: the EXP-P
#: cell family, ``random_general(colors, 2, horizon, ...)``.
OFFLINE_DELTA = 2


@contextmanager
def _configuring():
    """Context in which a command builds its configuration from its
    flags: a ``ValueError`` a constructor raises there is a bad flag
    value, and is re-raised as an :class:`InputError`."""
    try:
        yield
    except InputError:
        raise
    except ValueError as error:
        raise InputError(str(error)) from error


def _at_least_one(args: argparse.Namespace, *flags: str) -> None:
    for flag in flags:
        value = getattr(args, flag)
        if value < 1:
            raise InputError(
                f"--{flag.replace('_', '-')} must be at least 1, got {value}"
            )


def _check_port(flag: str, port: int) -> None:
    if not 0 <= port <= 65535:
        raise InputError(f"{flag} must be a port in 0..65535, got {port}")


def _recorder_for(args: argparse.Namespace):
    """RegistrySink for ``--registry-dir``, or None when not requested."""
    registry_dir = getattr(args, "registry_dir", None)
    if registry_dir is None:
        return None
    from repro.obs.registry import RegistrySink

    return RegistrySink(registry_dir)


def _cmd_list(_: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS

    width = max(len(k) for k in EXPERIMENTS)
    for experiment_id in sorted(EXPERIMENTS):
        exp = EXPERIMENTS[experiment_id]
        print(f"{experiment_id.ljust(width)}  {exp.title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.registry import run_experiment

    text = run_experiment(args.experiment_id, quick=args.quick).render()
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"\n[written to {args.output}]")
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS

    chunks = []
    for experiment_id in sorted(EXPERIMENTS):
        report = EXPERIMENTS[experiment_id].run(quick=args.quick)
        chunks.append(report.render())
        print(chunks[-1])
        print()
    if args.output:
        Path(args.output).write_text("\n\n".join(chunks) + "\n")
        print(f"[written to {args.output}]")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import save_report
    from repro.experiments.registry import run_experiment

    report = run_experiment(args.experiment_id, quick=args.quick)
    paths = save_report(report, args.dir)
    for kind, path in sorted(paths.items()):
        print(f"{kind}: {path}")
    return 0


_SCHEME_CHOICES = {
    "dlru": "repro.algorithms.dlru:DeltaLRU",
    "edf": "repro.algorithms.edf:EDF",
    "dlru-edf": "repro.algorithms.dlru_edf:DeltaLRUEDF",
}


def _scheme_factory(name: str):
    """The scheme class a ``_SCHEME_CHOICES`` key names."""
    import importlib

    module_name, class_name = _SCHEME_CHOICES[name].split(":")
    return getattr(importlib.import_module(module_name), class_name)


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.analysis.adversary_search import SearchConfig, search_adversary
    from repro.runtime import ParallelRunner

    scheme_factory = _scheme_factory(args.scheme)
    if args.jobs is not None and args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    with _configuring():
        config = SearchConfig(
            iterations=args.iterations,
            restarts=args.restarts,
            seed=args.seed,
            horizon=args.horizon,
            shared_cache=args.shared_cache,
        )
        # Restarts are pre-seeded, so parallel results match serial exactly.
        runner = (
            ParallelRunner(max_workers=args.jobs)
            if args.jobs is not None
            else ParallelRunner.from_env(default_workers=1)
        )
    result = search_adversary(
        scheme_factory, config, runner=runner, recorder=_recorder_for(args)
    )
    print(f"scheme:       {args.scheme}")
    print(f"evaluations:  {result.evaluations}")
    print(f"best ratio:   {result.best_ratio:.3f} (vs hindsight OFF)")
    print(f"instance:     {result.best_instance.describe()}")
    if args.save:
        from repro.workloads.traces import save_instance

        save_instance(result.best_instance, args.save)
        print(f"saved to:     {args.save}")
    return 0


def _cmd_offline(args: argparse.Namespace) -> int:
    import math
    import time

    from repro.offline.optimal import (
        SearchSpaceExceeded,
        optimal_offline,
        optimal_offline_exhaustive,
    )
    from repro.workloads.random_batched import random_general

    _at_least_one(args, "horizon", "colors", "resources", "max_states")
    if min(args.bounds) < 1:
        raise InputError(f"--bounds must be at least 1, got {min(args.bounds)}")
    if not (math.isfinite(args.rate) and args.rate >= 0):
        raise InputError(
            f"--rate must be finite and nonnegative, got {args.rate}"
        )
    # The EXP-P cell family fixes Δ; --resources sizes the solver only.
    instance = random_general(
        args.colors,
        OFFLINE_DELTA,
        args.horizon,
        seed=args.seed,
        rate=args.rate,
        bound_choices=tuple(args.bounds),
    )
    tracer = None
    sink = None
    if args.trace:
        from repro.obs import JsonlSink, Tracer

        sink = JsonlSink(args.trace)
        tracer = Tracer(sink)

    def exceeded(exc: SearchSpaceExceeded, solver: str = "") -> int:
        print(
            f"{solver}search space exceeded after {exc.nodes_expanded} nodes "
            f"(best incumbent {exc.best_incumbent}, "
            f"top bound source {exc.bound_source}); raise --max-states"
        )
        return 1

    started = time.perf_counter()
    try:
        result = optimal_offline(
            instance,
            args.resources,
            max_states=args.max_states,
            tracer=tracer,
            recorder=_recorder_for(args),
        )
    except SearchSpaceExceeded as exc:
        return exceeded(exc)
    finally:
        if sink is not None:
            sink.close()
    elapsed = time.perf_counter() - started
    print(f"instance:       {instance.name} (horizon {instance.horizon})")
    print(f"method:         {result.method}")
    print(f"optimal cost:   {result.cost}")
    print(
        f"breakdown:      {result.num_reconfigs} reconfigs, "
        f"{result.num_drops} drops"
    )
    print(f"nodes expanded: {result.nodes_expanded}")
    print(f"pruned:         {result.candidates_pruned}")
    print(f"warm start:     {result.warm_start_cost}")
    if result.bound_source_histogram:
        hist = result.bound_source_histogram
        parts = [
            f"{name}: {hist[name]}"
            for name in sorted(hist, key=hist.get, reverse=True)
        ]
        print("bound sources:  " + "  ".join(parts))
    print(f"wall clock:     {elapsed:.3f}s")
    if args.check:
        try:
            check = optimal_offline_exhaustive(
                instance, args.resources, max_states=args.max_states
            )
        except SearchSpaceExceeded as exc:
            return exceeded(exc, f"cross-check:    {args.check} ")
        agree = check.cost == result.cost
        print(
            f"cross-check:    {args.check} cost {check.cost} "
            f"({check.nodes_expanded} nodes) — "
            + ("agreement" if agree else "MISMATCH")
        )
        if not agree:
            return 1
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def _seeded_batched(args: argparse.Namespace, label: str):
    """The seeded ``random_batched`` workload that ``record`` and ``obs
    monitor`` run, built after checking the flags that shape it; a bad
    value raises :class:`InputError` naming it."""
    from repro.simulation.engine import check_geometry
    from repro.workloads.random_batched import random_batched

    _at_least_one(args, "colors", "horizon")
    with _configuring():
        # Both commands simulate at the default replication, copies=2.
        check_geometry(args.resources, 2, args.speed)
        return random_batched(
            args.colors,
            args.delta,
            args.horizon,
            seed=args.seed,
            load=args.load,
            name=f"{label}-seed{args.seed}",
        )


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.obs import (
        JsonlSink,
        MetricsRegistry,
        PhaseProfiler,
        Tracer,
        flame_table,
        render_metrics,
    )
    from repro.obs.sampling import SamplingController, SamplingTracer
    from repro.simulation.engine import simulate

    scheme_factory = _scheme_factory(args.scheme)
    if args.epochs and args.record != "full":
        raise InputError("--epochs needs the full event trace; pass --record full")
    controller = None
    if args.sample is not None:
        try:
            probability = float(args.sample)
        except ValueError:
            raise InputError("--sample takes a keep probability in [0, 1]") from None
        with _configuring():
            controller = SamplingController(probability=probability, seed=args.seed)
    instance = _seeded_batched(args, "record")
    registry = MetricsRegistry()
    profiler = PhaseProfiler() if args.profile else None
    with JsonlSink(args.out) as sink:
        if controller is not None:
            tracer = SamplingTracer(sink, controller=controller)
        else:
            tracer = Tracer(sink)
        result = simulate(
            instance,
            scheme_factory(),
            args.resources,
            speed=args.speed,
            record=args.record,
            engine=args.engine,
            tracer=tracer,
            registry=registry,
            profiler=profiler,
        )
        if args.epochs:
            from repro.analysis.epochs import analyze_epochs, annotate_epochs

            analysis = analyze_epochs(
                result.trace, threshold=max(1, args.resources // 4)
            )
            emitted = annotate_epochs(analysis, tracer)
            print(f"annotated {emitted} epoch/super-epoch boundaries")
    recorder = _recorder_for(args)
    if recorder is not None:
        record = recorder.record_simulate(
            result,
            engine=args.engine,
            seed=args.seed,
            metrics_snapshot=registry.snapshot(),
            extra={"trace_path": str(args.out)},
        )
        print(f"recorded as run {record.run_id} in {args.registry_dir}")
    print(
        f"{instance.name}: total cost {result.total_cost} "
        f"(reconfig {result.cost.reconfig_cost}, drops {result.cost.drop_cost})"
    )
    print(f"trace written to {args.out}")
    if args.sample is not None:
        stats = tracer.controller.stats()
        print(
            f"sampling: kept {stats['rounds_kept']}/{stats['rounds_seen']} "
            f"rounds at p={stats['probability']} "
            f"({stats['records_emitted']} records emitted)"
        )
    print()
    print(render_metrics(registry.snapshot()))
    if profiler is not None:
        print()
        print(flame_table(profiler))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.render import render_trace_timeline
    from repro.obs.tracing import read_jsonl_trace

    records = read_jsonl_trace(args.trace)
    print(render_trace_timeline(records, max_rounds=args.rounds))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.render import render_trace_stats
    from repro.obs.tracing import read_jsonl_trace

    print(render_trace_stats(read_jsonl_trace(args.trace)))
    return 0


def _cmd_obs_monitor(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        JsonlSink,
        MemorySink,
        MetricsRegistry,
        MonitorError,
        TeeSink,
        Tracer,
        standard_monitors,
    )
    from repro.simulation.engine import simulate

    scheme_factory = _scheme_factory(args.scheme)
    instance = _seeded_batched(args, "monitor")
    registry = MetricsRegistry()
    monitors = standard_monitors(instance, policy=args.policy, registry=registry)
    jsonl = JsonlSink(args.out) if args.out else None
    tracer = Tracer(
        TeeSink(jsonl if jsonl is not None else MemorySink(), *monitors)
    )
    try:
        result = simulate(
            instance,
            scheme_factory(),
            args.resources,
            speed=args.speed,
            record="costs",
            engine=args.engine,
            tracer=tracer,
            registry=registry,
        )
        tracer.close()
    except MonitorError as error:
        print(f"VIOLATION (policy=raise): {error}")
        return 1
    finally:
        if jsonl is not None:
            jsonl.close()
    print(
        f"{instance.name}: total cost {result.total_cost} "
        f"(reconfig {result.cost.reconfig_cost}, drops {result.cost.drop_cost})"
    )
    failures = 0
    for monitor in monitors:
        if monitor.ok:
            extra = ""
            if monitor.name == "ratio" and monitor.ratio is not None:
                extra = (
                    f"  (cost x{monitor.ratio:.2f} of lower bound "
                    f"{monitor.lower_bound})"
                )
            print(f"  {monitor.name}: ok ({monitor.records_seen} records){extra}")
        else:
            failures += len(monitor.violations)
            for violation in monitor.violations:
                print(f"  {violation}")
    if args.out:
        print(f"trace written to {args.out}")
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            json.dumps(registry.snapshot(), indent=2) + "\n"
        )
        print(f"metrics snapshot written to {args.metrics_out}")
    if failures:
        print(f"{failures} violation(s)")
        return 1
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs import diff_traces, read_jsonl_trace, render_trace_diff

    diff = diff_traces(
        read_jsonl_trace(args.trace_a),
        read_jsonl_trace(args.trace_b),
        num_ranges=args.ranges,
    )
    print(render_trace_diff(diff))
    return 0 if diff.identical else 1


def _cmd_obs_export(args: argparse.Namespace) -> int:
    if (args.chrome is None) == (args.prom is None):
        raise InputError("pass exactly one of --chrome or --prom")
    if args.chrome:
        from repro.obs import read_jsonl_trace, write_chrome_trace

        count = write_chrome_trace(read_jsonl_trace(args.source), args.chrome)
        print(f"{count} trace events written to {args.chrome}")
        print("open in https://ui.perfetto.dev or chrome://tracing")
        return 0
    from repro.obs import snapshot_file_prometheus

    text = snapshot_file_prometheus(args.source)
    Path(args.prom).write_text(text)
    print(f"{len(text.splitlines())} exposition lines written to {args.prom}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.core.inputs import read_text
    from repro.workloads.stats import describe_workload
    from repro.workloads.traces import instance_from_csv, load_instance

    path = Path(args.trace)
    if path.suffix == ".csv":
        text = read_text(path, "CSV trace")
        instance = instance_from_csv(text, f"CSV trace {path}")
    else:
        instance = load_instance(path)
    print(describe_workload(instance))
    return 0


def _cmd_runs_list(args: argparse.Namespace) -> int:
    from repro.obs.registry import RunRegistry, render_run_list

    if args.limit < 0:
        raise InputError(f"--limit must be nonnegative, got {args.limit}")
    registry = RunRegistry.existing(args.registry_dir)
    records = registry.last(args.limit, kind=args.kind)
    if not records and len(registry):
        filters = [f"--kind {args.kind}"] if args.kind is not None else []
        if args.limit == 0:
            filters.append("--limit 0")
        print(f"(no run matched {' '.join(filters)})")
    else:
        print(render_run_list(records))
    if registry.skipped_lines:
        print(
            f"({registry.skipped_lines} torn trailing line(s) skipped "
            "— crash debris)"
        )
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    from repro.obs.registry import RunRegistry, render_run

    registry = RunRegistry.existing(args.registry_dir)
    print(render_run(registry.get(args.run_id)))
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    from repro.obs.registry import RunRegistry, diff_runs, render_run_diff

    registry = RunRegistry.existing(args.registry_dir)
    diff = diff_runs(registry.get(args.run_a), registry.get(args.run_b))
    print(render_run_diff(diff))
    return 0 if diff.identical_outcome else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.obs.registry import RegistrySink, RunRegistry
    from repro.obs.service import OpsService, OpsState
    from repro.runtime import ParallelRunner

    _check_port("--port", args.port)
    if args.ttl is not None and not args.ttl >= 0:
        raise InputError(f"--ttl must be nonnegative, got {args.ttl}")
    if args.demo:
        with _configuring():
            runner = ParallelRunner.from_env(default_workers=2)
    run_registry = RunRegistry(args.registry_dir) if args.registry_dir else None
    state = OpsState(run_registry=run_registry)
    service = OpsService(state, host=args.host, port=args.port)
    service.start()
    print(f"serving on {service.url}")
    print("endpoints: /metrics  /health  /runs  /runs/<id>")
    try:
        if args.demo:
            from repro.algorithms import DeltaLRU, DeltaLRUEDF, EDF
            from repro.experiments.sweeps import run_matrix
            from repro.workloads.random_batched import random_batched

            instances = [
                random_batched(
                    6, 4, 256, seed=seed, load=0.5, name=f"serve-seed{seed}"
                )
                for seed in range(4)
            ]
            recorder = (
                RegistrySink(run_registry) if run_registry is not None else None
            )
            sweep = run_matrix(
                instances,
                [DeltaLRUEDF, DeltaLRU, EDF],
                8,
                record="costs",
                runner=runner,
                recorder=recorder,
                publish=state.publish_snapshot,
            )
            if recorder is not None:
                state.note_run_recorded(recorder.recorded)
            print(
                "demo matrix done: "
                + ", ".join(
                    f"{name}={cost:.0f}"
                    for name, cost in sweep.mean_cost_per_scheme().items()
                )
            )
        if args.ttl is not None:
            time.sleep(args.ttl)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        service.stop()
        if run_registry is not None:
            run_registry.close()
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.obs.metrics import MetricsRegistry
    from repro.streaming import (
        AdmissionPolicy,
        StreamSession,
        rate_limited_source,
    )

    scheme_factory = _scheme_factory(args.scheme)
    if args.rounds < 0:
        raise InputError(f"--rounds must be nonnegative, got {args.rounds}")
    if args.checkpoint is None:
        if args.resume:
            raise InputError("--resume needs --checkpoint PATH")
        if args.checkpoint_every is not None:
            raise InputError("--checkpoint-every needs --checkpoint PATH")
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        raise InputError(
            f"--checkpoint-every must be at least 1, got {args.checkpoint_every}"
        )
    state = None
    if args.serve is not None:
        from repro.obs.service import OpsState

        _check_port("--serve", args.serve)
        state = OpsState()
    registry = state.metrics if state is not None else MetricsRegistry()

    with _configuring():
        source = rate_limited_source(
            args.colors, args.delta, seed=args.seed, load=args.load
        )
        policy = None
        if args.queue_cap is not None:
            policy = AdmissionPolicy(queue_cap=args.queue_cap)
        recorder = None
        if args.series is not None or args.rules is not None or state is not None:
            from repro.obs.alerts import load_rules
            from repro.obs.timeseries import SeriesRecorder

            rules = load_rules(args.rules) if args.rules is not None else None
            recorder = SeriesRecorder(
                registry, capacity=args.series_capacity, rules=rules
            )
        if args.resume:
            session = StreamSession.resume(
                source,
                scheme_factory(),
                args.checkpoint,
                policy=policy,
                registry=registry,
                recorder=recorder,
                segment_rounds=args.segment,
            )
        else:
            session = StreamSession(
                source,
                scheme_factory(),
                args.resources,
                engine=args.engine,
                speed=args.speed,
                policy=policy,
                registry=registry,
                recorder=recorder,
                segment_rounds=args.segment,
            )
    if session.round > args.rounds:
        raise InputError(
            f"checkpoint {args.checkpoint} is already at round "
            f"{session.round}, past the --rounds target {args.rounds}"
        )
    if args.resume:
        print(f"resumed from {args.checkpoint} at round {session.round}")
    with ExitStack() as stack:
        if state is not None:
            from repro.obs.service import OpsService

            service = stack.enter_context(OpsService(state, port=args.serve))
            print(
                f"serving on {service.url} "
                "(endpoints: /metrics /stream /series /alerts /health)"
            )
        return _stream(args, session, registry, recorder, state)


def _stream(args, session, registry, recorder, state) -> int:
    """Run ``repro stream``'s session to ``--rounds``, checkpointing and
    publishing to ``state`` (the ops service's, or None), then report."""
    import time

    from repro.obs.metrics import render_metrics

    def publish(_checkpoint=None) -> None:
        if state is None:
            return
        result = session.result()
        state.publish_stream(
            {
                "round": result.rounds,
                "total_cost": result.total_cost,
                "offered": result.offered,
                "admitted": result.admitted,
                "rejected": result.rejected,
                "rejection_rate": result.rejection_rate,
                "rejected_by_color": {
                    str(color): count
                    for color, count in sorted(
                        session.ingest.rejected_by_color.items()
                    )
                },
                "checkpoints_written": result.checkpoints_written,
                "last_checkpoint_round": session.last_checkpoint_round,
                "last_checkpoint_path": session.last_checkpoint_path,
            }
        )
        if recorder is not None:
            state.publish_series(recorder.snapshot())
            if recorder.alerts is not None:
                state.publish_alerts(recorder.alerts.payload())

    try:
        result = session.run(
            args.rounds - session.round,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint,
            on_checkpoint=publish,
        )
    except KeyboardInterrupt:
        if args.checkpoint is not None:
            if session.last_checkpoint_round != session.round:
                session.save_checkpoint(args.checkpoint)
            print(
                f"\ninterrupted at round {session.round}; checkpoint saved "
                f"to {args.checkpoint} (resume with --resume)"
            )
        else:
            print(f"\ninterrupted at round {session.round}; no checkpoint")
        return 130
    if args.checkpoint is not None:
        # Skip the save if the periodic cadence already checkpointed this
        # exact round: a redundant write would bump the checkpoint
        # counter, making a killed-and-resumed run's stream.checkpoints
        # series diverge from an uninterrupted one's.
        if session.last_checkpoint_round != session.round:
            session.save_checkpoint(args.checkpoint)
            print(f"final checkpoint saved to {args.checkpoint}")
        else:
            print(f"checkpoint already current at round {session.round}")
    publish()
    if args.series is not None and recorder is not None:
        from repro.obs.timeseries import write_series_jsonl

        write_series_jsonl(recorder, args.series)
        print(
            f"series written to {args.series} "
            f"({len(recorder.names())} series, {recorder.samples} samples)"
        )
    print(
        f"{result.name}: {result.rounds} rounds, total cost "
        f"{result.total_cost} (reconfig {result.cost.reconfig_cost}, "
        f"drops {result.cost.drop_cost})"
    )
    print(
        f"ingestion: offered {result.offered}, admitted {result.admitted}, "
        f"rejected {result.rejected} "
        f"(rate {result.rejection_rate:.3f})"
    )
    if result.rounds_per_second:
        print(f"throughput: {result.rounds_per_second:,.0f} rounds/s")
    if recorder is not None and recorder.alerts is not None:
        engine = recorder.alerts
        for event in engine.events:
            print(f"alert: {event}")
        if engine.firing:
            print(f"alerts still firing: {', '.join(engine.firing)}")
    print()
    print(render_metrics(registry.snapshot(prefix="stream.")))
    if recorder is not None and recorder.series:
        from repro.obs.render import render_series

        base = [
            name
            for name in recorder.names()
            if name.startswith("stream.")
            and not name.endswith((".delta", ".rate", ".ewma"))
        ]
        if base:
            print()
            print(render_series(recorder, names=base))
    if state is not None and args.serve_ttl:
        try:
            time.sleep(args.serve_ttl)
        except KeyboardInterrupt:
            pass
    return 0


def _cmd_alerts_example(args: argparse.Namespace) -> int:
    from repro.obs.alerts import example_rules, rules_to_json

    text = rules_to_json(example_rules(delay_bound=args.delay_bound))
    if args.out:
        Path(args.out).write_text(text)
        print(f"example rules written to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_alerts_check(args: argparse.Namespace) -> int:
    from repro.obs.alerts import evaluate_rules, load_rules
    from repro.obs.timeseries import read_series_jsonl

    rules = load_rules(args.rules)
    snapshot = read_series_jsonl(args.series)
    engine = evaluate_rules(rules, snapshot["series"])
    print(
        f"{args.series}: {len(snapshot['series'])} series, "
        f"{engine.samples_seen} sample rounds, {len(rules)} rule(s)"
    )
    for event in engine.events:
        print(f"  {event}")
    if engine.events_dropped:
        print(f"  ({engine.events_dropped} older event(s) dropped)")
    if engine.firing:
        print(f"firing at end of series: {', '.join(engine.firing)}")
        return 1
    print("no alerts firing at end of series")
    return 0


def _cmd_alerts_watch(args: argparse.Namespace) -> int:
    import time as _time
    from urllib.error import URLError
    from urllib.request import urlopen

    from repro.core.inputs import malformed, parse_json
    from repro.obs.alerts import AlertEvent

    url = args.url.rstrip("/")
    if not url.startswith("http"):
        url = f"http://{url}"
    endpoint = f"{url}/alerts"
    deadline = (
        _time.monotonic() + args.ttl if args.ttl is not None else None
    )
    seen_events = 0
    last_firing: list[str] | None = None
    exit_code = 0
    try:
        while True:
            try:
                with urlopen(endpoint, timeout=5) as response:
                    body = response.read().decode("utf-8")
            except (URLError, OSError, ValueError) as error:
                raise InputError(f"cannot poll {endpoint}: {error}") from error
            payload = parse_json(body, f"response of {endpoint}")
            if not payload.get("active"):
                print(f"{endpoint}: no alert engine published yet")
            else:
                with malformed(f"response of {endpoint}"):
                    events = [
                        AlertEvent.from_dict(event)
                        for event in payload.get("events", [])
                    ]
                    firing = payload.get("firing", [])
                    if not isinstance(firing, list) or not all(
                        isinstance(name, str) for name in firing
                    ):
                        raise ValueError(
                            f"firing must list rule names, got {firing!r}"
                        )
                for event in events[seen_events:]:
                    print(event)
                seen_events = len(events)
                if firing != last_firing:
                    print(
                        "firing now: " + (", ".join(firing) or "(none)")
                    )
                    last_firing = firing
                exit_code = 1 if firing else 0
            if deadline is not None and _time.monotonic() >= deadline:
                return exit_code
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return exit_code


def _cmd_demo(_: argparse.Namespace) -> int:
    from repro import DeltaLRU, DeltaLRUEDF, EDF, simulate
    from repro.analysis.competitive import best_effort_ratio
    from repro.analysis.report import format_table
    from repro.workloads import random_rate_limited

    instance = random_rate_limited(
        6, 3, 64, seed=7, load=0.7, bound_choices=(2, 4, 8)
    )
    print(instance.describe(), "\n")
    rows = []
    for scheme in (DeltaLRUEDF(), DeltaLRU(), EDF()):
        result = simulate(instance, scheme, 16)
        estimate = best_effort_ratio(instance, result.total_cost, 2)
        rows.append(
            (
                scheme.name,
                result.total_cost,
                result.cost.reconfig_cost,
                result.cost.drop_cost,
                round(estimate.ratio, 3),
            )
        )
    print(
        format_table(
            "Three reconfiguration schemes, 16 resources vs OFF with 2",
            ("scheme", "total", "reconfig", "drops", "ratio vs OFF"),
            rows,
        )
    )
    return 0


def _add_registry_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--registry-dir",
        nargs="?",
        const=DEFAULT_REGISTRY_DIR,
        default=None,
        metavar="DIR",
        help="append this invocation to the persistent run registry "
        f"(default dir when passed bare: {DEFAULT_REGISTRY_DIR})",
    )


def _add_run_flags(
    parser: argparse.ArgumentParser,
    *,
    delta: int,
    load: float,
    horizon: int | None = None,
    engine_help: str = "engine backend",
) -> None:
    """The scheme, seeded-workload and engine flags of ``record``, ``obs
    monitor`` and ``stream`` (``--horizon`` only where it is given)."""
    parser.add_argument(
        "--scheme", choices=sorted(_SCHEME_CHOICES), default="dlru-edf"
    )
    parser.add_argument("--colors", type=int, default=8)
    parser.add_argument("--delta", type=int, default=delta)
    if horizon is not None:
        parser.add_argument("--horizon", type=int, default=horizon)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--load", type=float, default=load, help=f"offered load (default {load})"
    )
    parser.add_argument("--resources", type=int, default=8)
    parser.add_argument("--speed", type=int, default=1)
    parser.add_argument(
        "--engine",
        choices=("sparse", "dense", "vectorized"),
        default="sparse",
        help=engine_help,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reconfigurable resource scheduling with variable delay "
        "bounds: experiments and demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered experiments")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment_id", help="experiment id, e.g. EXP-A")
    p_run.add_argument("--quick", action="store_true", help="reduced sweep")
    p_run.add_argument("--output", help="also write the report to this path")
    p_run.set_defaults(func=_cmd_run)

    p_all = sub.add_parser("run-all", help="run every experiment")
    p_all.add_argument("--quick", action="store_true", help="reduced sweeps")
    p_all.add_argument("--output", help="also write the combined report")
    p_all.set_defaults(func=_cmd_run_all)

    p_export = sub.add_parser(
        "export", help="run an experiment and write txt/json/csv files"
    )
    p_export.add_argument("experiment_id", help="experiment id, e.g. EXP-A")
    p_export.add_argument("--dir", default="reports", help="output directory")
    p_export.add_argument("--quick", action="store_true", help="reduced sweep")
    p_export.set_defaults(func=_cmd_export)

    p_search = sub.add_parser(
        "search", help="hill-climb for an adversarial input against a scheme"
    )
    p_search.add_argument("scheme", choices=sorted(_SCHEME_CHOICES))
    p_search.add_argument("--iterations", type=int, default=200)
    p_search.add_argument("--restarts", type=int, default=3)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--horizon", type=int, default=64)
    p_search.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for restarts (default: REPRO_PARALLEL or 1)",
    )
    p_search.add_argument("--save", help="write the found instance as JSON")
    p_search.add_argument(
        "--shared-cache",
        action="store_true",
        help="share the score cache across restarts (serial climbs; "
        "identical results, higher hit rate)",
    )
    _add_registry_dir(p_search)
    p_search.set_defaults(func=_cmd_search)

    p_offline = sub.add_parser(
        "offline",
        help="solve a seeded workload to the exact offline optimum",
    )
    p_offline.add_argument("--colors", type=int, default=3)
    p_offline.add_argument(
        "--resources",
        type=int,
        default=2,
        help="resources m of the solver (the workload's Δ is fixed at "
        f"{OFFLINE_DELTA}, the EXP-P cell family)",
    )
    p_offline.add_argument("--horizon", type=int, default=48)
    p_offline.add_argument("--seed", type=int, default=0)
    p_offline.add_argument("--rate", type=float, default=0.4)
    p_offline.add_argument(
        "--bounds",
        type=int,
        nargs="+",
        default=(2, 4),
        help="delay-bound choices for the random workload",
    )
    p_offline.add_argument(
        "--max-states",
        type=int,
        default=2_000_000,
        help="node budget of the solve and of the cross-check",
    )
    p_offline.add_argument(
        "--check",
        choices=("exhaustive",),
        default=None,
        help="cross-check the optimum against the exhaustive search",
    )
    p_offline.add_argument(
        "--trace", default=None, help="write the offline_solve span as JSONL"
    )
    _add_registry_dir(p_offline)
    p_offline.set_defaults(func=_cmd_offline)

    p_describe = sub.add_parser(
        "describe", help="summarize a saved trace (.json or .csv)"
    )
    p_describe.add_argument("trace", help="path to a saved instance")
    p_describe.set_defaults(func=_cmd_describe)

    p_record = sub.add_parser(
        "record",
        help="run a seeded workload with the trace bus on, writing JSONL",
    )
    p_record.add_argument("out", help="JSONL trace output path")
    _add_run_flags(p_record, delta=4, horizon=256, load=0.35)
    p_record.add_argument(
        "--record", choices=("costs", "full"), default="costs"
    )
    p_record.add_argument(
        "--epochs",
        action="store_true",
        help="annotate epoch/super-epoch boundaries (needs --record full)",
    )
    p_record.add_argument(
        "--profile",
        action="store_true",
        help="attach the phase profiler and print its flame table",
    )
    p_record.add_argument(
        "--sample",
        default=None,
        metavar="P",
        help="downsample round-level trace detail: keep each round's "
        "detail with probability P in [0, 1], seeded by --seed "
        "(monitor events are never sampled away)",
    )
    _add_registry_dir(p_record)
    p_record.set_defaults(func=_cmd_record)

    p_stream = sub.add_parser(
        "stream",
        help="run a scheme over an unbounded arrival stream with "
        "bounded memory and periodic checkpoints",
    )
    p_stream.add_argument(
        "--rounds",
        type=int,
        required=True,
        help="global round to stream to (with --resume: the same total "
        "target, not an increment)",
    )
    _add_run_flags(
        p_stream,
        delta=32,
        load=0.5,
        engine_help="engine backend (streaming always runs the faithful "
        "scalar core, even under vectorized)",
    )
    p_stream.add_argument(
        "--segment",
        type=int,
        default=4096,
        metavar="ROUNDS",
        help="segment width; bounds the arrival window held in memory "
        "(cost-transparent, default 4096)",
    )
    p_stream.add_argument(
        "--queue-cap",
        type=int,
        default=None,
        metavar="N",
        help="per-color pending-queue cap; excess arrivals are rejected "
        "at the door (unbounded when omitted)",
    )
    p_stream.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="checkpoint file (atomic overwrite); written every "
        "--checkpoint-every rounds, at the end, and on Ctrl-C",
    )
    p_stream.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="ROUNDS",
        help="checkpoint cadence in rounds (needs --checkpoint)",
    )
    p_stream.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint; engine/resources/speed come "
        "from the checkpoint's config echo",
    )
    p_stream.add_argument(
        "--serve",
        nargs="?",
        type=int,
        const=0,
        default=None,
        metavar="PORT",
        help="expose live /metrics and /stream over HTTP while the "
        "session runs (bare flag picks an ephemeral port)",
    )
    p_stream.add_argument(
        "--serve-ttl",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the HTTP service up this long after the run finishes",
    )
    p_stream.add_argument(
        "--series",
        default=None,
        metavar="PATH",
        help="record per-segment metric time-series and write them as "
        "schema-tagged JSONL at the end (evaluate later with "
        "`repro alerts check`)",
    )
    p_stream.add_argument(
        "--series-capacity",
        type=int,
        default=256,
        metavar="N",
        help="ring capacity per series; older points compact pairwise "
        "when full (default 256)",
    )
    p_stream.add_argument(
        "--rules",
        default=None,
        metavar="PATH",
        help="alert-rule JSON file (see `repro alerts example`) "
        "evaluated live on the recorded series; firing state rides "
        "checkpoints and /alerts",
    )
    p_stream.set_defaults(func=_cmd_stream)

    p_alerts = sub.add_parser(
        "alerts",
        help="deterministic alerting: example rules, offline evaluation, "
        "live watching",
    )
    alerts_sub = p_alerts.add_subparsers(dest="alerts_command", required=True)

    p_aex = alerts_sub.add_parser(
        "example", help="print (or write) a starter alert-rule file"
    )
    p_aex.add_argument(
        "--delay-bound",
        type=int,
        default=32,
        metavar="D",
        help="delay bound the backlog-age rule scales with (default 32)",
    )
    p_aex.add_argument("--out", help="write the rule file here instead")
    p_aex.set_defaults(func=_cmd_alerts_example)

    p_ach = alerts_sub.add_parser(
        "check",
        help="evaluate a rule file over a recorded series JSONL; exits 1 "
        "if any rule is firing at the end",
    )
    p_ach.add_argument("series", help="series JSONL from `repro stream --series`")
    p_ach.add_argument(
        "--rules", required=True, metavar="PATH", help="alert-rule JSON file"
    )
    p_ach.set_defaults(func=_cmd_alerts_check)

    p_awa = alerts_sub.add_parser(
        "watch",
        help="poll a live ops service's /alerts endpoint, printing events "
        "as they appear",
    )
    p_awa.add_argument("url", help="service base URL, e.g. http://127.0.0.1:9100")
    p_awa.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="poll cadence (default 2s)",
    )
    p_awa.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this long (default: watch until Ctrl-C); exits 1 "
        "if rules are firing at the last poll",
    )
    p_awa.set_defaults(func=_cmd_alerts_watch)

    p_trace = sub.add_parser(
        "trace", help="render a recorded JSONL trace as a round timeline"
    )
    p_trace.add_argument("trace", help="path to a JSONL trace from `record`")
    p_trace.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="cap on rendered rounds with events (default: all)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_stats = sub.add_parser(
        "stats", help="aggregate statistics of a recorded JSONL trace"
    )
    p_stats.add_argument("trace", help="path to a JSONL trace from `record`")
    p_stats.set_defaults(func=_cmd_stats)

    p_obs = sub.add_parser(
        "obs", help="live monitors, trace diffing, and exporters"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_mon = obs_sub.add_parser(
        "monitor",
        help="run a seeded workload with all invariant monitors attached",
    )
    _add_run_flags(p_mon, delta=4, horizon=256, load=0.35)
    p_mon.add_argument(
        "--policy",
        choices=("collect", "raise"),
        default="collect",
        help="collect violations (default) or raise at the offending record",
    )
    p_mon.add_argument("--out", help="also tee the trace to this JSONL path")
    p_mon.add_argument(
        "--metrics-out", help="write the metrics snapshot JSON to this path"
    )
    p_mon.set_defaults(func=_cmd_obs_monitor)

    p_diff = obs_sub.add_parser(
        "diff",
        help="first diverging record + cost attribution of two JSONL traces",
    )
    p_diff.add_argument("trace_a", help="baseline JSONL trace")
    p_diff.add_argument("trace_b", help="candidate JSONL trace")
    p_diff.add_argument(
        "--ranges",
        type=int,
        default=8,
        help="round-range buckets for the attribution (default 8)",
    )
    p_diff.set_defaults(func=_cmd_obs_diff)

    p_oexp = obs_sub.add_parser(
        "export",
        help="convert a JSONL trace to Perfetto JSON or a metrics snapshot "
        "to Prometheus text",
    )
    p_oexp.add_argument(
        "source",
        help="JSONL trace (--chrome) or metrics snapshot JSON (--prom)",
    )
    p_oexp.add_argument("--chrome", help="write Chrome trace-event JSON here")
    p_oexp.add_argument("--prom", help="write Prometheus text exposition here")
    p_oexp.set_defaults(func=_cmd_obs_export)

    p_runs = sub.add_parser(
        "runs", help="query the persistent run registry"
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)

    p_rlist = runs_sub.add_parser("list", help="recent runs, one per line")
    p_rlist.add_argument(
        "--limit", type=int, default=20, help="most recent N runs (default 20)"
    )
    p_rlist.add_argument(
        "--kind",
        choices=("simulate", "matrix", "search", "offline", "experiment"),
        default=None,
        help="only runs of this kind",
    )
    p_rlist.set_defaults(func=_cmd_runs_list)

    p_rshow = runs_sub.add_parser("show", help="one run record in full")
    p_rshow.add_argument("run_id", help="run id (abbreviations allowed)")
    p_rshow.set_defaults(func=_cmd_runs_show)

    p_rdiff = runs_sub.add_parser(
        "diff", help="field/cost diff of two recorded runs"
    )
    p_rdiff.add_argument("run_a", help="baseline run id")
    p_rdiff.add_argument("run_b", help="candidate run id")
    p_rdiff.set_defaults(func=_cmd_runs_diff)
    for runs_parser in (p_rlist, p_rshow, p_rdiff):
        runs_parser.add_argument(
            "--registry-dir", default=DEFAULT_REGISTRY_DIR, metavar="DIR"
        )

    p_serve = sub.add_parser(
        "serve",
        help="HTTP ops service: /metrics (Prometheus), /health, /runs",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port"
    )
    p_serve.add_argument(
        "--registry-dir",
        default=DEFAULT_REGISTRY_DIR,
        metavar="DIR",
        help="run registry served under /runs (created if missing)",
    )
    p_serve.add_argument(
        "--demo",
        action="store_true",
        help="run a small parallel matrix while serving, publishing "
        "live metrics and registry records",
    )
    p_serve.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this many seconds (default: serve until Ctrl-C)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_demo = sub.add_parser("demo", help="30-second tour")
    p_demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns its exit code (see the module
    docstring).  The one place bad input is reported."""
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        # Flushed here, so a closed pipe is met inside the handlers.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader went away (`repro stats t.jsonl | head -1`): not bad
        # input.  Stdout goes to devnull so the interpreter's final flush
        # stays quiet, and the status is the one a SIGPIPE death reports.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (InputError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
