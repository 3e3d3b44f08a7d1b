"""Run one workload in this process and return its measurements.

The runner starts a fresh interpreter per workload and calls
:func:`measure` there.  Everything the loop does outside the timed
operations, the output checks and the calibration samples -- input
generation, the warm-up op, session construction -- is set-up; the
runner adds interpreter start and imports to it.

Every time returned is scaled to the reference machine's speed by a
calibration workload timed between ops (:func:`speed_factors`); the run-level
factor is returned as ``speed_factor`` (1.0: the host ran at reference
speed; 0.5: it ran twice as slow and times were halved).
"""

from __future__ import annotations

import json
import random
import resource
import shutil
import statistics
import tempfile
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from spans import Spans, engine_metrics, layer_seconds, unattributed_fraction
from stats import percentile
from workloads import WORKLOADS

#: Failure messages kept per run (the count is always exact).
MAX_FAILURES = 20
#: Typical :meth:`Calibration.sample` time between ops on the reference
#: machine (a 2-CPU x86 container, Python 3.11).  Reported times are
#: scaled to that speed, so there they read as wall time; see
#: :func:`speed_factors`.
CALIBRATION_REFERENCE_S = 4.0e-3


class Calibration:
    """A fixed pure-Python workload that no repro code touches.

    One sample runs two loops: integer dict updates, and lookups of
    tuple keys in a 3000-entry dict.  The second tracks how a busy host
    slows the memory-bound solver and engine loops, which the first
    alone under-corrects.  A sample allocates almost nothing, so garbage
    collection does not land inside it.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self.keys = [
            (rng.randrange(50), rng.randrange(50), (rng.randrange(9), rng.randrange(9)))
            for _ in range(4096)
        ]
        self.table = {key: i for i, key in enumerate(self.keys[:3000])}
        self.order = [rng.randrange(len(self.keys)) for _ in range(12_000)]

    def sample(self) -> float:
        started = perf_counter()
        counts: dict[int, int] = {}
        for i in range(20_000):
            slot = i & 1023
            counts[slot] = counts.get(slot, 0) + i
        get, keys, found = self.table.get, self.keys, 0
        for index in self.order:
            if get(keys[index]) is not None:
                found += 1
        return perf_counter() - started


def speed_factors(calibration: list[float]) -> list[float]:
    """Per-op factor that scales a wall time to the reference machine.

    Shared hosts change speed by up to 2x within a minute, for the ops
    and the calibration workload alike.  Op ``i`` lies between calibration
    samples ``i`` and ``i + 1``; its factor is the reference time over
    their mean.  The host's speed moves within a second, so only the
    samples next to the op track it: medians over wider windows left
    the ten-seed spread of p90 latencies up to three times larger.
    """
    return [
        2.0 * CALIBRATION_REFERENCE_S / (calibration[i] + calibration[i + 1])
        for i in range(len(calibration) - 1)
    ]


def _normalized(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def measure(
    name: str,
    seed: int,
    seconds: float,
    *,
    traced: bool = False,
    golden: dict | None = None,
    scratch_root: Path,
) -> dict:
    """Run workload ``name`` and return its samples, counters and checks.

    ``golden`` is ``{"ops": [...], "final": ...}`` for this seed; an op
    whose output differs from it is a failed op.  A failed op never
    stops the run.
    """
    started = perf_counter()
    scratch_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        workload = WORKLOADS[name](seed, workdir)
        n_ops = workload.op_count(seconds)
        workload.warm_up()
        spans = Spans() if traced else None
        golden_ops = (golden or {}).get("ops", [])
        samples: list[tuple[int, dict[str, float]]] = []
        counters: Counter = Counter()
        rate_counts: dict[str, int] = defaultdict(int)
        records: list = []
        failures: list[str] = []
        failed = 0
        gen_s = check_s = 0.0
        calibrate = Calibration().sample
        calibration = [calibrate()]
        with spans.patched() if spans is not None else nullcontext():
            if spans is not None:
                workload.instrument(spans)
            inp, key = None, None
            for i in range(n_ops):
                if i:
                    calibration.append(calibrate())
                if i // workload.reuse != key:
                    key = i // workload.reuse
                    generated = perf_counter()
                    inp = workload.prepare(key)
                    gen_s += perf_counter() - generated
                checked = None
                try:
                    result, op_times = workload.step(i, inp, spans)
                    checked = perf_counter()
                    errors = workload.check(inp, result)
                    output = _normalized(workload.record(result))
                    if i < len(golden_ops) and output != golden_ops[i]:
                        errors.append(f"output {output!r} != golden {golden_ops[i]!r}")
                    op_counts = workload.counters(inp, result)
                except Exception as error:  # a raising op or check is a failed op
                    errors = [f"{type(error).__name__}: {error}"]
                    output = None
                else:
                    counters.update(op_counts)
                    samples.append((i, op_times))
                    for metric, _, counter, time_key in workload.rates:
                        if time_key in op_times:
                            rate_counts[metric] += op_counts.get(counter, 0)
                records.append(output)
                if checked is not None:
                    check_s += perf_counter() - checked
                if errors:
                    failed += 1
                    if len(failures) < MAX_FAILURES:
                        failures.append(f"op {i}: " + "; ".join(errors))
        calibration.append(calibrate())
        factors = speed_factors(calibration)
        run_factor = CALIBRATION_REFERENCE_S / statistics.median(calibration)
        times: dict[str, list[float]] = defaultdict(list)
        for i, op_times in samples:
            for time_key, value in op_times.items():
                times[time_key].append(value * factors[i])
        raw_timed = sum(op_times["op"] for _, op_times in samples)
        final = _normalized(workload.final())
        # The run-level output is golden only for a run of the golden length.
        golden_final = (golden or {}).get("final")
        if golden_final is not None and n_ops == len(golden_ops) and final != golden_final:
            failures.append(f"final output {final!r} != golden {golden_final!r}")
            failed = min(n_ops, failed + 1)
        workload_metrics = {}
        for metric, unit, _, time_key in workload.rates:
            spent = sum(times.get(time_key, ()))
            if spent > 0:
                workload_metrics[metric] = {
                    "value": rate_counts[metric] / spent,
                    "unit": unit,
                    "n": len(times[time_key]),
                }
        for metric, time_key, q in workload.latencies:
            values = times.get(time_key)
            if values:
                workload_metrics[metric] = {
                    "value": percentile(values, q) * 1000.0,
                    "unit": "ms",
                    "n": len(values),
                }
        layers = None
        if spans is not None:
            layers = {
                f"{span}_s": total * run_factor / n_ops
                for span, total in layer_seconds(spans.records).items()
                if span != "op"
            }
            for metric, value in engine_metrics(spans.records, n_ops).items():
                layers[metric] = value * run_factor if metric.endswith("_s") else value
            layers["trace.unattributed_frac"] = unattributed_fraction(spans.records)
            layers["workloads.gen_s"] = gen_s * run_factor / n_ops
            for counter, total in counters.items():
                if "." in counter:
                    layers[counter] = total / n_ops
            layers.update(workload.layer_extras(spans, counters, n_ops))
        in_process = perf_counter() - started - raw_timed - sum(calibration) - check_s
        return {
            "attempted": n_ops,
            "failed": failed,
            "failures": failures,
            "times": dict(times),
            "speed_factor": run_factor,
            "counters": dict(counters),
            "records": records,
            "final": final,
            "workload_metrics": workload_metrics,
            "setup_in_process_s": in_process * run_factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "layers": layers,
            "spans": spans,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
