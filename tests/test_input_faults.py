"""Seeded fault injection on the package's input formats.

Each format's file is damaged by random byte flips and truncations,
under a fixed seed.  Every damaged file must either load or raise an
:class:`~repro.core.inputs.InputError` naming the file: a bare
``KeyError``, ``IndexError`` or ``UnicodeDecodeError`` is a bug.  The
checkpoint and series formats have their own injection tests
(``tests/test_streaming.py``, ``tests/test_obs_timeseries.py``).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.core.inputs import InputError, read_text
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    Tracer,
    read_jsonl_trace,
    snapshot_file_prometheus,
)
from repro.obs.registry import RegistrySink, RunRegistry
from repro.simulation.engine import simulate
from repro.workloads.random_batched import random_batched, random_rate_limited
from repro.workloads.traces import (
    instance_from_csv,
    instance_to_csv,
    load_instance,
    save_instance,
)

FLIPS = 240
TRUNCATIONS = 60


def _instance():
    return random_rate_limited(4, 2, 32, seed=0)


def _write_instance_json(path):
    save_instance(_instance(), path)
    return path, lambda: load_instance(path)


def _write_instance_csv(path):
    path.write_text(instance_to_csv(_instance()))
    return path, lambda: instance_from_csv(read_text(path, "CSV trace"), str(path))


def _run(**attachments):
    instance = random_batched(4, 2, 32, seed=1, load=0.5)
    return simulate(instance, DeltaLRUEDF(), 4, **attachments)


def _write_trace(path):
    with JsonlSink(path) as sink:
        _run(tracer=Tracer(sink))

    def load():
        read_jsonl_trace(path, strict=False)
        read_jsonl_trace(path)

    return path, load


def _write_segment(path):
    root = path.parent / "registry"
    registry = MetricsRegistry()
    result = _run(registry=registry)
    with RunRegistry(root) as runs:
        sink = RegistrySink(runs)
        for seed in range(3):
            sink.record_simulate(
                result, seed=seed, metrics_snapshot=registry.snapshot()
            )
    (segment,) = runs.segments()

    def load():
        RunRegistry(root).records()
        RunRegistry(root).records(strict=True)

    return segment, load


def _write_snapshot(path):
    registry = MetricsRegistry()
    _run(registry=registry)
    path.write_text(json.dumps(registry.snapshot(), indent=2) + "\n")
    return path, lambda: snapshot_file_prometheus(path)


FORMATS = {
    "instance-json": _write_instance_json,
    "instance-csv": _write_instance_csv,
    "trace": _write_trace,
    "registry-segment": _write_segment,
    "metrics-snapshot": _write_snapshot,
}


def _damaged(data: bytes, rng: random.Random):
    """Seeded byte flips, then truncations (the empty file included)."""
    for _ in range(FLIPS):
        damaged = bytearray(data)
        damaged[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        yield bytes(damaged)
    lengths = {0, len(data) - 1}
    while len(lengths) < TRUNCATIONS:
        lengths.add(rng.randrange(1, len(data)))
    for length in sorted(lengths):
        yield data[:length]


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_damage_loads_or_names_the_file(tmp_path, name):
    path, load = FORMATS[name](tmp_path / f"{name}.data")
    load()  # the undamaged file loads
    data = path.read_bytes()
    refused = 0
    for damaged in _damaged(data, random.Random(24)):
        path.write_bytes(damaged)
        try:
            load()
        except InputError as error:
            assert str(path) in str(error), str(error)
            refused += 1
    # Most damage is caught; the rest must load cleanly.
    assert refused > (FLIPS + TRUNCATIONS) // 2
