"""Run persistence: a run's schedule and its event trace on disk.

A saved run (:func:`save_run`) holds everything needed to re-verify or
re-analyze it without re-simulating: the instance, the schedule (one
JSON object per line, ``type`` dispatching on the record), the cost
summary, and the run's Section 2 event records, written in the trace
bus's JSONL format (:class:`~repro.obs.tracing.JsonlSink`), so
``repro trace``, ``repro stats`` and ``repro obs diff`` read them.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.core.inputs import InputError, malformed, parse_jsonl, read_text


# ---------------------------------------------------------------- schedules


def schedule_to_jsonl(schedule) -> str:
    """Serialize a schedule: a header line, then one event per line."""
    from repro.core.schedule import Schedule

    assert isinstance(schedule, Schedule)
    lines = [
        json.dumps(
            {
                "type": "ScheduleHeader",
                "num_resources": schedule.num_resources,
                "speed": schedule.speed,
            },
            separators=(",", ":"),
        )
    ]
    for event in schedule.reconfigurations:
        lines.append(
            json.dumps(
                {"type": "Reconfiguration", **asdict(event)},
                separators=(",", ":"),
            )
        )
    for event in schedule.executions:
        lines.append(
            json.dumps(
                {"type": "Execution", **asdict(event)}, separators=(",", ":")
            )
        )
    return "\n".join(lines) + "\n"


def schedule_from_jsonl(text: str, source: str = "schedule"):
    """Rebuild a schedule from :func:`schedule_to_jsonl` output; a bad
    line raises :class:`~repro.core.inputs.InputError` naming ``source``."""
    from repro.core.schedule import Execution, Reconfiguration, Schedule

    rows = parse_jsonl(text, source).rows
    if not rows:
        raise InputError(f"{source}: empty schedule serialization")
    (number, header), *events = rows
    with malformed(source, number):
        if header.get("type") != "ScheduleHeader":
            raise ValueError("missing ScheduleHeader line")
        schedule = Schedule(header["num_resources"], speed=header["speed"])
    for number, payload in events:
        with malformed(source, number):
            kind = payload.pop("type")
            if kind == "Reconfiguration":
                schedule.add_reconfiguration(Reconfiguration(**payload))
            elif kind == "Execution":
                schedule.add_execution(Execution(**payload))
            else:
                raise ValueError(f"unknown schedule event type {kind!r}")
    return schedule


def save_run(result, directory: str | Path) -> dict[str, Path]:
    """Persist a full run: instance, schedule, trace, and cost summary.

    Everything needed to re-verify or re-analyze the run later without
    re-simulating.  Returns the written paths.  A ``record="costs"``
    result has no schedule or trace to save: it is refused before
    anything is written.
    """
    from repro.analysis.export import run_result_to_json
    from repro.obs.tracing import JsonlSink
    from repro.workloads.traces import instance_to_json

    result.require_full()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "summary": directory / "summary.json",
        "instance": directory / "instance.json",
        "schedule": directory / "schedule.jsonl",
        "trace": directory / "trace.jsonl",
    }
    paths["summary"].write_text(run_result_to_json(result, indent=2) + "\n")
    paths["instance"].write_text(instance_to_json(result.instance))
    paths["schedule"].write_text(schedule_to_jsonl(result.schedule))
    with JsonlSink(paths["trace"]) as sink:
        for record in result.trace:
            sink.emit(record)
    return paths


def load_run_schedule(directory: str | Path):
    """Reload the (instance, schedule) pair from :func:`save_run` output."""
    from repro.workloads.traces import load_instance

    directory = Path(directory)
    instance = load_instance(directory / "instance.json")
    path = directory / "schedule.jsonl"
    text = read_text(path, "schedule")
    return instance, schedule_from_jsonl(text, f"schedule {path}")
