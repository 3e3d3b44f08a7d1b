"""Event-trace persistence: JSONL dump and reload.

Run traces power the analysis layer (epochs, credits, lemma checks);
persisting them lets long experiments be analyzed post-hoc without
re-simulating.  One JSON object per line, ``type`` field dispatching on
the event class — append-friendly and greppable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import IO

from repro.core import events as ev
from repro.core.inputs import InputError, malformed, parse_jsonl, read_text

#: Event classes by serialized name.
EVENT_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        ev.ArrivalEvent,
        ev.DropEvent,
        ev.WrapEvent,
        ev.EligibleEvent,
        ev.IneligibleEvent,
        ev.ReconfigEvent,
        ev.ExecuteEvent,
        ev.CacheInEvent,
        ev.CacheOutEvent,
        ev.TimestampEvent,
    )
}


def trace_to_jsonl(trace: ev.Trace) -> str:
    """Serialize a trace, one event per line."""
    lines = []
    for event in trace:
        payload = {"type": type(event).__name__, **asdict(event)}
        lines.append(json.dumps(payload, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


def trace_from_jsonl(text: str, source: str = "event trace") -> ev.Trace:
    """Rebuild a trace from :func:`trace_to_jsonl` output; a bad line
    raises :class:`~repro.core.inputs.InputError` naming ``source``."""
    trace = ev.Trace()
    for number, payload in parse_jsonl(text, source).rows:
        with malformed(source, number):
            type_name = payload.pop("type", None)
            cls = EVENT_TYPES.get(type_name)
            if cls is None:
                raise ValueError(f"unknown event type {type_name!r}")
            unexpected = set(payload) - {f.name for f in fields(cls)}
            if unexpected:
                raise ValueError(f"unexpected fields {sorted(unexpected)}")
            trace.append(cls(**payload))
    return trace


def save_trace(trace: ev.Trace, path: str | Path) -> None:
    Path(path).write_text(trace_to_jsonl(trace))


def load_trace(path: str | Path) -> ev.Trace:
    return trace_from_jsonl(read_text(path, "event trace"), f"event trace {path}")


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
    re-simulating.  Returns the written paths.
    """
    from repro.analysis.export import run_result_to_json
    from repro.workloads.traces import instance_to_json

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
    paths["trace"].write_text(trace_to_jsonl(result.trace))
    return paths


def load_run_schedule(directory: str | Path):
    """Reload the (instance, schedule) pair from :func:`save_run` output."""
    from repro.workloads.traces import load_instance

    directory = Path(directory)
    instance = load_instance(directory / "instance.json")
    path = directory / "schedule.jsonl"
    text = read_text(path, "schedule")
    return instance, schedule_from_jsonl(text, f"schedule {path}")
