"""Instance (de)serialization.

Instances round-trip through a compact JSON form so experiments can pin
workloads to disk and reload them bit-identically.  Jobs are run-length
grouped by ``(arrival, color)`` — batched workloads compress well.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.cost import CostModel
from repro.core.inputs import InputError, malformed, parse_json, read_text
from repro.core.instance import BatchMode, Instance, ProblemSpec, RequestSequence
from repro.core.job import Job

FORMAT_VERSION = 1


def instance_to_json(instance: Instance) -> str:
    """Serialize an instance to a JSON string."""
    groups: dict[tuple[int, int], list[int]] = {}
    for job in instance.sequence:
        groups.setdefault((job.arrival, job.color), []).append(job.jid)
    batches = [
        {"round": arrival, "color": color, "jids": jids}
        for (arrival, color), jids in sorted(groups.items())
    ]
    payload = {
        "format_version": FORMAT_VERSION,
        "name": instance.name,
        "reconfig_cost": instance.spec.reconfig_cost,
        "drop_cost": instance.spec.cost.drop_cost,
        "batch_mode": instance.spec.batch_mode.value,
        "require_power_of_two": instance.spec.require_power_of_two,
        "delay_bounds": {str(c): b for c, b in instance.spec.delay_bounds.items()},
        "horizon": instance.horizon,
        "batches": batches,
    }
    return json.dumps(payload, separators=(",", ":"))


def instance_from_json(text: str, source: str = "instance JSON") -> Instance:
    """Rebuild an instance from :func:`instance_to_json` output; bad
    text raises :class:`~repro.core.inputs.InputError` naming ``source``."""
    payload = parse_json(text, source)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise InputError(f"{source}: unsupported trace format version: {version}")
    with malformed(source):
        delay_bounds = {int(c): int(b) for c, b in payload["delay_bounds"].items()}
        spec = ProblemSpec(
            delay_bounds,
            CostModel(int(payload["reconfig_cost"]), int(payload["drop_cost"])),
            BatchMode(payload["batch_mode"]),
            bool(payload["require_power_of_two"]),
        )
        jobs = []
        for batch in payload["batches"]:
            arrival = int(batch["round"])
            color = int(batch["color"])
            bound = delay_bounds[color]
            for jid in batch["jids"]:
                jobs.append(Job(arrival, color, bound, int(jid)))
        sequence = RequestSequence(jobs, int(payload["horizon"]))
        return Instance(spec, sequence, payload.get("name", ""))


def save_instance(instance: Instance, path: str | Path) -> None:
    """Write an instance to ``path`` as JSON."""
    Path(path).write_text(instance_to_json(instance))


def load_instance(path: str | Path) -> Instance:
    """Read an instance previously written by :func:`save_instance`."""
    return instance_from_json(
        read_text(path, "instance file"), f"instance file {path}"
    )


# --------------------------------------------------------------------- CSV

CSV_HEADER = "round,color,count"


def instance_to_csv(instance: Instance) -> str:
    """Serialize arrivals as ``round,color,count`` rows (header included).

    Lossy relative to JSON — job ids are regenerated on load — but easy
    to produce from real measurement pipelines.  Delay bounds and Δ
    travel in ``#``-comment lines so a CSV file is self-contained.
    """
    lines = [
        f"# reconfig_cost={instance.spec.reconfig_cost}",
        f"# drop_cost={instance.spec.cost.drop_cost}",
        f"# batch_mode={instance.spec.batch_mode.value}",
        "# delay_bounds="
        + ";".join(
            f"{color}:{bound}"
            for color, bound in sorted(instance.spec.delay_bounds.items())
        ),
        f"# horizon={instance.horizon}",
        CSV_HEADER,
    ]
    counts: dict[tuple[int, int], int] = {}
    for job in instance.sequence:
        key = (job.arrival, job.color)
        counts[key] = counts.get(key, 0) + 1
    for (round_index, color), count in sorted(counts.items()):
        lines.append(f"{round_index},{color},{count}")
    return "\n".join(lines) + "\n"


def instance_from_csv(text: str, source: str = "CSV trace") -> Instance:
    """Parse :func:`instance_to_csv` output (job ids regenerated); bad
    text raises :class:`~repro.core.inputs.InputError` naming ``source``."""
    from repro.core.job import JobFactory

    meta: dict[str, str] = {}
    rows: list[tuple[int, int, int]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == CSV_HEADER:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
            continue
        with malformed(source, number):
            round_str, color_str, count_str = line.split(",")
            rows.append((int(round_str), int(color_str), int(count_str)))
    required = {"reconfig_cost", "delay_bounds", "batch_mode"}
    missing = required - set(meta)
    if missing:
        raise InputError(f"{source} missing metadata: {sorted(missing)}")
    with malformed(source):
        delay_bounds = {
            int(pair.split(":")[0]): int(pair.split(":")[1])
            for pair in meta["delay_bounds"].split(";")
            if pair
        }
        spec = ProblemSpec(
            delay_bounds,
            CostModel(int(meta["reconfig_cost"]), int(meta.get("drop_cost", "1"))),
            BatchMode(meta["batch_mode"]),
        )
        factory = JobFactory()
        jobs = []
        for round_index, color, count in rows:
            jobs += factory.batch(round_index, color, delay_bounds[color], count)
        horizon = int(meta["horizon"]) if "horizon" in meta else None
        return Instance(spec, RequestSequence(jobs, horizon), name="csv-trace")
