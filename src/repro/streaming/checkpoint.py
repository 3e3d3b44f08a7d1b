"""Durable checkpoints of a streaming session.

A checkpoint is the session's *complete* resume state: the next round to
simulate, the engine's exported canonical state (per-color protocol
state, each color's pending batch as ``[arrival, count]``, cache slots,
accumulated costs), the scheme's
decision state (RNG streams, mark sets, credit vectors), the ingestion
counters, and any source state.  A configuration echo (spec digest,
scheme/engine/resources/speed) guards against resuming into a different
experiment, and a body digest guards against torn or edited files.

On disk a checkpoint is two lines: a header
``{"digest": <sha256 of the body bytes>, "schema": ...}`` and the body,
the compact sort-keyed JSON of :meth:`StreamCheckpoint.to_payload`.
Saving encodes the body once; loading checks the digest on the raw body
bytes and decodes them once.  Schema v3 stores pending batches as counts;
v2 files (one ``[arrival, jid]`` pair per pending job) are refused.

Restore contract: a session resumed from a checkpoint produces the same
``CostBreakdown`` as the uninterrupted session, bit for bit.  This is
nearly by construction — the session *always* advances by exporting and
re-importing this exact state between segments, so the resume path and
the uninterrupted path are the same code.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.instance import ProblemSpec, is_count

CHECKPOINT_SCHEMA = "repro-stream-checkpoint/v3"

#: Body fields a checkpoint cannot be resumed without.
_REQUIRED_FIELDS = (
    "round",
    "config",
    "engine_state",
    "scheme_state",
    "ingest_state",
)


def _canonical_json(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def spec_digest(spec: ProblemSpec) -> str:
    """Stable digest of a problem spec (checkpoint/session match check)."""
    payload = {
        "delay_bounds": {str(c): b for c, b in sorted(spec.delay_bounds.items())},
        "reconfig_cost": spec.cost.reconfig_cost,
        "drop_cost": spec.cost.drop_cost,
        "batch_mode": spec.batch_mode.value,
        "require_power_of_two": spec.require_power_of_two,
    }
    return hashlib.sha256(_canonical_json(payload)).hexdigest()[:16]


class CheckpointError(ValueError):
    """A checkpoint file is corrupt or does not match the session."""


def _json_object(raw: bytes, part: str) -> dict:
    try:
        value = json.loads(raw.decode("utf-8"))
    except ValueError as error:  # UnicodeDecodeError or JSONDecodeError
        raise CheckpointError(f"{part} is not UTF-8 JSON: {error}") from error
    if not isinstance(value, dict):
        raise CheckpointError(
            f"{part} is a JSON {type(value).__name__}, not an object"
        )
    return value


def _check_pending(engine_state) -> None:
    """Refuse a pending batch that is not ``[arrival, count]``."""
    if not isinstance(engine_state, dict):
        return
    for color, data in engine_state.get("colors", {}).items():
        entry = data.get("pending") if isinstance(data, dict) else None
        pair = isinstance(entry, list) and len(entry) == 2
        if not (pair and all(map(is_count, entry))):
            raise CheckpointError(
                f"color {color}: pending batch must be [arrival, count], "
                f"two nonnegative integers, got {entry!r}"
            )


@dataclass
class StreamCheckpoint:
    """Everything a :class:`~repro.streaming.session.StreamSession` needs
    to continue exactly where it stopped."""

    round: int
    config: dict
    engine_state: dict
    scheme_state: dict
    ingest_state: dict
    source_state: dict = field(default_factory=dict)
    rounds_executed: int = 0
    wall_seconds: float = 0.0
    #: Session-cumulative checkpoints written, including this one —
    #: carried so a resumed session's ``stream.checkpoints`` counter
    #: (and the series recorded from it) continues instead of resetting.
    checkpoints_written: int = 0
    #: Observability carry-over (series recorder + alert engine state);
    #: empty for a session without registry or recorder, and optional
    #: in :meth:`from_payload`, which reads its absence as empty.
    obs_state: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        """The checkpoint body as a JSON-ready dict."""
        return {
            "round": self.round,
            "config": self.config,
            "engine_state": self.engine_state,
            "scheme_state": self.scheme_state,
            "ingest_state": self.ingest_state,
            "source_state": self.source_state,
            "rounds_executed": self.rounds_executed,
            "wall_seconds": self.wall_seconds,
            "checkpoints_written": self.checkpoints_written,
            "obs_state": self.obs_state,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "StreamCheckpoint":
        missing = [key for key in _REQUIRED_FIELDS if key not in payload]
        if missing:
            raise CheckpointError(
                f"missing required field(s) {', '.join(missing)}"
            )
        _check_pending(payload["engine_state"])
        return cls(
            round=payload["round"],
            config=payload["config"],
            engine_state=payload["engine_state"],
            scheme_state=payload["scheme_state"],
            ingest_state=payload["ingest_state"],
            source_state=payload.get("source_state", {}),
            rounds_executed=payload.get("rounds_executed", 0),
            wall_seconds=payload.get("wall_seconds", 0.0),
            checkpoints_written=payload.get("checkpoints_written", 0),
            obs_state=payload.get("obs_state", {}),
        )

    def save(self, path: str | Path) -> Path:
        """Write atomically (temp file + rename) so a crash mid-write
        leaves the previous checkpoint intact."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = _canonical_json(self.to_payload())
        header = _canonical_json(
            {
                "digest": hashlib.sha256(body).hexdigest(),
                "schema": CHECKPOINT_SCHEMA,
            }
        )
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(b"\n".join((header, body, b"")))
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "StreamCheckpoint":
        """Read a :meth:`save` file.

        Raises :class:`CheckpointError`, naming ``path``, when the file
        is unreadable or truncated, its header or body is not a UTF-8
        JSON object, its schema is not :data:`CHECKPOINT_SCHEMA`, the
        body fails the header's digest, or a required field is missing.
        """
        try:
            return cls._parse(Path(path).read_bytes())
        except (OSError, CheckpointError) as error:
            raise CheckpointError(
                f"cannot load checkpoint {path}: {error}"
            ) from error

    @classmethod
    def _parse(cls, data: bytes) -> "StreamCheckpoint":
        header_line, _, rest = data.partition(b"\n")
        header = _json_object(header_line, "header")
        schema = header.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"unsupported schema {schema!r}; this version reads only "
                f"{CHECKPOINT_SCHEMA}"
            )
        body, newline, tail = rest.partition(b"\n")
        if not newline or tail:
            raise CheckpointError(
                "truncated or trailing data: expected a header line and "
                "one body line"
            )
        if hashlib.sha256(body).hexdigest() != header.get("digest"):
            raise CheckpointError(
                "digest mismatch (torn write or edited file)"
            )
        return cls.from_payload(_json_object(body, "body"))
