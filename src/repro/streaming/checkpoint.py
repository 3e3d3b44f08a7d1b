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
bytes and decodes them once.  Only schema v4 is read: v3 bodies carried
the recorder's whole series history, and v2 bodies one
``[arrival, jid]`` pair per pending job.

A session's :class:`~repro.obs.timeseries.SeriesRecorder` history stays
out of the body.  The body carries the recorder's derivation and alert
state and names a :class:`SeriesSidecar` file beside the checkpoint,
``<checkpoint>.<n>.series``, with the byte length and sha256 it had when
the body was written.  The sidecar is a ``repro-series`` file, so
``repro alerts check`` reads it: a snapshot of every ring when
generation ``n`` began, then one sample line per sample since.  A save
appends the samples recorded since the previous save.  A generation
never spans a compaction: once a ring has compacted since the snapshot,
the save begins generation ``n + 1`` from a fresh one (so does a save
whose lines would pass the ring capacity, or that finds a sample the
session never noted).  The snapshot's points plus one point per value
in the sample lines are then exactly the points of the current rings,
so a resume decodes as many points as a body holding the rings would,
and the sidecar stays O(capacity) per series.  A save takes four steps:

1. append to the sidecar, or write the new generation;
2. write the body to a temp file;
3. rename the temp file over the checkpoint;
4. remove the checkpoint's other generations.

Steps 1 and 2 flush their file to the disk (``fsync``), and a save that
began a generation flushes the directory before steps 3 and 4.  Until
step 3 the old checkpoint names only bytes the save does not touch: an
append lands past its recorded length, and a new generation is a new
file.  So a crash at any step, of the process or of the machine, leaves
the old checkpoint or the new one, and either resumes.

Resume reads the sidecar up to the recorded length and no further,
checks its sha256 and sample count, and replays the sample lines onto
the snapshot's rings through :func:`~repro.obs.timeseries.append_sample`,
the path every live sample takes.  Bytes past the recorded length, from
an append whose checkpoint was never written, are never read, and the
next save cuts them off.

Restore contract: a session resumed from a checkpoint produces the same
``CostBreakdown``, series and alerts as the uninterrupted session, bit
for bit.  This is nearly by construction — the session *always*
advances by exporting and re-importing this exact state between
segments, so the resume path and the uninterrupted path are the same
code.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

from repro.core.inputs import InputError, malformed, parse_jsonl
from repro.core.instance import ProblemSpec, is_count
from repro.obs.timeseries import (
    SeriesRecorder,
    decode_series_file,
    sample_line,
    series_file_text,
)

CHECKPOINT_SCHEMA = "repro-stream-checkpoint/v4"

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


class CheckpointError(InputError):
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
    #: Observability carry-over: the registry snapshot, and the series
    #: recorder's derivation and alert state with its sidecar reference;
    #: empty for a session without registry or recorder, and optional
    #: in :meth:`from_payload`, which reads its absence as empty.
    obs_state: dict = field(default_factory=dict)
    #: The file this checkpoint was loaded from or last saved to; the
    #: series sidecar it names lies beside it.
    path: Path | None = field(default=None, compare=False)
    #: The session's series sidecar, which :meth:`save` brings up to
    #: this checkpoint's sample count.
    sidecar: SeriesSidecar | None = field(
        default=None, compare=False, repr=False
    )

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
        """Bring the series sidecar up to this checkpoint, then write the
        checkpoint atomically (temp file, fsync, rename), so a crash at
        any step, of the process or the machine, leaves the previous
        checkpoint or this one intact (see the module docstring)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        generation = None
        if self.sidecar is not None:
            series_state = self.obs_state["series"]
            generation = self.sidecar.write(path, series_state["samples"])
            series_state["sidecar"] = generation.reference()
        body = _canonical_json(self.to_payload())
        header = _canonical_json(
            {
                "digest": hashlib.sha256(body).hexdigest(),
                "schema": CHECKPOINT_SCHEMA,
            }
        )
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(b"\n".join((header, body, b"")))
            _sync(handle)
        began = generation is not None and generation.began
        if began:
            # The new generation's name reaches the disk before a body
            # naming it can.
            _sync_directory(path.parent)
        os.replace(tmp, path)
        self.path = path
        if began:
            # And the rename before the old generation goes.
            _sync_directory(path.parent)
        if generation is not None:
            self.sidecar.commit(generation)
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
            checkpoint = cls._parse(Path(path).read_bytes())
        except (OSError, CheckpointError) as error:
            raise CheckpointError(
                f"cannot load checkpoint {path}: {error}"
            ) from error
        checkpoint.path = Path(path)
        return checkpoint

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


def _sync(handle) -> None:
    """Flush an open file's written bytes through to the disk."""
    handle.flush()
    os.fsync(handle.fileno())


def _sync_directory(directory: Path) -> None:
    """Make the names created, renamed or removed in ``directory`` so
    far durable."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def _compactions(recorder: SeriesRecorder) -> int:
    """Compactions of all the recorder's rings so far."""
    return sum(ring.compactions for ring in recorder.series.values())


class _Generation(NamedTuple):
    """A sidecar generation as some save left it."""

    #: The checkpoint whose generation this is.
    checkpoint: Path
    path: Path
    #: Bytes of ``path`` a checkpoint vouches for, and the ``hashlib``
    #: sha256 of them, which an append goes on updating.
    length: int
    digest: Any
    #: Samples those bytes hold, and sample lines among them after the
    #: snapshot.
    samples: int
    lines: int
    #: The rings' compactions when the snapshot was taken.
    compactions: int
    #: Whether the save that left it began it.
    began: bool

    def reference(self) -> dict:
        """What the checkpoint body records of it."""
        return {
            "name": self.path.name,
            "bytes": self.length,
            "sha256": self.digest.hexdigest(),
        }


def _generations(checkpoint: Path) -> list[tuple[int, Path]]:
    """``(n, path)`` of every ``<checkpoint>.<n>.series`` on disk."""
    pattern = re.compile(re.escape(checkpoint.name) + r"\.(\d+)\.series")
    found = []
    for name in os.listdir(checkpoint.parent):
        match = pattern.fullmatch(name)
        if match is not None:
            found.append((int(match.group(1)), checkpoint.with_name(name)))
    return found


class SeriesSidecar:
    """A streaming session recorder's series history, kept beside the
    session's checkpoints (see the module docstring)."""

    def __init__(self, recorder: SeriesRecorder) -> None:
        self.recorder = recorder
        #: The generation the last saved or loaded checkpoint names.
        self._committed: _Generation | None = None
        #: ``(round, values)`` of the samples since, for the next save
        #: to append; at most enough to fill the generation's lines.
        self._unsaved: list = []

    def note(self, round_index: int, values) -> None:
        """Keep one :meth:`~repro.obs.timeseries.SeriesRecorder.sample`
        result for the next save."""
        committed = self._committed
        if committed is not None and (
            committed.lines + len(self._unsaved) < self.recorder.capacity
        ):
            self._unsaved.append((round_index, values))

    def write(self, checkpoint: Path, samples: int) -> _Generation:
        """Step 1 of saving, to ``checkpoint``, a checkpoint taken at
        ``samples`` samples: append the unsaved samples to the committed
        generation, or begin a new one when they cannot extend it — the
        generation belongs to another checkpoint, a ring compacted since
        its snapshot, its lines would pass the capacity, or a sample
        went unnoted."""
        recorder = self.recorder
        if recorder.samples != samples:
            raise ValueError(
                f"the recorder has taken {recorder.samples} samples "
                f"and this checkpoint {samples}: save a checkpoint before "
                "the session runs on"
            )
        committed = self._committed
        if (
            committed is None
            or committed.checkpoint != checkpoint
            or committed.samples + len(self._unsaved) != samples
            or committed.compactions != _compactions(recorder)
        ):
            return self._begin(checkpoint)
        return self._append()

    def _append(self) -> _Generation:
        """Write the unsaved samples over whatever follows the committed
        length, and cut the rest off."""
        committed, unsaved = self._committed, self._unsaved
        data = "".join(
            sample_line(round_index, values) for round_index, values in unsaved
        ).encode("utf-8")
        with open(committed.path, "r+b") as handle:
            handle.seek(committed.length)
            handle.write(data)
            handle.truncate()
            _sync(handle)
        digest = committed.digest.copy()
        digest.update(data)
        return committed._replace(
            length=committed.length + len(data),
            digest=digest,
            samples=committed.samples + len(unsaved),
            lines=committed.lines + len(unsaved),
            began=False,
        )

    def _begin(self, checkpoint: Path) -> _Generation:
        """Write a new generation: a snapshot of every ring."""
        recorder = self.recorder
        number = 1 + max((n for n, _ in _generations(checkpoint)), default=-1)
        path = checkpoint.with_name(f"{checkpoint.name}.{number}.series")
        data = series_file_text(recorder.snapshot()).encode("utf-8")
        with open(path, "xb") as handle:
            handle.write(data)
            _sync(handle)
        return _Generation(
            checkpoint,
            path,
            len(data),
            hashlib.sha256(data),
            recorder.samples,
            0,
            _compactions(recorder),
            True,
        )

    def commit(self, generation: _Generation) -> None:
        """Adopt ``generation`` once a checkpoint naming it is in place;
        a generation this save began retires the checkpoint's others."""
        self._committed = generation
        self._unsaved = []
        if generation.began:
            for _, path in _generations(generation.checkpoint):
                if path != generation.path:
                    path.unlink(missing_ok=True)

    def restore(self, checkpoint: StreamCheckpoint) -> None:
        """Rebuild the recorder from ``checkpoint``'s series state and the
        sidecar it names.

        Raises :class:`CheckpointError` naming the sidecar when it is
        missing, shorter than the recorded length, fails the recorded
        sha256, or does not hold exactly the checkpoint's sample count —
        and when ``checkpoint`` was never saved, so no sidecar holds its
        history.
        """
        if checkpoint.path is None:
            raise CheckpointError(
                "the checkpoint was never saved, so no series sidecar "
                "holds its recorder's history"
            )
        state = checkpoint.obs_state["series"]
        with malformed(f"checkpoint {checkpoint.path}", error=CheckpointError):
            samples, reference = state["samples"], state["sidecar"]
            name, length = reference["name"], reference["bytes"]
            recorded = reference["sha256"]
            if not isinstance(name, str) or name in ("", ".", "..") or (
                Path(name).name != name
            ):
                raise ValueError(f"series sidecar {name!r} is not a file name")
            if not is_count(length):
                raise ValueError(f"series sidecar length {length!r} is not a count")
        path = checkpoint.path.with_name(name)
        source = f"series sidecar {path}"
        try:
            with open(path, "rb") as handle:
                data = handle.read(length)
        except OSError as error:
            raise CheckpointError(
                f"cannot read {source}: {error.strerror or error}"
            ) from error
        if len(data) < length:
            raise CheckpointError(
                f"{source} is {len(data)} bytes, shorter than the {length} "
                "its checkpoint recorded"
            )
        digest = hashlib.sha256(data)
        if digest.hexdigest() != recorded:
            raise CheckpointError(
                f"{source} fails its checkpoint's sha256 (edited or damaged)"
            )
        try:
            decoded = decode_series_file(parse_jsonl(data, source).rows, source)
        except InputError as error:
            raise CheckpointError(str(error)) from error
        if decoded.samples != samples:
            raise CheckpointError(
                f"{source} holds {decoded.samples} samples; its checkpoint "
                f"recorded {samples}"
            )
        if decoded.capacity != self.recorder.capacity:
            raise CheckpointError(
                f"{source} was recorded at series capacity "
                f"{decoded.capacity}, not this recorder's "
                f"{self.recorder.capacity}"
            )
        with malformed(f"checkpoint {checkpoint.path}", error=CheckpointError):
            self.recorder.load_state(state, decoded.series)
        self._committed = _Generation(
            checkpoint.path,
            path,
            length,
            digest,
            decoded.samples,
            decoded.appended,
            _compactions(self.recorder),
            False,
        )
        self._unsaved = []
