"""Streaming ingestion, checkpoints, and the PR's hardening satellites.

The load-bearing property throughout: a :class:`StreamSession` — however
it is segmented, checkpointed, killed, and resumed — produces the same
``CostBreakdown``, bit for bit, as a one-shot ``simulate`` over the same
arrivals.  Segmentation is the checkpoint mechanism, so the tests below
exercise the resume path simply by comparing against uninterrupted runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.randomized import RandomEvict, RandomizedMarking
from repro.analysis.credits import CreditScheme
from repro.core.cost import CostBreakdown, CostModel
from repro.core.instance import BatchMode, Instance, ProblemSpec, RequestSequence
from repro.core.job import Job
from repro.obs.alerts import example_rules
from repro.obs.metrics import MetricsRegistry
from repro.obs.registry import RunRecord, RunRegistry
from repro.obs.service import OpsState
from repro.obs.timeseries import SeriesRecorder, read_series_jsonl
from repro.runtime.parallel import ParallelRunner
from repro.simulation.engine import BatchedEngine, RunResult, simulate
from repro.streaming import (
    AdmissionPolicy,
    GeneratorSource,
    InstanceSource,
    StreamCheckpoint,
    StreamSession,
    rate_limited_source,
)
from repro.streaming import checkpoint as checkpoint_module
from repro.streaming.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    SeriesSidecar,
)
from repro.streaming.ingest import StreamIngest
from repro.workloads.random_batched import random_rate_limited
from repro.workloads.streaming import rate_limited_stream

ENGINES = ("sparse", "dense", "vectorized")


def _instance(seed=7, num_colors=12, delta=48, horizon=1500, load=0.6):
    return random_rate_limited(
        num_colors, delta, horizon, seed=seed, load=load
    )


# --------------------------------------------------------------- tentpole


class TestStreamBitIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("speed", (1, 2))
    def test_stream_matches_one_shot_simulate(self, engine, speed):
        instance = _instance()
        base = simulate(
            instance, DeltaLRU(), 8, speed=speed, engine=engine
        )
        session = StreamSession(
            InstanceSource(instance),
            DeltaLRU(),
            8,
            engine=engine,
            speed=speed,
            segment_rounds=257,
        )
        result = session.run()
        assert result.cost == base.cost
        assert result.rounds == instance.horizon

    def test_segment_width_is_cost_transparent(self):
        costs = set()
        for segment_rounds in (64, 411, 4096):
            session = StreamSession(
                rate_limited_source(10, 40, seed=3, load=0.7),
                DeltaLRUEDF(),
                8,
                segment_rounds=segment_rounds,
            )
            result = session.run(3000)
            costs.add(
                (result.cost.total, result.offered, result.admitted)
            )
        assert len(costs) == 1

    def test_run_is_incremental(self):
        full = StreamSession(
            rate_limited_source(10, 40, seed=5), DeltaLRU(), 8
        ).run(2000)
        split = StreamSession(
            rate_limited_source(10, 40, seed=5), DeltaLRU(), 8
        )
        split.run(700)
        result = split.run(1300)
        assert result.cost == full.cost
        assert result.rounds == 2000

    def test_unbounded_source_requires_rounds(self):
        session = StreamSession(
            rate_limited_source(6, 24, seed=1), DeltaLRU(), 4
        )
        with pytest.raises(ValueError, match="rounds"):
            session.run()

    def test_target_beyond_finite_horizon_rejected(self):
        instance = _instance(horizon=400)
        session = StreamSession(InstanceSource(instance), DeltaLRU(), 8)
        with pytest.raises(ValueError, match="horizon"):
            session.run(instance.horizon + 1)

    @pytest.mark.parametrize(
        "resources, speed, match",
        [(3, 1, "num_resources"), (0, 1, "num_resources"), (8, 3, "speed")],
    )
    def test_bad_geometry_rejected_at_construction(self, resources, speed, match):
        # Not at the first segment's engine: no arrival is drawn first.
        source = rate_limited_source(6, 24, seed=1)
        with pytest.raises(ValueError, match=match):
            StreamSession(source, DeltaLRU(), resources, speed=speed)


class TestCheckpointResume:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("speed", (1, 2))
    def test_kill_and_resume_mid_epoch_is_bit_identical(
        self, tmp_path, engine, speed
    ):
        instance = _instance(seed=11, horizon=1200)
        base = simulate(
            instance, DeltaLRU(), 8, speed=speed, engine=engine
        )
        path = tmp_path / "ckpt.json"
        first = StreamSession(
            InstanceSource(instance),
            DeltaLRU(),
            8,
            engine=engine,
            speed=speed,
            segment_rounds=300,
        )
        # 500 is mid-epoch for every bound in the default choices — not
        # a multiple of the largest bound, so pending work is in flight.
        first.run(500, checkpoint_every=500, checkpoint_path=path)
        del first  # the "kill": nothing survives but the file
        resumed = StreamSession.resume(
            InstanceSource(instance), DeltaLRU(), path, segment_rounds=173
        )
        assert resumed.round == 500
        result = resumed.run()
        assert result.cost == base.cost

    @pytest.mark.parametrize(
        "make_scheme",
        [
            lambda: RandomEvict(seed=3),
            lambda: RandomizedMarking(seed=5),
            lambda: CreditScheme(earn_factor=4),
        ],
        ids=["random-evict", "randomized-marking", "credit-scheme"],
    )
    def test_stateful_schemes_survive_resume(self, tmp_path, make_scheme):
        instance = _instance(seed=19, horizon=1000)
        base = simulate(instance, make_scheme(), 6)
        path = tmp_path / "ckpt.json"
        first = StreamSession(
            InstanceSource(instance), make_scheme(), 6, segment_rounds=250
        )
        first.run(500, checkpoint_every=500, checkpoint_path=path)
        resumed = StreamSession.resume(
            InstanceSource(instance), make_scheme(), path
        )
        assert resumed.run().cost == base.cost

    def test_resume_restores_admission_policy_and_counters(self, tmp_path):
        policy = AdmissionPolicy(queue_cap=4, caps={3: 0})
        full = StreamSession(
            rate_limited_source(10, 40, seed=7),
            DeltaLRU(),
            8,
            policy=policy,
        ).run(8000)
        path = tmp_path / "ckpt.json"
        first = StreamSession(
            rate_limited_source(10, 40, seed=7),
            DeltaLRU(),
            8,
            policy=policy,
        )
        first.run(3000, checkpoint_every=3000, checkpoint_path=path)
        resumed = StreamSession.resume(
            rate_limited_source(10, 40, seed=7), DeltaLRU(), path
        )
        assert resumed.ingest.policy == policy
        result = resumed.run(5000)
        assert result.cost == full.cost
        assert result.rejected == full.rejected
        assert result.offered == full.offered

    def test_checkpoint_survives_json_round_trip(self):
        session = StreamSession(
            rate_limited_source(8, 32, seed=2), DeltaLRU(), 6
        )
        session.run(640)
        checkpoint = session.checkpoint()
        restored = StreamCheckpoint.from_payload(
            json.loads(json.dumps(checkpoint.to_payload()))
        )
        assert restored == checkpoint

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        session = StreamSession(
            rate_limited_source(8, 32, seed=2), DeltaLRU(), 6
        )
        session.run(320)
        path = tmp_path / "ckpt.json"
        session.checkpoint().save(path)
        data = bytearray(path.read_bytes())
        body_start = data.index(b"\n") + 1
        data[body_start + (len(data) - body_start) // 2] ^= 0x01  # tamper
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="digest"):
            StreamCheckpoint.load(path)

    def test_mismatched_config_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        session = StreamSession(
            rate_limited_source(8, 32, seed=2), DeltaLRU(), 6
        )
        session.run(320)
        session.checkpoint().save(path)
        with pytest.raises(CheckpointError, match="scheme"):
            StreamSession.resume(
                rate_limited_source(8, 32, seed=2), DeltaLRUEDF(), path
            )

    def test_save_is_atomic_overwrite(self, tmp_path):
        path = tmp_path / "ckpt.json"
        session = StreamSession(
            rate_limited_source(8, 32, seed=2), DeltaLRU(), 6
        )
        session.run(320, checkpoint_every=64, checkpoint_path=path)
        assert not path.with_name(path.name + ".tmp").exists()
        assert StreamCheckpoint.load(path).round == 320


def _v2_file(body: bytes, schema: str = CHECKPOINT_SCHEMA) -> bytes:
    """A two-line checkpoint file whose header digest matches ``body``."""
    header = {"digest": hashlib.sha256(body).hexdigest(), "schema": schema}
    return json.dumps(header).encode() + b"\n" + body + b"\n"


class TestCheckpointFaultInjection:
    """A damaged checkpoint raises CheckpointError naming the file, and
    nothing else: the CLI's ``--resume`` catches only that."""

    @pytest.fixture
    def saved(self, tmp_path):
        registry = MetricsRegistry()
        session = StreamSession(
            rate_limited_source(8, 32, seed=2),
            DeltaLRU(),
            6,
            registry=registry,
            recorder=SeriesRecorder(registry, capacity=8),
            segment_rounds=32,
        )
        path = tmp_path / "ckpt.json"
        session.run(640, checkpoint_every=320, checkpoint_path=path)
        # The body carries the recorder's derivation state, not its
        # rings: those are in the series sidecar it names, where 20
        # samples at capacity 8 put compacted and single-sample points.
        state = StreamCheckpoint.load(path).obs_state["series"]
        assert "series" not in state and state["samples"] == 20
        sidecar = path.with_name(state["sidecar"]["name"])
        series = read_series_jsonl(sidecar)["series"]
        lengths = {len(p) for s in series.values() for p in s["points"]}
        assert lengths == {2, 7}
        return path

    def _refused(self, path, data: bytes) -> str:
        path.write_bytes(data)
        with pytest.raises(CheckpointError) as caught:
            StreamCheckpoint.load(path)
        assert str(path) in str(caught.value)
        return str(caught.value)

    def test_byte_flips(self, saved):
        data = saved.read_bytes()
        header_end = data.index(b"\n") + 1
        rng = random.Random(14)
        offsets = rng.sample(range(header_end), 16) + rng.sample(
            range(header_end, len(data)), 48
        )
        for offset in offsets:
            damaged = bytearray(data)
            damaged[offset] ^= rng.randrange(1, 256)
            self._refused(saved, bytes(damaged))

    def test_truncations(self, saved):
        data = saved.read_bytes()
        header_end = data.index(b"\n") + 1
        rng = random.Random(15)
        lengths = {0, header_end // 2, header_end - 1, header_end}
        lengths.add(len(data) - 1)
        while len(lengths) < 16:
            lengths.add(rng.randrange(1, len(data)))
        for length in sorted(lengths):
            self._refused(saved, data[:length])

    def test_v1_layout_refused_naming_both_schemas(self, saved):
        # The v1 writer: one JSON document, schema and digest inside.
        payload = StreamCheckpoint.load(saved).to_payload()
        payload["schema"] = "repro-stream-checkpoint/v1"
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        payload["digest"] = hashlib.sha256(canon.encode()).hexdigest()
        message = self._refused(
            saved, json.dumps(payload, sort_keys=True).encode()
        )
        assert "repro-stream-checkpoint/v1" in message
        assert CHECKPOINT_SCHEMA in message

    def _payload_file(self, saved, edit) -> bytes:
        payload = StreamCheckpoint.load(saved).to_payload()
        edit(payload["engine_state"]["colors"])
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return body.encode()

    def test_v2_checkpoint_refused_naming_both_schemas(self, saved):
        # The v2 writer: one [arrival, jid] pair per pending job.
        def as_v2(colors):
            for data in colors.values():
                arrival, count = data["pending"]
                data["pending"] = [
                    [arrival, arrival * 1_000_000 + i] for i in range(count)
                ]

        body = self._payload_file(saved, as_v2)
        v2 = "repro-stream-checkpoint/v2"
        message = self._refused(saved, _v2_file(body, schema=v2))
        assert v2 in message
        assert CHECKPOINT_SCHEMA in message

    def test_v3_checkpoint_refused_naming_both_schemas(self, saved):
        # The v3 writer: the same body, with the series history inside.
        body = self._payload_file(saved, lambda colors: None)
        v3 = "repro-stream-checkpoint/v3"
        message = self._refused(saved, _v2_file(body, schema=v3))
        assert v3 in message
        assert CHECKPOINT_SCHEMA in message

    @pytest.mark.parametrize(
        "entry",
        [[3], [0, 2, 1], [0, -1], [-8, 1], [0, 1.5], [0, True], [[0, 5]], "x", None],
    )
    def test_malformed_pending_batch_names_the_color(self, saved, entry):
        def damage(colors):
            colors["5"]["pending"] = entry

        message = self._refused(saved, _v2_file(self._payload_file(saved, damage)))
        assert "color 5" in message and "[arrival, count]" in message

    @pytest.mark.parametrize(
        "data, problem",
        [
            (b"[]", "header is a JSON list"),
            (b'"x"', "header is a JSON str"),
            (b"\xff\xfe{}\n{}\n", "header is not UTF-8"),
            (_v2_file(b"[]"), "body is a JSON list"),
            (_v2_file(b"{}", schema="repro-stream-checkpoint/v9"), "v9"),
            (_v2_file(b'{"round":3}'), "missing required field"),
            (_v2_file(b"{}") + b"{}\n", "trailing data"),
        ],
    )
    def test_malformed_files(self, tmp_path, data, problem):
        assert problem in self._refused(tmp_path / "ckpt.json", data)

    def test_unreadable_file(self, tmp_path):
        for path in (tmp_path / "missing.json", tmp_path):
            with pytest.raises(CheckpointError, match="cannot load"):
                StreamCheckpoint.load(path)


def _observed(resume_from=None, *, capacity=8, segment_rounds=32):
    """A session with a registry and a recorder carrying the example
    alert rules, fresh or resumed from ``resume_from``."""
    registry = MetricsRegistry()
    recorder = SeriesRecorder(
        registry, capacity=capacity, rules=example_rules(32)
    )
    source = rate_limited_source(8, 32, seed=2, load=0.9)
    if resume_from is not None:
        return StreamSession.resume(
            source,
            DeltaLRUEDF(),
            resume_from,
            registry=registry,
            recorder=recorder,
            segment_rounds=segment_rounds,
        )
    return StreamSession(
        source,
        DeltaLRUEDF(),
        6,
        policy=AdmissionPolicy(queue_cap=2),
        registry=registry,
        recorder=recorder,
        segment_rounds=segment_rounds,
    )


def _observation(session) -> str:
    """Series, alerts, registry and costs: what a kill/resume keeps."""
    recorder = session.recorder
    return json.dumps(
        [
            recorder.snapshot(),
            recorder.alerts.payload(),
            session.registry.snapshot(),
            session.cost.to_dict(),
        ],
        sort_keys=True,
    )


def _sidecar_of(path):
    state = StreamCheckpoint.load(path).obs_state["series"]
    return path.with_name(state["sidecar"]["name"])


def _sample_lines(sidecar) -> int:
    return sidecar.read_bytes().count(b'\n{"round":')


def _sidecar_points(sidecar) -> dict[str, int]:
    """Per series, the snapshot's points plus the sample lines' values."""
    points: dict[str, int] = {}
    for line in sidecar.read_bytes().splitlines()[1:]:
        row = json.loads(line)
        if "values" in row:
            for name in row["values"]:
                points[name] = points.get(name, 0) + 1
        else:
            points[row["name"]] = points.get(row["name"], 0) + len(row["points"])
    return points


class TestSeriesSidecar:
    """The recorder's history lives in an append-only sidecar beside the
    checkpoint; the v4 body carries only the recorder's derivation state."""

    def test_body_holds_no_points_and_stops_growing(self, tmp_path):
        path = tmp_path / "ckpt.json"
        session = _observed()
        session.run(320, checkpoint_every=320, checkpoint_path=path)
        early = path.read_bytes()
        session.run(2880, checkpoint_every=320, checkpoint_path=path)
        late = path.read_bytes()
        assert session.recorder.samples == 100
        assert b'"points"' not in late
        # Ten times the samples; the body grows only by wider counters
        # and alert events.
        assert len(late) - len(early) < len(early) // 10

    def test_sidecar_reads_as_the_recorder_snapshot(self, tmp_path):
        path = tmp_path / "ckpt.json"
        session = _observed(capacity=4)
        generations = set()

        def check(checkpoint):
            sidecar = path.with_name(checkpoint.obs_state["series"]["sidecar"]["name"])
            assert read_series_jsonl(sidecar) == session.recorder.snapshot()
            # The old generation is gone once the new one is in place, and
            # a generation never holds more sample lines than the capacity.
            assert sorted(tmp_path.iterdir()) == sorted([path, sidecar])
            assert _sample_lines(sidecar) <= 4
            generations.add(sidecar.name)

        session.run(1024, checkpoint_every=64, checkpoint_path=path, on_checkpoint=check)
        assert len(generations) >= 4

    def test_generation_never_spans_a_compaction(self, tmp_path):
        """At every save the sidecar holds exactly the current rings'
        points, a replayed value standing for one point, so a resume
        decodes no more than the rings hold."""
        path = tmp_path / "ckpt.json"
        session = _observed(capacity=8)
        generations = set()

        def check(checkpoint):
            sidecar = _sidecar_of(path)
            rings = session.recorder.series
            assert _sidecar_points(sidecar) == {
                name: len(ring.points) for name, ring in rings.items()
            }
            generations.add(sidecar.name)

        session.run(32 * 60, checkpoint_every=32, checkpoint_path=path, on_checkpoint=check)
        assert max(ring.compactions for ring in session.recorder.series.values()) >= 10
        assert len(generations) >= 10

    def test_unnoted_sample_begins_a_generation(self, tmp_path):
        """An interrupt inside a sample's alert evaluation leaves the
        sample recorded but not noted for the sidecar; the save that
        follows (as ``repro stream`` makes on Ctrl-C) still resumes."""
        path = tmp_path / "ckpt.json"
        session = _observed()
        session.run(96, checkpoint_every=32, checkpoint_path=path)
        alerts = session.recorder.alerts

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        alerts.observe = interrupted
        with pytest.raises(KeyboardInterrupt):
            session.run(32)
        del alerts.observe
        session.save_checkpoint(path)
        resumed = _observed(path)
        assert resumed.recorder.samples == 4
        assert resumed.recorder.snapshot() == session.recorder.snapshot()
        assert read_series_jsonl(_sidecar_of(path)) == session.recorder.snapshot()

    def test_files_reach_the_disk_before_the_rename(self, tmp_path, monkeypatch):
        """The sidecar bytes and the body a rename installs are flushed
        before it, and a new generation's name before it and the rename
        before the old generation goes."""
        events = []
        sync, replace = checkpoint_module._sync, checkpoint_module.os.replace
        sync_directory = checkpoint_module._sync_directory
        unlink = Path.unlink

        def logged_sync(handle):
            events.append(("sync", Path(handle.name).name))
            sync(handle)

        def logged_sync_directory(directory):
            events.append(("sync", "."))
            sync_directory(directory)

        def logged_replace(src, dst):
            events.append(("rename", Path(src).name))
            replace(src, dst)

        def logged_unlink(self, missing_ok=False):
            events.append(("unlink", self.name))
            unlink(self, missing_ok=missing_ok)

        monkeypatch.setattr(checkpoint_module, "_sync", logged_sync)
        monkeypatch.setattr(checkpoint_module, "_sync_directory", logged_sync_directory)
        monkeypatch.setattr(checkpoint_module.os, "replace", logged_replace)
        monkeypatch.setattr(Path, "unlink", logged_unlink)
        path = tmp_path / "ckpt.json"
        # At capacity 4 the fifth sample compacts the rings.
        _observed(capacity=4).run(32 * 5, checkpoint_every=32, checkpoint_path=path)
        begin = [
            ("sync", "ckpt.json.0.series"),
            ("sync", "ckpt.json.tmp"),
            ("sync", "."),
            ("rename", "ckpt.json.tmp"),
            ("sync", "."),
        ]
        append = [
            ("sync", "ckpt.json.0.series"),
            ("sync", "ckpt.json.tmp"),
            ("rename", "ckpt.json.tmp"),
        ]
        assert events == begin + append * 3 + [
            ("sync", "ckpt.json.1.series"),
            *begin[1:],
            ("unlink", "ckpt.json.0.series"),
        ]

    def test_unsaved_checkpoint_cannot_resume_a_recorder(self, tmp_path):
        path = tmp_path / "ckpt.json"
        session = _observed()
        session.run(320, checkpoint_every=320, checkpoint_path=path)
        session.run(64)
        # The file on disk holds 10 samples; this in-memory one 12.
        with pytest.raises(CheckpointError, match="never saved"):
            _observed(session.checkpoint())
        stale = session.checkpoint()
        session.run(32)
        with pytest.raises(ValueError, match="before the session runs on"):
            stale.save(path)
        assert _observed(path).round == 320

    def test_sidecar_holding_other_sample_count_is_refused(self, tmp_path):
        path = tmp_path / "ckpt.json"
        _observed().run(320, checkpoint_every=320, checkpoint_path=path)
        checkpoint = StreamCheckpoint.load(path)
        checkpoint.obs_state["series"]["samples"] += 1
        with pytest.raises(CheckpointError, match="holds 10 samples") as caught:
            _observed(checkpoint)
        assert str(_sidecar_of(path)) in str(caught.value)

    def test_missing_sidecar_is_refused_naming_it(self, tmp_path):
        path = tmp_path / "ckpt.json"
        _observed().run(320, checkpoint_every=320, checkpoint_path=path)
        sidecar = _sidecar_of(path)
        sidecar.unlink()
        with pytest.raises(CheckpointError, match="cannot read series sidecar") as caught:
            _observed(path)
        assert str(sidecar) in str(caught.value)
        # Without a recorder the history is not needed.
        StreamSession.resume(rate_limited_source(8, 32, seed=2, load=0.9), DeltaLRUEDF(), path)

    def test_other_capacity_is_refused(self, tmp_path):
        path = tmp_path / "ckpt.json"
        _observed().run(320, checkpoint_every=320, checkpoint_path=path)
        with pytest.raises(CheckpointError, match="capacity 8, not this recorder's 16"):
            _observed(path, capacity=16)

    @settings(max_examples=30, deadline=None)
    @example(segment=16, capacity=2, cadence=1, saves=5, past=20)
    @given(
        segment=st.sampled_from([16, 32, 48, 96]),
        capacity=st.integers(2, 12),
        cadence=st.integers(1, 3),
        saves=st.integers(1, 12),
        past=st.integers(0, 95),
    )
    def test_kill_and_resume_is_bit_identical(
        self, segment, capacity, cadence, saves, past
    ):
        """Segment width, ring capacity and kill point vary; small
        capacities compact the rings and start sidecar generations."""
        every = segment * cadence
        # Killed `past` rounds after the save-th checkpoint; the run goes
        # three checkpoints past the last one the kill left on disk.
        kill = every * saves + past
        total = (kill // every + 3) * every
        uninterrupted = _observed(capacity=capacity, segment_rounds=segment)
        uninterrupted.run(total, checkpoint_every=every)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ckpt.json"
            first = _observed(capacity=capacity, segment_rounds=segment)
            first.run(kill, checkpoint_every=every, checkpoint_path=path)
            del first
            resumed = _observed(path, capacity=capacity, segment_rounds=segment)
            assert resumed.round == kill // every * every
            resumed.run(total - resumed.round, checkpoint_every=every, checkpoint_path=path)
            assert _observation(resumed) == _observation(uninterrupted)
            assert read_series_jsonl(_sidecar_of(path)) == uninterrupted.recorder.snapshot()
            assert _sample_lines(_sidecar_of(path)) <= capacity
            assert _sidecar_points(_sidecar_of(path)) == {
                name: len(ring.points) for name, ring in resumed.recorder.series.items()
            }


class _Crash(Exception):
    """An injected failure in the middle of a save."""


class TestSaveCrashConsistency:
    """A save that dies at any step leaves a checkpoint on disk that
    resumes to the previous or the new state, bit-identical to an
    uninterrupted run at that round; the resumed run then ends where
    the uninterrupted one does."""

    EVERY = 32  # a checkpoint per segment: one sample line per append
    TOTAL = 32 * 20

    def _inject(self, monkeypatch, step):
        """Arm ``step`` to crash on its first call that has a previous
        checkpoint to fall back on; returns the save that crashes."""
        calls = {"n": 0}
        # (the call that crashes, and the save it falls in)
        # At capacity 4 the fifth sample compacts the rings, so the fifth
        # save begins the second generation.
        nth, save = {
            "append": (3, 4),
            "new-generation": (2, 5),
            "temp-write": (3, 3),
            "rename": (3, 3),
            "remove-old": (1, 5),
        }[step]

        def armed():
            calls["n"] += 1
            return calls["n"] == nth

        if step == "append":
            original = SeriesSidecar._append

            def torn_append(self):
                start = self._committed.length
                generation = original(self)
                if armed():
                    os.truncate(generation.path, (start + generation.length) // 2)
                    raise _Crash(step)
                return generation

            monkeypatch.setattr(SeriesSidecar, "_append", torn_append)
        elif step == "new-generation":
            original = SeriesSidecar._begin

            def torn_begin(self, checkpoint):
                generation = original(self, checkpoint)
                if armed():
                    os.truncate(generation.path, generation.length // 2)
                    raise _Crash(step)
                return generation

            monkeypatch.setattr(SeriesSidecar, "_begin", torn_begin)
        elif step == "temp-write":
            original = checkpoint_module._sync

            def torn_write(handle):
                if handle.name.endswith(".tmp") and armed():
                    handle.truncate(handle.tell() // 2)
                    raise _Crash(step)
                return original(handle)

            monkeypatch.setattr(checkpoint_module, "_sync", torn_write)
        elif step == "rename":
            original = os.replace

            def failed_rename(src, dst):
                if armed():
                    raise _Crash(step)
                return original(src, dst)

            monkeypatch.setattr(checkpoint_module.os, "replace", failed_rename)
        else:
            original = Path.unlink

            def failed_unlink(self, missing_ok=False):
                if self.name.endswith(".series") and armed():
                    raise _Crash(step)
                return original(self, missing_ok=missing_ok)

            monkeypatch.setattr(Path, "unlink", failed_unlink)
        return save

    @pytest.mark.parametrize(
        "step", ["append", "new-generation", "temp-write", "rename", "remove-old"]
    )
    def test_crash_at_each_save_step(self, tmp_path, monkeypatch, step):
        states = {}
        uninterrupted = _observed(capacity=4)
        uninterrupted.run(
            self.TOTAL,
            checkpoint_every=self.EVERY,
            on_checkpoint=lambda c: states.setdefault(c.round, _observation(uninterrupted)),
        )
        path = tmp_path / "ckpt.json"
        save = self._inject(monkeypatch, step)
        first = _observed(capacity=4)
        with pytest.raises(_Crash):
            first.run(self.TOTAL, checkpoint_every=self.EVERY, checkpoint_path=path)
        del first
        monkeypatch.undo()
        # Before the rename the old checkpoint stands; after it, the new.
        landed = save if step == "remove-old" else save - 1
        resumed = _observed(path, capacity=4)
        assert resumed.round == landed * self.EVERY
        assert _observation(resumed) == states[resumed.round]
        resumed.run(
            self.TOTAL - resumed.round,
            checkpoint_every=self.EVERY,
            checkpoint_path=path,
        )
        assert _observation(resumed) == _observation(uninterrupted)
        assert _observation(_observed(path, capacity=4)) == states[self.TOTAL]
        # Torn bytes were cut off and stray generations retired.
        assert sorted(tmp_path.iterdir()) == sorted([path, _sidecar_of(path)])


class TestIngestion:
    def test_caps_bound_admitted_batches_and_count_rejections(self):
        registry = MetricsRegistry()
        session = StreamSession(
            rate_limited_source(10, 40, seed=9, load=0.9),
            DeltaLRU(),
            8,
            policy=AdmissionPolicy(queue_cap=2),
            registry=registry,
        )
        result = session.run(4000)
        assert result.rejected > 0
        assert result.offered == result.admitted + result.rejected
        assert 0.0 < result.rejection_rate < 1.0
        snapshot = registry.snapshot(prefix="stream.")
        counters = snapshot["counters"]
        assert counters["stream.offered"] == result.offered
        assert counters["stream.rejected"] == result.rejected
        assert sum(
            value
            for name, value in counters.items()
            if name.startswith("stream.rejected.color.")
        ) == result.rejected
        depth = snapshot["histograms"]["stream.queue_depth"]
        # Per-color post-admission depth can never exceed the cap.
        assert depth["counts"][-1] == 0  # overflow bucket
        assert max(
            bound
            for bound, count in zip(depth["buckets"], depth["counts"])
            if count
        ) <= 2
        assert snapshot["gauges"]["stream.rejection_rate"] == pytest.approx(
            result.rejection_rate
        )

    def test_zero_cap_rejects_color_outright(self):
        policy = AdmissionPolicy(caps={0: 0})
        session = StreamSession(
            rate_limited_source(4, 16, seed=1, load=1.0),
            DeltaLRU(),
            4,
            policy=policy,
        )
        result = session.run(320)
        assert session.ingest.rejected_by_color.get(0, 0) > 0

    def test_rejection_rate_zero_before_traffic(self):
        assert StreamIngest().rejection_rate == 0.0

    def test_negative_caps_rejected(self):
        # Caps are ints >= 0, checked at construction: 2.5 used to admit
        # 3 of 5 jobs, True admitted 1, and "3" only failed at the first
        # admit; from_dict reads the checkpoint's config echo.
        rows = [
            lambda: AdmissionPolicy(queue_cap=-1),
            lambda: AdmissionPolicy(caps={2: -3}),
            lambda: AdmissionPolicy(queue_cap=2.5),
            lambda: AdmissionPolicy(queue_cap=True),
            lambda: AdmissionPolicy(queue_cap="3"),
            lambda: AdmissionPolicy(caps={2: 1.5}),
            lambda: AdmissionPolicy(caps={2: False}),
            lambda: AdmissionPolicy.from_dict({"queue_cap": 1.5}),
            lambda: AdmissionPolicy.from_dict({"caps": {"2": 2.5}}),
        ]
        for row in rows:
            with pytest.raises(ValueError, match="nonnegative integer"):
                row()
        assert AdmissionPolicy(queue_cap=0, caps={2: 3}).cap_for(2) == 3

    def test_admit_caps_counts(self):
        registry = MetricsRegistry()
        ingest = StreamIngest(AdmissionPolicy(queue_cap=3, caps={1: 0}), registry)
        assert ingest.admit(0, {0: 5, 1: 2, 2: 1}) == {0: 3, 2: 1}
        assert ingest.admit(8, {}) == {}
        assert (ingest.offered, ingest.admitted, ingest.rejected) == (8, 4, 4)
        assert ingest.rejected_by_color == {0: 2, 1: 2}
        snapshot = registry.snapshot()
        assert snapshot["counters"]["stream.rejected.color.1"] == 2
        assert snapshot["histograms"]["stream.queue_depth"]["count"] == 2


class TestSources:
    def test_generator_source_is_pure_and_deterministic(self):
        source = rate_limited_source(8, 32, seed=13, load=0.5)
        law = rate_limited_stream(8, 32, seed=13, load=0.5)
        for k in (0, 32, 64, 96):
            counts = source.batch(k)
            assert counts == source.batch(k)
            # Counts, not jobs: the law's nonzero counts, passed through.
            assert counts == dict(law.batch_counts(k))
            assert all(type(n) is int and n > 0 for n in counts.values())
        assert source.batch(0)

    @pytest.mark.parametrize(
        "law_counts, problem",
        [
            ([(0, -3)], "-3 jobs of color 0"),  # was silently dropped
            ([(0, 1.5)], "1.5 jobs of color 0"),
            ([(0, True)], "True jobs of color 0"),
            ([(9, 1)], "1 jobs of color 9"),  # undeclared
        ],
    )
    def test_generator_source_rejects_bad_counts(self, law_counts, problem):
        spec = ProblemSpec(
            {0: 4, 1: 8}, CostModel(2, 1), BatchMode.RATE_LIMITED
        )
        source = GeneratorSource(spec, lambda k: law_counts if k == 8 else [])
        assert source.batch(0) == {}
        with pytest.raises(ValueError, match="round 8") as caught:
            source.batch(8)
        assert problem in str(caught.value)

    def test_generator_source_horizon_contract(self):
        source = rate_limited_source(8, 32, seed=13, horizon=128)
        assert source.horizon() == 128
        with pytest.raises(IndexError):
            source.batch(128)
        with pytest.raises(IndexError):
            source.batch(-1)

    def test_generator_source_requires_batched_spec(self):
        spec = ProblemSpec({0: 3, 1: 5}, CostModel(1, 1))  # general mode
        with pytest.raises(ValueError, match="batched"):
            GeneratorSource(spec, lambda k: [])

    def test_instance_source_preserves_arrivals_contract(self):
        instance = _instance(horizon=200)
        source = InstanceSource(instance)
        assert source.horizon() == instance.horizon
        for k in range(instance.horizon):
            expected: dict[int, int] = {}
            for job in instance.sequence.arrivals(k):
                expected[job.color] = expected.get(job.color, 0) + 1
            assert source.batch(k) == expected
        with pytest.raises(IndexError):
            source.batch(instance.horizon)
        with pytest.raises(IndexError):
            source.batch(-1)


# ------------------------------------------------------------- satellites


class TestArrivalsHorizonContract:
    """Satellite 1: arrivals() past the horizon raises, never lies."""

    def test_arrivals_raises_outside_materialized_horizon(self):
        sequence = RequestSequence([Job(0, 0, 4, 0)], 8)
        assert list(sequence.arrivals(0)) == [Job(0, 0, 4, 0)]
        assert list(sequence.arrivals(7)) == []
        with pytest.raises(IndexError, match="materialized horizon"):
            sequence.arrivals(8)
        with pytest.raises(IndexError):
            sequence.arrivals(-1)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engines_never_query_past_horizon(self, engine):
        # Regression: engines must stay inside [0, horizon) — a silent
        # empty return used to mask off-by-one probes.
        instance = _instance(horizon=320)
        result = simulate(instance, DeltaLRU(), 8, engine=engine)
        assert result.total_cost >= 0


class TestRunResultZeroRounds:
    """Satellite 2: zero-round runs report 0.0, not ZeroDivisionError."""

    def test_zero_covered_rounds(self):
        result = RunResult(
            instance=None,
            algorithm="x",
            num_resources=4,
            speed=1,
            cost=CostBreakdown(CostModel(1, 1)),
            schedule=None,
            trace=None,
            wall_seconds=0.0,
            rounds_total=0,
        )
        assert result.rounds_per_second == 0.0
        assert result.active_round_fraction == 0.0

    def test_zero_wall_seconds(self):
        result = RunResult(
            instance=None,
            algorithm="x",
            num_resources=4,
            speed=1,
            cost=CostBreakdown(CostModel(1, 1)),
            schedule=None,
            trace=None,
            wall_seconds=0.0,
            rounds_total=100,
            rounds_executed=0,
        )
        assert result.rounds_per_second == 0.0
        assert result.active_round_fraction == 0.0

    def test_engine_started_at_horizon_covers_zero_rounds(self):
        instance = _instance(horizon=100)
        engine = BatchedEngine(
            instance,
            DeltaLRU(),
            8,
            engine="sparse",
            start_round=instance.horizon,
        )
        result = engine.run()
        assert result.rounds_per_second == 0.0
        assert result.active_round_fraction == 0.0

    def test_streaming_result_zero_rounds(self):
        session = StreamSession(
            rate_limited_source(6, 24, seed=1), DeltaLRU(), 4
        )
        result = session.run(0)
        assert result.rounds_per_second == 0.0
        assert result.total_cost == 0


MAIN_PID = os.getpid()


def _double(task: int) -> int:
    return task * 2


def _crash_in_worker(task: int) -> int:
    """Dies instantly in pool workers; succeeds in the parent process."""
    if os.getpid() != int(os.environ.get("REPRO_TEST_MAIN_PID", -1)):
        os._exit(13)
    return task * 10


class _FlakyProgress:
    """Records every reported result; raises once mid-stream."""

    def __init__(self) -> None:
        self.seen: list[int] = []
        self.raised = False

    def __call__(self, chunk) -> None:
        self.seen.extend(chunk)
        if not self.raised:
            self.raised = True
            raise OSError("telemetry socket went away")


class TestParallelExactlyOnce:
    """Satellite 3: progress= reports every result exactly once."""

    def test_worker_crash_reports_each_result_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_MAIN_PID", str(os.getpid()))
        reported: list[int] = []
        runner = ParallelRunner(max_workers=2, chunk_size=2)
        results = runner.map(
            _crash_in_worker, range(8), progress=reported.extend
        )
        assert results == [task * 10 for task in range(8)]
        assert sorted(reported) == results

    def test_worker_crash_registry_snapshot_matches_serial(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_MAIN_PID", str(os.getpid()))

        def run(runner):
            registry = MetricsRegistry()
            counter = registry.counter("runtime.progress_reported")
            runner.map(
                _crash_in_worker,
                range(8),
                progress=lambda chunk: counter.inc(len(chunk)),
            )
            return registry.snapshot()

        crashed = run(ParallelRunner(max_workers=2, chunk_size=2))
        serial = run(ParallelRunner(force_serial=True))
        assert crashed == serial

    def test_raising_progress_never_double_reports(self):
        progress = _FlakyProgress()
        runner = ParallelRunner(max_workers=2, chunk_size=2)
        results = runner.map(_double, range(8), progress=progress)
        # progress raises OSError on the first completed chunk, which
        # drops the runner into the serial fallback; before the fix the
        # already-delivered chunk was handed to progress a second time.
        assert results == [_double(task) for task in range(8)]
        assert sorted(progress.seen) == results
        assert len(progress.seen) == len(set(progress.seen))


class TestRegistryDuplicateRunIds:
    """Satellite 4: ambiguous addressing raises instead of guessing."""

    def test_duplicate_exact_run_ids_raise(self, tmp_path):
        with RunRegistry(tmp_path) as registry:
            registry.append(RunRecord(kind="simulate", run_id="aaaa1111"))
            registry.append(RunRecord(kind="simulate", run_id="aaaa1111"))
        with pytest.raises(KeyError, match="duplicate"):
            registry.get("aaaa1111")

    def test_colliding_digest_prefixes_raise(self, tmp_path):
        with RunRegistry(tmp_path) as registry:
            registry.append(RunRecord(kind="simulate", run_id="aaaa1111"))
            registry.append(RunRecord(kind="simulate", run_id="aaaa2222"))
        with pytest.raises(KeyError, match="ambiguous"):
            registry.get("aaaa")
        assert registry.get("aaaa1").run_id == "aaaa1111"
        assert registry.get("aaaa2").run_id == "aaaa2222"


class TestOpsStreamSurface:
    def test_stream_payload_lifecycle(self):
        state = OpsState()
        empty = state.stream_payload()
        assert empty["active"] is False and empty["updates"] == 0
        state.publish_stream({"round": 640, "total_cost": 10})
        payload = state.stream_payload()
        assert payload["active"] is True
        assert payload["status"] == {"round": 640, "total_cost": 10}
        assert payload["updates"] == 1

    def test_snapshot_prefix_filter(self):
        registry = MetricsRegistry()
        registry.counter("stream.offered").inc(5)
        registry.counter("engine.drops").inc(3)
        registry.gauge("stream.round").set(64.0)
        registry.histogram("engine.queue_depth").observe(1)
        filtered = registry.snapshot(prefix="stream.")
        assert set(filtered["counters"]) == {"stream.offered"}
        assert set(filtered["gauges"]) == {"stream.round"}
        assert filtered["histograms"] == {}
        # Unfiltered stays complete.
        assert "engine.drops" in registry.snapshot()["counters"]


class TestResumeMetricReseed:
    """Satellite: a resumed session re-seeds ``stream.*`` metrics, so a
    scrape right after resume matches the uninterrupted exposition."""

    def _run(self, path=None, resume_from=None):
        instance = _instance(seed=29, horizon=1200, load=0.9)
        registry = MetricsRegistry()
        if resume_from is None:
            session = StreamSession(
                InstanceSource(instance),
                DeltaLRU(),
                8,
                policy=AdmissionPolicy(queue_cap=2),
                registry=registry,
                segment_rounds=200,
            )
        else:
            session = StreamSession.resume(
                InstanceSource(instance),
                DeltaLRU(),
                resume_from,
                registry=registry,
                segment_rounds=200,
            )
        return session, registry

    def test_post_resume_snapshot_matches_uninterrupted(self, tmp_path):
        base_session, base_registry = self._run()
        base_session.run(1200, checkpoint_every=600)
        baseline = base_registry.snapshot()
        assert any(
            name.startswith("stream.rejected.color.")
            for name in baseline["counters"]
        ), "workload must actually reject to make this test load-bearing"

        path = tmp_path / "ckpt.json"
        first, _ = self._run()
        first.run(600, checkpoint_every=600, checkpoint_path=path)
        del first

        resumed, registry = self._run(resume_from=path)
        # The regression: before the fix, a fresh registry showed zeros
        # here even though the session had already ingested 600 rounds.
        restored = registry.snapshot()
        assert restored["counters"]["stream.offered"] == resumed.ingest.offered
        assert restored["counters"]["stream.offered"] > 0
        assert restored["gauges"]["stream.rejection_rate"] == pytest.approx(
            resumed.ingest.rejection_rate
        )
        assert restored["gauges"]["stream.round"] == 600
        # The checkpoint carries the whole registry, not just stream.*:
        # engine counters resume from their pre-kill values too.
        assert restored["counters"]["engine.executions"] > 0
        resumed.run(600, checkpoint_every=600)
        final = registry.snapshot()
        # Everything — offered/admitted/rejected, per-color rejections,
        # engine.* counters and histograms, the queue-depth histogram,
        # even the checkpoint counter (carried in the checkpoint itself)
        # — must match bit for bit.
        assert final == baseline

    def test_checkpoint_metadata_surfaces(self, tmp_path):
        path = tmp_path / "ckpt.json"
        session, _ = self._run()
        assert session.last_checkpoint_round is None
        assert session.last_checkpoint_path is None
        session.run(600, checkpoint_every=300, checkpoint_path=path)
        assert session.last_checkpoint_round == 600
        assert session.last_checkpoint_path == str(path)
        session.save_checkpoint(path)
        assert session.last_checkpoint_round == session.round

    def test_old_checkpoint_payload_without_obs_state_loads(self, tmp_path):
        instance = _instance(seed=29, horizon=1200, load=0.9)
        session = StreamSession(
            InstanceSource(instance), DeltaLRU(), 8, segment_rounds=200
        )
        session.run(400, checkpoint_every=400)
        payload = session.checkpoint().to_payload()
        # Simulate a checkpoint written before obs_state existed.
        del payload["obs_state"]
        restored = StreamCheckpoint.from_payload(payload)
        assert restored.obs_state == {}
        assert restored.round == 400
