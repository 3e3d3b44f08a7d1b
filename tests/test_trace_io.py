"""Run persistence: schedules, and traces in the trace bus's JSONL format."""

import re

import pytest

from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.analysis.epochs import analyze_epochs
from repro.core.events import Trace
from repro.core.inputs import InputError
from repro.obs.tracing import read_jsonl_trace
from repro.simulation.engine import simulate
from repro.simulation.trace_io import save_run
from repro.workloads.random_batched import random_rate_limited


@pytest.fixture
def run():
    inst = random_rate_limited(4, 2, 32, seed=6, bound_choices=(2, 4))
    return simulate(inst, DeltaLRUEDF(), 8)


def _reload(run, directory):
    return read_jsonl_trace(save_run(run, directory)["trace"])


def test_round_trip_preserves_every_event(tmp_path, run):
    back = _reload(run, tmp_path / "run")
    assert len(back) == len(run.trace)
    assert back == list(run.trace)


def test_analysis_identical_on_reloaded_trace(tmp_path, run):
    back = _reload(run, tmp_path / "run")
    original = analyze_epochs(run.trace, threshold=2)
    reloaded = analyze_epochs(back, threshold=2)
    assert original == reloaded


def test_file_round_trip(tmp_path, run, capsys):
    # `repro trace` and `repro stats` read a saved run's trace: a
    # timeline of its rounds, and every event counted under its name.
    from collections import Counter

    from repro.cli import main

    path = save_run(run, tmp_path / "run")["trace"]
    assert main(["trace", str(path)]) == 0
    assert re.match(r"round +0  arr c", capsys.readouterr().out)
    assert main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    counts = Counter(record.name for record in run.trace)
    pad = max(len(name) for name in counts)
    for name, count in counts.items():
        assert f"\n  {name.ljust(pad)}  {count}\n" in out


def test_empty_trace(tmp_path, run):
    run.trace = Trace()
    assert _reload(run, tmp_path / "run") == []


def test_unknown_type_rejected(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text('{"type":"MysteryEvent","round_index":0}\n')
    with pytest.raises(InputError, match=r"old\.jsonl line 1: record seq"):
        read_jsonl_trace(path)


def test_unexpected_field_rejected(tmp_path):
    # A line of the retired per-event codec is not a trace record.
    path = tmp_path / "old.jsonl"
    path.write_text(
        '{"seq":0,"kind":"event","name":"wrap","round":0,"color":1}\n'
        '{"type":"WrapEvent","round_index":0,"color":1,"bogus":2}\n'
    )
    with pytest.raises(InputError, match="line 2: record seq"):
        read_jsonl_trace(path)


def test_lines_are_greppable(tmp_path, run):
    text = save_run(run, tmp_path / "run")["trace"].read_text()
    lines = text.splitlines()
    assert len(lines) == len(run.trace)
    assert all(line.startswith('{"seq": ') for line in lines)
    assert all('"kind": "event", "name": "' in line for line in lines)


class TestScheduleSerialization:
    def test_round_trip(self, run):
        from repro.simulation.trace_io import (
            schedule_from_jsonl,
            schedule_to_jsonl,
        )

        back = schedule_from_jsonl(schedule_to_jsonl(run.schedule))
        assert back.num_resources == run.schedule.num_resources
        assert back.reconfigurations == run.schedule.reconfigurations
        assert back.executions == run.schedule.executions

    def test_reloaded_schedule_verifies(self, run):
        from repro.core.validation import verify_schedule
        from repro.simulation.trace_io import (
            schedule_from_jsonl,
            schedule_to_jsonl,
        )

        back = schedule_from_jsonl(schedule_to_jsonl(run.schedule))
        assert verify_schedule(run.instance, back).ok

    def test_bad_header_rejected(self):
        from repro.simulation.trace_io import schedule_from_jsonl

        with pytest.raises(ValueError, match="ScheduleHeader"):
            schedule_from_jsonl('{"type":"Execution"}')
        with pytest.raises(ValueError, match="empty"):
            schedule_from_jsonl("")


class TestSaveRun:
    def test_costs_run_refused_before_writing(self, tmp_path, run):
        costs = simulate(run.instance, DeltaLRUEDF(), 8, record="costs")
        with pytest.raises(RuntimeError) as refusal:
            save_run(costs, tmp_path / "run1")
        with pytest.raises(RuntimeError) as verify:
            costs.verify()
        assert str(refusal.value) == str(verify.value)
        assert not (tmp_path / "run1").exists()

    def test_full_run_round_trip(self, tmp_path, run):
        from repro.core.validation import verify_schedule
        from repro.simulation.trace_io import load_run_schedule, save_run

        paths = save_run(run, tmp_path / "run1")
        assert all(p.exists() for p in paths.values())
        instance, schedule = load_run_schedule(tmp_path / "run1")
        report = verify_schedule(instance, schedule)
        assert report.ok
        derived = schedule.cost(instance.sequence.jobs, instance.cost_model)
        assert derived.total == run.total_cost
