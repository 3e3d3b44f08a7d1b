"""Tests of the ledger's own arithmetic and of a quick run of every workload.

Run from the repository root with ``python -m pytest benchmarks/ledger -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from spans import (  # noqa: E402
    Spans,
    engine_metrics,
    layer_seconds,
    self_times,
    unattributed_fraction,
)
from stats import percentile, quartiles, relative_spread  # noqa: E402


def test_p90_of_100_samples_is_the_91st_sorted_value():
    samples = [float(v) for v in range(100, 0, -1)]  # 100 .. 1, unsorted
    assert percentile(samples, 0.9) == 91.0
    assert percentile(samples, 0.5) == 51.0
    assert percentile(samples, 1.0) == 100.0
    assert percentile([7.0], 0.9) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_quartiles_and_spread():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    q1, median, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert median == 3.0
    assert relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((q3 - q1) / 3.0)


def _record(sid, parent, name, start, end, op=0):
    return {"op": op, "id": sid, "parent": parent, "name": name, "start": start, "end": end}


def test_nested_self_time_subtracts_direct_children_only():
    records = [
        _record(0, None, "op", 0.0, 10.0),
        _record(1, 0, "a", 1.0, 7.0),
        _record(2, 1, "b", 2.0, 4.0),
        _record(3, 2, "c", 2.5, 3.0),
        _record(4, 1, "b", 5.0, 6.0),
        _record(5, 0, "d", 8.0, 9.5),
    ]
    assert self_times(records) == pytest.approx([2.5, 3.0, 1.5, 0.5, 1.0, 1.5])
    layers = layer_seconds(records)
    assert layers == pytest.approx({"op": 2.5, "a": 3.0, "b": 2.5, "c": 0.5, "d": 1.5})
    assert unattributed_fraction(records) == pytest.approx(0.25)


def test_layers_reconcile_with_op_time_and_patches_are_restored():
    module = types.SimpleNamespace()

    def inner(x):
        return sum(range(x))

    def outer(x):
        return module.inner(x) + module.inner(x // 2)

    module.inner = inner
    module.outer = outer
    spans = Spans()
    with spans.patched():
        spans.patch(module, "inner", "layer.inner", lambda out: {"value": out})
        spans.patch(module, "outer", "layer.outer")
        for op in range(3):
            with spans.root(op):
                module.outer(20_000)
    assert module.inner is inner and module.outer is outer
    roots = [r for r in spans.records if r["name"] == "op"]
    total = sum(r["end"] - r["start"] for r in roots)
    assert sum(layer_seconds(spans.records).values()) == pytest.approx(total, rel=1e-9)
    inner_spans = [r for r in spans.records if r["name"] == "layer.inner"]
    assert len(inner_spans) == 6
    assert {r["op"] for r in inner_spans} == {0, 1, 2}
    assert inner_spans[0]["attrs"] == {"value": sum(range(20_000))}
    assert 0.0 <= unattributed_fraction(spans.records) < 1.0


def test_engine_phases_and_their_remainder_sum_to_the_round_loop():
    phases = {"drop": 0.5, "arrival": 1.0, "reconfigure": 2.0, "execute": 1.5}
    attrs = {"backend": "sparse", "rounds_executed": 30, "rounds_total": 40}
    records = [
        _record(0, None, "simulation.simulate", 0.0, 7.0)
        | {"attrs": {**attrs, "run_s": 6.0, "phases": phases}},
        # A sparse call without a profiler adds to run_s, not to phases.
        _record(1, None, "search.online", 7.0, 9.0)
        | {"attrs": {**attrs, "run_s": 1.0}},
    ]
    metrics = engine_metrics(records, n_ops=2)
    assert metrics["simulation.run_s"] == pytest.approx(3.5)
    assert metrics["simulation.construct_s"] == pytest.approx(1.0)
    assert metrics["simulation.phase.other_s"] == pytest.approx(0.5)
    profiled = sum(metrics[f"simulation.phase.{p}_s"] for p in (*phases, "other"))
    assert profiled == pytest.approx(6.0 / 2)
    assert metrics["simulation.active_round_fraction"] == pytest.approx(0.75)


def test_patch_of_a_classmethod_and_an_instance_attribute_is_undone():
    class Thing:
        @classmethod
        def make(cls, x):
            return cls(), x

        def work(self):
            return 1

    thing = Thing()
    spans = Spans()
    with spans.patched():
        spans.patch(Thing, "make", "thing.make")
        spans.patch(thing, "work", "thing.work")
        with spans.root(0):
            made, x = Thing.make(5)
            assert isinstance(made, Thing) and x == 5
            assert thing.work() == 1
    assert isinstance(vars(Thing)["make"], classmethod)
    assert "work" not in vars(thing)
    assert [r["name"] for r in spans.records] == ["op", "thing.make", "thing.work"]


def test_perturbed_golden_output_counts_as_a_failed_op(tmp_path):
    from harness import measure

    clean = measure("pipeline-general", 3, 0.2, scratch_root=tmp_path)
    assert clean["failed"] == 0
    golden_ops = list(clean["records"])
    golden_ops[1] += 1
    perturbed = measure(
        "pipeline-general", 3, 0.2, golden={"ops": golden_ops}, scratch_root=tmp_path
    )
    assert perturbed["attempted"] == clean["attempted"]
    assert perturbed["failed"] == 1
    assert perturbed["failures"][0].startswith("op 1: output")
    assert len(perturbed["times"]["op"]) == clean["attempted"]


def test_quick_run_of_every_workload_has_no_errors(tmp_path):
    out = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    rows = json.loads(out.read_text())["workloads"]
    assert len(rows) == 6
    for name, row in rows.items():
        assert row["error_rate"] == 0, (name, row["failures"])
        assert set(row["metrics"]) == {
            "setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "peak_rss_mb"
        }
        assert all(entry["value"] > 0 for entry in row["metrics"].values())
