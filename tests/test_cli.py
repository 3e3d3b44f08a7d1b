"""CLI tests."""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_list_prints_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "EXP-A" in out and "EXP-T3" in out


def test_run_quick_experiment(capsys):
    assert main(["run", "EXP-S", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "EXP-S" in out and "throughput" in out


def test_run_writes_output_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    assert main(["run", "EXP-S", "--quick", "--output", str(path)]) == 0
    capsys.readouterr()
    assert path.exists()
    assert "EXP-S" in path.read_text()


def test_run_unknown_experiment_raises(capsys):
    from repro.core.inputs import InputError
    from repro.experiments import get_experiment

    # The lookup raises an InputError that is still a KeyError for
    # library callers; main() reports it as bad input, not a traceback.
    with pytest.raises(KeyError) as caught:
        get_experiment("EXP-NOPE")
    assert isinstance(caught.value, InputError)
    assert main(["run", "EXP-NOPE"]) == 2
    _assert_one_error_line(capsys, "unknown experiment 'EXP-NOPE'")


def test_demo_runs(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "dLRU-EDF" in out


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_export_command(tmp_path, capsys):
    assert main(["export", "EXP-S", "--quick", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "EXP-S.json").exists()
    assert (tmp_path / "EXP-S.csv").exists()
    assert (tmp_path / "EXP-S.txt").exists()


def test_search_command(tmp_path, capsys):
    save = tmp_path / "found.json"
    assert (
        main(
            [
                "search",
                "dlru-edf",
                "--iterations",
                "20",
                "--restarts",
                "1",
                "--horizon",
                "24",
                "--save",
                str(save),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "best ratio" in out
    assert save.exists()
    from repro.workloads.traces import load_instance

    instance = load_instance(save)
    assert instance.spec.batch_mode.value == "rate_limited"


def test_search_rejects_unknown_scheme():
    import pytest as _pytest

    with _pytest.raises(SystemExit):
        main(["search", "nope"])


def _assert_one_error_line(capsys, field):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and field in lines[0]


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--restarts", "0", "restarts"),  # was a bare ZeroDivisionError
        ("--horizon", "-8", "horizon"),  # was numpy's negative dimensions
        ("--horizon", "0", "horizon"),  # was "best ratio: 0.000"
        ("--iterations", "-5", "iterations"),  # ran one evaluation per restart
        ("--jobs", "0", "--jobs"),  # ran serially, clamped to one worker
        ("--jobs", "-3", "--jobs"),  # ran serially, clamped to one worker
    ],
)
def test_search_rejects_out_of_range_config(capsys, flag, value, field):
    assert main(["search", "dlru-edf", flag, value]) == 2
    _assert_one_error_line(capsys, field)


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "dlru-edf", "--iterations", "2", "--horizon", "8"],
        ["serve", "--demo", "--port", "0", "--ttl", "0"],
    ],
    ids=["search", "serve-demo"],
)
@pytest.mark.parametrize(
    "value",
    [
        "-3",  # ran serially and exited 0
        "abc",  # was a ValueError traceback
    ],
)
def test_bad_repro_parallel_is_one_error_line(monkeypatch, capsys, argv, value):
    monkeypatch.setenv("REPRO_PARALLEL", value)
    assert main(argv) == 2
    _assert_one_error_line(capsys, "REPRO_PARALLEL")


def test_offline_resources_size_only_the_solver(capsys):
    # --resources used to land in random_general's Δ slot as well, so
    # --resources 4 solved a Δ = 4 instance (cost 13).
    from repro.offline.optimal import optimal_offline
    from repro.workloads.random_batched import random_general

    instance = random_general(3, 2, 48, seed=0, rate=0.4, bound_choices=(2, 4))
    expected = optimal_offline(instance, 4).cost
    assert expected == 7
    assert main(["offline", "--resources", "4"]) == 0
    assert f"optimal cost:   {expected}\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--horizon", "-3"),  # was numpy's negative dimensions
        ("--horizon", "0"),  # was "optimal cost: 0"
        ("--colors", "0"),  # was "max() arg is an empty sequence"
        ("--resources", "0"),  # was reported as a Δ error
        ("--rate", "-0.5"),  # was a traceback
        ("--rate", "nan"),  # was a numpy traceback
        ("--rate", "inf"),  # was a numpy traceback
        ("--bounds", "0"),  # was a ValueError traceback from Job
        ("--bounds", "-2"),  # was a ValueError traceback from Job
        ("--max-states", "0"),  # was "search space exceeded after 1 nodes"
        ("--max-states", "-5"),  # was "search space exceeded after 1 nodes"
    ],
)
def test_offline_rejects_out_of_range_config(capsys, flag, value):
    assert main(["offline", flag, value]) == 2
    _assert_one_error_line(capsys, flag)


def test_offline_check_honors_max_states(capsys):
    # The default instance's solve expands 1,374 nodes and the exhaustive
    # check 4,190; a budget between them truncates only the check, which
    # must report it in the solve's format instead of a traceback.
    assert main(["offline", "--max-states", "2000", "--check", "exhaustive"]) == 1
    out = capsys.readouterr().out
    assert "optimal cost:   23\n" in out
    last = out.splitlines()[-1]
    assert last.startswith("cross-check:    exhaustive search space exceeded")
    assert "after 2000 nodes" in last and last.endswith("raise --max-states")


def test_stats_summarizes_an_offline_trace(tmp_path, capsys):
    trace = tmp_path / "offline.jsonl"
    assert main(["offline", "--trace", str(trace)]) == 0
    solved = capsys.readouterr().out
    cost = re.search(r"^optimal cost: +(\d+)$", solved, re.M).group(1)
    nodes = re.search(r"^nodes expanded: +(\d+)$", solved, re.M).group(1)
    assert main(["stats", str(trace)]) == 0
    out = capsys.readouterr().out
    assert f"offline solve (layered): cost {cost}  nodes {nodes}  " in out
    assert "  bound sources: " in out


@pytest.mark.parametrize(
    "args, field",
    [
        (["--resources", "3"], "num_resources"),
        (["--resources", "0"], "num_resources"),
        (["--speed", "3"], "speed"),
        (["--colors", "0"], "num_colors"),
        (["--load", "2"], "load"),
        (["--delta", "0"], "Δ"),
        (["--segment", "0"], "segment_rounds"),
        (["--queue-cap", "-1"], "queue_cap"),
        (["--series-capacity", "0", "--series", "s.jsonl"], "capacity"),
        (["--checkpoint-every", "0", "--checkpoint", "c.json"], "--checkpoint-every"),
        (["--checkpoint-every", "50"], "--checkpoint-every"),  # was ignored
        (["--rounds", "-5"], "--rounds"),  # named a checkpoint that is not there
    ],
)
def test_stream_rejects_out_of_range_config(tmp_path, monkeypatch, capsys, args, field):
    monkeypatch.chdir(tmp_path)
    assert main(["stream", "--rounds", "64", *args]) == 2
    _assert_one_error_line(capsys, field)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, field",
    [
        (["--colors", "0"], "--colors"),  # was "max() arg is an empty sequence"
        (["--resources", "3"], "num_resources"),
        (["--speed", "3"], "speed"),
        (["--delta", "0"], "Δ"),
        (["--horizon", "0"], "--horizon"),  # simulated an empty instance
        (["--horizon", "-4"], "--horizon"),
    ],
)
def test_record_rejects_out_of_range_config(tmp_path, monkeypatch, capsys, args, field):
    monkeypatch.chdir(tmp_path)
    # `obs monitor` builds the same seeded workload through the same
    # checks (its --resources 3 and --colors 0 were tracebacks, and
    # --horizon 0 ran an empty instance).
    for command in (["record", "trace.jsonl"], ["obs", "monitor"]):
        assert main([*command, *args]) == 2, command
        _assert_one_error_line(capsys, field)
        assert list(tmp_path.iterdir()) == []


def test_record_epochs_ride_a_sampled_trace(tmp_path, capsys):
    # The epochs come from the run's own trace, which no sampler thins,
    # and the sampler keeps every annotation.
    from repro.obs.tracing import read_jsonl_trace

    def annotations(name, *extra):
        path = tmp_path / name
        argv = ["record", str(path), "--record", "full", "--epochs", *extra]
        assert main([*argv, "--horizon", "128", "--resources", "8"]) == 0
        return [
            (r.name, r.round_index, r.data)
            for r in read_jsonl_trace(path)
            if r.kind == "annotation"
        ]

    full = annotations("full.jsonl")
    assert {name for name, _, _ in full} == {"epoch", "super_epoch"}
    assert annotations("sampled.jsonl", "--sample", "0.3") == full
    assert "sampling: kept" in capsys.readouterr().out


def test_describe_command_json(tmp_path, capsys):
    from repro.workloads.random_batched import random_rate_limited
    from repro.workloads.traces import save_instance

    inst = random_rate_limited(3, 2, 16, seed=0)
    path = tmp_path / "trace.json"
    save_instance(inst, path)
    assert main(["describe", str(path)]) == 0
    out = capsys.readouterr().out
    assert "lossless capacity" in out


def test_describe_command_csv(tmp_path, capsys):
    from repro.workloads.random_batched import random_rate_limited
    from repro.workloads.traces import instance_to_csv

    inst = random_rate_limited(3, 2, 16, seed=1)
    path = tmp_path / "trace.csv"
    path.write_text(instance_to_csv(inst))
    assert main(["describe", str(path)]) == 0
    out = capsys.readouterr().out
    assert "total load" in out


@pytest.mark.parametrize("where", ["header", "body"])
def test_stream_resume_refuses_corrupt_checkpoint(tmp_path, capsys, where):
    path = tmp_path / "ckpt.json"
    args = ["stream", "--segment", "64", "--checkpoint", str(path)]
    series = ["--series", str(tmp_path / "series.jsonl")]
    assert main([*args, "--rounds", "256", *series]) == 0
    data = bytearray(path.read_bytes())
    data[5 if where == "header" else len(data) // 2] = 0xFF
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert main([*args, "--rounds", "512", "--resume"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and str(path) in lines[0]


def test_runs_list_limit_zero_lists_no_runs(tmp_path, capsys):
    from repro.obs.registry import RunRecord, RunRegistry

    with RunRegistry(tmp_path) as registry:
        ids = [registry.append(RunRecord(kind="simulate")).run_id for _ in range(4)]
    argv = ["runs", "list", "--registry-dir", str(tmp_path), "--limit"]
    assert main([*argv, "1"]) == 0
    assert capsys.readouterr().out.count("simulate") == 1
    # --limit 0 used to list all four runs.
    assert main([*argv, "0"]) == 0
    out = capsys.readouterr().out
    assert not any(run_id in out for run_id in ids)


def test_runs_list_names_the_filter_nothing_matched(tmp_path, capsys):
    from repro.obs.registry import RunRecord, RunRegistry

    with RunRegistry(tmp_path / "runs") as registry:
        for _ in range(2):
            registry.append(RunRecord(kind="simulate"))
    argv = ["runs", "list", "--registry-dir", str(tmp_path / "runs")]
    assert main([*argv, "--kind", "offline"]) == 0
    assert capsys.readouterr().out == "(no run matched --kind offline)\n"
    assert main([*argv, "--kind", "offline", "--limit", "0"]) == 0
    assert capsys.readouterr().out == "(no run matched --kind offline --limit 0)\n"
    # A registry holding no record at all (one torn line) is empty.
    (tmp_path / "torn").mkdir()
    (tmp_path / "torn" / "seg-a.jsonl").write_text('{"schema": "repro-run/v1"')
    assert main(["runs", "list", "--registry-dir", str(tmp_path / "torn")]) == 0
    assert capsys.readouterr().out.startswith("(registry is empty)\n")


def test_alerts_watch_reports_a_live_firing_alert(capsys):
    from repro.obs.alerts import AlertEngine, AlertRule
    from repro.obs.service import OpsService, OpsState

    state = OpsState()
    engine = AlertEngine(
        [AlertRule(name="crit", series="x", value=0.0, severity="critical")]
    )
    engine.observe(3, {"x": 1.5})
    state.publish_alerts(engine.payload())
    with OpsService(state) as service:
        assert main(["alerts", "watch", service.url, "--ttl", "0"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "[critical] crit FIRING at round 3 (value 1.5)",
        "firing now: crit",
    ]


@pytest.mark.parametrize(
    "payload, problem",
    [
        (  # was a KeyError: 'severity' traceback
            {"active": True, "events": [{"kind": "fired", "rule": "r"}], "firing": ["r"]},
            "KeyError: 'round'",
        ),
        (
            {"active": True, "events": [{"kind": "fired", "rule": "r", "round": 1,
                                         "value": "high", "severity": "warning"}]},
            "malformed alert event",
        ),
        ({"active": True, "events": [], "firing": "r"}, "firing must list rule names"),
    ],
    ids=["missing-field", "value-not-a-number", "firing-not-a-list"],
)
def test_alerts_watch_refuses_a_malformed_payload(capsys, payload, problem):
    import http.server
    import json
    import threading

    body = json.dumps(payload).encode()

    class Stub(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Stub)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_port}"
        assert main(["alerts", "watch", url, "--ttl", "0"]) == 2
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"error: response of {url}/alerts") and problem in lines[0]
    assert captured.out == ""


def test_stream_kill_and_resume_writes_the_uninterrupted_series(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(["alerts", "example", "--out", "rules.json"]) == 0
    stream = ["stream", "--segment", "64", "--checkpoint-every", "256",
              "--load", "0.95", "--queue-cap", "1", "--series-capacity", "8",
              "--rules", "rules.json"]
    assert main([*stream, "--rounds", "2048", "--checkpoint", "whole.json",
                 "--series", "whole.jsonl"]) == 0
    assert main([*stream, "--rounds", "1024", "--checkpoint", "cut.json",
                 "--series", "first.jsonl"]) == 0
    assert main([*stream, "--rounds", "2048", "--checkpoint", "cut.json",
                 "--series", "resumed.jsonl", "--resume"]) == 0
    assert Path("resumed.jsonl").read_bytes() == Path("whole.jsonl").read_bytes()
    capsys.readouterr()

    def check(series):
        code = main(["alerts", "check", series, "--rules", "rules.json"])
        head, *events = capsys.readouterr().out.splitlines()
        return code, head.split(":", 1)[1], events

    (sidecar,) = [p.name for p in tmp_path.glob("cut.json.*.series")]
    verdict = check(sidecar)
    assert verdict == check("whole.jsonl")
    assert verdict[0] == 1 and any("FIRING" in line for line in verdict[2])


def _rule_file(rules) -> str:
    import json

    return json.dumps({"schema": "repro-alerts/v1", "rules": rules})


@pytest.mark.parametrize("command", ["stream", "alerts"])
@pytest.mark.parametrize(
    "text, field",
    [
        ("[]", "rule file {path} is a JSON list"),  # was AttributeError
        (
            _rule_file([{"name": "r"}]),  # was TypeError
            "rule file {path}, rule 0: alert rule is missing field(s): series",
        ),
        (
            _rule_file([{"name": "r", "series": "s", "window": "3"}]),  # TypeError
            "rule file {path}, rule 0: alert rule field 'window' must be an integer",
        ),
        (
            _rule_file(["abc"]),  # was "unknown field(s): a, b, c"
            "rule file {path}, rule 0: alert rule is a JSON str",
        ),
    ],
)
def test_malformed_rule_files_give_one_error_line(
    tmp_path, monkeypatch, capsys, command, text, field
):
    monkeypatch.chdir(tmp_path)
    rules = tmp_path / "rules.json"
    rules.write_text(text)
    if command == "stream":
        argv = ["stream", "--rounds", "64", "--rules", str(rules)]
    else:
        argv = ["alerts", "check", "series.jsonl", "--rules", str(rules)]
    assert main(argv) == 2
    _assert_one_error_line(capsys, field.format(path=rules))
    assert list(tmp_path.iterdir()) == [rules]


def test_alerts_check_rejects_malformed_series(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    assert main(["alerts", "example", "--out", str(rules)]) == 0
    series = tmp_path / "series.jsonl"
    series.write_text(
        '{"schema": "repro-series/v1"}\n'
        '{"name": "x", "capacity": 4, "points": [[1, 2, 3]]}\n'
    )
    capsys.readouterr()
    assert main(["alerts", "check", str(series), "--rules", str(rules)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "line 2" in lines[0]


# ------------------------------------------------------------- bad input


def _flip_middle(path) -> None:
    """Fault-inject ``path``: XOR its middle byte with 0xFF.  Every file
    below is ASCII, so the damaged line is never valid UTF-8."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """A directory of valid and damaged inputs for the bad-input table."""
    import contextlib
    import io
    import shutil

    from repro.obs.registry import RunRecord, RunRegistry
    from repro.workloads.random_batched import random_rate_limited
    from repro.workloads.traces import instance_to_csv, save_instance

    root = tmp_path_factory.mktemp("inputs")
    (root / "blocker").write_text("a file where a directory is needed\n")
    (root / "dir").mkdir()
    (root / "list.json").write_text("[]\n")
    (root / "noversion.json").write_text('{"name": "x"}\n')
    (root / "corrupt.jsonl").write_text(
        '{"seq": 0, "kind": "event", "name": "drop"}\n{broken}\n'
    )
    # A trace in the per-event format that trace.jsonl files used to have.
    (root / "old-events.jsonl").write_text(
        '{"type":"WrapEvent","round_index":0,"color":1}\n'
    )
    instance = random_rate_limited(3, 2, 16, seed=0)
    save_instance(instance, root / "instance.json")
    csv = instance_to_csv(instance)
    (root / "instance.csv").write_text(csv)
    (root / "short.csv").write_text(csv + "3,1\n")
    with RunRegistry(root / "registry") as registry:
        for index in range(2):
            registry.append(RunRecord(kind="simulate", run_id=f"run{index:09d}"))
    shutil.copytree(root / "registry", root / "registry-flipped")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["record", root / "trace.jsonl", "--horizon", "32"],
            ["obs", "monitor", "--horizon", "32",
             "--metrics-out", root / "snapshot.json"],
            ["alerts", "example", "--out", root / "rules.json"],
            ["stream", "--rounds", "64", "--segment", "32",
             "--checkpoint", root / "ckpt.json", "--series", root / "series.jsonl"],
        ):
            assert main([str(arg) for arg in argv]) == 0, argv
    for name in ("instance.json", "instance.csv", "trace.jsonl", "snapshot.json",
                 "rules.json", "series.jsonl", "ckpt.json"):
        flipped = root / name.replace(".", "-flipped.")
        shutil.copy(root / name, flipped)
        _flip_middle(flipped)
    (segment,) = (root / "registry-flipped").glob("seg-*.jsonl")
    _flip_middle(segment)
    # Registry segments with a field of the wrong type.
    for field, value in (("created", '"x"'), ("cost", "[]")):
        (root / f"registry-{field}").mkdir()
        (root / f"registry-{field}" / "seg-a.jsonl").write_text(
            '{"schema": "repro-run/v1", "kind": "simulate", "run_id": "r1", '
            f'"{field}": {value}}}\n'
        )
    # A v3 checkpoint: the schema v4 replaced, the body's digest intact.
    v3 = (root / "ckpt.json").read_bytes().replace(b"checkpoint/v4", b"checkpoint/v3", 1)
    (root / "ckpt-v3.json").write_bytes(v3)
    # Checkpoints whose series sidecar (ckpt.json.0.series, with sample
    # lines appended after its snapshot) is gone, cut short or edited.
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["stream", "--rounds", "128", "--segment", "32",
                     "--checkpoint-every", "32", "--checkpoint",
                     str(root / "stream" / "ckpt.json"), "--series",
                     str(root / "stream" / "series.jsonl")]) == 0
    for damage in ("missing", "cut", "edited"):
        shutil.copytree(root / "stream", root / f"sidecar-{damage}")
    (root / "sidecar-missing" / "ckpt.json.0.series").unlink()
    cut = root / "sidecar-cut" / "ckpt.json.0.series"
    cut.write_bytes(cut.read_bytes()[:-10])
    _flip_middle(root / "sidecar-edited" / "ckpt.json.0.series")
    return root


# argv, a fragment of the error line, and whether stdout stays empty
# (the check fails before any work starts).  Paths are relative to the
# bad_inputs directory; "blocker" is a file, so no path under it can be
# written.
_BAD_INPUT = {
    "run-unknown": (["run", "NOPE"], "unknown experiment 'NOPE'", True),
    "export-unknown": (["export", "NOPE"], "unknown experiment 'NOPE'", True),
    "run-output": (["run", "EXP-A", "--quick", "--output", "blocker/r.txt"],
                   "blocker", False),
    "run-all-output": (["run-all", "--quick", "--output", "blocker/r.txt"],
                       "blocker", False),
    "export-dir": (["export", "EXP-A", "--quick", "--dir", "blocker/out"],
                   "blocker", False),
    "search-save": (["search", "dlru-edf", "--iterations", "2", "--restarts", "1",
                     "--horizon", "8", "--save", "blocker/i.json"], "blocker", False),
    "record-out": (["record", "blocker/t.jsonl"], "blocker", True),
    "monitor-out": (["obs", "monitor", "--horizon", "32", "--out", "blocker/t.jsonl"],
                    "blocker", True),
    "monitor-metrics-out": (["obs", "monitor", "--horizon", "32", "--metrics-out",
                             "blocker/m.json"], "blocker", False),
    "stream-checkpoint": (["stream", "--rounds", "64", "--segment", "32",
                           "--checkpoint", "blocker/c.json"], "blocker", True),
    "stream-series": (["stream", "--rounds", "64", "--segment", "32",
                       "--series", "blocker/s.jsonl"], "blocker", False),
    "alerts-example-out": (["alerts", "example", "--out", "blocker/r.json"],
                           "blocker", True),
    "offline-trace": (["offline", "--trace", "blocker/t.jsonl"], "blocker", True),
    "describe-missing": (["describe", "missing.json"],
                         "cannot read instance file missing.json", True),
    "describe-dir": (["describe", "dir"], "cannot read instance file dir", True),
    "describe-list": (["describe", "list.json"], "list.json is a JSON list", True),
    "describe-no-version": (["describe", "noversion.json"],
                            "unsupported trace format version", True),
    "describe-short-row": (["describe", "short.csv"], "short.csv line", True),
    "serve-port-negative": (["serve", "--port", "-1"], "--port", True),
    "serve-port-too-big": (["serve", "--port", "99999"], "--port", True),
    "serve-ttl-negative": (["serve", "--demo", "--ttl", "-5"], "--ttl", True),
    "export-prom-list": (["obs", "export", "list.json", "--prom", "m.prom"],
                         "metrics snapshot list.json is a JSON list", True),
    "export-chrome-corrupt": (["obs", "export", "corrupt.jsonl", "--chrome", "t.json"],
                              "corrupt.jsonl line 2", True),
    "record-epochs-costs": (["record", "t.jsonl", "--epochs"], "--epochs", True),
    "export-no-format": (["obs", "export", "trace.jsonl"], "--chrome", True),
    "export-two-formats": (["obs", "export", "trace.jsonl", "--chrome", "a.json",
                            "--prom", "b.prom"], "--chrome", True),
    "trace-missing": (["trace", "missing.jsonl"], "missing.jsonl", True),
    "trace-dir": (["trace", "dir"], "Is a directory", True),
    "trace-corrupt": (["trace", "corrupt.jsonl"], "corrupt.jsonl line 2", True),
    "stats-missing": (["stats", "missing.jsonl"], "missing.jsonl", True),
    "stats-corrupt": (["stats", "corrupt.jsonl"], "corrupt.jsonl line 2", True),
    "diff-missing": (["obs", "diff", "trace.jsonl", "missing.jsonl"],
                     "missing.jsonl", True),
    "diff-corrupt": (["obs", "diff", "corrupt.jsonl", "trace.jsonl"],
                     "corrupt.jsonl line 2", True),
    "trace-old-events": (["trace", "old-events.jsonl"],
                         "trace file old-events.jsonl line 1: record seq", True),
    "stats-old-events": (["stats", "old-events.jsonl"],
                         "trace file old-events.jsonl line 1: record seq", True),
    "diff-old-events": (["obs", "diff", "trace.jsonl", "old-events.jsonl"],
                        "trace file old-events.jsonl line 1: record seq", True),
    "runs-list-none": (["runs", "list", "--registry-dir", "missing"],
                       "no run registry at missing", True),
    "runs-show-none": (["runs", "show", "run", "--registry-dir", "missing"],
                       "no run registry at missing", True),
    "runs-diff-none": (["runs", "diff", "a", "b", "--registry-dir", "missing"],
                       "no run registry at missing", True),
    "runs-show-unknown": (["runs", "show", "nope", "--registry-dir", "registry"],
                          "error: \"no run 'nope' in registry registry\"", True),
    "runs-diff-unknown": (["runs", "diff", "run000000000", "nope",
                           "--registry-dir", "registry"], "\"no run 'nope'", True),
    "runs-list-negative": (["runs", "list", "--limit", "-3",
                            "--registry-dir", "registry"], "--limit", True),
    "resume-corrupt": (["stream", "--rounds", "128", "--checkpoint",
                        "ckpt-flipped.json", "--resume"], "ckpt-flipped.json", True),
    "resume-past-rounds": (["stream", "--rounds", "32", "--checkpoint", "ckpt.json",
                            "--resume"], "past the --rounds target 32", True),
    "resume-v3": (["stream", "--rounds", "128", "--checkpoint", "ckpt-v3.json",
                   "--resume"], "ckpt-v3.json: unsupported schema "
                  "'repro-stream-checkpoint/v3'; this version reads only "
                  "repro-stream-checkpoint/v4", True),
    "resume-sidecar-missing": (["stream", "--rounds", "256", "--checkpoint",
                                "sidecar-missing/ckpt.json", "--series", "s.jsonl",
                                "--resume"],
                               "cannot read series sidecar "
                               "sidecar-missing/ckpt.json.0.series", True),
    "resume-sidecar-cut": (["stream", "--rounds", "256", "--checkpoint",
                            "sidecar-cut/ckpt.json", "--series", "s.jsonl",
                            "--resume"], "series sidecar "
                           "sidecar-cut/ckpt.json.0.series is", True),
    "resume-sidecar-edited": (["stream", "--rounds", "256", "--checkpoint",
                               "sidecar-edited/ckpt.json", "--rules", "rules.json",
                               "--resume"], "series sidecar "
                              "sidecar-edited/ckpt.json.0.series fails", True),
    "runs-field-created": (["runs", "list", "--registry-dir", "registry-created"],
                           "registry-created/seg-a.jsonl line 1: run record "
                           "field 'created' must be a number", True),
    "runs-field-cost": (["runs", "list", "--registry-dir", "registry-cost"],
                        "registry-cost/seg-a.jsonl line 1: run record field "
                        "'cost' must be an object", True),
    # One fault-injected file per format.
    "flipped-instance-json": (["describe", "instance-flipped.json"],
                              "instance-flipped.json", True),
    "flipped-instance-csv": (["describe", "instance-flipped.csv"],
                             "instance-flipped.csv", True),
    "flipped-trace": (["stats", "trace-flipped.jsonl"], "trace-flipped.jsonl", True),
    "flipped-registry": (["runs", "list", "--registry-dir", "registry-flipped"],
                         "registry-flipped", True),
    "flipped-snapshot": (["obs", "export", "snapshot-flipped.json", "--prom", "m.prom"],
                         "snapshot-flipped.json", True),
    "flipped-series": (["alerts", "check", "series-flipped.jsonl", "--rules",
                        "rules.json"], "series-flipped.jsonl", True),
    "flipped-rules": (["alerts", "check", "series.jsonl", "--rules",
                       "rules-flipped.json"], "rules-flipped.json", True),
}


@pytest.mark.parametrize(
    "argv, fragment, quiet", list(_BAD_INPUT.values()), ids=list(_BAD_INPUT)
)
def test_bad_input_is_one_error_line(
    bad_inputs, monkeypatch, capsys, argv, fragment, quiet
):
    from repro.experiments import registry

    monkeypatch.chdir(bad_inputs)
    # run-all needs only its --output; one fast experiment stands in.
    monkeypatch.setattr(
        registry, "EXPERIMENTS", {"EXP-A": registry.EXPERIMENTS["EXP-A"]}
    )
    before = sorted(p.name for p in bad_inputs.iterdir())
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ") and fragment in lines[0], lines[0]
    if quiet:
        assert captured.out == ""
    assert sorted(p.name for p in bad_inputs.iterdir()) == before


def test_closed_pipe_is_not_bad_input(tmp_path):
    # `repro trace t.jsonl | head -1`: the reader leaves after one line.
    # The timeline is larger than a pipe's buffer, so the writer meets
    # the closed pipe; it exits 141, as a SIGPIPE death would, silently.
    import os
    import subprocess
    import sys

    import repro
    from repro.algorithms.dlru_edf import DeltaLRUEDF
    from repro.simulation.engine import simulate
    from repro.simulation.trace_io import save_run
    from repro.workloads.random_batched import random_batched

    run = simulate(
        random_batched(8, 4, 2048, seed=7, load=0.35), DeltaLRUEDF(), 8,
        record="full",
    )
    trace = save_run(run, tmp_path / "run")["trace"]
    source = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "repro", "trace", str(trace)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    ) as child:
        assert child.stdout.readline().startswith(b"round ")
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    assert child.returncode == 141
    assert err == b""
