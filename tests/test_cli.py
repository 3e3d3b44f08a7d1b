"""CLI tests."""

import re

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


def test_run_unknown_experiment_raises():
    with pytest.raises(KeyError):
        main(["run", "EXP-NOPE"])


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
    assert main([*args, "--rounds", "512", "--resume"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and str(path) in lines[0]


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
