"""CI smoke for metric time-series + deterministic alerting, end to end.

A streaming session runs with a :class:`SeriesRecorder` and an injected
ingestion stall (the workload goes quiet for the middle third of the
run), while the ops service serves ``/series`` and ``/alerts`` live.
Four acceptance promises:

1. **Live scrapes survive the run.**  A background scraper hits
   ``/series`` and ``/alerts`` continuously; every response must be
   HTTP 200 with the right schema (``repro-series/v2`` /
   ``repro-alerts/v1``).
2. **The stall alert fires and resolves deterministically.**  The
   critical stall rule on ``stream.offered`` fires exactly once (inside
   the quiet window) and resolves exactly once (after traffic returns)
   — same workload, same rounds, every run.
3. **Health follows the alert.**  ``/health`` serves 503 while the
   critical rule is firing and 200 once it resolves; the final
   ``/series`` snapshot matches the local recorder byte for byte.
4. **Kill/resume is observability-transparent.**  A session killed at a
   mid-stall checkpoint and resumed in a fresh process state reproduces
   the uninterrupted session's series, alert events, and costs bit for
   bit (the recorder's derivation and alert state ride inside the
   checkpoint, its series in the append-only sidecar beside it).

Usage::

    PYTHONPATH=src python benchmarks/check_alerts_smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import urllib.error
import urllib.request
from pathlib import Path

#: Workload shape: small spec, fast rounds, deterministic splitmix draws.
COLORS, DELTA, LOAD, SEED = 4, 8, 0.6, 11
BOUNDS = (8, 16)
RESOURCES = 8

TOTAL_ROUNDS = 3_072
#: The source offers no jobs in [QUIET_START, QUIET_END) — the stall.
QUIET_START, QUIET_END = 1_024, 2_048
SEGMENT_ROUNDS = 64  # recorder samples at every segment end
CHUNK_ROUNDS = 256  # publish cadence of the driver loop
CAPACITY = 128
KILL_AT, CHECKPOINT_EVERY = 1_536, 512  # mid-stall, while firing


def _source():
    from repro.streaming import GeneratorSource
    from repro.workloads.streaming import rate_limited_stream

    stream = rate_limited_stream(
        COLORS, DELTA, seed=SEED, load=LOAD, bound_choices=BOUNDS
    )

    def counts(round_index: int):
        if QUIET_START <= round_index < QUIET_END:
            return ()
        return stream.batch_counts(round_index)

    return GeneratorSource(stream.spec, counts, name="stall-injected")


def _rules():
    from repro.obs import AlertRule

    return [
        AlertRule(
            name="ingest-stalled",
            series="stream.offered",
            kind="stall",
            window=4,
            resolve_window=2,
            severity="critical",
        ),
        AlertRule(
            name="rejection-rate-high",
            series="stream.rejection_rate",
            kind="threshold",
            op=">",
            value=0.9,
            window=3,
            severity="warning",
        ),
    ]


def _build():
    from repro.algorithms.dlru_edf import DeltaLRUEDF
    from repro.obs import MetricsRegistry, SeriesRecorder
    from repro.streaming import StreamSession

    registry = MetricsRegistry()
    recorder = SeriesRecorder(
        registry, capacity=CAPACITY, prefixes=("stream.",), rules=_rules()
    )
    session = StreamSession(
        _source(),
        DeltaLRUEDF(),
        RESOURCES,
        registry=registry,
        recorder=recorder,
        segment_rounds=SEGMENT_ROUNDS,
    )
    return session, recorder


def _fetch_json(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def _check_live_surface() -> int:
    from repro.obs.service import OpsService, OpsState
    from repro.obs.timeseries import SERIES_SCHEMA

    failures = 0
    session, recorder = _build()
    state = OpsState()
    scrape_errors: list[str] = []
    scrape_count = 0
    stop_scraping = threading.Event()

    with OpsService(state) as service:
        base = service.url

        def scrape_loop() -> None:
            nonlocal scrape_count
            while not stop_scraping.is_set():
                try:
                    status, series = _fetch_json(base + "/series")
                    if status != 200 or series.get("schema") != SERIES_SCHEMA:
                        scrape_errors.append(f"/series HTTP {status} {series}")
                    status, alerts = _fetch_json(base + "/alerts")
                    if status != 200 or alerts.get("schema") != "repro-alerts/v1":
                        scrape_errors.append(f"/alerts HTTP {status} {alerts}")
                except Exception as error:  # noqa: BLE001 - report in main
                    scrape_errors.append(repr(error))
                scrape_count += 1
                stop_scraping.wait(0.02)

        scraper = threading.Thread(target=scrape_loop, daemon=True)
        scraper.start()
        degraded_polls = ok_polls = 0
        health_mismatches: list[str] = []
        try:
            for _ in range(0, TOTAL_ROUNDS, CHUNK_ROUNDS):
                session.run(CHUNK_ROUNDS)
                state.publish_series(recorder.snapshot())
                state.publish_alerts(recorder.alerts.payload())
                status, health = _fetch_json(base + "/health")
                expected = 503 if recorder.alerts.critical_firing else 200
                if status != expected:
                    health_mismatches.append(
                        f"round {session.round}: HTTP {status}, want {expected}"
                    )
                elif status == 503:
                    degraded_polls += 1
                    if "ingest-stalled" not in health.get("alerts_firing", []):
                        health_mismatches.append(
                            f"round {session.round}: 503 without the stall "
                            f"rule in alerts_firing: {health}"
                        )
                else:
                    ok_polls += 1
        finally:
            stop_scraping.set()
            scraper.join(timeout=10)

        if scrape_errors:
            failures += 1
            print(f"  FATAL: live scrapes failed: {scrape_errors[:5]}")
        else:
            print(
                f"  {scrape_count} live /series+/alerts scrapes during the "
                "stream, all clean"
            )

        if health_mismatches:
            failures += 1
            print(f"  FATAL: /health out of step: {health_mismatches[:5]}")
        elif degraded_polls == 0:
            failures += 1
            print("  FATAL: /health never went 503 while the stall fired")
        else:
            print(
                f"  /health tracked the alert: {degraded_polls} degraded / "
                f"{ok_polls} ok polls, 200 after resolution"
            )

        # Final /series must equal the local recorder through JSON.
        _, served = _fetch_json(base + "/series")
        local = json.loads(json.dumps(recorder.snapshot(), sort_keys=True))
        if served.get("snapshot") != local:
            failures += 1
            print("  FATAL: served /series snapshot != local recorder")
        else:
            print(
                f"  final /series matches the recorder exactly "
                f"({len(local['series'])} series, {local['samples']} samples)"
            )

    # The stall fired exactly once, inside the quiet window, and resolved
    # exactly once, after traffic returned.
    events = [
        event
        for event in recorder.alerts.events
        if event.rule == "ingest-stalled"
    ]
    shape = [(event.kind, event.round) for event in events]
    fired = [event for event in events if event.kind == "fired"]
    resolved = [event for event in events if event.kind == "resolved"]
    if (
        len(fired) != 1
        or len(resolved) != 1
        or not (QUIET_START < fired[0].round <= QUIET_END)
        or resolved[0].round <= QUIET_END
    ):
        failures += 1
        print(f"  FATAL: unexpected stall event sequence: {shape}")
    else:
        print(
            f"  stall fired once at round {fired[0].round} (quiet window "
            f"[{QUIET_START}, {QUIET_END})), resolved once at round "
            f"{resolved[0].round}"
        )
    if recorder.alerts.firing:
        failures += 1
        print(f"  FATAL: rules still firing at end: {recorder.alerts.firing}")
    return failures


def _check_kill_resume_transparent(tmp: Path) -> int:
    from repro.algorithms.dlru_edf import DeltaLRUEDF
    from repro.obs import MetricsRegistry, SeriesRecorder
    from repro.streaming import StreamSession

    failures = 0
    baseline_session, baseline = _build()
    baseline_result = baseline_session.run(
        TOTAL_ROUNDS, checkpoint_every=CHECKPOINT_EVERY
    )

    path = tmp / "ckpt.json"
    first, _ = _build()
    first.run(KILL_AT, checkpoint_every=CHECKPOINT_EVERY, checkpoint_path=path)
    del first  # forced kill: only the checkpoint file survives

    registry = MetricsRegistry()
    recorder = SeriesRecorder(
        registry, capacity=CAPACITY, prefixes=("stream.",), rules=_rules()
    )
    resumed = StreamSession.resume(
        _source(),
        DeltaLRUEDF(),
        str(path),
        registry=registry,
        recorder=recorder,
        segment_rounds=SEGMENT_ROUNDS,
    )
    result = resumed.run(
        TOTAL_ROUNDS - KILL_AT, checkpoint_every=CHECKPOINT_EVERY
    )

    if result.cost.to_dict() != baseline_result.cost.to_dict():
        failures += 1
        print(
            f"  FATAL: resumed cost {result.total_cost} != uninterrupted "
            f"{baseline_result.total_cost}"
        )
    canon = lambda payload: json.dumps(payload, sort_keys=True)  # noqa: E731
    if canon(recorder.snapshot()) != canon(baseline.snapshot()):
        failures += 1
        print("  FATAL: resumed series snapshot diverged from uninterrupted")
    if canon(recorder.alerts.payload()) != canon(baseline.alerts.payload()):
        failures += 1
        print("  FATAL: resumed alert payload diverged from uninterrupted")
    if not failures:
        events = [str(event) for event in recorder.alerts.events]
        print(
            f"  kill at round {KILL_AT:,} (mid-stall, alert firing) + resume "
            "reproduces series, alerts, and costs bit for bit"
        )
        for line in events:
            print(f"    {line}")
    return failures


def main() -> int:
    print("alerts smoke: live /series+/alerts, deterministic stall, resume")
    failures = 0
    failures += _check_live_surface()
    with tempfile.TemporaryDirectory() as tmp:
        failures += _check_kill_resume_transparent(Path(tmp))
    if failures:
        print(f"FAIL: {failures} alerts smoke check(s) failed")
        return 1
    print(
        "pass: scrapes clean, stall fired/resolved deterministically, "
        "health tracked it, kill/resume transparent"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
