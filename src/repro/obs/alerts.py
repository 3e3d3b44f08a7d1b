"""Deterministic alerting over metric time-series.

An :class:`AlertRule` declares a condition on one series recorded by a
:class:`~repro.obs.timeseries.SeriesRecorder`; an :class:`AlertEngine`
holds a set of rules and a firing→resolved state machine per rule.  The
engine is fed one ``(round, {series: value})`` sample at a time — by the
recorder, on the same deterministic round clock that builds the series —
and its verdicts are a pure function of (rules, sample sequence): no
wall clock, no randomness, no thread timing.  Serial and parallel
producers, and a killed-and-resumed streaming session, therefore fire
and resolve the *same alerts at the same rounds* (property-tested).

Rule kinds
----------
``threshold``
    The sample value compared against ``value`` with ``op``
    (``stream.rejection_rate > 0.25``).
``rate_of_change``
    The difference between consecutive samples compared against
    ``value`` with ``op`` (backlog ramping: ``engine.queue_depth.mean``
    rising faster than X per sample).
``stall``
    Fires when the watched series is *flat* (consecutive samples equal)
    — the watermark rule: ``stream.admitted`` unchanged across N samples
    means ingestion has stalled.  ``op``/``value`` are unused.

Hysteresis: a rule breaches on one sample but only *fires* after
``window`` consecutive breaching samples, and only *resolves* after
``resolve_window`` consecutive clean ones — so a single noisy sample
neither pages nor flaps.  A rule whose series is absent from a sample is
skipped for that sample (missing data is not a breach, and not a
resolve).

Severity is ``"warning"`` or ``"critical"``; the ops service turns
``/health`` red (HTTP 503) while any critical rule is firing.

Rules serialize to/from plain dicts (``repro-alerts/v1`` JSON files for
the ``repro alerts`` CLI), and the engine's state round-trips through
``state_dict``/``load_state`` inside streaming checkpoints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.core.inputs import InputError, malformed, read_json

ALERTS_SCHEMA = "repro-alerts/v1"

RULE_KINDS = ("threshold", "rate_of_change", "stall")
SEVERITIES = ("warning", "critical")

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


#: Rule-file fields: the JSON types each accepts (never ``bool``), and
#: how an error message names them.
_FIELDS: dict[str, tuple[type | tuple[type, ...], str]] = {
    "name": (str, "a string"),
    "series": (str, "a string"),
    "kind": (str, "a string"),
    "op": (str, "a string"),
    "value": ((int, float), "a number"),
    "window": (int, "an integer"),
    "resolve_window": (int, "an integer"),
    "severity": (str, "a string"),
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative condition over one recorded series."""

    name: str
    series: str
    kind: str = "threshold"
    op: str = ">"
    value: float = 0.0
    #: Consecutive breaching samples before the rule fires.
    window: int = 1
    #: Consecutive clean samples before a firing rule resolves.
    resolve_window: int = 1
    severity: str = "warning"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("alert rule needs a name")
        if not self.series:
            raise ValueError(f"rule {self.name!r} needs a series to watch")
        if self.kind not in RULE_KINDS:
            raise ValueError(
                f"rule {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {RULE_KINDS}"
            )
        if self.op not in _OPS:
            raise ValueError(
                f"rule {self.name!r}: unknown op {self.op!r}; "
                f"expected one of {tuple(_OPS)}"
            )
        if self.window < 1 or self.resolve_window < 1:
            raise ValueError(
                f"rule {self.name!r}: window and resolve_window must be >= 1"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"rule {self.name!r}: severity must be one of {SEVERITIES}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "series": self.series,
            "kind": self.kind,
            "op": self.op,
            "value": self.value,
            "window": self.window,
            "resolve_window": self.resolve_window,
            "severity": self.severity,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AlertRule":
        """Build a rule from its JSON object; a malformed one raises
        :class:`ValueError` naming the offending field."""
        if not isinstance(data, Mapping):
            raise ValueError(
                f"alert rule is a JSON {type(data).__name__}, not an object"
            )
        unknown = sorted(set(data) - set(_FIELDS))
        if unknown:
            raise ValueError(
                f"alert rule has unknown field(s): {', '.join(unknown)}"
            )
        missing = [key for key in ("name", "series") if key not in data]
        if missing:
            raise ValueError(
                f"alert rule is missing field(s): {', '.join(missing)}"
            )
        for key, value in data.items():
            types, expected = _FIELDS[key]
            if not isinstance(value, types) or isinstance(value, bool):
                raise ValueError(
                    f"alert rule field {key!r} must be {expected}, "
                    f"got {value!r}"
                )
        return cls(**data)


@dataclass(frozen=True)
class AlertEvent:
    """One firing or resolution, anchored to the sample round."""

    rule: str
    kind: str  # "fired" | "resolved"
    round: int
    value: float
    severity: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "kind": self.kind,
            "round": self.round,
            "value": self.value,
            "severity": self.severity,
        }

    def __str__(self) -> str:
        glyph = "FIRING" if self.kind == "fired" else "resolved"
        return (
            f"[{self.severity}] {self.rule} {glyph} at round {self.round} "
            f"(value {self.value:g})"
        )


@dataclass
class _RuleState:
    """Mutable per-rule evaluation state (the hysteresis machine)."""

    firing: bool = False
    breach_streak: int = 0
    clear_streak: int = 0
    previous: float | None = None
    last_value: float | None = None
    fired_round: int | None = None
    resolved_round: int | None = None
    fired_count: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "firing": self.firing,
            "breach_streak": self.breach_streak,
            "clear_streak": self.clear_streak,
            "previous": self.previous,
            "last_value": self.last_value,
            "fired_round": self.fired_round,
            "resolved_round": self.resolved_round,
            "fired_count": self.fired_count,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "_RuleState":
        return cls(**dict(data))


class AlertEngine:
    """Evaluate a rule set sample by sample, tracking firing state.

    ``observe(round, values)`` is the only mutating entry point; it
    returns the :class:`AlertEvent`\\ s (fires/resolves) this sample
    produced.  All events are also kept in :attr:`events` (bounded by
    ``max_events``, oldest dropped first, with :attr:`events_dropped`
    counting the shed ones).
    """

    def __init__(
        self, rules: Iterable[AlertRule | Mapping], *, max_events: int = 1024
    ) -> None:
        parsed: list[AlertRule] = []
        for rule in rules:
            if not isinstance(rule, AlertRule):
                rule = AlertRule.from_dict(rule)
            parsed.append(rule)
        names = [rule.name for rule in parsed]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(
                "duplicate alert rule names: " + ", ".join(duplicates)
            )
        if max_events < 1:
            raise ValueError("max_events must be at least 1")
        self.rules: tuple[AlertRule, ...] = tuple(parsed)
        self.max_events = max_events
        self._states: dict[str, _RuleState] = {
            rule.name: _RuleState() for rule in self.rules
        }
        self.events: list[AlertEvent] = []
        self.events_dropped = 0
        self.samples_seen = 0

    # ---------------------------------------------------------- evaluate

    def _signal(
        self, rule: AlertRule, state: _RuleState, value: float
    ) -> bool | None:
        """Whether this sample breaches ``rule`` (None = not evaluable)."""
        if rule.kind == "threshold":
            return _OPS[rule.op](value, rule.value)
        if rule.kind == "rate_of_change":
            if state.previous is None:
                return None
            return _OPS[rule.op](value - state.previous, rule.value)
        # stall: flat against the previous sample.
        if state.previous is None:
            return None
        return value == state.previous

    def observe(
        self, round_index: int, values: Mapping[str, float]
    ) -> list[AlertEvent]:
        """Feed one sample; returns the events it produced, in rule order."""
        self.samples_seen += 1
        produced: list[AlertEvent] = []
        for rule in self.rules:
            if rule.series not in values:
                continue
            value = float(values[rule.series])
            state = self._states[rule.name]
            breach = self._signal(rule, state, value)
            state.previous = value
            state.last_value = value
            if breach is None:
                continue
            if breach:
                state.breach_streak += 1
                state.clear_streak = 0
                if not state.firing and state.breach_streak >= rule.window:
                    state.firing = True
                    state.fired_round = round_index
                    state.fired_count += 1
                    produced.append(
                        AlertEvent(
                            rule=rule.name,
                            kind="fired",
                            round=round_index,
                            value=value,
                            severity=rule.severity,
                        )
                    )
            else:
                state.clear_streak += 1
                state.breach_streak = 0
                if state.firing and state.clear_streak >= rule.resolve_window:
                    state.firing = False
                    state.resolved_round = round_index
                    produced.append(
                        AlertEvent(
                            rule=rule.name,
                            kind="resolved",
                            round=round_index,
                            value=value,
                            severity=rule.severity,
                        )
                    )
        if produced:
            self.events.extend(produced)
            overflow = len(self.events) - self.max_events
            if overflow > 0:
                del self.events[:overflow]
                self.events_dropped += overflow
        return produced

    # ------------------------------------------------------------- views

    @property
    def firing(self) -> list[str]:
        """Names of currently firing rules, in rule order."""
        return [
            rule.name for rule in self.rules if self._states[rule.name].firing
        ]

    @property
    def critical_firing(self) -> bool:
        return any(
            self._states[rule.name].firing
            for rule in self.rules
            if rule.severity == "critical"
        )

    def status(self, rule_name: str) -> dict[str, Any]:
        rule = next(
            (rule for rule in self.rules if rule.name == rule_name), None
        )
        if rule is None:
            raise KeyError(f"unknown alert rule {rule_name!r}")
        return {"rule": rule.to_dict(), **self._states[rule_name].to_dict()}

    def payload(self) -> dict[str, Any]:
        """JSON-ready view of everything (the ``/alerts`` payload)."""
        return {
            "schema": ALERTS_SCHEMA,
            "samples_seen": self.samples_seen,
            "firing": self.firing,
            "critical_firing": self.critical_firing,
            "rules": [self.status(rule.name) for rule in self.rules],
            "events": [event.to_dict() for event in self.events],
            "events_dropped": self.events_dropped,
        }

    # ------------------------------------------- checkpoint/restore

    def state_dict(self) -> dict[str, Any]:
        return {
            "samples_seen": self.samples_seen,
            "events_dropped": self.events_dropped,
            "states": {
                name: state.to_dict() for name, state in self._states.items()
            },
            "events": [event.to_dict() for event in self.events],
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        self.samples_seen = int(state["samples_seen"])
        self.events_dropped = int(state.get("events_dropped", 0))
        for name, data in state["states"].items():
            if name in self._states:
                self._states[name] = _RuleState.from_dict(data)
        self.events = [
            AlertEvent(**event) for event in state.get("events", [])
        ]


# --------------------------------------------------------- pure evaluation


def evaluate_rules(
    rules: Sequence[AlertRule | Mapping],
    series: Mapping[str, Any],
    *,
    max_events: int = 1024,
) -> AlertEngine:
    """Evaluate rules against *recorded* series, returning the engine.

    ``series`` maps names to :class:`~repro.obs.timeseries.Series`
    objects or their ``to_dict`` forms (e.g. straight from
    :func:`~repro.obs.timeseries.read_series_jsonl`).  Points are
    replayed in round order, each point contributing its ``last`` value
    at its window-end round — so the verdicts equal a live engine fed
    those samples.  (Compaction merges old points, so a *compacted* file
    replays the coarsened history; live engines attached via
    ``SeriesRecorder(rules=...)`` see every sample as it happens.)
    """
    from repro.obs.timeseries import Series

    materialized: dict[str, Series] = {}
    for name, data in series.items():
        materialized[name] = (
            data if isinstance(data, Series) else Series.from_dict(data)
        )
    # Align samples across series by round: one engine observation per
    # distinct round, carrying every series that has a point there.
    by_round: dict[int, dict[str, float]] = {}
    for name, one in materialized.items():
        for point in one.points:
            by_round.setdefault(point.end, {})[name] = point.last
    engine = AlertEngine(rules, max_events=max_events)
    for round_index in sorted(by_round):
        engine.observe(round_index, by_round[round_index])
    return engine


# -------------------------------------------------------------- rule files


def rules_to_json(rules: Sequence[AlertRule]) -> str:
    payload = {
        "schema": ALERTS_SCHEMA,
        "rules": [rule.to_dict() for rule in rules],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_rules(path: str | Path) -> list[AlertRule]:
    """Load a ``repro-alerts/v1`` JSON rule file.

    Raises :class:`~repro.core.inputs.InputError` naming the file, and
    for a bad rule its index and field, when the file is unreadable or
    malformed.
    """
    payload = read_json(path, "rule file")
    if payload.get("schema") != ALERTS_SCHEMA:
        raise InputError(
            f"rule file {path} has schema {payload.get('schema')!r}; "
            f"expected {ALERTS_SCHEMA}"
        )
    rules = payload.get("rules")
    if not isinstance(rules, list) or not rules:
        raise InputError(f"rule file {path} declares no rules")
    loaded = []
    for index, rule in enumerate(rules):
        with malformed(f"rule file {path}, rule {index}"):
            loaded.append(AlertRule.from_dict(rule))
    return loaded


#: Example rule file contents (``repro alerts example``): the shapes the
#: issue motivates — stalled ingestion, windowed rejection rate, backlog
#: age versus the delay bound D, and monitor-violation escalation.
def example_rules(delay_bound: int = 32) -> list[AlertRule]:
    return [
        AlertRule(
            name="ingest-stalled",
            series="stream.admitted",
            kind="stall",
            window=4,
            resolve_window=1,
            severity="critical",
        ),
        AlertRule(
            name="rejection-rate-high",
            series="stream.rejection_rate",
            kind="threshold",
            op=">",
            value=0.25,
            window=3,
            resolve_window=3,
            severity="warning",
        ),
        AlertRule(
            name="backlog-age-exceeds-D",
            series="engine.backlog_age.mean",
            kind="threshold",
            op=">",
            value=float(2 * delay_bound),
            window=2,
            resolve_window=2,
            severity="warning",
        ),
        AlertRule(
            name="backlog-ramp",
            series="engine.queue_depth.mean",
            kind="rate_of_change",
            op=">",
            value=1.0,
            window=3,
            resolve_window=2,
            severity="warning",
        ),
        AlertRule(
            name="monitor-violations",
            series="monitor.violations",
            kind="threshold",
            op=">",
            value=0.0,
            window=1,
            resolve_window=1,
            severity="critical",
        ),
    ]
