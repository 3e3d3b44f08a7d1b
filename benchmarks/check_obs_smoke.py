"""CI smoke for the observability stack: monitors, bit-identity, diff.

Three promises, each checked end to end on a small EXP-S cell:

1. **Monitors hold.**  A seeded ``random_rate_limited`` run with every
   invariant monitor attached (epoch structure, credit budgets, drop
   containment, competitive ratio) finishes with zero violations — the
   online reconstructions agree with the paper's lemmas on a real run.
2. **Monitors are invisible.**  The monitored run's CostBreakdown is
   bit-identical to an unobserved run of the same instance, on both the
   sparse and dense batched modes.
3. **Diffing works.**  ``repro obs monitor --out`` twice with the same
   seed then ``repro obs diff`` reports *identical* (exit 0); perturbing
   Δ yields a divergence with a non-empty cost attribution (exit 1).

Usage::

    PYTHONPATH=src python benchmarks/check_obs_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

#: Small EXP-S-style cell: big enough to exercise wraps, drops, and
#: several super-epochs; small enough to stay under a second.
COLORS, DELTA, HORIZON, RESOURCES, SEED, LOAD = 4, 2, 256, 8, 0, 0.6


def _fingerprint(result):
    cost = result.cost
    return (
        tuple(sorted(cost.summary().items())),
        tuple(sorted(cost.reconfigs_by_color.items())),
        tuple(sorted(cost.executions_by_color.items())),
        tuple(sorted(cost.drops_by_color.items())),
    )


def _check_monitors() -> int:
    from repro.algorithms.dlru_edf import DeltaLRUEDF
    from repro.obs import MetricsRegistry, TeeSink, Tracer, standard_monitors
    from repro.simulation.engine import simulate
    from repro.workloads.random_batched import random_rate_limited

    instance = random_rate_limited(
        COLORS, DELTA, HORIZON, seed=SEED, load=LOAD, bound_choices=(2, 4, 8)
    )
    failures = 0
    for engine in ("sparse", "dense"):
        baseline = simulate(
            instance, DeltaLRUEDF(), RESOURCES, record="costs", engine=engine
        )
        registry = MetricsRegistry()
        monitors = standard_monitors(
            instance, policy="collect", registry=registry
        )
        tracer = Tracer(TeeSink(*monitors))
        monitored = simulate(
            instance,
            DeltaLRUEDF(),
            RESOURCES,
            record="costs",
            engine=engine,
            tracer=tracer,
            registry=registry,
        )
        tracer.close()
        for monitor in monitors:
            for violation in monitor.violations:
                failures += 1
                print(f"  VIOLATION [{engine}] {violation}")
        if _fingerprint(baseline) != _fingerprint(monitored):
            failures += 1
            print(
                f"  FATAL [{engine}]: monitored cost "
                f"{_fingerprint(monitored)} != baseline "
                f"{_fingerprint(baseline)}"
            )
        else:
            print(
                f"  {engine}: {len(monitors)} monitors clean, cost "
                f"{monitored.total_cost} bit-identical"
            )
    return failures


def _cli(argv: list[str]) -> tuple[int, str]:
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _check_diff(tmp: Path) -> int:
    base = [
        "obs",
        "monitor",
        "--colors",
        str(COLORS),
        "--horizon",
        str(HORIZON),
        "--resources",
        str(RESOURCES),
        "--seed",
        str(SEED),
        "--load",
        str(LOAD),
    ]
    failures = 0
    a, b, c = (str(tmp / name) for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    for out, delta in ((a, DELTA), (b, DELTA), (c, 2 * DELTA)):
        code, _ = _cli(base + ["--delta", str(delta), "--out", out])
        if code != 0:
            failures += 1
            print(f"  FATAL: obs monitor (delta={delta}) exited {code}")

    code, text = _cli(["obs", "diff", a, b])
    if code != 0 or "identical" not in text:
        failures += 1
        print(f"  FATAL: same-seed diff not identical (exit {code}):\n{text}")
    else:
        print(f"  same-seed diff: {text.strip().splitlines()[0]}")

    code, text = _cli(["obs", "diff", a, c])
    if code != 1 or "attribution" not in text:
        failures += 1
        print(
            "  FATAL: perturbed-delta diff should diverge with a cost "
            f"attribution (exit {code}):\n{text}"
        )
    else:
        print("  perturbed diff: divergence + attribution reported")
    return failures


def main() -> int:
    print("obs smoke: monitors + bit-identity")
    failures = _check_monitors()
    print("obs smoke: trace diff round trip")
    with tempfile.TemporaryDirectory() as tmp:
        failures += _check_diff(Path(tmp))
    if failures:
        print(f"FAIL: {failures} observability smoke check(s) failed")
        return 1
    print("pass: monitors clean, costs bit-identical, diff attribution works")
    return 0


if __name__ == "__main__":
    sys.exit(main())
