"""Layered performance ledger for the repro package.

Six closed-loop workloads, from one ``simulate()`` call to a checkpointed
``repro stream`` session, each run in a fresh single-threaded
interpreter.  Run from the repository root:

    python3 benchmarks/ledger/run.py [--workload W ...] [--seed S]
        [--quick] [--trace 0|1|DIR] [--out FILE]
    python3 benchmarks/ledger/run.py --write-golden
    python3 benchmarks/ledger/run.py compare A.json ... -- B.json ...

An untraced run prints every end-to-end metric of ``BENCHMARK.json``
with its unit and sample count, checks every op's output, and writes a
results JSON.  ``--trace 1`` (or a directory, which also receives the
spans as JSONL) runs each workload untraced and then traced, and prints
the per-layer metrics instead.  The last line of standard output is
always one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import time

#: Wall clock as this interpreter reaches its first statement: the runner
#: compares it with the moment it launched the process.
T_FIRST = time.time()

import argparse  # noqa: E402  (after the start-up timestamp)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import percentile, quartiles, relative_spread  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / ".out"
GOLDEN_SEEDS = (0, 1)
WORKLOAD_NAMES = (
    "core-dense",
    "core-idle",
    "pipeline-general",
    "stream-ckpt",
    "search-short",
    "offline-exact",
)
#: Interpreter starts per workload run that set-up time takes its
#: median over: the measured run plus this many start-and-import probes.
START_PROBES = 2
CHILD_TIMEOUT_S = 170


class LedgerError(Exception):
    """The ledger cannot run here (missing source tree, crashed child)."""


def load_spec() -> dict:
    path = REPO / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise LedgerError(f"cannot read {path}: {error}") from error


# ---------------------------------------------------------------- child


def child_main(args: argparse.Namespace) -> int:
    """Inside the fresh interpreter: import, run, print one JSON line."""
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import harness  # the package and numpy load here

    import_s = time.perf_counter() - started
    out = {"t_first": T_FIRST, "import_s": import_s}
    if args.mode != "probe":
        golden = None
        if args.golden and GOLDEN.exists():
            seeds = json.loads(GOLDEN.read_text(encoding="utf-8"))["seeds"]
            golden = seeds.get(str(args.seed), {}).get(args.child)
        result = harness.measure(
            args.child,
            args.seed,
            args.seconds,
            traced=args.mode == "traced",
            golden=golden,
            scratch_root=OUT,
        )
        spans = result.pop("spans")
        if args.spans:
            spans.write_jsonl(Path(args.spans), args.child)
        out.update(result)
    print(json.dumps(out))
    return 0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # One process, one thread: no worker pool, no BLAS threads.
    env["REPRO_PARALLEL"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, *,
          golden: bool = True, spans: Path | None = None) -> dict:
    """Run one child interpreter; return its JSON plus its launch delay."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    if not golden:
        command.append("--no-golden")
    if spans is not None:
        command += ["--spans", str(spans)]
    launched = time.time()
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, env=_child_env(),
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as error:
        raise LedgerError(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from error
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise LedgerError(f"{workload} ({mode}) exited {proc.returncode}:\n{tail}")
    out = json.loads(lines[-1])
    out["start_s"] = out["t_first"] - launched + out["import_s"]
    return out


# ------------------------------------------------------------ metrics


def end_to_end(run: dict, starts: list[float]) -> dict:
    """The end-to-end metrics of one untraced workload run."""
    ops = run["times"].get("op", [])
    if not ops:
        return {}
    start = sorted(starts)[len(starts) // 2] * run["speed_factor"]
    return {
        "setup_s": (start + run["setup_in_process_s"], len(starts)),
        "op_p50_ms": (percentile(ops, 0.5) * 1000.0, len(ops)),
        "op_p90_ms": (percentile(ops, 0.9) * 1000.0, len(ops)),
        "ops_per_s": (len(ops) / sum(ops), len(ops)),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
    }


def run_workload(name: str, args: argparse.Namespace, spec: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace == "0":
        plain = spawn(name, args.seed, args.seconds, "plain")
        starts = [plain["start_s"]] + [
            spawn(name, args.seed, args.seconds, "probe")["start_s"]
            for _ in range(START_PROBES)
        ]
        metrics = {
            metric: {"value": value, "unit": units[metric], "n": n}
            for metric, (value, n) in end_to_end(plain, starts).items()
        }
        layers = None
    else:
        spans = None
        if args.trace != "1":
            spans = Path(args.trace) / f"{name}.spans.jsonl"
        plain = spawn(name, args.seed, args.seconds, "plain")
        traced = spawn(name, args.seed, args.seconds, "traced", spans=spans)
        layers = dict(traced["layers"])
        layers.update({k: v["value"] for k, v in traced["workload_metrics"].items()})
        layers.update({k: v["value"] for k, v in plain["workload_metrics"].items()})
        layers["trace.overhead"] = (
            sum(traced["times"]["op"]) / sum(plain["times"]["op"]) - 1.0
        )
        metrics = {}
        plain["failed"] = max(plain["failed"], traced["failed"])
        plain["failures"] = plain["failures"] or traced["failures"]
    return {
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "error_rate": plain["failed"] / plain["attempted"],
        "failures": plain["failures"],
        "metrics": metrics,
        "workload_metrics": plain["workload_metrics"],
        "layers": layers,
        "speed_factor": plain["speed_factor"],
        "counters": plain["counters"],
        "outputs_sha256": hashlib.sha256(
            json.dumps([plain["records"], plain["final"]]).encode()
        ).hexdigest(),
    }


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def print_workload(name: str, row: dict, spec: dict) -> None:
    print(f"{name}: {row['attempted']} ops, {row['failed']} failed, "
          f"error_rate {row['error_rate']:.4f}")
    for failure in row["failures"][:5]:
        print(f"  FAILED {failure}")
    if row["layers"] is None:
        shown = dict(row["metrics"])
        shown.update(row["workload_metrics"])
        for metric, entry in shown.items():
            print(f"  {metric:<34} {entry['value']:>14.4f} {entry['unit']:<9} "
                  f"n={entry['n']}")
    else:
        for metric in spec["per_layer"]:
            value = row["layers"].get(metric["name"])
            if value:
                print(f"  {metric['name']:<34} {value:>14.6g} {metric['unit']}")
    print(flush=True)


def summary_line(rows: dict, spec: dict, traced: bool) -> dict:
    """The contract line: every end-to-end (or per-layer) metric."""
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    for name, row in rows.items():
        prefix = "" if len(rows) == 1 else f"{name}/"
        for metric in wanted:
            if traced:
                value = row["layers"].get(metric["name"], 0.0)
            else:
                value = row["metrics"][metric["name"]]["value"]
            metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    attempted = sum(row["attempted"] for row in rows.values())
    failed = sum(row["failed"] for row in rows.values())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# ------------------------------------------------------------- golden


def write_golden(args: argparse.Namespace) -> int:
    seeds: dict = {}
    for seed in GOLDEN_SEEDS:
        for name in args.workload:
            run = spawn(name, seed, args.seconds, "plain", golden=False)
            if run["failed"]:
                raise LedgerError(f"{name} seed {seed}: {run['failures'][:3]}")
            seeds.setdefault(str(seed), {})[name] = {
                "ops": run["records"],
                "final": run["final"],
            }
            print(f"{name} seed {seed}: {len(run['records'])} ops recorded", flush=True)
    GOLDEN.write_text(
        json.dumps(
            {"schema": "repro-ledger-golden/v1", "seconds": args.seconds, "seeds": seeds},
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
    return 0


# ------------------------------------------------------------ compare


def compare(argv: list[str], spec: dict) -> int:
    """``compare A.json ... -- B.json ...``: medians, quartiles, verdicts."""
    if "--" not in argv:
        print("usage: run.py compare A.json ... -- B.json ...", file=sys.stderr)
        return 2
    split = argv.index("--")
    sides = []
    for paths in (argv[:split], argv[split + 1:]):
        if not paths:
            print("compare needs at least one file per side", file=sys.stderr)
            return 2
        sides.append([json.loads(Path(p).read_text(encoding="utf-8")) for p in paths])
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worst = 0
    names = sorted({w for doc in sides[0] + sides[1] for w in doc["workloads"]})
    for workload in names:
        print(workload)
        tables = [[_reported(doc, workload) for doc in side] for side in sides]
        metric_names = sorted({m for side in tables for table in side for m in table})
        for metric in metric_names:
            values = [[t[metric] for t in side if metric in t] for side in tables]
            if not values[0] or not values[1]:
                continue
            verdict = _verdict(values[0], values[1], bounds.get(metric))
            if verdict == "REGRESSED":
                worst = 1
            a, b = quartiles(values[0]), quartiles(values[1])
            change = (b[1] - a[1]) / a[1] if a[1] else 0.0
            print(f"  {metric:<22} A {a[1]:>11.4f} [{a[0]:.4f}, {a[2]:.4f}] n={len(values[0])}"
                  f"  B {b[1]:>11.4f} [{b[0]:.4f}, {b[2]:.4f}] n={len(values[1])}"
                  f"  {change:+7.1%}  {verdict}")
        mismatch = _exact_mismatch(workload, sides[0] + sides[1])
        if mismatch:
            worst = 1
        print(f"  counters and outputs: {mismatch or 'identical within each (seed, seconds)'}")
    return worst


def _reported(doc: dict, workload: str) -> dict[str, float]:
    """Every metric value one results file reports for ``workload``."""
    row = doc["workloads"].get(workload, {})
    entries = {**row.get("metrics", {}), **row.get("workload_metrics", {})}
    return {name: entry["value"] for name, entry in entries.items()}


def _verdict(a: list[float], b: list[float], metric: dict | None) -> str:
    if metric is None:
        return "-"
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    a_med, b_med = quartiles(a)[1], quartiles(b)[1]
    worse = (b_med - a_med) / a_med if lower else (a_med - b_med) / a_med
    if relative_spread(a) > bound or relative_spread(b) > bound:
        all_better = max(b) < min(a) if lower else min(b) > max(a)
        return "better (all runs)" if all_better else "unresolved"
    if worse > bound:
        return "REGRESSED"
    return "ok"


def _exact_mismatch(workload: str, docs: list[dict]) -> str:
    groups: dict = {}
    for doc in docs:
        row = doc["workloads"].get(workload)
        if row is None:
            continue
        key = (doc["seed"], doc["seconds"])
        exact = (row["counters"], row["outputs_sha256"])
        if groups.setdefault(key, exact) != exact:
            return f"DIFFER at seed {key[0]}, seconds {key[1]}"
    return ""


# --------------------------------------------------------------- main


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES,
                        default=list(WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=0,
                        help="derives every per-op input seed (1 is held out)")
    # Sizes each workload's op count.  It is the run_seconds of
    # BENCHMARK.json (a tenth with --quick), passed to each child; a
    # caller that follows BENCHMARK.json passes run_seconds too.
    parser.add_argument("--seconds", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the ops: the same code paths, fast")
    parser.add_argument("--trace", default="0",
                        help="0: untraced; 1: traced; DIR: traced, spans to DIR")
    parser.add_argument("--out", type=Path, default=OUT / "latest.json",
                        help="results JSON")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json for seeds 0 and 1")
    parser.add_argument("--child", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=("plain", "traced", "probe"),
                        default="plain", help=argparse.SUPPRESS)
    parser.add_argument("--no-golden", dest="golden", action="store_false",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare(argv[1:], load_spec())
    args = parse(argv)
    if args.child:
        return child_main(args)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.quick:
        args.seconds /= 10.0
    if not (SRC / "repro" / "__init__.py").exists():
        raise LedgerError(f"no source tree at {SRC}; run from a repository checkout")
    if args.write_golden:
        return write_golden(args)
    traced = args.trace != "0"
    rows = {}
    for name in args.workload:
        rows[name] = run_workload(name, args, spec)
        print_workload(name, rows[name], spec)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        json.dumps(
            {
                "schema": "repro-ledger-results/v1",
                "machine": machine(),
                "seed": args.seed,
                "seconds": args.seconds,
                "traced": traced,
                "workloads": rows,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"results written to {args.out}")
    print(json.dumps(summary_line(rows, spec, traced)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except LedgerError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
