"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-reboot --seed 1 --seconds 15
    python3 perfbench/run.py --workload all --seed 1 --trace 1

A run sets the workload up several times (``setup_s`` is the median),
runs it unmeasured for a short warm-up, then measures for ``--seconds``.
Every metric is printed to stderr by name with its unit and the direction
that is better; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``. ``--trace 1`` runs
half the time untraced and half traced, and reports the per-layer metrics;
its spans are written to ``perfbench/out/``. A run exits non-zero without
a result when the library under ``src/`` cannot be imported.

Reported times are converted to a reference host speed with the
calibration sample taken before each operation and set-up (see
``workloads.calibrate``); stderr also shows the figures as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

from spans import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("fleet-reboot", "fleet-sharded", "attest-1mb", "polybench-watz")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Unmeasured operations after set-up: the first seconds of a fresh
#: environment run slower (allocator growth, lazily built tables).
WARMUP_S = 2.0


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _import_library():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy
        import workloads
        from repro.fleet import LOOP_BACKEND
    except ImportError as exc:
        print(f"perfbench: cannot import the library under src/: {exc}",
              file=sys.stderr)
        sys.exit(2)
    return workloads, {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loop_backend": LOOP_BACKEND,
    }


def _quantile(values, index):
    """Decile ``index`` (5 = median, 9 = p90) of ``values``."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[index - 1]


def end_to_end(run, setup_s: float, scales) -> dict:
    """The user-facing metrics, with op times multiplied by ``scales``."""
    latencies_ms = [s * scale * 1e3
                    for s, scale in zip(run.latencies_s, scales)]
    return {
        "setup_s": setup_s,
        # Completed operations per second of the run, with the time the
        # operations took converted by their scales.
        "ops_per_s": len(latencies_ms) / run.window_s
        * sum(run.latencies_s) * 1e3 / sum(latencies_ms),
        "op_p50_ms": _quantile(latencies_ms, 5),
        "op_p90_ms": _quantile(latencies_ms, 9),
    }


def _speed(run) -> float:
    """Run-wide factor converting this run's op times to reference speed."""
    scaled = sum(s * scale for s, scale in zip(run.latencies_s, run.scales()))
    return scaled / sum(run.latencies_s)


def per_layer(workload, untraced, traced, recorder, spec) -> dict:
    """Per-layer metrics of the traced run; times at reference speed."""
    values = workload.layer_rows(traced, recorder)
    rows = values.pop("_rows")
    spans, counts, ops = rows["spans_ms"], rows["counts"], rows["ops"]

    def per_op(count_name):
        return counts.get(count_name, 0) / ops if ops else 0.0

    values.update({
        "op.traced_ms": rows["op_ms"],
        "hw.smc_per_op": per_op("hw.smc"),
        "crypto.ecdsa_verify_calls": per_op("crypto.ecdsa_verify_calls"),
        "crypto.gcm_keys": per_op("crypto.gcm_keys"),
        "crypto.gcm_mb": per_op("crypto.gcm_bytes") / 2 ** 20,
        "crypto.ecdsa_verify_ms": spans.get("crypto.ecdsa_verify", 0.0)
        + spans.get("crypto.ecdsa_verify_batch", 0.0),
    })
    for layer, ms in rows["layers_ms"].items():
        values[f"layer.{layer}_ms"] = ms
    for name, ms in spans.items():
        values.setdefault(f"{name}_ms", ms)
    speed = _speed(traced)
    for metric in spec["per_layer"]:
        if metric["unit"] == "ms" and metric["name"] in values:
            values[metric["name"]] *= speed
    values["obs.trace_overhead"] = (
        statistics.fmean(traced.latencies_s) * speed
        / (statistics.fmean(untraced.latencies_s) * _speed(untraced)))
    return values, rows


def _dump(filename: str, payload: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, filename), "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")


def _setup(workload, library):
    """Set up SETUPS times; returns the median set-up time at reference
    speed and the ``(seconds, calibration before, after)`` of each."""
    setups = []
    for attempt in range(SETUPS):
        if attempt:
            workload.teardown()
        before = library.calibrate()
        started = time.perf_counter()
        workload.setup()
        setups.append((time.perf_counter() - started, before,
                       library.calibrate()))
    return statistics.median(
        seconds * library.REFERENCE_CALIBRATION_S * 2 / (before + after)
        for seconds, before, after in setups), setups


def run_workload(name, seed, seconds, trace, library, spec, host):
    workload = library.make(name, seed)
    try:
        setup_s, setups = _setup(workload, library)
        warmup = workload.run(WARMUP_S, None)
        if not trace:
            run = workload.run(seconds, None)
            runs = [run]
            metrics = end_to_end(run, setup_s, run.scales())
            wanted = spec["end_to_end"]
            measured = end_to_end(
                run, statistics.median(s[0] for s in setups),
                [1.0] * len(run.latencies_s))
            measured["host_speed"] = statistics.median(run.scales())
            rows = None
            _dump(f"ops-{name}-{seed}.json", {
                "workload": name, "seed": seed, "host": host,
                "window_s": run.window_s, "latencies_s": run.latencies_s,
                "calibration_s": run.calibration_s, "setups": setups})
        else:
            untraced = workload.run(seconds / 2, None)
            recorder = Recorder()
            recorder.install()
            try:
                traced = workload.run(seconds / 2, recorder)
            finally:
                recorder.uninstall()
            runs = [untraced, traced]
            measured = None
            metrics, rows = per_layer(workload, untraced, traced, recorder,
                                      spec)
            closing = sum(rows["layers_ms"].values()) - rows["op_ms"]
            if abs(closing) > 1e-6 * rows["op_ms"]:
                traced.problems.append(
                    f"layer rows miss the per-op time by {closing} ms")
            wanted = spec["per_layer"]
            os.makedirs(OUT, exist_ok=True)
            recorder.dump(os.path.join(OUT, f"trace-{name}-{seed}.json"),
                          {"workload": name, "seed": seed, "host": host,
                           "per_op": rows})
    finally:
        workload.teardown()
    problems = [p for run in [warmup] + runs for p in run.problems]
    errors = [e for run in [warmup] + runs for e in run.errors]
    result = {
        "correct": not problems,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in wanted},
    }
    _report(name, result, wanted, measured, rows, problems + errors,
            getattr(workload, "sim_ns", None))
    return result


def _report(name, result, wanted, measured, rows, notes, sim_ns) -> None:
    out = sys.stderr
    print(f"== {name}: attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {result['correct']}", file=out)
    for metric in wanted:
        value = result["metrics"][metric["name"]]["value"]
        print(f"  {metric['name']:<34} {value:>12.4f} {metric['unit']:<6} "
              f"({metric['better']} is better)", file=out)
    if sim_ns is not None:
        print(f"  SimClock per attest: {sim_ns} ns (identical on every op)",
              file=out)
    if measured is not None:
        speed = measured.pop("host_speed")
        print(f"  as measured (host speed {speed:.3f} of reference): "
              + ", ".join(f"{key} {value:.4f}"
                          for key, value in measured.items()), file=out)
    if rows is not None:
        print(f"  per-op self time by layer as measured, {rows['ops']} "
              "traced ops:", file=out)
        for layer, ms in rows["layers_ms"].items():
            print(f"    {layer:<14} {ms:10.3f} ms", file=out)
        print(f"    {'= op':<14} {rows['op_ms']:10.3f} ms", file=out)
    for line in notes[:20]:
        print(f"  ! {line}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = _spec()
    library, host = _import_library()
    seconds = args.seconds or spec["run_seconds"]
    print(f"host: {json.dumps(host, sort_keys=True)}", file=sys.stderr)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, seconds, args.trace,
                                  library, spec, host)
               for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
