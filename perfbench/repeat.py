"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/repeat.py --workload attest-1mb --runs 10
    python3 perfbench/repeat.py --workload all --runs 10 --record

For every end-to-end metric it prints the median of the runs and the
spread, the distance between the first and third quartile as a share of
the median, next to the metric's bound in ``BENCHMARK.json``. ``--trace
1`` repeats the traced run instead and checks that counts taken on the
SimClock side (``hw.smc_per_op``) are identical on every run.
``--record`` appends the medians, spreads and host metadata to
``perfbench/trajectory.json`` as a new entry.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS, _spec  # noqa: E402

#: Per-layer metrics that must read the same on every run.
EXACT = ("hw.smc_per_op",)


def _one(workload, seed, trace, seconds):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)]
    if seconds:
        command += ["--seconds", str(seconds)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    sim = [line for line in done.stderr.splitlines() if "SimClock" in line]
    return result, elapsed, sim


def spread(values):
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--label", default="",
                        help="what the recorded entry measured")
    args = parser.parse_args()
    spec = _spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    ok = True
    for workload in names:
        values = {m["name"]: [] for m in metrics}
        sims, walls, failed = set(), [], 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, elapsed, sim = _one(workload, seed, args.trace,
                                        args.seconds)
            walls.append(elapsed)
            failed += result["failed"]
            ok &= result["correct"]
            sims.update(sim)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}: {args.runs} runs, {failed} failed ops, "
              f"wall per run {statistics.median(walls):.1f} s "
              f"(max {max(walls):.1f} s)")
        entry = {}
        for metric in metrics:
            name = metric["name"]
            series = values[name]
            middle = statistics.median(series)
            share = spread(series) if len(series) >= 2 else 0.0
            bound = metric.get("bound")
            entry[name] = {"median": middle, "spread": share,
                           "unit": metric["unit"]}
            if bound is not None:
                flag = "ok" if share < bound / 3 else (
                    "WIDE" if share <= bound else "OVER BOUND")
                print(f"  {name:<22} median {middle:12.4f} {metric['unit']:<5}"
                      f" spread {share:6.3f} bound {bound:.2f} {flag}")
        for name in EXACT:
            if args.trace and len(set(values[name])) > 1:
                ok = False
                print(f"  ! {name} differs between runs: {values[name]}")
        if len(sims) > 1:
            ok = False
            print(f"  ! SimClock per attest differs between runs: {sims}")
        elif sims:
            print(f"  {sims.pop().strip()} on every run")
        summary[workload] = entry
    if args.record:
        from run import _import_library

        _, host = _import_library()
        path = os.path.join(HERE, "trajectory.json")
        history = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                history = json.load(handle)
        history.append({"label": args.label, "host": host,
                        "runs": args.runs,
                        "trace": args.trace,
                        "seconds": args.seconds or spec["run_seconds"],
                        "workloads": summary})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(history, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
