#!/usr/bin/env python3
"""Benchmark of the nonstat_dyn toolkit.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run_bench.py --smoke

Run from anywhere; the checkout root is the parent of this directory and the
package is imported from its ``src``.  Workloads (see workloads.py and
README.md): sequential, reuse, stationary, cli.

--trace 0 measures end to end.  The run's ops (a number fixed by --seconds
and the workload, so wall time is time to solution) are dealt round-robin to
three fresh processes run one after another; each sets up and then runs its
share.  Spreading the ops over three time windows averages out the host's
drift in speed, and the three set-ups give setup_s as their median.
--trace 1 runs each op untraced and then traced in one process and reports
per-layer numbers.  Every op's output is checked against
its pinned reference.  The last stdout line is the JSON result.

--smoke runs every workload once at tiny sizes, traced and untraced, and
fails unless every metric named in BENCHMARK.json is reported.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sequential", "reuse", "stationary", "cli")
PROCESSES = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def run_worker(spec, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps({"root": ROOT, **spec})],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {spec}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}: "
                         f"{spec}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, size="full"):
    """Run one benchmark run; returns (result line object, report)."""
    deadline = time.monotonic() + DEADLINE_S
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "size": size}
    if trace:
        parts = [run_worker({**spec, "mode": "trace", "part": 0, "parts": 1},
                            deadline)]
    else:
        parts = [run_worker({**spec, "mode": "measure", "part": p,
                             "parts": PROCESSES}, deadline)
                 for p in range(PROCESSES)]
    times = [t for p in parts for t in p["op_times_s"]]
    setups = [p["setup_s"] for p in parts]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    warm_ok = all(p["warmup_ok"] for p in parts)
    keys = [k for p in parts for k in p["keys"]]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "size": size, "keys": keys,
        "op_count": len(keys), "op_times_s": times,
        "setup_times_s": setups, "warmup_ok": warm_ok,
        "failed_frac": failed / attempted if attempted else 0.0,
        "errors": [e for p in parts for e in p["errors"]],
        "env": parts[-1]["env"],
    }
    if trace:
        report["traced_op_times_s"] = parts[0]["traced_op_times_s"]
        report["spans_file"] = parts[0]["spans_file"]
        values = parts[0]["layers"]
    else:
        values = {
            "wall_s": sum(times),
            "op_p50_s": statistics.median(times) if times else 0.0,
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
            "setup_s": statistics.median(setups),
        }
    units = {m["name"]: m["unit"] for group in ("end_to_end", "per_layer")
             for m in benchmark_spec()[group]}
    metrics = {name: {"value": value, "unit": units.get(name, "?")}
               for name, value in values.items()}
    result = {"correct": failed == 0 and warm_ok and attempted > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def print_run(result, report):
    print("report " + json.dumps(report, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {report['failed_frac']:.6g} 1 "
          f"({result['failed']} of {result['attempted']} ops)")
    for err in report["errors"]:
        print(f"reference check failed: {err}", file=sys.stderr)
    print(json.dumps(result))


def smoke():
    spec = benchmark_spec()
    missing = []
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, report = measure(workload, 0, 1, trace, size="tiny")
            names = {m["name"] for m in spec[group]}
            got = set(result["metrics"])
            for name in sorted(names - got):
                missing.append(f"{workload} trace={trace}: {name} missing")
            for name in sorted(got - names):
                missing.append(f"{workload} trace={trace}: {name} not in "
                               "BENCHMARK.json")
            if not result["correct"]:
                missing.append(f"{workload} trace={trace}: incorrect "
                               f"{report['errors']}")
            print(f"smoke {workload} trace={trace}: "
                  f"{len(got)} metrics, correct={result['correct']}")
    for line in missing:
        print(line, file=sys.stderr)
    return 1 if missing else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nonstat_dyn",
                                       "__init__.py")):
        print(f"no nonstat_dyn package under {ROOT}/src", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result, report = measure(args.workload, args.seed, args.seconds,
                                 args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_run(result, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
