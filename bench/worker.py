"""One fresh benchmark process.

Usage: python3 bench/worker.py '<json spec>'

The spec names the checkout root, workload, seed, run seconds, size set, the
share of the run's ops to run (every ``parts``-th op from ``part``) and a
mode: "measure" runs the ops untraced, and "trace" runs each op untraced and
then traced on the same input.  Set-up is
import, family construction, reference densities and one untimed warm-up op
(the first dense solve in a process costs several times a later one).  The
last stdout line is a JSON object with the timings, counts and environment.
"""
import json
import os
import resource
import shutil
import sys
import time

START = time.perf_counter()


def _git_sha(root):
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def _blas_threads():
    """OpenBLAS thread counts of the BLAS libraries loaded in this process."""
    import ctypes
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _cache_sizes():
    sizes = {}
    for level in (2, 3):
        path = f"/sys/devices/system/cpu/cpu0/cache/index{level}/size"
        if os.path.isfile(path):
            with open(path) as fh:
                sizes[f"L{level}"] = fh.read().strip()
    return sizes


def environment(root, seed):
    import hashlib
    import platform

    import numpy as np
    import scipy

    src = os.path.join(root, "src", "nonstat_dyn")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = _blas_threads()
    nproc = len(os.sched_getaffinity(0))
    return {
        "git_sha": _git_sha(root),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_within_nproc": all(t <= nproc for t in threads.values()),
        "nproc": nproc,
        "caches": _cache_sizes(),
        "seed": seed,
    }


def main():
    spec = json.loads(sys.argv[1])
    root = spec["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads
    import tracing

    wl = workloads.WORKLOADS[spec["workload"]]
    size = workloads.SIZES[spec["size"]][wl.name]
    refs = workloads.load_references()[spec["size"]][wl.name]
    full = spec["size"] == "full"
    warm, keys = wl.choose_keys(
        spec["seed"], wl.n_ops(spec["seconds"]) if full else 1)
    keys = keys[spec["part"]::spec["parts"]]
    workdir = os.path.join(root, ".bench_work", f"worker-{os.getpid()}")
    errors = []

    def run_checked(key):
        """Run one op; returns (seconds or None, failed)."""
        try:
            t0 = time.perf_counter()
            result = wl.op(ctx, key)
            seconds = time.perf_counter() - t0
            problems = wl.check(wl.summarize(ctx, key, result),
                                refs[str(key)], full)
        except Exception as exc:  # an op that raises counts as failed
            errors.append(f"key {key}: {type(exc).__name__}: {exc}")
            return None, True
        errors.extend(f"key {key}: {p}" for p in problems)
        return seconds, bool(problems)

    ctx = wl.setup(size, [warm] + keys, workdir)
    _, warm_failed = run_checked(warm)
    out = {"setup_s": time.perf_counter() - START, "warmup_ok": not warm_failed}
    times, traced_times, failed = [], [], 0
    tracer = tracing.Tracer()
    for key in keys:
        seconds, bad = run_checked(key)
        failed += bad
        if seconds is not None:
            times.append(seconds)
        if spec["mode"] == "trace":
            tracer.install()
            try:
                seconds, bad = run_checked(key)
            finally:
                tracer.uninstall()
            failed += bad
            if seconds is not None:
                traced_times.append(seconds)
    out.update({
        "keys": keys, "op_times_s": times,
        "attempted": len(keys) * (2 if spec["mode"] == "trace" else 1),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(root, spec["seed"]),
    })
    if spec["mode"] == "trace":
        out["traced_op_times_s"] = traced_times
        out["layers"] = tracing.layer_metrics(
            tracer, sum(traced_times), sum(times))
        os.makedirs(os.path.dirname(workdir), exist_ok=True)
        spans = os.path.join(os.path.dirname(workdir),
                             f"spans-{wl.name}-seed{spec['seed']}.json")
        tracer.dump(spans)
        out["spans_file"] = os.path.relpath(spans, root)
    out["errors"] = errors
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
