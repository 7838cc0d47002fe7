#!/usr/bin/env python3
"""Regenerate references.json: the output summary of every pool key of every
workload, at both size sets.

    python3 bench/pin_references.py

Run it only at a commit whose numbers are trusted; the benchmark's reference
checks compare every later commit against these values.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    pinned = {}
    for size_name, sizes in workloads.SIZES.items():
        pinned[size_name] = {}
        for name, wl in workloads.WORKLOADS.items():
            keys = list(range(wl.pool_size))
            workdir = os.path.join(os.path.dirname(HERE), ".bench_work", "pin")
            ctx = wl.setup(sizes[name], keys, workdir)
            refs = {}
            for key in keys:
                refs[str(key)] = wl.summarize(ctx, key, wl.op(ctx, key))
                problems = wl.check(refs[str(key)], refs[str(key)],
                                    size_name == "full")
                if problems:
                    raise SystemExit(f"{size_name} {name} key {key}: {problems}")
            pinned[size_name][name] = refs
            print(f"pinned {size_name} {name}: {len(keys)} keys", flush=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
