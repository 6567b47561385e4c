#!/usr/bin/env python3
"""Repository benchmark: build the driver from source, run one workload,
print every metric by name with its unit, then one JSON result line.

    python3 perfbench/run.py --workload checked_fine --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (a separate traced run). Exits 1 when any correctness
check failed, 2 when the benchmark could not build or run. See
perfbench/METRICS.md for the catalog and the workloads.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("coarse_dataflow", "serve_open", "checked_fine")
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build_driver(out_dir):
    """Configure once, then (re)build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "runtime.h")):
        fail("no TFlux sources next to perfbench/ (expected src/runtime)")
    cache = os.path.join(out_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured from another checkout cannot be reused.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.isfile(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out_dir] + generator)
    steps.append(["cmake", "--build", out_dir, "-j", "3",
                  "--target", "perfbench_driver"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(out_dir, "perfbench_driver")


def load_average():
    with open("/proc/loadavg") as f:
        return [float(v) for v in f.read().split()[:3]]


def source_commit():
    """git commit when the checkout is a git work tree, else 'unknown'."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """sha256 over the measured sources (src/ and perfbench/)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    driver = build_driver(out_dir)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    command = [driver, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    spans_path = None
    if args.trace:
        os.makedirs(os.path.join(out_dir, "spans"), exist_ok=True)
        spans_path = os.path.join(out_dir, "spans", tag + ".json")
        command += ["--spans", spans_path]

    load_before = load_average()
    wall0 = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    wall = time.monotonic() - wall0
    load_after = load_average()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("driver exited %d without a result" % proc.returncode)
    result = json.loads(lines[-1])

    # The driver's metric set must be exactly the one BENCHMARK.json
    # declares for this mode, unit for unit.
    declared = {m["name"]: m["unit"] for m in declared_metrics(args.trace)}
    produced = {k: v["unit"] for k, v in result["metrics"].items()}
    if declared != produced:
        missing = sorted(set(declared) - set(produced))
        extra = sorted(set(produced) - set(declared))
        units = sorted(k for k in set(declared) & set(produced)
                       if declared[k] != produced[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, units))

    provenance = dict(result["provenance"])
    nproc = len(os.sched_getaffinity(0))
    provenance.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "git_commit": source_commit(),
        "source_digest": source_digest(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "driver_wall_s": round(wall, 3),
    })
    if spans_path:
        provenance["spans_file"] = os.path.relpath(spans_path, ROOT)

    print("perfbench %s (seed %d, %g s, trace %d)" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if provenance["host_loaded"]:
        print("WARNING: host was loaded beyond the benchmark's limit "
              "(%.2f foreign CPUs busy, %d of %d chunks loaded); this run "
              "is marked host_loaded" % (provenance["foreign_cpu"],
                                         provenance["loaded_chunks"],
                                         provenance["chunks"]))
    for name, metric in result["metrics"].items():
        print("  %-34s %18.6f %s" % (name, metric["value"], metric["unit"]))
    for failure in result.get("failures", []):
        print("FAILED: " + failure)
    print("  %-34s %18.6f %s" % ("failed_frac",
                                 result["failed"] / result["attempted"],
                                 "ratio"))

    full = dict(result, provenance=provenance)
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    with open(os.path.join(out_dir, "results", tag + ".json"), "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)

    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
