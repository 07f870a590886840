#!/usr/bin/env python3
"""Host-time benchmark of the controller stack.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the harness from source with optimisation and NDEBUG
(CMake, into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench),
runs one workload for the given host time, checks its outputs, and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes the run's spans to <build dir>/spans/).  Build output and a readable
summary go to stderr.  perfbench/manifest.json describes the workloads,
metrics and layer mapping.

On the seed recorded for a workload in perfbench/fingerprints.json the
simulated-statistics fingerprint must equal the recorded one; on any other
seed the harness still requires it to be identical in every repetition.
--record stores the fingerprint of this run's seed instead of checking it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ("forest-hot", "forest-cold", "dist-churn", "dist-faulty")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(root):
        root = os.path.join(ROOT, root)
    return os.path.join(root, "perfbench")


def build(bdir):
    """Configure (once) and build; returns the harness path or None."""
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    exe = os.path.join(bdir, "perfbench")
    return exe if os.path.isfile(exe) else None


def load_fingerprints():
    try:
        with open(FINGERPRINTS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--record", action="store_true",
                    help="record this seed's fingerprint instead of checking")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        log("perfbench: build failed")
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans_dir = os.path.join(bdir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.csv" % (args.workload, args.seed))]
    # Transparent huge pages for the harness's heap: with 4 KiB pages the
    # per-repetition working sets (up to ~130 MiB) made throughput swing
    # with where the pages landed; huge pages made runs steadier.
    env = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.hugetlb=1")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: harness exited with %d" % proc.returncode)
        return 1
    out = json.loads(lines[-1])

    failed = out["failed"]
    checks = list(out["failed_checks"])
    fps = load_fingerprints()
    if args.record:
        fps[args.workload] = {"seed": args.seed,
                              "fingerprint": out["fingerprint"]}
        with open(FINGERPRINTS, "w") as f:
            json.dump(fps, f, indent=2, sort_keys=True)
            f.write("\n")
        log("perfbench: recorded the %s fingerprint for seed %d"
            % (args.workload, args.seed))
    else:
        rec = fps.get(args.workload)
        if rec is not None and rec["seed"] == args.seed and \
                rec["fingerprint"] != out["fingerprint"]:
            failed += 1
            checks.append("fingerprint equals the one recorded for seed %d"
                          % args.seed)

    log("perfbench: %s seed %d, %d repetitions, %d requests, %d failed"
        % (args.workload, args.seed, out["reps"], out["attempted"], failed))
    for name, m in list(out["metrics"].items()) + list(out["info"].items()):
        log("  %-46s %16.6g %s" % (name, m["value"], m["unit"]))
    for c in checks:
        log("  FAILED CHECK: %s" % c)

    print(json.dumps({"correct": failed == 0, "attempted": out["attempted"],
                      "failed": failed, "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
