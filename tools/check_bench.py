#!/usr/bin/env python3
"""Compare a perf_suite run report against a committed baseline.

usage: check_bench.py --baseline BENCH_perf.json --current report.json
                      [--tolerance 0.25]

Directional comparison of the perf.* metric family:

  * throughput gauges (``*_per_sec``) must not fall below
    baseline * (1 - tolerance);
  * cost gauges (``*allocs_per_event``, ``*ns_per_event*``) must not rise
    above baseline * (1 + tolerance), with a small absolute floor so a
    zero-allocation baseline does not make any nonzero value an infinite
    regression;
  * the workload-shape counters (``perf.events``, ``perf.sends``, and the
    per-phase variants) must match the baseline EXACTLY — the suite's
    workloads are deterministic, so a drifted count means the comparison is
    between different workloads and the rate columns are meaningless.

The ``perf.parallel.*`` and ``perf.forest.*`` gauges are machine-dependent
(they measure how the run engine / the sharded forest runtime scale across
*this host's* cores), so they are excluded from the cross-machine baseline
diff.  Instead they are checked within the current report alone:

  * ``events_per_sec_jN`` for 1 < N <= ``hw_threads`` must not fall below
    the jobs=1 figure by more than the tolerance (parallelism must never
    cost throughput where the cores exist to back it; oversubscribed
    batches on smaller hosts are informational only);
  * with ``--parallel-speedup-min X``, ``perf.parallel.speedup_j4`` must
    reach X — enforced only when ``perf.parallel.hw_threads`` >= 4, since
    a speedup target is meaningless on fewer cores than workers;
  * with ``--forest-speedup-min X``, ``perf.forest.speedup.s4`` must reach
    X under the same >= 4 hardware-threads condition (EXP19's acceptance
    bar);
  * ``perf.forest.allocs_per_event`` must stay at ~0 (the absolute allocs
    floor): the steady-state shard loop is allocation-free by design on
    every machine, so this one is NOT tolerance-scaled against a baseline.
    A report that has ``forest.requests.total`` but lacks the gauge fails:
    the forest run stopped before its allocation phase.

The ``perf.parallel.events``/``.runs`` counters stay in the exact-match
set, and so do the deterministic ``forest.*`` workload counters (request
totals, op mix, outcome split): batches and forest workloads are
deterministic, so those never drift.

``--family PREFIX[,PREFIX...]`` restricts the whole comparison to metric
names under any of the prefixes (e.g. ``--family perf.forest.,forest.``)
so a report produced by a single bench (exp19) can be diffed against the
merged full-suite baseline without every other family reporting as
missing — and, symmetrically, so the suite-only compare can pass
``--family perf.`` to ignore the baseline's forest counters.

Improvements (faster, fewer allocations) always pass; the expectation is
that a genuine speedup is followed by re-committing the baseline.  Exits
nonzero listing every violation.  Used by the CI perf-smoke job.
"""

import argparse
import json
import sys

# Absolute slack added to cost comparisons: allows a baseline of exactly 0
# allocs/event to tolerate measurement jitter (e.g. a one-off lazy init
# landing inside the timed region) without passing real per-event leaks.
ABS_COST_FLOOR = {
    "allocs_per_event": 0.01,   # allocations per event
    "ns_per_event": 150.0,      # nanoseconds; scheduler noise moves p99 by
                                # O(100ns) between runs on a busy host
}


# Counter families in the exact-match set: perf_suite's workload shape and
# the forest runtime's deterministic request accounting.
COUNTER_PREFIXES = ("perf.", "forest.")


def load(path: str, family=None) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: {path}: {e}", file=sys.stderr)
        sys.exit(2)
    metrics = report.get("metrics", {})
    family_prefixes = tuple(family.split(",")) if family else None

    def keep(name: str, prefixes) -> bool:
        if not name.startswith(prefixes):
            return False
        return family_prefixes is None or name.startswith(family_prefixes)

    return {
        "counters": {k: v for k, v in metrics.get("counters", {}).items()
                     if keep(k, COUNTER_PREFIXES)},
        "gauges": {k: v for k, v in metrics.get("gauges", {}).items()
                   if keep(k, "perf.")},
    }


def cost_floor(name: str) -> float:
    for key, slack in ABS_COST_FLOOR.items():
        if key in name:
            return slack
    return 0.0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--tolerance", type=float, default=0.25)
    ap.add_argument("--parallel-speedup-min", type=float, default=None,
                    help="require perf.parallel.speedup_j4 >= this value "
                         "when the current host has >= 4 hardware threads")
    ap.add_argument("--forest-speedup-min", type=float, default=None,
                    help="require perf.forest.speedup.s4 >= this value "
                         "when the current host has >= 4 hardware threads")
    ap.add_argument("--forest-mem-reduction-min", type=float, default=None,
                    help="require perf.forest.mem_reduction (eager bytes/"
                         "tree over lazy bytes/tree) >= this value")
    ap.add_argument("--forest-bytes-per-tree-max", type=float, default=None,
                    help="require perf.forest.bytes_per_tree (lazy engine, "
                         "post-run accounting bytes / trees) <= this value")
    ap.add_argument("--forest-startup-ratio-max", type=float, default=None,
                    help="require perf.forest.startup_ratio (lazy startup "
                         "seconds over eager startup seconds) <= this value")
    ap.add_argument("--family", default=None,
                    help="restrict the comparison to metric names under "
                         "these comma-separated prefixes "
                         "(e.g. perf.forest.,forest.)")
    args = ap.parse_args()

    base = load(args.baseline, args.family)
    cur = load(args.current, args.family)
    if not base["gauges"]:
        scope = f" under {args.family}" if args.family else ""
        print(f"check_bench: {args.baseline} has no perf.* gauges{scope}",
              file=sys.stderr)
        sys.exit(2)

    errors = []
    checked = 0

    # Workload shape: exact match (deterministic suite).
    for name, expected in sorted(base["counters"].items()):
        actual = cur["counters"].get(name)
        if actual is None:
            errors.append(f"counter {name} missing from current report")
        elif actual != expected:
            errors.append(f"counter {name}: {actual} != baseline {expected} "
                          f"(workload drifted; rates are not comparable)")
        else:
            checked += 1

    tol = args.tolerance
    for name, expected in sorted(base["gauges"].items()):
        if name.startswith(("perf.parallel.", "perf.forest.", "perf.mem.")):
            continue  # machine- or knob-dependent; checked within the
            # current report (check_report.py validates the perf.mem.*
            # family's internal consistency; its values follow
            # --resident-trees and the host's allocator)
        actual = cur["gauges"].get(name)
        if actual is None:
            errors.append(f"gauge {name} missing from current report")
            continue
        if name.endswith("_per_sec"):
            limit = expected * (1.0 - tol)
            if actual < limit:
                errors.append(
                    f"{name}: {actual:.0f} < {limit:.0f} "
                    f"(baseline {expected:.0f} - {tol:.0%}): regression")
            else:
                checked += 1
        else:  # cost metric: lower is better
            limit = expected * (1.0 + tol) + cost_floor(name)
            if actual > limit:
                errors.append(
                    f"{name}: {actual:.3f} > {limit:.3f} "
                    f"(baseline {expected:.3f} + {tol:.0%}): regression")
            else:
                checked += 1

    # Parallel-scaling family: within-report checks only (see module doc).
    j1 = cur["gauges"].get("perf.parallel.events_per_sec_j1")
    if j1 is not None and j1 > 0:
        hw = cur["gauges"].get("perf.parallel.hw_threads", 1.0)
        for name, actual in sorted(cur["gauges"].items()):
            if (name.startswith("perf.parallel.events_per_sec_j")
                    and not name.endswith("_j1")):
                n_jobs = float(name.rsplit("_j", 1)[1])
                if n_jobs > hw:
                    continue  # oversubscribed batch: informational only
                limit = j1 * (1.0 - tol)
                if actual < limit:
                    errors.append(
                        f"{name}: {actual:.0f} < {limit:.0f} "
                        f"(jobs=1 {j1:.0f} - {tol:.0%}): parallel execution "
                        f"costs throughput")
                else:
                    checked += 1
        if args.parallel_speedup_min is not None:
            hw = cur["gauges"].get("perf.parallel.hw_threads", 0.0)
            speedup = cur["gauges"].get("perf.parallel.speedup_j4")
            if hw >= 4.0:
                if speedup is None:
                    errors.append("perf.parallel.speedup_j4 missing")
                elif speedup < args.parallel_speedup_min:
                    errors.append(
                        f"perf.parallel.speedup_j4: {speedup:.2f} < "
                        f"{args.parallel_speedup_min:.2f} on a "
                        f"{hw:.0f}-thread host: parallel scaling regression")
                else:
                    checked += 1
            else:
                print(f"check_bench: skipping --parallel-speedup-min "
                      f"({hw:.0f} hardware threads < 4)")
    elif args.parallel_speedup_min is not None:
        errors.append("perf.parallel.events_per_sec_j1 missing but "
                      "--parallel-speedup-min was requested")

    # Forest-scaling family: within-report checks (see module doc).
    forest_allocs = cur["gauges"].get("perf.forest.allocs_per_event")
    if forest_allocs is not None:
        limit = ABS_COST_FLOOR["allocs_per_event"]
        if forest_allocs > limit:
            errors.append(
                f"perf.forest.allocs_per_event: {forest_allocs:.4f} > "
                f"{limit:.2f}: the steady-state shard loop must not "
                f"allocate per event (on any machine)")
        else:
            checked += 1
    elif "forest.requests.total" in cur["counters"]:
        errors.append(
            "perf.forest.allocs_per_event missing from a report with "
            "forest.requests.total: the forest run stopped before its "
            "allocation phase")
    if args.forest_speedup_min is not None:
        hw = cur["gauges"].get("perf.forest.hw_threads", 0.0)
        speedup = cur["gauges"].get("perf.forest.speedup.s4")
        if hw >= 4.0:
            if speedup is None:
                errors.append("perf.forest.speedup.s4 missing but "
                              "--forest-speedup-min was requested")
            elif speedup < args.forest_speedup_min:
                errors.append(
                    f"perf.forest.speedup.s4: {speedup:.2f} < "
                    f"{args.forest_speedup_min:.2f} on a {hw:.0f}-thread "
                    f"host: forest scaling regression")
            else:
                checked += 1
        else:
            print(f"check_bench: skipping --forest-speedup-min "
                  f"({hw:.0f} hardware threads < 4)")

    # Forest memory model: within-report gates on EXP19's memory phase.
    # Machine-local like the speedups (capacity accounting + wall clock),
    # but the *ratios* hold on any host, so CI pins them at scale.
    mem_gates = [
        ("perf.forest.mem_reduction", args.forest_mem_reduction_min, ">=",
         "lazy+hibernated engine must keep its memory advantage over the "
         "eager build"),
        ("perf.forest.bytes_per_tree", args.forest_bytes_per_tree_max, "<=",
         "per-tree footprint regression in the lazy engine"),
        ("perf.forest.startup_ratio", args.forest_startup_ratio_max, "<=",
         "lazy startup must stay far below the eager build"),
    ]
    for name, bound, op, why in mem_gates:
        if bound is None:
            continue
        actual = cur["gauges"].get(name)
        if actual is None:
            errors.append(f"{name} missing but its gate was requested")
        elif (actual < bound) if op == ">=" else (actual > bound):
            errors.append(f"{name}: {actual:.2f} not {op} {bound:.2f}: {why}")
        else:
            checked += 1

    if errors:
        for e in errors:
            print(f"check_bench: {e}", file=sys.stderr)
        print(f"check_bench: {len(errors)} regression(s) vs {args.baseline} "
              f"(tolerance {tol:.0%})", file=sys.stderr)
        sys.exit(1)

    ev = cur["gauges"].get("perf.events_per_sec", 0.0)
    base_ev = base["gauges"].get("perf.events_per_sec", 0.0)
    if base_ev:
        print(f"check_bench: {checked} metrics within {tol:.0%} of "
              f"{args.baseline} (headline {ev:.0f} events/sec, "
              f"{ev / base_ev:.2f}x baseline)")
    else:
        print(f"check_bench: {checked} metrics within {tol:.0%} of "
              f"{args.baseline}")


if __name__ == "__main__":
    main()
