#!/usr/bin/env python3
"""Validate a run-report JSON written via --metrics-out.

usage: check_report.py <report.json> [counter ...]

Checks the fixed schema (every key of obs::RunReport is always present) and,
for each counter named on the command line, that it exists and is nonzero.
Also cross-validates the fault/reliability metric families whenever they
appear (a report must not claim retransmissions on a loss-free transport,
nor more watchdog completions than arms), the crash.* / recovery.* families
written by the crash/restart adversary (restarts bounded by crashes, journal
replays by restarts, surfaced failures by killed agents — plus exp21's
per-point permit accounting), the perf.* family written by
bench/perf_suite (rates positive, percentiles ordered, per-phase event
counts summing to the total), the perf.parallel.* scaling family (speedup
gauge consistent with the per-jobs throughputs), the forest.* /
perf.forest.* family written by the sharded forest runtime and
bench/exp19_forest_scaling (outcome and op-mix counters partitioning the
request total, speedups consistent with the per-shard-count rates, serial
and shard-idle shares within [0, 1]), and —
when the exp17
per-rate gauges are present — that the measured reliability overhead is
monotone in the drop rate.  The causal-observability sections added with
the span subsystem are validated too: req.latency.* histogram counts must
partition forest.requests.total with ordered percentile gauges, the
"timeline" flight-recorder section must hold well-formed monotone rows, and
the "spans" section must be internally consistent (conserved ring counts,
non-negative durations, resolvable parents).  Exits nonzero with a message
on the first violation; prints a one-line summary on success.  Used by the
CI metrics-smoke and chaos-smoke jobs.
"""

import json
import sys

REQUIRED_KEYS = ("name", "params", "metrics", "histograms", "net_stats",
                 "spans", "timeline", "wall_time_sec")


FAULT_FAMILIES = ("faults.", "channel.", "watchdog.", "crash.", "recovery.")


def fail(msg: str) -> None:
    print(f"check_report: {msg}", file=sys.stderr)
    sys.exit(1)


def check_fault_families(path: str, counters: dict) -> None:
    """Consistency of the faults.* / channel.* / watchdog.* counters."""
    for name, value in counters.items():
        if not name.startswith(FAULT_FAMILIES):
            continue
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter '{name}' = {value!r} is not a "
                 f"non-negative integer")

    get = lambda name: counters.get(name, 0)
    # A retransmission only ever happens because an ack did not come back
    # in time, which on this simulator requires a lost transmission — either
    # a fault-injected drop or a frame eaten by a crashed endpoint.
    if (get("channel.retransmits") > 0 and get("faults.injected.drop") == 0
            and get("crash.drops") == 0):
        fail(f"{path}: channel.retransmits = "
             f"{get('channel.retransmits')} but faults.injected.drop = 0 "
             f"and crash.drops = 0 "
             f"(retransmissions on a loss-free transport)")
    # Every suppressed duplicate is either a fault-injected copy or a
    # retransmission of a frame that already arrived.
    if (get("channel.duplicates_suppressed") >
            get("faults.injected.duplicate") + get("channel.retransmits")):
        fail(f"{path}: channel.duplicates_suppressed exceeds injected "
             f"duplicates + retransmits")
    if get("watchdog.completed") > get("watchdog.armed"):
        fail(f"{path}: watchdog.completed > watchdog.armed")


def check_crash_family(path: str, counters: dict, gauges: dict,
                       params: dict) -> None:
    """Consistency of the crash.* / recovery.* families written by the
    crash/restart adversary (sim/crash) and the recovery machinery
    (PROTOCOL.md §9): every restart follows a crash, every journal replay
    follows a restart, every surfaced request failure names a killed agent,
    and — when the exp21.point.* gauges are present — per-point permit
    accounting (granted + safety_margin == M), crash-free baselines staying
    crash-free, durable cells staying kill- and redrive-free, and ordered
    recovery-latency percentiles."""
    get = lambda name: counters.get(name, 0)
    if get("crash.node_restarts") > get("crash.node_crashes"):
        fail(f"{path}: crash.node_restarts = {get('crash.node_restarts')} "
             f"exceeds crash.node_crashes = {get('crash.node_crashes')} "
             f"(a restart without a crash)")
    if get("recovery.boards_restored") > get("crash.node_restarts"):
        fail(f"{path}: recovery.boards_restored = "
             f"{get('recovery.boards_restored')} exceeds "
             f"crash.node_restarts = {get('crash.node_restarts')} "
             f"(a journal replay without a restart)")
    if get("crash.requests_failed") > get("crash.agents_killed"):
        fail(f"{path}: crash.requests_failed = "
             f"{get('crash.requests_failed')} exceeds crash.agents_killed = "
             f"{get('crash.agents_killed')} (a surfaced failure without a "
             f"killed agent)")
    if get("crash.holders_doomed") > get("crash.agents_killed"):
        fail(f"{path}: crash.holders_doomed = "
             f"{get('crash.holders_doomed')} exceeds crash.agents_killed = "
             f"{get('crash.agents_killed')} (a doomed holder the release "
             f"wave never collected)")

    # exp21's per-point gauges, when present, pin the permit accounting.
    m = params.get("M")
    points = 0
    while f"exp21.point.{points}.crash_fraction" in gauges:
        p = lambda field: gauges.get(f"exp21.point.{points}.{field}", 0)
        if isinstance(m, int) and p("granted") + p("safety_margin") != m:
            fail(f"{path}: exp21 point {points}: granted "
                 f"{p('granted'):.0f} + margin {p('safety_margin'):.0f} "
                 f"!= M = {m}")
        if p("crash_fraction") == 0 and p("crashes") != 0:
            fail(f"{path}: exp21 point {points}: crash-free baseline "
                 f"reports {p('crashes'):.0f} crashes")
        if p("crashes") == 0 and (p("agents_killed") != 0
                                  or p("boards_restored") != 0):
            fail(f"{path}: exp21 point {points}: recovery work without a "
                 f"single crash")
        if p("durable") == 1 and (p("agents_killed") != 0
                                  or p("redrives") != 0):
            fail(f"{path}: exp21 point {points}: durable boards must not "
                 f"kill agents or redrive requests")
        if not (p("latency.p50") <= p("latency.p95") <= p("latency.p99")):
            fail(f"{path}: exp21 point {points}: recovery-latency "
                 f"percentiles not ordered")
        points += 1
    if get("crash.node_crashes") or points:
        print(f"check_report: crash/recovery family ok "
              f"({get('crash.node_crashes')} crashes, "
              f"{get('crash.node_restarts')} restarts, "
              f"{get('recovery.boards_restored')} boards restored"
              + (f", {points} exp21 points" if points else "") + ")")


def check_perf_family(path: str, counters: dict, gauges: dict) -> None:
    """Consistency of the perf.* family written by bench/perf_suite: rates
    and percentiles must be positive finite numbers, per-phase event counts
    must sum to the total, and the headline gauges must agree in sign with
    the phase gauges they are derived from."""
    perf_counters = {k: v for k, v in counters.items() if k.startswith("perf.")}
    perf_gauges = {k: v for k, v in gauges.items() if k.startswith("perf.")}
    if not perf_counters and not perf_gauges:
        return  # not a perf report
    for name, value in perf_counters.items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter '{name}' = {value!r} is not a "
                 f"non-negative integer")
    for name, value in perf_gauges.items():
        if not isinstance(value, (int, float)) or value != value or value < 0:
            fail(f"{path}: gauge '{name}' = {value!r} is not a "
                 f"non-negative number")
    # The perf_suite headline gauges are only required when the report IS a
    # perf_suite report — one whose perf.* family extends beyond the
    # self-contained perf.parallel. / perf.forest. / perf.mem. scaling and
    # memory sub-families (exp19 writes perf.forest.* and perf.mem.* alone).
    suite_gauges = {k for k in perf_gauges
                    if not k.startswith(("perf.parallel.", "perf.forest.",
                                         "perf.mem."))}
    if suite_gauges:
        for required in ("perf.events_per_sec", "perf.allocs_per_event",
                         "perf.ns_per_event_p50", "perf.ns_per_event_p99"):
            if required not in perf_gauges:
                fail(f"{path}: perf report lacks gauge '{required}'")
        if perf_gauges["perf.events_per_sec"] <= 0:
            fail(f"{path}: perf.events_per_sec is not positive")
        if (perf_gauges["perf.ns_per_event_p99"] <
                perf_gauges["perf.ns_per_event_p50"]):
            fail(f"{path}: perf percentiles inverted (p99 < p50)")
        phase_events = sum(v for k, v in perf_counters.items()
                           if k.endswith(".events") and k != "perf.events"
                           and not k.startswith("perf.parallel."))
        total = perf_counters.get("perf.events", 0)
        if phase_events and total and phase_events != total:
            fail(f"{path}: per-phase perf.<phase>.events sum to "
                 f"{phase_events} but perf.events = {total}")
    check_parallel_family(path, perf_counters, perf_gauges)
    if suite_gauges:
        print(f"check_report: perf family ok "
              f"({perf_gauges['perf.events_per_sec']:.0f} events/sec, "
              f"{perf_gauges['perf.allocs_per_event']:.3f} allocs/event)")


def check_parallel_family(path: str, counters: dict, gauges: dict) -> None:
    """Consistency of the perf.parallel.* family (parallel run-engine
    scaling phase): the jobs=1 throughput must be positive, the published
    speedup must equal the j4/j1 gauge ratio, and the batch counters must
    be positive integers.  (The parallel phase's events/sec gauges are
    intentionally absent from the cross-machine baseline comparison —
    check_bench.py gates them within a single report.)"""
    par_gauges = {k: v for k, v in gauges.items()
                  if k.startswith("perf.parallel.")}
    if not par_gauges:
        return  # older report without the parallel phase
    j1 = par_gauges.get("perf.parallel.events_per_sec_j1", 0.0)
    if j1 <= 0:
        fail(f"{path}: perf.parallel.events_per_sec_j1 is not positive")
    j4 = par_gauges.get("perf.parallel.events_per_sec_j4")
    speedup = par_gauges.get("perf.parallel.speedup_j4")
    if j4 is not None and speedup is not None:
        derived = j4 / j1
        if abs(speedup - derived) > 1e-6 * max(1.0, derived):
            fail(f"{path}: perf.parallel.speedup_j4 = {speedup:.6f} but "
                 f"j4/j1 = {derived:.6f}")
    if par_gauges.get("perf.parallel.hw_threads", 0.0) < 1.0:
        fail(f"{path}: perf.parallel.hw_threads below 1")
    for name in ("perf.parallel.events", "perf.parallel.runs"):
        value = counters.get(name)
        if not isinstance(value, int) or value <= 0:
            fail(f"{path}: counter '{name}' = {value!r} is not a "
                 f"positive integer")


def check_forest_family(path: str, counters: dict, gauges: dict) -> None:
    """Consistency of the forest.* counters and perf.forest.* gauges
    written by the sharded forest runtime / bench/exp19_forest_scaling:
    outcome and op-mix counters must partition the request total, the
    published speedups must equal the per-shard-count throughput ratios,
    the per-shard-count request rates must all be positive, and the
    serial_share / shard_idle_share gauges must lie in [0, 1].  (The
    perf.forest.* rates are machine-local — check_bench.py excludes them
    from the cross-machine baseline diff and gates the speedup within a
    single report.)"""
    total = counters.get("forest.requests.total")
    if total is not None:
        outcomes = (counters.get("forest.requests.granted", 0)
                    + counters.get("forest.requests.rejected", 0)
                    + counters.get("forest.requests.other", 0))
        if outcomes != total:
            fail(f"{path}: forest outcome counters sum to {outcomes} but "
                 f"forest.requests.total = {total}")
        ops = (counters.get("forest.ops.permit", 0)
               + counters.get("forest.ops.grow", 0)
               + counters.get("forest.ops.shrink", 0)
               + counters.get("forest.ops.destroy", 0))
        if ops != total:
            fail(f"{path}: forest op-mix counters sum to {ops} but "
                 f"forest.requests.total = {total}")
        if counters.get("forest.ops.shrink_noop", 0) > counters.get(
                "forest.ops.shrink", 0):
            fail(f"{path}: forest.ops.shrink_noop exceeds forest.ops.shrink")
        if counters.get("forest.ops.grow_capped", 0) > counters.get(
                "forest.ops.grow", 0):
            fail(f"{path}: forest.ops.grow_capped exceeds forest.ops.grow")

    rates = {k: v for k, v in gauges.items()
             if k.startswith("perf.forest.requests_per_sec.s")}
    if not rates:
        return
    for name, value in rates.items():
        if value <= 0:
            fail(f"{path}: gauge '{name}' is not positive")
    s1 = rates.get("perf.forest.requests_per_sec.s1")
    if s1 is None:
        fail(f"{path}: perf.forest rates present without the s1 reference")
    for name, rate in rates.items():
        k = name.rsplit(".s", 1)[1]
        speedup = gauges.get(f"perf.forest.speedup.s{k}")
        if speedup is None:
            fail(f"{path}: perf.forest.speedup.s{k} missing")
        derived = rate / s1
        if abs(speedup - derived) > 1e-6 * max(1.0, derived):
            fail(f"{path}: perf.forest.speedup.s{k} = {speedup:.6f} but "
                 f"s{k}/s1 = {derived:.6f}")
    # Window wall-time split: shares of a whole, so within [0, 1].
    for name, value in sorted(gauges.items()):
        if name.startswith(("perf.forest.serial_share.s",
                            "perf.forest.shard_idle_share.s")):
            if not 0.0 <= value <= 1.0:
                fail(f"{path}: gauge '{name}' = {value:.6f} outside [0, 1]")
    if gauges.get("perf.forest.hw_threads", 0.0) < 1.0:
        fail(f"{path}: perf.forest.hw_threads below 1")
    print(f"check_report: forest family ok ({len(rates)} shard counts, "
          f"{gauges.get('perf.forest.allocs_per_event', 0.0):.4f} "
          f"allocs/event)")


def check_mem_family(path: str, gauges: dict) -> None:
    """Consistency of the perf.mem.* gauges written by EXP19's memory
    phase: the tree population must partition by lifecycle state
    (resident + hibernated == materialized, materialized + virgin ==
    trees), hibernated snapshots must carry bytes, and the kernel's peak
    RSS can never sit below the current reading.  Absolute byte values are
    machine-local (check_bench.py excludes the family from baseline
    diffs); only the internal arithmetic is checked here."""
    mem = {k[len("perf.mem."):]: v for k, v in gauges.items()
           if k.startswith("perf.mem.")}
    if not mem:
        return
    def get(name):
        v = mem.get(name)
        if v is None:
            fail(f"{path}: perf.mem.{name} missing from the perf.mem family")
        return v
    trees = get("trees")
    virgin = get("virgin_trees")
    resident = get("resident_trees")
    hibernated = get("hibernated_trees")
    materialized = get("materialized_trees")
    if resident + hibernated != materialized:
        fail(f"{path}: perf.mem tree states do not partition: "
             f"{resident:.0f} resident + {hibernated:.0f} hibernated != "
             f"{materialized:.0f} materialized")
    if materialized + virgin != trees:
        fail(f"{path}: perf.mem tree states do not partition: "
             f"{materialized:.0f} materialized + {virgin:.0f} virgin != "
             f"{trees:.0f} trees")
    if hibernated > 0 and get("image_bytes") <= 0:
        fail(f"{path}: {hibernated:.0f} hibernated trees but "
             f"perf.mem.image_bytes is zero")
    rss = get("rss_bytes")
    peak = get("peak_rss_bytes")
    if rss > 0 and peak > 0 and peak < rss:
        fail(f"{path}: perf.mem.peak_rss_bytes = {peak:.0f} below the "
             f"current rss {rss:.0f}")
    print(f"check_report: mem family ok ({resident:.0f} resident / "
          f"{hibernated:.0f} hibernated / {virgin:.0f} virgin of "
          f"{trees:.0f} trees)")


def check_exp17_monotone(path: str, gauges: dict) -> None:
    """exp17 publishes exp17.rate.<k>.{drop_rate,total_bits,...} gauges;
    the overhead (total bits for the identical workload) must not shrink
    as the drop rate grows."""
    rows = []
    k = 0
    while f"exp17.rate.{k}.drop_rate" in gauges:
        rows.append((gauges[f"exp17.rate.{k}.drop_rate"],
                     gauges.get(f"exp17.rate.{k}.total_bits", 0),
                     gauges.get(f"exp17.rate.{k}.retransmits", 0)))
        k += 1
    if not rows:
        return
    if len(rows) < 2:
        fail(f"{path}: exp17 gauges present but only {len(rows)} rate row")
    for i in range(1, len(rows)):
        if rows[i][0] <= rows[i - 1][0]:
            fail(f"{path}: exp17 drop rates not strictly increasing "
                 f"at row {i}")
        if rows[i][1] < rows[i - 1][1]:
            fail(f"{path}: exp17 overhead not monotone: total_bits fell "
                 f"from {rows[i - 1][1]:.0f} to {rows[i][1]:.0f} as the "
                 f"drop rate rose to {rows[i][0]}")
    if rows[0][0] == 0 and rows[0][2] != 0:
        fail(f"{path}: exp17 rate-0 row reports "
             f"{rows[0][2]:.0f} retransmits (passthrough violated)")
    if rows[-1][1] <= rows[0][1]:
        fail(f"{path}: exp17 overhead flat: faulted run is not more "
             f"expensive than the baseline")
    print(f"check_report: exp17 overhead monotone over {len(rows)} rates "
          f"({rows[0][1]:.0f} -> {rows[-1][1]:.0f} bits)")


def check_latency_family(path: str, counters: dict, gauges: dict,
                         histograms: dict) -> None:
    """Consistency of the req.latency.* family written by the request mux
    (always-on histograms) and bench/exp20_request_latency (percentile
    gauges): the per-op histogram counts must partition the request total,
    and p50 <= p95 <= p99 <= max for every op kind that publishes gauges."""
    lat = {k: v for k, v in histograms.items()
           if k.startswith("req.latency.") and "." not in k[len("req.latency."):]}
    if not lat:
        return
    total = counters.get("forest.requests.total")
    if total is not None:
        observed = sum(h.get("count", 0) for h in lat.values())
        if observed != total:
            fail(f"{path}: req.latency.* histogram counts sum to "
                 f"{observed} but forest.requests.total = {total}")
    for name, hist in lat.items():
        if hist.get("count", 0) and hist.get("max", 0) < hist.get("min", 0):
            fail(f"{path}: histogram '{name}' has max < min")
        p50 = gauges.get(f"{name}.p50")
        p95 = gauges.get(f"{name}.p95")
        p99 = gauges.get(f"{name}.p99")
        if p50 is None and p95 is None and p99 is None:
            continue  # histograms are always-on; gauges only from exp20
        if p50 is None or p95 is None or p99 is None:
            fail(f"{path}: '{name}' percentile gauges incomplete "
                 f"(p50={p50!r} p95={p95!r} p99={p99!r})")
        if not p50 <= p95 <= p99:
            fail(f"{path}: '{name}' percentiles not ordered "
                 f"(p50={p50} p95={p95} p99={p99})")
        if p99 > hist.get("max", 0):
            fail(f"{path}: '{name}' p99 = {p99} exceeds histogram max "
                 f"{hist.get('max', 0)}")
    print(f"check_report: req.latency family ok ({len(lat)} op kinds)")


def check_timeline(path: str, timeline: dict, counters: dict) -> None:
    """Structure of the flight-recorder "timeline" section: [t, v...] rows
    matching the counter-name list, strictly increasing sample times,
    conserved ring counts, and — for sampled names that are cumulative
    counters — columns that never decrease over time."""
    if not timeline:
        return  # section always present; empty when no recorder was wired
    for key in ("period", "capacity", "taken", "overwritten", "counters",
                "rows"):
        if key not in timeline:
            fail(f"{path}: timeline lacks '{key}'")
    names = timeline["counters"]
    rows = timeline["rows"]
    if not isinstance(names, list) or not isinstance(rows, list):
        fail(f"{path}: timeline counters/rows are not arrays")
    if timeline["overwritten"] + len(rows) != timeline["taken"]:
        fail(f"{path}: timeline rows not conserved "
             f"({timeline['overwritten']} overwritten + {len(rows)} kept "
             f"!= {timeline['taken']} taken)")
    prev_t = None
    prev_cells = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(names) + 1:
            fail(f"{path}: timeline row {i} is not [t, v...] over "
                 f"{len(names)} counters")
        t, cells = row[0], row[1:]
        if prev_t is not None and t <= prev_t:
            fail(f"{path}: timeline times not strictly increasing at row {i}")
        for c, (name, cell) in enumerate(zip(names, cells)):
            if not isinstance(cell, (int, float)) or cell < 0:
                fail(f"{path}: timeline row {i} cell '{name}' = {cell!r}")
            if (prev_cells is not None and name in counters
                    and cell < prev_cells[c]):
                fail(f"{path}: timeline column '{name}' decreases at row {i} "
                     f"({prev_cells[c]} -> {cell}) despite being a counter")
        prev_t, prev_cells = t, cells
    print(f"check_report: timeline ok ({len(rows)} rows x {len(names)} "
          f"counters, period {timeline['period']})")


def check_spans(path: str, spans: dict) -> None:
    """Internal consistency of the "spans" section: ring counts conserved,
    non-negative durations, known kinds, and — when nothing was evicted, so
    the record is complete — unique (trace, id) pairs and parents that
    resolve within the same trace and start no later than their children
    ("request" roots must also fully contain them; op parents may end
    before a flood they started finishes)."""
    if not spans:
        return  # section always present; empty when no sink was installed
    for key in ("capacity", "recorded", "overwritten", "events"):
        if key not in spans:
            fail(f"{path}: spans lacks '{key}'")
    events = spans["events"]
    if not isinstance(events, list):
        fail(f"{path}: spans.events is not an array")
    if spans["overwritten"] + len(events) != spans["recorded"]:
        fail(f"{path}: spans not conserved ({spans['overwritten']} "
             f"overwritten + {len(events)} kept != {spans['recorded']} "
             f"recorded)")
    by_id = {}
    for i, s in enumerate(events):
        for key in ("trace", "id", "kind", "begin", "end"):
            if key not in s:
                fail(f"{path}: spans.events[{i}] lacks '{key}'")
        if s["kind"] not in ("request", "op", "hop", "crash", "recovery"):
            fail(f"{path}: spans.events[{i}] has unknown kind "
                 f"'{s['kind']}'")
        if s["end"] < s["begin"]:
            fail(f"{path}: spans.events[{i}] ends before it begins")
        by_id[(s["trace"], s["id"])] = s
    if spans["overwritten"] == 0:
        if len(by_id) != len(events):
            fail(f"{path}: duplicate (trace, id) span pairs")
        for i, s in enumerate(events):
            if "parent" not in s:
                continue
            parent = by_id.get((s["trace"], s["parent"]))
            if parent is None:
                fail(f"{path}: spans.events[{i}] parent {s['parent']} not "
                     f"recorded in trace {s['trace']}")
            if parent["begin"] > s["begin"]:
                fail(f"{path}: spans.events[{i}] begins before its parent")
            if parent["kind"] == "request" and s["end"] > parent["end"]:
                fail(f"{path}: spans.events[{i}] outlives its request root")
    print(f"check_report: spans ok ({spans['recorded']} recorded, "
          f"{spans['overwritten']} overwritten)")


def main() -> None:
    if len(sys.argv) < 2:
        fail("usage: check_report.py <report.json> [counter ...]")

    path = sys.argv[1]
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    for key in REQUIRED_KEYS:
        if key not in report:
            fail(f"{path}: missing required key '{key}'")

    metrics = report["metrics"]
    for section in ("counters", "gauges"):
        if section not in metrics or not isinstance(metrics[section], dict):
            fail(f"{path}: metrics.{section} missing or not an object")

    if not isinstance(report["wall_time_sec"], (int, float)):
        fail(f"{path}: wall_time_sec is not a number")

    counters = metrics["counters"]
    check_fault_families(path, counters)
    check_crash_family(path, counters, metrics["gauges"],
                       report.get("params", {}))
    check_perf_family(path, counters, metrics["gauges"])
    check_forest_family(path, counters, metrics["gauges"])
    check_mem_family(path, metrics["gauges"])
    check_latency_family(path, counters, metrics["gauges"],
                         report["histograms"])
    check_timeline(path, report["timeline"], counters)
    check_spans(path, report["spans"])
    check_exp17_monotone(path, metrics["gauges"])
    for name in sys.argv[2:]:
        if name not in counters:
            fail(f"{path}: counter '{name}' not in report")
        if counters[name] == 0:
            fail(f"{path}: counter '{name}' is zero")

    print(f"check_report: {path} ok "
          f"({len(counters)} counters, "
          f"{report['net_stats'].get('messages', 0)} messages, "
          f"wall {report['wall_time_sec']:.2f}s)")


if __name__ == "__main__":
    main()
