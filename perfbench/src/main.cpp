// perfbench: host-time benchmark of the controller stack.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// Runs the named workload (workloads.cpp) back to back, each repetition a
// fresh instance built from the same seed, until `seconds` of host time
// have passed, and prints one JSON object as the last stdout line:
//
//   trace 0   end-to-end metrics: requests_per_sec and window_ms_p50/p90
//             of the fastest repetition (host noise on a shared machine
//             only ever slows a repetition down), setup_s as the median
//             over repetitions, and peak_rss_mb;
//   trace 1   per-layer metrics (layers.cpp): untraced and span-traced
//             repetitions alternate, then each layer's isolation loop runs;
//             spans go to --spans-out at exit.
//
// The object also carries the request and failure totals, the names of
// failed output checks, and the simulated-statistics fingerprint, which
// must be identical in every repetition.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "obs/meminfo.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <path>]\nworkloads:",
               why);
  for (const Shape& s : shapes()) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("bad --seed");
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a.seconds > 0.0) ||
          a.seconds > 120.0) {
        usage("--seconds must be in (0, 120]");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      a.trace = val == "1" ? 1 : 0;
    } else if (key == "--spans-out") {
      a.spans_out = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds == 0.0 || a.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Totals over every repetition, and the fingerprint check between them.
struct Tally {
  std::uint64_t reps = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failed_checks;
  Counters fingerprint;

  void add(const RepResult& r) {
    if (reps == 0) {
      fingerprint = r.fingerprint;
    } else if (r.fingerprint != fingerprint) {
      ++failed;
      failed_checks.emplace_back("fingerprint identical across repetitions");
    }
    ++reps;
    attempted += r.attempted;
    failed += r.failed;
    failed_checks.insert(failed_checks.end(), r.failed_checks.begin(),
                         r.failed_checks.end());
  }
};

double rps(const RepResult& r) {
  return ratio(static_cast<double>(r.verdicts), r.timed_s);
}

/// Call each(traced, rep) with fresh repetitions of `s` until `seconds`
/// have passed (at least `min_reps` of them).  With a tracer, every second
/// repetition records spans into it.  A repetition that throws counts as
/// failed in `t` and is not passed on.
template <typename Fn>
void repeat(const Shape& s, std::uint64_t seed, Tally& t, double seconds,
            std::uint64_t min_reps, Tracer* tr, Fn&& each) {
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < min_reps || seconds_since(start) < seconds;
       ++i) {
    const bool traced = tr != nullptr && i % 2 == 1;
    set_tracer(traced ? tr : nullptr);
    RepResult r;
    try {
      Span rep("rep");
      r = run_rep(s, seed);
    } catch (const std::exception& e) {
      set_tracer(nullptr);
      ++t.failed;
      t.failed_checks.push_back(std::string("repetition threw: ") + e.what());
      continue;
    }
    set_tracer(nullptr);
    t.add(r);
    each(traced, r);
  }
}

void print_result(const Args& a, const Tally& t,
                  const std::vector<Metric>& metrics,
                  const std::vector<Metric>& info) {
  std::string out = "{\"workload\": " + json_str(a.workload) +
                    ", \"seed\": " + std::to_string(a.seed) +
                    ", \"reps\": " + std::to_string(t.reps) +
                    ", \"attempted\": " + std::to_string(t.attempted) +
                    ", \"failed\": " + std::to_string(t.failed) +
                    ", \"failed_checks\": [";
  for (std::size_t i = 0; i < t.failed_checks.size() && i < 16; ++i) {
    out += (i != 0 ? ", " : "") + json_str(t.failed_checks[i]);
  }
  out += "], \"fingerprint\": {";
  bool first = true;
  for (const auto& [name, v] : t.fingerprint) {
    out += (first ? "" : ", ") + json_str(name) + ": " + std::to_string(v);
    first = false;
  }
  auto emit = [&out](const char* key, const std::vector<Metric>& ms) {
    out += std::string("}, \"") + key + "\": {";
    bool f = true;
    char buf[64];
    for (const Metric& m : ms) {
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      out += (f ? "" : ", ") + json_str(m.name) + ": {\"value\": " + buf +
             ", \"unit\": " + json_str(m.unit) + "}";
      f = false;
    }
  };
  emit("metrics", metrics);
  emit("info", info);
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run_end_to_end(const Args& a, const Shape& s) {
  Tally t;
  // Each statistic is taken per repetition.  Contention from other
  // tenants of the host only slows a repetition, and comes in episodes
  // that can cover most of a run, so the fastest repetition is the steady
  // estimate of the code's own speed; the quartiles go to the summary.
  std::vector<double> rates, setups, p50s, p90s;
  std::uint64_t windows = 0;
  repeat(s, a.seed, t, a.seconds, 3, nullptr, [&](bool, const RepResult& r) {
    rates.push_back(rps(r));
    setups.push_back(r.setup_s);
    p50s.push_back(quantile(r.window_ms, 0.5));
    p90s.push_back(quantile(r.window_ms, 0.9));
    windows += r.window_ms.size();
  });
  const std::vector<Metric> metrics = {
      {"requests_per_sec", quantile(rates, 1.0), "req/s"},
      {"window_ms_p50", quantile(p50s, 0.0), "ms"},
      {"window_ms_p90", quantile(p90s, 0.0), "ms"},
      {"peak_rss_mb",
       static_cast<double>(dyncon::obs::peak_rss_bytes()) / (1024.0 * 1024.0),
       "MiB"},
      {"setup_s", median(setups), "s"},
  };
  const auto reps = static_cast<double>(t.reps);
  const std::vector<Metric> info = {
      {"failed_share",
       ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)),
       "fraction"},
      {"requests_per_sec_q1", quantile(rates, 0.25), "req/s"},
      {"requests_per_sec_median", median(rates), "req/s"},
      {"requests_per_sec_q3", quantile(rates, 0.75), "req/s"},
      {"window_ms_p50_median", median(p50s), "ms"},
      {"window_ms_p90_median", median(p90s), "ms"},
      {"windows_per_rep", ratio(static_cast<double>(windows), reps), "count"},
      {"requests_per_rep", ratio(static_cast<double>(t.attempted), reps),
       "count"},
      {"hw_threads", static_cast<double>(std::thread::hardware_concurrency()),
       "count"},
  };
  print_result(a, t, metrics, info);
  return 0;
}

int run_traced(const Args& a, const Shape& s) {
  Tally t;
  Tracer tr(std::size_t{1} << 20);
  std::vector<double> plain_rates, traced_rates, plain_timed, allocs;
  LayerInputs in;
  // Untraced and traced repetitions alternate so drift hits both alike;
  // the isolation loops below get the rest of the budget.
  repeat(s, a.seed, t, a.seconds * 0.4, 4, &tr,
         [&](bool traced, const RepResult& r) {
    (traced ? traced_rates : plain_rates).push_back(rps(r));
    if (!traced) {
      plain_timed.push_back(r.timed_s);
      allocs.push_back(ratio(static_cast<double>(r.timed_allocs),
                             static_cast<double>(r.attempted)));
    }
    in.counts = r.counts;
  });
  // Fastest repetitions, as for the end-to-end metrics.
  in.timed_s = quantile(plain_timed, 0.0);
  in.allocs_per_request = median(allocs);
  in.trace_overhead = 1.0 - ratio(quantile(traced_rates, 1.0),
                                  quantile(plain_rates, 1.0));

  set_tracer(&tr);
  const std::vector<Metric> metrics = layer_metrics(s, a.seed, in);
  set_tracer(nullptr);

  if (!a.spans_out.empty() && !tr.write_csv(a.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 a.spans_out.c_str());
    return 1;
  }
  const std::vector<Metric> info = {
      {"failed_share",
       ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)),
       "fraction"},
      {"spans", static_cast<double>(tr.size()), "count"},
      {"spans_dropped", static_cast<double>(tr.dropped()), "count"},
  };
  print_result(a, t, metrics, info);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const Shape* s = find_shape(a.workload);
  if (s == nullptr) usage(("unknown workload " + a.workload).c_str());
  try {
    return a.trace == 1 ? run_traced(a, *s) : run_end_to_end(a, *s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }
}
