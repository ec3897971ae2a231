// dgbench — one benchmark for dyngran (see ../README.md).
//
//   dgbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//           [--wl-seed N] [--sched-seed N] [--work-dir DIR]
//
// Workloads: paper-suite, live-readheavy, live-contended, service-ingest.
// Prints one line per metric ("name = value unit"), an info line, and as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics of a traced pass (and writes its spans to
// DIR/trace-W.json). Exit status 0 whenever a result was printed, 2 on a
// usage or configuration error.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric names are the benchmark's public vocabulary: BENCHMARK.json
// and README.md use exactly these.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"slowdown", "x"},
    {"events_per_s", "ev/s"},
    {"peak_detector_bytes", "B"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.base_s", "s"},
    {"sim.events", "count"},
    {"detect.access_ns", "ns"},
    {"detect.shared_accesses", "count"},
    {"detect.same_epoch_pct", "%"},
    {"detect.sync_ns", "ns"},
    {"detect.alloc_free_ns", "ns"},
    {"detect.vc_allocs", "count"},
    {"detect.max_live_vcs", "count"},
    {"detect.avg_sharing", "ratio"},
    {"shadow.peak_hash_bytes", "B"},
    {"shadow.peak_bitmap_bytes", "B"},
    {"vc.peak_bytes", "B"},
    {"report.raw_reports", "count"},
    {"report.unique_races", "count"},
    {"rt.events_seen", "count"},
    {"rt.call_ns", "ns"},
    {"rt.self_ns", "ns"},
    {"rt.sync_call_ns", "ns"},
    {"rt.fast_path_pct", "%"},
    {"rt.events_per_lock", "ratio"},
    {"rt.flushes", "count"},
    {"rt.lock_acquisitions", "count"},
    {"rt.avg_drain_ns", "ns"},
    {"rt.max_drain_ns", "ns"},
    {"rt.ring_depth_hwm", "count"},
    {"rt.backpressure_stalls", "count"},
    {"rt.dropped_events", "count"},
    {"service.push_ns", "ns"},
    {"service.full_stalls", "count"},
    {"service.push_hwm", "count"},
    {"service.forwarded_pct", "%"},
    {"service.avg_drain_ns", "ns"},
    {"service.max_drain_ns", "ns"},
    {"service.combines", "count"},
    {"service.piggybacked_pct", "%"},
    {"service.tail_drain_ms", "ms"},
    {"service.dropped", "count"},
    {"service.quarantined", "count"},
    {"trace.overhead_pct", "%"},
};

// Environment variables that silently change what the library does; the
// benchmark sets every option explicitly and refuses to run under them.
constexpr const char* kForbiddenEnv[] = {"DYNGRAN_RT_MODE", "DYNGRAN_SAMPLING",
                                         "DYNGRAN_MEM_BUDGET", "DGSVC_FAULT"};

#if defined(__SSE2__)
constexpr const char* kBitmapDispatch = "sse2";
#elif defined(__aarch64__)
constexpr const char* kBitmapDispatch = "neon";
#else
constexpr const char* kBitmapDispatch = "scalar";
#endif

std::string sanitizers() {
  std::string s;
#if defined(__SANITIZE_ADDRESS__)
  s += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  s += "thread ";
#endif
#if defined(__has_feature)
#if __has_feature(undefined_behavior_sanitizer)
  s += "undefined ";
#endif
#endif
  return s.empty() ? "none" : s.substr(0, s.size() - 1);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {paper-suite|live-readheavy|"
               "live-contended|service-ingest} [--seed N] [--seconds S] "
               "[--trace 0|1] [--wl-seed N] [--sched-seed N] "
               "[--work-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  o.work_dir = ".";
  std::uint64_t seed = 0;
  bool wl_seed_set = false, sched_seed_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--wl-seed") {
      o.wl_seed = std::strtoull(v, nullptr, 10);
      wl_seed_set = true;
    } else if (a == "--sched-seed") {
      o.sched_seed = std::strtoull(v, nullptr, 10);
      sched_seed_set = true;
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (!wl_seed_set) o.wl_seed = perfbench::kDefaultWorkloadSeed + seed;
  if (!sched_seed_set) o.sched_seed = perfbench::kDefaultSchedSeed + seed;
  if (!(o.seconds > 0)) return usage(argv[0]);

  for (const char* var : kForbiddenEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "dgbench: refusing to run with %s set: it changes what "
                   "is measured; unset it\n",
                   var);
      return 2;
    }
  }

  Outcome out;
  if (o.workload == "paper-suite") {
    out = perfbench::run_paper_suite(o);
  } else if (o.workload == "live-readheavy") {
    out = perfbench::run_live(o, /*contended=*/false);
  } else if (o.workload == "live-contended") {
    out = perfbench::run_live(o, /*contended=*/true);
  } else if (o.workload == "service-ingest") {
    out = perfbench::run_service_ingest(o);
  } else {
    return usage(argv[0]);
  }

  const auto& defs = o.trace ? std::vector<MetricDef>(std::begin(kPerLayer),
                                                      std::end(kPerLayer))
                             : std::vector<MetricDef>(std::begin(kEndToEnd),
                                                      std::end(kEndToEnd));
  for (const auto& [name, value] : out.metrics) {
    bool known = false;
    for (const MetricDef& d : defs) known = known || name == d.name;
    if (!known) {
      std::fprintf(stderr, "dgbench: internal error: unlisted metric %s\n",
                   name.c_str());
      return 1;
    }
  }
  if (o.trace) {
    const std::string path = o.work_dir + "/trace-" + o.workload + ".json";
    if (!perfbench::trace::write_json(path))
      std::fprintf(stderr, "dgbench: cannot write %s\n", path.c_str());
    else
      out.note("trace_file", path);
  }

  const bool correct = out.failed == 0 && !out.trace_mismatch;
  const double failed_frac =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  std::printf("workload %s (workload seed %llu, scheduler seed %llu, %s)\n",
              o.workload.c_str(),
              static_cast<unsigned long long>(o.wl_seed),
              static_cast<unsigned long long>(o.sched_seed),
              o.trace ? "traced" : "untraced");
  for (const MetricDef& d : defs) {
    const auto it = out.metrics.find(d.name);
    std::printf("  %-26s = %s %s\n", d.name,
                it == out.metrics.end() ? "n/a" : number(it->second).c_str(),
                d.unit);
  }
  std::printf("  %-26s = %s ratio (%llu of %llu operations)\n", "failed_frac",
              number(failed_frac).c_str(),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& p : out.problems)
    std::printf("  problem: %s\n", p.c_str());

  std::string info = "{\"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                     ", \"cxx_flags\": " + json_string(PERFBENCH_CXX_FLAGS) +
                     ", \"sanitizers\": " + json_string(sanitizers()) +
                     ", \"bitmap_dispatch\": " + json_string(kBitmapDispatch) +
                     ", \"wl_seed\": " + std::to_string(o.wl_seed) +
                     ", \"sched_seed\": " + std::to_string(o.sched_seed) +
                     ", \"failed_frac\": " + number(failed_frac);
  for (const auto& [k, v] : out.info)
    info += ", " + json_string(k) + ": " + json_string(v);
  std::printf("info %s}\n", info.c_str());

  // Metrics a workload does not exercise read 0: that layer is bypassed.
  std::string metrics;
  for (const MetricDef& d : defs) {
    const auto it = out.metrics.find(d.name);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(d.name) + ": {\"value\": " +
               number(it == out.metrics.end() ? 0.0 : it->second) +
               ", \"unit\": " + json_string(d.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}
