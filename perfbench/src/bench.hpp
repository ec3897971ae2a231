// Shared types of dgbench: run options, the result every
// workload returns, and small helpers used by all workloads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "detect/detector.hpp"
#include "trace.hpp"

namespace perfbench {

// Defaults of the two input seeds (the paper tables' own defaults:
// workload seed 42, scheduler seed 7). `--seed N` shifts both by N.
inline constexpr std::uint64_t kDefaultWorkloadSeed = 42;
inline constexpr std::uint64_t kDefaultSchedSeed = 7;

struct Options {
  std::string workload;
  std::uint64_t wl_seed = kDefaultWorkloadSeed;
  std::uint64_t sched_seed = kDefaultSchedSeed;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch files: the service segment, the trace
};

/// What one workload run produced. `attempted`/`failed` count operations
/// (a program, a live run, a producer stream). `metrics` holds end-to-end
/// metrics for an untraced run and per-layer metrics for a traced one, by
/// the names main.cpp lists; units live in that list.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool trace_mismatch = false;  // traced and untraced passes disagreed
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> problems;  // first few failure descriptions

  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  void fail(const std::string& why) {
    ++failed;
    problem(why);
  }
  void problem(const std::string& why) {
    if (problems.size() < 8) problems.push_back(why);
  }
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double pct(double part, double whole) {
  return whole == 0 ? 0.0 : 100.0 * part / whole;
}

inline double secs(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Addresses of a detector's kept race reports.
std::set<dg::Addr> race_set(const dg::Detector& d);

/// Detector-side counters summed over one or more detectors.
struct DetSummary {
  std::uint64_t shared_accesses = 0;
  std::uint64_t same_epoch_hits = 0;
  std::uint64_t vc_allocs = 0;
  std::uint64_t max_live_vcs = 0;
  std::uint64_t sharing_at_peak = 0;  // locations mapped at the VC peak
  std::uint64_t peak_hash = 0;
  std::uint64_t peak_bitmap = 0;
  std::uint64_t peak_vc = 0;
  std::uint64_t peak_total = 0;
  std::uint64_t raw_reports = 0;
  std::uint64_t unique_races = 0;

  void add(const dg::Detector& d);
};

/// The detector-layer metrics (detect.*, shadow.*, vc.*, report.*) from
/// counters and the traced pass's span totals.
void set_detector_layers(Outcome& out, const DetSummary& s,
                         const std::map<std::string, trace::Totals>& spans);

/// Runs measured passes for `o.seconds`: untraced ones only, or with
/// --trace 1 untraced and traced passes alternately (at least one of
/// each). `run(traced, n)` performs pass n. Every workload's Pass has
/// `secs` (its timed region) and `print` (what a traced pass must
/// reproduce exactly).
template <class Pass, class Run>
void measure(const Options& o, Run&& run, std::vector<Pass>& plain,
             std::vector<Pass>& traced) {
  const std::uint64_t deadline =
      trace::now_ns() + static_cast<std::uint64_t>(o.seconds * 1e9);
  std::size_t n = 0;
  do {
    const bool t = o.trace && plain.size() > traced.size();
    trace::set_enabled(t);
    (t ? traced : plain).push_back(run(t, n++));
    trace::set_enabled(false);
  } while (trace::now_ns() < deadline || (o.trace && traced.empty()));
}

/// Flags any traced pass whose counters or race sets differ from the
/// first untraced pass, and sets trace.overhead_pct: the traced passes'
/// median timed region against the untraced passes' median.
template <class Pass>
void check_traced(const std::vector<Pass>& plain,
                  const std::vector<Pass>& traced, Outcome& out) {
  std::vector<double> p, t;
  for (const Pass& ps : plain) p.push_back(ps.secs);
  for (const Pass& ps : traced) {
    t.push_back(ps.secs);
    if (!(ps.print == plain.front().print)) {
      out.trace_mismatch = true;
      out.problem("traced pass counters or race sets differ from untraced");
    }
  }
  out.set("trace.overhead_pct", pct(median(t) - median(p), median(p)));
}

Outcome run_paper_suite(const Options& o);
Outcome run_live(const Options& o, bool contended);
Outcome run_service_ingest(const Options& o);

}  // namespace perfbench
