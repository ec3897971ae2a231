// paper-suite: the 11 Table-1 programs in the deterministic simulator.
//
// Each measured iteration builds every program twice (base and dyngran)
// plus one DynGranDetector per program — that is the iteration's set-up —
// then runs, per program, the NullDetector base and the dyngran run back
// to back, so slow drift on a shared machine hits both sides alike.
//
// Correctness reference, computed once per run after the measured passes
// (the oracle's memory churn would otherwise slow the first passes): each
// program's event stream is recorded and checked by the verify
// subsystem (the exact HB oracle, one serialized dyngran MatrixEntry under
// the kDynGranSuperset contract). The replayed detector's race set is
// kept, and every measured run must reproduce it exactly — the simulator
// gives the identical stream for a given program and scheduler seed.
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "detect/dyngran.hpp"
#include "rt/trace.hpp"
#include "sim/sim.hpp"
#include "timed_detector.hpp"
#include "verify/diff_runner.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using dg::Addr;

constexpr int kSetupRepeats = 101;

struct Reference {
  std::string error;  // empty when the contract holds
  std::set<Addr> races;
  std::uint64_t unique = 0;
};

Reference make_reference(const dg::wl::WorkloadInfo& w, dg::wl::WlParams p,
                         std::uint64_t sched_seed) {
  Reference ref;
  std::vector<dg::rt::TraceEvent> events;
  {
    auto prog = w.make(p);
    dg::rt::TraceRecorder rec;
    dg::sim::SimScheduler sched(*prog, rec, sched_seed);
    if (sched.run().deadlocked) {
      ref.error = w.name + ": deadlocked while recording";
      return ref;
    }
    events = rec.events();
  }
  // The matrix entry hands diff_trace a non-owning forwarder so the
  // replayed detector outlives the check and its race set can be kept.
  auto det = std::make_shared<dg::DynGranDetector>();
  dg::verify::MatrixEntry entry;
  entry.label = "dyngran/serialized";
  entry.make = [det] { return std::make_unique<TimedDetector>(*det, false); };
  entry.contract = dg::verify::Contract::kDynGranSuperset;
  entry.mode = dg::verify::DeliveryMode::kSerialized;
  const dg::verify::DiffResult diff = dg::verify::diff_trace(events, {entry});
  if (diff.runs != 1)
    ref.error = w.name + ": oracle check did not run";
  else if (!diff.divergences.empty())
    ref.error = w.name + ": " + diff.divergences.front().detail;
  ref.races = race_set(*det);
  ref.unique = det->sink().unique_races();
  return ref;
}

/// Per-program outcome; the traced pass must reproduce it exactly.
struct Fingerprint {
  bool deadlocked = false;
  std::uint64_t shared = 0;
  std::uint64_t same_epoch = 0;
  std::uint64_t peak_total = 0;
  std::uint64_t unique = 0;
  std::set<Addr> races;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

struct Pass {
  double setup_s = 0;
  double base_s = 0;  // Σ NullDetector sim time
  double secs = 0;    // Σ dyngran sim time
  std::uint64_t events = 0;
  DetSummary det;
  std::vector<Fingerprint> print;  // one per program
};

Pass run_pass(const Options& o, const dg::wl::WlParams& p, bool traced) {
  const auto& suite = dg::wl::all_workloads();
  Pass pass;
  // The set-up is tiny next to a pass, so it is repeated and its median
  // kept; the last repetition's programs and detectors are the ones run.
  std::vector<std::unique_ptr<dg::sim::SimProgram>> dyn_progs;
  std::vector<std::unique_ptr<dg::DynGranDetector>> dets;
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    dyn_progs.clear();
    dets.clear();
    const std::uint64_t t0 = trace::now_ns();
    for (const auto& w : suite) {
      dyn_progs.push_back(w.make(p));
      dets.push_back(std::make_unique<dg::DynGranDetector>());
    }
    setups.push_back(secs(t0, trace::now_ns()));
  }
  pass.setup_s = median(setups);
  std::vector<std::unique_ptr<dg::sim::SimProgram>> base_progs;
  for (const auto& w : suite) base_progs.push_back(w.make(p));

  for (std::size_t i = 0; i < suite.size(); ++i) {
    dg::NullDetector null;
    dg::sim::SimScheduler base(*base_progs[i], null, o.sched_seed);
    const auto rb = base.run();
    base_progs[i].reset();

    dg::DynGranDetector& det = *dets[i];
    TimedDetector timed(det, traced);
    dg::Detector& sink = traced ? static_cast<dg::Detector&>(timed) : det;
    dg::sim::SimScheduler::Result rd;
    {
      trace::Scope span("sim.run", traced);
      dg::sim::SimScheduler sched(*dyn_progs[i], sink, o.sched_seed);
      rd = sched.run();
      span.set_events(rd.memory_events + rd.sync_events);
    }
    dyn_progs[i].reset();

    pass.base_s += rb.wall_seconds;
    pass.secs += rd.wall_seconds;
    pass.events += rd.memory_events + rd.sync_events;
    pass.det.add(det);
    pass.print.push_back({rb.deadlocked || rd.deadlocked,
                          det.stats().shared_accesses.load(),
                          det.stats().same_epoch_hits.load(),
                          det.accountant().peak_total(),
                          det.sink().unique_races(), race_set(det)});
    dets[i].reset();
  }
  return pass;
}

/// One operation per program per pass: it must not deadlock and must
/// reproduce the oracle-checked reference race set.
void check(const Pass& pass, const std::vector<Reference>& refs,
           Outcome& out) {
  const auto& suite = dg::wl::all_workloads();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const Fingerprint& fp = pass.print[i];
    ++out.attempted;
    if (!refs[i].error.empty())
      out.fail(refs[i].error);
    else if (fp.deadlocked)
      out.fail(suite[i].name + ": deadlocked");
    else if (fp.races != refs[i].races || fp.unique != refs[i].unique)
      out.fail(suite[i].name +
               ": race set differs from the oracle-checked reference");
  }
}

}  // namespace

Outcome run_paper_suite(const Options& o) {
  Outcome out;
  dg::wl::WlParams p;
  p.threads = 4;
  p.scale = 1;
  p.seed = o.wl_seed;

  // One warm-up pass (caches, allocator, clock ramp) is discarded. Then
  // untraced and (with --trace 1) traced passes alternate; end-to-end
  // figures come from untraced passes only.
  run_pass(o, p, false);
  std::vector<Pass> plain, traced;
  measure(
      o, [&](bool t, std::size_t) { return run_pass(o, p, t); }, plain,
      traced);

  const std::uint64_t r0 = trace::now_ns();
  std::vector<Reference> refs;
  for (const auto& w : dg::wl::all_workloads())
    refs.push_back(make_reference(w, p, o.sched_seed));
  out.note("reference_s", std::to_string(secs(r0, trace::now_ns())));
  for (const Pass& ps : plain) check(ps, refs, out);
  for (const Pass& ps : traced) check(ps, refs, out);

  std::vector<double> setup, slowdown, eps, base;
  for (const Pass& ps : plain) {
    setup.push_back(ps.setup_s);
    slowdown.push_back(ps.secs / ps.base_s);
    eps.push_back(static_cast<double>(ps.events) / ps.secs);
    base.push_back(ps.base_s);
  }
  out.note("passes", std::to_string(plain.size()));

  if (!o.trace) {
    out.set("setup_s", median(setup));
    out.set("slowdown", median(slowdown));
    out.set("events_per_s", median(eps));
    out.set("peak_detector_bytes",
            static_cast<double>(plain.front().det.peak_total));
    return out;
  }

  check_traced(plain, traced, out);
  for (const Pass& ps : traced) base.push_back(ps.base_s);
  const Pass& tp = traced.front();
  out.set("sim.base_s", median(base));
  out.set("sim.events", static_cast<double>(tp.events));
  set_detector_layers(out, tp.det, trace::totals());
  return out;
}

}  // namespace perfbench
