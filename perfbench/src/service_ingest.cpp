// service-ingest: the detection service (AnalysisService, 2 drainers,
// 16-shard dyngran) fed by one forked load-generator process whose two
// producer threads each own a ShmProducer slot.
//
// Inputs: one pre-built rt::TraceEvent stream per producer, generated from
// the workload seed — micro_service's read-heavy loop (4 ingested threads,
// a private and a shared read-only 64 B read per iteration, a private
// write every 16, a lock round every 512) plus unsynchronized writes to a
// small racy region every 64 iterations. The streams are built before the
// generator is forked, so the child only copies them into the rings.
//
// Each measured pair runs the streams through the service and, as the
// base, replays them in-process (rt::replay_trace, one thread) into an
// identically configured detector: the same analysis without the service,
// so `slowdown` here is the service's cost factor over in-process
// analysis. The pair's order alternates. A pass's set-up is the fork, the
// service start and the producers' attach; its timed region runs from
// open_gate() until stop() returns with every report in.
//
// Correctness, per producer stream: the service's race set for the
// stream's slot must equal an in-process rt::replay_trace of that stream
// under the same detector config (computed once per run), namespaced by
// the slot's tag; the generator must exit 0 and nothing may be dropped or
// quarantined.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/prng.hpp"
#include "detect/dyngran.hpp"
#include "rt/trace.hpp"
#include "service/analysis_service.hpp"
#include "service/shm_segment.hpp"
#include "timed_detector.hpp"

namespace perfbench {
namespace {

using dg::Addr;
using dg::rt::EventKind;
using dg::rt::TraceEvent;

constexpr std::uint32_t kProducers = 2;
constexpr std::uint32_t kStreamThreads = 4;
constexpr std::uint32_t kIters = 150000;
constexpr std::uint32_t kDrainers = 2;
constexpr std::uint32_t kShards = 16;
constexpr std::size_t kChunk = 4096;  // events per push_n call
constexpr std::uint32_t kTimeoutMs = 60000;

std::vector<TraceEvent> make_stream(std::uint32_t producer,
                                    std::uint64_t seed) {
  dg::Prng rng(seed * 0xd1b54a32d192ed03ULL + producer + 1);
  std::vector<TraceEvent> ev;
  ev.reserve(static_cast<std::size_t>(kStreamThreads) * kIters * 21 / 10 +
             64);
  const Addr priv_base = 0x700000000000;
  const Addr shared_ro = 0x7e0000000000;
  const Addr racy_base = 0x7f0000000000;
  const std::uint64_t lock_id = 0x1000;
  ev.push_back({EventKind::kThreadStart, 0, 0, 0, 0, dg::kInvalidThread});
  for (std::uint32_t t = 1; t <= kStreamThreads; ++t)
    ev.push_back({EventKind::kThreadStart, 0, 0, t, 0, 0});
  for (std::uint32_t t = 1; t <= kStreamThreads; ++t) {
    const Addr mine = priv_base + static_cast<Addr>(t) * 0x100000;
    for (std::uint32_t i = 0; i < kIters; ++i) {
      const Addr line = mine + rng.below(16) * 64;
      ev.push_back({EventKind::kRead, 0, 64, t, line, 0});
      ev.push_back(
          {EventKind::kRead, 0, 64, t, shared_ro + rng.below(4) * 64, 0});
      if (i % 16 == 0) ev.push_back({EventKind::kWrite, 0, 8, t, line, 0});
      if (i % 64 == 0)
        ev.push_back(
            {EventKind::kWrite, 0, 8, t, racy_base + rng.below(8) * 8, 0});
      if (i % 512 == 0) {
        ev.push_back({EventKind::kAcquire, 0, 0, t, lock_id, 0});
        ev.push_back({EventKind::kRelease, 0, 0, t, lock_id, 0});
      }
    }
  }
  for (std::uint32_t t = 1; t <= kStreamThreads; ++t)
    ev.push_back({EventKind::kThreadJoin, 0, 0, 0, 0, t});
  ev.push_back({EventKind::kFinish, 0, 0, 0, 0, 0});
  return ev;
}

std::unique_ptr<dg::DynGranDetector> make_dyngran() {
  dg::DynGranConfig cfg;
  cfg.shards = kShards;
  return std::make_unique<dg::DynGranDetector>(cfg);
}

/// What the generator process reports back per producer.
struct ProducerReport {
  std::uint64_t last_return_ns = 0;  // steady clock, shared across processes
  std::uint32_t ok = 0;
};

struct PushSpan {
  std::uint64_t start_ns, end_ns, events;
};

bool write_all(int fd, const void* p, std::size_t n) {
  const char* c = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t k = ::write(fd, c, n);
    if (k <= 0) return false;
    c += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool read_all(int fd, void* p, std::size_t n) {
  char* c = static_cast<char*>(p);
  while (n > 0) {
    const ssize_t k = ::read(fd, c, n);
    if (k <= 0) return false;
    c += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// The load generator: one process, one thread per producer slot. It
/// connects once `start_fd` delivers a byte (the segment exists by then,
/// so the attach never waits out a retry interval), and writes its reports
/// (and, traced, one span per push_n call) to `fd`.
[[noreturn]] void run_generator(
    const std::string& path,
    const std::vector<std::vector<TraceEvent>>& streams, bool traced,
    int start_fd, int fd) {
  ProducerReport reps[kProducers];
  std::vector<PushSpan> spans[kProducers];
  char go = 0;
  if (!read_all(start_fd, &go, 1)) _exit(1);
  ::close(start_fd);
  {
    std::vector<std::thread> threads;
    for (std::uint32_t p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        dg::service::ShmProducer prod;
        std::string err;
        if (!prod.connect(path, "perfbench:" + std::to_string(p), kTimeoutMs,
                          &err)) {
          std::fprintf(stderr, "generator %u: %s\n", p, err.c_str());
          return;
        }
        if (!prod.wait_go(kTimeoutMs)) return;
        const std::vector<TraceEvent>& ev = streams[p];
        bool ok = true;
        for (std::size_t i = 0; ok && i < ev.size(); i += kChunk) {
          const std::size_t n = std::min(kChunk, ev.size() - i);
          const std::uint64_t t0 = traced ? trace::now_ns() : 0;
          ok = prod.push_n(ev.data() + i, n);
          reps[p].last_return_ns = trace::now_ns();
          if (traced) spans[p].push_back({t0, reps[p].last_return_ns, n});
        }
        prod.finish();
        reps[p].ok = ok && prod.dropped() == 0;
      });
    }
    for (auto& th : threads) th.join();
  }
  bool ok = write_all(fd, reps, sizeof reps);
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    const std::uint64_t n = spans[p].size();
    ok = ok && write_all(fd, &n, sizeof n) &&
         write_all(fd, spans[p].data(), n * sizeof(PushSpan));
  }
  ::close(fd);
  _exit(ok && reps[0].ok && reps[1].ok ? 0 : 1);
}

/// Per-producer-stream counters the traced pass must reproduce exactly,
/// keyed by producer index (slots may swap between passes).
struct Fingerprint {
  std::uint64_t shared = 0;
  std::uint64_t same_epoch = 0;
  std::uint64_t filtered = 0;
  std::map<std::uint32_t, std::set<Addr>> races;  // producer -> raw addrs
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

struct Pass {
  double setup_s = 0;
  double secs = 0;
  double base_s = 0;  // in-process replay of the same streams
  std::uint64_t events = 0;
  dg::service::ServiceStats stats;
  DetSummary det;
  Fingerprint print;
  std::uint64_t full_stalls = 0;
  std::uint64_t push_hwm = 0;
  std::uint64_t pushed = 0;
  double tail_drain_ms = 0;
};

struct Context {
  std::string path;
  std::vector<std::vector<TraceEvent>> streams;
  std::vector<std::set<Addr>> expected;  // raw race addrs per producer
};

/// The base: every stream replayed in-process into its own detector.
double time_replay(const Context& cx) {
  std::vector<std::unique_ptr<dg::DynGranDetector>> dets;
  for (std::size_t p = 0; p < cx.streams.size(); ++p)
    dets.push_back(make_dyngran());
  const std::uint64_t t0 = trace::now_ns();
  for (std::size_t p = 0; p < cx.streams.size(); ++p)
    dg::rt::replay_trace(cx.streams[p], *dets[p]);
  return secs(t0, trace::now_ns());
}

Pass run_pass(const Context& cx, bool traced, bool base_first, Outcome& out) {
  Pass ps;
  for (const auto& s : cx.streams) ps.events += s.size();
  if (base_first) ps.base_s = time_replay(cx);
  const std::uint64_t t0 = trace::now_ns();
  ::unlink(cx.path.c_str());
  int fds[2], start[2];
  if (::pipe(fds) != 0 || ::pipe(start) != 0) {
    out.fail("pipe failed");
    return ps;
  }
  // Fork before any service thread exists: fork and threads do not mix.
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    ::close(start[1]);
    run_generator(cx.path, cx.streams, traced, start[0], fds[1]);
  }
  ::close(fds[1]);
  ::close(start[0]);
  std::unique_ptr<dg::DynGranDetector> det = make_dyngran();
  TimedDetector timed(*det, traced);
  dg::service::ServiceOptions so;
  so.drainers = kDrainers;
  so.gc_every_events = 0;
  so.filter_same_epoch = true;
  so.mem_budget_bytes = 0;
  so.die_after_events = 0;
  dg::service::AnalysisService svc(
      traced ? static_cast<dg::Detector&>(timed) : *det, so);
  std::string err;
  bool ok = true;
  {
    trace::Scope span("service.start", traced);
    ok = svc.start(cx.path, &err);
    const char go = 1;
    ok = ok && write_all(start[1], &go, 1);
    ::close(start[1]);
    ok = ok && svc.wait_producers(kProducers, kTimeoutMs);
  }
  ps.setup_s = secs(t0, trace::now_ns());

  std::uint64_t t2 = 0;
  const std::uint64_t t1 = trace::now_ns();
  {
    trace::Scope pass("service.pass", traced);
    {
      trace::Scope span("service.open_gate", traced);
      svc.open_gate();
    }
    {
      trace::Scope span("service.stop", traced);
      svc.stop(kTimeoutMs);
    }
    t2 = trace::now_ns();
    pass.set_events(ps.events);
  }
  ps.secs = secs(t1, t2);

  ProducerReport reps[kProducers];
  bool reported = read_all(fds[0], reps, sizeof reps);
  for (std::uint32_t p = 0; reported && p < kProducers; ++p) {
    std::uint64_t n = 0;
    std::vector<PushSpan> spans;
    reported = read_all(fds[0], &n, sizeof n);
    if (reported && n > 0) {
      spans.resize(n);
      reported = read_all(fds[0], spans.data(), n * sizeof(PushSpan));
    }
    for (const PushSpan& s : spans)
      trace::add_foreign("service.push_n", s.start_ns, s.end_ns, s.events);
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  const bool child_ok = reported && WIFEXITED(status) &&
                        WEXITSTATUS(status) == 0;

  ps.stats = svc.stats();
  ps.det.add(*det);
  ps.print.shared = det->stats().shared_accesses.load();
  ps.print.same_epoch = det->stats().same_epoch_hits.load();
  ps.print.filtered = ps.stats.filtered;
  std::uint64_t last_push = 0;
  for (const ProducerReport& r : reps)
    last_push = std::max(last_push, r.last_return_ns);
  ps.tail_drain_ms = last_push > 0 && t2 > last_push
                         ? static_cast<double>(t2 - last_push) * 1e-6
                         : 0;

  // Group the service's reports by namespace tag.
  std::map<std::uint32_t, std::set<Addr>> by_tag;
  for (const dg::RaceReport& r : det->sink().reports())
    by_tag[static_cast<std::uint32_t>((r.addr >> 48) - 1)].insert(
        r.addr & ((Addr{1} << 48) - 1));

  const auto& lay = svc.segment().layout();
  std::uint32_t seen = 0;
  for (std::uint32_t s = 0; s < lay.header.max_producers; ++s) {
    const auto& slot = lay.slots[s];
    std::uint32_t idx = 0;
    if (std::sscanf(slot.spec, "perfbench:%u", &idx) != 1 || idx >= kProducers)
      continue;
    ++seen;
    ++out.attempted;
    ps.full_stalls += slot.full_stalls.load();
    ps.push_hwm = std::max<std::uint64_t>(ps.push_hwm, slot.push_hwm.load());
    ps.pushed += slot.pushed.load();
    const std::uint32_t tag = slot.ns_tag.load();
    std::set<Addr>& races = ps.print.races[idx];
    races = by_tag[tag];
    std::string why;
    if (!ok)
      why = "service did not start: " + err;
    else if (!child_ok || reps[idx].ok == 0)
      why = "generator failed";
    else if (slot.dropped.load() != 0 || slot.quarantined.load() != 0)
      why = "events dropped or quarantined";
    else if (slot.drained.load() != cx.streams[idx].size())
      why = "stream not fully drained";
    else if (races != cx.expected[idx])
      why = "race set differs from the in-process replay";
    if (!why.empty())
      out.fail("producer " + std::to_string(idx) + ": " + why);
  }
  for (; seen < kProducers; ++seen) {
    ++out.attempted;
    out.fail("a producer never attached" + (err.empty() ? "" : ": " + err));
  }
  ::unlink(cx.path.c_str());
  if (!base_first) ps.base_s = time_replay(cx);
  return ps;
}

}  // namespace

Outcome run_service_ingest(const Options& o) {
  Outcome out;
  Context cx{o.work_dir + "/perfbench-" + std::to_string(::getpid()) + ".dgs",
             {}, {}};
  const std::uint64_t r0 = trace::now_ns();
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    cx.streams.push_back(make_stream(p, o.wl_seed));
    auto det = make_dyngran();
    dg::rt::replay_trace(cx.streams.back(), *det);
    cx.expected.push_back(race_set(*det));
  }
  out.note("reference_s", std::to_string(secs(r0, trace::now_ns())));

  {
    Outcome scratch;  // warm-up pair, discarded
    run_pass(cx, false, false, scratch);
  }
  std::vector<Pass> plain, traced;
  measure(
      o,
      [&](bool t, std::size_t n) {
        return run_pass(cx, t, n % 2 == 1, out);
      },
      plain, traced);
  out.note("passes", std::to_string(plain.size()));

  std::vector<double> setup, slowdown, eps, peak;
  for (const Pass& p : plain) {
    setup.push_back(p.setup_s);
    slowdown.push_back(p.secs / p.base_s);
    eps.push_back(static_cast<double>(p.events) / p.secs);
    peak.push_back(static_cast<double>(p.det.peak_total));
  }
  if (!o.trace) {
    out.set("setup_s", median(setup));
    out.set("slowdown", median(slowdown));
    out.set("events_per_s", median(eps));
    out.set("peak_detector_bytes", median(peak));
    return out;
  }

  check_traced(plain, traced, out);
  const Pass& tp = traced.front();
  const auto spans = trace::totals();
  set_detector_layers(out, tp.det, spans);
  const dg::service::ServiceStats& st = tp.stats;
  out.set("service.push_ns",
          trace::find(spans, "service.push_n").ns_per_event());
  out.set("service.full_stalls", static_cast<double>(tp.full_stalls));
  out.set("service.push_hwm", static_cast<double>(tp.push_hwm));
  out.set("service.forwarded_pct",
          pct(static_cast<double>(st.events_total - st.filtered -
                                  st.quarantined),
              static_cast<double>(tp.pushed)));
  out.set("service.avg_drain_ns",
          st.drains == 0 ? 0.0
                         : static_cast<double>(st.drain_ns) /
                               static_cast<double>(st.drains));
  out.set("service.max_drain_ns", static_cast<double>(st.max_drain_ns));
  out.set("service.combines", static_cast<double>(st.combines));
  out.set("service.piggybacked_pct",
          pct(static_cast<double>(st.piggybacked),
              static_cast<double>(st.combined_batches)));
  out.set("service.tail_drain_ms", tp.tail_drain_ms);
  out.set("service.dropped", static_cast<double>(st.dropped));
  out.set("service.quarantined", static_cast<double>(st.quarantined));
  return out;
}

}  // namespace perfbench
