// live-readheavy / live-contended: the in-process runtime (rt::Runtime in
// kSharded mode, 16-shard dyngran) under four application threads that do
// real loads, stores, std::mutex operations and alloc/free announcements.
//
// Inputs are pre-built per-thread op schedules generated from the workload
// seed. Each measured pair runs one schedule set twice: instrumented
// (rt::ThreadCtx / rt::Mutex / Runtime::allocated,freed) and as the base —
// the same thread bodies with std::mutex and no runtime. The order of the
// two alternates between pairs.
//
// live-readheavy is micro_runtime's hot loop: a 64 B read of a private
// line and of a shared read-only line per iteration, a private 8 B write
// every 16 iterations and a locked counter increment every 512, so ~98% of
// accesses die in the tier-1 same-epoch filter.
//
// live-contended takes the lock every 4 iterations (short epochs, small
// flushes) to read and write a small shared region, churns alloc/free on a
// thread-private arena every 32 iterations, and writes a racy region that
// no lock protects. Every thread writes every racy slot before its first
// lock and after its last unlock, so each slot races in every
// interleaving; reports are checked to cover every slot and to stay
// inside the racy region.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/prng.hpp"
#include "detect/dyngran.hpp"
#include "rt/runtime.hpp"
#include "timed_detector.hpp"

namespace perfbench {
namespace {

using dg::Addr;

constexpr std::uint32_t kThreads = 4;
constexpr std::uint32_t kShards = 16;
constexpr std::size_t kStripe = std::size_t{1} << dg::kDefaultShardStripeShift;
// Regions sit 9 stripes apart: never in one stripe or shadow block (so no
// clock sharing across regions) and spread over distinct shards.
constexpr std::size_t kRegionStride = 9 * kStripe;
constexpr std::size_t kLine = 64;
constexpr std::size_t kPrivLines = 16;  // 1 KiB private window
constexpr std::size_t kSharedLines = 4;
constexpr std::size_t kSharedRwWords = 64;  // 512 B contended region
constexpr std::size_t kRacySlots = 32;      // 8 B each
constexpr std::size_t kBlock = 256;         // alloc/free churn block
constexpr std::size_t kArenaBlocks = 32;

// Iterations of one schedule body and how often it repeats per pass.
constexpr std::uint32_t kReadHeavyIters = 1 << 16;
constexpr std::uint32_t kReadHeavyReps = 12;
constexpr std::uint32_t kContendedIters = 1 << 16;
constexpr std::uint32_t kContendedReps = 1;

// Work mixed into each loaded value: the application's own computation,
// identical in the base and the instrumented run.
constexpr int kMixRounds = 4;

// Traced pass: 1-in-N runtime calls get a span.
constexpr std::uint32_t kCallEvery = 64;
constexpr std::uint32_t kSyncEvery = 8;

enum Region : std::size_t {
  kPriv0 = 0,
  kArena0 = kThreads,
  kSharedRo = 2 * kThreads,
  kSharedRw,
  kRacy,
  kRegions
};

enum class OpKind : std::uint8_t {
  kReadPriv,   // 64 B private read
  kWritePriv,  // 8 B private write
  kReadShared, // 64 B read of the shared read-only region
  kCounter,    // lock; counter += 1; unlock
  kLockedRw,   // lock; read two shared words; write one; unlock
  kChurn,      // alloc a private block; write 4 words, read 2; free it
  kRacyWrite,  // unsynchronized 8 B write to the racy region
};

struct Op {
  OpKind kind;
  std::uint32_t off;  // byte offset inside the op's region
};

struct Schedule {
  std::vector<Op> prologue, body, epilogue;
  std::uint32_t reps = 1;
  std::uint64_t events = 0;  // instrumentation events the thread emits
};

std::uint64_t op_events(OpKind k) {
  switch (k) {
    case OpKind::kCounter: return 4;
    case OpKind::kLockedRw: return 5;
    case OpKind::kChurn: return 8;
    default: return 1;
  }
}

Schedule make_schedule(bool contended, std::uint64_t seed, std::uint32_t t) {
  dg::Prng rng(seed * 0x9e3779b97f4a7c15ULL + t + 1);
  Schedule s;
  const std::uint32_t iters = contended ? kContendedIters : kReadHeavyIters;
  s.reps = contended ? kContendedReps : kReadHeavyReps;
  auto off = [&](std::size_t n, std::size_t unit) {
    return static_cast<std::uint32_t>(rng.below(n) * unit);
  };
  for (std::uint32_t i = 0; i < iters; ++i) {
    const std::uint32_t line = off(kPrivLines, kLine);
    s.body.push_back({OpKind::kReadPriv, line});
    if (!contended) {
      s.body.push_back({OpKind::kReadShared, off(kSharedLines, kLine)});
      if (i % 16 == 0) s.body.push_back({OpKind::kWritePriv, line});
      if (i % 512 == 0) s.body.push_back({OpKind::kCounter, 0});
      continue;
    }
    if (i % 2 == 0)
      s.body.push_back({OpKind::kWritePriv, off(kPrivLines, kLine)});
    if (i % 4 == 0)
      s.body.push_back({OpKind::kLockedRw, off(kSharedRwWords, 8)});
    if (i % 32 == 0)
      s.body.push_back({OpKind::kChurn, off(kArenaBlocks, kBlock)});
    if (i % 64 == 0) s.body.push_back({OpKind::kRacyWrite, off(kRacySlots, 8)});
  }
  if (contended) {
    for (std::uint32_t k = 0; k < kRacySlots; ++k) {
      s.prologue.push_back({OpKind::kRacyWrite, k * 8});
      s.epilogue.push_back(
          {OpKind::kRacyWrite,
           static_cast<std::uint32_t>((kRacySlots - 1 - k) * 8)});
    }
  }
  for (const Op& op : s.prologue) s.events += op_events(op.kind);
  for (const Op& op : s.epilogue) s.events += op_events(op.kind);
  std::uint64_t body = 0;
  for (const Op& op : s.body) body += op_events(op.kind);
  s.events += body * s.reps;
  return s;
}

/// The application's memory: one aligned block, one region per slot.
class Memory {
 public:
  Memory()
      : base_(static_cast<std::uint8_t*>(
            std::aligned_alloc(kStripe, kRegions * kRegionStride))) {
    if (base_ == nullptr) throw std::bad_alloc();
    std::memset(base_, 0, kRegions * kRegionStride);
  }
  ~Memory() { std::free(base_); }
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  std::uint8_t* region(std::size_t r) const {
    return base_ + r * kRegionStride;
  }
  std::uint64_t* word(std::size_t r, std::uint32_t off) const {
    return reinterpret_cast<std::uint64_t*>(region(r) + off);
  }

 private:
  std::uint8_t* base_;
};

struct Inputs {
  std::vector<Schedule> schedules;
  Memory mem;
  std::uint64_t events = 0;

  Inputs(bool contended, std::uint64_t seed) {
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      schedules.push_back(make_schedule(contended, seed, t));
      events += schedules.back().events;
    }
  }
};

inline std::uint64_t mix(std::uint64_t x) {
  for (int r = 0; r < kMixRounds; ++r) {
    x ^= x >> 31;
    x *= 0x7fb5d329728ea185ULL;
  }
  return x;
}

// -- instrumentation policies ---------------------------------------------

/// The base: no runtime at all.
struct Bare {
  std::mutex* mu;
  void read(const void*, std::size_t) {}
  void write(void*, std::size_t) {}
  void alloc(void*, std::size_t) {}
  void free(void*, std::size_t) {}
  void lock() { mu->lock(); }
  void unlock() { mu->unlock(); }
};

/// Through the runtime's public wrappers.
struct Instrumented {
  dg::rt::ThreadCtx* ctx;
  dg::rt::Mutex* mu;
  void read(const void* p, std::size_t n) { ctx->touch_read(p, n); }
  void write(void* p, std::size_t n) { ctx->touch_write(p, n); }
  void alloc(void* p, std::size_t n) { ctx->runtime().allocated(p, n); }
  void free(void* p, std::size_t n) { ctx->runtime().freed(p, n); }
  void lock() { mu->lock(); }
  void unlock() { mu->unlock(); }
};

/// Instrumented, with 1-in-N calls wrapped in spans. Detector calls nested
/// in a sampled call are all timed, so the call's self time is the
/// runtime's own share.
struct Traced : Instrumented {
  template <class F>
  static void timed(const char* name, std::uint32_t every, F&& f) {
    if (trace::sample(every)) {
      trace::Scope s(name, true, /*sampled_call=*/true);
      f();
    } else {
      f();
    }
  }
  void read(const void* p, std::size_t n) {
    timed("rt.call", kCallEvery, [&] { ctx->touch_read(p, n); });
  }
  void write(void* p, std::size_t n) {
    timed("rt.call", kCallEvery, [&] { ctx->touch_write(p, n); });
  }
  void alloc(void* p, std::size_t n) {
    timed("rt.sync_call", kSyncEvery,
          [&] { ctx->runtime().allocated(p, n); });
  }
  void free(void* p, std::size_t n) {
    timed("rt.sync_call", kSyncEvery, [&] { ctx->runtime().freed(p, n); });
  }
  void lock() { timed("rt.sync_call", kSyncEvery, [&] { mu->lock(); }); }
  void unlock() { timed("rt.sync_call", kSyncEvery, [&] { mu->unlock(); }); }
};

template <class P>
std::uint64_t run_ops(P& p, const std::vector<Op>& ops, const Memory& m,
                      std::uint32_t t, std::uint64_t acc) {
  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kReadPriv:
      case OpKind::kReadShared: {
        const std::size_t r =
            op.kind == OpKind::kReadPriv ? kPriv0 + t : kSharedRo;
        const std::uint64_t* q = m.word(r, op.off);
        p.read(q, kLine);
        std::uint64_t v = 0;
        for (std::size_t w = 0; w < kLine / 8; ++w) v += q[w];
        acc = mix(acc + v);
        break;
      }
      case OpKind::kWritePriv: {
        std::uint64_t* q = m.word(kPriv0 + t, op.off);
        p.write(q, 8);
        *q = acc;
        break;
      }
      case OpKind::kCounter: {
        std::uint64_t* c = m.word(kSharedRw, 0);
        p.lock();
        p.read(c, 8);
        const std::uint64_t v = *c;
        p.write(c, 8);
        *c = v + 1;
        p.unlock();
        break;
      }
      case OpKind::kLockedRw: {
        std::uint64_t* a = m.word(kSharedRw, op.off);
        std::uint64_t* b =
            m.word(kSharedRw, (op.off + 17 * 8) % (kSharedRwWords * 8));
        p.lock();
        p.read(a, 8);
        p.read(b, 8);
        const std::uint64_t v = *a + *b;
        p.write(a, 8);
        *a = v + 1;
        p.unlock();
        acc = mix(acc + v);
        break;
      }
      case OpKind::kChurn: {
        std::uint64_t* blk = m.word(kArena0 + t, op.off);
        p.alloc(blk, kBlock);
        for (std::size_t w = 0; w < 4; ++w) {
          p.write(blk + w * 8, 8);
          blk[w * 8] = acc + w;
        }
        p.read(blk, 8);
        p.read(blk + 8, 8);
        acc = mix(acc + blk[0] + blk[8]);
        p.free(blk, kBlock);
        break;
      }
      case OpKind::kRacyWrite: {
        // Racy by design in the analysed program; the store itself is a
        // relaxed atomic so the benchmark binary stays free of UB.
        std::uint64_t* q = m.word(kRacy, op.off);
        p.write(q, 8);
        std::atomic_ref<std::uint64_t>(*q).store(acc,
                                                 std::memory_order_relaxed);
        break;
      }
    }
  }
  return acc;
}

template <class P>
std::uint64_t run_thread(P& p, const Schedule& s, const Memory& m,
                         std::uint32_t t) {
  std::uint64_t acc = t + 1;
  acc = run_ops(p, s.prologue, m, t, acc);
  for (std::uint32_t r = 0; r < s.reps; ++r)
    acc = run_ops(p, s.body, m, t, acc);
  return run_ops(p, s.epilogue, m, t, acc);
}

double run_base(const Inputs& in, std::uint64_t& sink) {
  std::mutex mu;
  std::vector<std::uint64_t> acc(kThreads);
  const std::uint64_t t0 = trace::now_ns();
  {
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        Bare p{&mu};
        acc[t] = run_thread(p, in.schedules[t], in.mem, t);
      });
    for (auto& th : threads) th.join();
  }
  const double s = secs(t0, trace::now_ns());
  for (const std::uint64_t a : acc) sink += a;
  return s;
}

/// Counters the traced pass must reproduce exactly. The detector's own
/// same-epoch hits are left out: on a live run they depend on the order in
/// which threads first touch shared lines (that order decides dyngran's
/// clock sharing, and span pre-marking follows the sharing).
struct Fingerprint {
  std::uint64_t events_seen = 0;
  std::uint64_t fast_path_filtered = 0;
  std::uint64_t shared = 0;
  std::set<Addr> races;  // racy-slot offsets; reports elsewhere add ~0
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

struct Pair {
  double setup_s = 0;
  double base_s = 0;
  double secs = 0;  // the instrumented run
  std::uint64_t events = 0;
  dg::RuntimeStats rs;
  DetSummary det;
  Fingerprint print;
};

/// One measured pair. The set-up (inputs, detector, runtime) is timed;
/// the instrumented run is timed from thread creation until finish().
Pair run_pair(const Options& o, bool contended, bool traced, bool base_first,
              std::uint64_t& sink, Outcome& out) {
  Pair pr;
  const std::uint64_t t0 = trace::now_ns();
  Inputs in(contended, o.wl_seed);
  dg::DynGranConfig cfg;
  cfg.shards = kShards;
  dg::DynGranDetector det(cfg);
  TimedDetector timed(det, traced);
  dg::rt::RuntimeOptions ro;
  ro.mode = dg::rt::RuntimeOptions::Mode::kSharded;
  ro.sampling = "off";
  ro.mem_budget_bytes = 0;
  dg::rt::Runtime rtm(traced ? static_cast<dg::Detector&>(timed) : det, ro);
  rtm.register_current_thread(dg::kInvalidThread);
  dg::rt::Mutex mu(rtm);
  pr.setup_s = secs(t0, trace::now_ns());
  pr.events = in.events;

  if (base_first) pr.base_s = run_base(in, sink);
  std::vector<std::uint64_t> acc(kThreads);
  const std::uint64_t i0 = trace::now_ns();
  {
    trace::Scope pass("live.run", traced);
    std::vector<std::unique_ptr<dg::rt::Thread>> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t)
      threads.push_back(std::make_unique<dg::rt::Thread>(
          rtm, [&, t](dg::rt::ThreadCtx& ctx) {
            trace::Scope body("rt.thread_body", traced);
            if (traced) {
              Traced p{{&ctx, &mu}};
              acc[t] = run_thread(p, in.schedules[t], in.mem, t);
            } else {
              Instrumented p{&ctx, &mu};
              acc[t] = run_thread(p, in.schedules[t], in.mem, t);
            }
            body.set_events(in.schedules[t].events);
          }));
    for (auto& th : threads) th->join();
    rtm.finish();
    pass.set_events(in.events);
  }
  pr.secs = secs(i0, trace::now_ns());
  for (const std::uint64_t a : acc) sink += a;
  if (!base_first) pr.base_s = run_base(in, sink);

  pr.rs = rtm.stats();
  pr.det.add(det);
  pr.print.events_seen = pr.rs.events_seen;
  pr.print.fast_path_filtered = pr.rs.fast_path_filtered;
  pr.print.shared = det.stats().shared_accesses.load();

  // Correctness: one operation per pair.
  ++out.attempted;
  std::string why;
  if (rtm.options().mode != dg::rt::RuntimeOptions::Mode::kSharded)
    why = "runtime fell back from kSharded";
  else if (pr.rs.dropped_events != 0)
    why = "runtime dropped " + std::to_string(pr.rs.dropped_events) + " events";
  const Addr racy_lo = reinterpret_cast<Addr>(in.mem.region(kRacy));
  const Addr racy_hi = racy_lo + kRacySlots * 8;
  for (const dg::RaceReport& r : det.sink().reports()) {
    if (!contended || r.addr < racy_lo || r.addr >= racy_hi) {
      if (why.empty()) why = "race reported outside the racy region";
      pr.print.races.insert(~Addr{0});
    } else {
      pr.print.races.insert((r.addr - racy_lo) / 8 * 8);
    }
  }
  if (why.empty() && contended && pr.print.races.size() != kRacySlots)
    why = "only " + std::to_string(pr.print.races.size()) + " of " +
          std::to_string(kRacySlots) + " racy slots reported";
  if (!why.empty()) out.fail(why);
  return pr;
}

}  // namespace

Outcome run_live(const Options& o, bool contended) {
  Outcome out;
  std::vector<Pair> plain, traced;
  std::uint64_t sink = 0;
  {
    Outcome scratch;  // warm-up pair, discarded
    run_pair(o, contended, false, false, sink, scratch);
  }
  measure(
      o,
      [&](bool t, std::size_t n) {
        return run_pair(o, contended, t, n % 2 == 1, sink, out);
      },
      plain, traced);
  out.note("passes", std::to_string(plain.size()));
  // Printed so the base run's loads and stores cannot be optimized away.
  out.note("checksum", std::to_string(sink));

  std::vector<double> setup, slowdown, eps, peak;
  for (const Pair& p : plain) {
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
  const Pair& tp = traced.front();
  const auto spans = trace::totals();
  set_detector_layers(out, tp.det, spans);
  const trace::Totals call = trace::find(spans, "rt.call");
  std::uint64_t hwm = 0;
  for (const auto& r : tp.rs.rings) hwm = std::max(hwm, r.depth_hwm);
  out.set("rt.events_seen", static_cast<double>(tp.rs.events_seen));
  out.set("rt.call_ns", call.mean_ns());
  out.set("rt.self_ns", call.spans == 0 ? 0.0
                                        : static_cast<double>(call.self_ns) /
                                              static_cast<double>(call.spans));
  out.set("rt.sync_call_ns", trace::find(spans, "rt.sync_call").mean_ns());
  out.set("rt.fast_path_pct", tp.rs.fast_path_pct());
  out.set("rt.events_per_lock", tp.rs.events_per_lock());
  out.set("rt.flushes", static_cast<double>(tp.rs.flushes));
  out.set("rt.lock_acquisitions", static_cast<double>(tp.rs.lock_acquisitions));
  out.set("rt.avg_drain_ns", tp.rs.avg_drain_ns());
  out.set("rt.max_drain_ns", static_cast<double>(tp.rs.max_drain_ns));
  out.set("rt.ring_depth_hwm", static_cast<double>(hwm));
  out.set("rt.backpressure_stalls",
          static_cast<double>(tp.rs.backpressure_stalls));
  out.set("rt.dropped_events", static_cast<double>(tp.rs.dropped_events));
  return out;
}

}  // namespace perfbench
