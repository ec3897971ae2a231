#include "service/analysis_service.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include <signal.h>
#include <unistd.h>

#include "report/crash_flush.hpp"
#include "report/report_store.hpp"

namespace dg::service {

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SlotState slot_state(const ProducerSlot& s) {
  return static_cast<SlotState>(s.state.load(std::memory_order_acquire));
}
}  // namespace

AnalysisService::AnalysisService(Detector& det, ServiceOptions opts)
    : det_(&det), opts_(opts) {
  const std::uint32_t cap = std::min(kMaxDrainers, kMaxCombinerPublishers);
  opts_.drainers = std::clamp<std::uint32_t>(opts_.drainers, 1, cap);
  // A detector without internal locking is a single-threaded consumer:
  // one drainer delivers everything (the combiner degenerates to a
  // pass-through on one publisher).
  if (!det_->supports_concurrent_delivery()) opts_.drainers = 1;
  if (opts_.stage_flush_threshold == 0) opts_.stage_flush_threshold = 1;
}

AnalysisService::~AnalysisService() {
  stop();
  seg_.close();
}

bool AnalysisService::start(const std::string& path, std::string* error) {
  if (started_) {
    if (error != nullptr) *error = "service already started";
    return false;
  }
  if (!seg_.create(path, error)) return false;

  if (det_->supports_concurrent_delivery() && opts_.drainers > 1) {
    det_->set_concurrent_delivery(true);
    concurrent_set_ = true;
  }
  smap_ = det_->shard_map();
  if (smap_.count == 0) smap_.count = 1;
  combiner_ = std::make_unique<FlatCombiner>(*det_, smap_.count,
                                             opts_.drainers);

  slot_ctx_ = std::make_unique<SlotCtx[]>(kMaxProducers);
  for (std::uint32_t s = 0; s < kMaxProducers; ++s) {
    slot_ctx_[s].slot = s;
    slot_ctx_[s].staged.resize(smap_.count);
  }

  if (opts_.mem_budget_bytes != 0) {
    govern::GovernorConfig gcfg;
    gcfg.mem_budget_bytes = opts_.mem_budget_bytes;
    gov_ = std::make_unique<govern::Governor>(det_->accountant(), gcfg);
    det_->set_governor(gov_.get());
  }

  // Crash-safe reporting, same wiring as the in-process runtime: a fatal
  // signal in the daemon still publishes every race found so far.
  det_->sink().enable_crash_capture();
  CrashReporter::instance().arm();

  seg_.header().num_drainers.store(opts_.drainers, std::memory_order_release);
  // Register daemon liveness before any producer can attach: wait_go and
  // push_n bound their waits on this pid + heartbeat.
  seg_.header().daemon_pid.store(static_cast<std::uint32_t>(::getpid()),
                                 std::memory_order_release);
  seg_.header().daemon_heartbeat.fetch_add(1, std::memory_order_relaxed);
  drainers_.reserve(opts_.drainers);
  for (std::uint32_t d = 0; d < opts_.drainers; ++d)
    drainers_.emplace_back([this, d] { drainer_loop(d); });
  started_ = true;
  running_ = true;
  return true;
}

bool AnalysisService::wait_producers(std::uint32_t n,
                                     std::uint32_t timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  SegmentLayout& l = seg_.layout();
  while (true) {
    std::uint32_t attached = 0;
    for (std::uint32_t s = 0; s < kMaxProducers; ++s)
      if (slot_state(l.slots[s]) != SlotState::kFree) ++attached;
    if (attached >= n) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void AnalysisService::open_gate() {
  seg_.header().go.store(1, std::memory_order_release);
}

void AnalysisService::stop(std::uint32_t timeout_ms) {
  if (!running_) return;
  SegmentHeader& h = seg_.header();
  // Ensure no producer stays blocked in wait_go() forever.
  open_gate();

  // Phase 1: give attached producers until the deadline to finish their
  // streams; the drainers retire each slot as it empties.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  SegmentLayout& l = seg_.layout();
  while (std::chrono::steady_clock::now() < deadline) {
    bool outstanding = false;
    for (std::uint32_t s = 0; s < kMaxProducers; ++s) {
      const SlotState st = slot_state(l.slots[s]);
      if (st == SlotState::kAttached || st == SlotState::kFinished ||
          st == SlotState::kCrashed)
        outstanding = true;
    }
    if (!outstanding) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Phase 2: hard stop. Producers' push() starts failing; drainers run one
  // final pass over every ring, then exit.
  h.shutdown.store(1, std::memory_order_release);
  for (std::uint32_t d = 0; d < kMaxDrainers; ++d) {
    h.parked[d].store(0, std::memory_order_relaxed);
    doorbell_wake(h.parked[d]);
  }
  for (std::thread& t : drainers_) t.join();
  drainers_.clear();

  det_->on_finish();
  publish_telemetry();
  CrashReporter::instance().disarm();
  if (gov_ != nullptr) det_->set_governor(nullptr);
  if (concurrent_set_) det_->set_concurrent_delivery(false);
  running_ = false;
}

ServiceStats AnalysisService::stats() const {
  ServiceStats out;
  if (!seg_.valid()) return out;
  const SegmentLayout& l = seg_.layout();
  for (std::uint32_t s = 0; s < kMaxProducers; ++s) {
    const ProducerSlot& c = l.slots[s];
    if (slot_state(c) != SlotState::kFree) ++out.producers_seen;
    out.events_total += c.drained.load(std::memory_order_relaxed);
    out.filtered += c.filtered.load(std::memory_order_relaxed);
    out.quarantined += c.quarantined.load(std::memory_order_relaxed);
    out.dropped += c.dropped.load(std::memory_order_relaxed);
    out.drains += c.drains.load(std::memory_order_relaxed);
    out.drain_ns += c.drain_ns.load(std::memory_order_relaxed);
    out.max_drain_ns = std::max(
        out.max_drain_ns, c.max_drain_ns.load(std::memory_order_relaxed));
  }
  // Reclaimed slots were zeroed for reuse; their final tallies live in the
  // crash log. Fold them back in so aggregates never go backwards.
  {
    std::lock_guard<std::mutex> lk(crash_mu_);
    const SegmentHeader& hc = l.header;
    const std::uint32_t n = std::min(
        hc.crash_count.load(std::memory_order_acquire), kCrashLogCapacity);
    for (std::uint32_t i = 0; i < n; ++i) {
      out.events_total += hc.crash_log[i].drained;
      out.producers_seen += 1;
    }
  }
  if (combiner_ != nullptr) {
    out.combines = combiner_->combines();
    out.combined_batches = combiner_->combined_batches();
    out.piggybacked = combiner_->piggybacked();
  }
  const SegmentHeader& h = l.header;
  out.gc_runs = h.gc_runs.load(std::memory_order_relaxed);
  out.gc_shed_bytes = h.gc_shed_bytes.load(std::memory_order_relaxed);
  out.threads_mapped = next_tid_.load(std::memory_order_relaxed);
  out.producers_crashed = h.producers_crashed.load(std::memory_order_relaxed);
  out.slots_reclaimed = h.slots_reclaimed.load(std::memory_order_relaxed);
  return out;
}

std::uint32_t AnalysisService::active_producers() const {
  if (!seg_.valid()) return 0;
  const SegmentLayout& l = seg_.layout();
  std::uint32_t n = 0;
  for (std::uint32_t s = 0; s < kMaxProducers; ++s) {
    const SlotState st = slot_state(l.slots[s]);
    if (st == SlotState::kAttached || st == SlotState::kFinished ||
        st == SlotState::kCrashed)
      ++n;
  }
  return n;
}

void AnalysisService::publish_telemetry() {
  if (!seg_.valid()) return;
  SegmentLayout& l = seg_.layout();
  SegmentHeader& h = l.header;
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < kMaxProducers; ++s)
    total += l.slots[s].drained.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(crash_mu_);
    const std::uint32_t n = std::min(
        h.crash_count.load(std::memory_order_acquire), kCrashLogCapacity);
    for (std::uint32_t i = 0; i < n; ++i) total += h.crash_log[i].drained;
  }
  h.events_total.store(total, std::memory_order_relaxed);
  h.races_unique.store(det_->sink().unique_races(), std::memory_order_relaxed);
  const MemoryAccountant& acct = det_->accountant();
  h.shadow_bytes.store(acct.current_total(), std::memory_order_relaxed);
  h.shadow_peak.store(acct.peak_total(), std::memory_order_relaxed);
}

AnalysisService::ThreadCtx& AnalysisService::ensure_thread(std::uint32_t d,
                                                           SlotCtx& ctx,
                                                           ThreadId local) {
  auto it = ctx.threads.find(local);
  if (it != ctx.threads.end()) return it->second;
  // First sighting without an explicit kThreadStart (defensive: a trace
  // should always announce its threads): synthesize a parentless start.
  ThreadCtx& tc = ctx.threads[local];
  tc.global = next_tid_.fetch_add(1, std::memory_order_relaxed);
  if (opts_.filter_same_epoch)
    tc.bitmap = std::make_unique<EpochBitmap>(bitmap_acct_);
  flush_staged(d, ctx);
  det_->on_thread_start(tc.global, kInvalidThread);
  refresh_serial(tc);
  return tc;
}

void AnalysisService::refresh_serial(ThreadCtx& tc) {
  tc.serial = opts_.filter_same_epoch
                  ? det_->same_epoch_serial(tc.global)
                  : AccessEventSink::kNoSameEpochSerial;
}

void AnalysisService::flush_staged(std::uint32_t d, SlotCtx& ctx) {
  for (std::uint32_t shard = 0; shard < smap_.count; ++shard) {
    std::vector<BatchedEvent>& buf = ctx.staged[shard];
    if (buf.empty()) continue;
    combiner_->apply(d, shard, buf.data(), buf.size());
    buf.clear();
  }
}

void AnalysisService::stage_access(SlotCtx& ctx, BatchedEvent::Kind kind,
                                   ThreadId gtid, Addr addr,
                                   std::uint64_t size, std::uint32_t d) {
  // Mirror the runtime's partitioner: split at stripe boundaries so every
  // staged event is confined to one shard (deliver_shard_batch DCHECKs it).
  Addr a = addr;
  const Addr end = addr + size;
  while (a < end) {
    const std::uint32_t shard = smap_.shard_of(a);
    const Addr hi = smap_.stripe_hi(a);
    const Addr stop = end < hi ? end : hi;
    std::vector<BatchedEvent>& buf = ctx.staged[shard];
    buf.push_back(BatchedEvent{kind, gtid, a, stop - a, nullptr});
    if (buf.size() >= opts_.stage_flush_threshold) {
      combiner_->apply(d, shard, buf.data(), buf.size());
      buf.clear();
    }
    a = stop;
  }
}

void AnalysisService::process(std::uint32_t d, SlotCtx& ctx,
                              const rt::TraceEvent* ev, std::size_t n) {
  ProducerSlot& ctl = seg_.layout().slots[ctx.slot];
  // Namespace by the slot's *incarnation* tag, not its index: a reclaimed
  // slot's new producer must never alias its dead predecessor's memory.
  const std::uint32_t tag = ctl.ns_tag.load(std::memory_order_relaxed);
  // The per-event path writes only drainer-private state (§IV-A: the
  // same-epoch check is cheap because it is thread-local). Counts collect
  // here and are published once, after the loop.
  std::uint64_t filtered = 0;
  std::uint64_t quarantined = 0;
  // Runs of same-tid events skip the thread-map lookup. Map nodes never
  // move, so the pointer survives the inserts a thread start makes.
  ThreadCtx* last = nullptr;
  ThreadId last_tid = kInvalidThread;
  const auto thread = [&](ThreadId local) -> ThreadCtx& {
    if (last == nullptr || local != last_tid) {
      last = &ensure_thread(d, ctx, local);
      last_tid = local;
    }
    return *last;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const rt::TraceEvent& e = ev[i];
    // Trust boundary: the producer is an arbitrary external process. A
    // malformed record is quarantined (counted, skipped) instead of being
    // delivered into detector shadow state.
    if (!rt::wire_valid(e, opts_.max_access_size)) {
      ++quarantined;
      continue;
    }
    switch (e.kind) {
      case rt::EventKind::kRead:
      case rt::EventKind::kWrite: {
        if (e.size == 0) break;
        ThreadCtx& tc = thread(e.tid);
        const Addr addr = namespaced(tag, e.addr);
        const AccessType type = e.kind == rt::EventKind::kRead
                                    ? AccessType::kRead
                                    : AccessType::kWrite;
        if (tc.bitmap != nullptr &&
            tc.serial != AccessEventSink::kNoSameEpochSerial &&
            tc.bitmap->test_and_set(addr, e.size, type, tc.serial)) {
          ++filtered;
          break;
        }
        stage_access(ctx, type == AccessType::kRead
                              ? BatchedEvent::Kind::kRead
                              : BatchedEvent::Kind::kWrite,
                     tc.global, addr, e.size, d);
        break;
      }
      case rt::EventKind::kThreadStart: {
        if (ctx.threads.find(e.tid) != ctx.threads.end()) break;  // dup
        ThreadId parent_g = kInvalidThread;
        if (e.aux != kInvalidThread)
          parent_g = thread(static_cast<ThreadId>(e.aux)).global;
        ThreadCtx& tc = ctx.threads[e.tid];
        tc.global = next_tid_.fetch_add(1, std::memory_order_relaxed);
        if (opts_.filter_same_epoch)
          tc.bitmap = std::make_unique<EpochBitmap>(bitmap_acct_);
        flush_staged(d, ctx);
        det_->on_thread_start(tc.global, parent_g);
        refresh_serial(tc);
        // The fork also bumped the parent's clock.
        if (parent_g != kInvalidThread)
          refresh_serial(thread(static_cast<ThreadId>(e.aux)));
        break;
      }
      case rt::EventKind::kThreadJoin: {
        ThreadCtx& joiner = thread(e.tid);
        ThreadCtx& joined = thread(static_cast<ThreadId>(e.aux));
        flush_staged(d, ctx);
        det_->on_thread_join(joiner.global, joined.global);
        refresh_serial(joiner);
        break;
      }
      case rt::EventKind::kAcquire: {
        ThreadCtx& tc = thread(e.tid);
        flush_staged(d, ctx);
        det_->on_acquire(tc.global, namespaced(tag, e.addr));
        refresh_serial(tc);
        break;
      }
      case rt::EventKind::kRelease: {
        ThreadCtx& tc = thread(e.tid);
        flush_staged(d, ctx);
        det_->on_release(tc.global, namespaced(tag, e.addr));
        refresh_serial(tc);
        break;
      }
      case rt::EventKind::kAlloc: {
        ThreadCtx& tc = thread(e.tid);
        flush_staged(d, ctx);
        det_->on_alloc(tc.global, namespaced(tag, e.addr), e.aux);
        break;
      }
      case rt::EventKind::kFree: {
        ThreadCtx& tc = thread(e.tid);
        flush_staged(d, ctx);
        det_->on_free(tc.global, namespaced(tag, e.addr), e.aux);
        break;
      }
      case rt::EventKind::kFinish:
        // Per-producer end-of-stream marker; the single detector-level
        // on_finish is emitted once, at stop().
        flush_staged(d, ctx);
        break;
    }
  }
  if (filtered != 0)
    ctl.filtered.fetch_add(filtered, std::memory_order_relaxed);
  if (quarantined != 0) {
    ctl.quarantined.fetch_add(quarantined, std::memory_order_relaxed);
    seg_.header().quarantined_total.fetch_add(quarantined,
                                              std::memory_order_relaxed);
  }
}

void AnalysisService::count_ingested(std::uint64_t n) {
  // Both counters are shared by every drainer: touch them only when the
  // feature reading them is on.
  if (opts_.gc_every_events != 0)
    events_since_gc_.fetch_add(n, std::memory_order_relaxed);
  if (opts_.die_after_events != 0)
    ingested_.fetch_add(n, std::memory_order_relaxed);
}

void AnalysisService::maybe_gc() {
  if (opts_.gc_every_events == 0) return;
  std::uint64_t cur = events_since_gc_.load(std::memory_order_relaxed);
  if (cur < opts_.gc_every_events) return;
  // CAS claims the GC turn for exactly one drainer.
  if (!events_since_gc_.compare_exchange_strong(cur, 0,
                                                std::memory_order_relaxed))
    return;
  const std::size_t shed = det_->gc_clocks(opts_.gc_cold_generations);
  SegmentHeader& h = seg_.header();
  h.gc_runs.fetch_add(1, std::memory_order_relaxed);
  h.gc_shed_bytes.fetch_add(shed, std::memory_order_relaxed);
}

bool AnalysisService::check_liveness(std::uint32_t d, std::uint64_t now) {
  SegmentLayout& l = seg_.layout();
  const std::uint32_t nd = opts_.drainers;
  bool reclaimed = false;
  for (std::uint32_t s = d; s < kMaxProducers; s += nd) {
    ProducerSlot& ctl = l.slots[s];
    SlotCtx& ctx = slot_ctx_[s];
    if (slot_state(ctl) != SlotState::kAttached) {
      ctx.hb_valid = false;
      continue;
    }
    // A moving heartbeat is proof of life; believe the pid probe only
    // after the beat has been flat across a full poll interval, so a
    // producer observed mid-claim (state set, pid not yet stored) is
    // never declared dead.
    const std::uint64_t hb = ctl.heartbeat.load(std::memory_order_acquire);
    if (!ctx.hb_valid || hb != ctx.hb_seen) {
      ctx.hb_seen = hb;
      ctx.hb_changed_ms = now;
      ctx.hb_valid = true;
      continue;
    }
    if (now - ctx.hb_changed_ms < opts_.liveness_poll_ms) continue;
    const std::uint32_t pid = ctl.pid.load(std::memory_order_acquire);
    if (pid == 0 || pid_alive(pid)) continue;
    reclaim_crashed(d, ctx);
    reclaimed = true;
  }
  return reclaimed;
}

void AnalysisService::reclaim_crashed(std::uint32_t d, SlotCtx& ctx) {
  SegmentLayout& l = seg_.layout();
  SegmentHeader& h = l.header;
  ProducerSlot& ctl = l.slots[ctx.slot];
  ctl.state.store(static_cast<std::uint32_t>(SlotState::kCrashed),
                  std::memory_order_release);
  // Salvage the residue the dead producer already made visible — those
  // events are complete records (the ring publishes with a release store
  // of tail) and belong in the analysis.
  const std::size_t residue = l.rings[ctx.slot].drain(
      [&](const rt::TraceEvent* ev, std::size_t k) { process(d, ctx, ev, k); });
  flush_staged(d, ctx);
  if (residue > 0) {
    ctl.drained.fetch_add(residue, std::memory_order_relaxed);
    count_ingested(residue);
  }

  const std::uint32_t pid = ctl.pid.load(std::memory_order_relaxed);
  const std::uint32_t tag = ctl.ns_tag.load(std::memory_order_relaxed);
  const std::uint32_t gen = ctl.generation.load(std::memory_order_relaxed);
  const std::uint64_t pushed = ctl.pushed.load(std::memory_order_relaxed);
  const std::uint64_t drained = ctl.drained.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(crash_mu_);
    const std::uint32_t n = h.crash_count.load(std::memory_order_relaxed);
    CrashRecord& cr = h.crash_log[n % kCrashLogCapacity];
    cr.slot = ctx.slot;
    cr.pid = pid;
    cr.ns_tag = tag;
    cr.generation = gen;
    cr.pushed = pushed;
    cr.drained = drained;
    cr.residue = residue;
    std::memcpy(cr.spec, ctl.spec, kSpecBytes);
    h.crash_count.store(n + 1, std::memory_order_release);
  }
  h.producers_crashed.fetch_add(1, std::memory_order_relaxed);
  if (opts_.crash_store != nullptr) {
    std::string spec(ctl.spec,
                     ::strnlen(ctl.spec, kSpecBytes));
    opts_.crash_store->record_note(
        "svc:crash",
        "producer pid " + std::to_string(pid) + " (spec '" + spec +
            "') died on slot " + std::to_string(ctx.slot) + " gen " +
            std::to_string(gen) + ": pushed " + std::to_string(pushed) +
            ", drained " + std::to_string(drained) + " (residue " +
            std::to_string(residue) + " salvaged)");
  }

  // Recycle: zero every counter, clear drainer-side ingestion state, and
  // hand the slot a fresh namespace tag so the next occupant can never
  // alias the dead incarnation's memory. kFree is published last.
  ctx.threads.clear();
  for (auto& buf : ctx.staged) buf.clear();
  ctx.hb_valid = false;
  ctl.pushed.store(0, std::memory_order_relaxed);
  ctl.push_hwm.store(0, std::memory_order_relaxed);
  ctl.full_stalls.store(0, std::memory_order_relaxed);
  ctl.heartbeat.store(0, std::memory_order_relaxed);
  ctl.dropped.store(0, std::memory_order_relaxed);
  ctl.drained.store(0, std::memory_order_relaxed);
  ctl.filtered.store(0, std::memory_order_relaxed);
  ctl.quarantined.store(0, std::memory_order_relaxed);
  ctl.drains.store(0, std::memory_order_relaxed);
  ctl.drain_ns.store(0, std::memory_order_relaxed);
  ctl.max_drain_ns.store(0, std::memory_order_relaxed);
  std::memset(ctl.spec, 0, kSpecBytes);
  ctl.pid.store(0, std::memory_order_relaxed);
  ctl.ns_tag.store(h.next_ns_tag.fetch_add(1, std::memory_order_relaxed),
                   std::memory_order_relaxed);
  ctl.generation.fetch_add(1, std::memory_order_relaxed);
  h.slots_reclaimed.fetch_add(1, std::memory_order_relaxed);
  ctl.state.store(static_cast<std::uint32_t>(SlotState::kFree),
                  std::memory_order_release);
}

void AnalysisService::drainer_loop(std::uint32_t d) {
  SegmentLayout& l = seg_.layout();
  SegmentHeader& h = l.header;
  const std::uint32_t nd = opts_.drainers;
  std::uint64_t last_poll_ms = now_ms();
  while (true) {
    h.daemon_heartbeat.fetch_add(1, std::memory_order_relaxed);
    bool progress = false;
    for (std::uint32_t s = d; s < kMaxProducers; s += nd) {
      ProducerSlot& ctl = l.slots[s];
      const SlotState st = slot_state(ctl);
      if (st != SlotState::kAttached && st != SlotState::kFinished) continue;
      SlotCtx& ctx = slot_ctx_[s];
      const std::uint64_t t0 = now_ns();
      const std::size_t got = l.rings[s].drain(
          [&](const rt::TraceEvent* ev, std::size_t k) {
            process(d, ctx, ev, k);
          });
      if (got > 0) {
        flush_staged(d, ctx);
        const std::uint64_t ns = now_ns() - t0;
        ctl.drained.fetch_add(got, std::memory_order_relaxed);
        ctl.drains.fetch_add(1, std::memory_order_relaxed);
        ctl.drain_ns.fetch_add(ns, std::memory_order_relaxed);
        if (ns > ctl.max_drain_ns.load(std::memory_order_relaxed))
          ctl.max_drain_ns.store(ns, std::memory_order_relaxed);
        count_ingested(got);
        progress = true;
      }
      // Retire the slot once its producer finished and the ring is empty.
      if (slot_state(ctl) == SlotState::kFinished && l.rings[s].size() == 0) {
        flush_staged(d, ctx);
        ctl.state.store(static_cast<std::uint32_t>(SlotState::kDrained),
                        std::memory_order_release);
        progress = true;
      }
    }
    // Fault injection: the chaos harness asks the daemon to die under
    // load, exactly as if the OOM killer had picked it.
    if (opts_.die_after_events != 0 &&
        ingested_.load(std::memory_order_relaxed) >= opts_.die_after_events)
      ::kill(::getpid(), SIGKILL);
    if (opts_.liveness_poll_ms != 0) {
      const std::uint64_t now = now_ms();
      if (now - last_poll_ms >= opts_.liveness_poll_ms) {
        last_poll_ms = now;
        if (check_liveness(d, now)) progress = true;
      }
    }
    maybe_gc();
    if (h.shutdown.load(std::memory_order_acquire) != 0) {
      if (progress) continue;  // drain until dry, then exit
      for (std::uint32_t s = d; s < kMaxProducers; s += nd) {
        ProducerSlot& ctl = l.slots[s];
        const SlotState st = slot_state(ctl);
        if (st == SlotState::kAttached || st == SlotState::kFinished) {
          flush_staged(d, slot_ctx_[s]);
          ctl.state.store(static_cast<std::uint32_t>(SlotState::kDrained),
                          std::memory_order_release);
        }
      }
      break;
    }
    if (!progress) {
      if (d == 0) publish_telemetry();
      std::atomic<std::uint32_t>& bell = h.parked[d];
      bell.store(1, std::memory_order_seq_cst);
      // Re-check after publishing the parked flag so a push that raced
      // with it cannot be lost (the producer reads parked==1 after its
      // release store of tail).
      bool pending = h.shutdown.load(std::memory_order_acquire) != 0;
      for (std::uint32_t s = d; !pending && s < kMaxProducers; s += nd) {
        const SlotState st = slot_state(l.slots[s]);
        if ((st == SlotState::kAttached || st == SlotState::kFinished) &&
            l.rings[s].size() > 0)
          pending = true;
      }
      if (pending) {
        bell.store(0, std::memory_order_relaxed);
        continue;
      }
      doorbell_wait(bell, 1, /*timeout_ms=*/10);
      bell.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace dg::service
