// TimedDetector — a forwarding decorator that times the Detector entry
// points from outside for the traced pass.
//
// It forwards the whole delivery surface, not just the event callbacks:
// a decorator that swallowed same_epoch_serial would switch off the
// runtime's tier-1 filter, one that swallowed shard_map or
// supports_concurrent_delivery would change the delivery mode, and the
// traced pass would then describe a different program. The benchmark's
// traced run checks that its counters and race sets equal the untraced
// run's, which is what catches a missing forward.
//
// Timing: single accesses are timed 1-in-kAccessEvery and sync and
// alloc/free events 1-in-kSyncEvery — each always when nested in a sampled
// runtime call, so that call's self time is exact; batches are timed on
// every call. With `timed` false the decorator only forwards.
#pragma once

#include <cstdint>

#include "detect/detector.hpp"
#include "trace.hpp"

namespace perfbench {

class TimedDetector final : public dg::Detector {
 public:
  static constexpr std::uint32_t kAccessEvery = 16;
  static constexpr std::uint32_t kSyncEvery = 8;

  TimedDetector(dg::Detector& inner, bool timed)
      : inner_(&inner), timed_(timed) {}

  const char* name() const override { return inner_->name(); }

  // -- sync domain ------------------------------------------------------
  void on_thread_start(dg::ThreadId t, dg::ThreadId parent) override {
    trace::Scope s("detect.sync", sampled(kSyncEvery));
    inner_->on_thread_start(t, parent);
  }
  void on_thread_join(dg::ThreadId joiner, dg::ThreadId joined) override {
    trace::Scope s("detect.sync", sampled(kSyncEvery));
    inner_->on_thread_join(joiner, joined);
  }
  void on_acquire(dg::ThreadId t, dg::SyncId id) override {
    trace::Scope s("detect.sync", sampled(kSyncEvery));
    inner_->on_acquire(t, id);
  }
  void on_release(dg::ThreadId t, dg::SyncId id) override {
    trace::Scope s("detect.sync", sampled(kSyncEvery));
    inner_->on_release(t, id);
  }
  void on_alloc(dg::ThreadId t, dg::Addr a, std::uint64_t n) override {
    trace::Scope s("detect.alloc_free", sampled(kSyncEvery));
    inner_->on_alloc(t, a, n);
  }
  void on_free(dg::ThreadId t, dg::Addr a, std::uint64_t n) override {
    trace::Scope s("detect.alloc_free", sampled(kSyncEvery));
    inner_->on_free(t, a, n);
  }
  void on_finish() override { inner_->on_finish(); }

  // -- access domain ----------------------------------------------------
  std::uint64_t same_epoch_serial(dg::ThreadId t) const noexcept override {
    return inner_->same_epoch_serial(t);
  }
  void on_read(dg::ThreadId t, dg::Addr a, std::uint32_t n) override {
    trace::Scope s("detect.access", sampled(kAccessEvery));
    inner_->on_read(t, a, n);
  }
  void on_write(dg::ThreadId t, dg::Addr a, std::uint32_t n) override {
    trace::Scope s("detect.access", sampled(kAccessEvery));
    inner_->on_write(t, a, n);
  }
  void set_site(dg::ThreadId t, const char* site) override {
    inner_->set_site(t, site);
  }
  dg::ShardMap shard_map() const noexcept override {
    return inner_->shard_map();
  }
  bool supports_concurrent_delivery() const noexcept override {
    return inner_->supports_concurrent_delivery();
  }
  void set_concurrent_delivery(bool on) override {
    inner_->set_concurrent_delivery(on);
  }

  // -- batch delivery ---------------------------------------------------
  void on_batch(const dg::BatchedEvent* ev, std::size_t n) override {
    trace::Scope s("detect.access", timed_);
    if (timed_) s.set_events(accesses(ev, n));
    inner_->on_batch(ev, n);
  }
  void on_batch_shard(std::uint32_t shard, const dg::BatchedEvent* ev,
                      std::size_t n) override {
    trace::Scope s("detect.access", timed_);
    if (timed_) s.set_events(accesses(ev, n));
    inner_->on_batch_shard(shard, ev, n);
  }
  bool try_on_batch_shard(std::uint32_t shard, const dg::BatchedEvent* ev,
                          std::size_t n) override {
    trace::Scope s("detect.access", timed_);
    const bool done = inner_->try_on_batch_shard(shard, ev, n);
    if (timed_) s.set_events(done ? accesses(ev, n) : 0);
    return done;
  }

  // -- governor, GC and result sinks -------------------------------------
  void set_governor(dg::govern::Governor* g) noexcept override {
    Detector::set_governor(g);
    inner_->set_governor(g);
  }
  std::size_t trim(dg::govern::PressureLevel level) override {
    return inner_->trim(level);
  }
  std::size_t gc_clocks(std::uint32_t cold_generations) override {
    return inner_->gc_clocks(cold_generations);
  }
  dg::ReportSink& sink() noexcept override { return inner_->sink(); }
  dg::DetectorStats& stats() noexcept override { return inner_->stats(); }
  dg::MemoryAccountant& accountant() noexcept override {
    return inner_->accountant();
  }

 private:
  bool sampled(std::uint32_t every) const noexcept {
    return timed_ && (trace::in_sampled_call() || trace::sample(every));
  }

  static std::uint64_t accesses(const dg::BatchedEvent* ev, std::size_t n) {
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < n; ++i)
      k += ev[i].kind == dg::BatchedEvent::Kind::kRead ||
           ev[i].kind == dg::BatchedEvent::Kind::kWrite;
    return k;
  }

  dg::Detector* inner_;
  bool timed_;
};

}  // namespace perfbench
