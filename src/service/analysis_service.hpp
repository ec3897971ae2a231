// AnalysisService — the resident detection loop behind dgtraced
// (DESIGN.md §5.5).
//
// The service owns a shared-memory segment (shm_segment.hpp) and a pool of
// drainer threads. Producer slot s belongs to drainer s % drainers; each
// drainer turns its slots' rt::TraceEvent streams into detector deliveries:
//
//   * read/write   — tier-1 same-epoch filtered (a drainer-owned
//                    EpochBitmap per ingested thread, keyed by the
//                    detector's epoch serial), then staged into per-shard
//                    buffers split at stripe boundaries and applied through
//                    the FlatCombiner (combiner.hpp).
//   * sync events  — thread start/join, acquire/release, alloc/free flush
//                    the staged accesses first (program order), then go
//                    straight to the detector's exclusive sync domain.
//   * finish       — end-of-stream marker per producer; the service emits
//                    a single Detector::on_finish at stop().
//
// Identity mapping: producer-local thread ids are remapped to dense
// service-global ids (vector clocks stay small); addresses and sync ids
// are namespaced per producer slot — (slot+1) << 48 | low 48 bits — so
// independent processes can never alias each other's memory. Results are
// therefore the union of per-producer analyses, deterministic regardless
// of drain interleaving.
//
// The per-access path writes no shared memory: filter and quarantine
// counts are published to the slot once per drain call, so mid-run they
// may lag by one call; they are exact once stop() returns.
//
// Memory stays bounded two ways: the PR-5 pressure governor (optional
// budget) and the epoch GC — every gc_every_events ingested events a
// drainer calls Detector::gc_clocks, losslessly compacting clocks of
// shadow state cold for gc_cold_generations generations.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "detect/detector.hpp"
#include "govern/governor.hpp"
#include "service/combiner.hpp"
#include "service/shm_segment.hpp"
#include "shadow/epoch_bitmap.hpp"

namespace dg {
class ReportStore;
}  // namespace dg

namespace dg::service {

struct ServiceOptions {
  /// Drainer threads (clamped to [1, kMaxDrainers]).
  std::uint32_t drainers = 2;
  /// Ingested events between epoch-GC passes; 0 disables the GC.
  std::uint64_t gc_every_events = 0;
  /// A shadow block must be untouched for this many GC generations before
  /// its clocks are compacted.
  std::uint32_t gc_cold_generations = 2;
  /// Consumer-side same-epoch filter (the paper's §IV-A bitmap, run by the
  /// drainer instead of the producer).
  bool filter_same_epoch = true;
  /// Detector memory budget for the pressure governor; 0 = ungoverned.
  std::size_t mem_budget_bytes = 0;
  /// Staged accesses per shard before an early combiner flush.
  std::size_t stage_flush_threshold = 4096;
  /// How often each drainer probes its slots' producer liveness
  /// (heartbeat + pid); 0 disables crash detection and reclamation.
  std::uint32_t liveness_poll_ms = 200;
  /// Consumer-side validation bound: read/write events larger than this
  /// are quarantined (rt::wire_valid).
  std::uint32_t max_access_size = 4096;
  /// Fault injection (FaultPlan `die-after`): SIGKILL the daemon process
  /// once this many events have been ingested. 0 = never.
  std::uint64_t die_after_events = 0;
  /// Optional store receiving one operational note per reclaimed producer
  /// (site label "svc:crash"); must outlive the service.
  ReportStore* crash_store = nullptr;
};

/// Aggregated service-side telemetry (per-producer detail lives in the
/// segment's ProducerSlot counters).
struct ServiceStats {
  std::uint64_t events_total = 0;    ///< events ingested from all rings
  std::uint64_t filtered = 0;        ///< dropped by the same-epoch tier
  std::uint64_t drains = 0;          ///< non-empty ring drains
  std::uint64_t drain_ns = 0;        ///< total wall time inside drains
  std::uint64_t max_drain_ns = 0;    ///< worst single drain
  std::uint64_t combines = 0;        ///< combiner turns taken
  std::uint64_t combined_batches = 0;
  std::uint64_t piggybacked = 0;     ///< batches applied by another drainer
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_shed_bytes = 0;
  std::uint64_t producers_seen = 0;  ///< slots that ever attached
  std::uint64_t threads_mapped = 0;  ///< global thread ids handed out
  std::uint64_t producers_crashed = 0;  ///< dead incarnations detected
  std::uint64_t slots_reclaimed = 0;    ///< slots recycled after a crash
  std::uint64_t quarantined = 0;  ///< malformed events kept from detectors
  std::uint64_t dropped = 0;      ///< producer-side accounted local drops
};

class AnalysisService {
 public:
  /// `det` must outlive the service. For multi-drainer operation it should
  /// support concurrent delivery (DynGranDetector with shards); a
  /// non-concurrent detector degrades to drainers=1.
  explicit AnalysisService(Detector& det, ServiceOptions opts = {});
  ~AnalysisService();

  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// Create the segment at `path` and launch the drainer pool. Producers
  /// can attach immediately but block in wait_go() until open_gate().
  bool start(const std::string& path, std::string* error = nullptr);

  /// Wait until at least `n` producer slots have attached.
  bool wait_producers(std::uint32_t n, std::uint32_t timeout_ms);

  /// Open the streaming gate (header.go = 1).
  void open_gate();

  /// Drain everything outstanding, retire the producers, stop the drainer
  /// pool and deliver the single on_finish. Producers that neither
  /// finished nor disconnected within `timeout_ms` are abandoned (their
  /// undrained tail is dropped and counted). Idempotent.
  void stop(std::uint32_t timeout_ms = 10000);

  bool running() const noexcept { return running_; }
  ShmSegment& segment() noexcept { return seg_; }
  Detector& detector() noexcept { return *det_; }

  ServiceStats stats() const;

  /// Producer slots with undrained work: kAttached, kFinished, or mid-
  /// reclamation (kCrashed).
  std::uint32_t active_producers() const;

  /// Address/sync-id namespacing by incarnation tag (tag+1 so tag 0 never
  /// collides with in-process addresses when comparing traces). A slot's
  /// first incarnation has tag == slot index; reclaimed slots get fresh
  /// tags from SegmentHeader::next_ns_tag.
  static Addr namespaced(std::uint32_t tag, std::uint64_t raw) noexcept {
    constexpr std::uint64_t kLowMask = (std::uint64_t{1} << 48) - 1;
    return ((static_cast<std::uint64_t>(tag) + 1) << 48) | (raw & kLowMask);
  }

 private:
  /// Drainer-private ingestion state for one ingested thread.
  struct ThreadCtx {
    ThreadId global = kInvalidThread;
    std::uint64_t serial = AccessEventSink::kNoSameEpochSerial;
    std::unique_ptr<EpochBitmap> bitmap;
  };

  /// Drainer-private state for one producer slot (slots are partitioned
  /// across drainers, so none of this needs locking).
  struct SlotCtx {
    std::uint32_t slot = 0;
    std::unordered_map<ThreadId, ThreadCtx> threads;  // local tid -> ctx
    std::vector<std::vector<BatchedEvent>> staged;    // one per shard
    // Producer-liveness tracking (crash detection needs the heartbeat to
    // be flat across two polls before the pid probe is believed — a
    // producer observed mid-claim must not be declared dead).
    std::uint64_t hb_seen = 0;
    std::uint64_t hb_changed_ms = 0;
    bool hb_valid = false;
  };

  void drainer_loop(std::uint32_t d);
  /// Probe this drainer's kAttached slots; reclaim any whose producer
  /// died. Returns true if a slot was reclaimed (progress).
  bool check_liveness(std::uint32_t d, std::uint64_t now);
  /// kCrashed -> drain residue -> crash record -> reset -> kFree.
  void reclaim_crashed(std::uint32_t d, SlotCtx& ctx);
  void process(std::uint32_t d, SlotCtx& ctx, const rt::TraceEvent* ev,
               std::size_t n);
  /// Account `n` drained events to the GC and die-after triggers.
  void count_ingested(std::uint64_t n);
  void flush_staged(std::uint32_t d, SlotCtx& ctx);
  ThreadCtx& ensure_thread(std::uint32_t d, SlotCtx& ctx, ThreadId local);
  void refresh_serial(ThreadCtx& tc);
  void stage_access(SlotCtx& ctx, BatchedEvent::Kind kind, ThreadId gtid,
                    Addr addr, std::uint64_t size, std::uint32_t d);
  void maybe_gc();
  void publish_telemetry();

  Detector* det_;
  ServiceOptions opts_;
  ShmSegment seg_;
  ShardMap smap_;
  std::unique_ptr<FlatCombiner> combiner_;
  std::unique_ptr<govern::Governor> gov_;
  std::vector<std::thread> drainers_;
  std::unique_ptr<SlotCtx[]> slot_ctx_;
  /// Bitmap storage for the consumer-side filter is charged here, not to
  /// the detector's accountant: the governor budget covers shadow state,
  /// not the service's own plumbing.
  MemoryAccountant bitmap_acct_;

  std::atomic<std::uint32_t> next_tid_{0};
  std::atomic<std::uint64_t> events_since_gc_{0};
  std::atomic<std::uint64_t> ingested_{0};
  /// Serializes writers of the segment's crash log (drainers of different
  /// slots can crash-reclaim concurrently) and in-process readers; cross-
  /// process readers stay lock-free on the acquire-published crash_count.
  mutable std::mutex crash_mu_;
  bool concurrent_set_ = false;
  bool running_ = false;
  bool started_ = false;
};

}  // namespace dg::service
