// Shared-memory ingestion segment (DESIGN.md §5.5).
//
// A resident dgtraced service creates one file-backed segment; up to
// kMaxProducers external processes attach, claim a producer slot, and
// stream fixed-layout 24-byte rt::TraceEvent records through their slot's
// SpscRing. The ring protocol is the same release/acquire SPSC code the
// in-process runtime uses (rt/spsc_ring.hpp) — std::atomic is address-free
// on the supported targets, so the pairing works across two mappings of
// the same pages.
//
// Segment layout, format v3 (all standard-layout, placement-new'ed by the
// creator):
//
//   SegmentHeader          magic/version/geometry, go + shutdown flags,
//                          drainer doorbells, service-level telemetry
//   ProducerSlot[N]        per-producer control block: claim state, spec
//                          string, producer- and drainer-side counters
//                          (one cache line each)
//   ProducerRing[N]        SpscRing<rt::TraceEvent, 16384> per producer
//
// Doorbells: a drainer that finds all its rings empty parks on a futex
// word in the header; a producer's push wakes it (plain FUTEX_WAIT/WAKE —
// not the PRIVATE variants, which do not cross processes). Non-Linux
// builds fall back to a short sleep, preserving behaviour at a latency
// cost.
//
// The wire format carries no pointers: site labels cannot cross an
// address-space boundary, so service-side reports attribute races by
// address + thread only (site fields stay empty).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "rt/spsc_ring.hpp"
#include "rt/trace.hpp"

namespace dg::service {

inline constexpr std::uint64_t kSegmentMagic = 0x44474e5345473031ULL;  // DGNSEG01

// v2: producer/daemon heartbeats, crash log, slot reclamation (kCrashed),
// per-incarnation namespace tags, quarantine/drop accounting.
// v3: ProducerSlot's producer-written and drainer-written counters sit on
// separate cache lines (the slot grew, so v2 and v3 builds refuse each
// other through the version check).
inline constexpr std::uint32_t kSegmentVersion = 3;
inline constexpr std::size_t kCacheLine = 64;
inline constexpr std::uint32_t kMaxProducers = 16;
inline constexpr std::uint32_t kMaxDrainers = 8;
inline constexpr std::size_t kShmRingCapacity = 16384;
inline constexpr std::size_t kSpecBytes = 96;
inline constexpr std::uint32_t kCrashLogCapacity = 32;

using ProducerRing = rt::SpscRing<rt::TraceEvent, kShmRingCapacity>;

/// Producer slot lifecycle: claimed by a CAS on `state`.
enum class SlotState : std::uint32_t {
  kFree = 0,
  kAttached = 1,  // producer streaming
  kFinished = 2,  // producer pushed its last event
  kDrained = 3,   // service consumed everything (terminal)
  kCrashed = 4,   // producer died mid-stream; drainer is reclaiming
};

const char* to_string(SlotState s) noexcept;

struct ProducerSlot {
  std::atomic<std::uint32_t> state{0};  // SlotState
  std::atomic<std::uint32_t> pid{0};
  /// Address/sync-id namespace tag for the current incarnation of this
  /// slot. Starts equal to the slot index; every reclamation assigns a
  /// fresh tag from SegmentHeader::next_ns_tag so a recycled slot can
  /// never alias its dead predecessor's memory.
  std::atomic<std::uint32_t> ns_tag{0};
  /// Incarnation counter, bumped on every reclamation.
  std::atomic<std::uint32_t> generation{0};
  // Self-description written by the producer before it sets kAttached
  // (workload spec, used by dgtraced --parity to rebuild the stream).
  char spec[kSpecBytes] = {};

  // Producer-side counters (single writer: the producer). They own their
  // cache line: the producer bumps them on every push, and a line shared
  // with the drainer's counters would bounce on every drain.
  alignas(kCacheLine) std::atomic<std::uint64_t> pushed{0};
  std::atomic<std::uint64_t> push_hwm{0};     // max ring depth seen at push
  std::atomic<std::uint64_t> full_stalls{0};  // pushes that found it full
  /// Liveness beacon: bumped by the producer on every push iteration and
  /// wait loop. A stagnant heartbeat plus a dead pid marks the slot
  /// kCrashed.
  std::atomic<std::uint64_t> heartbeat{0};
  /// Events the producer dropped locally after declaring the daemon dead
  /// (bounded backoff instead of an unbounded full-ring hang).
  std::atomic<std::uint64_t> dropped{0};

  // Drainer-side counters (single writer: the owning drainer), on their
  // own cache line. `filtered` and `quarantined` are published once per
  // drain call, so mid-run they may lag by one call; exact after stop().
  alignas(kCacheLine) std::atomic<std::uint64_t> drained{0};  // ring events
  std::atomic<std::uint64_t> filtered{0};   // dropped by the same-epoch tier
  std::atomic<std::uint64_t> quarantined{0};  // malformed events rejected
  std::atomic<std::uint64_t> drains{0};     // non-empty ring drains
  std::atomic<std::uint64_t> drain_ns{0};   // total time inside drains
  std::atomic<std::uint64_t> max_drain_ns{0};
};

// v3 layout guards: producer-written and drainer-written counters never
// share a cache line.
static_assert(offsetof(ProducerSlot, pushed) % kCacheLine == 0);
static_assert(offsetof(ProducerSlot, drained) % kCacheLine == 0);
static_assert(offsetof(ProducerSlot, dropped) + sizeof(std::uint64_t) <=
                  offsetof(ProducerSlot, drained),
              "producer counters must end before the drainer line");
static_assert(offsetof(ProducerSlot, dropped) / kCacheLine ==
                  offsetof(ProducerSlot, pushed) / kCacheLine,
              "producer counters must fit one line");
static_assert(offsetof(ProducerSlot, max_drain_ns) / kCacheLine ==
                  offsetof(ProducerSlot, drained) / kCacheLine,
              "drainer counters must fit one line");

/// One reclaimed-producer post-mortem, written by the owning drainer
/// before the publishing store of SegmentHeader::crash_count.
struct CrashRecord {
  std::uint32_t slot = 0;
  std::uint32_t pid = 0;
  std::uint32_t ns_tag = 0;
  std::uint32_t generation = 0;
  std::uint64_t pushed = 0;    // producer-side count at death
  std::uint64_t drained = 0;   // total the service consumed (incl. residue)
  std::uint64_t residue = 0;   // events salvaged from the ring post-mortem
  char spec[kSpecBytes] = {};
};

struct SegmentHeader {
  std::uint64_t magic = 0;  // written last by the creator (release)
  std::uint32_t version = 0;
  std::uint32_t max_producers = 0;
  std::uint64_t ring_capacity = 0;
  std::atomic<std::uint32_t> ready{0};     // creator finished initializing
  std::atomic<std::uint32_t> go{0};        // producers may start streaming
  std::atomic<std::uint32_t> shutdown{0};  // service asks producers to stop
  std::atomic<std::uint32_t> num_drainers{1};

  /// Daemon liveness: pid of the creating service process plus a counter
  /// every drainer bumps each loop iteration. Producers bound their waits
  /// on these instead of hanging on a dead daemon.
  std::atomic<std::uint32_t> daemon_pid{0};
  std::atomic<std::uint64_t> daemon_heartbeat{0};

  /// Namespace-tag allocator for reclaimed slots (starts past the last
  /// slot index so recycled tags never collide with first incarnations).
  std::atomic<std::uint32_t> next_ns_tag{kMaxProducers};

  // One doorbell per drainer: 1 = parked (producers wake it after a push).
  std::atomic<std::uint32_t> parked[kMaxDrainers] = {};

  // Service-level telemetry, refreshed by the service (dgtrace connect
  // --stats and the daemon's exit banner read it).
  std::atomic<std::uint64_t> events_total{0};
  std::atomic<std::uint64_t> races_unique{0};
  std::atomic<std::uint64_t> shadow_bytes{0};
  std::atomic<std::uint64_t> shadow_peak{0};
  std::atomic<std::uint64_t> gc_runs{0};
  std::atomic<std::uint64_t> gc_shed_bytes{0};

  // Fault-tolerance telemetry (survive in the file after the daemon
  // exits, so post-mortem `dgtrace svc-stats` sees them).
  std::atomic<std::uint64_t> producers_crashed{0};
  std::atomic<std::uint64_t> slots_reclaimed{0};
  std::atomic<std::uint64_t> quarantined_total{0};
  std::atomic<std::uint64_t> dropped_total{0};

  /// Crash log ring: `crash_count` entries, newest overwriting the oldest
  /// past kCrashLogCapacity. Writers fill the record, then publish with a
  /// release store of crash_count; readers load crash_count acquire.
  std::atomic<std::uint32_t> crash_count{0};
  CrashRecord crash_log[kCrashLogCapacity] = {};
};

/// The whole mapped segment. Placement-new'ed into the mapping by the
/// creator; attachers only validate and use it.
struct SegmentLayout {
  SegmentHeader header;
  ProducerSlot slots[kMaxProducers];
  ProducerRing rings[kMaxProducers];
};
static_assert(std::is_standard_layout_v<SegmentLayout>,
              "segment must be placement-constructible into shared memory");

/// Futex-backed doorbell helpers (spin/sleep fallback off Linux).
void doorbell_wait(std::atomic<std::uint32_t>& word, std::uint32_t parked_val,
                   std::uint32_t timeout_ms);
void doorbell_wake(std::atomic<std::uint32_t>& word);

/// Signal-0 probe: true while `pid` names a live process (EPERM counts as
/// alive — the process exists, we just may not signal it). pid 0 probes
/// nothing and returns false.
bool pid_alive(std::uint32_t pid) noexcept;

/// Attach behaviour knobs. Malformed segments (bad magic once published,
/// version skew, geometry mismatch, truncated file) are *always* permanent
/// errors — no amount of retrying fixes them. The grace windows only
/// govern the transient states (file absent, creator still initializing).
struct AttachOptions {
  std::uint32_t timeout_ms = 5000;
  /// File absent: wait at most this long for it to appear, then fail with
  /// an error naming the path. 0 = keep the legacy behaviour of retrying
  /// until timeout_ms.
  std::uint32_t missing_grace_ms = 0;
  /// File present but never published (ready still 0): wait at most this
  /// long before concluding the creator died during initialization.
  /// 0 = retry until timeout_ms.
  std::uint32_t publish_grace_ms = 0;
};

/// Post-mortem summary of a segment file, for `dgtraced --recover` and
/// diagnostics. Produced without validating the segment (a corrupt stale
/// segment must still be classifiable).
struct SegmentAutopsy {
  bool exists = false;      ///< the file is present
  bool mapped = false;      ///< large enough to interpret as SegmentLayout
  bool published = false;   ///< ready flag + magic are intact
  bool version_ok = false;  ///< version matches this build
  std::uint32_t daemon_pid = 0;
  bool daemon_alive = false;  ///< daemon_pid != 0 and the process exists
  bool shutdown = false;
  std::uint32_t slots_attached = 0;  ///< kAttached at time of inspection
  std::uint32_t slots_finished = 0;  ///< kFinished (undrained) slots
  std::uint64_t undrained_events = 0;
  std::uint64_t producers_crashed = 0;
  std::string detail;  ///< human-readable classification

  /// A stale segment: present, but its daemon is gone (or it was never
  /// published at all). Safe to recreate.
  bool stale() const noexcept { return exists && !daemon_alive; }
};

/// Inspect `path` without validating it; never blocks.
SegmentAutopsy inspect_segment(const std::string& path);

/// One mapped segment, creator or attacher side.
class ShmSegment {
 public:
  ShmSegment() = default;
  ~ShmSegment();
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  /// Create + initialize a segment file (truncates an existing one).
  bool create(const std::string& path, std::string* error = nullptr);

  /// Attach to an existing segment, retrying until the creator published
  /// it or `timeout_ms` elapsed. Malformed segments fail immediately.
  bool attach(const std::string& path, std::uint32_t timeout_ms,
              std::string* error = nullptr);

  /// Attach with explicit transient-state grace windows (fail-fast).
  bool attach(const std::string& path, const AttachOptions& opts,
              std::string* error = nullptr);

  /// Map the file with no validation at all (fault-injection tooling and
  /// autopsies). Fails only if the file is absent or too small to map.
  bool attach_raw(const std::string& path, std::string* error = nullptr);

  void close();

  bool valid() const noexcept { return layout_ != nullptr; }
  SegmentLayout& layout() noexcept { return *layout_; }
  const SegmentLayout& layout() const noexcept { return *layout_; }
  SegmentHeader& header() noexcept { return layout_->header; }
  const std::string& path() const noexcept { return path_; }

 private:
  bool map_file(int fd, bool create, std::string* error);

  SegmentLayout* layout_ = nullptr;
  std::string path_;
};

/// Why a producer call returned false (degradation is accounted, not
/// silent: a dead daemon turns pushes into counted local drops).
enum class ProducerStatus : std::uint32_t {
  kOk = 0,
  kShutdown,    // service asked producers to stop
  kDaemonDead,  // daemon pid gone or heartbeat stalled
  kTimeout,     // bounded wait elapsed
};

const char* to_string(ProducerStatus s) noexcept;

/// Producer-side handle: claims a slot and streams events.
class ShmProducer {
 public:
  /// Attach to `path` and claim a free slot. `spec` is the self-description
  /// published in the slot (truncated to kSpecBytes-1). Fails fast — with
  /// an error naming the path — when the segment file is absent, was never
  /// published (creator died before `ready`), is malformed, or its daemon
  /// is already dead.
  bool connect(const std::string& path, const std::string& spec,
               std::uint32_t timeout_ms, std::string* error = nullptr);

  /// Block until the service opens the gate (header.go), or shutdown.
  /// Returns false on shutdown/timeout/daemon death (see last_status()).
  bool wait_go(std::uint32_t timeout_ms);

  /// Push one event, spinning/sleeping while the ring is full. Returns
  /// false if the service signalled shutdown — or died — before space
  /// appeared; undelivered events are accounted in dropped().
  bool push(const rt::TraceEvent& e);

  /// Bulk push; same blocking/degradation contract.
  bool push_n(const rt::TraceEvent* e, std::size_t n);

  /// Mark this producer's stream complete (slot -> kFinished).
  void finish();

  std::uint32_t slot_index() const noexcept { return slot_; }
  ShmSegment& segment() noexcept { return seg_; }

  ProducerStatus last_status() const noexcept { return status_; }
  /// Events this producer dropped locally instead of hanging.
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Daemon heartbeat stall tolerance before declaring it dead (the pid
  /// probe is checked first and is immediate). Mostly for tests.
  void set_daemon_stall_ms(std::uint32_t ms) noexcept {
    daemon_stall_ms_ = ms;
  }

  /// True once the daemon's pid probe fails or its heartbeat has been
  /// flat for longer than the stall tolerance.
  bool daemon_unresponsive();

 private:
  void wake_drainer();
  void beat() noexcept;

  ShmSegment seg_;
  std::uint32_t slot_ = kMaxProducers;
  ProducerSlot* ctl_ = nullptr;
  ProducerRing* ring_ = nullptr;
  ProducerStatus status_ = ProducerStatus::kOk;
  std::uint64_t dropped_ = 0;
  std::uint32_t daemon_stall_ms_ = 5000;
  std::uint64_t last_daemon_hb_ = 0;
  std::uint64_t last_daemon_hb_change_ms_ = 0;
};

}  // namespace dg::service
