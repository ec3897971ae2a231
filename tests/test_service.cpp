// AnalysisService / ReportStore coverage (DESIGN.md §5.5): in-process
// end-to-end runs of the shared-memory ingestion path (producer thread +
// drainer pool over a real mmap'ed segment file), parity against a direct
// rt::replay_trace of the same stream, clock-GC shedding, and the
// queryable report store / sink snapshot cursors.
//
// Producers here are std::threads, not forked processes: ShmProducer maps
// the same segment file, so the cross-process protocol is exercised
// through a second mapping either way (micro_service and service_demo
// cover the genuine multi-process deployment).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/memtrack.hpp"
#include "detect/dyngran.hpp"
#include "report/report_sink.hpp"
#include "report/report_store.hpp"
#include "rt/runtime.hpp"
#include "rt/trace.hpp"
#include "service/analysis_service.hpp"
#include "service/fault_plan.hpp"
#include "service/shm_segment.hpp"
#include "shadow/epoch_bitmap.hpp"

// fork() inside a ThreadSanitizer'd multithreaded test is unsupported;
// the fork-based crash simulations skip themselves under tsan.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DG_TEST_TSAN 1
#endif
#endif
#ifndef DG_TEST_TSAN
#define DG_TEST_TSAN 0
#endif

namespace dg {
namespace {

/// A pid guaranteed to be dead: fork a child that exits immediately and
/// reap it. (The pid is not recycled while the test still runs — Linux
/// allocates pids monotonically until wraparound.)
std::uint32_t make_dead_pid() {
  const pid_t c = ::fork();
  if (c == 0) ::_exit(0);
  int status = 0;
  ::waitpid(c, &status, 0);
  return static_cast<std::uint32_t>(c);
}

bool wait_for(const std::function<bool()>& pred, std::uint32_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

constexpr std::uint64_t kLow48 = (std::uint64_t{1} << 48) - 1;

std::string temp_segment(const char* name) {
  return ::testing::TempDir() + "dg_test_service_" + name + "_" +
         std::to_string(::getpid()) + ".dgs";
}

// Two worker threads; `racy` locations written by both with no
// synchronization, `safe` locations only touched under lock 0x10.
std::vector<rt::TraceEvent> racy_trace(unsigned racy, unsigned safe) {
  using rt::EventKind;
  std::vector<rt::TraceEvent> ev;
  ev.push_back({EventKind::kThreadStart, 0, 0, 0, 0, kInvalidThread});
  ev.push_back({EventKind::kThreadStart, 0, 0, 1, 0, 0});
  ev.push_back({EventKind::kThreadStart, 0, 0, 2, 0, 0});
  for (unsigned i = 0; i < racy; ++i) {
    const Addr a = 0x10000 + static_cast<Addr>(i) * 0x1000;
    ev.push_back({EventKind::kWrite, 0, 4, 1, a, 0});
    ev.push_back({EventKind::kWrite, 0, 4, 2, a, 0});
  }
  for (unsigned i = 0; i < safe; ++i) {
    const Addr a = 0x900000 + static_cast<Addr>(i) * 0x1000;
    for (ThreadId t : {ThreadId{1}, ThreadId{2}}) {
      ev.push_back({EventKind::kAcquire, 0, 0, t, 0x10, 0});
      ev.push_back({EventKind::kRead, 0, 4, t, a, 0});
      ev.push_back({EventKind::kWrite, 0, 4, t, a, 0});
      ev.push_back({EventKind::kRelease, 0, 0, t, 0x10, 0});
    }
  }
  ev.push_back({EventKind::kThreadJoin, 0, 0, 0, 0, 1});
  ev.push_back({EventKind::kThreadJoin, 0, 0, 0, 0, 2});
  ev.push_back({EventKind::kFinish, 0, 0, 0, 0, 0});
  return ev;
}

void produce(const std::string& path, const std::vector<rt::TraceEvent>& ev,
             const char* spec) {
  service::ShmProducer p;
  std::string err;
  ASSERT_TRUE(p.connect(path, spec, 10000, &err)) << err;
  ASSERT_TRUE(p.wait_go(20000));
  ASSERT_TRUE(p.push_n(ev.data(), ev.size()));
  p.finish();
}

// Run `streams.size()` producer threads against a fresh service over a
// fresh segment and return when everything is drained and stopped.
void run_service(DynGranDetector& det, service::ServiceOptions opts,
                 const std::string& path,
                 const std::vector<std::vector<rt::TraceEvent>>& streams,
                 service::ServiceStats* stats_out = nullptr) {
  ::unlink(path.c_str());
  service::AnalysisService svc(det, opts);
  std::string err;
  ASSERT_TRUE(svc.start(path, &err)) << err;
  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < streams.size(); ++i)
    producers.emplace_back([&, i] {
      produce(path, streams[i], ("test:" + std::to_string(i)).c_str());
    });
  ASSERT_TRUE(
      svc.wait_producers(static_cast<std::uint32_t>(streams.size()), 20000));
  svc.open_gate();
  svc.stop(60000);
  for (auto& t : producers) t.join();
  if (stats_out != nullptr) *stats_out = svc.stats();
  ::unlink(path.c_str());
}

TEST(AnalysisServiceTest, SingleProducerMatchesInProcessReplay) {
  const auto tr = racy_trace(4, 4);

  DynGranDetector reference;
  rt::replay_trace(tr, reference);
  const std::uint64_t expected = reference.sink().unique_races();
  ASSERT_GT(expected, 0u);
  std::unordered_set<Addr> expected_addrs;
  for (const auto& r : reference.sink().reports())
    expected_addrs.insert(r.addr);

  DynGranDetector det;
  service::ServiceStats st;
  run_service(det, {}, temp_segment("single"), {tr}, &st);

  EXPECT_EQ(det.sink().unique_races(), expected);
  for (const auto& r : det.sink().reports()) {
    EXPECT_EQ(r.addr >> 48, 1u) << "slot-0 namespace tag";
    EXPECT_TRUE(expected_addrs.count(r.addr & kLow48) != 0)
        << "unexpected race at " << std::hex << r.addr;
  }
  EXPECT_EQ(st.events_total, tr.size());
  EXPECT_EQ(st.producers_seen, 1u);
  EXPECT_GT(st.threads_mapped, 0u);
}

TEST(AnalysisServiceTest, TwoProducersAnalyzeInDisjointNamespaces) {
  const auto tr = racy_trace(3, 2);
  DynGranDetector reference;
  rt::replay_trace(tr, reference);
  const std::uint64_t expected = reference.sink().unique_races();
  ASSERT_GT(expected, 0u);

  DynGranDetector det;
  service::ServiceOptions opts;
  opts.drainers = 2;
  service::ServiceStats st;
  run_service(det, opts, temp_segment("two"), {tr, tr}, &st);

  // Identical streams in different slots must not alias: the union holds
  // one full copy of the result per producer.
  EXPECT_EQ(det.sink().unique_races(), 2 * expected);
  std::unordered_set<std::uint64_t> tags;
  for (const auto& r : det.sink().reports()) tags.insert(r.addr >> 48);
  EXPECT_EQ(tags.size(), 2u);
  EXPECT_EQ(st.producers_seen, 2u);
  EXPECT_EQ(st.events_total, 2 * tr.size());
}

TEST(AnalysisServiceTest, ConsumerSideSameEpochFilterPreservesRaces) {
  using rt::EventKind;
  // Thread 1 re-reads one word many times inside a single epoch; the
  // drainer-side bitmap must drop the repeats without losing the race.
  std::vector<rt::TraceEvent> ev;
  ev.push_back({EventKind::kThreadStart, 0, 0, 0, 0, kInvalidThread});
  ev.push_back({EventKind::kThreadStart, 0, 0, 1, 0, 0});
  ev.push_back({EventKind::kThreadStart, 0, 0, 2, 0, 0});
  for (int i = 0; i < 200; ++i)
    ev.push_back({EventKind::kRead, 0, 4, 1, 0x5000, 0});
  ev.push_back({EventKind::kWrite, 0, 4, 1, 0x8000, 0});
  ev.push_back({EventKind::kWrite, 0, 4, 2, 0x8000, 0});
  ev.push_back({EventKind::kThreadJoin, 0, 0, 0, 0, 1});
  ev.push_back({EventKind::kThreadJoin, 0, 0, 0, 0, 2});
  ev.push_back({EventKind::kFinish, 0, 0, 0, 0, 0});

  DynGranDetector reference;
  rt::replay_trace(ev, reference);

  DynGranDetector det;
  service::ServiceStats st;
  run_service(det, {}, temp_segment("filter"), {ev}, &st);

  // Every read but the first of the 200 is a same-epoch repeat.
  EXPECT_EQ(st.filtered, 199u);
  EXPECT_EQ(det.sink().unique_races(), reference.sink().unique_races());
}

TEST(AnalysisServiceTest, ClockGcShedsColdReadClocksAndKeepsRaces) {
  using rt::EventKind;
  // Shed requires heap-backed read clocks on cold shadow: every 64-byte
  // block is read once by 10 distinct threads (more than the clock's
  // inline capacity) and never touched again. A long single-thread tail
  // with epoch churn keeps the drainer ingesting so several GC passes run
  // after the blocks went cold.
  constexpr unsigned kThreads = 10;
  constexpr unsigned kBlocks = 192;
  std::vector<rt::TraceEvent> ev;
  ev.push_back({EventKind::kThreadStart, 0, 0, 0, 0, kInvalidThread});
  for (ThreadId t = 1; t <= kThreads; ++t)
    ev.push_back({EventKind::kThreadStart, 0, 0, t, 0, 0});
  for (unsigned b = 0; b < kBlocks; ++b) {
    const Addr a = 0x100000 + static_cast<Addr>(b) * 64;
    for (ThreadId t = 1; t <= kThreads; ++t)
      ev.push_back({EventKind::kRead, 0, 8, t, a, 0});
    if (b % 48 == 47) {
      for (ThreadId t = 1; t <= kThreads; ++t) {
        ev.push_back({EventKind::kAcquire, 0, 0, t, 0x10, 0});
        ev.push_back({EventKind::kRelease, 0, 0, t, 0x10, 0});
      }
    }
  }
  ev.push_back({EventKind::kWrite, 0, 4, 1, 0x9000, 0});
  ev.push_back({EventKind::kWrite, 0, 4, 2, 0x9000, 0});
  for (unsigned i = 0; i < 40000; ++i) {
    ev.push_back(
        {EventKind::kRead, 0, 8, 1, 0x800000 + (i % 64) * 64, 0});
    if (i % 16 == 15) {
      ev.push_back({EventKind::kAcquire, 0, 0, 1, 0x20, 0});
      ev.push_back({EventKind::kRelease, 0, 0, 1, 0x20, 0});
    }
  }
  for (ThreadId t = 1; t <= kThreads; ++t)
    ev.push_back({EventKind::kThreadJoin, 0, 0, 0, 0, t});
  ev.push_back({EventKind::kFinish, 0, 0, 0, 0, 0});

  DynGranDetector det;
  service::ServiceOptions opts;
  opts.drainers = 1;
  opts.gc_every_events = 1000;
  opts.gc_cold_generations = 1;
  service::ServiceStats st;
  run_service(det, opts, temp_segment("gc"), {ev}, &st);

  EXPECT_GT(st.gc_runs, 0u);
  EXPECT_GT(st.gc_shed_bytes, 0u);
  // GC is lossless: the planted race is still reported.
  bool found = false;
  for (const auto& r : det.sink().reports())
    if ((r.addr & kLow48) == 0x9000) found = true;
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Fault tolerance: attach validation, liveness, reclamation, quarantine.

TEST(AttachFailFastTest, MissingSegmentNamesPathAndFailsFast) {
  service::ShmSegment seg;
  std::string err;
  service::AttachOptions opts;
  opts.timeout_ms = 10000;
  opts.missing_grace_ms = 50;
  const auto t0 = std::chrono::steady_clock::now();
  const std::string path = temp_segment("nosuch");
  EXPECT_FALSE(seg.attach(path, opts, &err));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 5000) << "must not burn the whole timeout";
  EXPECT_NE(err.find(path), std::string::npos) << err;
  EXPECT_NE(err.find("does not exist"), std::string::npos) << err;
}

TEST(AttachFailFastTest, NeverPublishedSegmentIsDiagnosed) {
  // A correctly sized file whose creator died before setting `ready`.
  const std::string path = temp_segment("unpub");
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, sizeof(service::SegmentLayout)), 0);
  ::close(fd);
  service::ShmSegment seg;
  std::string err;
  service::AttachOptions opts;
  opts.timeout_ms = 10000;
  opts.publish_grace_ms = 50;
  EXPECT_FALSE(seg.attach(path, opts, &err));
  EXPECT_NE(err.find("never published"), std::string::npos) << err;

  const service::SegmentAutopsy a = service::inspect_segment(path);
  EXPECT_TRUE(a.exists);
  EXPECT_TRUE(a.mapped);
  EXPECT_FALSE(a.published);
  EXPECT_TRUE(a.stale());
  ::unlink(path.c_str());
}

TEST(AttachFailFastTest, TruncatedSegmentIsDiagnosed) {
  const std::string path = temp_segment("trunc");
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 100), 0);
  ::close(fd);
  service::ShmSegment seg;
  std::string err;
  service::AttachOptions opts;
  opts.timeout_ms = 10000;
  opts.publish_grace_ms = 50;
  EXPECT_FALSE(seg.attach(path, opts, &err));
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
  ::unlink(path.c_str());
}

TEST(AttachFailFastTest, GeometryMismatchIsAPermanentError) {
  const std::string path = temp_segment("geom");
  {
    service::ShmSegment creator;
    ASSERT_TRUE(creator.create(path, nullptr));
    creator.header().max_producers = 5;  // version-skewed build
  }
  service::ShmSegment seg;
  std::string err;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(seg.attach(path, 10000, &err));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 2000) << "malformed segments fail immediately";
  EXPECT_NE(err.find("geometry mismatch"), std::string::npos) << err;
  ::unlink(path.c_str());
}

TEST(AttachFailFastTest, VersionSkewIsAPermanentError) {
  const std::string path = temp_segment("ver");
  {
    service::ShmSegment creator;
    ASSERT_TRUE(creator.create(path, nullptr));
    creator.header().version = service::kSegmentVersion + 7;
  }
  service::ShmSegment seg;
  std::string err;
  EXPECT_FALSE(seg.attach(path, 10000, &err));
  EXPECT_NE(err.find("daemon and client builds disagree"), std::string::npos)
      << err;
  ::unlink(path.c_str());
}

TEST(SegmentAutopsyTest, ClassifiesLiveStaleAndRecreated) {
  const std::string path = temp_segment("autopsy");
  EXPECT_FALSE(service::inspect_segment(path).exists);
  {
    service::ShmSegment creator;
    ASSERT_TRUE(creator.create(path, nullptr));
    // Bare segment: no daemon registered -> stale (safe to recreate).
    service::SegmentAutopsy a = service::inspect_segment(path);
    EXPECT_TRUE(a.exists && a.published && a.version_ok);
    EXPECT_TRUE(a.stale());
    // A live daemon pins it.
    creator.header().daemon_pid.store(static_cast<std::uint32_t>(::getpid()),
                                      std::memory_order_relaxed);
    a = service::inspect_segment(path);
    EXPECT_TRUE(a.daemon_alive);
    EXPECT_FALSE(a.stale());
    EXPECT_NE(a.detail.find("live daemon"), std::string::npos) << a.detail;
  }
  if (!DG_TEST_TSAN) {
    // Daemon gone: stale again, and the --recover path (recreate over the
    // stale file) yields a fresh, owned segment.
    service::ShmSegment reopen;
    ASSERT_TRUE(reopen.attach_raw(path, nullptr));
    reopen.header().daemon_pid.store(make_dead_pid(),
                                     std::memory_order_relaxed);
    reopen.close();
    service::SegmentAutopsy a = service::inspect_segment(path);
    EXPECT_TRUE(a.stale());
    EXPECT_NE(a.detail.find("stale"), std::string::npos) << a.detail;
    service::ShmSegment fresh;
    ASSERT_TRUE(fresh.create(path, nullptr));
    EXPECT_EQ(service::inspect_segment(path).producers_crashed, 0u);
  }
  ::unlink(path.c_str());
}

TEST(ProducerLivenessTest, CrashedProducerIsReclaimedAndSlotReused) {
  if (DG_TEST_TSAN) GTEST_SKIP() << "fork-based crash simulation";
  const std::string path = temp_segment("reclaim");
  ::unlink(path.c_str());
  DynGranDetector det;
  ReportStore crash_store(64);
  service::ServiceOptions opts;
  opts.drainers = 1;
  opts.liveness_poll_ms = 20;
  opts.crash_store = &crash_store;
  service::AnalysisService svc(det, opts);
  std::string err;
  ASSERT_TRUE(svc.start(path, &err)) << err;
  svc.open_gate();

  // Producer 1 streams half a racy trace, then "dies" (its pid is swapped
  // for a reaped child's and its heartbeat goes flat).
  const auto tr = racy_trace(4, 2);
  {
    service::ShmProducer p;
    ASSERT_TRUE(p.connect(path, "crashing", 10000, &err)) << err;
    ASSERT_TRUE(p.wait_go(10000));
    ASSERT_TRUE(p.push_n(tr.data(), tr.size() / 2));
    // no finish(): the slot stays kAttached, exactly like a SIGKILL.
  }
  auto& slot0 = svc.segment().layout().slots[0];
  slot0.pid.store(make_dead_pid(), std::memory_order_release);

  ASSERT_TRUE(wait_for(
      [&] {
        return slot0.state.load(std::memory_order_acquire) ==
               static_cast<std::uint32_t>(service::SlotState::kFree);
      },
      10000))
      << "crashed slot was never reclaimed";

  const auto& h = svc.segment().layout().header;
  EXPECT_EQ(h.producers_crashed.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(h.slots_reclaimed.load(std::memory_order_relaxed), 1u);
  ASSERT_EQ(h.crash_count.load(std::memory_order_acquire), 1u);
  EXPECT_EQ(h.crash_log[0].slot, 0u);
  EXPECT_EQ(h.crash_log[0].pushed, tr.size() / 2);
  EXPECT_EQ(h.crash_log[0].drained, tr.size() / 2)
      << "every pushed event must be salvaged";
  EXPECT_EQ(h.crash_log[0].ns_tag, 0u);
  // The crash note reached the operational store.
  EXPECT_EQ(crash_store.query_site_prefix("svc:crash").size(), 1u);

  // The reclaimed slot is reusable — and namespaced afresh, so the new
  // incarnation can never alias the dead one.
  EXPECT_EQ(slot0.generation.load(std::memory_order_relaxed), 1u);
  const std::uint32_t new_tag = slot0.ns_tag.load(std::memory_order_relaxed);
  EXPECT_EQ(new_tag, service::kMaxProducers);
  {
    service::ShmProducer p2;
    ASSERT_TRUE(p2.connect(path, "fresh", 10000, &err)) << err;
    EXPECT_EQ(p2.slot_index(), 0u);
    ASSERT_TRUE(p2.wait_go(10000));
    ASSERT_TRUE(p2.push_n(tr.data(), tr.size()));
    p2.finish();
  }
  svc.stop(20000);

  std::unordered_set<std::uint64_t> tags;
  for (const auto& r : det.sink().reports()) tags.insert(r.addr >> 48);
  // Races from the survivor carry the fresh tag; whatever the crashed
  // incarnation's salvaged prefix produced carries tag 0+1.
  EXPECT_TRUE(tags.count(new_tag + 1) != 0)
      << "surviving producer's races must use the fresh namespace tag";
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.producers_crashed, 1u);
  EXPECT_EQ(st.slots_reclaimed, 1u);
  EXPECT_EQ(st.events_total, tr.size() / 2 + tr.size());
  ::unlink(path.c_str());
}

TEST(ProducerLivenessTest, FinishedProducerDeathIsNotACrash) {
  if (DG_TEST_TSAN) GTEST_SKIP() << "fork-based crash simulation";
  const std::string path = temp_segment("finished_death");
  ::unlink(path.c_str());
  DynGranDetector det;
  service::ServiceOptions opts;
  opts.drainers = 1;
  opts.liveness_poll_ms = 20;
  service::AnalysisService svc(det, opts);
  std::string err;
  ASSERT_TRUE(svc.start(path, &err)) << err;
  svc.open_gate();
  const auto tr = racy_trace(2, 1);
  {
    service::ShmProducer p;
    ASSERT_TRUE(p.connect(path, "finisher", 10000, &err)) << err;
    ASSERT_TRUE(p.wait_go(10000));
    ASSERT_TRUE(p.push_n(tr.data(), tr.size()));
    p.finish();
  }
  auto& slot0 = svc.segment().layout().slots[0];
  slot0.pid.store(make_dead_pid(), std::memory_order_release);
  ASSERT_TRUE(wait_for(
      [&] {
        return slot0.state.load(std::memory_order_acquire) ==
               static_cast<std::uint32_t>(service::SlotState::kDrained);
      },
      10000));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto& h = svc.segment().layout().header;
  EXPECT_EQ(h.producers_crashed.load(std::memory_order_relaxed), 0u)
      << "a finished producer retiring normally is not a crash";
  svc.stop(10000);
  ::unlink(path.c_str());
}

TEST(DaemonLivenessTest, ConnectRefusesStaleDaemonSegment) {
  if (DG_TEST_TSAN) GTEST_SKIP() << "fork-based crash simulation";
  const std::string path = temp_segment("stale_connect");
  {
    service::ShmSegment creator;
    ASSERT_TRUE(creator.create(path, nullptr));
    creator.header().daemon_pid.store(make_dead_pid(),
                                      std::memory_order_relaxed);
  }
  service::ShmProducer p;
  std::string err;
  EXPECT_FALSE(p.connect(path, "w", 5000, &err));
  EXPECT_NE(err.find("stale"), std::string::npos) << err;
  ::unlink(path.c_str());
}

TEST(DaemonLivenessTest, WaitGoIsBoundedByDaemonDeath) {
  if (DG_TEST_TSAN) GTEST_SKIP() << "fork-based crash simulation";
  const std::string path = temp_segment("waitgo_death");
  service::ShmSegment creator;
  ASSERT_TRUE(creator.create(path, nullptr));
  service::ShmProducer p;
  std::string err;
  ASSERT_TRUE(p.connect(path, "w", 5000, &err)) << err;
  // The daemon dies after the producer connected; the gate never opens.
  creator.header().daemon_pid.store(make_dead_pid(),
                                    std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(p.wait_go(60000));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 5000) << "wait_go must not outlive the daemon";
  EXPECT_EQ(p.last_status(), service::ProducerStatus::kDaemonDead);
  ::unlink(path.c_str());
}

TEST(DaemonLivenessTest, FullRingPushDegradesToAccountedDrops) {
  if (DG_TEST_TSAN) GTEST_SKIP() << "fork-based crash simulation";
  const std::string path = temp_segment("push_death");
  service::ShmSegment creator;
  ASSERT_TRUE(creator.create(path, nullptr));
  creator.header().go.store(1, std::memory_order_release);
  service::ShmProducer p;
  std::string err;
  ASSERT_TRUE(p.connect(path, "w", 5000, &err)) << err;
  creator.header().daemon_pid.store(make_dead_pid(),
                                    std::memory_order_relaxed);
  // No drainer exists: the ring fills, then the dead-daemon probe turns
  // the tail into accounted local drops instead of an unbounded hang.
  const std::size_t n = service::kShmRingCapacity + 4000;
  std::vector<rt::TraceEvent> ev(
      n, {rt::EventKind::kWrite, 0, 4, 1, 0x1000, 0});
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(p.push_n(ev.data(), ev.size()));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 10000);
  EXPECT_EQ(p.last_status(), service::ProducerStatus::kDaemonDead);
  EXPECT_EQ(p.dropped(), n - service::kShmRingCapacity);
  const auto& lay = creator.layout();
  EXPECT_EQ(lay.slots[0].dropped.load(std::memory_order_relaxed),
            n - service::kShmRingCapacity);
  EXPECT_EQ(lay.header.dropped_total.load(std::memory_order_relaxed),
            n - service::kShmRingCapacity);
  ::unlink(path.c_str());
}

TEST(DaemonLivenessTest, HeartbeatStallAloneDeclaresDaemonDead) {
  // The daemon pid stays alive (it is this test) but its heartbeat never
  // moves: a wedged daemon is as dead as a killed one.
  const std::string path = temp_segment("hb_stall");
  service::ShmSegment creator;
  ASSERT_TRUE(creator.create(path, nullptr));
  creator.header().go.store(1, std::memory_order_release);
  service::ShmProducer p;
  std::string err;
  ASSERT_TRUE(p.connect(path, "w", 5000, &err)) << err;
  creator.header().daemon_pid.store(static_cast<std::uint32_t>(::getpid()),
                                    std::memory_order_relaxed);
  p.set_daemon_stall_ms(50);
  const std::size_t n = service::kShmRingCapacity + 100;
  std::vector<rt::TraceEvent> ev(
      n, {rt::EventKind::kWrite, 0, 4, 1, 0x1000, 0});
  EXPECT_FALSE(p.push_n(ev.data(), ev.size()));
  EXPECT_EQ(p.last_status(), service::ProducerStatus::kDaemonDead);
  EXPECT_EQ(p.dropped(), 100u);
  ::unlink(path.c_str());
}

// One record of every flavour the wire validator rejects.
std::vector<rt::TraceEvent> malformed_records() {
  using rt::EventKind;
  return {
      {static_cast<EventKind>(0), 0, 4, 1, 0x9990, 0},    // kind 0
      {static_cast<EventKind>(42), 0, 0, 1, 0x9991, 0},   // kind > kFinish
      {EventKind::kWrite, 7, 4, 1, 0x9992, 0},            // reserved pad
      {EventKind::kRead, 0, 0, 1, 0x9993, 0},             // size 0 access
      {EventKind::kWrite, 0, 0xffff, 1, 0x9994, 0},       // oversized access
      {EventKind::kRead, 0, 4, kInvalidThread, 0x9995, 0},  // invalid tid
      {EventKind::kAcquire, 0, 9, 1, 0x9996, 0},          // sized sync event
  };
}

TEST(QuarantineTest, MalformedEventsNeverReachTheDetector) {
  const auto clean = racy_trace(3, 2);
  DynGranDetector reference;
  rt::replay_trace(clean, reference);

  // Interleave malformed records through the clean stream: every flavour
  // the validator rejects.
  std::vector<rt::TraceEvent> dirty;
  const std::vector<rt::TraceEvent> bad = malformed_records();
  std::size_t bi = 0;
  for (const auto& e : clean) {
    dirty.push_back(e);
    if (bi < bad.size()) dirty.push_back(bad[bi++]);
  }
  ASSERT_EQ(bi, bad.size()) << "stream too short to place all bad records";

  DynGranDetector det;
  service::ServiceStats st;
  run_service(det, {}, temp_segment("quarantine"), {dirty}, &st);

  EXPECT_EQ(st.quarantined, bad.size());
  EXPECT_EQ(st.events_total, dirty.size());
  // Containment: analysis equals the clean stream's — the malformed
  // records changed nothing but the quarantine counter.
  EXPECT_EQ(det.sink().unique_races(), reference.sink().unique_races());
}

// A stream longer than the shared-memory ring, so drains wrap and hand the
// drainer two segments. Three threads take turns in runs of 8 accesses over
// a small working set (plenty of same-epoch repeats), lock rounds move
// their epochs, and a malformed record lands every 97 iterations.
// `variant` shifts the working set and the length so producers differ.
std::vector<rt::TraceEvent> wrapping_stream(unsigned variant,
                                            std::uint64_t* malformed) {
  using rt::EventKind;
  const std::vector<rt::TraceEvent> bad = malformed_records();
  std::vector<rt::TraceEvent> ev;
  ev.push_back({EventKind::kThreadStart, 0, 0, 0, 0, kInvalidThread});
  for (ThreadId t = 1; t <= 3; ++t)
    ev.push_back({EventKind::kThreadStart, 0, 0, t, 0, 0});
  *malformed = 0;
  const unsigned iters =
      static_cast<unsigned>(service::kShmRingCapacity) * 3 / 2 +
      1000 * variant;
  for (unsigned i = 0; i < iters; ++i) {
    const ThreadId t = 1 + (i / 8) % 3;
    const Addr a = 0x10000 + static_cast<Addr>(t) * 0x1000 +
                   static_cast<Addr>((i * 7 + variant) % 16) * 8;
    ev.push_back(
        {i % 5 == 0 ? EventKind::kWrite : EventKind::kRead, 0, 8, t, a, 0});
    if (i % 211 == 0) {
      ev.push_back({EventKind::kAcquire, 0, 0, t, 0x10, 0});
      ev.push_back({EventKind::kRelease, 0, 0, t, 0x10, 0});
    }
    if (i % 97 == 0) ev.push_back(bad[(*malformed)++ % bad.size()]);
  }
  for (ThreadId t = 1; t <= 2; ++t)
    ev.push_back({EventKind::kWrite, 0, 8, t, 0x50000 + variant * 8, 0});
  for (ThreadId t = 1; t <= 3; ++t)
    ev.push_back({EventKind::kThreadJoin, 0, 0, 0, 0, t});
  ev.push_back({EventKind::kFinish, 0, 0, 0, 0, 0});
  return ev;
}

// Sequential model of the drainer's same-epoch filter: one EpochBitmap per
// thread, keyed by the detector's epoch serial, which only sync events
// move. Returns how many accesses it swallows.
std::uint64_t sequential_filtered(const std::vector<rt::TraceEvent>& ev) {
  using rt::EventKind;
  DynGranDetector det;
  MemoryAccountant acct;
  std::unordered_map<ThreadId, std::unique_ptr<EpochBitmap>> bitmaps;
  std::uint64_t filtered = 0;
  for (const rt::TraceEvent& e : ev) {
    if (!rt::wire_valid(e)) continue;
    switch (e.kind) {
      case EventKind::kRead:
      case EventKind::kWrite: {
        auto& bm = bitmaps[e.tid];
        if (bm == nullptr) bm = std::make_unique<EpochBitmap>(acct);
        const AccessType type = e.kind == EventKind::kRead
                                    ? AccessType::kRead
                                    : AccessType::kWrite;
        if (bm->test_and_set(e.addr, e.size, type,
                             det.same_epoch_serial(e.tid)))
          ++filtered;
        break;
      }
      case EventKind::kThreadStart:
        det.on_thread_start(e.tid, static_cast<ThreadId>(e.aux));
        break;
      case EventKind::kThreadJoin:
        det.on_thread_join(e.tid, static_cast<ThreadId>(e.aux));
        break;
      case EventKind::kAcquire:
        det.on_acquire(e.tid, e.addr);
        break;
      case EventKind::kRelease:
        det.on_release(e.tid, e.addr);
        break;
      default:
        break;
    }
  }
  return filtered;
}

TEST(ExactAccountingTest, TwoDrainersCountWrappingDirtyStreamsExactly) {
  DynGranConfig cfg;
  cfg.shards = 4;
  std::vector<std::vector<rt::TraceEvent>> streams;
  std::vector<std::uint64_t> malformed(2);
  std::vector<std::uint64_t> expect_filtered;
  std::uint64_t expect_races = 0;
  for (unsigned p = 0; p < 2; ++p) {
    streams.push_back(wrapping_stream(p, &malformed[p]));
    ASSERT_GT(streams[p].size(), service::kShmRingCapacity);
    expect_filtered.push_back(sequential_filtered(streams[p]));
    ASSERT_GT(expect_filtered[p], 0u);
    std::vector<rt::TraceEvent> clean;
    for (const auto& e : streams[p])
      if (rt::wire_valid(e)) clean.push_back(e);
    DynGranDetector reference(cfg);
    rt::replay_trace(clean, reference);
    expect_races += reference.sink().unique_races();
  }
  ASSERT_GT(expect_races, 0u);
  ASSERT_NE(malformed[0], malformed[1]);

  DynGranDetector det(cfg);
  service::ServiceOptions opts;
  opts.drainers = 2;
  const std::string path = temp_segment("exact");
  ::unlink(path.c_str());
  service::AnalysisService svc(det, opts);
  std::string err;
  ASSERT_TRUE(svc.start(path, &err)) << err;
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < 2; ++p)
    producers.emplace_back([&, p] {
      produce(path, streams[p], ("exact:" + std::to_string(p)).c_str());
    });
  ASSERT_TRUE(svc.wait_producers(2, 20000));
  svc.open_gate();
  svc.stop(60000);
  for (auto& t : producers) t.join();

  const service::SegmentLayout& l = svc.segment().layout();
  std::uint32_t seen = 0;
  for (std::uint32_t s = 0; s < service::kMaxProducers; ++s) {
    const service::ProducerSlot& slot = l.slots[s];
    unsigned p = 0;
    if (std::sscanf(slot.spec, "exact:%u", &p) != 1) continue;
    ASSERT_LT(p, 2u);
    ++seen;
    EXPECT_EQ(slot.pushed.load(), streams[p].size()) << "producer " << p;
    EXPECT_EQ(slot.drained.load(), slot.pushed.load()) << "producer " << p;
    EXPECT_EQ(slot.filtered.load(), expect_filtered[p]) << "producer " << p;
    EXPECT_EQ(slot.quarantined.load(), malformed[p]) << "producer " << p;
  }
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(l.header.quarantined_total.load(), malformed[0] + malformed[1]);
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.filtered, expect_filtered[0] + expect_filtered[1]);
  EXPECT_EQ(st.quarantined, malformed[0] + malformed[1]);
  EXPECT_EQ(det.sink().unique_races(), expect_races);
  ::unlink(path.c_str());
}

TEST(WireValidTest, AcceptsRealTracesRejectsGarbage) {
  for (const auto& e : racy_trace(2, 2)) EXPECT_TRUE(rt::wire_valid(e));
  rt::TraceEvent e{rt::EventKind::kRead, 0, 4, 1, 0x1000, 0};
  EXPECT_TRUE(rt::wire_valid(e));
  e.size = 8192;
  EXPECT_FALSE(rt::wire_valid(e, 4096));
  EXPECT_TRUE(rt::wire_valid(e, 16384));
  e = {rt::EventKind::kThreadJoin, 0, 0, 0, 0, kInvalidThread};
  EXPECT_FALSE(rt::wire_valid(e)) << "join of nobody";
  e = {rt::EventKind::kFinish, 0, 0, 0, 0, 0};
  EXPECT_TRUE(rt::wire_valid(e));
}

TEST(FaultPlanTest, ParsesSpecsAndRejectsGarbage) {
  service::FaultPlan plan;
  std::string err;
  EXPECT_TRUE(service::FaultPlan::parse("", plan, &err));
  EXPECT_FALSE(plan.any());
  EXPECT_TRUE(service::FaultPlan::parse(
      "kill-after=100,corrupt-every=7,seed=42,die-after=5000", plan, &err));
  EXPECT_EQ(plan.kill_after, 100u);
  EXPECT_EQ(plan.corrupt_every, 7u);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_EQ(plan.die_after, 5000u);
  EXPECT_TRUE(plan.should_kill(100));
  EXPECT_FALSE(plan.should_kill(99));
  EXPECT_TRUE(plan.should_corrupt(6));   // 7th event, 0-based
  EXPECT_FALSE(plan.should_corrupt(7));
  EXPECT_FALSE(service::FaultPlan::parse("warp-core=1", plan, &err));
  EXPECT_NE(err.find("warp-core"), std::string::npos) << err;
  EXPECT_FALSE(service::FaultPlan::parse("kill-after=banana", plan, &err));
}

TEST(FaultPlanTest, CorruptionIsDeterministicAndInvalidates) {
  service::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(service::FaultPlan::parse("corrupt-every=1,seed=3", plan, &err));
  for (std::uint64_t i = 0; i < 64; ++i) {
    rt::TraceEvent a{rt::EventKind::kWrite, 0, 4, 1, 0x1000, 0};
    rt::TraceEvent b = a;
    plan.corrupt(a, i);
    plan.corrupt(b, i);
    EXPECT_EQ(a, b) << "same (seed, index) must corrupt identically";
    EXPECT_FALSE(rt::wire_valid(a)) << "corrupted event " << i
                                    << " still validates";
  }
}

TEST(ReportStoreTest, OperationalNotesAreQueryable) {
  ReportStore store(8);
  store.record_note("svc:crash", "producer pid 123 died on slot 0");
  store.record_note("svc:crash", "producer pid 456 died on slot 3");
  const auto notes = store.query_site_prefix("svc:crash");
  ASSERT_EQ(notes.size(), 2u);
  EXPECT_NE(notes[0].previous_site.find("pid 123"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ReportStore / ReportSink query and cursor semantics.

RaceReport make_report(Addr addr, const char* site) {
  RaceReport r;
  r.addr = addr;
  r.size = 4;
  r.current_tid = 1;
  r.previous_tid = 2;
  r.current_site = site;
  r.previous_site = "prev";
  return r;
}

TEST(ReportStoreTest, SiteAndProximityQueries) {
  ReportStore store(8);
  store.record(make_report(0x1000, "alpha/load"));
  store.record(make_report(0x1008, "alpha/store"));
  store.record(make_report(0x2000, "beta/load"));

  EXPECT_EQ(store.query_site_prefix("alpha/").size(), 2u);
  EXPECT_EQ(store.query_site_prefix("beta/").size(), 1u);
  EXPECT_EQ(store.query_site_prefix("").size(), 3u);
  EXPECT_TRUE(store.query_site_prefix("gamma").empty());

  // 0x1000 and 0x1008 share a 64-byte bucket; 0x2000 does not.
  EXPECT_EQ(store.query_near(0x1004).size(), 2u);
  EXPECT_EQ(store.query_near(0x2030).size(), 1u);
  EXPECT_TRUE(store.query_near(0x3000).empty());
}

TEST(ReportStoreTest, EvictionPrunesIndices) {
  ReportStore store(2);
  store.record(make_report(0x1000, "a"));
  store.record(make_report(0x2000, "b"));
  store.record(make_report(0x3000, "c"));  // overwrites the oldest entry

  EXPECT_EQ(store.total_recorded(), 3u);
  EXPECT_EQ(store.evicted(), 1u);
  // The evicted report is gone from every index — never resurrected.
  EXPECT_TRUE(store.query_site_prefix("a").empty());
  EXPECT_TRUE(store.query_near(0x1000).empty());

  const auto snap = store.snapshot(0);
  ASSERT_EQ(snap.reports.size(), 2u);
  EXPECT_EQ(snap.reports[0].addr, 0x2000u);
  EXPECT_EQ(snap.reports[1].addr, 0x3000u);
}

TEST(ReportStoreTest, SnapshotCursorNeverRereads) {
  ReportStore store(16);
  for (int i = 0; i < 3; ++i)
    store.record(make_report(0x1000 + static_cast<Addr>(i) * 0x100, "s"));
  const auto s1 = store.snapshot(0);
  EXPECT_EQ(s1.reports.size(), 3u);
  EXPECT_EQ(s1.next_seq, 3u);

  store.record(make_report(0x5000, "s"));
  store.record(make_report(0x6000, "s"));
  const auto s2 = store.snapshot(s1.next_seq);
  ASSERT_EQ(s2.reports.size(), 2u);
  EXPECT_EQ(s2.reports[0].addr, 0x5000u);
  EXPECT_EQ(s2.reports[1].addr, 0x6000u);
  EXPECT_TRUE(store.snapshot(s2.next_seq).reports.empty());
}

TEST(ReportStoreTest, AttachMirrorsSinkAndSharesDedup) {
  ReportSink sink;
  ReportStore store(8);
  store.attach(sink);

  const RaceReport r = make_report(0x1000, "site");
  EXPECT_TRUE(sink.report(r));
  EXPECT_FALSE(sink.report(r));  // same location: deduped by the sink
  EXPECT_EQ(store.total_recorded(), 1u);
  EXPECT_EQ(store.query_near(0x1000).size(), 1u);

  // Grouped bookkeeping counts recorded reports per group key.
  std::uint64_t grouped = 0;
  for (const auto& [key, n] : store.group_counts()) grouped += n;
  EXPECT_EQ(grouped, 1u);
}

TEST(ReportSinkTest, SnapshotCursorSemantics) {
  ReportSink sink;
  sink.report(make_report(0x1000, "a"));
  sink.report(make_report(0x2000, "b"));
  const auto s1 = sink.snapshot(0);
  EXPECT_EQ(s1.reports.size(), 2u);
  EXPECT_EQ(s1.next_seq, 2u);
  EXPECT_EQ(s1.total_recorded, 2u);
  EXPECT_TRUE(sink.snapshot(s1.next_seq).reports.empty());

  sink.report(make_report(0x3000, "c"));
  const auto s2 = sink.snapshot(s1.next_seq);
  ASSERT_EQ(s2.reports.size(), 1u);
  EXPECT_EQ(s2.reports[0].addr, 0x3000u);
  EXPECT_EQ(s2.next_seq, 3u);
}

// ---------------------------------------------------------------------------
// Runtime ring telemetry (per-thread depth high-water marks and drain
// latency, surfaced through RuntimeStats).

TEST(RuntimeStatsTest, RingTelemetryIsPopulated) {
  DynGranDetector det;
  rt::RuntimeOptions opts;
  opts.mode = rt::RuntimeOptions::Mode::kTwoTier;
  rt::Runtime runtime(det, opts);
  runtime.register_current_thread(kInvalidThread);

  // Distinct addresses so the tier-1 same-epoch filter does not swallow
  // the accesses before they reach the ring.
  std::vector<int> buf(512);
  for (int& v : buf) runtime.read(&v, sizeof(int));
  runtime.finish();

  const RuntimeStats st = runtime.stats();
  ASSERT_FALSE(st.rings.empty());
  std::uint64_t drains = 0, hwm = 0;
  for (const auto& r : st.rings) {
    drains += r.drains;
    if (r.depth_hwm > hwm) hwm = r.depth_hwm;
  }
  EXPECT_GT(drains, 0u);
  EXPECT_GT(hwm, 0u);
  EXPECT_GT(st.drain_ns, 0u);
  EXPECT_GE(st.max_drain_ns, st.drain_ns / (drains == 0 ? 1 : drains));
  EXPECT_GT(st.avg_drain_ns(), 0.0);
}

}  // namespace
}  // namespace dg
