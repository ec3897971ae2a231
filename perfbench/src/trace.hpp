// In-memory span recorder for the traced benchmark pass.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into each layer's public functions (SimScheduler::run, rt::ThreadCtx /
// rt::Mutex, the Detector entry points, ShmProducer::push_n,
// AnalysisService::{start,open_gate,stop}). Each span has a name, start,
// end, the enclosing span on the same thread as parent, and the number of
// work items (events) it covers. Self time is the span minus the time its
// direct children cover.
//
// Every thread appends to its own buffer, so recording takes no lock after
// a thread's first span. Per-name totals are kept for every span; the
// spans themselves are kept up to a per-name cap and written out at the
// end of the run. A Scope records only while the recorder is enabled.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";
  std::uint64_t id = 0;      // unique within the run, never 0
  std::uint64_t parent = 0;  // enclosing span on the same thread; 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t child_ns = 0;  // time covered by direct children
  std::uint64_t events = 0;    // work items the span covers
};

/// Totals over every span of one name.
struct Totals {
  std::uint64_t spans = 0;
  std::uint64_t events = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t max_ns = 0;

  void add(std::uint64_t dur, std::uint64_t self, std::uint64_t ev) noexcept {
    ++spans;
    events += ev;
    total_ns += dur;
    self_ns += self;
    if (dur > max_ns) max_ns = dur;
  }
  double mean_ns() const noexcept {
    return spans == 0 ? 0.0 : static_cast<double>(total_ns) / spans;
  }
  double ns_per_event() const noexcept {
    return events == 0 ? 0.0 : static_cast<double>(total_ns) / events;
  }
};

void set_enabled(bool on) noexcept;
bool enabled() noexcept;

/// True once every `every` calls on this thread (1-in-N sampling).
bool sample(std::uint32_t every) noexcept;

/// Open a span on the calling thread. `sampled_call` marks a sampled
/// per-call span: detector calls nested in it are always timed, so its
/// self time excludes all of the detector work it triggered.
void open(const char* name, bool sampled_call = false);
/// Close the innermost open span of the calling thread.
void close(std::uint64_t events = 1);
/// True while the innermost open span is a sampled per-call span.
bool in_sampled_call() noexcept;

/// Record a span measured elsewhere (another process) as a root span.
void add_foreign(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t events);

/// RAII span; does nothing when `on` is false.
class Scope {
 public:
  explicit Scope(const char* name, bool on = true, bool sampled_call = false)
      : on_(on && enabled()) {
    if (on_) open(name, sampled_call);
  }
  ~Scope() {
    if (on_) close(events_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_events(std::uint64_t n) noexcept { events_ = n; }

 private:
  bool on_;
  std::uint64_t events_ = 1;
};

/// Per-name totals merged over every thread that recorded.
std::map<std::string, Totals> totals();

/// The totals of `name` in `all` (empty when no such span was recorded).
inline Totals find(const std::map<std::string, Totals>& all,
                   const char* name) {
  const auto it = all.find(name);
  return it == all.end() ? Totals{} : it->second;
}

/// Write the kept spans and the per-name totals as JSON. Returns false on
/// I/O error.
bool write_json(const std::string& path);

}  // namespace perfbench::trace
