#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

namespace perfbench::trace {
namespace {

// Spans of one name kept per thread for the written trace (the first
// ones); totals count every span.
constexpr std::uint64_t kKeptPerName = 2000;

struct Open {
  const char* name;
  std::uint64_t id;
  std::uint64_t start_ns;
  std::uint64_t child_ns;
  bool sampled_call;
};

struct ThreadBuf {
  std::uint64_t thread = 0;
  std::uint64_t next_local = 0;
  std::uint64_t tick = 0;
  std::vector<Open> stack;
  std::vector<Span> kept;
  // Few distinct names, so a linear scan beats a map on the hot path.
  std::vector<std::pair<const char*, Totals>> totals;

  Totals& totals_for(const char* name) {
    for (auto& [n, t] : totals)
      if (n == name) return t;
    totals.emplace_back(name, Totals{});
    return totals.back().second;
  }
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;  // guards g_threads
std::vector<std::unique_ptr<ThreadBuf>> g_threads;
thread_local ThreadBuf* t_buf = nullptr;

ThreadBuf& buf() {
  if (t_buf == nullptr) {
    std::scoped_lock lk(g_mu);
    g_threads.push_back(std::make_unique<ThreadBuf>());
    t_buf = g_threads.back().get();
    t_buf->thread = g_threads.size();
  }
  return *t_buf;
}

void record(ThreadBuf& b, const Span& s) {
  const std::uint64_t dur = s.end_ns - s.start_ns;
  const std::uint64_t self = dur > s.child_ns ? dur - s.child_ns : 0;
  Totals& t = b.totals_for(s.name);
  t.add(dur, self, s.events);
  if (t.spans <= kKeptPerName) b.kept.push_back(s);
}

}  // namespace

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

bool sample(std::uint32_t every) noexcept {
  ThreadBuf& b = buf();
  return ++b.tick % every == 0;
}

void open(const char* name, bool sampled_call) {
  ThreadBuf& b = buf();
  const std::uint64_t id = (b.thread << 40) | ++b.next_local;
  b.stack.push_back({name, id, now_ns(), 0, sampled_call});
}

void close(std::uint64_t events) {
  const std::uint64_t end = now_ns();
  ThreadBuf& b = buf();
  const Open o = b.stack.back();
  b.stack.pop_back();
  Span s;
  s.name = o.name;
  s.id = o.id;
  s.parent = b.stack.empty() ? 0 : b.stack.back().id;
  s.start_ns = o.start_ns;
  s.end_ns = end;
  s.child_ns = o.child_ns;
  s.events = events;
  if (!b.stack.empty()) b.stack.back().child_ns += end - o.start_ns;
  record(b, s);
}

bool in_sampled_call() noexcept {
  const ThreadBuf* b = t_buf;
  return b != nullptr && !b->stack.empty() && b->stack.back().sampled_call;
}

void add_foreign(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t events) {
  ThreadBuf& b = buf();
  Span s;
  s.name = name;
  s.id = (b.thread << 40) | ++b.next_local;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.events = events;
  record(b, s);
}

std::map<std::string, Totals> totals() {
  std::scoped_lock lk(g_mu);
  std::map<std::string, Totals> out;
  for (const auto& b : g_threads) {
    for (const auto& [name, t] : b->totals) {
      Totals& o = out[name];
      o.spans += t.spans;
      o.events += t.events;
      o.total_ns += t.total_ns;
      o.self_ns += t.self_ns;
      if (t.max_ns > o.max_ns) o.max_ns = t.max_ns;
    }
  }
  return out;
}

bool write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"totals\": {");
  bool first = true;
  for (const auto& [name, t] : totals()) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"spans\": %llu, \"events\": %llu, "
                 "\"total_ns\": %llu, \"self_ns\": %llu, \"max_ns\": %llu}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(t.spans),
                 static_cast<unsigned long long>(t.events),
                 static_cast<unsigned long long>(t.total_ns),
                 static_cast<unsigned long long>(t.self_ns),
                 static_cast<unsigned long long>(t.max_ns));
    first = false;
  }
  std::fprintf(f, "\n},\n\"spans\": [");
  first = true;
  std::scoped_lock lk(g_mu);
  for (const auto& b : g_threads) {
    for (const Span& s : b->kept) {
      std::fprintf(f,
                   "%s\n  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                   "\"thread\": %llu, \"start_ns\": %llu, \"end_ns\": %llu, "
                   "\"self_ns\": %llu, \"events\": %llu}",
                   first ? "" : ",", s.name,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(b->thread),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(
                       s.end_ns - s.start_ns > s.child_ns
                           ? s.end_ns - s.start_ns - s.child_ns
                           : 0),
                   static_cast<unsigned long long>(s.events));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
