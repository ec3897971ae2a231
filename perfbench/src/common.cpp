#include <atomic>

#include "bench.hpp"

namespace perfbench {

std::set<dg::Addr> race_set(const dg::Detector& d) {
  std::set<dg::Addr> out;
  for (const dg::RaceReport& r : d.sink().reports()) out.insert(r.addr);
  return out;
}

void DetSummary::add(const dg::Detector& d) {
  const dg::DetectorStats& s = d.stats();
  constexpr auto rx = std::memory_order_relaxed;
  shared_accesses += s.shared_accesses.load(rx);
  same_epoch_hits += s.same_epoch_hits.load(rx);
  vc_allocs += s.vc_allocs.load(rx);
  max_live_vcs += s.max_live_vcs.load(rx);
  sharing_at_peak += s.sharing_count_at_peak.load(rx);
  const dg::MemoryAccountant& a = d.accountant();
  peak_hash += a.peak(dg::MemCategory::kHash);
  peak_bitmap += a.peak(dg::MemCategory::kBitmap);
  peak_vc += a.peak(dg::MemCategory::kVectorClock);
  peak_total += a.peak_total();
  raw_reports += d.sink().raw_reports();
  unique_races += d.sink().unique_races();
}

void set_detector_layers(Outcome& out, const DetSummary& s,
                         const std::map<std::string, trace::Totals>& spans) {
  out.set("detect.access_ns",
          trace::find(spans, "detect.access").ns_per_event());
  out.set("detect.shared_accesses", static_cast<double>(s.shared_accesses));
  out.set("detect.same_epoch_pct",
          pct(static_cast<double>(s.same_epoch_hits),
              static_cast<double>(s.shared_accesses)));
  out.set("detect.sync_ns", trace::find(spans, "detect.sync").mean_ns());
  out.set("detect.alloc_free_ns",
          trace::find(spans, "detect.alloc_free").mean_ns());
  out.set("detect.vc_allocs", static_cast<double>(s.vc_allocs));
  out.set("detect.max_live_vcs", static_cast<double>(s.max_live_vcs));
  out.set("detect.avg_sharing",
          s.max_live_vcs == 0 ? 0.0
                              : static_cast<double>(s.sharing_at_peak) /
                                    static_cast<double>(s.max_live_vcs));
  out.set("shadow.peak_hash_bytes", static_cast<double>(s.peak_hash));
  out.set("shadow.peak_bitmap_bytes", static_cast<double>(s.peak_bitmap));
  out.set("vc.peak_bytes", static_cast<double>(s.peak_vc));
  out.set("report.raw_reports", static_cast<double>(s.raw_reports));
  out.set("report.unique_races", static_cast<double>(s.unique_races));
}

}  // namespace perfbench
