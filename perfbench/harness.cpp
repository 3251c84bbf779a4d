#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

namespace stfw::perfbench {

std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              origin)
      .count();
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_ms = static_cast<double>(ru.ru_utime.tv_sec) * 1e3 +
              static_cast<double>(ru.ru_utime.tv_usec) / 1e3;
  u.sys_ms = static_cast<double>(ru.ru_stime.tv_sec) * 1e3 +
             static_cast<double>(ru.ru_stime.tv_usec) / 1e3;
  u.vol_csw = static_cast<double>(ru.ru_nvcsw);
  u.invol_csw = static_cast<double>(ru.ru_nivcsw);
  u.max_rss_kib = static_cast<double>(ru.ru_maxrss);
  return u;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Tracer::Tracer(bool enabled, int num_ranks)
    : enabled_(enabled), tracks_(static_cast<std::size_t>(num_ranks + 1)) {
  if (enabled_)
    for (auto& t : tracks_) t.reserve(1 << 16);
}

Tracer::SpanId Tracer::begin(const char* name, int track_no, SpanId parent) {
  if (!enabled_) return 0;
  std::vector<Span>& t = track(track_no);
  Span s;
  s.name = name;
  s.id = (static_cast<SpanId>(track_no + 2) << 32) | static_cast<SpanId>(t.size());
  s.parent = parent;
  s.start_ns = now_ns();
  t.push_back(s);
  return s.id;
}

void Tracer::end(SpanId id) {
  if (id == 0) return;
  const int track_no = static_cast<int>(id >> 32) - 2;
  track(track_no)[static_cast<std::size_t>(id & 0xffffffff)].end_ns = now_ns();
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const auto& t : tracks_)
    for (const Span& s : t)
      if (s.end_ns >= 0 && name == s.name)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  return out;
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const auto& t : tracks_) n += t.size();
  return n;
}

bool Tracer::write_chrome_json(const std::string& path, std::size_t max_per_track) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) f << ",\n";
    first = false;
  };
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    sep();
    const std::string label = i == 0 ? "main" : "rank " + std::to_string(i - 1);
    f << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << i
      << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << label << "\"}}";
  }
  char buf[64];
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const std::size_t n = std::min(tracks_[i].size(), max_per_track);
    for (std::size_t k = 0; k < n; ++k) {
      const Span& s = tracks_[i][k];
      if (s.end_ns < 0) continue;
      sep();
      f << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << i << ",\"name\":\"" << s.name << "\",\"ts\":";
      std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(s.start_ns) / 1e3);
      f << buf << ",\"dur\":";
      std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      f << buf << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
    }
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

const std::vector<LayerMetricDef>& layer_metric_defs() {
  static const std::vector<LayerMetricDef> defs = [] {
    std::vector<LayerMetricDef> d = {
        {"sparse.generate_s", "s"},
        {"partition.partition_s", "s"},
        {"spmv.problem_build_s", "s"},
        {"partition.comm_volume_words", "words"},
        {"partition.nnz_imbalance", "ratio"},
        {"sparse.local_spmv_ms", "ms"},
        {"sparse.serial_spmv_ms", "ms"},
        {"runtime.cluster_run_ms", "ms"},
        {"runtime.exchange_us.p50", "us"},
        {"runtime.peer_skew_us.p50", "us"},
        {"runtime.plan_us", "us"},
        {"runtime.frames_per_exchange", "count"},
        {"runtime.plan_hit_ratio", "ratio"},
        {"runtime.pool_hit_ratio", "ratio"},
        {"runtime.wire_bytes_per_exchange", "B"},
        {"runtime.wire_overhead", "ratio"},
        {"runtime.user_ms_per_op", "ms"},
        {"runtime.sys_ms_per_op", "ms"},
        {"runtime.vol_csw_per_op", "count"},
        {"runtime.invol_csw_per_op", "count"},
        {"runtime.resilient_exchange_ms.p50", "ms"},
        {"runtime.resilient_retransmits_per_exchange", "count"},
        {"runtime.resilient_acks_per_exchange", "count"},
        {"runtime.resilient_duplicates_discarded_per_exchange", "count"},
        {"runtime.resilient_wire_overhead", "ratio"},
        {"fault.duplicates_injected", "count"},
        {"fault.reorders_injected", "count"},
    };
    // Names are built once here and live as long as the program.
    static std::vector<std::string> names;
    static const char* const kSuffix[] = {"n1", "n2", "n3", "n4", "n6", "n12"};
    static const char* const kSim[][2] = {{"sim.exchange_ms.", "ms"},
                                          {"sim.mmax.", "count"},
                                          {"sim.volume_words.", "words"},
                                          {"sim.max_buffer_kb.", "KiB"},
                                          {"netsim.comm_us.", "us"}};
    names.reserve(std::size(kSim) * std::size(kSuffix));
    for (const auto& m : kSim)
      for (const char* s : kSuffix) {
        names.push_back(std::string(m[0]) + s);
        d.push_back({names.back().c_str(), m[1]});
      }
    d.push_back({"trace.overhead_pct", "%"});
    return d;
  }();
  return defs;
}

}  // namespace stfw::perfbench
