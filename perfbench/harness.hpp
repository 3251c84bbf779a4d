#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

/// \file harness.hpp
/// Shared pieces of the benchmark program: clocks, process resource usage,
/// order statistics, the in-memory span tracer and the workload interface.

namespace stfw::perfbench {

/// Monotonic nanoseconds since the first call in this process.
std::int64_t now_ns();

/// getrusage(RUSAGE_SELF) snapshot: every thread of the process, including
/// rank threads that have already exited.
struct Usage {
  double user_ms = 0.0;
  double sys_ms = 0.0;
  double vol_csw = 0.0;
  double invol_csw = 0.0;
  double max_rss_kib = 0.0;

  static Usage now();
};

/// Quantile with linear interpolation between order statistics (q in [0, 1]).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Spans recorded from the benchmark's own code around calls into the
/// program's layers. Kept in memory, one track per rank plus one for the
/// main thread, and written out when the run ends. Each track is appended
/// to only by its own thread; readers look only after the writers joined.
class Tracer {
public:
  static constexpr int kMainTrack = -1;
  /// (track + 2) << 32 | index; 0 means "no span".
  using SpanId = std::int64_t;

  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    SpanId id = 0;
    SpanId parent = 0;
  };

  Tracer(bool enabled, int num_ranks);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span on `track` (a rank, or kMainTrack). No-op returning 0 when
  /// tracing is off. `name` must be a string literal.
  SpanId begin(const char* name, int track, SpanId parent);
  void end(SpanId id);

  class Scope {
  public:
    Scope(Tracer& t, const char* name, int track, SpanId parent)
        : tracer_(t), id_(t.begin(name, track, parent)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] SpanId id() const noexcept { return id_; }

  private:
    Tracer& tracer_;
    SpanId id_;
  };

  /// Durations (ms) of every closed span named `name`, over all tracks.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  [[nodiscard]] std::size_t span_count() const;

  /// Chrome trace-event JSON (complete "X" events, one tid per track),
  /// loadable in Perfetto or chrome://tracing. Writes at most the first
  /// `max_per_track` spans of each track, so the file stays viewable.
  bool write_chrome_json(const std::string& path, std::size_t max_per_track) const;

private:
  std::vector<Span>& track(int t) { return tracks_[static_cast<std::size_t>(t + 1)]; }

  bool enabled_;
  std::vector<std::vector<Span>> tracks_;  // [track + 1]
};

/// Every per-layer metric of the traced run, with its unit. A workload that
/// never calls a layer reports that layer's metrics as 0.
struct LayerMetricDef {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricDef>& layer_metric_defs();

using LayerValues = std::map<std::string, double>;

/// One benchmark workload. main() calls setup() several times (each
/// call rebuilds everything, so set-up time can be reported as a median),
/// then op() in a closed loop: the next op starts when the previous ends.
class Workload {
public:
  virtual ~Workload() = default;

  /// Generation, partitioning, problem build and warm-up, all untimed by
  /// the op clock. Replaces any earlier state. Spans go to `tracer`.
  virtual void setup(Tracer& tracer) = 0;
  /// Prints the workload's make-up and the program's effective
  /// configuration (one "config:" line each).
  virtual void describe(std::FILE* out) const = 0;
  /// One operation. Returns whether its outputs passed the workload's
  /// check; throws when the program fails. With tracing on it records spans
  /// and accumulates the per-layer counters.
  virtual bool op(Tracer& tracer) = 0;
  /// Checks that span the whole run (for example, that injected faults were
  /// hit). Returns false with a reason on failure.
  virtual bool finish(std::string& why) {
    (void)why;
    return true;
  }
  /// Forgets per-layer counters gathered so far (start of the traced phase).
  virtual void reset_layer_counters() {}
  /// Per-layer metrics of the traced phase; adds entries to `out` using
  /// names from layer_metric_defs(). May run untimed probes.
  virtual void layer_metrics(Tracer& tracer, LayerValues& out) = 0;
};

/// Workload factories. For spmv and resilient, `traced_run` selects the op
/// shape of a traced run: they then drive the RankPlans through the
/// benchmark's own per-rank loop, so exchange and local multiply get spans
/// of their own. Frontier and sim ops have the same shape in both runs.
std::unique_ptr<Workload> make_spmv_workload(std::uint64_t seed, bool traced_run);
std::unique_ptr<Workload> make_resilient_workload(std::uint64_t seed, bool traced_run);
std::unique_ptr<Workload> make_frontier_workload(std::uint64_t seed);
std::unique_ptr<Workload> make_sim_workload(std::uint64_t seed);

/// Runs the checker self-tests; returns the number of failures.
int run_selftests();

}  // namespace stfw::perfbench
