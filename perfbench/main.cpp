// stfw_perfbench: one workload per process, closed loop with one caller.
//
//   stfw_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file.json>]
//   stfw_perfbench --selftest
//
// Prints "config:" lines, then (traced runs) the per-layer table, and as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics; traced runs the per-layer
// metrics, which include the tracing overhead.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"
#include "spmv/runner.hpp"

extern char** environ;

namespace stfw::perfbench {
namespace {

// Each run sets up this many times and reports the median as setup_s.
constexpr int kSetups = 3;
// The frontier workload records about a million spans per traced run; the
// export keeps a viewable prefix while the metrics use every span.
constexpr std::size_t kMaxExportedSpansPerTrack = 20000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool selftest = false;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "stfw_perfbench: %s\nusage: stfw_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] | --selftest\n",
               msg.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed " + v);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0)) usage("bad --seconds " + v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown option " + k);
    }
  }
  if (!a.selftest && a.workload.empty()) usage("--workload is required");
  return a;
}

// Program knobs read from the environment (plan cache, zero copy, mailbox,
// overlap, barrier sync, fault injection, validation, deadlines, ...) would
// change what is measured, so any STFW_* variable stops the run.
bool environment_is_clean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "STFW_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      std::fprintf(stderr, "stfw_perfbench: refusing to run with %.*s set\n",
                   static_cast<int>(eq ? eq - *e : std::strlen(*e)), *e);
      clean = false;
    }
  return clean;
}

// The program's defaults as its own objects report them.
void print_program_config(bool runtime_workload) {
  const stfw::ResilienceOptions ro;
  std::printf("config: overlap_default=%d retransmit_timeout=%lldms\n",
              static_cast<int>(stfw::spmv::overlap_default()),
              static_cast<long long>(ro.retransmit_timeout.count()));
  if (!runtime_workload) return;  // the simulator workload starts no threads
  stfw::runtime::Cluster cluster(1);
  cluster.run([](stfw::runtime::Comm& comm) {
    stfw::StfwCommunicator c(comm, stfw::core::Vpt::direct(1));
    std::printf("config: plan_cache_capacity=%zu zero_copy=%d barrier_sync=%d "
                "exchange_deadline=%lldms validator_compiled=%d\n",
                c.plan_cache_capacity(), static_cast<int>(c.zero_copy_enabled()),
                static_cast<int>(c.barrier_sync()),
                static_cast<long long>(c.exchange_deadline().count()),
                static_cast<int>(stfw::StfwCommunicator::validation_available()));
  });
  std::printf("config: lockfree_mailbox_active=%d (fault-free cluster)\n",
              static_cast<int>(cluster.lockfree_active()));
}

struct Phase {
  std::vector<double> op_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  double elapsed_s = 0.0;
  Usage before;
  Usage after;
};

// Closed loop: one op at a time until `seconds` have passed.
Phase run_phase(Workload& w, Tracer& tracer, double seconds) {
  Phase p;
  p.before = Usage::now();
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() - start < budget) {
    const std::int64_t t0 = now_ns();
    ++p.attempted;
    try {
      if (!w.op(tracer)) p.correct = false;
      p.op_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    } catch (const std::exception& e) {
      ++p.failed;
      std::fprintf(stderr, "op %lld failed: %s\n", static_cast<long long>(p.attempted), e.what());
    }
  }
  p.elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  p.after = Usage::now();
  return p;
}

struct Out {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Out>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

int run(const Args& args) {
  std::unique_ptr<Workload> w;
  bool runtime_workload = true;
  if (args.workload == "spmv_gupta2_k4") {
    w = make_spmv_workload(args.seed, args.trace);
  } else if (args.workload == "frontier_gupta2_k4") {
    w = make_frontier_workload(args.seed);
  } else if (args.workload == "resilient_gupta2_k4") {
    w = make_resilient_workload(args.seed, args.trace);
  } else if (args.workload == "sim_gupta2_k4096") {
    w = make_sim_workload(args.seed);
    runtime_workload = false;
  } else {
    usage("unknown workload " + args.workload);
  }
  std::printf("config: workload=%s seed=%llu seconds=%g trace=%d setups=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              static_cast<int>(args.trace), kSetups);
  print_program_config(runtime_workload);
  std::fflush(stdout);

  Tracer tracer(args.trace, runtime_workload ? 4 : 0);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    w->setup(tracer);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  w->describe(stdout);
  std::fflush(stdout);

  std::string why;
  if (!args.trace) {
    const Phase p = run_phase(*w, tracer, args.seconds);
    const bool finished = w->finish(why);
    if (!p.correct || !finished) std::fprintf(stderr, "check failed: %s\n", why.c_str());
    const auto ops = static_cast<double>(p.op_ms.size());
    // Wall-clock op figures are printed for reference only: across runs on
    // a machine whose host steals CPU time they spread beyond any bound the
    // benchmark could keep (README.md, "Dropped").
    std::printf("info: op_ms.p50=%.6g op_ms.p90=%.6g ops_per_s=%.6g timed_ops=%zu\n",
                quantile(p.op_ms, 0.5), quantile(p.op_ms, 0.9), ops / p.elapsed_s,
                p.op_ms.size());
    print_result(p.correct && finished, p.attempted, p.failed,
                 {{"cpu_ms_per_op",
                   (p.after.user_ms - p.before.user_ms + p.after.sys_ms - p.before.sys_ms) / ops,
                   "ms"},
                  {"peak_rss_mb", p.after.max_rss_kib / 1024.0, "MiB"},
                  {"setup_s", median(setup_s), "s"}});
    return 0;
  }

  // Traced run: half the time untraced, half traced, same op; the relative
  // difference of their median op times is the tracing overhead.
  tracer.set_enabled(false);
  const Phase plain = run_phase(*w, tracer, args.seconds / 2);
  w->reset_layer_counters();
  tracer.set_enabled(true);
  const Phase traced = run_phase(*w, tracer, args.seconds / 2);
  const bool finished = w->finish(why);
  const bool correct = plain.correct && traced.correct && finished;
  if (!correct) std::fprintf(stderr, "check failed: %s\n", why.c_str());

  LayerValues values;
  w->layer_metrics(tracer, values);
  const auto ops = static_cast<double>(traced.op_ms.size());
  values["runtime.user_ms_per_op"] = (traced.after.user_ms - traced.before.user_ms) / ops;
  values["runtime.sys_ms_per_op"] = (traced.after.sys_ms - traced.before.sys_ms) / ops;
  values["runtime.vol_csw_per_op"] = (traced.after.vol_csw - traced.before.vol_csw) / ops;
  values["runtime.invol_csw_per_op"] = (traced.after.invol_csw - traced.before.invol_csw) / ops;
  values["trace.overhead_pct"] = (median(traced.op_ms) / median(plain.op_ms) - 1.0) * 100.0;
  tracer.set_enabled(false);

  std::vector<Out> metrics;
  std::printf("\nper-layer metrics, %s (%lld traced ops, %zu spans)\n", args.workload.c_str(),
              static_cast<long long>(traced.op_ms.size()), tracer.span_count());
  std::printf("  %-52s %16s  %s\n", "metric", "value", "unit");
  for (const LayerMetricDef& d : layer_metric_defs()) {
    const auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("  %-52s %16.6g  %s\n", d.name, v, d.unit);
    metrics.push_back({d.name, v, d.unit});
    if (it != values.end()) values.erase(it);
  }
  for (const auto& [name, v] : values)
    std::fprintf(stderr, "internal: metric %s is not in the per-layer list\n", name.c_str());
  if (!args.trace_out.empty()) {
    if (tracer.write_chrome_json(args.trace_out, kMaxExportedSpansPerTrack))
      std::printf("trace: %s (first %zu spans per track)\n", args.trace_out.c_str(),
                  kMaxExportedSpansPerTrack);
    else
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
  }
  print_result(correct && values.empty(), plain.attempted + traced.attempted,
               plain.failed + traced.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace stfw::perfbench

int main(int argc, char** argv) {
  const stfw::perfbench::Args args = stfw::perfbench::parse(argc, argv);
  if (!stfw::perfbench::environment_is_clean()) return 2;
  try {
    if (args.selftest) {
      const int failures = stfw::perfbench::run_selftests();
      std::printf("selftest: %d failure(s)\n", failures);
      return failures == 0 ? 0 : 1;
    }
    return stfw::perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stfw_perfbench: %s\n", e.what());
    return 1;
  }
}
