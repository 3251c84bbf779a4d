// sim_gupta2_k4096: the paper's large-scale study on one thread. Each op
// simulates the SpMV communication phase of a 4096-way partition once per
// VPT: BL (T_1) and STFW with n in {2, 3, 4, 6, 12}, on the Cray XC40 cost
// model, with one pooled SimScratch per VPT.

#include <array>
#include <memory>

#include "checks.hpp"
#include "core/error.hpp"
#include "netsim/machine.hpp"
#include "problem.hpp"
#include "sim/bsp_simulator.hpp"

namespace stfw::perfbench {
namespace {

constexpr core::Rank kRanks = 4096;
constexpr std::array<int, 6> kDims = {1, 2, 3, 4, 6, 12};
constexpr std::array<const char*, 6> kSuffix = {"n1", "n2", "n3", "n4", "n6", "n12"};
constexpr std::array<const char*, 6> kSpanNames = {
    "sim::simulate_exchange n1", "sim::simulate_exchange n2", "sim::simulate_exchange n3",
    "sim::simulate_exchange n4", "sim::simulate_exchange n6", "sim::simulate_exchange n12"};
constexpr std::uint32_t kBytesPerValue = 8;

class SimWorkload : public Workload {
public:
  explicit SimWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer& tracer) override {
    scratch_.reset();
    pattern_.reset();
    m_.reset();  // one problem in memory at a time, so peak RSS is one set-up's
    m_ = build_problem(k4096_matrix_spec(), seed_, kRanks, /*build_plans=*/false, tracer);
    pattern_ = std::make_unique<sim::CommPattern>(m_->problem->comm_pattern(kBytesPerValue));
    scratch_ = std::make_unique<std::array<sim::SimScratch, kDims.size()>>();
    // Warm-up sweep: fills the scratches and checks exactly-once delivery.
    Tracer off(false, 0);
    core::require(sweep(off, /*collect_delivered=*/true), "warm-up sweep failed: " + why_);
  }

  void describe(std::FILE* out) const override {
    std::fprintf(out,
                 "config: matrix=gupta2 stand-in rows=%d nnz=%lld K=%d machine=%s "
                 "messages=%lld BL mmax=%lld\n",
                 m_->matrix.num_rows(), static_cast<long long>(m_->matrix.num_nonzeros()), kRanks,
                 machine_.name().c_str(), static_cast<long long>(pattern_->total_messages()),
                 static_cast<long long>(pattern_->max_send_count()));
    std::fprintf(out, "config: op=simulate_exchange over T_1 and balanced n=2,3,4,6,12; "
                      "single-threaded\n");
  }

  bool op(Tracer& tracer) override { return sweep(tracer, /*collect_delivered=*/false); }

  bool finish(std::string& why) override {
    // The timed sweeps skip the delivery lists; check them once more here.
    Tracer off(false, 0);
    if (why_.empty()) sweep(off, /*collect_delivered=*/true);
    why = why_;
    return why_.empty();
  }

  void layer_metrics(Tracer& tracer, LayerValues& out) override {
    setup_layer_metrics(tracer, *m_, out);
    out["sparse.serial_spmv_ms"] = serial_spmv_ms(m_->matrix);
    for (std::size_t i = 0; i < kDims.size(); ++i) {
      const sim::SimResult& r = last_[i];
      const auto name = [&](const char* prefix) { return std::string(prefix) + kSuffix[i]; };
      out[name("sim.exchange_ms.")] = median(tracer.durations_ms(kSpanNames[i]));
      out[name("sim.mmax.")] = static_cast<double>(r.metrics.max_send_count());
      out[name("sim.volume_words.")] = static_cast<double>(r.metrics.total_volume_words());
      out[name("sim.max_buffer_kb.")] = static_cast<double>(r.metrics.max_buffer_bytes()) / 1024.0;
      out[name("netsim.comm_us.")] = r.comm_time_us;
    }
  }

private:
  bool sweep(Tracer& tracer, bool collect_delivered) {
    std::int64_t bl_volume = -1;
    last_.clear();
    for (std::size_t i = 0; i < kDims.size(); ++i) {
      sim::SimOptions opts;
      opts.machine = &machine_;
      opts.scratch = &(*scratch_)[i];
      opts.collect_delivered = collect_delivered;
      {
        Tracer::Scope s(tracer, kSpanNames[i], Tracer::kMainTrack, 0);
        last_.push_back(sim::simulate_exchange(vpts_[i], *pattern_, opts));
      }
      if (!check_sim(vpts_[i], *pattern_, last_[i], bl_volume, why_)) return false;
      if (i == 0) bl_volume = last_[i].metrics.total_volume_words();
    }
    return true;
  }

  static std::array<core::Vpt, kDims.size()> make_vpts() {
    return {core::Vpt::direct(kRanks),      core::Vpt::balanced(kRanks, 2),
            core::Vpt::balanced(kRanks, 3), core::Vpt::balanced(kRanks, 4),
            core::Vpt::balanced(kRanks, 6), core::Vpt::balanced(kRanks, 12)};
  }

  std::uint64_t seed_;
  std::array<core::Vpt, kDims.size()> vpts_ = make_vpts();
  netsim::Machine machine_ = netsim::Machine::cray_xc40(kRanks);
  std::unique_ptr<MatrixSetup> m_;
  std::unique_ptr<sim::CommPattern> pattern_;
  std::unique_ptr<std::array<sim::SimScratch, kDims.size()>> scratch_;
  std::vector<sim::SimResult> last_;
  std::string why_;
};

}  // namespace

std::unique_ptr<Workload> make_sim_workload(std::uint64_t seed) {
  return std::make_unique<SimWorkload>(seed);
}

}  // namespace stfw::perfbench
