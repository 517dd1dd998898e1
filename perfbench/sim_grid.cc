#include "perfbench/sim_grid.h"

#include "perfbench/deployment.h"
#include "src/workload/workload_spec.h"

namespace bouncer::perfbench {

namespace {

const workload::WorkloadSpec& Table1() {
  static const workload::WorkloadSpec* const kSpec =
      new workload::WorkloadSpec(workload::PaperSimulationWorkload());
  return *kSpec;
}

/// bench/bench_common.cc MakeStudyPolicy() at full scale (Table 2).
PolicyConfig StudyPolicy(PolicyKind kind) {
  PolicyConfig config;
  config.kind = kind;
  config.bouncer.histogram_swap_interval = 2 * kSecond;
  config.bouncer.min_samples_to_publish = 30;
  config.allowance.allowance = 0.05;
  config.underserved.alpha = 1.0;
  config.max_queue_length.length_limit = 400;
  config.max_queue_wait.wait_time_limit = 15 * kMillisecond;
  config.accept_fraction.max_utilization = 0.95;
  return config;
}

SimCell MakeCell(const char* name, PolicyKind kind, double factor,
                 uint64_t total, uint64_t warmup) {
  SimCell cell;
  cell.policy = name;
  cell.load_factor = factor;
  cell.config = StudyPolicy(kind);
  cell.sim.parallelism = 100;
  cell.sim.total_queries = total;
  cell.sim.warmup_queries = warmup;
  cell.sim.seed = 20240101;
  cell.sim.stats_mode = sim::StatsMode::kExactSamples;
  cell.sim.arrival_rate_qps = factor * Table1().FullLoadQps(100);
  return cell;
}

}  // namespace

std::vector<SimCell> PaperGridCells() {
  const struct {
    const char* name;
    PolicyKind kind;
  } kPolicies[] = {
      {"Bouncer", PolicyKind::kBouncer},
      {"Bouncer+Allowance", PolicyKind::kBouncerWithAllowance},
      {"Bouncer+Underserved", PolicyKind::kBouncerWithUnderserved},
      {"MaxQL", PolicyKind::kMaxQueueLength},
      {"MaxQWT", PolicyKind::kMaxQueueWait},
      {"AcceptFraction", PolicyKind::kAcceptFraction},
  };
  std::vector<SimCell> cells;
  for (const auto& policy : kPolicies) {
    for (const double factor : {1.2, 1.5}) {
      cells.push_back(
          MakeCell(policy.name, policy.kind, factor, 1'500'000, 300'000));
    }
  }
  return cells;
}

SimCell SetupCheckCell() {
  return MakeCell("Bouncer", PolicyKind::kBouncer, 1.2, 60'000, 20'000);
}

SimCellRun RunSimCell(const SimCell& cell) {
  SimCellRun run;
  run.policy = cell.policy;
  run.load_factor = cell.load_factor;
  run.total_queries = cell.sim.total_queries;
  sim::Simulator simulator(Table1(), cell.sim, cell.config);
  const Nanos start = NowNs();
  const sim::SimulationResult result = simulator.Run();
  run.run_ns = NowNs() - start;
  run.received = result.overall.received;
  for (size_t i = 0; i < result.per_type.size(); ++i) {
    const sim::TypeStats& type = result.per_type[i];
    run.rejected_per_type.push_back(type.rejected);
    run.completed += type.completed;
    const double slo_p90_ms =
        static_cast<double>(Table1().type(i).slo.p90) / 1e6;
    if (type.rt_p90_ms <= slo_p90_ms) {
      run.completed_in_slo_types += type.completed;
    }
  }
  run.events = result.events_processed;
  return run;
}

}  // namespace bouncer::perfbench
