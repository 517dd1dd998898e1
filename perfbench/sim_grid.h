#ifndef BOUNCER_PERFBENCH_SIM_GRID_H_
#define BOUNCER_PERFBENCH_SIM_GRID_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/sim/simulator.h"

namespace bouncer::perfbench {

/// One cell of the §5.3 simulation grid: a policy at a load factor.
struct SimCell {
  std::string policy;
  double load_factor = 0.0;
  PolicyConfig config;
  sim::SimulationConfig sim;
};

/// Outcome of running one cell once.
struct SimCellRun {
  std::string policy;
  double load_factor = 0.0;
  uint64_t total_queries = 0;
  uint64_t received = 0;
  std::vector<uint64_t> rejected_per_type;  ///< Table 1 type order.
  uint64_t completed = 0;
  /// Completed queries of the types whose p90 response time held the
  /// type's p90 SLO in this cell.
  uint64_t completed_in_slo_types = 0;
  uint64_t events = 0;
  Nanos run_ns = 0;  ///< Wall time of Simulator::Run().
};

/// The §5.3 grid at paper size: Table 1 mix, P = 100, 1.5M arrivals per
/// cell (300k warm-up), exact samples, the Table 2 parameters of
/// bench/bench_common.cc at full scale; Bouncer, +Allowance,
/// +Underserved, MaxQL, MaxQWT and AcceptFraction at 1.2x and 1.5x
/// QPS_full_load. Seeds are fixed, so each cell's counts repeat exactly.
std::vector<SimCell> PaperGridCells();

/// A small cell (Bouncer at 1.2x, 60k arrivals) run at set-up time as a
/// known-answer check of the simulator build.
SimCell SetupCheckCell();

/// Runs `cell` serially on the calling thread.
SimCellRun RunSimCell(const SimCell& cell);

}  // namespace bouncer::perfbench

#endif  // BOUNCER_PERFBENCH_SIM_GRID_H_
