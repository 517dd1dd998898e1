// Simulator-side throughput tracking, the evaluation-pipeline analogue
// of bench_admission_throughput: how many simulated events/sec the
// discrete-event engine sustains, and how the experiment grid scales
// across cores.
//
// Part (a) runs one simulation cell per configuration: the FIFO ring
// under the three stats modes and the heap-backed queue of the other
// disciplines. Part (b) runs the full (policy × load-factor × seed)
// study grid through sim::RunJobs serially and with BOUNCER_BENCH_JOBS
// workers and reports the wall-clock speedup, checking the parallel
// results are bit-identical to serial.
// Results are written to BENCH_sim_throughput.json.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

using namespace bouncer;
using namespace bouncer::bench;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CellRow {
  std::string label;
  double seconds = 0;
  uint64_t events = 0;
  double events_per_sec = 0;
  uint64_t rejected = 0;
};

CellRow RunCell(const std::string& label,
                const workload::WorkloadSpec& workload,
                const sim::SimulationConfig& config,
                const PolicyConfig& policy) {
  sim::Simulator simulator(workload, config, policy);
  const double t0 = Now();
  const sim::SimulationResult result = simulator.Run();
  const double t1 = Now();
  CellRow row;
  row.label = label;
  row.seconds = t1 - t0;
  row.events = result.events_processed;
  row.events_per_sec =
      row.seconds > 0 ? static_cast<double>(row.events) / row.seconds : 0;
  row.rejected = result.overall.rejected;
  return row;
}

struct ParallelRow {
  int jobs = 0;
  double seconds = 0;
  uint64_t events = 0;
  double events_per_sec = 0;
  double speedup = 1.0;
  bool identical = true;
};

void WriteJson(const std::vector<CellRow>& cells,
               const std::vector<ParallelRow>& parallel, size_t grid_cells) {
  std::FILE* f = std::fopen("BENCH_sim_throughput.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"bench\": \"sim_throughput\",\n");
  WriteHostJsonFields(f);
  std::fprintf(f, "  \"scale\": %d,\n", BenchScale());
  std::fprintf(f, "  \"single_cell\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellRow& r = cells[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"seconds\": %.4f, "
                 "\"events\": %llu, \"events_per_sec\": %.0f}%s\n",
                 r.label.c_str(), r.seconds,
                 static_cast<unsigned long long>(r.events), r.events_per_sec,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"grid_cells\": %zu,\n  \"parallel\": [\n",
               grid_cells);
  for (size_t i = 0; i < parallel.size(); ++i) {
    const ParallelRow& r = parallel[i];
    std::fprintf(f,
                 "    {\"jobs\": %d, \"seconds\": %.3f, \"events\": %llu, "
                 "\"events_per_sec\": %.0f, \"speedup\": %.2f, "
                 "\"bit_identical\": %s}%s\n",
                 r.jobs, r.seconds,
                 static_cast<unsigned long long>(r.events), r.events_per_sec,
                 r.speedup, r.identical ? "true" : "false",
                 i + 1 < parallel.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// Field-exact comparison of two result sets (the determinism contract:
/// same seeds => same outcomes regardless of thread count).
bool Identical(const std::vector<sim::SimulationResult>& a,
               const std::vector<sim::SimulationResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].overall.received != b[i].overall.received ||
        a[i].overall.rejected != b[i].overall.rejected ||
        a[i].overall.completed != b[i].overall.completed ||
        a[i].overall.rt_p50_ms != b[i].overall.rt_p50_ms ||
        a[i].overall.rt_p99_ms != b[i].overall.rt_p99_ms ||
        a[i].utilization != b[i].utilization ||
        a[i].events_processed != b[i].events_processed) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  PrintPreamble("bench_sim_throughput",
                "simulated events/sec: stats modes, disciplines; serial "
                "vs parallel grid");
  const auto workload = workload::PaperSimulationWorkload();
  const auto params = DefaultStudyParams();

  // (a) Single-cell engine throughput, Bouncer at 1.2x full load (a
  // representative overload point with a standing queue, where the
  // admitted-queue data structure actually matters).
  sim::SimulationConfig base = params.config;
  base.arrival_rate_qps = 1.2 * workload.FullLoadQps(base.parallelism);
  const PolicyConfig bouncer = MakeStudyPolicy(PolicyKind::kBouncer);

  struct CellSpec {
    const char* label;
    sim::QueueDiscipline discipline;
    sim::StatsMode stats;
    std::vector<int> priorities;
  };
  const std::vector<CellSpec> specs = {
      {"fifo_ring/exact", sim::QueueDiscipline::kFifo,
       sim::StatsMode::kExactSamples, {}},
      {"fifo_ring/streaming", sim::QueueDiscipline::kFifo,
       sim::StatsMode::kStreamingSummary, {}},
      {"fifo_ring/none", sim::QueueDiscipline::kFifo, sim::StatsMode::kNone,
       {}},
      {"sjf_heap/exact", sim::QueueDiscipline::kShortestJobFirst,
       sim::StatsMode::kExactSamples, {}},
      {"priority_heap/exact", sim::QueueDiscipline::kPriority,
       sim::StatsMode::kExactSamples, {3, 2, 1, 0}},
  };

  std::printf("(a) single-cell events/sec, Bouncer @ 1.2x, %llu queries\n",
              static_cast<unsigned long long>(base.total_queries));
  std::printf("%-24s %10s %12s %14s %10s\n", "config", "seconds", "events",
              "events/sec", "rejected");
  PrintRule(74);
  std::vector<CellRow> cells;
  for (const CellSpec& spec : specs) {
    sim::SimulationConfig config = base;
    config.discipline = spec.discipline;
    config.stats_mode = spec.stats;
    config.type_priorities = spec.priorities;
    cells.push_back(RunCell(spec.label, workload, config, bouncer));
    const CellRow& r = cells.back();
    std::printf("%-24s %10.3f %12llu %14.0f %10llu\n", r.label.c_str(),
                r.seconds, static_cast<unsigned long long>(r.events),
                r.events_per_sec, static_cast<unsigned long long>(r.rejected));
  }

  // (b) The study grid (every policy x load factor x seed) through the
  // parallel runner at increasing thread counts. Serial first, as the
  // speedup baseline and the determinism oracle.
  std::vector<sim::SimJob> jobs;
  const double full_load = workload.FullLoadQps(params.config.parallelism);
  for (const PolicyKind kind : StudyPolicyKinds()) {
    for (const double factor : params.load_factors) {
      for (int r = 0; r < params.runs; ++r) {
        sim::SimJob job;
        job.workload = &workload;
        job.config = params.config;
        job.config.arrival_rate_qps = factor * full_load;
        job.config.seed = params.config.seed + static_cast<uint64_t>(r) * 7919;
        job.policy = MakeStudyPolicy(kind);
        jobs.push_back(std::move(job));
      }
    }
  }

  std::printf("\n(b) %zu-cell study grid wall clock vs BOUNCER_BENCH_JOBS\n",
              jobs.size());
  std::printf("%-8s %10s %14s %10s %14s\n", "jobs", "seconds", "events/sec",
              "speedup", "bit-identical");
  PrintRule(60);
  std::vector<int> thread_counts = {1};
  const int max_jobs = sim::DefaultJobs();
  for (int j = 2; j < max_jobs; j *= 2) thread_counts.push_back(j);
  if (max_jobs > 1) thread_counts.push_back(max_jobs);

  std::vector<sim::SimulationResult> serial;
  std::vector<ParallelRow> parallel_rows;
  for (const int jobs_n : thread_counts) {
    const double t0 = Now();
    const auto results = sim::RunJobs(jobs, jobs_n);
    const double t1 = Now();
    uint64_t events = 0;
    for (const auto& r : results) events += r.events_processed;
    ParallelRow row;
    row.jobs = jobs_n;
    row.seconds = t1 - t0;
    row.events = events;
    row.events_per_sec =
        row.seconds > 0 ? static_cast<double>(events) / row.seconds : 0;
    if (jobs_n == 1) {
      serial = results;
    } else {
      row.speedup = parallel_rows[0].seconds / row.seconds;
      row.identical = Identical(serial, results);
    }
    parallel_rows.push_back(row);
    std::printf("%-8d %10.2f %14.0f %9.2fx %14s\n", row.jobs, row.seconds,
                row.events_per_sec, row.speedup,
                row.jobs == 1 ? "(baseline)"
                              : (row.identical ? "yes" : "NO (bug!)"));
  }

  WriteJson(cells, parallel_rows, jobs.size());
  std::printf("wrote BENCH_sim_throughput.json\n");
  return 0;
}
