// Admission hot-path throughput: a closed-loop multi-threaded driver
// hammering Stage::Submit() and measuring decisions/sec plus the
// Submit -> enqueue latency distribution, swept over the number of
// registered query types (1 / 8 / 64 / 512) and all study policies.
// Bouncer's O(1) incremental Eq. 2 aggregate keeps its cost flat in the
// number of types. Results are printed as a table and written to
// BENCH_admission_throughput.json.
//
// A second sweep prices the shared-nothing execution core: a submitter
// x {sharded, single-queue} grid over the Bouncer policy at 512 types,
// where "single-queue" runs the pre-sharding one-global-FIFO core
// (Stage::Options::num_run_queues = 1) and "sharded" runs per-worker
// run queues with striped admission counters. Invoked as
// `bench_admission_throughput --guard` it instead runs just that pair
// best-of-3 and fails (exit 1) when sharded falls below
// BOUNCER_BENCH_GUARD_MIN_RATIO x single-queue (default 0.9 — a
// regression guard, not a speedup assertion, so core-starved CI hosts
// don't flap).
//
// A third sweep prices the high-cardinality tenant dimension: a tenant
// ladder (1 / 100 / 1k / 10k / 100k tenants, uniform draw per submit)
// over Bouncer wrapped in TenantFairPolicy and its flat-indexed
// PolicyStateTable. The acceptance bar: the per-decision cost at 10k
// tenants stays within ~1.15x of the single-tenant cell.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/policy_factory.h"
#include "src/core/tenant_registry.h"
#include "src/server/stage.h"
#include "src/stats/flight_recorder.h"
#include "src/stats/histogram.h"
#include "src/util/rng.h"

namespace bouncer::bench {
namespace {

constexpr size_t kSubmitters = 8;

/// Worker pool sized to the machine: the handler is trivial, so extra
/// workers only add scheduler churn on small hosts.
size_t BenchWorkers() {
  const size_t hw = HardwareConcurrency();
  if (hw <= 2) return 2;
  return hw < 8 ? hw : 8;
}

struct Variant {
  std::string name;
  PolicyConfig config;
};

std::vector<Variant> MakeVariants() {
  std::vector<Variant> variants;
  for (const PolicyKind kind : StudyPolicyKinds()) {
    Variant v;
    v.name = std::string(PolicyKindName(kind));
    v.config = MakeStudyPolicy(kind);
    variants.push_back(std::move(v));
  }
  return variants;
}

/// Unwraps the policy stack (QueueGuard / Allowance / Underserved) down
/// to the BouncerPolicy, or null for non-Bouncer policies.
BouncerPolicy* FindBouncer(AdmissionPolicy* policy) {
  for (;;) {
    if (auto* b = dynamic_cast<BouncerPolicy*>(policy)) return b;
    if (auto* g = dynamic_cast<QueueGuardPolicy*>(policy)) {
      policy = g->inner();
    } else if (auto* a = dynamic_cast<AcceptanceAllowancePolicy*>(policy)) {
      policy = a->inner();
    } else if (auto* u = dynamic_cast<HelpingUnderservedPolicy*>(policy)) {
      policy = u->inner();
    } else {
      return nullptr;
    }
  }
}

struct CellResult {
  std::string policy;
  size_t num_types = 0;
  size_t num_tenants = 0;  ///< 0 = tenant dimension off.
  size_t submitters = kSubmitters;
  size_t workers = 0;
  int single_queue = 0;  ///< One run queue (pre-sharding core).
  int tracing = 0;       ///< Flight recorder enabled (1-in-64 sampling).
  double seconds = 0;
  uint64_t decisions = 0;
  double decisions_per_sec = 0;
  Nanos submit_mean = 0;
  Nanos submit_p50 = 0;
  Nanos submit_p90 = 0;
  Nanos submit_p99 = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t shedded = 0;
};

struct CellParams {
  size_t num_types = 8;
  /// > 0 wraps the policy in TenantFairPolicy over this many
  /// pre-registered tenants, drawn uniformly per submit.
  size_t num_tenants = 0;
  size_t submitters = kSubmitters;
  size_t workers = 0;  ///< 0 = BenchWorkers().
  bool single_queue = false;
  bool tracing = false;
};

CellResult RunCell(const Variant& variant, Nanos duration,
                   const CellParams& params) {
  // Generous SLOs: the bench measures decision cost, not rejection
  // behavior, so the common path should be an accept.
  const Slo slo{kSecond, 2 * kSecond, 0};
  QueryTypeRegistry registry(slo);
  const size_t num_types = params.num_types;
  for (size_t i = 0; i < num_types; ++i) {
    (void)registry.Register("QT" + std::to_string(i + 1), slo);
  }

  server::Stage::Options options;
  options.name = "bench";
  options.num_workers = params.workers == 0 ? BenchWorkers() : params.workers;
  options.queue_capacity = 1 << 15;
  if (params.single_queue) options.num_run_queues = 1;
  // Cell-local recorder so the tracing column prices exactly the trace
  // sites (default 1-in-64 sampling), not a shared global's ring state.
  stats::FlightRecorder recorder;
  recorder.SetEnabled(params.tracing);
  options.recorder = &recorder;
  // Tenant ladder: pre-register the population (dense ids 1..N — the
  // steady state; first-contact interning is priced elsewhere) and draw
  // tenants uniformly per submit, the worst case for the state table's
  // cache locality.
  TenantRegistry tenant_registry;
  if (params.num_tenants > 0) {
    for (size_t t = 1; t <= params.num_tenants; ++t) {
      (void)tenant_registry.Register(t, 1.0);
    }
    options.tenants = &tenant_registry;
  }
  PolicyConfig config = variant.config;
  if (params.num_tenants > 0) config.tenant_fair = true;
  server::Stage stage(
      options, &registry, SystemClock::Global(),
      [&config](const PolicyContext& context) {
        return CreatePolicy(config, context);
      },
      [](server::WorkItem&) {});
  if (!stage.init_status().ok()) {
    std::fprintf(stderr, "policy init failed: %s\n",
                 stage.init_status().ToString().c_str());
    std::exit(1);
  }

  // Warm every type's histogram so Bouncer runs its steady-state path
  // (no cold-start shortcuts), then publish via a forced swap.
  Rng rng(42);
  for (size_t t = 1; t <= num_types; ++t) {
    for (int s = 0; s < 64; ++s) {
      stage.policy()->OnCompleted(
          static_cast<QueryTypeId>(t),
          static_cast<Nanos>(50 * kMicrosecond + rng.NextBounded(kMicrosecond)),
          0);
    }
  }
  if (BouncerPolicy* bouncer = FindBouncer(stage.policy())) {
    bouncer->ForceHistogramSwap();
  }

  if (!stage.Start().ok()) std::exit(1);

  stats::Histogram submit_latency;
  std::atomic<uint64_t> decisions{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(duration);
  const auto bench_start = std::chrono::steady_clock::now();

  std::vector<std::thread> submitters;
  for (size_t s = 0; s < params.submitters; ++s) {
    submitters.emplace_back([&, s] {
      Rng thread_rng(1000 + s);
      uint64_t local = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        // Batch between clock checks to keep the loop overhead small.
        for (int i = 0; i < 64; ++i) {
          server::WorkItem item;
          item.type = static_cast<QueryTypeId>(
              1 + thread_rng.NextBounded(num_types));
          if (params.num_tenants > 0) {
            item.tenant = static_cast<TenantId>(
                1 + thread_rng.NextBounded(params.num_tenants));
          }
          // Ids stamped in both columns so on/off differ only in the
          // recorder's enabled bit (the sampling hash's key source).
          item.id = (static_cast<uint64_t>(s) << 40) | local;
          const auto t0 = std::chrono::steady_clock::now();
          stage.Submit(std::move(item));
          const auto t1 = std::chrono::steady_clock::now();
          submit_latency.Record(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
          ++local;
        }
      }
      decisions.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& t : submitters) t.join();
  const auto bench_end = std::chrono::steady_clock::now();
  stage.Stop(false);

  CellResult r;
  r.policy = variant.name;
  r.num_types = num_types;
  r.num_tenants = params.num_tenants;
  r.submitters = params.submitters;
  r.workers = options.num_workers;
  r.single_queue = params.single_queue ? 1 : 0;
  r.tracing = params.tracing ? 1 : 0;
  r.seconds = std::chrono::duration<double>(bench_end - bench_start).count();
  r.decisions = decisions.load();
  r.decisions_per_sec = static_cast<double>(r.decisions) / r.seconds;
  r.submit_mean = submit_latency.Mean();
  r.submit_p50 = submit_latency.Percentile(0.5);
  r.submit_p90 = submit_latency.Percentile(0.9);
  r.submit_p99 = submit_latency.Percentile(0.99);
  const server::StageCounters counters = stage.counters();
  r.accepted = counters.accepted;
  r.rejected = counters.rejected;
  r.shedded = counters.shedded;
  return r;
}

void WriteCells(std::FILE* f, const std::vector<CellResult>& results) {
  std::fprintf(f, "  \"cells\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    std::fprintf(
        f,
        "    {\"policy\": \"%s\", \"num_types\": %zu, "
        "\"num_tenants\": %zu, \"submitters\": %zu, "
        "\"workers\": %zu, \"single_queue\": %d, "
        "\"tracing\": %d, "
        "\"seconds\": %.3f, \"decisions\": %llu, "
        "\"decisions_per_sec\": %.0f, \"submit_mean_ns\": %lld, "
        "\"submit_p50_ns\": %lld, \"submit_p90_ns\": %lld, "
        "\"submit_p99_ns\": %lld, \"accepted\": %llu, "
        "\"rejected\": %llu, \"shedded\": %llu}%s\n",
        r.policy.c_str(), r.num_types, r.num_tenants, r.submitters,
        r.workers, r.single_queue, r.tracing, r.seconds,
        static_cast<unsigned long long>(r.decisions),
        r.decisions_per_sec, static_cast<long long>(r.submit_mean),
        static_cast<long long>(r.submit_p50),
        static_cast<long long>(r.submit_p90),
        static_cast<long long>(r.submit_p99),
        static_cast<unsigned long long>(r.accepted),
        static_cast<unsigned long long>(r.rejected),
        static_cast<unsigned long long>(r.shedded),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
}

void WriteJson(const std::vector<CellResult>& results) {
  std::FILE* f = std::fopen("BENCH_admission_throughput.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"bench\": \"admission_throughput\",\n");
  WriteHostJsonFields(f);
  std::fprintf(f, "  \"submitters\": %zu,\n  \"workers\": %zu,\n",
               kSubmitters, BenchWorkers());
  WriteCells(f, results);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

/// The sharded-vs-single-queue pair the scaling grid and the guard mode
/// share: Bouncer at `num_types` types, `submitters` closed-loop
/// threads.
Variant GridVariant() {
  Variant v;
  v.name = "Bouncer";
  v.config = MakeStudyPolicy(PolicyKind::kBouncer);
  return v;
}

/// Regression guard for the shared-nothing execution core, run by CI
/// pinned to a fixed CPU set. Best-of-3 per column absorbs scheduler
/// noise; the threshold defaults below 1.0 because a core-starved host
/// (CI runners routinely grant 2 CPUs) cannot demonstrate scaling, only
/// catastrophic regression.
int RunGuard(Nanos duration) {
  const double configured_min_ratio = [] {
    const char* env = std::getenv("BOUNCER_BENCH_GUARD_MIN_RATIO");
    if (env == nullptr) return 0.9;
    const double v = std::atof(env);
    return v > 0 ? v : 0.9;
  }();
  // A core-starved host (fewer CPUs than the guard's worker + submitter
  // threads want) cannot demonstrate scaling: time-slicing makes the
  // sharded core's steal scans pure overhead. Keep the run as a smoke
  // test there, but only fail on a catastrophic regression.
  const size_t cpus = AffinityCpuCount();
  constexpr size_t kFullGuardCpus = 4;
  const bool core_starved = cpus < kFullGuardCpus;
  const double min_ratio =
      core_starved ? configured_min_ratio * 0.5 : configured_min_ratio;
  if (core_starved) {
    std::printf(
        "note: affinity grants %zu CPUs (< %zu); relaxing threshold "
        "%.3fx -> %.3fx (catastrophic-regression guard only)\n",
        cpus, kFullGuardCpus, configured_min_ratio, min_ratio);
  }
  const Variant variant = GridVariant();

  auto best_of_3 = [&](const CellParams& params) {
    CellResult best;
    for (int run = 0; run < 3; ++run) {
      CellResult r = RunCell(variant, duration, params);
      if (r.decisions_per_sec > best.decisions_per_sec) best = std::move(r);
    }
    return best;
  };

  CellParams core_params;
  core_params.num_types = 512;
  core_params.submitters = kSubmitters;
  core_params.single_queue = false;
  const CellResult sharded = best_of_3(core_params);
  core_params.single_queue = true;
  const CellResult single = best_of_3(core_params);
  const double ratio = single.decisions_per_sec > 0
                           ? sharded.decisions_per_sec /
                                 single.decisions_per_sec
                           : 0;


  std::printf("%-24s %9s %9s %10s %12s\n", "cell", "types", "tenants",
              "submitters", "decisions/s");
  PrintRule(70);
  std::printf("%-24s %9zu %9zu %10zu %12.0f\n", "sharded", sharded.num_types,
              sharded.num_tenants, sharded.submitters,
              sharded.decisions_per_sec);
  std::printf("%-24s %9zu %9zu %10zu %12.0f\n", "single-queue",
              single.num_types, single.num_tenants, single.submitters,
              single.decisions_per_sec);
  std::printf("sharded/single-queue = %.3fx (min %.3fx)\n", ratio, min_ratio);

  std::FILE* f = std::fopen("BENCH_admission_guard.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"admission_guard\",\n");
    WriteHostJsonFields(f);
    std::fprintf(f, "  \"min_ratio\": %.3f, \"ratio\": %.3f,\n", min_ratio,
                 ratio);
    std::fprintf(f, "  \"core_starved\": %s,\n",
                 core_starved ? "true" : "false");
    WriteCells(f, {sharded, single});
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_admission_guard.json\n");
  }

  if (ratio < min_ratio) {
    std::fprintf(stderr,
                 "FAIL: sharded execution core at %.3fx of single-queue "
                 "(threshold %.3fx)\n",
                 ratio, min_ratio);
    return 1;
  }
  std::printf("guard OK\n");
  return 0;
}

int Main(int argc, char** argv) {
  const bool guard_mode =
      argc > 1 && std::strcmp(argv[1], "--guard") == 0;
  PrintPreamble("bench_admission_throughput",
                guard_mode
                    ? "sharded vs single-queue execution-core regression "
                      "guard (best of 3)"
                    : "closed-loop Stage::Submit() throughput and latency "
                      "by policy and number of query types");
  const Nanos duration = BenchScale() == 0   ? 100 * kMillisecond
                         : BenchScale() == 1 ? 300 * kMillisecond
                                             : kSecond;
  if (guard_mode) return RunGuard(duration);

  const std::vector<size_t> type_counts = {1, 8, 64, 512};
  const std::vector<Variant> variants = MakeVariants();

  std::printf("%-24s %9s %12s %12s %10s %10s %10s\n", "policy", "types",
              "decisions/s", "mean_ns", "p50_ns", "p90_ns", "p99_ns");
  PrintRule(94);
  std::vector<CellResult> results;
  for (const size_t num_types : type_counts) {
    for (const Variant& variant : variants) {
      CellParams params;
      params.num_types = num_types;
      const CellResult r = RunCell(variant, duration, params);
      std::printf("%-24s %9zu %12.0f %12lld %10lld %10lld %10lld\n",
                  r.policy.c_str(), r.num_types, r.decisions_per_sec,
                  static_cast<long long>(r.submit_mean),
                  static_cast<long long>(r.submit_p50),
                  static_cast<long long>(r.submit_p90),
                  static_cast<long long>(r.submit_p99));
      results.push_back(r);
    }
    PrintRule(94);
  }
  // Tracing overhead pair: the same Bouncer cell with the flight
  // recorder off vs on at the default 1-in-64 sampling (the always-on
  // observability bar is < 3% throughput cost).
  const Variant* bouncer_variant = nullptr;
  for (const Variant& v : variants) {
    if (v.name == "Bouncer") bouncer_variant = &v;
  }
  if (bouncer_variant != nullptr) {
    CellParams params;
    params.num_types = 8;
    params.tracing = false;
    const CellResult off = RunCell(*bouncer_variant, duration, params);
    params.tracing = true;
    const CellResult on = RunCell(*bouncer_variant, duration, params);
    results.push_back(off);
    results.push_back(on);
    std::printf("%-24s %9zu %12.0f   (tracing off)\n", off.policy.c_str(),
                off.num_types, off.decisions_per_sec);
    std::printf("%-24s %9zu %12.0f   (tracing on, 1-in-64)\n",
                on.policy.c_str(), on.num_types, on.decisions_per_sec);
    if (off.decisions_per_sec > 0) {
      std::printf("tracing overhead: %+.2f%%\n",
                  100.0 * (off.decisions_per_sec - on.decisions_per_sec) /
                      off.decisions_per_sec);
    }
    PrintRule(94);
  }

  // Execution-core scaling grid: submitter counts x {sharded,
  // single-queue} over Bouncer at 512 types. On a multi-core host the
  // sharded column should pull ahead as submitters grow (contended
  // single FIFO + shared counter lines vs per-submitter rings + striped
  // counters); at scale 0 the grid is trimmed to its endpoints.
  const Variant grid_variant = GridVariant();
  const std::vector<size_t> submitter_counts =
      BenchScale() == 0 ? std::vector<size_t>{1, kSubmitters}
                        : std::vector<size_t>{1, 2, 4, kSubmitters};
  std::printf("%-24s %9s %10s %12s %12s\n", "core", "types", "submitters",
              "decisions/s", "p99_ns");
  PrintRule(94);
  for (const size_t submitters : submitter_counts) {
    for (const bool single_queue : {false, true}) {
      CellParams params;
      params.num_types = 512;
      params.submitters = submitters;
      params.single_queue = single_queue;
      const CellResult r = RunCell(grid_variant, duration, params);
      std::printf("%-24s %9zu %10zu %12.0f %12lld\n",
                  single_queue ? "single-queue" : "sharded", r.num_types,
                  r.submitters, r.decisions_per_sec,
                  static_cast<long long>(r.submit_p99));
      results.push_back(r);
    }
  }
  PrintRule(94);

  // Tenant ladder: Bouncer + TenantFairPolicy over a growing tenant
  // population. The per-decision cost should stay near-flat up the
  // ladder (O(1) addressing, one cache line per tenant).
  const std::vector<size_t> tenant_counts =
      BenchScale() == 0 ? std::vector<size_t>{1, 10'000}
                        : std::vector<size_t>{1, 100, 1'000, 10'000, 100'000};
  std::printf("%-24s %9s %12s %12s %10s\n", "tenant state", "tenants",
              "decisions/s", "mean_ns", "p99_ns");
  PrintRule(94);
  for (const size_t num_tenants : tenant_counts) {
    CellParams params;
    params.num_types = 8;
    params.num_tenants = num_tenants;
    const CellResult r = RunCell(grid_variant, duration, params);
    std::printf("%-24s %9zu %12.0f %12lld %10lld\n", "flat", r.num_tenants,
                r.decisions_per_sec, static_cast<long long>(r.submit_mean),
                static_cast<long long>(r.submit_p99));
    results.push_back(r);
  }
  PrintRule(94);

  WriteJson(results);
  std::printf("wrote BENCH_admission_throughput.json\n");

  // Execution-core headline: sharded vs single-queue at max submitters.
  {
    double sharded = 0, single = 0;
    for (const CellResult& r : results) {
      if (r.num_types != 512 || r.submitters != kSubmitters) continue;
      if (r.policy != "Bouncer" || r.tracing != 0) continue;
      if (r.single_queue == 0) sharded = r.decisions_per_sec;
      if (r.single_queue == 1) single = r.decisions_per_sec;
    }
    if (sharded > 0 && single > 0) {
      std::printf("submitters=%zu types=512: sharded/single-queue = %.2fx\n",
                  kSubmitters, sharded / single);
    }
  }
  // Tenant-ladder headline: the flat slab's per-decision cost at 10k
  // tenants relative to the single-tenant cell (the <= ~1.15x
  // cardinality-proofness bar).
  {
    double flat_mean_1 = 0, flat_mean_10k = 0;
    for (const CellResult& r : results) {
      if (r.num_types != 8 || r.tracing != 0) continue;
      if (r.num_tenants == 1) flat_mean_1 = static_cast<double>(r.submit_mean);
      if (r.num_tenants == 10'000) {
        flat_mean_10k = static_cast<double>(r.submit_mean);
      }
    }
    if (flat_mean_1 > 0 && flat_mean_10k > 0) {
      std::printf("flat per-decision mean: 10k tenants / 1 tenant = %.3fx\n",
                  flat_mean_10k / flat_mean_1);
    }
  }
  return 0;
}

}  // namespace
}  // namespace bouncer::bench

int main(int argc, char** argv) { return bouncer::bench::Main(argc, argv); }
