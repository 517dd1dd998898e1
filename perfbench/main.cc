// End-to-end benchmark of the admission path. One invocation runs
// one workload and prints a JSON report as its last line; perfbench/run.py
// builds this binary, checks the simulator cells against the golden
// counts and prints the result line. See perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/client.h"
#include "perfbench/deployment.h"
#include "perfbench/layers.h"
#include "perfbench/sim_grid.h"
#include "src/graph/graph_generator.h"
#include "src/net/protocol.h"
#include "src/util/rng.h"

namespace bouncer::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Set-ups per run; set-up time is reported as their median.
constexpr int kSetups = 11;
/// Client threads and connections per thread (4 connections in total;
/// never more threads or connections than the 4-CPU reference host has
/// CPUs).
constexpr size_t kClientThreads = 1;
constexpr size_t kConnsPerThread = 4;
/// The 50 ms p90 SLO every query type carries; goodput counts OK
/// responses within it.
constexpr double kSloMs = 50.0;
/// Seed of the query pools: every run offers the same distinct queries,
/// and --seed draws the arrival schedule and which of them each request
/// sends.
constexpr uint64_t kPoolSeed = 1;

/// A network workload: one traffic shape against the one deployment.
struct NetWorkload {
  const char* name;
  PoolMix mix;
  size_t pool_size;
  bool open_loop;
  double rate_qps;  ///< Open loop: fixed absolute offered load.
  size_t window;    ///< Closed loop: outstanding requests per connection.
  Nanos warmup;
};

// The overload rate is absolute and fixed, never recalibrated per run:
// about 1.7x the ~1750 SLO-meeting responses per second the deployment
// sustains when overloaded on a 4-CPU host.
const NetWorkload kNetWorkloads[] = {
    {"net_cheap_closed", PoolMix::kCheap, 8192, false, 0.0, 11, 3 * kSecond},
    {"paper_mix_overload", PoolMix::kPaperMix, 2048, true, 3000.0, 0,
     7 * kSecond},
};

/// Everything the binary prints, before run.py turns it into the result
/// line.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t refused = 0;
  uint64_t failed = 0;
  /// Network responses by net::ResponseStatus (ok, rejected, shedded,
  /// expired, failed, bad request).
  uint64_t by_status[6] = {};
  MetricMap metrics;
  std::vector<std::pair<std::string, std::string>> info;  ///< Raw JSON.
  std::vector<SimCellRun> sim_cells;
  std::vector<std::string> errors;
};

void Fail(Report* report, const std::string& message) {
  report->correct = false;
  report->errors.push_back(message);
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

void SleepUntil(Nanos t) {
  for (Nanos now = NowNs(); now < t; now = NowNs()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
  }
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

/// What one measured client run saw: the end-to-end CPU cost and the
/// client-side goodput and latency, plus the layer counters at both edges
/// of the measurement window.
struct NetOutcome {
  double cpu_us_per_op = 0.0;
  double goodput_per_s = 0.0;
  double slo_ok_frac = 0.0;  ///< OK responses within the SLO / OK responses.
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
  LayerSnapshot begin;
  LayerSnapshot end;
  ClientRun run;
};

/// Drives `shape` against `deployment` and scores every response against
/// the reference values; counts go to `report` (attempted covers warm-up
/// and measurement, metrics only the measurement window).
NetOutcome MeasureNet(Deployment& deployment, LoadClient& client,
                      const LoadShape& shape,
                      const std::vector<PoolQuery>& pool,
                      const std::vector<uint64_t>& reference, Report* report) {
  NetOutcome out;
  const Nanos start = NowNs() + kMillisecond;
  std::thread sampler([&] {
    SleepUntil(start + shape.warmup);
    if (deployment.traced()) {
      deployment.metrics()
          .GetHistogram("stage.broker-0.est_wait_err_under_ns")
          ->Reset();
      deployment.metrics()
          .GetHistogram("stage.broker-0.est_wait_err_over_ns")
          ->Reset();
      deployment.shard_metrics().SetRecording(true);
    }
    out.begin = TakeSnapshot(deployment);
    SleepUntil(start + shape.warmup + shape.measure);
    out.end = TakeSnapshot(deployment);
    if (deployment.traced()) deployment.shard_metrics().SetRecording(false);
  });
  out.run = client.Run(shape, pool, start);
  sampler.join();

  std::vector<double> latency_ms;
  uint64_t good = 0;
  uint64_t wrong = 0;
  uint64_t unanswered = 0;
  uint64_t bad_status = 0;
  for (const auto& records : out.run.records) {
    for (const RequestRecord& r : records) {
      ++report->attempted;
      if (r.state != RequestState::kDone) {
        // A send the client could not place is a failed operation; a
        // request sent but never answered is a lost response.
        if (r.state == RequestState::kPending) ++unanswered;
        ++report->failed;
        continue;
      }
      if (r.status < std::size(report->by_status)) ++report->by_status[r.status];
      switch (static_cast<net::ResponseStatus>(r.status)) {
        case net::ResponseStatus::kOk:
          if (r.value != reference[r.pool_index]) {
            ++wrong;
            ++report->failed;
            continue;
          }
          ++report->succeeded;
          break;
        case net::ResponseStatus::kRejected:
        case net::ResponseStatus::kShedded:
        case net::ResponseStatus::kExpired:
        case net::ResponseStatus::kFailed:
          ++report->refused;
          continue;
        default:
          ++bad_status;
          ++report->failed;
          continue;
      }
      if (r.due < out.run.window_start || r.due >= out.run.window_end) {
        continue;
      }
      const double ms = static_cast<double>(r.recv - r.due) / 1e6;
      latency_ms.push_back(ms);
      if (ms <= kSloMs) ++good;
    }
  }
  report->failed += out.run.protocol_errors;
  if (wrong > 0) {
    Fail(report, std::to_string(wrong) + " OK responses differ from the "
                                         "reference values");
  }
  if (unanswered > 0) {
    Fail(report, std::to_string(unanswered) +
                     " requests got no response before the drain deadline");
  }
  if (bad_status > 0) {
    Fail(report, std::to_string(bad_status) +
                     " responses carry a bad-request or unknown status");
  }
  if (out.run.protocol_errors > 0) {
    Fail(report, std::to_string(out.run.protocol_errors) +
                     " response frames matched no outstanding request");
  }
  if (out.run.broken_connections > 0) {
    Fail(report, std::to_string(out.run.broken_connections) +
                     " connections failed during the run");
  }
  const double ok = static_cast<double>(latency_ms.size());
  if (ok > 0) {
    out.cpu_us_per_op = static_cast<double>(out.end.cpu - out.begin.cpu) /
                        1e3 / ok;
  }
  if (ok > 0) out.slo_ok_frac = static_cast<double>(good) / ok;
  out.goodput_per_s = static_cast<double>(good) * 1e9 /
                      static_cast<double>(shape.measure);
  out.latency_p50_ms = Quantile(latency_ms, 0.50);
  out.latency_p90_ms = Quantile(latency_ms, 0.90);
  out.latency_p99_ms = Quantile(latency_ms, 0.99);
  return out;
}

graph::GeneratorOptions GraphOptions() {
  // bench/real_common.cc DefaultRealParams(): the real-study graph.
  graph::GeneratorOptions options;
  options.num_vertices = 50'000;
  options.edges_per_vertex = 8;
  options.seed = 42;
  return options;
}

/// Replaces `deployment` and `client` with a fresh deployment over
/// `graph`; the client is left unset.
Status StartDeployment(const graph::GraphStore* graph, bool traced,
                       std::unique_ptr<Deployment>* deployment,
                       std::unique_ptr<LoadClient>* client) {
  client->reset();
  deployment->reset();
  auto started = Deployment::Start(graph, traced);
  if (!started.ok()) return started.status();
  *deployment = std::move(*started);
  return Status::OK();
}

/// Connects `client` to `deployment`. Not part of the timed set-up: the
/// client redials until every event loop holds one connection, and how
/// many dials that takes depends on the ephemeral ports the kernel hands
/// out.
Status ConnectClient(Deployment& deployment,
                     std::unique_ptr<LoadClient>* client) {
  auto connected =
      LoadClient::Connect(deployment.server(), kClientThreads, kConnsPerThread);
  if (!connected.ok()) return connected.status();
  *client = std::move(*connected);
  return Status::OK();
}

void RunNet(const NetWorkload& w, const Args& args, Report* report) {
  LoadShape shape;
  shape.open_loop = w.open_loop;
  shape.rate_qps = w.rate_qps;
  shape.window = w.window;
  shape.warmup = w.warmup;
  shape.measure = args.seconds * kSecond;
  shape.seed = args.seed;

  // Set-up: graph generation, query pool, reference pass, cluster and
  // server start. Repeated; the last deployment is measured.
  std::vector<double> setup_s;
  std::vector<double> step_s[4];  // Graph, pool, reference, start.
  std::unique_ptr<graph::GraphStore> graph;
  std::vector<PoolQuery> pool;
  std::vector<uint64_t> reference;
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<LoadClient> client;
  for (int k = 0; k < kSetups; ++k) {
    client.reset();
    deployment.reset();
    graph.reset();
    Nanos stamp[5];
    stamp[0] = NowNs();
    graph = std::make_unique<graph::GraphStore>(
        graph::GeneratePreferentialAttachment(GraphOptions()));
    stamp[1] = NowNs();
    pool = MakeQueryPool(w.mix, *graph, w.pool_size, kPoolSeed);
    stamp[2] = NowNs();
    auto values = ReferenceValues(*graph, pool);
    if (!values.ok()) return Fail(report, values.status().ToString());
    if (k == 0) {
      reference = std::move(*values);
    } else if (*values != reference) {
      return Fail(report, "reference passes disagree");
    }
    stamp[3] = NowNs();
    const Status started =
        StartDeployment(graph.get(), /*traced=*/false, &deployment, &client);
    if (!started.ok()) return Fail(report, started.ToString());
    stamp[4] = NowNs();
    setup_s.push_back(static_cast<double>(stamp[4] - stamp[0]) / 1e9);
    for (int i = 0; i < 4; ++i) {
      step_s[i].push_back(static_cast<double>(stamp[i + 1] - stamp[i]) / 1e9);
    }
  }
  const Status connected = ConnectClient(*deployment, &client);
  if (!connected.ok()) return Fail(report, connected.ToString());
  report->info.emplace_back(
      "setup_s_by_step",
      "{\"graph\":" + std::to_string(Median(step_s[0])) +
          ",\"pool\":" + std::to_string(Median(step_s[1])) +
          ",\"reference\":" + std::to_string(Median(step_s[2])) +
          ",\"start\":" + std::to_string(Median(step_s[3])) + "}");
  report->info.emplace_back(
      "backend", Quote(net::NetBackendName(deployment->server().backend())));
  report->info.emplace_back(
      "loops", std::to_string(deployment->server().num_loops()));
  report->info.emplace_back("rate_qps", std::to_string(w.rate_qps));
  report->info.emplace_back("window_per_conn", std::to_string(w.window));
  report->info.emplace_back(
      "connections", std::to_string(kClientThreads * kConnsPerThread));

  NetOutcome plain =
      MeasureNet(*deployment, *client, shape, pool, reference, report);
  if (!args.trace) {
    report->metrics["cpu_us_per_op"] = {plain.cpu_us_per_op, "us"};
    report->metrics["setup_s"] = {Median(setup_s), "s"};
    report->metrics["slo_ok_frac"] = {plain.slo_ok_frac, "fraction"};
    return;
  }

  // Traced run: a fresh deployment with the registry, shard metrics and
  // recorder attached, same traffic.
  Status started =
      StartDeployment(graph.get(), /*traced=*/true, &deployment, &client);
  if (started.ok()) started = ConnectClient(*deployment, &client);
  if (!started.ok()) return Fail(report, started.ToString());
  NetOutcome traced =
      MeasureNet(*deployment, *client, shape, pool, reference, report);

  AddZeroLayerMetrics(&report->metrics);
  AddLayerMetrics(*deployment, traced.begin, traced.end, traced.run,
                  &report->metrics);
  report->metrics["core.decide_ns"].value = DecideNs(args.seed);
  report->metrics["client.goodput_per_s"].value = plain.goodput_per_s;
  report->metrics["client.latency_p50_ms"].value = plain.latency_p50_ms;
  report->metrics["client.latency_p90_ms"].value = plain.latency_p90_ms;
  report->metrics["client.latency_p99_ms"].value = plain.latency_p99_ms;
  report->metrics["trace.overhead_frac"].value =
      traced.cpu_us_per_op / plain.cpu_us_per_op - 1.0;
}

/// Runs every cell of the grid once, in a seed-dependent order; returns
/// the wall time.
Nanos RunGridPass(const std::vector<SimCell>& cells, Rng& order_rng,
                  Report* report) {
  std::vector<size_t> order(cells.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[order_rng.NextBounded(i)]);
  }
  const Nanos start = NowNs();
  for (const size_t i : order) report->sim_cells.push_back(RunSimCell(cells[i]));
  return NowNs() - start;
}

void RunSim(const Args& args, Report* report) {
  std::vector<double> setup_s;
  std::vector<SimCell> cells;
  const SimCell check = SetupCheckCell();
  for (int k = 0; k < kSetups; ++k) {
    const Nanos t0 = NowNs();
    cells = PaperGridCells();
    report->sim_cells.push_back(RunSimCell(check));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const size_t setup_cells = report->sim_cells.size();

  // Whole passes over the grid until the time is used, so every run
  // measures the same cell mix.
  Rng order_rng(args.seed);
  const Nanos cpu0 = ProcessCpuNs();
  Nanos wall = 0;
  do {
    wall += RunGridPass(cells, order_rng, report);
  } while (wall < args.seconds * kSecond);
  const Nanos cpu = ProcessCpuNs() - cpu0;

  uint64_t events = 0;
  Nanos run_ns = 0;
  uint64_t completed = 0;
  uint64_t completed_in_slo_types = 0;
  for (size_t i = setup_cells; i < report->sim_cells.size(); ++i) {
    events += report->sim_cells[i].events;
    run_ns += report->sim_cells[i].run_ns;
    completed += report->sim_cells[i].completed;
    completed_in_slo_types += report->sim_cells[i].completed_in_slo_types;
  }
  report->attempted = report->succeeded = report->sim_cells.size();
  if (!args.trace) {
    report->metrics["setup_s"] = {Median(setup_s), "s"};
    report->metrics["cpu_us_per_op"] = {
        static_cast<double>(cpu) / 1e3 / static_cast<double>(events), "us"};
    report->metrics["slo_ok_frac"] = {
        static_cast<double>(completed_in_slo_types) /
            static_cast<double>(completed),
        "fraction"};
    return;
  }
  // The simulator has no trace points, so its tracing overhead is 0 by
  // construction and the same pass gives the per-layer numbers.
  AddZeroLayerMetrics(&report->metrics);
  report->metrics["sim.ns_per_event"].value =
      static_cast<double>(run_ns) / static_cast<double>(events);
  report->metrics["core.decide_ns"].value = DecideNs(args.seed);
}

void PrintReport(const Args& args, const Report& report) {
  std::string out;
  // Appends `key` (quoted) and a colon, preceded by a comma unless it
  // opens an object.
  const auto key = [&out](const std::string& name) {
    if (out.back() != '{') out += ',';
    out += Quote(name);
    out += ':';
  };
  out = "{";
  key("workload");
  out += Quote(args.workload);
  key("seed");
  out += std::to_string(args.seed);
  key("trace");
  out += args.trace ? "1" : "0";
  key("correct");
  out += report.correct ? "true" : "false";
  key("attempted");
  out += std::to_string(report.attempted);
  key("succeeded");
  out += std::to_string(report.succeeded);
  key("refused");
  out += std::to_string(report.refused);
  key("failed");
  out += std::to_string(report.failed);
  key("metrics");
  out += '{';
  for (const auto& [name, metric] : report.metrics) {
    // JSON has no NaN or infinity; such a value (a ratio over an empty
    // window) prints as 0; main() has already failed the report.
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    key(name);
    out += "{\"value\":";
    out += value;
    out += ",\"unit\":";
    out += Quote(metric.unit);
    out += '}';
  }
  out += '}';
  key("info");
  out += '{';
  for (const auto& [name, json] : report.info) {
    key(name);
    out += json;
  }
  key("responses_by_status");
  out += '[';
  for (const uint64_t n : report.by_status) {
    if (out.back() != '[') out += ',';
    out += std::to_string(n);
  }
  out += "]}";
  key("sim_cells");
  out += '[';
  for (const SimCellRun& run : report.sim_cells) {
    if (out.back() != '[') out += ',';
    out += '{';
    key("policy");
    out += Quote(run.policy);
    key("load_factor");
    out += std::to_string(run.load_factor);
    key("total_queries");
    out += std::to_string(run.total_queries);
    key("received");
    out += std::to_string(run.received);
    key("rejected");
    out += '[';
    for (size_t i = 0; i < run.rejected_per_type.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(run.rejected_per_type[i]);
    }
    out += "]}";
  }
  out += ']';
  key("errors");
  out += '[';
  for (const std::string& e : report.errors) {
    if (out.back() != '[') out += ',';
    out += Quote(e);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && argc % 2 == 1;
}

}  // namespace
}  // namespace bouncer::perfbench

int main(int argc, char** argv) {
  using namespace bouncer::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  Report report;
  if (args.workload == "sim_paper_grid") {
    RunSim(args, &report);
  } else {
    const NetWorkload* workload = nullptr;
    for (const NetWorkload& w : kNetWorkloads) {
      if (args.workload == w.name) workload = &w;
    }
    if (workload == nullptr) {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
    RunNet(*workload, args, &report);
  }
  for (const auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.value)) Fail(&report, name + " is not finite");
  }
  PrintReport(args, report);
  return 0;
}
