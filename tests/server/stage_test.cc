#include "src/server/stage.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "src/core/policy_factory.h"
#include "src/core/tenant_registry.h"
#include "src/stats/flight_recorder.h"
#include "src/stats/metric_registry.h"

namespace bouncer::server {
namespace {

const Slo kSlo{18 * kMillisecond, 50 * kMillisecond, 0};

struct StageFixture {
  explicit StageFixture(PolicyKind kind = PolicyKind::kAlwaysAccept,
                        size_t workers = 2)
      : registry(kSlo) {
    type_id = *registry.Register("t", kSlo);
    PolicyConfig config;
    config.kind = kind;
    if (kind == PolicyKind::kMaxQueueLength) {
      config.max_queue_length.length_limit = 2;
    }
    Stage::Options options;
    options.name = "test";
    options.num_workers = workers;
    stage = std::make_unique<Stage>(
        options, &registry, SystemClock::Global(),
        [&config](const PolicyContext& context) {
          return CreatePolicy(config, context);
        },
        [this](WorkItem& item) { Handle(item); });
  }

  void Handle(WorkItem& item) {
    (void)item;
    handled.fetch_add(1);
    if (busy_ns > 0) {
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::nanoseconds(busy_ns);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
  }

  WorkItem MakeItem() {
    WorkItem item;
    item.type = type_id;
    item.on_complete = [this](const WorkItem&, Outcome outcome) {
      switch (outcome) {
        case Outcome::kCompleted:
          completed.fetch_add(1);
          break;
        case Outcome::kRejected:
          rejected.fetch_add(1);
          break;
        case Outcome::kExpired:
          expired.fetch_add(1);
          break;
        case Outcome::kShedded:
          shedded.fetch_add(1);
          break;
      }
      done_count.fetch_add(1);
    };
    return item;
  }

  void WaitFor(std::atomic<int>& counter, int target,
               int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (counter.load() < target &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  QueryTypeRegistry registry;
  QueryTypeId type_id = 0;
  std::unique_ptr<Stage> stage;
  Nanos busy_ns = 0;
  std::atomic<int> handled{0};
  std::atomic<int> completed{0};
  std::atomic<int> rejected{0};
  std::atomic<int> expired{0};
  std::atomic<int> shedded{0};
  std::atomic<int> done_count{0};
};

TEST(StageTest, InitStatusOkForValidConfig) {
  StageFixture f;
  EXPECT_TRUE(f.stage->init_status().ok());
}

TEST(StageTest, StartTwiceFails) {
  StageFixture f;
  ASSERT_TRUE(f.stage->Start().ok());
  EXPECT_EQ(f.stage->Start().code(), StatusCode::kFailedPrecondition);
  f.stage->Stop();
}

TEST(StageTest, ProcessesSubmittedWork) {
  StageFixture f;
  ASSERT_TRUE(f.stage->Start().ok());
  for (int i = 0; i < 50; ++i) f.stage->Submit(f.MakeItem());
  f.WaitFor(f.completed, 50);
  f.stage->Stop();
  EXPECT_EQ(f.completed.load(), 50);
  EXPECT_EQ(f.stage->counters().completed, 50u);
  EXPECT_EQ(f.stage->counters().received, 50u);
}

/// Idle workers park as soon as the rings read dry. Each of these
/// strictly sequential round trips pauses first, so that every worker has
/// parked, and then depends on the submit-side wake-up: a lost one costs
/// the 10 ms park backstop, and a few hundred of them would blow the
/// bound. Odd round trips submit a batch of two (one wake-up per queued
/// item).
TEST(StageTest, SequentialRoundTripsNeverWaitForBackstop) {
  StageFixture f(PolicyKind::kAlwaysAccept, /*workers=*/4);
  ASSERT_TRUE(f.stage->Start().ok());
  constexpr int kRoundTrips = 5000;
  int submitted = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRoundTrips; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    if (i % 2 == 0) {
      f.stage->Submit(f.MakeItem());
      submitted += 1;
    } else {
      std::array<WorkItem, 2> batch{f.MakeItem(), f.MakeItem()};
      f.stage->SubmitBatch(batch);
      submitted += 2;
    }
    while (f.done_count.load() < submitted) std::this_thread::yield();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  f.stage->Stop();
  EXPECT_EQ(f.completed.load(), submitted);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

// An idle worker parks at once, and each park shows in
// stage.<name>.worker_parks once the worker is back up (woken by a
// submit or by the park backstop).
TEST(StageTest, ParkedWorkerCountsInWorkerParks) {
  StageFixture f;
  stats::MetricRegistry metrics;
  Stage::Options options;
  options.name = "parks";
  options.num_workers = 1;
  options.metrics = &metrics;
  PolicyConfig config;
  config.kind = PolicyKind::kAlwaysAccept;
  Stage stage(
      options, &f.registry, SystemClock::Global(),
      [&config](const PolicyContext& context) {
        return CreatePolicy(config, context);
      },
      [&f](WorkItem& item) { f.Handle(item); });
  ASSERT_TRUE(stage.Start().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (stage.counters().worker_parks == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(stage.counters().worker_parks, 0u);
  uint64_t published = 0;
  for (const auto& [name, value] : metrics.Snapshot().counters) {
    if (name == "stage.parks.worker_parks") published = value;
  }
  EXPECT_GT(published, 0u);
  stage.Stop();
}

TEST(StageTest, TimestampsAreOrdered) {
  StageFixture f;
  ASSERT_TRUE(f.stage->Start().ok());
  std::atomic<bool> checked{false};
  WorkItem item;
  item.type = f.type_id;
  item.on_complete = [&](const WorkItem& w, Outcome outcome) {
    EXPECT_EQ(outcome, Outcome::kCompleted);
    EXPECT_GT(w.enqueued, 0);
    EXPECT_GE(w.dequeued, w.enqueued);
    EXPECT_GE(w.completed, w.dequeued);
    EXPECT_GE(w.WaitTime(), 0);
    EXPECT_GE(w.ProcessingTime(), 0);
    EXPECT_EQ(w.ResponseTime(), w.WaitTime() + w.ProcessingTime());
    checked.store(true);
  };
  f.stage->Submit(std::move(item));
  f.WaitFor(f.handled, 1);
  f.stage->Stop();
  EXPECT_TRUE(checked.load());
}

TEST(StageTest, PolicyRejectionIsEarly) {
  StageFixture f(PolicyKind::kMaxQueueLength, /*workers=*/1);
  // Don't start the stage: submissions queue up, then exceed the limit.
  ASSERT_TRUE(f.stage->Start().ok());
  f.busy_ns = 50 * kMillisecond;
  // Saturate the single worker and fill the queue past the limit of 2.
  int rejected_now = 0;
  for (int i = 0; i < 10; ++i) {
    if (f.stage->Submit(f.MakeItem()) == Outcome::kRejected) ++rejected_now;
  }
  EXPECT_GT(rejected_now, 0);  // Early rejection returned synchronously.
  EXPECT_EQ(f.rejected.load(), rejected_now);  // Callback already ran.
  f.stage->Stop(false);
}

TEST(StageTest, ExpiredItemsSkipProcessing) {
  StageFixture f(PolicyKind::kAlwaysAccept, /*workers=*/1);
  ASSERT_TRUE(f.stage->Start().ok());
  f.busy_ns = 30 * kMillisecond;
  // First item occupies the worker; the second expires while queued.
  f.stage->Submit(f.MakeItem());
  WorkItem doomed = f.MakeItem();
  doomed.deadline = SystemClock::Global()->Now() + 5 * kMillisecond;
  f.stage->Submit(std::move(doomed));
  f.WaitFor(f.done_count, 2);
  f.stage->Stop();
  EXPECT_EQ(f.completed.load(), 1);
  EXPECT_EQ(f.expired.load(), 1);
  EXPECT_EQ(f.handled.load(), 1);  // The expired one never ran.
  EXPECT_EQ(f.stage->counters().expired, 1u);
}

TEST(StageTest, QueueCapacitySheds) {
  StageFixture f;
  Stage::Options options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  PolicyConfig config;
  config.kind = PolicyKind::kAlwaysAccept;
  Stage stage(
      options, &f.registry, SystemClock::Global(),
      [&config](const PolicyContext& context) {
        return CreatePolicy(config, context);
      },
      [&f](WorkItem& item) { f.Handle(item); });
  ASSERT_TRUE(stage.Start().ok());
  f.busy_ns = 30 * kMillisecond;
  int shed = 0;
  for (int i = 0; i < 10; ++i) {
    if (stage.Submit(f.MakeItem()) == Outcome::kShedded) ++shed;
  }
  EXPECT_GT(shed, 0);
  stage.Stop(false);
}

TEST(StageTest, StopWithoutDrainShedsQueued) {
  StageFixture f(PolicyKind::kAlwaysAccept, /*workers=*/1);
  ASSERT_TRUE(f.stage->Start().ok());
  f.busy_ns = 20 * kMillisecond;
  for (int i = 0; i < 5; ++i) f.stage->Submit(f.MakeItem());
  f.WaitFor(f.handled, 1);
  f.stage->Stop(false);
  // All five items terminated exactly once.
  EXPECT_EQ(f.done_count.load(), 5);
  EXPECT_GT(f.shedded.load() + f.completed.load(), 0);
}

TEST(StageTest, DrainCompletesEverything) {
  StageFixture f(PolicyKind::kAlwaysAccept, /*workers=*/2);
  ASSERT_TRUE(f.stage->Start().ok());
  for (int i = 0; i < 100; ++i) f.stage->Submit(f.MakeItem());
  f.stage->Stop(true);
  EXPECT_EQ(f.completed.load(), 100);
}

TEST(StageTest, QueueStateConsistentAfterDrain) {
  StageFixture f;
  ASSERT_TRUE(f.stage->Start().ok());
  for (int i = 0; i < 200; ++i) f.stage->Submit(f.MakeItem());
  f.WaitFor(f.completed, 200);
  EXPECT_EQ(f.stage->queue_state().TotalLength(), 0u);
  EXPECT_EQ(f.stage->QueueLength(), 0u);
  f.stage->Stop();
}

TEST(StageTest, ConcurrentSubmitters) {
  StageFixture f(PolicyKind::kAlwaysAccept, /*workers=*/4);
  ASSERT_TRUE(f.stage->Start().ok());
  std::vector<std::thread> submitters;
  constexpr int kPerThread = 500;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&f] {
      for (int i = 0; i < kPerThread; ++i) f.stage->Submit(f.MakeItem());
    });
  }
  for (auto& t : submitters) t.join();
  f.WaitFor(f.done_count, 4 * kPerThread);
  f.stage->Stop();
  EXPECT_EQ(f.done_count.load(), 4 * kPerThread);
  EXPECT_EQ(f.stage->counters().received,
            static_cast<uint64_t>(4 * kPerThread));
}

/// Counts every policy hook invocation, so tests can assert the stage
/// keeps the hook protocol balanced even on the shed paths.
class ProbePolicy final : public AdmissionPolicy {
 public:
  Decision Decide(WorkKey, Nanos) override {
    decided.fetch_add(1);
    return Decision::kAccept;
  }
  void OnEnqueued(WorkKey, Nanos) override { enqueued.fetch_add(1); }
  void OnRejected(WorkKey, Nanos) override { rejected.fetch_add(1); }
  void OnDequeued(WorkKey, Nanos, Nanos) override {
    dequeued.fetch_add(1);
  }
  void OnCompleted(WorkKey, Nanos, Nanos) override {
    processed.fetch_add(1);
  }
  void OnShedded(WorkKey, Nanos) override { shedded.fetch_add(1); }
  std::string_view name() const override { return "Probe"; }

  std::atomic<uint64_t> decided{0};
  std::atomic<uint64_t> enqueued{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> dequeued{0};
  std::atomic<uint64_t> processed{0};
  std::atomic<uint64_t> shedded{0};
};

// When the bounded queue sheds an accepted item, the policy must hear
// about it (OnShedded) so allowance/fraction windows stay honest: for
// every OnEnqueued there is exactly one OnDequeued or OnShedded.
TEST(StageTest, SheddingNotifiesPolicy) {
  StageFixture f;
  Stage::Options options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  ProbePolicy* probe = nullptr;
  Stage stage(
      options, &f.registry, SystemClock::Global(),
      [&probe](const PolicyContext&)
          -> StatusOr<std::unique_ptr<AdmissionPolicy>> {
        auto policy = std::make_unique<ProbePolicy>();
        probe = policy.get();
        return StatusOr<std::unique_ptr<AdmissionPolicy>>(std::move(policy));
      },
      [&f](WorkItem& item) { f.Handle(item); });
  ASSERT_TRUE(stage.Start().ok());
  ASSERT_NE(probe, nullptr);
  f.busy_ns = 20 * kMillisecond;
  constexpr int kSubmitted = 32;
  for (int i = 0; i < kSubmitted; ++i) stage.Submit(f.MakeItem());
  stage.Stop(false);

  // Every submission terminated exactly once.
  EXPECT_EQ(f.done_count.load(), kSubmitted);
  // The ring (capacity 2) plus one busy worker cannot absorb 32 items.
  EXPECT_GT(f.shedded.load(), 0);
  // Stage counters and policy hooks tell the same story.
  EXPECT_EQ(probe->shedded.load(), stage.counters().shedded);
  EXPECT_EQ(probe->enqueued.load(),
            probe->dequeued.load() + probe->shedded.load());
  EXPECT_EQ(stage.queue_state().TotalLength(), 0u);
}

// Many submitters racing a tiny ring and slow workers: exactly-once
// terminal outcomes and a balanced hook ledger under real contention.
TEST(StageTest, ConcurrentSheddingStress) {
  StageFixture f;
  Stage::Options options;
  options.num_workers = 2;
  options.queue_capacity = 4;
  ProbePolicy* probe = nullptr;
  Stage stage(
      options, &f.registry, SystemClock::Global(),
      [&probe](const PolicyContext&)
          -> StatusOr<std::unique_ptr<AdmissionPolicy>> {
        auto policy = std::make_unique<ProbePolicy>();
        probe = policy.get();
        return StatusOr<std::unique_ptr<AdmissionPolicy>>(std::move(policy));
      },
      [&f](WorkItem& item) { f.Handle(item); });
  ASSERT_TRUE(stage.Start().ok());
  f.busy_ns = 100 * kMicrosecond;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) stage.Submit(f.MakeItem());
    });
  }
  for (auto& t : submitters) t.join();
  stage.Stop(true);  // Drain: queued work completes.

  EXPECT_EQ(f.done_count.load(), kThreads * kPerThread);
  EXPECT_EQ(stage.counters().received,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(probe->enqueued.load(),
            probe->dequeued.load() + probe->shedded.load());
  EXPECT_EQ(stage.queue_state().TotalLength(), 0u);
  // Accepted items completed; shedded items never touched a worker.
  EXPECT_EQ(stage.counters().accepted,
            probe->dequeued.load());
  EXPECT_EQ(static_cast<uint64_t>(f.completed.load() + f.expired.load()),
            probe->dequeued.load());
}

// SubmitInline on an empty-and-admitting stage runs the handler (and
// Points 2–3 plus on_complete) on the calling thread, before returning.
TEST(StageTest, SubmitInlineRunsOnCallerWhenIdle) {
  StageFixture f;
  std::atomic<bool> ran_on_caller{false};
  Stage::Options options;
  options.num_workers = 2;
  PolicyConfig config;
  config.kind = PolicyKind::kAlwaysAccept;
  const std::thread::id caller = std::this_thread::get_id();
  Stage stage(
      options, &f.registry, SystemClock::Global(),
      [&config](const PolicyContext& context) {
        return CreatePolicy(config, context);
      },
      [&](WorkItem&) {
        ran_on_caller.store(std::this_thread::get_id() == caller);
      });
  ASSERT_TRUE(stage.Start().ok());
  EXPECT_EQ(stage.SubmitInline(f.MakeItem()), Outcome::kCompleted);
  // Synchronous: the terminal callback already fired when we return.
  EXPECT_EQ(f.completed.load(), 1);
  EXPECT_TRUE(ran_on_caller.load());
  EXPECT_EQ(stage.counters().completed, 1u);
  EXPECT_EQ(stage.queue_state().TotalLength(), 0u);
  stage.Stop();
}

// With work already queued ahead, SubmitInline must fall back to the
// FIFO: running inline would overtake queued items.
TEST(StageTest, SubmitInlineFallsBackWhenBusy) {
  StageFixture f(PolicyKind::kAlwaysAccept, /*workers=*/1);
  ASSERT_TRUE(f.stage->Start().ok());
  f.busy_ns = 50 * kMillisecond;
  f.stage->Submit(f.MakeItem());  // Occupies the single worker.
  f.WaitFor(f.handled, 1);
  f.stage->Submit(f.MakeItem());  // Queued behind it.
  f.stage->SubmitInline(f.MakeItem());
  // Had it run inline, its terminal callback would have fired already
  // (the first item is still busy for ~50 ms, the second still queued).
  EXPECT_EQ(f.completed.load(), 0);
  f.WaitFor(f.completed, 3);
  f.stage->Stop();
  EXPECT_EQ(f.completed.load(), 3);
}

// SubmitInline still runs Point 1 first: a rejecting policy turns it
// into a synchronous early rejection, identical to Submit.
TEST(StageTest, SubmitInlineRespectsPolicyRejection) {
  StageFixture f(PolicyKind::kMaxQueueLength, /*workers=*/1);
  ASSERT_TRUE(f.stage->Start().ok());
  f.busy_ns = 50 * kMillisecond;
  // Saturate the worker and the limit-2 queue, then SubmitInline.
  int rejected_now = 0;
  for (int i = 0; i < 6; ++i) {
    if (f.stage->Submit(f.MakeItem()) == Outcome::kRejected) ++rejected_now;
  }
  ASSERT_GT(rejected_now, 0);
  EXPECT_EQ(f.stage->SubmitInline(f.MakeItem()), Outcome::kRejected);
  f.stage->Stop(false);
}

// TryRunOne lets a foreign thread (a gathering broker worker) steal one
// queued item and process it in-place, preserving FIFO order.
TEST(StageTest, TryRunOneProcessesQueuedItem) {
  StageFixture f;  // Never started: no workers compete for the queue.
  EXPECT_FALSE(f.stage->TryRunOne());  // Empty queue.
  f.stage->Submit(f.MakeItem());
  f.stage->Submit(f.MakeItem());
  EXPECT_TRUE(f.stage->TryRunOne());
  EXPECT_EQ(f.handled.load(), 1);
  EXPECT_EQ(f.completed.load(), 1);
  EXPECT_TRUE(f.stage->TryRunOne());
  EXPECT_FALSE(f.stage->TryRunOne());
  EXPECT_EQ(f.completed.load(), 2);
  EXPECT_EQ(f.stage->counters().completed, 2u);
  EXPECT_EQ(f.stage->queue_state().TotalLength(), 0u);
}

TEST(StageTest, TenantThreadsThroughPolicyAndTrace) {
  // The tenant dimension rides every hop: Submit stamps item.tenant,
  // the policy's Decide sees it in the WorkKey, the PolicyContext
  // carries the registry, and the sampled trace events record it.
  QueryTypeRegistry registry(kSlo);
  const QueryTypeId type_id = *registry.Register("t", kSlo);
  TenantRegistry tenants;
  for (uint64_t e = 1; e <= 3; ++e) {
    ASSERT_TRUE(tenants.Register(e, 1.0).ok());
  }
  stats::FlightRecorder recorder;
  stats::FlightRecorder::Options trace_options;
  trace_options.sampling_period = 1;  // Trace every request.
  recorder.Configure(trace_options);
  recorder.SetEnabled(true);

  struct RecordingPolicy : AdmissionPolicy {
    explicit RecordingPolicy(std::array<std::atomic<int>, 4>* s) : seen(s) {}
    Decision Decide(WorkKey key, Nanos) override {
      if (key.tenant < seen->size()) (*seen)[key.tenant].fetch_add(1);
      return Decision::kAccept;
    }
    std::string_view name() const override { return "Recording"; }
    std::array<std::atomic<int>, 4>* seen;
  };
  std::array<std::atomic<int>, 4> seen{};
  const TenantRegistry* context_tenants = nullptr;

  Stage::Options options;
  options.name = "tenant";
  options.num_workers = 2;
  options.tenants = &tenants;
  options.recorder = &recorder;
  std::atomic<int> done{0};
  Stage stage(
      options, &registry, SystemClock::Global(),
      [&seen, &context_tenants](const PolicyContext& context)
          -> StatusOr<std::unique_ptr<AdmissionPolicy>> {
        context_tenants = context.tenants;
        return std::unique_ptr<AdmissionPolicy>(
            std::make_unique<RecordingPolicy>(&seen));
      },
      [](WorkItem&) {});
  ASSERT_TRUE(stage.init_status().ok());
  EXPECT_EQ(context_tenants, &tenants);
  ASSERT_TRUE(stage.Start().ok());

  const int kPerTenant[] = {0, 5, 3, 2};
  for (TenantId t = 1; t <= 3; ++t) {
    for (int i = 0; i < kPerTenant[t]; ++i) {
      WorkItem item;
      item.type = type_id;
      item.tenant = t;
      item.on_complete = [&done](const WorkItem&, Outcome) {
        done.fetch_add(1);
      };
      stage.Submit(std::move(item));
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < 10 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stage.Stop();
  ASSERT_EQ(done.load(), 10);
  for (TenantId t = 1; t <= 3; ++t) {
    EXPECT_EQ(seen[t].load(), kPerTenant[t]) << "tenant " << t;
  }
  // Sampled trace events carry the tenant index.
  std::string dump;
  recorder.Dump(&dump);
  for (TenantId t = 1; t <= 3; ++t) {
    EXPECT_NE(dump.find("\"tenant\":" + std::to_string(t)),
              std::string::npos)
        << "tenant " << t;
  }
}

TEST(StageBuilderTest, RequiresRegistryAndHandler) {
  StageBuilder builder;
  EXPECT_FALSE(builder.Build().ok());
  QueryTypeRegistry registry(kSlo);
  builder.SetRegistry(&registry);
  EXPECT_FALSE(builder.Build().ok());
  builder.SetHandler([](WorkItem&) {});
  EXPECT_TRUE(builder.Build().ok());
}

TEST(StageBuilderTest, PropagatesPolicyError) {
  QueryTypeRegistry registry(kSlo);
  PolicyConfig bad;
  bad.kind = PolicyKind::kMaxQueueLength;
  bad.max_queue_length.length_limit = 0;  // Invalid.
  StageBuilder builder;
  builder.SetRegistry(&registry)
      .SetHandler([](WorkItem&) {})
      .SetPolicyConfig(bad);
  EXPECT_FALSE(builder.Build().ok());
}

}  // namespace
}  // namespace bouncer::server
