// Golden tests: every Cluster graph operation checked against a
// straightforward single-threaded reference implementation. On the small
// random graph most caps are larger than any quantity in the graph; the
// capped references (RefExpand and what is built on it) model the
// per-vertex and total caps with std::set, and the hub graph makes the
// total caps bite so the smallest-k cut decides the answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <queue>
#include <set>

#include "src/graph/cluster.h"
#include "src/graph/graph_generator.h"

namespace bouncer::graph {
namespace {

using server::Outcome;
using server::WorkItem;

constexpr uint32_t kVertices = 300;  // Small: every cap is effectively off.

/// Cluster::Expand over std::set: the first `cap_per_vertex` adjacency
/// entries of each vertex (what a shard returns), deduplicated, cut to
/// the `total_cap` smallest ids.
std::set<uint32_t> RefExpand(const GraphStore& graph,
                             const std::set<uint32_t>& vertices,
                             size_t cap_per_vertex, size_t total_cap) {
  std::set<uint32_t> out;
  for (const uint32_t v : vertices) {
    const auto neighbors = graph.Neighbors(v);
    const size_t n = std::min(neighbors.size(), cap_per_vertex);
    out.insert(neighbors.begin(), neighbors.begin() + n);
  }
  while (out.size() > total_cap) out.erase(std::prev(out.end()));
  return out;
}

/// QT7: 2-hop count from the 32 smallest of `v`'s first 64 neighbours.
uint64_t RefTwoHopSample(const GraphStore& graph, uint32_t v) {
  const auto hop1 = RefExpand(graph, {v}, 64, 32);
  return RefExpand(graph, hop1, 32, 1024).size();
}

/// QT8: 2-hop count capped at 2048.
uint64_t RefTwoHopCount(const GraphStore& graph, uint32_t v) {
  const auto hop1 = RefExpand(graph, {v}, 128, 128);
  return RefExpand(graph, hop1, 64, 2048).size();
}

/// QT9: 2-hop count capped at 4096.
uint64_t RefTwoHopDedup(const GraphStore& graph, uint32_t v) {
  const auto hop1 = RefExpand(graph, {v}, 256, 256);
  return RefExpand(graph, hop1, 64, 4096).size();
}

/// QT10/QT11: BFS whose levels are capped the way the cluster caps them
/// (64 neighbours per vertex, `frontier_cap` smallest per level).
uint64_t RefCappedDistance(const GraphStore& graph, uint32_t source,
                           uint32_t target, uint32_t max_depth,
                           size_t frontier_cap) {
  if (source == target) return 0;
  std::set<uint32_t> visited = {source};
  std::set<uint32_t> frontier = {source};
  for (uint32_t depth = 1; depth <= max_depth; ++depth) {
    const auto next = RefExpand(graph, frontier, 64, frontier_cap);
    if (next.count(target) != 0) return depth;
    frontier.clear();
    for (const uint32_t u : next) {
      if (visited.insert(u).second) frontier.insert(u);
    }
    if (frontier.empty()) return 0;
  }
  return 0;
}

/// Submits `query` to `cluster` and waits for its value.
uint64_t AskCluster(Cluster& cluster, const GraphQuery& query) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  uint64_t value = 0;
  bool ok = false;
  cluster.Submit(query, 0,
                 [&](const WorkItem&, Outcome outcome,
                     const GraphQueryResult& result) {
                   std::lock_guard<std::mutex> lock(mu);
                   value = result.value;
                   ok = outcome == Outcome::kCompleted && result.ok;
                   done = true;
                   cv.notify_all();
                 });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  EXPECT_TRUE(ok);
  return value;
}

/// The cluster both fixtures query: one broker, three shards, no
/// admission rejections.
Cluster* StartCluster(const GraphStore* graph,
                      const QueryTypeRegistry* registry) {
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 4;
  options.num_shards = 3;
  options.shard_workers = 1;
  options.work_per_edge = 0;
  options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  auto* cluster =
      new Cluster(graph, registry, SystemClock::Global(), options);
  EXPECT_TRUE(cluster->Start().ok());
  return cluster;
}

class QueryGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.num_vertices = kVertices;
    options.edges_per_vertex = 3;
    options.seed = 77;
    graph_ = new GraphStore(GeneratePreferentialAttachment(options));

    const Slo slo{kSecond, kSecond, 0};
    registry_ = new QueryTypeRegistry(Cluster::MakeRegistry(slo));
    cluster_ = StartCluster(graph_, registry_);
  }

  static void TearDownTestSuite() {
    cluster_->Stop();
    delete cluster_;
    cluster_ = nullptr;
    delete registry_;
    registry_ = nullptr;
    delete graph_;
    graph_ = nullptr;
  }

  uint64_t Ask(const GraphQuery& query) {
    return AskCluster(*cluster_, query);
  }

  // ----- reference implementations -----

  static std::set<uint32_t> RefNeighbors(uint32_t v) {
    const auto span = graph_->Neighbors(v);
    return {span.begin(), span.end()};
  }

  static std::set<uint32_t> RefTwoHop(uint32_t v) {
    std::set<uint32_t> result;
    for (uint32_t u : RefNeighbors(v)) {
      for (uint32_t w : graph_->Neighbors(u)) result.insert(w);
    }
    return result;
  }

  static uint64_t RefDistance(uint32_t source, uint32_t target,
                              uint32_t max_depth) {
    if (source == target) return 0;
    std::set<uint32_t> visited = {source};
    std::vector<uint32_t> frontier = {source};
    for (uint32_t depth = 1; depth <= max_depth; ++depth) {
      std::vector<uint32_t> next;
      for (uint32_t v : frontier) {
        for (uint32_t u : graph_->Neighbors(v)) {
          if (u == target) return depth;
          if (visited.insert(u).second) next.push_back(u);
        }
      }
      if (next.empty()) return 0;
      frontier = std::move(next);
    }
    return 0;
  }

  static GraphStore* graph_;
  static QueryTypeRegistry* registry_;
  static Cluster* cluster_;
};

GraphStore* QueryGoldenTest::graph_ = nullptr;
QueryTypeRegistry* QueryGoldenTest::registry_ = nullptr;
Cluster* QueryGoldenTest::cluster_ = nullptr;

TEST_F(QueryGoldenTest, Degree) {
  for (uint32_t v = 0; v < kVertices; v += 13) {
    GraphQuery q{GraphOp::kDegree, v, 0, 0};
    EXPECT_EQ(Ask(q), graph_->Degree(v)) << v;
  }
}

TEST_F(QueryGoldenTest, NeighborsCount) {
  for (uint32_t v = 0; v < kVertices; v += 17) {
    GraphQuery q{GraphOp::kNeighbors, v, 0, 0};
    EXPECT_EQ(Ask(q), std::min<uint64_t>(graph_->Degree(v), 64)) << v;
  }
}

TEST_F(QueryGoldenTest, DegreeByExternalId) {
  for (uint32_t v = 5; v < kVertices; v += 31) {
    GraphQuery q{GraphOp::kDegreeByExternalId, v, 0, graph_->ExternalId(v)};
    EXPECT_EQ(Ask(q), graph_->Degree(v)) << v;
  }
  GraphQuery bogus{GraphOp::kDegreeByExternalId, 0, 0, 0xdeadbeef};
  EXPECT_EQ(Ask(bogus), 0u);
}

TEST_F(QueryGoldenTest, CommonNeighbors) {
  Rng rng(5);
  for (int i = 0; i < 25; ++i) {
    const auto a = static_cast<uint32_t>(rng.NextBounded(kVertices));
    const auto b = static_cast<uint32_t>(rng.NextBounded(kVertices));
    const auto na = RefNeighbors(a);
    const auto nb = RefNeighbors(b);
    std::vector<uint32_t> common;
    std::set_intersection(na.begin(), na.end(), nb.begin(), nb.end(),
                          std::back_inserter(common));
    GraphQuery q{GraphOp::kCommonNeighbors, a, b, 0};
    EXPECT_EQ(Ask(q), common.size()) << a << "," << b;
  }
}

TEST_F(QueryGoldenTest, NeighborDegreeSum) {
  for (uint32_t v = 0; v < kVertices; v += 41) {
    if (graph_->Degree(v) > 128) continue;  // Cap would bite.
    uint64_t expected = 0;
    for (uint32_t u : RefNeighbors(v)) expected += graph_->Degree(u);
    GraphQuery q{GraphOp::kNeighborDegreeSum, v, 0, 0};
    EXPECT_EQ(Ask(q), expected) << v;
  }
}

TEST_F(QueryGoldenTest, TopKNeighbors) {
  for (uint32_t v = 0; v < kVertices; v += 53) {
    if (graph_->Degree(v) > 256) continue;
    std::vector<uint32_t> degrees;
    for (uint32_t u : RefNeighbors(v)) degrees.push_back(graph_->Degree(u));
    std::sort(degrees.begin(), degrees.end(), std::greater<>());
    uint64_t expected = 0;
    for (size_t i = 0; i < std::min<size_t>(10, degrees.size()); ++i) {
      expected += degrees[i];
    }
    GraphQuery q{GraphOp::kTopKNeighbors, v, 0, 0};
    EXPECT_EQ(Ask(q), expected) << v;
  }
}

TEST_F(QueryGoldenTest, TwoHopCount) {
  for (uint32_t v = 0; v < kVertices; v += 67) {
    if (graph_->Degree(v) > 128) continue;
    bool capped = false;
    for (uint32_t u : RefNeighbors(v)) {
      if (graph_->Degree(u) > 64) capped = true;  // Per-vertex cap bites.
    }
    if (capped) continue;
    GraphQuery q{GraphOp::kTwoHopCount, v, 0, 0};
    const auto expected = RefTwoHop(v);
    if (expected.size() > 2048) continue;
    EXPECT_EQ(Ask(q), expected.size()) << v;
  }
}

TEST_F(QueryGoldenTest, DistanceDepth3) {
  Rng rng(9);
  for (int i = 0; i < 15; ++i) {
    const auto a = static_cast<uint32_t>(rng.NextBounded(kVertices));
    const auto b = static_cast<uint32_t>(rng.NextBounded(kVertices));
    const uint64_t expected = RefDistance(a, b, 3);
    // The cluster BFS caps per-vertex expansion at 64; skip pairs whose
    // reference path crosses a hub bigger than that.
    bool has_big_hub = false;
    for (uint32_t v = 0; v < kVertices; ++v) {
      if (graph_->Degree(v) > 64) has_big_hub = true;
    }
    GraphQuery q{GraphOp::kDistance3, a, b, 0};
    const uint64_t actual = Ask(q);
    if (!has_big_hub) {
      EXPECT_EQ(actual, expected) << a << "->" << b;
    } else {
      // With caps, the cluster may miss a path but never invents one
      // shorter than the true distance.
      if (actual != 0 && expected != 0) EXPECT_GE(actual, expected);
      if (expected == 0) {
        // Reference says unreachable within 3: cluster must agree or
        // also report 0 (caps only shrink reachability).
        EXPECT_EQ(actual, 0u);
      }
    }
  }
}

TEST_F(QueryGoldenTest, DistanceSelfAndNeighbor) {
  GraphQuery self{GraphOp::kDistance4, 10, 10, 0};
  EXPECT_EQ(Ask(self), 0u);
  const uint32_t neighbor = *RefNeighbors(10).begin();
  GraphQuery adjacent{GraphOp::kDistance4, 10, neighbor, 0};
  EXPECT_EQ(Ask(adjacent), 1u);
}

/// The highest-degree vertex of the small graph.
uint32_t Hub(const GraphStore& graph) {
  uint32_t hub = 0;
  for (uint32_t v = 1; v < graph.num_vertices(); ++v) {
    if (graph.Degree(v) > graph.Degree(hub)) hub = v;
  }
  return hub;
}

TEST_F(QueryGoldenTest, TwoHopSample) {
  const uint32_t hub = Hub(*graph_);
  for (uint32_t v = 0; v < kVertices; v += 19) {
    GraphQuery q{GraphOp::kTwoHopSample, v, 0, 0};
    EXPECT_EQ(Ask(q), RefTwoHopSample(*graph_, v)) << v;
  }
  GraphQuery q{GraphOp::kTwoHopSample, hub, 0, 0};
  EXPECT_EQ(Ask(q), RefTwoHopSample(*graph_, hub)) << hub;
}

TEST_F(QueryGoldenTest, TwoHopDedup) {
  const uint32_t hub = Hub(*graph_);
  for (uint32_t v = 0; v < kVertices; v += 23) {
    GraphQuery q{GraphOp::kTwoHopDedup, v, 0, 0};
    EXPECT_EQ(Ask(q), RefTwoHopDedup(*graph_, v)) << v;
    // No cap bites on this graph: the count is the whole 2-hop set.
    EXPECT_EQ(RefTwoHopDedup(*graph_, v), RefTwoHop(v).size()) << v;
  }
  GraphQuery q{GraphOp::kTwoHopDedup, hub, 0, 0};
  EXPECT_EQ(Ask(q), RefTwoHopDedup(*graph_, hub)) << hub;
}

TEST_F(QueryGoldenTest, DistanceDepth4) {
  Rng rng(11);
  for (int i = 0; i < 25; ++i) {
    const auto a = static_cast<uint32_t>(rng.NextBounded(kVertices));
    const auto b = static_cast<uint32_t>(rng.NextBounded(kVertices));
    GraphQuery q{GraphOp::kDistance4, a, b, 0};
    EXPECT_EQ(Ask(q), RefCappedDistance(*graph_, a, b, 4, 4096))
        << a << "->" << b;
  }
}

// A hand-built graph whose 2-hop and BFS levels overflow the cluster's
// total caps, so the answers depend on Expand keeping exactly the
// smallest ids:
//   - hub 0 is adjacent to mids 1..128;
//   - mid m has 64 leaves, except mids 33..64, which have 8;
//   - every leaf has one far vertex of its own.
// Ids are handed out hub, mids, leaves (in mid order), fars (in leaf
// order), so a smaller mid has smaller leaves and fars.
class QueryGoldenHubTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kMids = 128;

  static uint32_t LeafCount(uint32_t mid) {
    return mid >= 33 && mid <= 64 ? 8 : 64;
  }

  static void SetUpTestSuite() {
    uint32_t leaves = 0;
    for (uint32_t m = 1; m <= kMids; ++m) leaves += LeafCount(m);
    const uint32_t first_leaf = kMids + 1;
    GraphBuilder builder(first_leaf + 2 * leaves);
    uint32_t leaf = first_leaf;
    for (uint32_t m = 1; m <= kMids; ++m) {
      builder.AddUndirectedEdge(0, m);
      first_leaf_of_[m] = leaf;
      for (uint32_t j = 0; j < LeafCount(m); ++j, ++leaf) {
        builder.AddUndirectedEdge(m, leaf);
        builder.AddUndirectedEdge(leaf, leaf + leaves);
      }
    }
    num_leaves_ = leaves;
    graph_ = new GraphStore(std::move(builder).Build());
    const Slo slo{kSecond, kSecond, 0};
    registry_ = new QueryTypeRegistry(Cluster::MakeRegistry(slo));
    cluster_ = StartCluster(graph_, registry_);
  }

  static void TearDownTestSuite() {
    cluster_->Stop();
    delete cluster_;
    cluster_ = nullptr;
    delete registry_;
    registry_ = nullptr;
    delete graph_;
    graph_ = nullptr;
  }

  static uint32_t Far(uint32_t mid, uint32_t j) {
    return first_leaf_of_[mid] + j + num_leaves_;
  }

  uint64_t Ask(GraphOp op, uint32_t source, uint32_t target = 0) {
    return AskCluster(*cluster_, GraphQuery{op, source, target, 0});
  }

  static GraphStore* graph_;
  static QueryTypeRegistry* registry_;
  static Cluster* cluster_;
  static uint32_t first_leaf_of_[kMids + 1];
  static uint32_t num_leaves_;
};

GraphStore* QueryGoldenHubTest::graph_ = nullptr;
QueryTypeRegistry* QueryGoldenHubTest::registry_ = nullptr;
Cluster* QueryGoldenHubTest::cluster_ = nullptr;
uint32_t QueryGoldenHubTest::first_leaf_of_[kMids + 1] = {};
uint32_t QueryGoldenHubTest::num_leaves_ = 0;

TEST_F(QueryGoldenHubTest, TwoHopSampleKeepsTheSmallest32Neighbours) {
  // The hub's first 64 neighbours are mids 1..64; the 32 smallest (mids
  // 1..32) reach the hub plus 31 leaves each within the 32-per-vertex
  // cap. Any other 32 would include 8-leaf mids and count fewer.
  EXPECT_EQ(RefTwoHopSample(*graph_, 0), 1u + 32 * 31);
  EXPECT_EQ(Ask(GraphOp::kTwoHopSample, 0), RefTwoHopSample(*graph_, 0));
}

TEST_F(QueryGoldenHubTest, TwoHopCountsStopAtTheirCaps) {
  // 1 + 96 * 63 + 32 * 8 = 6305 unique 2-hop ids within the per-vertex
  // cap, more than QT8's 2048 and QT9's 4096.
  EXPECT_EQ(RefExpand(*graph_, RefExpand(*graph_, {0}, 128, 128), 64,
                      SIZE_MAX)
                .size(),
            6305u);
  EXPECT_EQ(Ask(GraphOp::kTwoHopCount, 0), RefTwoHopCount(*graph_, 0));
  EXPECT_EQ(Ask(GraphOp::kTwoHopCount, 0), 2048u);
  EXPECT_EQ(Ask(GraphOp::kTwoHopDedup, 0), RefTwoHopDedup(*graph_, 0));
  EXPECT_EQ(Ask(GraphOp::kTwoHopDedup, 0), 4096u);
}

TEST_F(QueryGoldenHubTest, BfsFrontierCapKeepsTheSmallestIds) {
  // Depth 2 from the hub holds 1 + 32 * 63 + 32 * 8 = 2273 ids. QT10's
  // 2048-id frontier keeps the hub, every leaf of mids 1..32 and the
  // leaves of mids 33..36 (31 of their 32), so a far vertex behind mid
  // 40 drops out of reach; QT11's 4096-id frontier keeps them all.
  const uint32_t near_far = Far(1, 0);
  const uint32_t dropped_far = Far(40, 0);
  EXPECT_EQ(RefCappedDistance(*graph_, 0, near_far, 3, 2048), 3u);
  EXPECT_EQ(RefCappedDistance(*graph_, 0, dropped_far, 3, 2048), 0u);
  EXPECT_EQ(RefCappedDistance(*graph_, 0, dropped_far, 4, 4096), 3u);
  for (const uint32_t target : {near_far, dropped_far, Far(36, 7),
                                Far(37, 0), Far(1, 63), Far(128, 0)}) {
    EXPECT_EQ(Ask(GraphOp::kDistance3, 0, target),
              RefCappedDistance(*graph_, 0, target, 3, 2048))
        << target;
    EXPECT_EQ(Ask(GraphOp::kDistance4, 0, target),
              RefCappedDistance(*graph_, 0, target, 4, 4096))
        << target;
  }
}

}  // namespace
}  // namespace bouncer::graph
