#ifndef BOUNCER_NET_NET_SERVER_H_
#define BOUNCER_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/policy_state_table.h"
#include "src/core/tenant_registry.h"
#include "src/graph/cluster.h"
#include "src/net/byte_ring.h"
#include "src/net/protocol.h"
#include "src/stats/flight_recorder.h"
#include "src/stats/metric_registry.h"
#include "src/util/mpmc_queue.h"
#include "src/util/object_pool.h"
#include "src/util/status.h"

namespace bouncer::net {

/// Names the transport in reports; epoll is the only one.
enum class NetBackend : uint8_t { kEpoll };

/// "epoll".
const char* NetBackendName(NetBackend backend);

/// NetServer's counters, declared once: the Stats snapshot fields, the
/// per-loop atomic block, the per-loop/aggregate readers and the
/// "net.<name>" metrics all expand this list.
///
///   connections_dropped  no free slot, or over max_connections
///   responses            every completion of a parsed request, also one
///                        dropped because its connection closed first
///                        (so after Stop(), responses == requests), plus
///                        kBadRequest and admin answers
///   rejections           kRejected + kShedded responses, split into
///                        rejections_policy (the admission policy said
///                        no) and rejections_queue (shed on a full
///                        bounded queue)
///   failures_shard       kFailed: a shard-side subquery was lost
///   expirations          kExpired responses
///   pauses               read-interest disarm episodes, split by cause
///                        into pauses_inflight (inflight cap), pauses_tx
///                        (write-ring space) and pauses_overload
///                        (broker-queue sheds)
///   admin_requests       admin opcodes served
///   nodelay_failures     TCP_NODELAY not verified on an accepted socket
///   syscalls             data-path syscalls: epoll_wait, readv/sendmsg/
///                        accept4, epoll_ctl, eventfd reads and writes.
///                        Divided by `responses` this is the per-request
///                        syscall cost.
///   wakeups              epoll_wait returns
///   eventfd_wakeups      completion-signal write(2)s workers actually
///                        issued; pushes that found the loop awake are
///                        coalesced away (no syscall)
#define BOUNCER_NET_COUNTERS(X) \
  X(connections_accepted)       \
  X(connections_dropped)        \
  X(connections_closed)         \
  X(requests)                   \
  X(responses)                  \
  X(rejections)                 \
  X(rejections_policy)          \
  X(rejections_queue)           \
  X(failures_shard)             \
  X(expirations)                \
  X(bad_frames)                 \
  X(submit_batches)             \
  X(pauses)                     \
  X(pauses_inflight)            \
  X(pauses_tx)                  \
  X(pauses_overload)            \
  X(admin_requests)             \
  X(nodelay_failures)           \
  X(syscalls)                   \
  X(wakeups)                    \
  X(eventfd_wakeups)

/// Linux TCP front door for a graph::Cluster, sharded across N
/// independent event loops (`Options::num_loops`, default
/// min(hardware threads, 4)) so the front-end scales with cores instead
/// of serializing every connection behind one loop thread.
///
/// Each loop is a self-contained reactor: its own `SO_REUSEPORT`
/// listener (the kernel hashes incoming connections across the
/// listeners; Start() fails if a listener cannot be bound), its own
/// connection-slot table and byte rings, its own parse/submit batch
/// buffers, its own `ObjectPool` of per-request records, and its own
/// completion ring + eventfd. Nothing mutable is shared between loops on
/// the hot path — the zero-allocation, single-writer discipline of the
/// original single-loop design holds per loop — and all loops stream
/// their parsed batches into the shared admission stages via
/// `Cluster::SubmitBatch`.
///
/// Completions route back to the owning loop through a 64-bit
/// generation-stamped connection token:
///
///   bits 63..32  generation (slot reuse guard)
///   bits 31..24  loop id    (completion routing)
///   bits 23..0   slot index (within the owning loop's table)
///
/// A cluster worker finishing a query packs {token, id, status, value}
/// into the owning loop's bounded MPMC done-ring and writes that loop's
/// eventfd on the empty→non-empty transition; only the owning loop ever
/// touches the connection. Rejections still complete synchronously
/// inside the submitting loop's `SubmitBatch` call and are answered
/// from the same loop iteration without waking any worker.
///
/// Per-connection backpressure (inflight cap, write-ring owed-space
/// gate, broker-shed overload pause with half-capacity resume) is
/// unchanged from the single-loop design and applies loop-locally:
/// paused sockets fill their kernel receive buffers, shrink the TCP
/// window, and push the queueing back into the clients.
class NetServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;  ///< 0 = ephemeral; read the bound port via port().
    int listen_backlog = 256;
    /// Event loops. 0 = min(hardware threads, 4). Capped at 255 (the
    /// loop-id field of the connection token is 8 bits).
    size_t num_loops = 0;
    size_t max_connections = 1024;  ///< Across all loops.
    size_t read_ring_bytes = 1 << 16;
    size_t write_ring_bytes = 1 << 17;
    /// Cap on one admission episode: each wakeup's parse batch goes
    /// through Cluster::SubmitBatch, and a wakeup that parses more
    /// submits in chunks of this size.
    size_t max_batch = 4096;
    /// Admitted-but-unanswered cap per connection before its EPOLLIN is
    /// paused. Bounds both completion-ring pressure and write-ring needs.
    size_t max_inflight_per_conn = 1024;
    /// When set, the server answers kOpStatsJson/kOpStatsPrometheus from
    /// this registry and publishes its own per-loop counters into it
    /// (under "net.*"); must outlive the server. Without it, admin stats
    /// requests return an empty snapshot.
    stats::MetricRegistry* metrics = nullptr;
    /// Flight recorder serving kOpTraceDump and receiving the net-layer
    /// parse/response events of sampled requests; defaults to
    /// stats::FlightRecorder::Global() when tracing is compiled in.
    stats::FlightRecorder* recorder = nullptr;
    /// Interns the wire protocol's external tenant ids (v2 frames) into
    /// the dense indices the admission stages key their per-tenant state
    /// on; should be the same registry the cluster's stages were built
    /// with. Must outlive the server. When null, every request runs as
    /// the default tenant and v2 tenant ids are ignored. With `metrics`
    /// also set, per-tenant outcome counters are published under
    /// "tenant.<external-id>.*".
    TenantRegistry* tenants = nullptr;
  };

  /// Counter snapshot. Counters are accumulated per loop in
  /// cache-line-padded blocks (no false sharing between loops) and
  /// summed on read by AggregateStats() / LoopStats(); each is also
  /// exported as the "net.<name>" metric.
  struct Stats {
#define BOUNCER_NET_STATS_FIELD(name) uint64_t name = 0;
    BOUNCER_NET_COUNTERS(BOUNCER_NET_STATS_FIELD)
#undef BOUNCER_NET_STATS_FIELD
  };

  /// `cluster` must be started, and must outlive the server. Shutdown
  /// order: NetServer::Stop() (or destruction), then Cluster::Stop() —
  /// completions the cluster flushes during its stop still land in this
  /// object's completion rings, so the server object must still exist.
  NetServer(graph::Cluster* cluster, const Options& options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds the listener(s) and spawns one event-loop thread per loop.
  Status Start();
  /// Stops every loop and closes every connection. Idempotent.
  void Stop();

  /// The bound TCP port (valid after Start(); all listeners share it).
  uint16_t port() const { return port_; }
  /// Counters summed across loops.
  Stats AggregateStats() const;
  /// One loop's counters (loop < num_loops()).
  Stats LoopStats(size_t loop) const;
  /// Event loops actually running (valid after Start()).
  size_t num_loops() const { return loops_.size(); }
  const Options& options() const { return options_; }
  /// Names the transport in reports.
  NetBackend backend() const { return NetBackend::kEpoll; }

  /// Per-tenant outcome counters (Options::tenants required; zeros
  /// otherwise). `tenant` is the dense registry index.
  struct TenantStats {
    uint64_t requests = 0;   ///< Frames parsed for this tenant.
    uint64_t ok = 0;         ///< kOk responses.
    uint64_t rejected = 0;   ///< Policy rejections.
    uint64_t shedded = 0;    ///< Queue sheds.
    uint64_t expired = 0;    ///< Deadline expirations.
    uint64_t failed = 0;     ///< Shard-side subquery failures.
  };
  TenantStats TenantStatsOf(TenantId tenant) const;

 private:
  struct Connection;
  struct Pending;  ///< Pooled per-request completion record.
  struct Loop;

  /// Completion record a cluster worker pushes for the owning loop to
  /// deliver.
  struct Done {
    uint64_t token = 0;  ///< Generation | loop id | slot index.
    uint64_t request_id = 0;
    uint8_t status = 0;
    uint8_t reason = 0;  ///< RejectReason wire code (response flags byte).
    uint64_t value = 0;
  };

  /// Per-loop counters, cache-line aligned so two loops bumping their
  /// own counters never share a line.
  struct alignas(64) LoopCounters {
#define BOUNCER_NET_LOOP_COUNTER(name) std::atomic<uint64_t> name{0};
    BOUNCER_NET_COUNTERS(BOUNCER_NET_LOOP_COUNTER)
#undef BOUNCER_NET_LOOP_COUNTER
  };

  /// A loop thread's body: wait, dispatch, then the submit/complete/
  /// flush phases.
  void RunLoop(Loop& loop);
  /// One epoll_wait (with the pre-wait handshake already done) and the
  /// dispatch of what it returned.
  void WaitAndDispatch(Loop& loop, Nanos timeout);
  /// Accepts every pending connection. When accept fails for want of fds
  /// or memory, stops polling the listener until a retry time, so a full
  /// fd table cannot spin the loop.
  void AcceptReady(Loop& loop);
  /// Enforces max_connections and adopts `fd` into the loop's slot table.
  void Accepted(Loop& loop, int fd);
  /// Sets the listener's registered events (EPOLLIN, or 0 while accept
  /// is backed off).
  void WatchListener(Loop& loop, uint32_t events);
  void ReadConn(Loop& loop, Connection* conn);
  void ParseConn(Loop& loop, Connection* conn);
  void SubmitParsed(Loop& loop);
  /// Counts one completion in `loop`'s response counters, also when its
  /// connection is gone and the answer is dropped.
  ResponseStatus CountResponse(Loop& loop, const Done& done);
  void DeliverDone(Loop& loop, const Done& done);
  void DrainCompletions(Loop& loop);
  void FlushConn(Loop& loop, Connection* conn);
  /// Closes a half-closed connection once nothing is owed or unsent.
  void CloseIfDone(Loop& loop, Connection* conn);
  void CloseConn(Loop& loop, Connection* conn);
  void PauseRead(Loop& loop, Connection* conn);
  void ResumeRead(Loop& loop, Connection* conn);
  /// Reconciles `conn`'s registered read/write interest with its state.
  void UpdateInterest(Loop& loop, Connection* conn);
  void MaybeResumePaused(Loop& loop);
  bool BrokersCongested() const;
  Connection* Resolve(Loop& loop, uint64_t token);
  void OnQueryDone(Pending* pending, const server::WorkItem& item,
                   server::Outcome outcome,
                   const graph::GraphQueryResult& result);
  /// Renders the admin payload for `op` (registry JSON / Prometheus text
  /// / recorder JSONL dump).
  void BuildAdminPayload(uint8_t op, std::string* out);
  /// Begins streaming an admin response on `conn` and pumps what fits.
  void StartAdmin(Loop& loop, Connection* conn, const RequestFrame& frame);
  /// Writes as many admin chunks as the write ring can take without
  /// eating the space reserved for owed graph responses. Returns true
  /// when the response finished (admin_active cleared).
  bool PumpAdmin(Loop& loop, Connection* conn);
  /// Pumps every connection with an admin response in progress; resumes
  /// parsing on the ones that finished.
  void PumpAdminAll(Loop& loop);
  Status StartListeners();
  void CloseAll();

  graph::Cluster* cluster_;
  Options options_;

  std::vector<std::unique_ptr<Loop>> loops_;
  uint16_t port_ = 0;
  /// Live connections across all loops (accept-path only — the data
  /// path never touches it).
  std::atomic<size_t> total_live_{0};

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  stats::FlightRecorder* recorder_ = nullptr;
  uint64_t metrics_collector_handle_ = 0;

  /// Per-tenant outcome accounting, one cache-line cell per tenant in a
  /// flat-indexed slab (grows lazily with the registry; never rehashes
  /// on the parse path). Null when Options::tenants is unset.
  struct alignas(64) TenantNetCell {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> ok{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> shedded{0};
    std::atomic<uint64_t> expired{0};
    std::atomic<uint64_t> failed{0};
  };
  std::unique_ptr<PolicyStateTable<TenantNetCell>> tenant_stats_;
  /// In-flight cluster completions (Pending records alive between parse
  /// and OnQueryDone return). Stop() drains it after joining the loop
  /// threads: a completion still executing inside OnQueryDone reads
  /// Loop state, so the loops must not be torn down under it.
  std::atomic<uint64_t> inflight_dones_{0};
};

}  // namespace bouncer::net

#endif  // BOUNCER_NET_NET_SERVER_H_
