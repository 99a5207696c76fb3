// Sharded, priority-aware planning service: per-dataset worker pools
// answering CT-Bus planning queries against versioned network snapshots,
// with a shared precompute cache and one synchronous commit path.
//
// Request lifecycle:
//   Submit(PlanRequest) -> the request's *dataset shard* (its own bounded
//   two-level priority queue + worker pool) -> a worker dequeues the
//   highest-priority request -> resolve snapshot (SnapshotStore) ->
//   fetch/compute precompute (PrecomputeCache) -> reuse or rebuild the
//   worker's memoized core::PlanningBase -> build a private PlanningContext
//   over it -> run the requested planner -> fulfill the future with
//   PlanResult + stats.
//
// Sharding: every dataset registered with RegisterDataset gets its own
// worker pool and queue, so a flood of traffic against one hot city can
// never starve queries against another. The shards share one
// OverflowPolicy: Submit either blocks (default) or throws when a shard's
// queue is full.
//
// Priorities: requests are either interactive (default) or sweep
// (ScenarioRunner submits at sweep priority). Workers always drain the
// interactive queue first and take one request per dequeue, so an
// interactive request waits behind at most the sweep requests already in
// flight (at most one per worker of its shard).
//
// Amortization: the precompute cache is the one mechanism that shares
// work across requests. Requests whose precompute resolves identically —
// same (dataset, snapshot version, tau, precompute-estimator params) —
// share one cache entry, and concurrent misses on it wait for a single
// compute (PrecomputeCache's in-flight dedup). Every request still builds
// a private PlanningContext, so results are bit-identical to serial runs.
//
// Commits: Commit applies a result on the calling thread, from any
// thread. Concurrent commits to one dataset serialize inside
// SnapshotStore::CommitRoute and each stacks on the latest version, while
// readers keep serving the prior snapshot (SnapshotStore publishes
// copy-on-write).
//
// Memory governance: the precompute cache evicts by a byte budget
// (ServiceOptions::cache_max_bytes, entry count as a secondary limit) and
// every commit is followed by a SnapshotRetentionPolicy pass over the
// dataset's snapshot store (keep-latest-K + byte budget). Versions pinned
// by queued explicit-version requests, and versions with resident
// precompute-cache entries (warm-start donors, in-flight derives), are
// never pruned and keep their lineage — so
// budgets only ever change recompute cost and stats, never planning
// results. Budgets are deliberately NOT part of PrecomputeKey: two
// services differing only in budgets produce bit-identical plans.
//
// Observability: the service owns an obs::MetricsRegistry (the service
// counters — the one tally service_stats() reads — plus per-phase /
// per-priority latency histograms and per-shard queue-depth gauges, all
// lock-free on the record path) and an obs::TraceLog span recorder
// (queue-wait -> precompute-resolve -> context-build -> plan-search ->
// commit, one trace id per request, bounded ring, JSON-lines export).
// MetricsSnapshot() merges the registry with read-time views of the
// precompute cache and each shard's snapshot store; WriteMetricsJson
// serializes it. Tracing is off by default and
// costs one branch when off; neither metrics nor tracing ever changes a
// planning result.
//
// Every request gets its own PlanningContext, so queries share no mutable
// state that can change a result (the precompute's staged-term memo, which
// every request over it reads and fills, returns only the bits a solve
// would): results are bit-identical to running the same requests
// serially (the estimators are deterministic by construction, and a
// warm-started precompute equals a scratch one bit for bit). Snapshots
// are held via shared_ptr for the duration of a query, so commits can
// advance the city underneath without blocking or corrupting in-flight
// work.
//
// Base memo: each worker keeps the last core::PlanningBase it built (the
// request-invariant base adjacency and ranked lists L_d / L_lambda)
// together with the snapshot it points into, and reuses it while the
// snapshot and the precompute both match: the base estimates nothing, so
// no request option is part of its identity. The memo pins at
// most one snapshot and one precompute per worker until that worker
// serves a request that needs another, beyond the byte budgets and
// retention policy below; it never changes a result.
#ifndef CTBUS_SERVICE_PLANNING_SERVICE_H_
#define CTBUS_SERVICE_PLANNING_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/eta.h"
#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "core/options.h"
#include "core/planner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/precompute_cache.h"
#include "service/snapshot_store.h"

namespace ctbus::service {

/// Two-level request priority. Workers drain every interactive request
/// before touching sweep traffic, so exploratory parameter sweeps cannot
/// starve interactive what-if queries.
enum class Priority {
  kInteractive = 0,
  kSweep = 1,
};

/// What Submit does when the target dataset shard's queue is full. The
/// policy is shared by every shard.
enum class OverflowPolicy {
  /// Block the submitting thread until the shard has room (backpressure).
  kBlock,
  /// Throw std::runtime_error immediately (load shedding).
  kReject,
};

struct ServiceOptions {
  /// Worker pool size *per dataset shard*. Every RegisterDataset call
  /// spawns this many dedicated workers for that dataset. 0 means
  /// std::thread::hardware_concurrency(). The same count is the width of
  /// every fan-out: RegisterPreset (and DatasetCatalog's preset path) grows
  /// the trip trees on this many threads, and every request runs with
  /// CtBusOptions::precompute_threads set to it (a precompute miss, online
  /// ETA's frontier, the final re-evaluation of the route), on
  /// linalg::ParallelFor's process-wide parked helpers. A worker that fans
  /// out takes part itself and runs whatever no free helper claims, so
  /// busy workers never wait on one another. Results do not depend on it.
  /// ctbus-lint: key-exempt(service topology knob; requests are keyed per dataset+options, not per pool size)
  int num_threads = 1;
  /// Bounded request queue per shard (interactive + sweep combined);
  /// overflow_policy decides what Submit does at capacity.
  /// ctbus-lint: key-exempt(admission control, never reaches the planner)
  std::size_t queue_capacity = 256;
  /// Precompute cache entries (0 disables caching).
  /// ctbus-lint: key-exempt(cache sizing changes hit rate, not entry identity)
  std::size_t cache_capacity = 16;
  /// Byte budget for the precompute cache: summed
  /// core::Precompute::ApproxBytes of resident ready entries (0 =
  /// unlimited). The entry-count capacity stays as a secondary limit;
  /// in-flight entries are never evicted, and a single entry larger than
  /// the whole budget is still admitted (see service/precompute_cache.h).
  /// ctbus-lint: key-exempt(cache sizing changes hit rate, not entry identity)
  std::size_t cache_max_bytes = 0;
  /// Directory for the precompute cache's disk spill ("" = disabled):
  /// ready entries are serialized on eviction (and at service teardown)
  /// and misses are first answered from disk, so a restarted service
  /// serves its first query without a single Dijkstra or Lanczos call.
  /// Spill files are keyed by PrecomputeKey *content* via a stable hash —
  /// the path only says where the bytes live, never what they are, and a
  /// stale or foreign file is a plain miss (see service/precompute_cache.h).
  /// ctbus-lint: key-exempt(on-disk artifacts are keyed by PrecomputeKey content, not by path; the directory changes where bytes persist, never what a key computes to)
  std::string cache_spill_dir;
  /// Snapshot retention applied to a dataset's SnapshotStore after every
  /// Commit (defaults keep everything — prior behavior).
  /// RegisterDataset can override per dataset. Pruning never changes
  /// planning results: pinned and cache-resident versions are protected,
  /// and a request against a genuinely pruned version fails the same way
  /// an unknown version always has.
  /// ctbus-lint: key-exempt(retention prunes history; protected versions guarantee result-neutrality)
  SnapshotRetentionPolicy retention;
  /// Shared across shards; see OverflowPolicy.
  /// ctbus-lint: key-exempt(admission control, never reaches the planner)
  OverflowPolicy overflow_policy = OverflowPolicy::kBlock;
  /// Construct the service with every shard's workers parked: queued
  /// requests only start executing after Start(). Lets tests (and bulk
  /// loaders) enqueue a deterministic backlog, then observe strict
  /// priority drain order.
  /// ctbus-lint: key-exempt(lifecycle toggle, no effect on results)
  bool start_paused = false;
  /// Record per-phase / per-priority latency histograms and per-shard
  /// queue-depth gauges into the service's MetricsRegistry. The record
  /// path is lock-free atomics; the hot-path overhead target is < 2%
  /// (bench_service_throughput's "metrics overhead" section measures it).
  /// The `service.*` counters are not gated: they are the one tally
  /// behind service_stats(), so they always count. Disabling drops the
  /// histograms and gauges from MetricsSnapshot(); the counters and the
  /// read-time cache / snapshot-store views stay. Metrics NEVER affect
  /// planning results either way.
  /// ctbus-lint: key-exempt(observability toggle, result-neutral by contract)
  bool enable_metrics = true;
  /// Record per-request phase spans (queue-wait, precompute-resolve,
  /// context-build, plan-search, commit) into a bounded in-memory ring
  /// (trace_log().Dump exports JSON lines). Off by default; when off the
  /// only cost is one branch per potential span.
  /// Flippable at runtime via trace_log().set_enabled(). Tracing NEVER
  /// affects planning results.
  /// ctbus-lint: key-exempt(observability toggle, result-neutral by contract)
  bool enable_tracing = false;
  /// Span ring-buffer capacity; past it the oldest spans are overwritten.
  /// ctbus-lint: key-exempt(observability sizing, result-neutral by contract)
  std::size_t trace_capacity = 4096;
};

struct PlanRequest {
  /// Name of a dataset previously registered with RegisterDataset.
  std::string dataset;
  /// Planner knobs, carried verbatim to the worker: the precompute fields
  /// (tau and the precompute estimator) feed the cache key,
  /// the sweepables (k, w, Tn, sn, planner variant toggles) stay free, and
  /// precompute_threads is excluded from the key because the precompute is
  /// bit-identical at any thread count (core/options.h); the service
  /// replaces it with ServiceOptions::num_threads on every request.
  core::CtBusOptions options;
  core::Planner planner = core::Planner::kEtaPre;
  /// Snapshot to plan against; 0 = latest at execution time.
  std::uint64_t snapshot_version = 0;
  /// Queue class inside the dataset shard; see Priority.
  Priority priority = Priority::kInteractive;
};

/// Per-request observability.
struct RequestStats {
  /// The version actually planned against (resolved from 0 = latest).
  std::uint64_t snapshot_version = 0;
  bool precompute_cache_hit = false;
  /// True if this request's cache miss was served by warm-starting from an
  /// ancestor version's precompute rather than computing from scratch
  /// (always false on a cache hit).
  bool precompute_derived = false;
  /// Provenance and phase timings of the precompute this request planned
  /// over (shared with every other request on the same key): whether it
  /// was derived, recomputed/carried trace-increment counts, threads used.
  core::PrecomputeStats precompute;
  double queue_seconds = 0.0;       // Submit -> worker pickup
  double precompute_seconds = 0.0;  // cache lookup incl. compute on miss
  /// PlanningBase::Build on a worker-memo miss, then
  /// PlanningContext::Build(base, options).
  double context_seconds = 0.0;
  double plan_seconds = 0.0;        // planner search
  int worker_id = -1;
  /// Service-wide execution pickup order (0-based): assigned when a worker
  /// starts the request, so tests can assert drain order (interactive
  /// before sweep) without racing on wall-clock time.
  std::uint64_t execute_sequence = 0;
  /// Trace id shared by every span this request emitted (0 when tracing
  /// was disabled at submit time). Commit spans reuse it, so a request's
  /// whole lifecycle joins on one id in the trace dump.
  std::uint64_t trace_id = 0;
};

struct ServiceResult {
  core::PlanResult plan;
  /// The request as executed, with snapshot_version resolved (never 0).
  /// Commit reads the dataset and precompute parameters from here, so a
  /// result can never be committed against the wrong universe.
  PlanRequest request;
  RequestStats stats;
};

class PlanningService {
 public:
  explicit PlanningService(const ServiceOptions& options);
  ~PlanningService();  // calls Shutdown()

  PlanningService(const PlanningService&) = delete;
  PlanningService& operator=(const PlanningService&) = delete;

  /// Registers a city under `name`, seeding its SnapshotStore at version 1
  /// and spawning the dataset's worker-pool shard. Registering an existing
  /// name (or registering after Shutdown) throws. The dataset inherits
  /// ServiceOptions::retention; the overload pins a per-dataset policy
  /// (DatasetCatalog uses it for descriptor-supplied budgets).
  void RegisterDataset(const std::string& name, graph::RoadNetwork road,
                       graph::TransitNetwork transit);
  void RegisterDataset(const std::string& name, graph::RoadNetwork road,
                       graph::TransitNetwork transit,
                       const SnapshotRetentionPolicy& retention);

  /// Registers a gen:: preset by registry name (see gen::DatasetNames()),
  /// generated on num_threads() threads.
  void RegisterPreset(const std::string& name, double scale = 1.0);

  bool HasDataset(const std::string& name) const CTBUS_EXCLUDES(datasets_mu_);
  std::vector<std::string> DatasetNames() const CTBUS_EXCLUDES(datasets_mu_);

  std::uint64_t LatestVersion(const std::string& dataset) const;
  SnapshotPtr Snapshot(const std::string& dataset,
                       std::uint64_t version = 0) const;

  /// Releases workers parked by ServiceOptions::start_paused (no-op when
  /// the service started running, or after Shutdown).
  void Start();

  /// Enqueues a request on its dataset's shard; at capacity, blocks or
  /// throws per OverflowPolicy. Throws std::invalid_argument for an
  /// unknown dataset and std::runtime_error after Shutdown. Errors during
  /// execution (e.g. unknown snapshot version) surface through the future.
  std::future<ServiceResult> Submit(PlanRequest request);

  /// Submit + wait. Convenience for callers without their own pipeline.
  /// Do not call while the service is paused (it would deadlock by
  /// design: nothing drains the queue before Start()).
  ServiceResult Plan(PlanRequest request);

  /// Commits a result's route to its dataset, advancing the snapshot
  /// version. The dataset, precompute parameters, and planned-against
  /// version come from the result itself (ServiceResult::request), so the
  /// route's edge ids are always mapped through the universe they were
  /// planned in. The route is applied on top of the *latest* version, so
  /// sequential commits stack even when their plans were computed against
  /// the same older snapshot. Returns the new version id. In-flight
  /// queries against older versions are unaffected; later latest-version
  /// requests see the new city.
  ///
  /// Safe to call from any thread: concurrent commits to one dataset
  /// serialize inside SnapshotStore::CommitRoute, each stacking on the
  /// version the previous one published. Throws std::invalid_argument
  /// for an unknown dataset or a planned-against version that is neither
  /// resident nor cached. Commit does not go through the worker queues,
  /// so it keeps applying after Shutdown.
  std::uint64_t Commit(const ServiceResult& result);

  PrecomputeCache::Stats cache_stats() const { return cache_.stats(); }

  /// A read of the `service.*` registry counters: each field is the value
  /// of the counter named beside it, so there is no second tally.
  struct ServiceStats {
    std::uint64_t submitted = 0;  // service.submitted
    std::uint64_t completed = 0;  // service.completed
    /// Submissions refused by OverflowPolicy::kReject (not counted in
    /// `submitted`).
    std::uint64_t rejected = 0;  // service.rejected
    /// Cache misses answered from scratch vs. derived from an ancestor
    /// version's precompute (Execute and Commit both count):
    /// service.precompute.from_scratch / service.precompute.derived.
    std::uint64_t precomputes_from_scratch = 0;
    std::uint64_t precomputes_derived = 0;
    /// Snapshot versions pruned / lineage records trimmed by the
    /// post-commit retention passes, summed across datasets:
    /// service.retention.snapshots_pruned / .lineage_trimmed.
    std::uint64_t snapshots_pruned = 0;
    std::uint64_t lineage_trimmed = 0;
  };
  ServiceStats service_stats() const;

  /// Per-dataset memory accounting, read under the shard's lock.
  struct DatasetMemoryStats {
    /// Resident snapshot versions and their summed ApproxBytes.
    std::size_t resident_versions = 0;
    std::size_t snapshot_bytes = 0;
    /// Lineage records currently resident in the store.
    std::size_t lineage_records = 0;
    /// Distinct versions pinned by queued explicit-version requests.
    std::size_t pinned_versions = 0;
    /// Cumulative retention-pass removals for this dataset.
    std::uint64_t snapshots_pruned = 0;
    std::uint64_t lineage_trimmed = 0;
  };
  DatasetMemoryStats dataset_memory_stats(const std::string& dataset) const;

  /// One deterministically ordered (name-sorted) view of every service
  /// metric: the registry's counters / gauges / histograms (the counters
  /// are what service_stats() reads) plus always-on views computed at
  /// read time: `cache.*` from the precompute cache, the gauge
  /// `core.term_memo.entries` (staged terms held by the resident
  /// precomputes' term memos) and `dataset.<name>.*` from each shard's
  /// snapshot store. The counters `core.term_memo.hits` / `.misses` count,
  /// over every completed request, the local trace increments read from a
  /// precompute (PlanResult::memo_hits) and the ones solved. Metric names
  /// are stable API —
  /// bench JSON, dashboards, and tests key on them; rename only with a
  /// deprecation note.
  obs::MetricsSnapshot MetricsSnapshot() const;

  /// MetricsSnapshot() serialized as one JSON object (see
  /// obs::WriteMetricsJson for the format).
  void WriteMetricsJson(std::ostream& out) const;

  /// The span recorder (enable/disable at runtime, Dump for JSON lines).
  /// Initial state and capacity come from ServiceOptions.
  obs::TraceLog& trace_log() { return trace_; }
  const obs::TraceLog& trace_log() const { return trace_; }

  /// Worker threads per dataset shard (the resolved ServiceOptions value).
  int num_threads() const { return threads_per_shard_; }
  /// Total workers across all registered dataset shards.
  int num_workers() const;

  /// Drains every shard's queue, waits for in-flight work, joins all
  /// pools. Further Submits throw. Idempotent; called by the destructor.
  void Shutdown();

 private:
  struct Task {
    PlanRequest request;
    std::promise<ServiceResult> promise;
    std::chrono::steady_clock::time_point submit_time;
    /// Snapshot version pinned against retention while this task is
    /// queued (0 = none; only explicit-version requests pin — "latest"
    /// can never be pruned). Released by Execute once the snapshot
    /// shared_ptr and the precompute are resolved.
    std::uint64_t pinned_version = 0;
    /// Span correlation (0 = tracing was off at Submit): the id every
    /// phase span of this request carries, and where on the trace
    /// timeline the queue-wait span starts.
    std::uint64_t trace_id = 0;
    double submit_trace_offset = 0.0;
  };

  /// One dataset's serving state: its snapshot store plus a private
  /// two-level queue and worker pool. Shards never share queue locks, so
  /// backpressure on one dataset cannot block submitters to another.
  struct Shard {
    explicit Shard(std::shared_ptr<SnapshotStore> snapshot_store)
        : store(std::move(snapshot_store)) {}

    std::shared_ptr<SnapshotStore> store;
    /// Retention enforced after each commit to this dataset.
    SnapshotRetentionPolicy retention;
    core::Mutex mu;
    core::CondVar not_empty;
    core::CondVar not_full;
    core::CondVar workers_done;
    std::deque<Task> interactive CTBUS_GUARDED_BY(mu);  // drained first
    std::deque<Task> sweep CTBUS_GUARDED_BY(mu);
    int live_workers CTBUS_GUARDED_BY(mu) = 0;
    std::vector<std::thread> workers CTBUS_GUARDED_BY(mu);
    /// version -> pin count for queued explicit-version requests; pinned
    /// versions survive retention passes.
    std::unordered_map<std::uint64_t, int> version_pins CTBUS_GUARDED_BY(mu);
    /// Cumulative retention removals for this dataset.
    std::uint64_t snapshots_pruned CTBUS_GUARDED_BY(mu) = 0;
    std::uint64_t lineage_trimmed CTBUS_GUARDED_BY(mu) = 0;
    /// Live "service.shard.<dataset>.queue_depth" gauge. Written once at
    /// RegisterDataset before the shard is published, const afterwards
    /// (the Gauge itself records through relaxed atomics), so the pointer
    /// needs no guard.
    obs::Gauge* queue_depth_gauge = nullptr;

    std::size_t queued() const CTBUS_REQUIRES(mu) {
      return interactive.size() + sweep.size();
    }
  };

  /// One worker's memo of the request-invariant planning state it built
  /// last (core::PlanningBase). Owned by WorkerLoop and touched only by
  /// its worker, so it needs no lock. `snapshot` is held because the
  /// base's road and transit pointers point into it; the base holds its
  /// precompute. A memo therefore pins at most one snapshot and one
  /// precompute per worker beyond what the store and cache retain.
  struct BaseMemo {
    SnapshotPtr snapshot;
    std::shared_ptr<const core::PlanningBase> base;
  };

  void WorkerLoop(Shard* shard, int worker_id) CTBUS_EXCLUDES(shard->mu);
  /// Resolves the task's snapshot + precompute, then plans it with a
  /// private context over the worker's memoized base (rebuilt into `memo`
  /// when the snapshot or the precompute differs), and fulfills the task's
  /// promise.
  void Execute(Shard* shard, Task task, int worker_id, BaseMemo* memo)
      CTBUS_EXCLUDES(shard->mu);
  std::shared_ptr<SnapshotStore> Store(const std::string& dataset) const
      CTBUS_EXCLUDES(datasets_mu_);
  std::shared_ptr<Shard> FindShard(const std::string& dataset) const
      CTBUS_EXCLUDES(datasets_mu_);

  /// Decrements `version`'s pin count on `shard` (no-op for version 0).
  void UnpinVersion(Shard* shard, std::uint64_t version)
      CTBUS_EXCLUDES(shard->mu);
  /// Runs the shard's retention policy over its snapshot store,
  /// protecting pinned versions and every version with a resident
  /// precompute-cache entry for `dataset`. Called after each commit;
  /// no-op when the policy is unlimited. Lock order: takes shard->mu and
  /// holds it ACROSS the store's ApplyRetention (shard -> store); the
  /// CTBUS_EXCLUDES here plus the EXCLUDES on every SnapshotStore entry
  /// point make the inverse order (store lock held while taking
  /// shard->mu) inexpressible without a compile error.
  void ApplyRetention(const std::string& dataset, Shard* shard)
      CTBUS_EXCLUDES(shard->mu);

  /// Cache lookup with warm start: on a miss, tries to derive from the
  /// nearest resident ancestor version before computing from scratch.
  PrecomputeCache::PrecomputePtr ResolvePrecompute(
      SnapshotStore& store, const std::string& dataset,
      const NetworkSnapshot& snapshot, const core::CtBusOptions& options,
      bool* cache_hit, bool* derived);

  /// The registry instruments the hot path records through, resolved once
  /// at construction. The counters are always registered and are the only
  /// tally behind ServiceStats (plus `service.commit.total`); the latency
  /// histograms, indexed [phase][priority class], exist only with
  /// enable_metrics.
  struct PhaseHistograms {
    obs::Histogram* queue = nullptr;
    obs::Histogram* precompute = nullptr;
    obs::Histogram* context = nullptr;
    obs::Histogram* plan = nullptr;
    obs::Histogram* total = nullptr;  // queue + resolve + context + plan
  };
  struct ServiceCounters {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* precomputes_from_scratch = nullptr;
    obs::Counter* precomputes_derived = nullptr;
    obs::Counter* commits = nullptr;  // successful Commit calls
    obs::Counter* snapshots_pruned = nullptr;
    obs::Counter* lineage_trimmed = nullptr;
    obs::Counter* term_memo_hits = nullptr;    // terms read, not solved
    obs::Counter* term_memo_misses = nullptr;  // terms solved
  };

  /// Records one completed request's phase timings (no-op when metrics
  /// are disabled).
  void RecordRequestLatency(Priority priority, const RequestStats& stats);

  /// Retention for datasets registered without a per-dataset policy.
  const SnapshotRetentionPolicy default_retention_;
  const bool metrics_enabled_;
  obs::MetricsRegistry metrics_;
  obs::TraceLog trace_;
  ServiceCounters counters_;
  PhaseHistograms latency_[2];  // [static_cast<int>(Priority)]
  PrecomputeCache cache_;
  const std::size_t queue_capacity_;
  const OverflowPolicy overflow_policy_;
  int threads_per_shard_ = 1;

  /// True until Start(); workers park instead of dequeuing. Read inside
  /// shard-mu-guarded wait predicates. Start() flips it, then takes and
  /// releases every shard's mu before notifying — that empty critical
  /// section is what guarantees no parked worker misses the wakeup (a
  /// worker that read paused_ == true is either still holding mu, or will
  /// re-check the predicate on the notify). Do not drop it.
  std::atomic<bool> paused_{false};
  /// Set by Shutdown (under every shard's mu) to drain-and-join.
  std::atomic<bool> shutting_down_{false};

  mutable core::Mutex datasets_mu_;
  std::unordered_map<std::string, std::shared_ptr<Shard>> shards_
      CTBUS_GUARDED_BY(datasets_mu_);

  std::atomic<std::uint64_t> execute_sequence_{0};
  std::atomic<int> next_worker_id_{0};
};

}  // namespace ctbus::service

#endif  // CTBUS_SERVICE_PLANNING_SERVICE_H_
