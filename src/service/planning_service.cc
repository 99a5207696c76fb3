#include "service/planning_service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/timing.h"
#include "gen/datasets.h"
#include "io/snapshot.h"
#include "linalg/parallel_for.h"

namespace ctbus::service {

using core::Stopwatch;

namespace {

/// Latency histogram names, phase x priority class. Stable API.
const char* const kPhaseNames[2][5] = {
    {"service.latency.queue.interactive",
     "service.latency.precompute.interactive",
     "service.latency.context.interactive",
     "service.latency.plan.interactive",
     "service.latency.total.interactive"},
    {"service.latency.queue.sweep", "service.latency.precompute.sweep",
     "service.latency.context.sweep", "service.latency.plan.sweep",
     "service.latency.total.sweep"},
};

}  // namespace

PlanningService::PlanningService(const ServiceOptions& options)
    : default_retention_(options.retention),
      metrics_enabled_(options.enable_metrics),
      trace_(options.trace_capacity, options.enable_tracing),
      cache_(options.cache_capacity, options.cache_max_bytes,
             options.cache_spill_dir),
      queue_capacity_(std::max<std::size_t>(1, options.queue_capacity)),
      overflow_policy_(options.overflow_policy),
      paused_(options.start_paused) {
  // Resolve every instrument once; the hot path records through these raw
  // pointers without ever touching the registry mutex again. The counters
  // are the one tally service_stats() reads, so they always exist.
  counters_.submitted = metrics_.GetCounter("service.submitted");
  counters_.completed = metrics_.GetCounter("service.completed");
  counters_.rejected = metrics_.GetCounter("service.rejected");
  counters_.precomputes_from_scratch =
      metrics_.GetCounter("service.precompute.from_scratch");
  counters_.precomputes_derived =
      metrics_.GetCounter("service.precompute.derived");
  counters_.commits = metrics_.GetCounter("service.commit.total");
  counters_.snapshots_pruned =
      metrics_.GetCounter("service.retention.snapshots_pruned");
  counters_.lineage_trimmed =
      metrics_.GetCounter("service.retention.lineage_trimmed");
  if (metrics_enabled_) {
    for (int p = 0; p < 2; ++p) {
      latency_[p].queue = metrics_.GetHistogram(kPhaseNames[p][0]);
      latency_[p].precompute = metrics_.GetHistogram(kPhaseNames[p][1]);
      latency_[p].context = metrics_.GetHistogram(kPhaseNames[p][2]);
      latency_[p].plan = metrics_.GetHistogram(kPhaseNames[p][3]);
      latency_[p].total = metrics_.GetHistogram(kPhaseNames[p][4]);
    }
  }
  threads_per_shard_ = linalg::ResolveThreadCount(options.num_threads);
}

PlanningService::~PlanningService() { Shutdown(); }

void PlanningService::RegisterDataset(const std::string& name,
                                      graph::RoadNetwork road,
                                      graph::TransitNetwork transit) {
  RegisterDataset(name, std::move(road), std::move(transit),
                  default_retention_);
}

void PlanningService::RegisterDataset(
    const std::string& name, graph::RoadNetwork road,
    graph::TransitNetwork transit,
    const SnapshotRetentionPolicy& retention) {
  auto shard = std::make_shared<Shard>(std::make_shared<SnapshotStore>(
      std::move(road), std::move(transit)));
  shard->retention = retention;
  if (metrics_enabled_) {
    shard->queue_depth_gauge =
        metrics_.GetGauge("service.shard." + name + ".queue_depth");
  }
  core::MutexLock lock(datasets_mu_);
  if (shutting_down_.load()) {
    throw std::runtime_error("RegisterDataset after Shutdown");
  }
  if (shards_.count(name) > 0) {
    throw std::invalid_argument("RegisterDataset: duplicate name " + name);
  }
  Shard* raw = shard.get();
  {
    // The shard is not published yet, but the freshly spawned workers
    // already reference it; hold its mutex so the spawn bookkeeping is
    // ordered before any worker's first dequeue.
    core::MutexLock shard_lock(shard->mu);
    shard->live_workers = threads_per_shard_;
    shard->workers.reserve(threads_per_shard_);
    for (int i = 0; i < threads_per_shard_; ++i) {
      const int worker_id = next_worker_id_.fetch_add(1);
      shard->workers.emplace_back(
          [this, raw, worker_id] { WorkerLoop(raw, worker_id); });
    }
  }
  shards_.emplace(name, std::move(shard));
}

void PlanningService::RegisterPreset(const std::string& name, double scale) {
  gen::Dataset dataset =
      gen::MakeDatasetByName(name, scale, threads_per_shard_);
  RegisterDataset(name, std::move(dataset.road), std::move(dataset.transit));
}

bool PlanningService::HasDataset(const std::string& name) const {
  core::MutexLock lock(datasets_mu_);
  return shards_.count(name) > 0;
}

std::vector<std::string> PlanningService::DatasetNames() const {
  core::MutexLock lock(datasets_mu_);
  std::vector<std::string> names;
  names.reserve(shards_.size());
  for (const auto& [name, shard] : shards_) names.push_back(name);
  return names;
}

std::shared_ptr<PlanningService::Shard> PlanningService::FindShard(
    const std::string& dataset) const {
  core::MutexLock lock(datasets_mu_);
  const auto it = shards_.find(dataset);
  if (it == shards_.end()) {
    throw std::invalid_argument("unknown dataset: " + dataset);
  }
  return it->second;
}

std::shared_ptr<SnapshotStore> PlanningService::Store(
    const std::string& dataset) const {
  return FindShard(dataset)->store;
}

std::uint64_t PlanningService::LatestVersion(
    const std::string& dataset) const {
  return Store(dataset)->latest_version();
}

SnapshotPtr PlanningService::Snapshot(const std::string& dataset,
                                      std::uint64_t version) const {
  const auto store = Store(dataset);
  return version == 0 ? store->Latest() : store->Get(version);
}

void PlanningService::Start() {
  if (!paused_.exchange(false)) return;
  std::vector<std::shared_ptr<Shard>> shards;
  {
    core::MutexLock lock(datasets_mu_);
    for (const auto& [name, shard] : shards_) shards.push_back(shard);
  }
  for (const auto& shard : shards) {
    // Empty critical section: a worker that read paused_ == true inside
    // its wait predicate either holds mu (we wait for it) or is about to
    // re-check after our notify. Never signal a cv without this handshake.
    { core::MutexLock lock(shard->mu); }
    shard->not_empty.NotifyAll();
  }
}

std::future<ServiceResult> PlanningService::Submit(PlanRequest request) {
  const auto shard = FindShard(request.dataset);
  Task task;
  task.request = std::move(request);
  task.submit_time = std::chrono::steady_clock::now();
  if (trace_.enabled()) {
    task.trace_id = trace_.NextTraceId();
    task.submit_trace_offset = trace_.Now();
  }
  std::future<ServiceResult> future = task.promise.get_future();
  {
    core::MutexLock lock(shard->mu);
    if (overflow_policy_ == OverflowPolicy::kReject &&
        shard->queued() >= queue_capacity_ && !shutting_down_.load()) {
      lock.Unlock();
      counters_.rejected->Add();
      throw std::runtime_error("PlanningService: shard queue full for " +
                               task.request.dataset);
    }
    while (!shutting_down_.load() && shard->queued() >= queue_capacity_) {
      shard->not_full.Wait(shard->mu);
    }
    if (shutting_down_.load()) {
      lock.Unlock();
      throw std::runtime_error("PlanningService: Submit after Shutdown");
    }
    // Admitted: count it before the push, under the lock a worker needs
    // to dequeue it. The count then happens-before the task's completion,
    // so a caller woken by its future never reads completed ahead of
    // submitted, and the reject / shutdown paths have nothing to undo.
    counters_.submitted->Add();
    // Pin an explicitly requested version against retention while the
    // task waits in the queue ("latest" needs no pin — the latest version
    // is never pruned). Released by Execute.
    if (task.request.snapshot_version != 0) {
      task.pinned_version = task.request.snapshot_version;
      ++shard->version_pins[task.pinned_version];
    }
    if (task.request.priority == Priority::kInteractive) {
      shard->interactive.push_back(std::move(task));
    } else {
      shard->sweep.push_back(std::move(task));
    }
    if (metrics_enabled_) {
      shard->queue_depth_gauge->Set(
          static_cast<std::int64_t>(shard->queued()));
    }
  }
  shard->not_empty.NotifyOne();
  return future;
}

ServiceResult PlanningService::Plan(PlanRequest request) {
  return Submit(std::move(request)).get();
}

std::uint64_t PlanningService::Commit(const ServiceResult& result) {
  // The commit span reuses the request's trace id (when it was traced), so
  // a request's whole lifecycle joins on one id in the trace dump.
  const bool traced = trace_.enabled() && result.stats.trace_id != 0;
  const double commit_start = traced ? trace_.Now() : 0.0;
  const PlanRequest& request = result.request;
  const auto shard = FindShard(request.dataset);
  const auto store = shard->store;
  const std::uint64_t version = result.stats.snapshot_version;
  const SnapshotPtr snapshot = store->Get(version);
  // The universe that maps the result's edge ids back to stop pairs lives
  // in the precompute for (dataset, version, tau); typically still hot.
  PrecomputeCache::PrecomputePtr precompute;
  if (snapshot != nullptr) {
    precompute = ResolvePrecompute(*store, request.dataset, *snapshot,
                                   request.options,
                                   /*cache_hit=*/nullptr,
                                   /*derived=*/nullptr);
  } else {
    // The planned-against version was pruned by retention. Committing
    // needs only the universe the plan was computed in (CommitRoute
    // applies on top of latest), so a still-cached precompute suffices.
    precompute = cache_.Peek(
        MakePrecomputeKey(request.dataset, version, request.options));
    if (precompute == nullptr) {
      throw std::invalid_argument("Commit: unknown snapshot version");
    }
  }
  // Commit on top of *latest* (base 0), not the version the plan was
  // computed against: sequential commits of plans from one snapshot must
  // stack, not clobber each other. The universe still comes from the
  // planned-against version — that is what maps the result's edge ids.
  const std::uint64_t new_version =
      store->CommitRoute(result.plan, precompute->universe,
                         /*base_version=*/0);
  ApplyRetention(request.dataset, shard.get());
  counters_.commits->Add();
  if (traced) {
    obs::Span span;
    span.trace_id = result.stats.trace_id;
    span.name = "commit";
    span.detail = request.dataset;
    span.start_seconds = commit_start;
    span.duration_seconds = trace_.Now() - commit_start;
    trace_.Record(std::move(span));
  }
  return new_version;
}

void PlanningService::UnpinVersion(Shard* shard, std::uint64_t version) {
  if (version == 0) return;
  core::MutexLock lock(shard->mu);
  const auto it = shard->version_pins.find(version);
  if (it == shard->version_pins.end()) return;
  if (--it->second <= 0) shard->version_pins.erase(it);
}

void PlanningService::ApplyRetention(const std::string& dataset,
                                     Shard* shard) {
  const SnapshotRetentionPolicy& policy = shard->retention;
  if (policy.keep_latest == 0 && policy.max_bytes == 0) return;
  // Protected set: versions pinned by queued requests, plus every version
  // with a resident cache entry for this dataset (a ready entry is a live
  // warm-start donor whose lineage must survive; an in-flight entry is a
  // derive in progress whose target version's lineage walk is happening
  // right now). The cache keys are read first (cache lock), then shard->mu
  // is held ACROSS the store call: pins are taken under shard->mu, so a
  // concurrent Submit pin either lands before the pass (and is protected)
  // or after it (and sees the post-prune store, where a pruned version
  // fails like any unknown version). Holding shard->mu while taking the
  // store's index lock is safe: no path acquires them in the other order.
  std::vector<std::uint64_t> protected_versions;
  for (const PrecomputeKey& key : cache_.KeysByRecency()) {
    if (key.dataset == dataset) {
      protected_versions.push_back(key.snapshot_version);
    }
  }
  SnapshotStore::RetentionResult result;
  {
    core::MutexLock lock(shard->mu);
    protected_versions.reserve(protected_versions.size() +
                               shard->version_pins.size());
    for (const auto& [version, pins] : shard->version_pins) {
      protected_versions.push_back(version);
    }
    result = shard->store->ApplyRetention(policy, protected_versions);
    shard->snapshots_pruned += result.versions_pruned;
    shard->lineage_trimmed += result.lineage_trimmed;
  }
  counters_.snapshots_pruned->Add(result.versions_pruned);
  counters_.lineage_trimmed->Add(result.lineage_trimmed);
}

PrecomputeCache::PrecomputePtr PlanningService::ResolvePrecompute(
    SnapshotStore& store, const std::string& dataset,
    const NetworkSnapshot& snapshot, const core::CtBusOptions& options,
    bool* cache_hit, bool* derived) {
  const PrecomputeKey key =
      MakePrecomputeKey(dataset, snapshot.version, options);
  bool was_derived = false;
  bool was_hit = false;
  const auto precompute = cache_.GetOrCompute(
      key,
      [&]() -> core::Precompute {
        // A miss fans out over as many threads as the shard has workers;
        // the precompute is bit-identical at any thread count.
        core::CtBusOptions sharded = options;
        sharded.precompute_threads = threads_per_shard_;
        // Warm start from the nearest resident ancestor: derivation is
        // exact (DerivePrecompute equals RunPrecompute bit for bit), so
        // the only criterion is the smallest delta, i.e. the closest donor.
        // ReadySiblings sorts by descending version; DeltaBetween rejects
        // non-ancestors.
        for (const auto& [donor_version, donor] : cache_.ReadySiblings(key)) {
          if (donor_version >= snapshot.version) continue;
          const auto delta =
              store.DeltaBetween(donor_version, snapshot.version);
          if (!delta.has_value()) continue;
          was_derived = true;
          return core::PlanningContext::DerivePrecompute(
              *snapshot.road, *snapshot.transit, sharded, *donor, *delta);
        }
        return core::PlanningContext::RunPrecompute(
            *snapshot.road, *snapshot.transit, sharded);
      },
      &was_hit,
      // Lazy content fingerprint for the disk-spill path: snapshot
      // version counters restart at 1 every process start, so spill
      // files are validated against the network bytes themselves. Only
      // evaluated on a miss with spill enabled — never on the hit path.
      [&snapshot] {
        return io::NetworkFingerprint(*snapshot.road, *snapshot.transit);
      });
  if (cache_hit != nullptr) *cache_hit = was_hit;
  if (derived != nullptr) *derived = was_derived;
  if (!was_hit) {
    (was_derived ? counters_.precomputes_derived
                 : counters_.precomputes_from_scratch)
        ->Add();
  }
  return precompute;
}

PlanningService::ServiceStats PlanningService::service_stats() const {
  ServiceStats stats;
  stats.submitted = counters_.submitted->Value();
  stats.completed = counters_.completed->Value();
  stats.rejected = counters_.rejected->Value();
  stats.precomputes_from_scratch = counters_.precomputes_from_scratch->Value();
  stats.precomputes_derived = counters_.precomputes_derived->Value();
  stats.snapshots_pruned = counters_.snapshots_pruned->Value();
  stats.lineage_trimmed = counters_.lineage_trimmed->Value();
  return stats;
}

PlanningService::DatasetMemoryStats PlanningService::dataset_memory_stats(
    const std::string& dataset) const {
  const auto shard = FindShard(dataset);
  DatasetMemoryStats stats;
  stats.resident_versions = shard->store->num_versions();
  stats.snapshot_bytes = shard->store->ApproxBytes();
  stats.lineage_records = shard->store->num_lineage_records();
  core::MutexLock lock(shard->mu);
  stats.pinned_versions = shard->version_pins.size();
  stats.snapshots_pruned = shard->snapshots_pruned;
  stats.lineage_trimmed = shard->lineage_trimmed;
  return stats;
}

void PlanningService::RecordRequestLatency(Priority priority,
                                           const RequestStats& stats) {
  if (!metrics_enabled_) return;
  PhaseHistograms& phases = latency_[static_cast<int>(priority)];
  phases.queue->Record(stats.queue_seconds);
  phases.precompute->Record(stats.precompute_seconds);
  phases.context->Record(stats.context_seconds);
  phases.plan->Record(stats.plan_seconds);
  phases.total->Record(stats.queue_seconds + stats.precompute_seconds +
                       stats.context_seconds + stats.plan_seconds);
}

obs::MetricsSnapshot PlanningService::MetricsSnapshot() const {
  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  // Always-on read-time views: the cache and the snapshot stores keep
  // their own exact accounting, so these need no hot-path instruments.
  const PrecomputeCache::Stats cache = cache_.stats();
  snapshot.counters.emplace_back("cache.evicted_bytes", cache.evicted_bytes);
  snapshot.counters.emplace_back("cache.evictions", cache.evictions);
  snapshot.counters.emplace_back("cache.hits", cache.hits);
  snapshot.counters.emplace_back("cache.misses", cache.misses);
  snapshot.gauges.emplace_back(
      "cache.resident_bytes", static_cast<std::int64_t>(cache.resident_bytes));
  std::vector<std::string> names = DatasetNames();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const DatasetMemoryStats stats = dataset_memory_stats(name);
    const std::string prefix = "dataset." + name + ".";
    snapshot.counters.emplace_back(prefix + "retention.lineage_trimmed",
                                   stats.lineage_trimmed);
    snapshot.counters.emplace_back(prefix + "retention.snapshots_pruned",
                                   stats.snapshots_pruned);
    snapshot.gauges.emplace_back(
        prefix + "snapshot.bytes",
        static_cast<std::int64_t>(stats.snapshot_bytes));
    snapshot.gauges.emplace_back(
        prefix + "snapshot.lineage_records",
        static_cast<std::int64_t>(stats.lineage_records));
    snapshot.gauges.emplace_back(
        prefix + "snapshot.pinned_versions",
        static_cast<std::int64_t>(stats.pinned_versions));
    snapshot.gauges.emplace_back(
        prefix + "snapshot.resident_versions",
        static_cast<std::int64_t>(stats.resident_versions));
  }
  // Restore the registry snapshot's deterministic-order contract after the
  // merge (names are unique across sources: distinct prefixes).
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(snapshot.counters.begin(), snapshot.counters.end(), by_name);
  std::sort(snapshot.gauges.begin(), snapshot.gauges.end(), by_name);
  return snapshot;
}

void PlanningService::WriteMetricsJson(std::ostream& out) const {
  obs::WriteMetricsJson(MetricsSnapshot(), out);
}

int PlanningService::num_workers() const { return next_worker_id_.load(); }

void PlanningService::Shutdown() {
  // Wake every shard. The store-then-lock-then-notify handshake guarantees
  // a waiter either sees shutting_down_ or has not yet evaluated its
  // predicate (it holds mu while doing so).
  shutting_down_.store(true);
  std::vector<std::shared_ptr<Shard>> shards;
  {
    core::MutexLock lock(datasets_mu_);
    for (const auto& [name, shard] : shards_) shards.push_back(shard);
  }
  for (const auto& shard : shards) {
    // Claim the worker threads under the lock so concurrent Shutdown calls
    // (e.g. an explicit call racing the destructor) each join a disjoint —
    // possibly empty — set instead of double-joining the same threads.
    std::vector<std::thread> claimed;
    {
      core::MutexLock lock(shard->mu);
      claimed.swap(shard->workers);
    }
    shard->not_empty.NotifyAll();
    shard->not_full.NotifyAll();
    for (std::thread& worker : claimed) {
      if (worker.joinable()) worker.join();
    }
    // A caller that claimed no threads (another Shutdown got there first)
    // must still not return until every worker has left WorkerLoop —
    // otherwise the destructor could tear members down under a live worker.
    core::MutexLock lock(shard->mu);
    while (shard->live_workers != 0) shard->workers_done.Wait(shard->mu);
  }
}

void PlanningService::WorkerLoop(Shard* shard, int worker_id) {
  BaseMemo memo;
  for (;;) {
    core::MutexLock lock(shard->mu);
    while (!shutting_down_.load() &&
           (paused_.load() || shard->queued() == 0)) {
      shard->not_empty.Wait(shard->mu);
    }
    if (shard->queued() == 0) {  // shutting down and drained
      --shard->live_workers;
      if (shard->live_workers == 0) shard->workers_done.NotifyAll();
      return;
    }
    // Strict two-level priority: any queued interactive request preempts
    // the whole sweep backlog. One request per dequeue.
    std::deque<Task>& queue =
        shard->interactive.empty() ? shard->sweep : shard->interactive;
    Task task = std::move(queue.front());
    queue.pop_front();
    if (metrics_enabled_) {
      shard->queue_depth_gauge->Set(
          static_cast<std::int64_t>(shard->queued()));
    }
    lock.Unlock();
    shard->not_full.NotifyOne();
    Execute(shard, std::move(task), worker_id, &memo);
  }
}

void PlanningService::Execute(Shard* shard, Task task, int worker_id,
                              BaseMemo* memo) {
  const auto pickup_time = std::chrono::steady_clock::now();
  const bool traced = trace_.enabled() && task.trace_id != 0;
  ServiceResult result;
  RequestStats& stats = result.stats;
  stats.worker_id = worker_id;
  stats.execute_sequence = execute_sequence_.fetch_add(1);
  stats.trace_id = task.trace_id;
  stats.queue_seconds =
      std::chrono::duration<double>(pickup_time - task.submit_time).count();
  if (traced) {
    obs::Span span;
    span.trace_id = task.trace_id;
    span.name = "queue-wait";
    span.start_seconds = task.submit_trace_offset;
    span.duration_seconds = stats.queue_seconds;
    trace_.Record(std::move(span));
  }

  SnapshotPtr snapshot;
  PrecomputeCache::PrecomputePtr precompute;
  double resolve_start = 0.0;
  std::exception_ptr failure;
  try {
    const std::uint64_t requested_version = task.request.snapshot_version;
    snapshot = requested_version == 0 ? shard->store->Latest()
                                      : shard->store->Get(requested_version);
    if (snapshot == nullptr) {
      throw std::invalid_argument("unknown snapshot version for dataset " +
                                  task.request.dataset);
    }
    if (traced) resolve_start = trace_.Now();
    const Stopwatch resolve_timer;
    precompute = ResolvePrecompute(*shard->store, task.request.dataset,
                                   *snapshot, task.request.options,
                                   &stats.precompute_cache_hit,
                                   &stats.precompute_derived);
    stats.precompute_seconds = resolve_timer.Seconds();
  } catch (...) {
    failure = std::current_exception();
  }
  // Snapshot and precompute are resolved (the shared_ptrs keep them alive
  // from here, or the request failed): release the queued-version pin.
  UnpinVersion(shard, task.pinned_version);

  try {
    if (failure != nullptr) std::rethrow_exception(failure);
    if (traced) {
      obs::Span span;
      span.trace_id = task.trace_id;
      span.name = "precompute-resolve";
      span.detail = stats.precompute_cache_hit
                        ? "hit"
                        : (stats.precompute_derived ? "derive" : "scratch");
      span.start_seconds = resolve_start;
      span.duration_seconds = stats.precompute_seconds;
      trace_.Record(std::move(span));
    }
    result.request = task.request;
    result.request.snapshot_version = snapshot->version;  // resolved
    stats.snapshot_version = snapshot->version;
    stats.precompute = precompute->stats;

    // Private context per request over the worker's memoized base:
    // queries share the immutable snapshot, precompute and base (by
    // shared_ptr, no copy), never the mutable search scratch. The base
    // is rebuilt only when the snapshot or the precompute changed;
    // shared_ptr identity is exact here because the memo keeps the old
    // snapshot and precompute alive, so their addresses cannot be reused.
    double phase_start = traced ? trace_.Now() : 0.0;
    Stopwatch phase_timer;
    if (memo->base == nullptr || memo->snapshot != snapshot ||
        memo->base->precompute() != precompute) {
      memo->base.reset();  // never hold two bases at once
      memo->snapshot = snapshot;
      memo->base = core::PlanningBase::Build(*snapshot->road,
                                             *snapshot->transit, precompute);
    }
    core::PlanningContext context =
        core::PlanningContext::Build(memo->base, task.request.options);
    stats.context_seconds = phase_timer.Seconds();
    if (traced) {
      obs::Span span;
      span.trace_id = task.trace_id;
      span.name = "context-build";
      span.start_seconds = phase_start;
      span.duration_seconds = stats.context_seconds;
      trace_.Record(std::move(span));
      phase_start = trace_.Now();
    }

    phase_timer.Reset();
    result.plan = core::RunPlanner(&context, task.request.planner);
    stats.plan_seconds = phase_timer.Seconds();
    if (traced) {
      obs::Span span;
      span.trace_id = task.trace_id;
      span.name = "plan-search";
      span.start_seconds = phase_start;
      span.duration_seconds = stats.plan_seconds;
      trace_.Record(std::move(span));
    }
    // Count completion before fulfilling the promise, so a caller woken by
    // the future observes the counter already advanced.
    counters_.completed->Add();
    RecordRequestLatency(task.request.priority, stats);
    task.promise.set_value(std::move(result));
  } catch (...) {
    counters_.completed->Add();
    task.promise.set_exception(std::current_exception());
  }
}

}  // namespace ctbus::service
