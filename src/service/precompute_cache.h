// Shared LRU cache of PlanningContext::RunPrecompute results.
//
// The precompute (plannable-edge universe + Delta(e) increments) is the
// expensive, sweep-invariant part of answering a planning query: it depends
// only on (dataset, snapshot version, tau, precompute-estimator params),
// not on k / w / Tn / sn or the planner. Caching it means a parameter sweep
// of N cells pays for one precompute, and repeated traffic against a hot
// snapshot pays for none.
//
// Thread-safe. Concurrent misses on the same key are deduplicated: the
// first caller computes, later callers block on the same shared_future
// instead of recomputing. Capacity 0 disables caching entirely (every call
// computes, nothing is stored).
//
// Memory governance: eviction is driven by an explicit byte budget
// (`max_bytes`, charged per entry via core::Precompute::ApproxBytes) with
// the entry count capacity kept as a secondary limit. Ready entries are
// evicted LRU-tail-first until both limits hold; in-flight entries are
// never evicted (the miss dedup cannot be broken by memory pressure), and
// the most recently used entry survives even when it alone exceeds the
// budget — a single oversized precompute is admitted, serves hits, and is
// only displaced by the next insertion. Budgets never appear in
// PrecomputeKey: they change *what stays resident*, never *what a key
// computes to*, so results are bit-identical under any budget.
//
// Ownership: values are handed out as shared_ptr<const core::Precompute>.
// Eviction only drops the cache's reference — callers (and the planning
// contexts built over them) keep the object alive for as long as they
// hold the pointer, and the const-ness makes cross-thread sharing safe
// without further locking.
//
// Disk spill (optional): with a spill directory configured, a ready entry
// is serialized to `<dir>/ctbus-precompute-<hash>.ctbs` when it is evicted
// (and when the cache is destroyed), and a miss first tries to load that
// file back before running the compute function — so a restarted process
// serves its first query from disk instead of re-running Dijkstras and
// Lanczos. Files are keyed by io::StableSpillHash over the PrecomputeKey
// content (budgets, thread knobs, and the directory path itself stay out,
// exactly as in-memory), and a loaded file is used only if its recorded
// key fields — and, when provided, the network fingerprint — match the
// request; anything stale, corrupt, or foreign is silently a miss, never
// an error. File writes happen outside the cache mutex.
#ifndef CTBUS_SERVICE_PRECOMPUTE_CACHE_H_
#define CTBUS_SERVICE_PRECOMPUTE_CACHE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mutex.h"
#include "core/options.h"
#include "core/planning_context.h"
#include "core/thread_annotations.h"
#include "io/snapshot.h"

namespace ctbus::service {

/// Everything RunPrecompute's output depends on: requests with equal keys
/// share one cache entry, and so one precompute.
///
/// CtBusOptions::precompute_threads is deliberately NOT a key field: the
/// precompute is bit-identical at any thread count, so including it would
/// only fragment the cache across requests that provably produce the same
/// precompute and plans.
/// The option fields are the io::PrecomputeProvenance every spill file
/// records, normalized once by io::MakeProvenance.
struct PrecomputeKey {
  std::string dataset;
  std::uint64_t snapshot_version = 0;
  io::PrecomputeProvenance provenance;

  bool operator==(const PrecomputeKey& other) const;
};

/// Throws std::invalid_argument on a NaN tau (see io::MakeProvenance).
PrecomputeKey MakePrecomputeKey(const std::string& dataset,
                                std::uint64_t snapshot_version,
                                const core::CtBusOptions& options);

/// Hash functor for PrecomputeKey, public so callers can build their own
/// unordered containers over keys.
struct PrecomputeKeyHash {
  std::size_t operator()(const PrecomputeKey& key) const;
};

class PrecomputeCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// ApproxBytes of the resident *ready* entries right now (in-flight
    /// entries are charged when they become ready).
    std::size_t resident_bytes = 0;
    /// Cumulative ApproxBytes of evicted entries.
    std::uint64_t evicted_bytes = 0;
    /// Evicted entries serialized to the spill directory.
    std::uint64_t spill_saves = 0;
    /// Misses answered from a spill file instead of the compute function.
    std::uint64_t spill_loads = 0;
  };

  using ComputeFn = std::function<core::Precompute()>;
  using PrecomputePtr = std::shared_ptr<const core::Precompute>;
  /// Lazy network-content fingerprint (io::NetworkFingerprint of the
  /// snapshot the key refers to). Only invoked on a miss with the spill
  /// path enabled — encoding whole networks is too expensive for the hit
  /// path. May be null (the load is then unchecked); when set, a spill
  /// file loads only if it recorded this exact fingerprint.
  using FingerprintFn = std::function<std::uint64_t()>;

  /// `capacity` bounds resident entries (0 disables caching entirely,
  /// including the spill path); `max_bytes` bounds their summed
  /// ApproxBytes (0 = unlimited); a non-empty `spill_dir` enables disk
  /// spill (the directory is created if missing; if creation fails,
  /// saves and loads simply never succeed).
  explicit PrecomputeCache(std::size_t capacity, std::size_t max_bytes = 0,
                           std::string spill_dir = {});

  /// Spills every ready resident entry to the spill directory (when one
  /// is configured), so a recreated cache over the same directory serves
  /// them as disk hits without requiring an eviction to have happened.
  ~PrecomputeCache();

  PrecomputeCache(const PrecomputeCache&) = delete;
  PrecomputeCache& operator=(const PrecomputeCache&) = delete;

  /// Returns the cached precompute for `key`, computing it with `compute`
  /// on a miss. Sets `*was_hit` (if non-null) to whether the result came
  /// from the cache — a successful spill-file load counts as a hit (the
  /// compute function never ran). Blocks only while the value is being
  /// computed by this or another caller, never while unrelated keys
  /// compute. `network_fingerprint`, when non-null, guards spill loads
  /// against snapshot-version collisions across restarts.
  PrecomputePtr GetOrCompute(const PrecomputeKey& key,
                             const ComputeFn& compute,
                             bool* was_hit = nullptr,
                             const FingerprintFn& network_fingerprint =
                                 nullptr) CTBUS_EXCLUDES(mu_);

  /// Warm-start donor lookup: every *ready* resident entry whose key
  /// matches `key` on all fields except snapshot_version, returned as
  /// (snapshot_version, value) pairs sorted by descending version (the
  /// nearest ancestor first, in the common latest-chain case). In-flight
  /// entries and `key`'s own version are excluded. Does not touch LRU
  /// order — deriving from a donor is not a use of the donor's entry.
  std::vector<std::pair<std::uint64_t, PrecomputePtr>> ReadySiblings(
      const PrecomputeKey& key) const CTBUS_EXCLUDES(mu_);

  /// True if `key` is resident (does not touch LRU order).
  bool Contains(const PrecomputeKey& key) const CTBUS_EXCLUDES(mu_);

  /// The ready value for `key` if resident, else nullptr (in-flight
  /// entries also return nullptr — Peek never blocks). Does not touch
  /// LRU order or hit/miss stats. The serving layer's commit path uses
  /// this to map a result's edge ids through its planned-in universe even
  /// after the planned-against snapshot version was pruned by retention.
  PrecomputePtr Peek(const PrecomputeKey& key) const CTBUS_EXCLUDES(mu_);

  /// Resident keys, most recently used first. For tests and introspection.
  std::vector<PrecomputeKey> KeysByRecency() const CTBUS_EXCLUDES(mu_);

  void Clear() CTBUS_EXCLUDES(mu_);

  std::size_t size() const CTBUS_EXCLUDES(mu_);
  std::size_t capacity() const { return capacity_; }
  std::size_t max_bytes() const { return max_bytes_; }
  /// The configured spill directory ("" = spill disabled).
  const std::string& spill_dir() const { return spill_dir_; }
  /// The spill file GetOrCompute would read/write for `key` (valid only
  /// when spill is enabled). Exposed for tests and tooling.
  std::string SpillPath(const PrecomputeKey& key) const;
  /// Summed ApproxBytes of resident ready entries.
  std::size_t resident_bytes() const CTBUS_EXCLUDES(mu_);
  Stats stats() const CTBUS_EXCLUDES(mu_);

 private:
  struct Entry {
    std::shared_future<PrecomputePtr> future;
    std::list<PrecomputeKey>::iterator lru_it;
    /// In-flight entries (compute still running) are never evicted, so
    /// the same-key miss dedup cannot be broken by capacity pressure.
    bool ready = false;
    /// Distinguishes re-insertions of one key, so a failed compute only
    /// erases its own generation, never a newer healthy entry.
    std::uint64_t generation = 0;
    /// ApproxBytes of the value, charged against max_bytes_ once ready
    /// (0 while in flight — the size is unknown until computed).
    std::size_t bytes = 0;
    /// Network fingerprint recorded when the entry became ready; written
    /// into the entry's spill file on eviction (0 = unchecked).
    std::uint64_t fingerprint = 0;
  };

  /// A ready entry queued for serialization: EvictReadyLocked (and the
  /// destructor) queue under mu_, DrainPendingSpills writes the files
  /// after the lock is released.
  struct PendingSpill {
    PrecomputeKey key;
    std::uint64_t fingerprint = 0;
    PrecomputePtr value;
  };

  /// Evicts ready entries from the LRU tail until within the entry-count
  /// capacity AND the byte budget (or only in-flight entries and the MRU
  /// entry remain). With spill enabled, evicted values are queued on
  /// pending_spills_ for the next DrainPendingSpills. Caller holds mu_.
  void EvictReadyLocked() CTBUS_REQUIRES(mu_);

  /// Writes every queued PendingSpill to its spill file (file I/O happens
  /// with mu_ released; the queue is swapped out under the lock).
  void DrainPendingSpills() CTBUS_EXCLUDES(mu_);

  /// Attempts to answer a miss from `key`'s spill file. Returns nullptr —
  /// a plain miss, never an error — when the file is absent, corrupt,
  /// stale-format, or records a different key, or — when `fingerprint`
  /// is nonzero — any other network fingerprint (an unrecorded 0 too).
  PrecomputePtr TryLoadSpill(const PrecomputeKey& key,
                             std::uint64_t fingerprint) const;

  const std::size_t capacity_;
  const std::size_t max_bytes_;
  const std::string spill_dir_;
  mutable core::Mutex mu_;
  // front = most recently used
  std::list<PrecomputeKey> lru_ CTBUS_GUARDED_BY(mu_);
  std::unordered_map<PrecomputeKey, Entry, PrecomputeKeyHash> entries_
      CTBUS_GUARDED_BY(mu_);
  std::uint64_t next_generation_ CTBUS_GUARDED_BY(mu_) = 0;
  /// Summed Entry::bytes of ready entries.
  std::size_t resident_bytes_ CTBUS_GUARDED_BY(mu_) = 0;
  Stats stats_ CTBUS_GUARDED_BY(mu_);
  std::vector<PendingSpill> pending_spills_ CTBUS_GUARDED_BY(mu_);
};

}  // namespace ctbus::service

#endif  // CTBUS_SERVICE_PRECOMPUTE_CACHE_H_
