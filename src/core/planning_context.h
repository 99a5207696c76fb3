// Everything the planners need, assembled once per (dataset, options):
// the plannable-edge universe, the Delta(e) pre-computation, the three
// ranked lists (L_d, L_lambda, L_e), the shared connectivity estimator with
// its base-network estimate, the top eigenvalues feeding the Lemma 3/4
// bounds, and the Equation 12 normalization constants.
#ifndef CTBUS_CORE_PLANNING_CONTEXT_H_
#define CTBUS_CORE_PLANNING_CONTEXT_H_

#include <memory>
#include <vector>

#include "connectivity/natural_connectivity.h"
#include "core/edge_universe.h"
#include "core/options.h"
#include "demand/ranked_list.h"
#include "graph/road_network.h"
#include "graph/transit_network.h"
#include "linalg/sparse_matrix.h"

namespace ctbus::core {

/// Wall-clock cost of the pre-computation phases (Table 4), plus the
/// provenance of a warm-started run.
struct PrecomputeStats {
  double universe_seconds = 0.0;     // shortest-path realization
  double increments_seconds = 0.0;   // Delta(e) estimation
  int num_new_edges = 0;
  /// True if this precompute was derived from a previous snapshot version
  /// (DerivePrecompute) instead of computed from scratch.
  bool derived = false;
  /// Derivation chain length: 0 for a from-scratch precompute, donor's
  /// depth + 1 for a derived one. On the stochastic path each hop can add
  /// carry error, so the serving layer bounds this
  /// (ServiceOptions::max_warm_start_depth) and prefers depth-0 donors.
  int derivation_depth = 0;
  /// Delta(e) evaluations actually executed in this run. From scratch this
  /// equals num_new_edges; a warm start only evaluates the candidates
  /// touched by the snapshot delta (stochastic path) or re-applies the
  /// rebuilt O(m)-per-edge perturbation model (perturbation path).
  int num_increments_recomputed = 0;
  /// Delta(e) values carried over verbatim from the donor precompute.
  int num_increments_carried = 0;
  /// With CtBusOptions::prune_candidates: candidates actually estimated
  /// (survivors of the screen, plus the always-estimated keep sets) vs
  /// candidates whose stored value is the screen's upper bound instead.
  /// Both 0 when pruning is off.
  int num_increments_estimated = 0;
  int num_increments_pruned = 0;
  /// Shards actually used for the Delta(e) loop (after clamping
  /// CtBusOptions::precompute_threads to the amount of work).
  int threads_used = 1;
};

/// Edge-level difference between two snapshot versions of one city, as
/// recorded by service::SnapshotStore::CommitRoute and consumed by
/// PlanningContext::DerivePrecompute. A commit only ever *adds* transit
/// edges and zeroes road demand, so the delta is purely additive.
struct SnapshotDelta {
  /// Stop pairs whose transit edge became active between the versions
  /// (pairs that were already active-connected before are not listed).
  std::vector<std::pair<int, int>> added_stop_pairs;
  /// Sorted, deduplicated endpoints of added_stop_pairs. Candidates with
  /// neither endpoint in this set keep their Delta(e) on a warm start.
  std::vector<int> touched_stops;
  /// Sorted, deduplicated road edges whose trip counts were zeroed
  /// (demand changes propagate to every universe edge crossing them).
  std::vector<int> changed_road_edges;
};

/// The expensive, parameter-sweep-invariant part of context construction:
/// the plannable-edge universe (depends on tau) and the Delta(e)
/// pre-computation (depends on the precompute estimator). Reusable across
/// contexts with different k / w / Tn / sn. Immutable once built; the
/// serving layer shares it across threads via shared_ptr<const Precompute>
/// without further synchronization.
struct Precompute {
  EdgeUniverse universe;
  std::vector<double> increments;
  /// Per universe edge, 1 if increments[e] holds the candidate screen's
  /// upper bound instead of an estimate (CtBusOptions::prune_candidates).
  /// Empty when pruning was off — every stored value is then an estimate
  /// (or 0 for existing edges).
  std::vector<char> pruned;
  PrecomputeStats stats;

  /// True if increments[e] is a pruning bound rather than an estimate.
  bool IsPruned(int e) const {
    return !pruned.empty() && pruned[static_cast<std::size_t>(e)] != 0;
  }

  /// Approximate resident footprint in bytes (universe + Delta(e) table).
  /// This is the unit the serving layer's byte-budgeted PrecomputeCache
  /// charges per entry. Deterministic; O(universe edges).
  std::size_t ApproxBytes() const {
    return sizeof(Precompute) - sizeof(EdgeUniverse) +
           universe.ApproxBytes() + increments.size() * sizeof(double) +
           pruned.size() * sizeof(char);
  }
};

class PlanningContext {
 public:
  /// Runs only the expensive pre-computation phases. The Delta(e) loop is
  /// sharded over options.precompute_threads workers (1 = serial, <= 0 =
  /// hardware concurrency); each shard owns its estimator and scratch
  /// adjacency, so the result is bit-identical at any thread count for
  /// both estimator paths. Thread-safe for concurrent callers (shares
  /// nothing but its const inputs).
  static Precompute RunPrecompute(const graph::RoadNetwork& road,
                                  const graph::TransitNetwork& transit,
                                  const CtBusOptions& options);

  /// Warm start: derives the precompute for the networks (road, transit)
  /// from `prev`, the precompute of an *ancestor* snapshot version, given
  /// the composed `delta` between the two versions. Requirements: same
  /// city (stop set unchanged), same options (tau, detour, precompute
  /// estimator), and the newer snapshot reachable from the older one by
  /// CommitRoute steps only.
  ///
  /// The carried-over work: the universe's shortest-path realizations are
  /// reused wholesale (bit-identical to EdgeUniverse::Build on the new
  /// networks), and on the stochastic path the Delta(e) of candidates not
  /// touching delta.touched_stops is carried from `prev` (exact for
  /// recomputed candidates, first-order-accurate for carried ones). On the
  /// perturbation path every candidate is re-evaluated against a model
  /// rebuilt on the new adjacency — O(m) per edge — so the result is
  /// bit-identical to RunPrecompute. See docs/PRECOMPUTE.md.
  static Precompute DerivePrecompute(const graph::RoadNetwork& road,
                                     const graph::TransitNetwork& transit,
                                     const CtBusOptions& options,
                                     const Precompute& prev,
                                     const SnapshotDelta& delta);

  /// Builds the full context (runs RunPrecompute internally).
  /// `road` and `transit` must outlive it.
  static PlanningContext Build(const graph::RoadNetwork& road,
                               const graph::TransitNetwork& transit,
                               const CtBusOptions& options);

  /// Builds a context around an existing pre-computation (moved in).
  /// The precompute must have been produced for the same (road, transit,
  /// tau); only k / w / Tn / sn / estimator seeds may differ.
  static PlanningContext BuildWithPrecompute(
      const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
      const CtBusOptions& options, Precompute precompute);

  /// Shares an existing pre-computation without copying it — the context
  /// keeps the shared_ptr alive and reads the universe / increments in
  /// place. This is the hot path of the serving layer's cache hits: the
  /// Precompute is immutable, so any number of contexts (on any threads)
  /// may share one instance; each context only adds mutable state of its
  /// own (scratch adjacency, estimator), which is what makes a *context*
  /// single-threaded while the *precompute* is freely shared.
  static PlanningContext BuildWithPrecompute(
      const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
      const CtBusOptions& options,
      std::shared_ptr<const Precompute> precompute);

  const graph::RoadNetwork& road() const { return *road_; }
  const graph::TransitNetwork& transit() const { return *transit_; }
  const CtBusOptions& options() const { return options_; }
  const EdgeUniverse& universe() const { return precompute_->universe; }

  /// L_d, L_lambda, L_e over universe edge ids.
  const demand::RankedList& demand_list() const { return demand_list_; }
  const demand::RankedList& increment_list() const { return increment_list_; }
  const demand::RankedList& objective_list() const { return objective_list_; }

  /// Delta(e) per universe edge (0 for existing edges).
  const std::vector<double>& increments() const {
    return precompute_->increments;
  }

  /// Normalization constants of Equation 12.
  double d_max() const { return d_max_; }
  double lambda_max() const { return lambda_max_; }

  /// lambda(G_r) as seen by the shared estimator.
  double base_lambda() const { return base_lambda_; }

  /// The shared (common-random-numbers) estimator.
  const connectivity::ConnectivityEstimator& estimator() const {
    return *estimator_;
  }

  /// Top eigenvalues of the base adjacency (descending), enough for the
  /// Lemma 3/4 bounds at the configured k.
  const std::vector<double>& top_eigenvalues() const {
    return top_eigenvalues_;
  }

  const PrecomputeStats& precompute_stats() const {
    return precompute_->stats;
  }

  /// Approximate resident footprint in bytes of this context's own state
  /// plus the (possibly shared) precompute it holds alive: ranked lists,
  /// estimator probes, scratch adjacency, eigenvalues, and the precompute
  /// tables. Contexts sharing one precompute each report its bytes — the
  /// serving layer accounts the shared copy once, via the cache.
  std::size_t ApproxBytes() const;

  /// Copies out this context's pre-computation for reuse in sibling
  /// contexts (different k / w / Tn / sn over the same networks). Prefer
  /// SharePrecompute when a copy is not required.
  Precompute ExportPrecompute() const { return *precompute_; }

  /// Shares this context's pre-computation without copying.
  std::shared_ptr<const Precompute> SharePrecompute() const {
    return precompute_;
  }

  /// Normalized objective (Equation 3) from raw demand and connectivity
  /// increment.
  double Objective(double demand, double connectivity_increment) const;

  /// Online connectivity increment of a path's *new* edges, evaluated with
  /// the shared estimator against the base network (the Lanczos call on
  /// lines 10/13 of Algorithm 1). Const but NOT thread-safe per context:
  /// it mutates and restores the internal scratch matrix, so concurrent
  /// planners must each own a context (see service/planning_service.h).
  double OnlineConnectivityIncrement(const std::vector<int>& path_edges) const;

  /// OnlineConnectivityIncrement evaluated on worker slot `slot`'s private
  /// scratch adjacency, copied lazily on the slot's first use; every slot
  /// shares the context's (immutable) estimator. Bit-identical to
  /// OnlineConnectivityIncrement: Set/Remove cycles restore the
  /// adjacency's row layout exactly, so every evaluation sees the base
  /// layout plus its own path edges regardless of which slot runs it.
  /// Distinct slots may run concurrently (ETA's frontier workers key slots
  /// off stable WorkerPool shard ids); a single slot must never be shared
  /// by two threads at once. Requires ReserveOnlineEvalSlots(slot + 1)
  /// first.
  double OnlineConnectivityIncrementOnSlot(
      int slot, const std::vector<int>& path_edges) const;

  /// Ensures evaluation slots [0, n) exist (slots stay empty until first
  /// use, so unused slots cost one null pointer). NOT thread-safe — call
  /// from the search thread before forking workers. The slots are
  /// per-context scratch state like scratch_adjacency_: they never enter
  /// the shared Precompute, which is why CtBusOptions::eta_threads stays
  /// out of the precompute cache key (service/precompute_cache.h).
  void ReserveOnlineEvalSlots(int n) const;

  /// Slots currently reserved, and how many were actually materialized by
  /// a first use. For tests and introspection.
  int num_online_eval_slots() const {
    return static_cast<int>(online_eval_units_.size());
  }
  int num_online_eval_units_built() const;

  /// Linearized connectivity increment: sum of Delta(e) over the path's
  /// edges (ETA-Pre's surrogate).
  double LinearConnectivityIncrement(const std::vector<int>& path_edges) const;

  /// Upper bound on the connectivity increment of any path completed to at
  /// most k edges (Lemma 4, normalized to an increment).
  double PathConnectivityIncrementBound(int k) const;

 private:
  PlanningContext() = default;

  const graph::RoadNetwork* road_ = nullptr;
  const graph::TransitNetwork* transit_ = nullptr;
  CtBusOptions options_;
  std::shared_ptr<const Precompute> precompute_;
  demand::RankedList demand_list_;
  demand::RankedList increment_list_;
  demand::RankedList objective_list_;
  std::unique_ptr<connectivity::ConnectivityEstimator> estimator_;
  mutable linalg::SymmetricSparseMatrix scratch_adjacency_;
  /// Lazily-built per-worker scratch adjacencies (indexed by worker slot;
  /// see OnlineConnectivityIncrementOnSlot).
  /// The vector itself is only resized by ReserveOnlineEvalSlots; each
  /// element is owned by exactly one worker slot, so concurrent slots
  /// never race.
  mutable std::vector<std::unique_ptr<linalg::SymmetricSparseMatrix>>
      online_eval_units_;
  double base_lambda_ = 0.0;
  std::vector<double> top_eigenvalues_;
  double d_max_ = 1.0;
  double lambda_max_ = 1.0;
};

}  // namespace ctbus::core

#endif  // CTBUS_CORE_PLANNING_CONTEXT_H_
