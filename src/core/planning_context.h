// Everything the planners need, in two layers. PlanningBase is the
// request-invariant part, built once per (snapshot, precompute) and shared
// immutably: the plannable-edge universe and Delta(e) pre-computation, the
// ranked lists L_d and L_lambda and the base adjacency. PlanningContext is
// the thin per-request part over a shared base: the options and the
// Equation 12 normalization constants. The integrated ranking L_e is built
// by the search that reads it (BuildObjectiveList), so a request whose
// search runs under other options (VK-TSP) builds only the one it reads.
// A context holds no mutable state: online increments are exact local trace increments read
// off the base's adjacency (connectivity/local_increment.h), each staged
// term solved once per precompute and then read from its term memo
// (core/term_memo.h) with the same bits, so one context may serve any
// number of threads. Every increment, linear or
// online, is anchored by the one estimated number per snapshot, the
// precompute's tr_0 (Precompute::ConnectivityFromTrace), so a one-edge
// path's online increment is its Delta(e) bit for bit. The eigenvalue
// input of online ETA's Lemma 4 bound is one certified cap on lambda_1 per
// base (SpectralRadiusCap), so a request's bound costs O(k) and runs no
// eigensolver.
#ifndef CTBUS_CORE_PLANNING_CONTEXT_H_
#define CTBUS_CORE_PLANNING_CONTEXT_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/edge_universe.h"
#include "core/options.h"
#include "core/term_memo.h"
#include "demand/ranked_list.h"
#include "graph/road_network.h"
#include "graph/transit_network.h"
#include "linalg/sparse_matrix.h"

namespace ctbus::core {

/// Wall-clock cost of the pre-computation phases (Table 4), plus the
/// provenance of a warm-started run.
struct PrecomputeStats {
  double universe_seconds = 0.0;     // shortest-path realization
  double increments_seconds = 0.0;   // Delta tr(e) pass + tr_0 anchor
  int num_new_edges = 0;
  /// True if this precompute was derived from a previous snapshot version
  /// (DerivePrecompute) instead of computed from scratch.
  bool derived = false;
  /// Local trace increments actually solved in this run. From scratch this
  /// equals num_new_edges; a warm start only solves the candidates within
  /// kLocalIncrementRadius hops of the snapshot delta's touched stops.
  int num_increments_recomputed = 0;
  /// Trace increments carried over verbatim from the donor precompute.
  int num_increments_carried = 0;
  /// Width of the Delta tr(e) fan-out (CtBusOptions::precompute_threads
  /// clamped to the amount of work).
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
  /// Sorted, deduplicated endpoints of added_stop_pairs. A warm start
  /// re-solves the candidates with an endpoint within
  /// kLocalIncrementRadius hops of this set and carries the rest.
  std::vector<int> touched_stops;
  /// Sorted, deduplicated road edges whose trip counts were zeroed
  /// (demand changes propagate to every universe edge crossing them).
  std::vector<int> changed_road_edges;
};

/// The expensive, parameter-sweep-invariant part of context construction:
/// the plannable-edge universe (depends on tau) and the Delta(e)
/// pre-computation (exact local trace increments, anchored by the
/// precompute estimator's tr(e^A)). Reusable across contexts with
/// different k / w / Tn / sn. Its tables are immutable once built; the
/// serving layer shares it across threads via shared_ptr<const Precompute>.
/// The one thing that changes after that is term_memo, which guards itself
/// with its own mutex and never changes an answer.
struct Precompute {
  EdgeUniverse universe;
  /// Delta tr(e^A) per universe edge: connectivity::LocalTraceIncrement of
  /// each new edge against the snapshot's adjacency, 0 for existing edges.
  /// A pure function of the edge's kLocalIncrementRadius-hop ball, which is
  /// what lets a warm start carry it exactly. CTBS stores this table.
  std::vector<double> trace_increments;
  /// tr_0 = tr(e^A) of the snapshot, one precompute-estimator estimate:
  /// the only estimated quantity behind a plan. It turns every trace
  /// increment into a connectivity increment (ConnectivityFromTrace) and
  /// gives the base lambda(G_r) = log(tr_0 / n) of the Lemma 4 bound.
  double base_trace = 1.0;
  /// Delta(e) = ConnectivityFromTrace(trace_increments[e]). Always filled
  /// by FillIncrements, never stored.
  std::vector<double> increments;
  PrecomputeStats stats;
  /// The staged terms Delta tr(e | S), S != {}, that requests over this
  /// precompute have solved (PlanningContext::TraceIncrement and
  /// EdgeTraceIncrement read and fill it), up to term_memo_max_pairs()
  /// stop pairs. Not stored in CTBS: a loaded, derived or copied
  /// precompute starts with an empty memo.
  TermMemo term_memo;

  /// The memo's cap: its keys hold at most as many stop pairs as the
  /// S = {} table has keys, universe.num_new_edges(), so it needs no knob.
  std::size_t term_memo_max_pairs() const {
    return static_cast<std::size_t>(universe.num_new_edges());
  }

  /// lambda(G + P) - lambda(G) of new edges that change tr(e^A) by
  /// `trace_increment`: max(0, log1p(trace_increment / base_trace)). The
  /// one conversion from trace to connectivity: Delta(e) and every online
  /// increment go through it.
  double ConnectivityFromTrace(double trace_increment) const;

  /// Recomputes `increments` from trace_increments and base_trace. The one
  /// place Delta(e) is derived: RunPrecompute, DerivePrecompute and the
  /// CTBS decoder all call it, so every route yields the same bits.
  void FillIncrements();

  /// Approximate resident footprint in bytes (universe + both per-edge
  /// tables + the term memo at its cap). This is the unit the serving
  /// layer's byte-budgeted PrecomputeCache charges per entry once, when it
  /// becomes resident; the memo fills later, so it is charged its worst
  /// case. Deterministic; O(universe edges).
  std::size_t ApproxBytes() const {
    return sizeof(Precompute) - sizeof(EdgeUniverse) +
           universe.ApproxBytes() +
           (trace_increments.size() + increments.size()) * sizeof(double) +
           TermMemo::CapacityBytes(term_memo_max_pairs());
  }
};

/// A certified upper bound on every eigenvalue of the symmetric
/// `adjacency` (on rho(|A|), so on lambda_1 of a nonnegative A):
/// the smallest Collatz-Wielandt ratio max_u (|A| x)_u / x_u over the
/// positive iterates x of a power iteration of (|A| + I) from the all-ones
/// vector, rounded outward to cover the floating-point error of the ratios.
/// Deterministic (no RNG), a pure function of the matrix; stops once the
/// cap is within 1e-9 relative of the Rayleigh quotient, or after 300
/// iterations. The smallest positive double for a matrix with no entries.
double SpectralRadiusCap(const linalg::SymmetricSparseMatrix& adjacency);

/// The request-invariant planning state over one (road, transit,
/// precompute): everything a context reads that does not depend on k, w,
/// Tn or sn. Immutable once built, so one instance may back any number of
/// contexts on any threads; the serving layer keeps one per worker and
/// rebuilds it only when the snapshot or the precompute changes
/// (service/planning_service.h).
class PlanningBase {
 public:
  /// Builds the base adjacency and its spectral radius cap, and sorts L_d
  /// and L_lambda; estimates nothing. `road` and `transit` must outlive the
  /// base; `precompute` must have been produced for the same (road,
  /// transit, tau).
  static std::shared_ptr<const PlanningBase> Build(
      const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
      std::shared_ptr<const Precompute> precompute);

  const graph::RoadNetwork& road() const { return *road_; }
  const graph::TransitNetwork& transit() const { return *transit_; }
  const std::shared_ptr<const Precompute>& precompute() const {
    return precompute_;
  }
  /// The transit network's adjacency matrix, built once; it has no
  /// mutator. Every online increment and the spectral radius cap read it,
  /// and its rows are sorted by column, so they depend on the active edge
  /// set, not on the order the transit network added its edges.
  const linalg::SymmetricSparseMatrix& adjacency() const {
    return adjacency_;
  }
  /// lambda(G_r) = log(tr_0 / n), tr_0 the precompute's base_trace.
  double base_lambda() const { return base_lambda_; }
  /// SpectralRadiusCap(adjacency()): a proven upper bound on every
  /// eigenvalue of the base adjacency, computed once per base. Lemma 4's
  /// eigenvalue input.
  double spectral_radius_cap() const { return spectral_radius_cap_; }
  /// L_d and L_lambda over universe edge ids.
  const demand::RankedList& demand_list() const { return demand_list_; }
  const demand::RankedList& increment_list() const { return increment_list_; }

  /// Approximate resident footprint in bytes: the adjacency, the ranked
  /// lists and the (possibly shared) precompute it holds alive.
  std::size_t ApproxBytes() const;

 private:
  PlanningBase(const graph::RoadNetwork& road,
               const graph::TransitNetwork& transit,
               std::shared_ptr<const Precompute> precompute);

  const graph::RoadNetwork* road_;
  const graph::TransitNetwork* transit_;
  std::shared_ptr<const Precompute> precompute_;
  linalg::SymmetricSparseMatrix adjacency_;
  double base_lambda_;
  double spectral_radius_cap_;
  demand::RankedList demand_list_;
  demand::RankedList increment_list_;
};

class PlanningContext {
 public:
  /// Runs only the expensive pre-computation phases: the universe, one
  /// exact local trace increment per new edge, and the tr_0 anchor. The
  /// increment loop fans out over options.precompute_threads workers
  /// (1 = serial, <= 0 = hardware concurrency) that share the immutable
  /// adjacency; each value is a pure function of its edge's ball, so the
  /// result is bit-identical at any thread count. Thread-safe for
  /// concurrent callers (shares nothing but its const inputs).
  static Precompute RunPrecompute(const graph::RoadNetwork& road,
                                  const graph::TransitNetwork& transit,
                                  const CtBusOptions& options);

  /// Warm start: derives the precompute for the networks (road, transit)
  /// from `prev`, the precompute of an *ancestor* snapshot version, given
  /// the composed `delta` between the two versions. Requirements: same
  /// city (stop set unchanged), same options (tau, precompute estimator),
  /// and the newer snapshot reachable from the older one by CommitRoute
  /// steps only.
  ///
  /// The universe's shortest-path realizations are reused wholesale. A
  /// breadth-first search of kLocalIncrementRadius hops from
  /// delta.touched_stops on the new adjacency marks the stops whose balls
  /// may have changed; new edges with an endpoint among them (or unknown to
  /// `prev`) are re-solved, every other trace increment is carried from
  /// `prev`, and tr_0 is re-estimated. Commits only add edges, so an edge
  /// with neither endpoint within the radius of a touched stop has the same
  /// ball and the same induced submatrix as before, and the sorted-ball
  /// kernel returns the same bits: the result equals RunPrecompute on the
  /// new networks bit for bit. See docs/PRECOMPUTE.md.
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

  /// Builds the per-request part over a shared base: the options and the
  /// normalization constants, O(1) (two prefix-sum reads; L_e is built by
  /// the search, BuildObjectiveList). This is the hot path of the serving
  /// layer, whose workers reuse one base across requests. Any
  /// number of contexts (on any threads) may share one base, and a context
  /// is itself immutable once built.
  static PlanningContext Build(std::shared_ptr<const PlanningBase> base,
                               const CtBusOptions& options);

  /// Builds a context around an existing pre-computation (moved in).
  /// The precompute must have been produced for the same (road, transit,
  /// tau); only k / w / Tn / sn / the online estimator may differ. Same as
  /// Build(PlanningBase::Build(...), options).
  static PlanningContext BuildWithPrecompute(
      const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
      const CtBusOptions& options, Precompute precompute);

  /// Shares an existing pre-computation without copying it, building a
  /// fresh base around it: Build(PlanningBase::Build(...), options).
  /// Callers planning many requests over one precompute should build the
  /// base once and call Build(base, options) instead.
  static PlanningContext BuildWithPrecompute(
      const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
      const CtBusOptions& options,
      std::shared_ptr<const Precompute> precompute);

  /// The shared request-invariant state this context reads through.
  const std::shared_ptr<const PlanningBase>& base() const { return base_; }

  const graph::RoadNetwork& road() const { return base_->road(); }
  const graph::TransitNetwork& transit() const { return base_->transit(); }
  const CtBusOptions& options() const { return options_; }
  const EdgeUniverse& universe() const {
    return base_->precompute()->universe;
  }

  /// L_d, L_lambda over universe edge ids (the base's).
  const demand::RankedList& demand_list() const {
    return base_->demand_list();
  }
  const demand::RankedList& increment_list() const {
    return base_->increment_list();
  }

  /// Builds L_e over universe edge ids: every edge's integrated score
  /// Objective(d(e), Delta(e)) (Equation 11), ranked. O(universe edges)
  /// per call; the context keeps no copy, so ETA builds it once per search
  /// and a context nobody searches never pays for it.
  demand::RankedList BuildObjectiveList() const;

  /// Delta(e) per universe edge (0 for existing edges).
  const std::vector<double>& increments() const {
    return base_->precompute()->increments;
  }

  /// Normalization constants of Equation 12.
  double d_max() const { return d_max_; }
  double lambda_max() const { return lambda_max_; }

  /// lambda(G_r) = log(tr_0 / n), the base of the Lemma 4 bound.
  double base_lambda() const { return base_->base_lambda(); }

  const PrecomputeStats& precompute_stats() const {
    return base_->precompute()->stats;
  }

  /// Approximate resident footprint in bytes of this context's own state
  /// (the options and constants) plus the base it holds alive.
  /// Contexts sharing one base each report its bytes — the serving layer
  /// accounts the shared precompute once, via the cache.
  std::size_t ApproxBytes() const;

  /// Shares this context's pre-computation without copying.
  std::shared_ptr<const Precompute> SharePrecompute() const {
    return base_->precompute();
  }

  /// Normalized objective (Equation 3) from raw demand and connectivity
  /// increment.
  double Objective(double demand, double connectivity_increment) const;

  /// Delta tr(e^A) of a path's *new* edges: the exact local increment of
  /// each new edge (connectivity::LocalTraceIncrement on the base
  /// adjacency), telescoped in path order with the path's earlier new
  /// edges staged. The first new edge meets nothing staged, so its term is
  /// read from the precompute's trace_increments (the same call's bits)
  /// instead of solved. Existing and repeated edges add 0. Each other term
  /// is read from the precompute's term memo if an earlier call solved it,
  /// else solved and stored there (the same bits either way). They are
  /// independent: they fan out over options().precompute_threads workers
  /// (linalg::ParallelFor) and are summed in path order, so the value is
  /// bit-identical at any width and any memo state. Adds the terms it
  /// needed beyond the first (LocalTraceIncrement calls, solved or read)
  /// to `*local_solves`, and those read from the memo to `*memo_hits`, if
  /// given. Thread-safe.
  double TraceIncrement(const std::vector<int>& path_edges,
                        int* local_solves = nullptr,
                        int* memo_hits = nullptr) const;

  /// Delta tr(e^A) of adding universe edge `edge` to the network that
  /// already holds the new edges of `path_edges`: the one telescoped term
  /// ETA pays per frontier candidate, read from the precompute (its
  /// Delta tr(e) table if nothing is staged, else its term memo) or solved
  /// and stored in the memo. 0 unless `edge` is new and not already on the
  /// path. Adds one to `*local_solves` if `edge` is new, and one to
  /// `*memo_hits` if the term was read instead of solved, if given.
  /// Thread-safe.
  double EdgeTraceIncrement(const std::vector<int>& path_edges, int edge,
                            int* local_solves = nullptr,
                            int* memo_hits = nullptr) const;

  /// Connectivity increment lambda(G + P) - lambda(G) of a path whose new
  /// edges change tr(e^A) by `trace_increment`: the precompute's
  /// Precompute::ConnectivityFromTrace, the same anchor as Delta(e).
  double ConnectivityFromTrace(double trace_increment) const {
    return base_->precompute()->ConnectivityFromTrace(trace_increment);
  }

  /// Online connectivity increment of a path's *new* edges against the
  /// base network (lines 10/13 of Algorithm 1):
  /// ConnectivityFromTrace(TraceIncrement(path_edges)). A pure function of
  /// (base, path), thread-safe.
  double OnlineConnectivityIncrement(const std::vector<int>& path_edges) const;

  /// Linearized connectivity increment: sum of Delta(e) over the path's
  /// edges (ETA-Pre's surrogate).
  double LinearConnectivityIncrement(const std::vector<int>& path_edges) const;

  /// Upper bound on the connectivity increment of any path completed to at
  /// most k edges (Lemma 4, normalized to an increment), with each of its
  /// (k + 1) / 2 eigenvalues capped at the base's spectral_radius_cap().
  /// Every term is monotone in its eigenvalue, so the result is at least
  /// Lemma 4 on the exact eigenvalues. O(k), no eigensolver; thread-safe.
  double PathConnectivityIncrementBound(int k) const;

 private:
  PlanningContext() = default;

  /// connectivity::LocalTraceIncrement(adjacency(), staged, u, v) for a
  /// non-empty `staged`: read from the precompute's term memo, or solved
  /// and stored there. Sets `*memo_hit`.
  double StagedTerm(const std::vector<std::pair<int, int>>& staged, int u,
                    int v, bool* memo_hit) const;

  std::shared_ptr<const PlanningBase> base_;
  CtBusOptions options_;
  double d_max_ = 1.0;
  double lambda_max_ = 1.0;
};

}  // namespace ctbus::core

#endif  // CTBUS_CORE_PLANNING_CONTEXT_H_
