// User-facing knobs of the CT-Bus planner (Definition 6 and Section 7.1's
// experimental parameters).
#ifndef CTBUS_CORE_OPTIONS_H_
#define CTBUS_CORE_OPTIONS_H_

#include "connectivity/natural_connectivity.h"

namespace ctbus::core {

struct CtBusOptions {
  /// Maximum number of (new and existing) edges in the planned route.
  /// ctbus-lint: key-exempt(search knob, not a precompute input — sweepable per request)
  int k = 30;

  /// Weight between demand (w) and connectivity (1 - w) in Equation 3.
  /// ctbus-lint: key-exempt(objective weight only scales ranking at query time, never Delta(e))
  double w = 0.5;

  /// Straight-line distance threshold tau between neighbor stops for
  /// candidate new edges, meters (the paper fixes 0.5 km). tau fixes the
  /// plannable-edge universe and so which Delta(e) the precompute solves;
  /// together with precompute_estimator (the tr_0 anchor) it determines
  /// the precompute output — the serving layer keys its precompute cache
  /// on exactly these fields (service/precompute_cache.h),
  /// while k / w / max_turns / seed_count / planner stay sweepable for free.
  double tau = 500.0;

  /// Turn threshold Tn: candidates with tn(mu) >= Tn stop expanding.
  /// ctbus-lint: key-exempt(search-time expansion bound, precompute-invariant)
  int max_turns = 3;

  /// Seeding number sn: only the top-sn edges of the integrated ranking
  /// seed the expansion (Section 6.2, "Selective Edges for Seeding").
  /// ctbus-lint: key-exempt(seeding consumes the precompute, never shapes it)
  int seed_count = 5000;

  /// Iteration cap it_max of Algorithm 1.
  /// ctbus-lint: key-exempt(search-time iteration budget, precompute-invariant)
  int max_iterations = 100000;

  /// The paper's s = 50, t = 10 online estimator. Planning no longer reads
  /// it: every increment, in ETA and in the baselines, is an exact local
  /// trace increment anchored by the precompute's tr_0, and Lemma 4's
  /// eigenvalue input is the base's deterministic spectral radius cap. It
  /// stays in the options and on the wire only because the serving
  /// benchmark's workloads still set it.
  /// ctbus-lint: key-exempt(read by no planner; the precompute uses precompute_estimator)
  connectivity::EstimatorOptions online_estimator;

  /// Estimator of the precompute's anchor tr_0 = tr(e^A): one estimate per
  /// precompute turns every exact local trace increment into
  /// Delta(e) = log1p(Delta tr(e) / tr_0). A uniform scale on the table, so
  /// it never reorders L_lambda, but it does change the Delta(e) values,
  /// which is why it stays on the wire and in the precompute cache key.
  connectivity::EstimatorOptions precompute_estimator = {
      /*probes=*/8, /*lanczos_steps=*/8, /*seed=*/11};

  /// Worker threads for the Delta(e) pre-computation loop (the dominant
  /// Table 4 cost). 1 = serial; 0 or negative = hardware concurrency. The
  /// result is bit-identical at any thread count (the shards share the
  /// immutable adjacency and each local increment is a pure function of
  /// its edge's ball; see docs/PRECOMPUTE.md), so this knob is
  /// deliberately NOT part of the precompute cache key. It is not on the
  /// wire: service::PlanningService sets it to its per-shard worker count
  /// on every cache miss.
  /// ctbus-lint: key-exempt(bit-identical at any thread count — keying would fragment the cache)
  int precompute_threads = 1;

  /// Algorithm 1 variant toggles (Section 4.2.2 / 4.2.3, Figure 11):
  /// false => ETA-AN: enqueue the path extended with *every* neighbor
  /// instead of only the best pair.
  /// ctbus-lint: key-exempt(search variant toggle, consumes the precompute unchanged)
  bool best_neighbor_only = true;
  /// false => ETA-DT: skip the domination-table pruning.
  /// ctbus-lint: key-exempt(search variant toggle, consumes the precompute unchanged)
  bool use_domination_table = true;
  /// true => ETA-ALL: seed every candidate edge, not just the top-sn.
  /// ctbus-lint: key-exempt(search variant toggle, consumes the precompute unchanged)
  bool seed_all_edges = false;
  /// true => vk-TSP behaviour: only new edges may be used (Section 7.2.1).
  /// ctbus-lint: key-exempt(search variant toggle, consumes the precompute unchanged)
  bool new_edges_only = false;

  /// Record (iteration, best objective) every `trace_every` iterations
  /// into PlanResult::trace (0 disables); used by the convergence figures.
  /// ctbus-lint: key-exempt(observability knob, never changes the precompute or the plan)
  int trace_every = 0;
};

}  // namespace ctbus::core

#endif  // CTBUS_CORE_OPTIONS_H_
