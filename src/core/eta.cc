#include "core/eta.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "core/domination_table.h"
#include "demand/demand_bound.h"

namespace ctbus::core {

namespace {

struct QueueEntry {
  double upper_bound = 0.0;
  double objective = 0.0;
  CandidatePath path;
  demand::BoundState bound_state;
  /// kOnline: Delta tr(e^A) of the path's new edges, carried along the
  /// search by adding each chosen extension's term. Empty for a seed until
  /// its first expansion (seeds are scored linearly, lines 18-27).
  std::optional<double> trace_increment;
};

// One element of the queue's heap: an entry's bound and where the entry
// is. The heap moves these 16-byte slots, never the entries.
struct QueueSlot {
  double upper_bound = 0.0;
  /// >= 0: the entry is entries_[ref]. < 0: a seed, the edge -ref - 1,
  /// whose path and bound state are built when it is popped (a request
  /// pops only a few hundred of the sn seeds).
  int ref = 0;
};

// The heap order: a max-heap on O_up, equal bounds in the order the heap
// operations leave them (see eta.h).
bool BoundLess(const QueueSlot& a, const QueueSlot& b) {
  return a.upper_bound < b.upper_bound;
}

// The search engine shared by ETA and ETA-Pre; mode selects the objective
// evaluation and bound machinery.
class EtaSearch {
 public:
  EtaSearch(const PlanningContext* ctx, SearchMode mode)
      : ctx_(ctx),
        mode_(mode),
        options_(ctx->options()),
        objective_list_(ctx->BuildObjectiveList()),
        // ETA bounds demand via L_d (Algorithm 2); ETA-Pre bounds the
        // integrated objective via L_e (Section 6.2).
        bound_(mode == SearchMode::kOnline ? &ctx->demand_list()
                                           : &objective_list_,
               options_.k) {}

  PlanResult Run() {
    const auto start = std::chrono::steady_clock::now();
    Initialize();
    int it = 0;
    QueueEntry entry;
    while (Pop(&entry)) {
      if (entry.upper_bound <= best_objective_ || it >= options_.max_iterations) {
        break;  // Line 5-6 of Algorithm 1
      }
      ++it;
      if (options_.best_neighbor_only) {
        ExpandBestNeighbor(std::move(entry));
      } else {
        ExpandAllNeighbors(std::move(entry));  // ETA-AN
      }
      if (options_.trace_every > 0 && it % options_.trace_every == 0) {
        result_.trace.emplace_back(it, best_objective_);
      }
    }
    result_.iterations = it;
    FinalizeResult();
    result_.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    return std::move(result_);
  }

 private:
  // Objective of a queue entry under the active mode. kOnline reads the
  // carried trace increment, so line 13 costs no solve.
  double Evaluate(const QueueEntry& entry) const {
    if (mode_ == SearchMode::kPrecomputed) return EvaluateLinear(entry.path);
    return ctx_->Objective(entry.path.demand(),
                           ctx_->ConnectivityFromTrace(*entry.trace_increment));
  }

  // Linearized objective of a kPrecomputed path.
  double EvaluateLinear(const CandidatePath& path) const {
    return ctx_->Objective(path.demand(),
                           ctx_->LinearConnectivityIncrement(path.edges()));
  }

  // LinearConnectivityIncrement of `parent` extended by `edge` at its end
  // (or begin), summed in the extended path's edge order so the bits equal
  // the built child's.
  double ExtendedLinearIncrement(const CandidatePath& parent, int edge,
                                 bool at_end) const {
    const std::vector<double>& delta = ctx_->increments();
    double total = 0.0;
    if (!at_end) total += delta[edge];
    for (int e : parent.edges()) total += delta[e];
    if (at_end) total += delta[edge];
    return total;
  }

  // Upper bound of a path state (Algorithm 1 lines 26/31; Section 6.2 for
  // the precomputed mode where the integrated bound is used directly).
  double UpperBound(const demand::BoundState& state) const {
    if (mode_ == SearchMode::kPrecomputed) return state.bound;
    return options_.w * state.bound / ctx_->d_max() +
           (1.0 - options_.w) * lambda_increment_bound_ / ctx_->lambda_max();
  }

  bool EdgeAllowed(int edge) const {
    return !options_.new_edges_only || ctx_->universe().edge(edge).is_new;
  }

  // True if a route of this shape and objective would replace the
  // incumbent: within the turn threshold and the edge budget, and better.
  bool BeatsIncumbent(int turns, int num_edges, double objective) const {
    return turns <= options_.max_turns && num_edges <= options_.k &&
           objective > best_objective_;
  }

  void SetIncumbent(CandidatePath path, double objective) {
    best_objective_ = objective;
    result_.found = true;
    result_.path = std::move(path);
    result_.objective = objective;
  }

  void MaybeUpdateBest(const CandidatePath& path, double objective) {
    if (BeatsIncumbent(path.turns(), path.num_edges(), objective)) {
      SetIncumbent(path, objective);
    }
  }

  // std::priority_queue::push (see eta.h), with the entry parked in
  // entries_ and only its slot in the heap.
  void Push(QueueEntry entry) {
    int ref;
    if (free_refs_.empty()) {
      ref = static_cast<int>(entries_.size());
      entries_.push_back(std::move(entry));
    } else {
      ref = free_refs_.back();
      free_refs_.pop_back();
      entries_[ref] = std::move(entry);
    }
    queue_.push_back({entries_[ref].upper_bound, ref});
    std::push_heap(queue_.begin(), queue_.end(), BoundLess);
  }

  // std::priority_queue::top + pop into `entry`; false if the queue is
  // empty. A seed becomes an entry here.
  bool Pop(QueueEntry* entry) {
    if (queue_.empty()) return false;
    std::pop_heap(queue_.begin(), queue_.end(), BoundLess);
    const QueueSlot slot = queue_.back();
    queue_.pop_back();
    if (slot.ref >= 0) {
      *entry = std::move(entries_[slot.ref]);
      free_refs_.push_back(slot.ref);
      return true;
    }
    const int edge = -slot.ref - 1;
    *entry = QueueEntry();
    entry->upper_bound = slot.upper_bound;
    entry->path = CandidatePath(ctx_->universe(), edge);
    entry->bound_state = bound_.SeedState(edge);
    return true;
  }

  // Initialization (Algorithm 1, lines 18-27): seed single-edge paths from
  // the integrated ranking (top-sn, or all edges for ETA-ALL). A seed is
  // linearly scored in both modes and enters the queue as its edge id; its
  // path is built on the pop (or here, if the seed becomes the incumbent).
  void Initialize() {
    const int seed_limit =
        options_.seed_all_edges
            ? objective_list_.size()
            : std::min(options_.seed_count, objective_list_.size());
    const std::vector<double>& delta = ctx_->increments();
    queue_.reserve(seed_limit);
    for (int rank = 0; rank < seed_limit; ++rank) {
      const int edge = objective_list_.EdgeAtRank(rank);
      if (!EdgeAllowed(edge)) continue;
      // EvaluateLinear of the one-edge path, bit for bit.
      const double objective = ctx_->Objective(
          ctx_->universe().edge(edge).demand, 0.0 + delta[edge]);
      if (BeatsIncumbent(/*turns=*/0, /*num_edges=*/1, objective)) {
        SetIncumbent(CandidatePath(ctx_->universe(), edge), objective);
      }
      const double upper_bound = UpperBound(bound_.SeedState(edge));
      if (upper_bound > best_objective_) {
        ++result_.seeds_pushed;
        queue_.push_back({upper_bound, -edge - 1});
        std::push_heap(queue_.begin(), queue_.end(), BoundLess);
      }
    }
  }

  // Feasible extensions of `path` at `at_stop`, restricted to allowed
  // edges, into extensions_.
  void FeasibleExtensions(const CandidatePath& path, int at_stop) {
    extensions_.clear();
    for (int e : ctx_->universe().IncidentEdges(at_stop)) {
      if (!EdgeAllowed(e)) continue;
      if (path.CanExtend(ctx_->universe(), e, at_stop)) {
        extensions_.push_back(e);
      }
    }
  }

  // A seed enters the queue linearly scored; kOnline computes its trace
  // increment (one local solve) on its first expansion.
  void EnsureTraceIncrement(QueueEntry* entry) {
    if (mode_ == SearchMode::kOnline && !entry->trace_increment) {
      entry->trace_increment =
          ctx_->TraceIncrement(entry->path.edges(), &result_.local_solves);
    }
  }

  // Extends `entry` at `at_stop` by the best feasible edge (line 10),
  // carrying its bound state and, in kOnline mode, its trace term. Returns
  // false if no edge is feasible.
  bool ExtendByBest(QueueEntry* entry, int at_stop) {
    double trace_term = 0.0;
    const int edge = BestExtension(*entry, at_stop, &trace_term);
    if (edge < 0) return false;
    entry->path.Extend(ctx_->universe(), ctx_->transit(), edge, at_stop);
    entry->bound_state = bound_.Append(entry->bound_state, edge);
    if (entry->trace_increment) *entry->trace_increment += trace_term;
    return true;
  }

  // Lines 7-16: pick the best beginning edge `be` and ending edge `ee` by
  // objective, extend both ends, evaluate, and re-enqueue.
  void ExpandBestNeighbor(QueueEntry entry) {
    EnsureTraceIncrement(&entry);
    // Best extension at the end (respecting the k-edge budget).
    bool extended = false;
    if (entry.path.num_edges() < options_.k) {
      extended = ExtendByBest(&entry, entry.path.end_stop());
    }
    // Best extension at the beginning (re-validated against the grown path).
    if (entry.path.num_edges() < options_.k) {
      extended = ExtendByBest(&entry, entry.path.begin_stop()) || extended;
    }
    if (!extended) return;  // dead end

    entry.objective = Evaluate(entry);  // Line 13
    MaybeUpdateBest(entry.path, entry.objective);
    FurtherExpansion(std::move(entry));
  }

  // ETA-AN: enqueue every feasible single-edge extension at both ends.
  //
  // Note the loop runs both ends for single-edge paths too. It used to
  // `break` after the end side on the claim that "both ends are
  // equivalent", which is unsound: edges are stored with a fixed
  // orientation (candidates have u < v), so a seed (m, v) only ever
  // end-extends at v — a 2-edge path whose edges share their *begin*
  // stop m (e.g. x–m–v with m the lower endpoint of both candidates) was
  // never generated from ANY seed, and since longer paths only grow from
  // these, such optima were unreachable outright. Expanding both ends
  // restores completeness at a cost: a 2-edge path reachable from both of
  // its seeds (end-extension of one, begin-extension of the other) is now
  // generated twice, with the duplicate pruned only after its evaluation.
  // Convergent rediscovery like this is pre-existing (seeds sharing their
  // upper endpoint already collided) and is exactly what the domination
  // table is for; the alternative — keeping only begin-extensions that no
  // end-extension can produce — would lose paths whose other edge is not
  // itself seeded.
  // See EtaAllNeighborsTest.ExpandsBeginSideOfSingleEdgeSeeds.
  void ExpandAllNeighbors(QueueEntry entry) {
    EnsureTraceIncrement(&entry);
    const int child_edges = entry.path.num_edges() + 1;
    for (const int at_stop :
         {entry.path.end_stop(), entry.path.begin_stop()}) {
      FeasibleExtensions(entry.path, at_stop);
      EvaluateExtensions(entry, at_stop);
      // Objectives never depend on the incumbent, so evaluating them up
      // front leaves best_objective_'s evolution (and therefore every
      // bound/domination decision) exactly as the classic
      // one-candidate-at-a-time loop had it.
      for (std::size_t i = 0; i < extensions_.size(); ++i) {
        const int edge = extensions_[i];
        const demand::BoundState bound_state =
            bound_.Append(entry.bound_state, edge);
        // A child that cannot beat the incumbent and cannot pass
        // FurtherExpansion's edge-budget and bound gates is one both
        // MaybeUpdateBest and FurtherExpansion drop: skip building it.
        const bool may_lead =
            child_edges <= options_.k && objectives_[i] > best_objective_;
        const bool may_grow = child_edges < options_.k &&
                              UpperBound(bound_state) > best_objective_;
        if (!may_lead && !may_grow) continue;
        QueueEntry child;
        child.path = entry.path;
        child.path.Extend(ctx_->universe(), ctx_->transit(), edge, at_stop);
        child.bound_state = bound_state;
        child.objective = objectives_[i];
        if (entry.trace_increment) {
          child.trace_increment = *entry.trace_increment + trace_terms_[i];
        }
        MaybeUpdateBest(child.path, child.objective);
        FurtherExpansion(std::move(child));
      }
    }
  }

  // Returns the feasible extension edge with the highest resulting
  // objective, or -1, and (kOnline) its trace term in `trace_term`. Ties go
  // to the earliest feasible candidate.
  int BestExtension(const QueueEntry& entry, int at_stop,
                    double* trace_term) {
    FeasibleExtensions(entry.path, at_stop);
    if (extensions_.empty()) return -1;
    if (mode_ == SearchMode::kPrecomputed) {
      // Section 6.2: rank neighbors directly by L_e.
      int best = 0;
      for (std::size_t i = 1; i < extensions_.size(); ++i) {
        if (objective_list_.ValueOf(extensions_[i]) >
            objective_list_.ValueOf(extensions_[best])) {
          best = static_cast<int>(i);
        }
      }
      return extensions_[best];
    }
    // Line 10: one local trace increment per neighbor.
    EvaluateExtensions(entry, at_stop);
    int best = 0;
    for (std::size_t i = 1; i < objectives_.size(); ++i) {
      if (objectives_[i] > objectives_[best]) best = static_cast<int>(i);
    }
    *trace_term = trace_terms_[best];
    return extensions_[best];
  }

  // Objectives of `entry`'s path extended by each edge of extensions_ at
  // `at_stop`, into objectives_. Each is scored from (parent, edge) without
  // building the child: demand is demand(P) + d(e), as Extend sums it.
  // kPrecomputed sums Delta over the child's edge order; kOnline scores
  // Objective(demand, ConnectivityFromTrace(Delta tr(P) + Delta tr(e | P)))
  // and writes the terms Delta tr(e | P) into trace_terms_.
  void EvaluateExtensions(const QueueEntry& entry, int at_stop) {
    const CandidatePath& parent = entry.path;
    const bool at_end = at_stop == parent.end_stop();
    const std::size_t n = extensions_.size();
    objectives_.resize(n);
    trace_terms_.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const int edge = extensions_[i];
      const double demand =
          parent.demand() + ctx_->universe().edge(edge).demand;
      if (mode_ == SearchMode::kPrecomputed) {
        objectives_[i] = ctx_->Objective(
            demand, ExtendedLinearIncrement(parent, edge, at_end));
      } else {
        trace_terms_[i] = ctx_->EdgeTraceIncrement(parent.edges(), edge,
                                                   &result_.local_solves);
        objectives_[i] = ctx_->Objective(
            demand, ctx_->ConnectivityFromTrace(*entry.trace_increment +
                                                trace_terms_[i]));
      }
    }
  }

  // Lines 28-34: feasibility gate, bound refresh, domination check, enqueue.
  void FurtherExpansion(QueueEntry entry) {
    if (entry.path.closed()) return;  // loops cannot grow further
    if (entry.path.turns() >= options_.max_turns) return;
    if (entry.path.num_edges() >= options_.k) return;
    entry.upper_bound = UpperBound(entry.bound_state);
    if (entry.upper_bound <= best_objective_) return;
    if (options_.use_domination_table &&
        !domination_.CheckAndUpdate(entry.path.begin_edge(),
                                    entry.path.end_edge(), entry.objective)) {
      return;
    }
    Push(std::move(entry));
  }

  // Re-evaluate the winner's connectivity from scratch (both modes report
  // the online increment, as the paper does for ETA-Pre's last point in
  // Figure 9), so the reported value is a pure function of (snapshot,
  // route), not of the order the search grew the route in.
  void FinalizeResult() {
    if (!result_.found) return;
    result_.demand = result_.path.demand();
    result_.connectivity_increment = ctx_->ConnectivityFromTrace(
        ctx_->TraceIncrement(result_.path.edges(), &result_.local_solves));
    result_.objective =
        ctx_->Objective(result_.demand, result_.connectivity_increment);
  }

  const PlanningContext* ctx_;
  SearchMode mode_;
  const CtBusOptions& options_;
  /// L_e, built for this search (BuildObjectiveList): the seed order and
  /// ETA-Pre's bound and neighbor ranking.
  const demand::RankedList objective_list_;
  demand::IncrementalDemandBound bound_;
  DominationTable domination_;
  /// The priority queue: a heap of slots over the parked entries, and the
  /// entries_ indices free for reuse.
  std::vector<QueueSlot> queue_;
  std::vector<QueueEntry> entries_;
  std::vector<int> free_refs_;
  /// Scratch of FeasibleExtensions / EvaluateExtensions, reused across
  /// expansions: the feasible edges at one end and their scores.
  std::vector<int> extensions_;
  std::vector<double> objectives_;
  std::vector<double> trace_terms_;
  PlanResult result_;
  double best_objective_ = 0.0;
  /// Lemma 4's connectivity term of UpperBound; only kOnline reads it.
  const double lambda_increment_bound_ =
      mode_ == SearchMode::kOnline
          ? ctx_->PathConnectivityIncrementBound(options_.k)
          : 0.0;
};

}  // namespace

PlanResult RunEta(const PlanningContext* context, SearchMode mode) {
  return EtaSearch(context, mode).Run();
}

}  // namespace ctbus::core
