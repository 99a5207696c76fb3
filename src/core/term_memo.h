// A bounded, insert-only memo of staged local trace increments
// Delta tr(e | S) = connectivity::LocalTraceIncrement(A, S, u, v) over one
// snapshot's adjacency A. Every planner asks the same few terms again and
// again on one network: online ETA's frontier (and ETA-AN's) scores each
// candidate against the path it extends, and every FinalizeResult
// telescopes its route. core::Precompute holds one memo beside its Delta(e)
// table (the S = {} terms), so all requests over one precompute share it
// and each distinct term is solved once per snapshot.
//
// The memo stores only what LocalTraceIncrement returned for the key, so
// a read is bit-identical to a fresh solve: it changes how long a request
// takes, never what it returns. Its one piece of history is which terms
// were solved before (PlanResult::memo_hits counts the reads).
#ifndef CTBUS_CORE_TERM_MEMO_H_
#define CTBUS_CORE_TERM_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace ctbus::core {

class TermMemo {
 public:
  /// A term's key: the staged stop pairs, each packed as (min, max) and
  /// sorted, then the candidate pair packed as (min, max). The kernel reads
  /// S only as a set of unordered pairs and is symmetric in (u, v)
  /// (connectivity_local_increment_test pins both), so two calls with one
  /// key return the same bits.
  using Key = std::vector<std::uint64_t>;
  static Key MakeKey(const std::vector<std::pair<int, int>>& staged, int u,
                     int v);

  TermMemo() = default;
  /// A copy starts empty, and an assigned-to memo is emptied: a memo
  /// belongs to the one Precompute object whose tables it was filled
  /// against, so copying tables never carries (or keeps) terms across.
  TermMemo(const TermMemo& /*other*/) {}
  TermMemo& operator=(const TermMemo& other) CTBUS_EXCLUDES(mu_);

  /// True, with `*value` set, if the memo holds `key`.
  bool Find(const Key& key, double* value) const CTBUS_EXCLUDES(mu_);

  /// Stores `value` under `key` unless the memo holds the key already or
  /// its keys would then hold more than `max_pairs` stop pairs in all.
  /// Never evicts. Logically const: it changes no answer.
  void Insert(Key key, double value, std::size_t max_pairs) const
      CTBUS_EXCLUDES(mu_);

  /// Terms held.
  std::size_t size() const CTBUS_EXCLUDES(mu_);
  /// Stop pairs held by the keys (the quantity the cap bounds).
  std::size_t pairs() const CTBUS_EXCLUDES(mu_);

  /// Upper bound on the resident bytes of a memo holding at most
  /// `max_pairs` stop pairs: every key holds at least one pair, so it
  /// holds at most `max_pairs` terms, and each pair and term is charged
  /// its worst-case share of the hash table.
  static std::size_t CapacityBytes(std::size_t max_pairs);

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  mutable Mutex mu_;
  mutable std::unordered_map<Key, double, KeyHash> terms_
      CTBUS_GUARDED_BY(mu_);
  mutable std::size_t pairs_ CTBUS_GUARDED_BY(mu_) = 0;
};

}  // namespace ctbus::core

#endif  // CTBUS_CORE_TERM_MEMO_H_
