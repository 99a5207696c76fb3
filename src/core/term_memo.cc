#include "core/term_memo.h"

#include <algorithm>

namespace ctbus::core {

namespace {

std::uint64_t PackPair(int u, int v) {
  const int lo = std::min(u, v);
  const int hi = std::max(u, v);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(lo)) << 32) |
         static_cast<std::uint32_t>(hi);
}

}  // namespace

TermMemo::Key TermMemo::MakeKey(const std::vector<std::pair<int, int>>& staged,
                                int u, int v) {
  Key key;
  key.reserve(staged.size() + 1);
  for (const auto& [a, b] : staged) key.push_back(PackPair(a, b));
  std::sort(key.begin(), key.end());
  key.push_back(PackPair(u, v));
  return key;
}

std::size_t TermMemo::KeyHash::operator()(const Key& key) const {
  // SplitMix64's finalizer per word, folded in order.
  std::uint64_t h = key.size();
  for (std::uint64_t word : key) {
    std::uint64_t x = word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h ^= x ^ (x >> 31);
  }
  return static_cast<std::size_t>(h);
}

TermMemo& TermMemo::operator=(const TermMemo& other) {
  if (this != &other) {
    MutexLock lock(mu_);
    terms_.clear();
    pairs_ = 0;
  }
  return *this;
}

bool TermMemo::Find(const Key& key, double* value) const {
  MutexLock lock(mu_);
  const auto it = terms_.find(key);
  if (it == terms_.end()) return false;
  *value = it->second;
  return true;
}

void TermMemo::Insert(Key key, double value, std::size_t max_pairs) const {
  MutexLock lock(mu_);
  if (pairs_ + key.size() > max_pairs) return;  // full: stop inserting
  const std::size_t key_pairs = key.size();
  if (terms_.emplace(std::move(key), value).second) pairs_ += key_pairs;
}

std::size_t TermMemo::size() const {
  MutexLock lock(mu_);
  return terms_.size();
}

std::size_t TermMemo::pairs() const {
  MutexLock lock(mu_);
  return pairs_;
}

std::size_t TermMemo::CapacityBytes(std::size_t max_pairs) {
  // Per term: its node (key header, value, next pointer, cached hash), a
  // bucket pointer, and an allocator header for the node and for the key's
  // buffer. Per pair: its packed word.
  constexpr std::size_t kTermBytes = sizeof(std::pair<const Key, double>) +
                                     3 * sizeof(void*) +
                                     2 * 2 * sizeof(void*);
  return max_pairs * (kTermBytes + sizeof(std::uint64_t));
}

}  // namespace ctbus::core
