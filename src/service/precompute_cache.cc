#include "service/precompute_cache.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

namespace ctbus::service {

bool PrecomputeKey::operator==(const PrecomputeKey& other) const {
  return dataset == other.dataset &&
         snapshot_version == other.snapshot_version &&
         provenance == other.provenance;
}

PrecomputeKey MakePrecomputeKey(const std::string& dataset,
                                std::uint64_t snapshot_version,
                                const core::CtBusOptions& options) {
  return {dataset, snapshot_version, io::MakeProvenance(options)};
}

std::size_t PrecomputeKeyHash::operator()(const PrecomputeKey& key) const {
  auto mix = [](std::size_t h, std::size_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  };
  std::size_t h = std::hash<std::string>()(key.dataset);
  h = mix(h, std::hash<std::uint64_t>()(key.snapshot_version));
  h = mix(h, std::hash<double>()(key.provenance.tau));
  h = mix(h, static_cast<std::size_t>(key.provenance.probes));
  h = mix(h, static_cast<std::size_t>(key.provenance.lanczos_steps));
  h = mix(h, std::hash<std::uint64_t>()(key.provenance.seed));
  return h;
}

PrecomputeCache::PrecomputeCache(std::size_t capacity, std::size_t max_bytes,
                                 std::string spill_dir)
    : capacity_(capacity),
      max_bytes_(max_bytes),
      spill_dir_(std::move(spill_dir)) {
  if (!spill_dir_.empty()) {
    // Best effort: if the directory cannot be created, every save/load
    // simply fails, which the spill path already treats as a miss.
    std::error_code ec;
    std::filesystem::create_directories(spill_dir_, ec);
  }
}

PrecomputeCache::~PrecomputeCache() {
  if (spill_dir_.empty()) return;
  {
    core::MutexLock lock(mu_);
    for (const auto& [key, entry] : entries_) {
      if (!entry.ready) continue;
      pending_spills_.push_back({key, entry.fingerprint, entry.future.get()});
    }
  }
  DrainPendingSpills();
}

std::string PrecomputeCache::SpillPath(const PrecomputeKey& key) const {
  const std::uint64_t hash = io::StableSpillHash(
      key.dataset, key.snapshot_version, key.provenance);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return spill_dir_ + "/ctbus-precompute-" + hex + ".ctbs";
}

PrecomputeCache::PrecomputePtr PrecomputeCache::TryLoadSpill(
    const PrecomputeKey& key, std::uint64_t fingerprint) const {
  auto entry = io::LoadPrecomputeCacheEntry(SpillPath(key));
  if (!entry.has_value()) return nullptr;  // absent/corrupt/stale = miss
  if (entry->dataset != key.dataset ||
      entry->snapshot_version != key.snapshot_version ||
      !(entry->provenance == key.provenance)) {
    return nullptr;  // filename collision or foreign file: wrong key = miss
  }
  if (fingerprint != 0 && entry->network_fingerprint != fingerprint) {
    // Same version number over different network bytes — version counters
    // restart at 1 on every process start, so content is the tiebreaker.
    // An unrecorded (0) fingerprint proves nothing, so it is a miss too.
    return nullptr;
  }
  return std::make_shared<const core::Precompute>(
      std::move(entry->precompute));
}

void PrecomputeCache::DrainPendingSpills() {
  std::vector<PendingSpill> pending;
  {
    core::MutexLock lock(mu_);
    pending.swap(pending_spills_);
  }
  if (pending.empty()) return;
  std::uint64_t saved = 0;
  for (const PendingSpill& spill : pending) {
    io::PrecomputeCacheEntry entry;
    entry.dataset = spill.key.dataset;
    entry.snapshot_version = spill.key.snapshot_version;
    entry.network_fingerprint = spill.fingerprint;
    entry.provenance = spill.key.provenance;
    entry.precompute = *spill.value;
    if (io::SavePrecomputeCacheEntry(entry, SpillPath(spill.key))) ++saved;
  }
  if (saved > 0) {
    core::MutexLock lock(mu_);
    stats_.spill_saves += saved;
  }
}

PrecomputeCache::PrecomputePtr PrecomputeCache::GetOrCompute(
    const PrecomputeKey& key, const ComputeFn& compute, bool* was_hit,
    const FingerprintFn& network_fingerprint) {
  if (capacity_ == 0) {
    {
      core::MutexLock lock(mu_);
      ++stats_.misses;
    }
    if (was_hit != nullptr) *was_hit = false;
    return std::make_shared<const core::Precompute>(compute());
  }

  std::promise<PrecomputePtr> promise;
  std::uint64_t generation = 0;
  {
    core::MutexLock lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      std::shared_future<PrecomputePtr> future = it->second.future;
      lock.Unlock();
      if (was_hit != nullptr) *was_hit = true;
      return future.get();  // ready, or being computed by another caller
    }
    ++stats_.misses;
    generation = next_generation_++;
    lru_.push_front(key);
    entries_.emplace(key, Entry{promise.get_future().share(), lru_.begin(),
                                /*ready=*/false, generation});
    EvictReadyLocked();
  }
  DrainPendingSpills();

  // Miss. With spill enabled, try the disk first: a valid spill file
  // answers without running the compute function at all, which makes it a
  // *hit* for the caller (the same Delta(e) table the in-memory cache
  // would have served, just one restart later). The fingerprint is only
  // evaluated here — never on the hit path.
  const std::uint64_t fingerprint =
      (!spill_dir_.empty() && network_fingerprint) ? network_fingerprint()
                                                   : 0;
  if (!spill_dir_.empty()) {
    if (PrecomputePtr loaded = TryLoadSpill(key, fingerprint)) {
      promise.set_value(loaded);
      {
        core::MutexLock lock(mu_);
        const auto it = entries_.find(key);
        if (it != entries_.end() && it->second.generation == generation) {
          it->second.ready = true;
          it->second.bytes = loaded->ApproxBytes();
          it->second.fingerprint = fingerprint;
          resident_bytes_ += it->second.bytes;
          ++stats_.spill_loads;
          EvictReadyLocked();
        }
      }
      DrainPendingSpills();
      if (was_hit != nullptr) *was_hit = true;
      return loaded;
    }
  }

  if (was_hit != nullptr) *was_hit = false;
  try {
    PrecomputePtr result =
        std::make_shared<const core::Precompute>(compute());
    promise.set_value(result);
    {
      core::MutexLock lock(mu_);
      const auto it = entries_.find(key);
      if (it != entries_.end() && it->second.generation == generation) {
        it->second.ready = true;
        it->second.bytes = result->ApproxBytes();
        it->second.fingerprint = fingerprint;
        resident_bytes_ += it->second.bytes;
        EvictReadyLocked();  // limits may have been exceeded while in flight
      }
    }
    DrainPendingSpills();
    return result;
  } catch (...) {
    promise.set_exception(std::current_exception());
    core::MutexLock lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end() && it->second.generation == generation) {
      lru_.erase(it->second.lru_it);
      entries_.erase(it);
    }
    throw;
  }
}

void PrecomputeCache::EvictReadyLocked() {
  std::size_t resident = entries_.size();
  // The walk stops at lru_.begin(): the MRU entry is never evicted, so a
  // single entry larger than the whole byte budget is still admitted and
  // serves hits until the next insertion displaces it from the MRU slot.
  const auto over_limit = [&] {
    return resident > capacity_ ||
           (max_bytes_ > 0 && resident_bytes_ > max_bytes_);
  };
  auto candidate = lru_.end();
  while (over_limit() && candidate != lru_.begin()) {
    --candidate;  // walk tail -> head, skipping in-flight entries
    if (candidate == lru_.begin()) break;  // reached the MRU entry
    const auto it = entries_.find(*candidate);
    if (it == entries_.end() || !it->second.ready) continue;
    resident_bytes_ -= it->second.bytes;
    stats_.evicted_bytes += it->second.bytes;
    if (!spill_dir_.empty()) {
      // Save on evict: queue the value here (future.get() on a ready
      // entry never blocks); the file write happens after mu_ is
      // released, in DrainPendingSpills.
      pending_spills_.push_back(
          {it->first, it->second.fingerprint, it->second.future.get()});
    }
    entries_.erase(it);
    candidate = lru_.erase(candidate);
    ++stats_.evictions;
    --resident;
  }
}

std::vector<std::pair<std::uint64_t, PrecomputeCache::PrecomputePtr>>
PrecomputeCache::ReadySiblings(const PrecomputeKey& key) const {
  std::vector<std::pair<std::uint64_t, PrecomputePtr>> siblings;
  {
    core::MutexLock lock(mu_);
    for (const auto& [resident_key, entry] : entries_) {
      if (!entry.ready) continue;
      if (resident_key.snapshot_version == key.snapshot_version) continue;
      PrecomputeKey probe = resident_key;
      probe.snapshot_version = key.snapshot_version;
      if (!(probe == key)) continue;
      siblings.emplace_back(resident_key.snapshot_version,
                            entry.future.get());
    }
  }
  std::sort(siblings.begin(), siblings.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return siblings;
}

bool PrecomputeCache::Contains(const PrecomputeKey& key) const {
  core::MutexLock lock(mu_);
  return entries_.count(key) > 0;
}

PrecomputeCache::PrecomputePtr PrecomputeCache::Peek(
    const PrecomputeKey& key) const {
  core::MutexLock lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end() || !it->second.ready) return nullptr;
  return it->second.future.get();  // ready => never blocks
}

std::vector<PrecomputeKey> PrecomputeCache::KeysByRecency() const {
  core::MutexLock lock(mu_);
  return {lru_.begin(), lru_.end()};
}

void PrecomputeCache::Clear() {
  core::MutexLock lock(mu_);
  entries_.clear();
  lru_.clear();
  resident_bytes_ = 0;
  // Clear drops state, it does not persist it: queued spills die with the
  // entries (an explicit Clear means "forget", including on disk-bound
  // copies not yet written).
  pending_spills_.clear();
}

std::size_t PrecomputeCache::size() const {
  core::MutexLock lock(mu_);
  return entries_.size();
}

std::size_t PrecomputeCache::resident_bytes() const {
  core::MutexLock lock(mu_);
  return resident_bytes_;
}

PrecomputeCache::Stats PrecomputeCache::stats() const {
  core::MutexLock lock(mu_);
  Stats stats = stats_;
  stats.resident_bytes = resident_bytes_;
  return stats;
}

}  // namespace ctbus::service
