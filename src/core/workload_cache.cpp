#include "core/workload_cache.hpp"

#include <cstdio>
#include <utility>

#include "netbase/routing_table.hpp"
#include "obs/timer.hpp"
#include "trie/flat_multibit_trie.hpp"
#include "trie/unibit_trie.hpp"
#include "virt/merged_trie.hpp"

namespace vr::core {

namespace {

// Defaults sized so every paper-profile regeneration fits cold (a full
// Figs. 4–8 run realizes well under a hundred MiB of workloads) while a
// long multi-scenario sweep still converges to a bounded resident set.
constexpr std::uint64_t kDefaultMaxResidentBytes =
    std::uint64_t{512} * 1024 * 1024;
constexpr std::size_t kDefaultMaxEntries = 4096;

void append_double(std::string* out, double value) {
  char buffer[48];
  // Hexfloat round-trips exactly; "%a" output is locale-independent.
  std::snprintf(buffer, sizeof buffer, "%a,", value);
  *out += buffer;
}

void append_size(std::string* out, std::uint64_t value) {
  *out += std::to_string(value);
  *out += ',';
}

}  // namespace

std::string WorkloadCache::key(const Scenario& scenario, bool keep_tables) {
  std::string key;
  key.reserve(160);
  append_size(&key, static_cast<std::uint64_t>(scenario.scheme));
  append_size(&key, scenario.vn_count);
  append_size(&key, scenario.stages);
  append_size(&key, scenario.seed);
  append_double(&key, scenario.alpha);
  append_size(&key, static_cast<std::uint64_t>(scenario.merged_source));
  append_size(&key, static_cast<std::uint64_t>(scenario.merged_rule));
  append_size(&key, scenario.leaf_push ? 1 : 0);
  append_double(&key, scenario.table_size_spread);
  append_size(&key, keep_tables ? 1 : 0);
  const net::TableProfile& profile = scenario.table_profile;
  append_size(&key, profile.prefix_count);
  append_size(&key, profile.provider_blocks);
  append_size(&key, profile.provider_block_length);
  append_size(&key, profile.min_length);
  append_size(&key, profile.density_span);
  append_double(&key, profile.nested_fraction);
  append_size(&key, profile.next_hop_count);
  for (const double weight : profile.length_weights) {
    append_double(&key, weight);
  }
  return key;
}

std::uint64_t WorkloadCache::approx_bytes(const Workload& workload) {
  std::uint64_t bytes = sizeof(Workload);
  const auto engine_bytes = [](const power::EngineSpec& engine) {
    return sizeof(power::EngineSpec) +
           engine.stage_bits.size() * sizeof(std::uint64_t);
  };
  bytes += engine_bytes(workload.per_vn_engine);
  bytes += engine_bytes(workload.merged_engine);
  for (const power::EngineSpec& engine : workload.heterogeneous_engines) {
    bytes += engine_bytes(engine);
  }
  for (const net::RoutingTable& table : workload.tables) {
    bytes += sizeof(net::RoutingTable) + table.size() * sizeof(net::Route);
  }
  for (const trie::UnibitTrie& trie : workload.tries) {
    // Node vector + level offsets.
    bytes += sizeof(trie::UnibitTrie) +
             trie.node_count() * sizeof(trie::TrieNode) +
             trie.level_offsets().size() * sizeof(std::size_t);
  }
  if (workload.merged_trie.has_value()) {
    // The lookup image: two entries per node, each a child index and K
    // next hops.
    const virt::MergedTrie& merged = *workload.merged_trie;
    bytes += merged.image()->entry_count() *
             (sizeof(trie::NodeIndex) +
              merged.vn_count() * sizeof(net::NextHop));
  }
  return bytes;
}

WorkloadCache::WorkloadCache(obs::Registry* registry, Builder builder)
    : builder_(std::move(builder)),
      max_resident_bytes_(kDefaultMaxResidentBytes),
      max_entries_(kDefaultMaxEntries) {
  if (registry != nullptr) {
    hits_ = &registry->counter("workload_cache.hits");
    misses_ = &registry->counter("workload_cache.misses");
    evictions_ = &registry->counter("workload_cache.evictions");
    build_ns_ = &registry->histogram("workload_cache.build_ns");
    resident_bytes_gauge_ = &registry->gauge("workload_cache.resident_bytes");
    entries_gauge_ = &registry->gauge("workload_cache.entries");
  } else {
    hits_ = &own_hits_;
    misses_ = &own_misses_;
    evictions_ = &own_evictions_;
    build_ns_ = &own_build_ns_;
    resident_bytes_gauge_ = &own_resident_bytes_gauge_;
    entries_gauge_ = &own_entries_gauge_;
  }
}

std::shared_ptr<const Workload> WorkloadCache::realize(
    const Scenario& scenario, bool keep_tables) {
  const std::string cache_key = key(scenario, keep_tables);
  std::promise<std::shared_ptr<const Workload>> promise;
  Entry entry;
  bool builder = false;
  std::uint64_t my_generation = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(cache_key);
    if (it != entries_.end()) {
      hits_->add(1);
      if (it->second.ready) {
        // Touch: most recently used entries evict last.
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      }
      entry = it->second.future;
    } else {
      misses_->add(1);
      entry = promise.get_future().share();
      Slot slot;
      slot.future = entry;
      slot.generation = my_generation = ++next_generation_;
      entries_.emplace(cache_key, std::move(slot));
      builder = true;
    }
  }
  if (!builder) return entry.get();
  try {
    std::shared_ptr<const Workload> workload;
    {
      const obs::ScopedTimer timer(*build_ns_);
      workload = builder_
                     ? builder_(scenario, keep_tables)
                     : std::make_shared<const Workload>(
                           realize_workload(scenario, keep_tables));
    }
    promise.set_value(workload);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      complete_locked(cache_key, my_generation, *workload);
    }
    return workload;
  } catch (...) {
    // Failed builds must not poison the cache permanently: propagate the
    // exception to every waiter of this entry, then drop it — but only if
    // the slot is still ours. clear() followed by a retry may have
    // re-installed the key for a fresh build; unconditionally erasing here
    // would tear down the retry's slot (poisoning its waiters' dedup and
    // corrupting the byte accounting once it completes).
    promise.set_exception(std::current_exception());
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = entries_.find(cache_key);
      if (it != entries_.end() && it->second.generation == my_generation) {
        entries_.erase(it);
      }
    }
    throw;
  }
}

void WorkloadCache::complete_locked(const std::string& cache_key,
                                    std::uint64_t generation,
                                    const Workload& workload) {
  const auto it = entries_.find(cache_key);
  if (it == entries_.end()) return;  // clear() raced the build
  // clear() + a re-request may have installed a fresh slot under this key
  // while our build was in flight; charging our bytes against the new
  // slot would double-count once the new build also completes.
  if (it->second.generation != generation || it->second.ready) return;
  it->second.ready = true;
  it->second.bytes = approx_bytes(workload);
  lru_.push_front(cache_key);
  it->second.lru_it = lru_.begin();
  resident_bytes_ += it->second.bytes;
  ++ready_entries_;
  enforce_budget_locked();
  resident_bytes_gauge_->set(static_cast<std::int64_t>(resident_bytes_));
  entries_gauge_->set(static_cast<std::int64_t>(ready_entries_));
}

void WorkloadCache::enforce_budget_locked() {
  while ((resident_bytes_ > max_resident_bytes_ ||
          ready_entries_ > max_entries_) &&
         !lru_.empty()) {
    const std::string& victim = lru_.back();
    const auto it = entries_.find(victim);
    if (it != entries_.end()) {
      resident_bytes_ -= it->second.bytes;
      --ready_entries_;
      entries_.erase(it);
    }
    lru_.pop_back();
    evictions_->add(1);
  }
}

WorkloadCache::Stats WorkloadCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.hits = hits_->value();
  stats.misses = misses_->value();
  stats.evictions = evictions_->value();
  stats.resident_bytes = resident_bytes_;
  stats.entries = ready_entries_;
  return stats;
}

void WorkloadCache::set_budget(std::uint64_t max_resident_bytes,
                               std::size_t max_entries) {
  const std::lock_guard<std::mutex> lock(mu_);
  max_resident_bytes_ = max_resident_bytes;
  max_entries_ = max_entries;
  enforce_budget_locked();
  resident_bytes_gauge_->set(static_cast<std::int64_t>(resident_bytes_));
  entries_gauge_->set(static_cast<std::int64_t>(ready_entries_));
}

std::uint64_t WorkloadCache::max_resident_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return max_resident_bytes_;
}

std::size_t WorkloadCache::max_entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return max_entries_;
}

void WorkloadCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  resident_bytes_ = 0;
  ready_entries_ = 0;
  hits_->reset();
  misses_->reset();
  evictions_->reset();
  build_ns_->reset();
  resident_bytes_gauge_->reset();
  entries_gauge_->reset();
}

WorkloadCache& WorkloadCache::global() {
  static WorkloadCache cache(&obs::Registry::global());
  return cache;
}

std::shared_ptr<const Workload> realize_workload_cached(
    const Scenario& scenario, bool keep_tables) {
  return WorkloadCache::global().realize(scenario, keep_tables);
}

}  // namespace vr::core
