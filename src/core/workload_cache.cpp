#include "core/workload_cache.hpp"

#include <cstdio>
#include <utility>

#include "obs/timer.hpp"

namespace vr::core {

namespace {

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
  append_size(&key, profile.min_length);
  append_size(&key, profile.density_span);
  append_size(&key, profile.next_hop_count);
  for (const double weight : profile.length_weights) {
    append_double(&key, weight);
  }
  return key;
}

WorkloadCache::WorkloadCache(obs::Registry* registry, Builder builder)
    : builder_(std::move(builder)) {
  if (registry != nullptr) {
    hits_ = &registry->counter("workload_cache.hits");
    misses_ = &registry->counter("workload_cache.misses");
    build_ns_ = &registry->histogram("workload_cache.build_ns");
    entries_gauge_ = &registry->gauge("workload_cache.entries");
  } else {
    hits_ = &own_hits_;
    misses_ = &own_misses_;
    build_ns_ = &own_build_ns_;
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
      // clear() may have dropped the slot, or dropped it and installed a
      // fresh build under the same key, while this build was in flight;
      // only the build that owns the slot marks it resident.
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = entries_.find(cache_key);
      if (it != entries_.end() && it->second.generation == my_generation) {
        ++ready_entries_;
        entries_gauge_->set(static_cast<std::int64_t>(ready_entries_));
      }
    }
    return workload;
  } catch (...) {
    // Failed builds must not poison the cache permanently: propagate the
    // exception to every waiter of this entry, then drop it — but only if
    // the slot is still ours. clear() followed by a retry may have
    // re-installed the key for a fresh build; unconditionally erasing here
    // would tear down the retry's slot (poisoning its waiters' dedup and
    // losing its entry once it completes).
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

WorkloadCache::Stats WorkloadCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.hits = hits_->value();
  stats.misses = misses_->value();
  stats.entries = ready_entries_;
  return stats;
}

void WorkloadCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  ready_entries_ = 0;
  hits_->reset();
  misses_->reset();
  build_ns_->reset();
  entries_gauge_->reset();
}

WorkloadCache& WorkloadCache::global() {
  static WorkloadCache cache(&obs::Registry::global());
  return cache;
}

}  // namespace vr::core
