#include "server/state_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "topology/registry.hpp"
#include "topology/routing.hpp"

namespace ictm::server {

namespace {

// Registry mirrors of Stats (ISSUE 8 satellite): hit/miss/eviction
// counts are functions of the session workload (deterministic class);
// the resident-entry level is a gauge.
obs::Counter& CacheHits() {
  static obs::Counter& c = obs::GetCounter(
      "server.topo_cache.hits", obs::MetricClass::kDeterministic);
  return c;
}

obs::Counter& CacheMisses() {
  static obs::Counter& c = obs::GetCounter(
      "server.topo_cache.misses", obs::MetricClass::kDeterministic);
  return c;
}

obs::Counter& CacheEvictions() {
  static obs::Counter& c = obs::GetCounter(
      "server.topo_cache.evictions", obs::MetricClass::kDeterministic);
  return c;
}

obs::Gauge& CacheEntries() {
  static obs::Gauge& g = obs::GetGauge("server.topo_cache.entries",
                                       obs::MetricClass::kDeterministic);
  return g;
}

}  // namespace

TopologyStateCache::TopologyStateCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

std::shared_ptr<const TopologyState> TopologyStateCache::acquire(
    const std::string& spec, std::uint64_t seed) {
  const auto key = std::make_pair(spec, seed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.lastUse = ++clock_;
      ++stats_.hits;
      CacheHits().add();
      return it->second.state;
    }
  }

  // Build outside the lock: topology materialisation and operator
  // compression can take a while, and sibling sessions on *other*
  // topologies must not stall behind it.  Two racing builders of the
  // same key both succeed; the second insert loses and adopts the
  // first one's state, so callers still share.
  const topology::Graph g = topology::MakeTopology(spec, seed);
  auto state = std::make_shared<TopologyState>();
  state->spec = spec;
  state->seed = seed;
  state->nodes = g.nodeCount();
  state->routing = topology::BuildRouting(g);
  state->system = std::make_shared<core::AugmentedTmSystem>(
      state->routing, state->nodes, /*marginalConstraints=*/true);

  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = entries_.try_emplace(key);
  if (inserted) {
    it->second.state = std::move(state);
    ++stats_.misses;
    CacheMisses().add();
  } else {
    ++stats_.hits;
    CacheHits().add();
  }
  it->second.lastUse = ++clock_;
  // The caller's reference pins the new entry, so eviction picks an
  // idle one and never the entry (and iterator) being returned.
  std::shared_ptr<const TopologyState> acquired = it->second.state;
  evictIdleLocked();
  CacheEntries().set(static_cast<std::int64_t>(entries_.size()));
  return acquired;
}

TopologyStateCache::Stats TopologyStateCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.entries = entries_.size();
  return out;
}

void TopologyStateCache::evictIdleLocked() {
  while (entries_.size() > capacity_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.state.use_count() > 1) continue;  // pinned by a session
      if (victim == entries_.end() ||
          it->second.lastUse < victim->second.lastUse) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything pinned; over-stay
    entries_.erase(victim);
    ++stats_.evictions;
    CacheEvictions().add();
  }
}

}  // namespace ictm::server
