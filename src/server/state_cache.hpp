// Shared per-topology state for the estimation server.
//
// Opening a session costs far more than serving one bin: the topology
// must be materialised, the routing matrix R walked out column by
// column and the augmented [R; Q] operator copied from those columns.
// All of that is a pure function of (topology spec, generator seed),
// so N concurrent sessions on the same topology should pay it once.
//
// TopologyStateCache interns exactly that: acquire() returns a
// shared_ptr<const TopologyState> holding the routing matrix and the
// shared core::AugmentedTmSystem, read-only across every bin solver.
// The shared_ptr is the refcount; the cache keeps entries past their
// last user up to `capacity`, evicting the least-recently-acquired
// idle entry first.  Entries still referenced by a live session are
// never evicted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/estimation.hpp"
#include "linalg/sparse.hpp"

namespace ictm::server {

/// Everything expensive a session needs that depends only on the
/// topology: the routing matrix (it turns a BIN's truth into link
/// loads) and the augmented system, both in the one column-compressed
/// layout.  Immutable after construction; shared read-only.
struct TopologyState {
  std::string spec;          ///< the resolved topology spec
  std::uint64_t seed = 0;    ///< generator seed the spec was built with
  std::size_t nodes = 0;     ///< node count n
  linalg::CscMatrix routing;  ///< shortest-path routing, links x n²
  std::shared_ptr<const core::AugmentedTmSystem> system;  ///< [R; Q]
};

/// Interning cache of TopologyState keyed by (spec, seed), with LRU
/// eviction of idle entries.  Thread-safe.
class TopologyStateCache {
 public:
  /// Counters for observability and tests.
  struct Stats {
    std::size_t entries = 0;    ///< entries currently resident
    std::size_t hits = 0;       ///< acquire() calls served from cache
    std::size_t misses = 0;     ///< acquire() calls that built state
    std::size_t evictions = 0;  ///< idle entries dropped by LRU
  };

  /// `capacity` bounds resident entries; at least 1.
  explicit TopologyStateCache(std::size_t capacity = 4);

  /// Returns the shared state for (spec, seed), building it on first
  /// use.  Throws ictm::Error when the spec cannot be resolved.  The
  /// returned pointer keeps the entry pinned (never evicted while any
  /// caller holds it).
  std::shared_ptr<const TopologyState> acquire(const std::string& spec,
                                               std::uint64_t seed);

  /// Snapshot of the counters.
  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const TopologyState> state;
    std::uint64_t lastUse = 0;  ///< logical clock, not wall time
  };

  void evictIdleLocked();

  mutable std::mutex mutex_;
  std::map<std::pair<std::string, std::uint64_t>, Entry> entries_;
  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  Stats stats_;
};

}  // namespace ictm::server
