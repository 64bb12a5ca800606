// Deterministic synthetic topology generators.
//
// The paper evaluates estimation on one 22-PoP backbone; scaling the
// engines past that needs families of backbones whose size is a dial.
// Every generator here is seed-reproducible: the same configuration
// and seed always produce the same graph (and hence, through the
// canonical `.ictp` writer, byte-identical files).  Randomness, where
// used at all, flows through stats::Rng in a fixed draw order.
//
// MakeRing lives in topologies.hpp (it predates this module); grid,
// hierarchy and Waxman live here.  All generated graphs are strongly
// connected by construction (and checked), so they can feed
// BuildRouting directly.
#pragma once

#include <cstdint>

#include "stats/rng.hpp"
#include "topology/graph.hpp"

namespace ictm::topology {

/// rows x cols mesh: node (r, c) is named "g<r>_<c>" and links
/// bidirectionally (weight 1) to its right and down neighbours.
/// Requires rows >= 1, cols >= 1 and at least 2 nodes total.
Graph MakeGrid(std::size_t rows, std::size_t cols);

/// Shape parameters of the access/aggregation/core hierarchy.
struct HierarchyConfig {
  /// Total node count (core + aggregation + access); >= 3.  The core
  /// ring holds max(3, min(10, nodes/10)) PoPs, up to 2 aggregation
  /// PoPs hang off each core PoP (dual-homed to consecutive core
  /// PoPs), and the remaining nodes are access PoPs dual-homed to
  /// consecutive aggregation PoPs — the star-of-rings shape of real
  /// PoP backbones.
  std::size_t nodes = 50;
  /// IGP weight of core ring/chord links.
  double coreWeight = 1.0;
  /// IGP weight of core-aggregation links.
  double aggWeight = 2.0;
  /// IGP weight of aggregation-access links.
  double accessWeight = 4.0;
  /// Capacity of core links.
  double coreCapacityBps = 100e9;
  /// Capacity of core-aggregation links.
  double aggCapacityBps = 10e9;
  /// Capacity of aggregation-access links.
  double accessCapacityBps = 2.5e9;
  /// Per-link multiplicative IGP-weight jitter: each link's weight is
  /// scaled by uniform(1 - jitter, 1 + jitter) drawn from the seed, so
  /// different seeds break routing ties differently.  0 disables
  /// jitter (the seed then has no effect).
  double weightJitter = 0.1;
};

/// Builds the hierarchical backbone described by `cfg`; deterministic
/// in (cfg, seed).  Node names are "c<i>" (core), "a<i>"
/// (aggregation) and "e<i>" (access/edge).
Graph MakeHierarchy(const HierarchyConfig& cfg, std::uint64_t seed = 0);

/// Shape parameters of the Waxman random graph.
struct WaxmanConfig {
  /// Node count; >= 2.  Nodes are placed uniformly in the unit square.
  std::size_t nodes = 50;
  /// Distance-decay scale: link probability is
  /// beta * exp(-d / (alpha * sqrt(2))).  Smaller alpha favours short
  /// links.
  double alpha = 0.15;
  /// Overall link density dial in (0, 1].
  double beta = 0.4;
};

/// Builds a Waxman random graph; deterministic in (cfg, seed).  Node
/// names are "w<i>"; link weights are 1 + euclidean distance, so IGP
/// routing prefers geographically short paths.  After the random pass
/// the components are joined by their closest node pairs, so the
/// result is always strongly connected.
Graph MakeWaxman(const WaxmanConfig& cfg, std::uint64_t seed = 0);

}  // namespace ictm::topology
