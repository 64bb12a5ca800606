// Network topology: PoP-level graph with directed links and IGP weights.
//
// The TM-estimation experiments (paper Sec. 6) need a routing matrix R
// relating OD flows to link loads (Y = Rx); this module supplies the
// graph, shortest-path routing, and canned PoP-level topologies shaped
// like the networks in the paper's datasets.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"

/// Network topology: PoP-level graphs with IGP routing, the canned
/// paper backbones, synthetic generators, the `.ictp` file format and
/// the spec registry that resolves any of them by name.
namespace ictm::topology {

/// Node identifier (index into the graph's node table).
using NodeId = std::size_t;
/// Link identifier (index into the graph's link table).
using LinkId = std::size_t;

/// Builds a generator node name like "c12" via append — avoids the
/// `const char* + std::string&&` concatenation that GCC 12's -Wrestrict
/// mis-analyzes when inlined into hot loops (GCC bug 105329).
inline std::string IndexedName(char prefix, std::size_t index) {
  std::string name(1, prefix);
  name += std::to_string(index);
  return name;
}

/// A directed link with an IGP weight and capacity.
struct Link {
  NodeId src = 0;               ///< source node id
  NodeId dst = 0;               ///< destination node id
  double igpWeight = 1.0;       ///< IGP metric (> 0)
  double capacityBps = 10e9;    ///< capacity in bits per second
};

/// A PoP-level network graph.  Nodes are numbered 0..n-1 and carry
/// human-readable names; links are directed (bidirectional physical
/// links are added as two directed links).
class Graph {
 public:
  /// Constructs an empty graph.
  Graph() = default;

  /// Adds a node; returns its id.
  NodeId addNode(std::string name);

  /// Adds a directed link; endpoints must exist and weight must be > 0.
  LinkId addLink(NodeId src, NodeId dst, double igpWeight = 1.0,
                 double capacityBps = 10e9);

  /// Adds a pair of directed links (src->dst and dst->src) with the same
  /// weight/capacity; returns the id of the forward link (the reverse is
  /// the next id).
  LinkId addBidirectionalLink(NodeId a, NodeId b, double igpWeight = 1.0,
                              double capacityBps = 10e9);

  /// Number of nodes.
  std::size_t nodeCount() const noexcept { return names_.size(); }
  /// Number of directed links.
  std::size_t linkCount() const noexcept { return links_.size(); }

  /// Name of a node; throws when the id is out of range.
  const std::string& nodeName(NodeId id) const;
  /// Node id by exact name; throws when absent.
  NodeId nodeByName(const std::string& name) const;

  /// One link by id; throws when the id is out of range.
  const Link& link(LinkId id) const;
  /// All directed links in id order.
  const std::vector<Link>& links() const noexcept { return links_; }

  /// Outgoing link ids of a node.
  const std::vector<LinkId>& outLinks(NodeId id) const;

 private:
  std::vector<std::string> names_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> adjacency_;
};

/// Result of a single-source shortest-path computation.
struct ShortestPaths {
  /// dist[v]: shortest IGP distance from the source (infinity when
  /// unreachable).
  std::vector<double> dist;
  /// For each node, all incoming links on *some* shortest path
  /// (multiple entries when equal-cost paths exist).
  std::vector<std::vector<LinkId>> predecessors;
};

/// Dijkstra over IGP weights from `source`.
ShortestPaths ComputeShortestPaths(const Graph& g, NodeId source);

/// True when every node can reach every other node: one forward and
/// one reverse reachability sweep from node 0, O(n + L).
bool IsStronglyConnected(const Graph& g);

}  // namespace ictm::topology
