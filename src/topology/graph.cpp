#include "topology/graph.hpp"

#include <algorithm>
#include <limits>
#include <cmath>
#include <queue>

namespace ictm::topology {

NodeId Graph::addNode(std::string name) {
  names_.push_back(std::move(name));
  adjacency_.emplace_back();
  return names_.size() - 1;
}

LinkId Graph::addLink(NodeId src, NodeId dst, double igpWeight,
                      double capacityBps) {
  ICTM_REQUIRE(src < nodeCount() && dst < nodeCount(),
               "link endpoint does not exist");
  ICTM_REQUIRE(src != dst, "self-loop links are not allowed");
  ICTM_REQUIRE(igpWeight > 0.0, "IGP weight must be positive");
  ICTM_REQUIRE(capacityBps > 0.0, "capacity must be positive");
  links_.push_back(Link{src, dst, igpWeight, capacityBps});
  adjacency_[src].push_back(links_.size() - 1);
  return links_.size() - 1;
}

LinkId Graph::addBidirectionalLink(NodeId a, NodeId b, double igpWeight,
                                   double capacityBps) {
  const LinkId forward = addLink(a, b, igpWeight, capacityBps);
  addLink(b, a, igpWeight, capacityBps);
  return forward;
}

const std::string& Graph::nodeName(NodeId id) const {
  ICTM_REQUIRE(id < nodeCount(), "node id out of range");
  return names_[id];
}

NodeId Graph::nodeByName(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  ICTM_REQUIRE(it != names_.end(), "unknown node name: " + name);
  return static_cast<NodeId>(it - names_.begin());
}

const Link& Graph::link(LinkId id) const {
  ICTM_REQUIRE(id < linkCount(), "link id out of range");
  return links_[id];
}

const std::vector<LinkId>& Graph::outLinks(NodeId id) const {
  ICTM_REQUIRE(id < nodeCount(), "node id out of range");
  return adjacency_[id];
}

ShortestPaths ComputeShortestPaths(const Graph& g, NodeId source) {
  ICTM_REQUIRE(source < g.nodeCount(), "source node out of range");
  const double inf = std::numeric_limits<double>::infinity();
  ShortestPaths sp;
  sp.dist.assign(g.nodeCount(), inf);
  sp.predecessors.assign(g.nodeCount(), {});
  sp.dist[source] = 0.0;

  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  pq.emplace(0.0, source);
  constexpr double kTieTol = 1e-9;

  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > sp.dist[u] + kTieTol) continue;  // stale entry
    for (LinkId lid : g.outLinks(u)) {
      const Link& l = g.link(lid);
      const double nd = sp.dist[u] + l.igpWeight;
      if (nd < sp.dist[l.dst] - kTieTol) {
        sp.dist[l.dst] = nd;
        sp.predecessors[l.dst].clear();
        sp.predecessors[l.dst].push_back(lid);
        pq.emplace(nd, l.dst);
      } else if (std::abs(nd - sp.dist[l.dst]) <= kTieTol) {
        // Equal-cost path: record the extra predecessor link.
        auto& preds = sp.predecessors[l.dst];
        if (std::find(preds.begin(), preds.end(), lid) == preds.end()) {
          preds.push_back(lid);
        }
      }
    }
  }
  return sp;
}

namespace {

// Nodes reachable from node 0, following every link forwards or (with
// `reverse`) backwards: O(n + L).
std::size_t ReachableFromFirstNode(const Graph& g, bool reverse) {
  std::vector<std::vector<NodeId>> next(g.nodeCount());
  for (const Link& l : g.links()) {
    next[reverse ? l.dst : l.src].push_back(reverse ? l.src : l.dst);
  }
  std::vector<bool> seen(g.nodeCount(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (NodeId v : next[u]) {
      if (seen[v]) continue;
      seen[v] = true;
      ++reached;
      stack.push_back(v);
    }
  }
  return reached;
}

}  // namespace

bool IsStronglyConnected(const Graph& g) {
  // Strongly connected iff node 0 reaches every node and every node
  // reaches node 0.
  if (g.nodeCount() == 0) return true;
  return ReachableFromFirstNode(g, false) == g.nodeCount() &&
         ReachableFromFirstNode(g, true) == g.nodeCount();
}

}  // namespace ictm::topology
