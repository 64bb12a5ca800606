#include "topology/routing.hpp"

#include <algorithm>
#include <cmath>

namespace ictm::topology {

namespace {

// Computes, for a fixed destination-tree rooted at `source`, the
// fraction of (source -> v) traffic on every link, assuming even ECMP
// splitting at every branch point.  `sp` is the shortest-path result
// from `source`.
void AccumulateFractions(const Graph& g, const ShortestPaths& sp,
                         NodeId source, NodeId target,
                         std::vector<double>& linkFraction) {
  // Walk backwards from target to source, distributing the unit of
  // traffic across predecessor links proportionally.  We process nodes
  // in order of decreasing distance so each node's mass is final before
  // we push it upstream.
  std::vector<double> nodeMass(g.nodeCount(), 0.0);
  nodeMass[target] = 1.0;

  std::vector<NodeId> order;
  order.reserve(g.nodeCount());
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    if (std::isfinite(sp.dist[v])) order.push_back(v);
  }
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return sp.dist[a] > sp.dist[b];
  });

  for (NodeId v : order) {
    if (v == source || nodeMass[v] <= 0.0) continue;
    const auto& preds = sp.predecessors[v];
    ICTM_REQUIRE(!preds.empty(), "unreachable node in routing tree");
    const double share = nodeMass[v] / static_cast<double>(preds.size());
    for (LinkId lid : preds) {
      linkFraction[lid] += share;
      nodeMass[g.link(lid).src] += share;
    }
  }
}

}  // namespace

linalg::CsrMatrix BuildRoutingCsr(const Graph& g) {
  const std::size_t n = g.nodeCount();
  ICTM_REQUIRE(n > 0, "routing matrix of empty graph");
  ICTM_REQUIRE(IsStronglyConnected(g),
               "graph must be strongly connected for routing");
  std::vector<linalg::Triplet> entries;
  entries.reserve(4 * n * n);  // a few links per OD pair

  std::vector<double> linkFraction(g.linkCount(), 0.0);
  for (NodeId src = 0; src < n; ++src) {
    const ShortestPaths sp = ComputeShortestPaths(g, src);
    for (NodeId dst = 0; dst < n; ++dst) {
      if (src == dst) continue;  // intra-PoP traffic uses no backbone link
      std::fill(linkFraction.begin(), linkFraction.end(), 0.0);
      AccumulateFractions(g, sp, src, dst, linkFraction);
      const std::size_t col = src * n + dst;
      for (LinkId lid = 0; lid < g.linkCount(); ++lid) {
        if (linkFraction[lid] != 0.0) {
          entries.push_back({lid, col, linkFraction[lid]});
        }
      }
    }
  }
  return linalg::CsrMatrix::FromTriplets(g.linkCount(), n * n,
                                         std::move(entries));
}

linalg::Vector ComputeLinkLoads(const linalg::CsrMatrix& routing,
                                const linalg::Matrix& tm) {
  ICTM_REQUIRE(tm.rows() == tm.cols(), "TM must be square");
  ICTM_REQUIRE(routing.cols() == tm.rows() * tm.cols(),
               "routing matrix column mismatch");
  // Matrix storage is row-major, so tm.data() already is FlattenTm(tm).
  linalg::Vector y(routing.rows(), 0.0);
  routing.MultiplyInto(tm.data().data(), y.data());
  return y;
}

linalg::Vector FlattenTm(const linalg::Matrix& tm) {
  ICTM_REQUIRE(tm.rows() == tm.cols(), "TM must be square");
  const std::size_t n = tm.rows();
  linalg::Vector x(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) x[i * n + j] = tm(i, j);
  return x;
}

linalg::Matrix UnflattenTm(const linalg::Vector& x, std::size_t n) {
  ICTM_REQUIRE(x.size() == n * n, "vector length is not n^2");
  linalg::Matrix tm(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) tm(i, j) = x[i * n + j];
  return tm;
}

}  // namespace ictm::topology
