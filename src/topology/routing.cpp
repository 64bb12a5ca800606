#include "topology/routing.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace ictm::topology {

linalg::CsrMatrix BuildRoutingCsr(const Graph& g) {
  const std::size_t n = g.nodeCount();
  ICTM_REQUIRE(n > 0, "routing matrix of empty graph");
  const std::vector<Link>& links = g.links();

  // Column-major buffer: column src*n + dst holds the pair's links in
  // ascending id.
  std::vector<std::size_t> colPtr(n * n + 1, 0);
  std::vector<std::size_t> colRows;
  std::vector<double> colValues;
  colRows.reserve(4 * n * n);  // a few links per OD pair
  colValues.reserve(4 * n * n);

  std::vector<NodeId> order(n);
  std::vector<std::size_t> rank(n);      // position of a node in `order`
  std::vector<std::size_t> stamp(n, 0);  // DFS epoch that reached a node
  std::vector<double> nodeMass(n, 0.0);
  std::vector<NodeId> dag, stack;
  std::vector<std::pair<LinkId, double>> touched;
  std::size_t epoch = 0;
  for (NodeId src = 0; src < n; ++src) {
    const ShortestPaths sp = ComputeShortestPaths(g, src);
    // Nodes by decreasing distance, so each node's mass is final before
    // it is pushed upstream.  One sort per source: std::sort on the same
    // input gives every destination the same tie order.
    for (NodeId v = 0; v < n; ++v) {
      ICTM_REQUIRE(std::isfinite(sp.dist[v]),
                   "graph must be strongly connected for routing");
      order[v] = v;
    }
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return sp.dist[a] > sp.dist[b];
    });
    for (std::size_t k = 0; k < n; ++k) rank[order[k]] = k;

    for (NodeId dst = 0; dst < n; ++dst) {
      // Intra-PoP traffic (src == dst) uses no backbone link.
      if (src != dst) {
        // The pair's shortest-path DAG: dst and every node that reaches
        // it through predecessor links, visited in the source's order.
        ++epoch;
        dag.clear();
        stack.assign(1, dst);
        stamp[dst] = epoch;
        while (!stack.empty()) {
          const NodeId v = stack.back();
          stack.pop_back();
          dag.push_back(v);
          if (v == src) continue;
          for (LinkId lid : sp.predecessors[v]) {
            const NodeId u = links[lid].src;
            if (stamp[u] != epoch) {
              stamp[u] = epoch;
              stack.push_back(u);
            }
          }
        }
        std::sort(dag.begin(), dag.end(),
                  [&](NodeId a, NodeId b) { return rank[a] < rank[b]; });

        // Walk back from dst, splitting each node's unit of traffic
        // evenly across its predecessor links (ECMP).
        touched.clear();
        nodeMass[dst] = 1.0;
        for (NodeId v : dag) {
          if (v == src || nodeMass[v] <= 0.0) continue;
          // Every node but the source has a predecessor: all are reachable.
          const auto& preds = sp.predecessors[v];
          const double share = nodeMass[v] / static_cast<double>(preds.size());
          for (LinkId lid : preds) {
            touched.emplace_back(lid, share);
            nodeMass[links[lid].src] += share;
          }
        }
        for (NodeId v : dag) nodeMass[v] = 0.0;
        std::sort(touched.begin(), touched.end());  // link ids are unique
        for (const auto& [lid, share] : touched) {
          colRows.push_back(lid);
          colValues.push_back(share);
        }
      }
      colPtr[src * n + dst + 1] = colRows.size();
    }
  }

  // Counting-sort transpose into rows: columns are scattered in
  // ascending order, so each row's column indices come out sorted.
  std::vector<std::size_t> rowPtr(links.size() + 1, 0);
  for (std::size_t r : colRows) ++rowPtr[r + 1];
  for (std::size_t r = 0; r < links.size(); ++r) rowPtr[r + 1] += rowPtr[r];
  std::vector<std::size_t> colIdx(colRows.size());
  std::vector<double> values(colRows.size());
  std::vector<std::size_t> next(rowPtr.begin(), rowPtr.end() - 1);
  for (std::size_t c = 0; c < n * n; ++c) {
    for (std::size_t k = colPtr[c]; k < colPtr[c + 1]; ++k) {
      const std::size_t slot = next[colRows[k]]++;
      colIdx[slot] = c;
      values[slot] = colValues[k];
    }
  }
  return linalg::CsrMatrix(links.size(), n * n, std::move(rowPtr),
                           std::move(colIdx), std::move(values));
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
