// Tests for the graph, shortest paths, routing matrices and canned
// topologies.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/rng.hpp"
#include "topology/graph.hpp"
#include "topology/registry.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"
#include "test_util.hpp"

namespace ictm::topology {
namespace {

Graph Triangle() {
  Graph g;
  g.addNode("a");
  g.addNode("b");
  g.addNode("c");
  g.addBidirectionalLink(0, 1, 1.0);
  g.addBidirectionalLink(1, 2, 1.0);
  g.addBidirectionalLink(0, 2, 3.0);  // expensive direct path
  return g;
}

TEST(Graph, AddNodesAndLinks) {
  Graph g;
  const NodeId a = g.addNode("a");
  const NodeId b = g.addNode("b");
  EXPECT_EQ(g.nodeCount(), 2u);
  const LinkId l = g.addLink(a, b, 2.0, 1e9);
  EXPECT_EQ(g.linkCount(), 1u);
  EXPECT_EQ(g.link(l).src, a);
  EXPECT_EQ(g.link(l).dst, b);
  EXPECT_DOUBLE_EQ(g.link(l).igpWeight, 2.0);
  EXPECT_EQ(g.nodeByName("b"), b);
  EXPECT_THROW(g.nodeByName("zz"), ictm::Error);
  EXPECT_THROW(g.addLink(a, a), ictm::Error);
  EXPECT_THROW(g.addLink(a, 7), ictm::Error);
  EXPECT_THROW(g.addLink(a, b, -1.0), ictm::Error);
}

TEST(Graph, BidirectionalAddsTwoLinks) {
  Graph g;
  g.addNode("a");
  g.addNode("b");
  const LinkId fwd = g.addBidirectionalLink(0, 1, 1.5);
  EXPECT_EQ(g.linkCount(), 2u);
  EXPECT_EQ(g.link(fwd).src, 0u);
  EXPECT_EQ(g.link(fwd + 1).src, 1u);
}

TEST(ShortestPathsTest, PrefersCheaperTwoHopPath) {
  const Graph g = Triangle();
  const ShortestPaths sp = ComputeShortestPaths(g, 0);
  EXPECT_DOUBLE_EQ(sp.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(sp.dist[1], 1.0);
  // a->c direct costs 3; a->b->c costs 2.
  EXPECT_DOUBLE_EQ(sp.dist[2], 2.0);
  ASSERT_EQ(sp.predecessors[2].size(), 1u);
  EXPECT_EQ(g.link(sp.predecessors[2][0]).src, 1u);
}

TEST(ShortestPathsTest, RecordsEqualCostPredecessors) {
  // Square: two equal paths from 0 to 2.
  Graph g;
  for (std::size_t i = 0; i < 4; ++i) g.addNode(IndexedName('n', i));
  g.addBidirectionalLink(0, 1, 1.0);
  g.addBidirectionalLink(1, 2, 1.0);
  g.addBidirectionalLink(0, 3, 1.0);
  g.addBidirectionalLink(3, 2, 1.0);
  const ShortestPaths sp = ComputeShortestPaths(g, 0);
  EXPECT_DOUBLE_EQ(sp.dist[2], 2.0);
  EXPECT_EQ(sp.predecessors[2].size(), 2u);
}

TEST(ShortestPathsTest, UnreachableIsInfinite) {
  Graph g;
  g.addNode("a");
  g.addNode("b");
  g.addLink(0, 1);  // one-way only
  const ShortestPaths sp = ComputeShortestPaths(g, 1);
  EXPECT_FALSE(std::isfinite(sp.dist[0]));
  EXPECT_FALSE(IsStronglyConnected(g));
}

TEST(RoutingMatrix, SingleLinkNetwork) {
  Graph g;
  g.addNode("a");
  g.addNode("b");
  g.addBidirectionalLink(0, 1, 1.0);
  const linalg::Matrix r = BuildRoutingCsr(g).ToDense();
  ASSERT_EQ(r.rows(), 2u);
  ASSERT_EQ(r.cols(), 4u);
  // OD (0,1) = column 1 rides link 0; OD (1,0) = column 2 rides link 1.
  EXPECT_DOUBLE_EQ(r(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(r(1, 2), 1.0);
  // Diagonal OD pairs use no link.
  EXPECT_DOUBLE_EQ(r(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r(1, 3), 0.0);
}

TEST(RoutingMatrix, EcmpSplitsEvenly) {
  // Square topology: flow 0->2 splits 50/50 across the two paths.
  Graph g;
  for (std::size_t i = 0; i < 4; ++i) g.addNode(IndexedName('n', i));
  g.addBidirectionalLink(0, 1, 1.0);
  g.addBidirectionalLink(1, 2, 1.0);
  g.addBidirectionalLink(0, 3, 1.0);
  g.addBidirectionalLink(3, 2, 1.0);
  const linalg::Matrix r = BuildRoutingCsr(g).ToDense();
  const std::size_t col = 0 * 4 + 2;
  double onLinks = 0.0;
  double maxFrac = 0.0;
  for (std::size_t l = 0; l < g.linkCount(); ++l) {
    onLinks += r(l, col);
    maxFrac = std::max(maxFrac, r(l, col));
  }
  // Two links per path, two paths, each carrying 1/2 => total 2.0.
  EXPECT_NEAR(onLinks, 2.0, 1e-9);
  EXPECT_NEAR(maxFrac, 0.5, 1e-9);
}

TEST(RoutingMatrix, FlowConservationOnRandomTm) {
  // Per OD pair, the flow leaving the origin equals 1 and the flow
  // arriving at the destination equals 1 (fractions sum correctly).
  const Graph g = MakeRing(8, 2);
  const linalg::Matrix r = BuildRoutingCsr(g).ToDense();
  const std::size_t n = g.nodeCount();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      const std::size_t col = s * n + d;
      double outOfSource = 0.0, intoDest = 0.0;
      for (std::size_t l = 0; l < g.linkCount(); ++l) {
        if (r(l, col) == 0.0) continue;
        if (g.link(l).src == s) outOfSource += r(l, col);
        if (g.link(l).dst == d) intoDest += r(l, col);
        EXPECT_GE(r(l, col), 0.0);
        EXPECT_LE(r(l, col), 1.0 + 1e-9);
      }
      EXPECT_NEAR(outOfSource, 1.0, 1e-9) << "od " << s << "->" << d;
      EXPECT_NEAR(intoDest, 1.0, 1e-9) << "od " << s << "->" << d;
    }
  }
}

TEST(RoutingMatrix, LinkLoadsMatchManualPathSum) {
  const Graph g = Triangle();
  const linalg::CsrMatrix r = BuildRoutingCsr(g);
  linalg::Matrix tm(3, 3, 0.0);
  tm(0, 2) = 10.0;  // routed a->b->c
  const linalg::Vector y = ComputeLinkLoads(r, tm);
  double total = 0.0;
  for (double v : y) total += v;
  EXPECT_NEAR(total, 20.0, 1e-9);  // two hops * 10
}

TEST(FlattenUnflatten, RoundTrip) {
  stats::Rng rng(3);
  const linalg::Matrix tm = test::RandomMatrix(5, 5, rng, 0.0, 10.0);
  test::ExpectMatrixNear(UnflattenTm(FlattenTm(tm), 5), tm, 0.0);
  EXPECT_THROW(FlattenTm(linalg::Matrix(2, 3)), ictm::Error);
  EXPECT_THROW(UnflattenTm(linalg::Vector(5), 2), ictm::Error);
}

TEST(CannedTopologies, GeantHas22ConnectedNodes) {
  const Graph g = MakeGeant22();
  EXPECT_EQ(g.nodeCount(), 22u);
  EXPECT_TRUE(IsStronglyConnected(g));
  EXPECT_NO_THROW(g.nodeByName("de"));
  EXPECT_NO_THROW(g.nodeByName("ny"));
}

TEST(CannedTopologies, TotemSplitsGermany) {
  const Graph g = MakeTotem23();
  EXPECT_EQ(g.nodeCount(), 23u);
  EXPECT_TRUE(IsStronglyConnected(g));
  EXPECT_NO_THROW(g.nodeByName("de1"));
  EXPECT_NO_THROW(g.nodeByName("de2"));
  EXPECT_THROW(g.nodeByName("de"), ictm::Error);
}

TEST(CannedTopologies, AbileneHasInstrumentedNodes) {
  const Graph g = MakeAbilene11();
  EXPECT_EQ(g.nodeCount(), 11u);
  EXPECT_TRUE(IsStronglyConnected(g));
  // The D3 dataset instruments IPLS and its neighbours CLEV... KSCY.
  EXPECT_NO_THROW(g.nodeByName("IPLS"));
  EXPECT_NO_THROW(g.nodeByName("KSCY"));
}

TEST(CannedTopologies, RingProperties) {
  const Graph g = MakeRing(6);
  EXPECT_EQ(g.nodeCount(), 6u);
  EXPECT_EQ(g.linkCount(), 12u);  // 6 bidirectional links
  EXPECT_TRUE(IsStronglyConnected(g));
  EXPECT_THROW(MakeRing(2), ictm::Error);
  // Chorded ring has strictly more links.
  EXPECT_GT(MakeRing(8, 2).linkCount(), MakeRing(8).linkCount());
}

TEST(RoutingMatrix, GeantRankDeficiency) {
  // The TM estimation problem is under-constrained: rank(R) < n^2.
  // (This is the paper's Sec. 6 premise.)
  const Graph g = MakeGeant22();
  const linalg::CsrMatrix r = BuildRoutingCsr(g);
  EXPECT_EQ(r.cols(), 22u * 22u);
  EXPECT_LT(r.rows(), r.cols());
}

TEST(RoutingBuild, MatchesReferenceBuilder) {
  // The walk must reproduce the all-links scan's arrays to the byte,
  // ECMP ties (ring, grid, waxman) and IGP-weight jitter (hierarchy)
  // included.
  for (const char* spec :
       {"geant22", "totem23", "abilene11", "ring:30", "grid:8x8",
        "waxman:120", "hierarchy:100", "hierarchy:200"}) {
    const Graph g = MakeTopology(spec, 1);
    const linalg::CsrMatrix got = BuildRoutingCsr(g);
    const linalg::CsrMatrix want = test::ReferenceRoutingCsr(g);
    EXPECT_EQ(got.rows(), want.rows()) << spec;
    EXPECT_EQ(got.cols(), want.cols()) << spec;
    EXPECT_TRUE(test::SameBytes(got.rowPtr(), want.rowPtr())) << spec;
    EXPECT_TRUE(test::SameBytes(got.colIdx(), want.colIdx())) << spec;
    EXPECT_TRUE(test::SameBytes(got.values(), want.values())) << spec;
  }
}

TEST(RoutingBuild, RefusesGraphThatIsNotStronglyConnected) {
  Graph g;
  for (std::size_t i = 0; i < 3; ++i) g.addNode(IndexedName('n', i));
  g.addBidirectionalLink(0, 1, 1.0);
  g.addLink(1, 2, 1.0);  // node 2 cannot reach back
  try {
    BuildRoutingCsr(g);
    FAIL() << "expected ictm::Error";
  } catch (const ictm::Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "graph must be strongly connected for routing"),
              std::string::npos)
        << e.what();
  }
}

// Random directed graph: `links` one-way links between distinct
// random endpoints, weights in [1, 4).
Graph RandomDigraph(std::size_t nodes, std::size_t links, stats::Rng& rng) {
  Graph g;
  for (std::size_t i = 0; i < nodes; ++i) g.addNode(IndexedName('n', i));
  for (std::size_t k = 0; k < links; ++k) {
    const auto a = static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
    const auto b = static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
    if (a != b) g.addLink(a, b, rng.uniform(1.0, 4.0));
  }
  return g;
}

TEST(IsStronglyConnected, MatchesAllSourcesDijkstra) {
  stats::Rng rng(29);
  std::size_t connected = 0, disconnected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t nodes = 2 + rng.uniformInt(0, 10);
    const std::size_t links = rng.uniformInt(0, 4 * nodes);
    const Graph g = RandomDigraph(nodes, links, rng);
    const bool want = test::ReferenceIsStronglyConnected(g);
    EXPECT_EQ(IsStronglyConnected(g), want) << "trial " << trial;
    ++(want ? connected : disconnected);
  }
  // Both outcomes are exercised.
  EXPECT_GT(connected, 20u);
  EXPECT_GT(disconnected, 20u);

  Graph single;
  single.addNode("a");
  EXPECT_TRUE(IsStronglyConnected(single));
  EXPECT_TRUE(test::ReferenceIsStronglyConnected(single));

  // A ring plus one isolated node.
  Graph isolated = MakeRing(5);
  isolated.addNode("lonely");
  EXPECT_FALSE(IsStronglyConnected(isolated));
  EXPECT_FALSE(test::ReferenceIsStronglyConnected(isolated));

  // One-way cycle: connected; one reversed link breaks it.
  Graph cycle;
  for (std::size_t i = 0; i < 4; ++i) cycle.addNode(IndexedName('n', i));
  for (NodeId i = 0; i < 4; ++i) cycle.addLink(i, (i + 1) % 4);
  EXPECT_TRUE(IsStronglyConnected(cycle));
  Graph broken;
  for (std::size_t i = 0; i < 4; ++i) broken.addNode(IndexedName('n', i));
  for (NodeId i = 0; i < 3; ++i) broken.addLink(i, i + 1);
  broken.addLink(0, 3);
  EXPECT_FALSE(IsStronglyConnected(broken));
  EXPECT_FALSE(test::ReferenceIsStronglyConnected(broken));
}

}  // namespace
}  // namespace ictm::topology
