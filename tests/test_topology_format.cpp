// Tests for the topology workbench: the .ictp parser/writer (error
// paths with line-indexed messages, canonical round trips), the
// synthetic generators (shape and seed determinism), and the registry
// spec resolution.
#include <gtest/gtest.h>

#include <fstream>

#include "core/estimation.hpp"
#include "core/gravity.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"
#include "topology/ictp.hpp"
#include "topology/registry.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"

namespace ictm::topology {
namespace {

// Expects ParseIctpString to throw and the message to contain every
// given fragment (used to pin the source:line prefix of errors).
void ExpectParseError(const std::string& text,
                      std::initializer_list<const char*> fragments) {
  try {
    ParseIctpString(text, "t.ictp");
    FAIL() << "expected ictm::Error for:\n" << text;
  } catch (const Error& e) {
    const std::string what = e.what();
    for (const char* fragment : fragments) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "message '" << what << "' lacks '" << fragment << "'";
    }
  }
}

// ---- parser ----------------------------------------------------------------

TEST(IctpParse, MinimalTopology) {
  const Graph g = ParseIctpString(
      "# a comment\n"
      "ictp 1\n"
      "node a\n"
      "node b\n"
      "node c\n"
      "bilink a b 1.5\n"
      "link b c 2 5e9\n"
      "link c a 2.5   # trailing comment\n");
  EXPECT_EQ(g.nodeCount(), 3u);
  EXPECT_EQ(g.linkCount(), 4u);  // bilink expands to two links
  EXPECT_DOUBLE_EQ(g.link(0).igpWeight, 1.5);
  EXPECT_DOUBLE_EQ(g.link(2).capacityBps, 5e9);
  EXPECT_DOUBLE_EQ(g.link(3).capacityBps, 10e9);  // default capacity
  EXPECT_EQ(g.link(2).src, g.nodeByName("b"));
  EXPECT_EQ(g.link(2).dst, g.nodeByName("c"));
}

TEST(IctpParse, ErrorsCarrySourceAndLine) {
  // Duplicate node on line 4.
  ExpectParseError("ictp 1\nnode a\nnode b\nnode a\nbilink a b 1\n",
                   {"t.ictp:4", "duplicate node name 'a'"});
}

TEST(IctpParse, RejectsDanglingLinkEndpoint) {
  ExpectParseError("ictp 1\nnode a\nnode b\nbilink a b 1\nlink a zz 1\n",
                   {"t.ictp:5", "unknown node 'zz'"});
}

TEST(IctpParse, RejectsNonPositiveWeight) {
  ExpectParseError("ictp 1\nnode a\nnode b\nbilink a b 0\n",
                   {"t.ictp:4", "weight"});
  ExpectParseError("ictp 1\nnode a\nnode b\nbilink a b -2\n",
                   {"t.ictp:4", "weight"});
  ExpectParseError("ictp 1\nnode a\nnode b\nbilink a b nan\n",
                   {"t.ictp:4", "weight"});
  ExpectParseError("ictp 1\nnode a\nnode b\nbilink a b 1 0\n",
                   {"t.ictp:4", "capacity"});
}

TEST(IctpParse, RejectsSelfLoopAndBadFieldCounts) {
  ExpectParseError("ictp 1\nnode a\nbilink a a 1\n",
                   {"t.ictp:3", "self-loop"});
  ExpectParseError("ictp 1\nnode a\nnode b\nlink a b\n",
                   {"t.ictp:4", "3 or 4 fields"});
  ExpectParseError("ictp 1\nnode a b\n", {"t.ictp:2", "node takes"});
  ExpectParseError("ictp 1\nnode a\nnode b\nedge a b 1\n",
                   {"t.ictp:4", "unknown directive 'edge'"});
}

TEST(IctpParse, RejectsTruncatedOrMagiclessFiles) {
  ExpectParseError("", {"t.ictp", "missing 'ictp 1' magic"});
  ExpectParseError("# only comments\n\n", {"missing 'ictp 1' magic"});
  ExpectParseError("node a\n", {"t.ictp:1", "expected magic"});
  ExpectParseError("ictp 2\nnode a\n", {"unsupported ictp version"});
  ExpectParseError("ictp 1\n# no nodes follow\n", {"declares no nodes"});
}

TEST(IctpParse, RejectsDisconnectedTopologies) {
  ExpectParseError(
      "ictp 1\nnode a\nnode b\nnode c\nnode d\nbilink a b 1\n"
      "bilink c d 1\n",
      {"not strongly connected"});
  // One-way reachability is not enough either.
  ExpectParseError("ictp 1\nnode a\nnode b\nlink a b 1\n",
                   {"not strongly connected"});
}

// ---- writer ----------------------------------------------------------------

TEST(IctpWrite, CannedTopologyRoundTripsByteStable) {
  const Graph g = MakeGeant22();
  const std::string text = WriteIctpString(g);
  const Graph parsed = ParseIctpString(text);
  EXPECT_EQ(parsed.nodeCount(), g.nodeCount());
  EXPECT_EQ(parsed.linkCount(), g.linkCount());
  for (LinkId l = 0; l < g.linkCount(); ++l) {
    EXPECT_EQ(parsed.link(l).src, g.link(l).src);
    EXPECT_EQ(parsed.link(l).dst, g.link(l).dst);
    EXPECT_DOUBLE_EQ(parsed.link(l).igpWeight, g.link(l).igpWeight);
    EXPECT_DOUBLE_EQ(parsed.link(l).capacityBps, g.link(l).capacityBps);
  }
  // Canonical form is a fixed point: write(parse(write(g))) == write(g).
  EXPECT_EQ(WriteIctpString(parsed), text);
}

TEST(IctpWrite, FoldsBidirectionalPairsOnly) {
  Graph g;
  g.addNode("a");
  g.addNode("b");
  g.addNode("c");
  g.addBidirectionalLink(0, 1, 1.0);
  // Asymmetric pair: same endpoints, different weights — two links.
  g.addLink(1, 2, 1.0);
  g.addLink(2, 1, 2.0);
  g.addLink(2, 0, 1.0);
  g.addLink(0, 2, 1.0);  // reverse exists but is not adjacent
  const std::string text = WriteIctpString(g);
  EXPECT_NE(text.find("bilink a b 1"), std::string::npos);
  EXPECT_NE(text.find("link b c 1"), std::string::npos);
  EXPECT_NE(text.find("link c b 2"), std::string::npos);
  const Graph parsed = ParseIctpString(text);
  EXPECT_EQ(parsed.linkCount(), g.linkCount());
}

TEST(IctpWrite, FileRoundTrip) {
  const std::string path = test::TempPath("ictm_roundtrip.ictp");
  const Graph g = MakeAbilene11();
  WriteIctpFile(path, g);
  const Graph parsed = ReadIctpFile(path);
  EXPECT_EQ(parsed.nodeCount(), 11u);
  EXPECT_EQ(WriteIctpString(parsed), WriteIctpString(g));
  EXPECT_THROW(ReadIctpFile(path + ".missing"), Error);
}

// ---- generators ------------------------------------------------------------

TEST(Generators, GridShapeAndConnectivity) {
  const Graph g = MakeGrid(3, 4);
  EXPECT_EQ(g.nodeCount(), 12u);
  // 3*(4-1) horizontal + 4*(3-1) vertical bidirectional links.
  EXPECT_EQ(g.linkCount(), 2u * (3 * 3 + 4 * 2));
  EXPECT_TRUE(IsStronglyConnected(g));
  EXPECT_NO_THROW(g.nodeByName("g2_3"));
  EXPECT_THROW(MakeGrid(1, 1), Error);
  // Degenerate single row still connects.
  EXPECT_TRUE(IsStronglyConnected(MakeGrid(1, 5)));
}

TEST(Generators, HierarchyHitsExactNodeCountAcrossSizes) {
  for (std::size_t n : {std::size_t{3}, std::size_t{8}, std::size_t{22},
                        std::size_t{50}, std::size_t{100},
                        std::size_t{200}}) {
    HierarchyConfig cfg;
    cfg.nodes = n;
    const Graph g = MakeHierarchy(cfg, 7);
    EXPECT_EQ(g.nodeCount(), n) << n;
    EXPECT_TRUE(IsStronglyConnected(g)) << n;
  }
  EXPECT_THROW(MakeHierarchy({.nodes = 2}, 0), Error);
}

TEST(Generators, HierarchySameSeedIsByteIdentical) {
  HierarchyConfig cfg;
  cfg.nodes = 50;
  const std::string a = WriteIctpString(MakeHierarchy(cfg, 7));
  const std::string b = WriteIctpString(MakeHierarchy(cfg, 7));
  const std::string c = WriteIctpString(MakeHierarchy(cfg, 8));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // the seed jitters IGP weights
  // Jitter off: the seed no longer matters.
  cfg.weightJitter = 0.0;
  EXPECT_EQ(WriteIctpString(MakeHierarchy(cfg, 7)),
            WriteIctpString(MakeHierarchy(cfg, 8)));
}

TEST(Generators, WaxmanSeedReproducibleAndConnected) {
  WaxmanConfig cfg;
  cfg.nodes = 40;
  const std::string a = WriteIctpString(MakeWaxman(cfg, 3));
  const std::string b = WriteIctpString(MakeWaxman(cfg, 3));
  const std::string c = WriteIctpString(MakeWaxman(cfg, 4));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(IsStronglyConnected(MakeWaxman(cfg, 3)));
  // Sparse settings still come out connected (the component-joining
  // pass guarantees it).
  cfg.beta = 0.05;
  cfg.alpha = 0.05;
  EXPECT_TRUE(IsStronglyConnected(MakeWaxman(cfg, 11)));
  EXPECT_THROW(MakeWaxman({.nodes = 1}, 0), Error);
}

// ---- registry --------------------------------------------------------------

TEST(Registry, ListsCannedAndGeneratorFamilies) {
  const auto& all = ListTopologies();
  EXPECT_GE(all.size(), 7u);
  bool sawCanned = false, sawGenerator = false;
  for (const auto& info : all) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.spec.empty());
    EXPECT_FALSE(info.summary.empty());
    sawCanned = sawCanned || info.kind == "canned";
    sawGenerator = sawGenerator || info.kind == "generator";
  }
  EXPECT_TRUE(sawCanned);
  EXPECT_TRUE(sawGenerator);
}

TEST(Registry, ResolvesSpecs) {
  EXPECT_EQ(MakeTopology("geant22").nodeCount(), 22u);
  EXPECT_EQ(MakeTopology("totem23").nodeCount(), 23u);
  EXPECT_EQ(MakeTopology("abilene11").nodeCount(), 11u);
  EXPECT_EQ(MakeTopology("ring:8").nodeCount(), 8u);
  EXPECT_GT(MakeTopology("ring:8:2").linkCount(),
            MakeTopology("ring:8").linkCount());
  EXPECT_EQ(MakeTopology("grid:3x4").nodeCount(), 12u);
  EXPECT_EQ(MakeTopology("hierarchy:30", 5).nodeCount(), 30u);
  EXPECT_EQ(MakeTopology("waxman:20", 5).nodeCount(), 20u);
  EXPECT_EQ(MakeTopology("waxman:20:0.2:0.5", 5).nodeCount(), 20u);
}

TEST(Registry, RejectsMalformedSpecs) {
  EXPECT_THROW(MakeTopology(""), Error);
  EXPECT_THROW(MakeTopology("bogus"), Error);
  EXPECT_THROW(MakeTopology("geant22:5"), Error);
  EXPECT_THROW(MakeTopology("ring"), Error);
  EXPECT_THROW(MakeTopology("ring:2"), Error);
  EXPECT_THROW(MakeTopology("ring:x"), Error);
  EXPECT_THROW(MakeTopology("grid:3"), Error);
  EXPECT_THROW(MakeTopology("grid:3x"), Error);
  EXPECT_THROW(MakeTopology("hierarchy:0"), Error);
  EXPECT_THROW(MakeTopology("hierarchy:5:7"), Error);
  EXPECT_THROW(MakeTopology("waxman:20:-1:0.5"), Error);
  EXPECT_THROW(MakeTopology("no/such/file.ictp"), Error);
}

TEST(Registry, ResolvesIctpFiles) {
  const std::string path = test::TempPath("ictm_registry.ictp");
  {
    std::ofstream os(path);
    os << "ictp 1\nnode x\nnode y\nnode z\nbilink x y 1\nbilink y z 1\n";
  }
  EXPECT_TRUE(IsTopologyFileSpec(path));
  EXPECT_FALSE(IsTopologyFileSpec("hierarchy:50"));
  const Graph g = MakeTopology(path);
  EXPECT_EQ(g.nodeCount(), 3u);
  EXPECT_EQ(g.nodeByName("z"), 2u);
}

// ---- generated topologies feed the sparse estimation path ------------------

TEST(GeneratedEstimation, HierarchyRoutesAndEstimatesBitIdentically) {
  const Graph g = MakeTopology("hierarchy:12", 3);
  const std::size_t n = g.nodeCount();
  const linalg::CscMatrix routing = BuildRouting(g);
  EXPECT_EQ(routing.cols(), n * n);
  EXPECT_EQ(routing.rows(), g.linkCount());

  stats::Rng rng(9);
  traffic::TrafficMatrixSeries truth(n, 4, 300.0);
  for (std::size_t t = 0; t < truth.binCount(); ++t) {
    for (std::size_t k = 0; k < n * n; ++k) {
      truth.binData(t)[k] = rng.uniform(1e5, 1e6);
    }
  }
  const auto priors = core::GravityPredictSeries(truth);

  core::EstimationOptions options;
  options.threads = 1;
  const auto est1 = core::EstimateSeries(routing, truth, priors, options);
  options.threads = 2;
  const auto est2 = core::EstimateSeries(routing, truth, priors, options);
  for (std::size_t t = 0; t < truth.binCount(); ++t) {
    const double* a = est1.binData(t);
    const double* b = est2.binData(t);
    for (std::size_t k = 0; k < n * n; ++k) {
      ASSERT_EQ(a[k], b[k]) << "bin " << t << " element " << k;
    }
  }
}

}  // namespace
}  // namespace ictm::topology
