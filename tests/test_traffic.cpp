// Tests for the TM series container, marginal operators and CSV IO.
#include <gtest/gtest.h>

#include <sstream>

#include "topology/routing.hpp"
#include "traffic/io.hpp"
#include "traffic/tm_series.hpp"
#include "test_util.hpp"

namespace ictm::traffic {
namespace {

TrafficMatrixSeries SmallSeries() {
  TrafficMatrixSeries s(3, 2, 300.0);
  // bin 0
  s(0, 0, 1) = 10;
  s(0, 1, 0) = 20;
  s(0, 2, 2) = 5;
  // bin 1
  s(1, 0, 2) = 7;
  s(1, 1, 1) = 3;
  return s;
}

TEST(TmSeries, ConstructionAndAccess) {
  const TrafficMatrixSeries s = SmallSeries();
  EXPECT_EQ(s.nodeCount(), 3u);
  EXPECT_EQ(s.binCount(), 2u);
  EXPECT_DOUBLE_EQ(s.binSeconds(), 300.0);
  EXPECT_DOUBLE_EQ(s.at(0, 0, 1), 10.0);
  EXPECT_THROW(s.at(2, 0, 0), ictm::Error);
  EXPECT_THROW(s.at(0, 3, 0), ictm::Error);
  EXPECT_THROW(TrafficMatrixSeries(0, 1), ictm::Error);
  EXPECT_THROW(TrafficMatrixSeries(1, 0), ictm::Error);
  EXPECT_THROW(TrafficMatrixSeries(1, 1, 0.0), ictm::Error);
}

TEST(TmSeries, BinExtractAndSet) {
  TrafficMatrixSeries s = SmallSeries();
  const linalg::Matrix b0 = s.bin(0);
  EXPECT_DOUBLE_EQ(b0(1, 0), 20.0);
  linalg::Matrix m(3, 3, 1.0);
  s.setBin(1, m);
  EXPECT_DOUBLE_EQ(s(1, 2, 2), 1.0);
  m(0, 0) = -1.0;
  EXPECT_THROW(s.setBin(0, m), ictm::Error);
  EXPECT_THROW(s.setBin(0, linalg::Matrix(2, 2)), ictm::Error);
}

TEST(TmSeries, MarginalsMatchPaperNotation) {
  const TrafficMatrixSeries s = SmallSeries();
  // X_i* (ingress) is the row sum; X_*j (egress) the column sum.
  const linalg::Vector in = s.ingress(0);
  const linalg::Vector out = s.egress(0);
  EXPECT_DOUBLE_EQ(in[0], 10.0);
  EXPECT_DOUBLE_EQ(in[1], 20.0);
  EXPECT_DOUBLE_EQ(in[2], 5.0);
  EXPECT_DOUBLE_EQ(out[0], 20.0);
  EXPECT_DOUBLE_EQ(out[1], 10.0);
  EXPECT_DOUBLE_EQ(out[2], 5.0);
  EXPECT_DOUBLE_EQ(s.total(0), 35.0);
  EXPECT_DOUBLE_EQ(linalg::Sum(in), linalg::Sum(out));
}

TEST(TmSeries, OdSeriesAndGrandTotal) {
  const TrafficMatrixSeries s = SmallSeries();
  EXPECT_EQ(s.odSeries(0, 1), (linalg::Vector{10.0, 0.0}));
  EXPECT_DOUBLE_EQ(s.grandTotal(), 45.0);
}

TEST(TmSeries, MeanNormalizedEgress) {
  TrafficMatrixSeries s(2, 2, 60.0);
  s(0, 0, 1) = 1.0;  // bin 0: all egress at node 1
  s(1, 1, 0) = 1.0;  // bin 1: all egress at node 0
  const linalg::Vector e = s.meanNormalizedEgress();
  EXPECT_DOUBLE_EQ(e[0], 0.5);
  EXPECT_DOUBLE_EQ(e[1], 0.5);
}

TEST(TmSeries, SliceAndDownsample) {
  TrafficMatrixSeries s(2, 6, 300.0);
  for (std::size_t t = 0; t < 6; ++t) s(t, 0, 1) = double(t);
  const TrafficMatrixSeries mid = s.slice(2, 3);
  EXPECT_EQ(mid.binCount(), 3u);
  EXPECT_DOUBLE_EQ(mid(0, 0, 1), 2.0);
  EXPECT_DOUBLE_EQ(mid(2, 0, 1), 4.0);
  EXPECT_THROW(s.slice(4, 3), ictm::Error);

  const TrafficMatrixSeries ds = s.downsample(2);
  EXPECT_EQ(ds.binCount(), 3u);
  EXPECT_DOUBLE_EQ(ds(0, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(ds(1, 0, 1), 2.0);
  EXPECT_DOUBLE_EQ(ds(2, 0, 1), 4.0);
  EXPECT_DOUBLE_EQ(ds.binSeconds(), 600.0);
  EXPECT_THROW(s.downsample(0), ictm::Error);
}

TEST(TmSeries, ValidityCheck) {
  TrafficMatrixSeries s(2, 1, 300.0);
  EXPECT_TRUE(s.isValid());
  s(0, 0, 0) = -1.0;
  EXPECT_FALSE(s.isValid());
}

TEST(MarginalOperators, IngressOperatorSelectsRows) {
  const std::size_t n = 4;
  const linalg::Matrix h = BuildIngressOperator(n);
  ASSERT_EQ(h.rows(), n);
  ASSERT_EQ(h.cols(), n * n);
  stats::Rng rng(1);
  const linalg::Matrix tm = test::RandomMatrix(n, n, rng, 0.0, 5.0);
  const linalg::Vector x = topology::FlattenTm(tm);
  const linalg::Vector hx = h * x;
  for (std::size_t i = 0; i < n; ++i) {
    double rowSum = 0.0;
    for (std::size_t j = 0; j < n; ++j) rowSum += tm(i, j);
    EXPECT_NEAR(hx[i], rowSum, 1e-12);
  }
}

TEST(MarginalOperators, EgressOperatorSelectsColumns) {
  const std::size_t n = 4;
  const linalg::Matrix g = BuildEgressOperator(n);
  stats::Rng rng(2);
  const linalg::Matrix tm = test::RandomMatrix(n, n, rng, 0.0, 5.0);
  const linalg::Vector gx = g * topology::FlattenTm(tm);
  for (std::size_t j = 0; j < n; ++j) {
    double colSum = 0.0;
    for (std::size_t i = 0; i < n; ++i) colSum += tm(i, j);
    EXPECT_NEAR(gx[j], colSum, 1e-12);
  }
}

TEST(MarginalOperators, StackedQMatchesHandG) {
  const std::size_t n = 3;
  const linalg::Matrix q = BuildMarginalOperator(n);
  ASSERT_EQ(q.rows(), 2 * n);
  const linalg::Matrix h = BuildIngressOperator(n);
  const linalg::Matrix g = BuildEgressOperator(n);
  for (std::size_t c = 0; c < n * n; ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_DOUBLE_EQ(q(r, c), h(r, c));
      EXPECT_DOUBLE_EQ(q(n + r, c), g(r, c));
    }
  }
}

TEST(CsvIo, RoundTripsExactly) {
  stats::Rng rng(3);
  TrafficMatrixSeries s(4, 5, 900.0);
  for (std::size_t t = 0; t < 5; ++t)
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = 0; j < 4; ++j)
        s(t, i, j) = rng.uniform(0.0, 1e9);
  std::stringstream ss;
  WriteCsv(ss, s);
  const TrafficMatrixSeries back = ReadCsv(ss);
  EXPECT_EQ(back.nodeCount(), 4u);
  EXPECT_EQ(back.binCount(), 5u);
  EXPECT_DOUBLE_EQ(back.binSeconds(), 900.0);
  for (std::size_t t = 0; t < 5; ++t)
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = 0; j < 4; ++j)
        EXPECT_DOUBLE_EQ(back(t, i, j), s(t, i, j));
}

TEST(CsvIo, RejectsMalformedInput) {
  std::stringstream empty;
  EXPECT_THROW(ReadCsv(empty), ictm::Error);

  std::stringstream badHeader("hello world\n1,2\n");
  EXPECT_THROW(ReadCsv(badHeader), ictm::Error);

  std::stringstream truncated(
      "# ictm-tm nodes=2 bins=2 binSeconds=300\n1,2,3,4\n");
  EXPECT_THROW(ReadCsv(truncated), ictm::Error);

  std::stringstream shortRow(
      "# ictm-tm nodes=2 bins=1 binSeconds=300\n1,2,3\n");
  EXPECT_THROW(ReadCsv(shortRow), ictm::Error);

  // Header fields are parsed strictly, each failure a typed error.
  for (const char* header : {
           "# ictm-tm nodes=abc bins=1 binSeconds=300\n",
           "# ictm-tm nodes=2x bins=1 binSeconds=300\n",
           "# ictm-tm nodes=2 bins=-1 binSeconds=300\n",
           "# ictm-tm nodes=2 bins=1 binSeconds=inf\n",
       }) {
    std::stringstream in(std::string(header) + "1,2,3,4\n");
    EXPECT_THROW(ReadCsv(in), ictm::Error) << header;
  }
}

TEST(CsvIo, RejectsNanInfAndNegativeValues) {
  // NaN, Inf and negative cells must raise a clear error instead of
  // silently producing a corrupt series.
  std::stringstream nan(
      "# ictm-tm nodes=2 bins=1 binSeconds=300\n1,nan,3,4\n");
  EXPECT_THROW(ReadCsv(nan), ictm::Error);

  std::stringstream inf(
      "# ictm-tm nodes=2 bins=1 binSeconds=300\n1,inf,3,4\n");
  EXPECT_THROW(ReadCsv(inf), ictm::Error);

  std::stringstream negative(
      "# ictm-tm nodes=2 bins=1 binSeconds=300\n1,-2,3,4\n");
  EXPECT_THROW(ReadCsv(negative), ictm::Error);

  std::stringstream garbage(
      "# ictm-tm nodes=2 bins=1 binSeconds=300\n1,abc,3,4\n");
  EXPECT_THROW(ReadCsv(garbage), ictm::Error);
}

TEST(CsvIo, RejectsMismatchedCellCounts) {
  std::stringstream tooMany(
      "# ictm-tm nodes=2 bins=1 binSeconds=300\n1,2,3,4,5\n");
  EXPECT_THROW(ReadCsv(tooMany), ictm::Error);

  std::stringstream tooFew(
      "# ictm-tm nodes=2 bins=1 binSeconds=300\n1,2\n");
  EXPECT_THROW(ReadCsv(tooFew), ictm::Error);

  // Trailing carriage returns (Windows line endings) are tolerated.
  std::stringstream crlf(
      "# ictm-tm nodes=2 bins=1 binSeconds=300\n1,2,3,4\r\n");
  const TrafficMatrixSeries s = ReadCsv(crlf);
  EXPECT_DOUBLE_EQ(s(0, 1, 1), 4.0);
}

TEST(CsvIo, StreamingHelpersMatchWholeSeriesPath) {
  TrafficMatrixSeries s(2, 3, 300.0);
  for (std::size_t t = 0; t < 3; ++t)
    for (std::size_t k = 0; k < 4; ++k)
      s.binData(t)[k] = double(t * 4 + k) / 3.0;
  std::stringstream ss;
  WriteCsv(ss, s);

  const CsvHeader h = ReadCsvHeader(ss);
  EXPECT_EQ(h.nodes, 2u);
  EXPECT_EQ(h.bins, 3u);
  double bin[4];
  for (std::size_t t = 0; t < 3; ++t) {
    ReadCsvBin(ss, h, t, bin);
    for (std::size_t k = 0; k < 4; ++k)
      EXPECT_DOUBLE_EQ(bin[k], s.binData(t)[k]);
  }
}

TEST(CsvIo, FileRoundTrip) {
  TrafficMatrixSeries s(2, 2, 300.0);
  s(0, 0, 1) = 42.5;
  const std::string path = ::testing::TempDir() + "/ictm_test_tm.csv";
  WriteCsvFile(path, s);
  const TrafficMatrixSeries back = ReadCsvFile(path);
  EXPECT_DOUBLE_EQ(back(0, 0, 1), 42.5);
  EXPECT_THROW(ReadCsvFile("/nonexistent/dir/file.csv"), ictm::Error);
}

}  // namespace
}  // namespace ictm::traffic
