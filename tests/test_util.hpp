// Shared helpers for the ictm test suite.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "stats/rng.hpp"
#include "topology/graph.hpp"
#include "traffic/tm_series.hpp"

namespace ictm::test {

/// Path of a scratch file under gtest's temp directory.  The name is
/// prefixed with the pid: parallel ctest runs each test case as its
/// own process from the same binary, so a bare name would make
/// concurrent cases collide on sockets and checkpoint directories.
inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/ictm-" + std::to_string(::getpid()) + "-" +
         name;
}

/// Lower-case hex of a byte buffer, for golden-bytes comparisons.
inline std::string Hex(const std::vector<std::uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

/// Deterministic random TM series (entries uniform in [0, 1e9),
/// binSeconds 300) — the standard trace fixture of the stream and
/// server suites.
inline traffic::TrafficMatrixSeries RandomSeries(std::size_t nodes,
                                                 std::size_t bins,
                                                 std::uint64_t seed) {
  stats::Rng rng(seed);
  traffic::TrafficMatrixSeries s(nodes, bins, 300.0);
  for (std::size_t t = 0; t < bins; ++t) {
    double* bin = s.binData(t);
    for (std::size_t k = 0; k < nodes * nodes; ++k) {
      bin[k] = rng.uniform(0.0, 1e9);
    }
  }
  return s;
}

/// Asserts two TM series are equal to the last bit — the determinism
/// contract every streaming/server surface is held to.
inline void ExpectBitIdentical(const traffic::TrafficMatrixSeries& a,
                               const traffic::TrafficMatrixSeries& b) {
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  ASSERT_EQ(a.binCount(), b.binCount());
  const std::size_t n2 = a.nodeCount() * a.nodeCount();
  for (std::size_t t = 0; t < a.binCount(); ++t) {
    const double* pa = a.binData(t);
    const double* pb = b.binData(t);
    for (std::size_t k = 0; k < n2; ++k) {
      ASSERT_EQ(pa[k], pb[k]) << "bin " << t << " element " << k;
    }
  }
}

/// Random matrix with entries uniform in [lo, hi).
inline linalg::Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                                   stats::Rng& rng, double lo = -1.0,
                                   double hi = 1.0) {
  linalg::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(lo, hi);
  return m;
}

/// Random vector with entries uniform in [lo, hi).
inline linalg::Vector RandomVector(std::size_t n, stats::Rng& rng,
                                   double lo = -1.0, double hi = 1.0) {
  linalg::Vector v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// Random strictly-positive vector.
inline linalg::Vector RandomPositiveVector(std::size_t n, stats::Rng& rng,
                                           double lo = 0.1,
                                           double hi = 2.0) {
  return RandomVector(n, rng, lo, hi);
}

/// Asserts two matrices agree elementwise within tol, with a readable
/// failure message.
inline void ExpectMatrixNear(const linalg::Matrix& a,
                             const linalg::Matrix& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_NEAR(a(r, c), b(r, c), tol)
          << "mismatch at (" << r << ", " << c << ")";
    }
  }
}

inline void ExpectVectorNear(const linalg::Vector& a,
                             const linalg::Vector& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "mismatch at index " << i;
  }
}

/// Dense oracle of the stable-fP activity operator (paper Eq. 7): the
/// n^2 x n matrix Phi with x = Phi * A for fixed (f, P), row i*n+j
/// holding X_ij; preference is normalised internally.  The library
/// evaluates Phi in closed form (core::StableFPKernel); this explicit
/// build, with traffic::BuildMarginalOperator and
/// linalg::PseudoInverse, is what the closed forms are tested against.
inline linalg::Matrix BuildActivityOperator(double f,
                                            const linalg::Vector& preference) {
  const std::size_t n = preference.size();
  double prefSum = 0.0;
  for (double p : preference) prefSum += p;
  linalg::Matrix phi(n * n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t row = i * n + j;
      // X_ij = f * Pn_j * A_i + (1-f) * Pn_i * A_j.
      phi(row, i) += f * preference[j] / prefSum;
      phi(row, j) += (1.0 - f) * preference[i] / prefSum;
    }
  }
  return phi;
}

/// Untiled right-looking rank-4 Cholesky: the oracle
/// linalg::CholeskyFactorInPlace is held to byte for byte.  Same
/// contract (upper triangle of a row-major n x n buffer, Uᵀ U = m;
/// throws when not positive definite).  Contraction into FMA is off,
/// as in the library kernel, so the oracle's bits do not depend on
/// whether the target has FMA.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("fp-contract=off")))
#endif
inline void ReferenceCholeskyFactor(double* m, std::size_t n) {
#if defined(__clang__)
#pragma clang fp contract(off)
#endif
  // Factors the upper triangle in place (Uᵀ U = m) in right-looking
  // form: the inner update — row i minus a multiple of row k, both
  // contiguous — is a branch-free axpy the compiler vectorises,
  // unlike the serial reductions of the textbook dot-product form.
  // Rank-4 blocking fuses four pivot sweeps of the bandwidth-bound
  // trailing submatrix into one pass.
  std::size_t k = 0;
  for (; k + 3 < n; k += 4) {
    for (std::size_t kk = k; kk < k + 4; ++kk) {
      double* __restrict ukRow = m + kk * n;
      for (std::size_t p = k; p < kk; ++p) {
        const double* __restrict up = m + p * n;
        const double c = up[kk];
        for (std::size_t j = kk; j < n; ++j) ukRow[j] -= c * up[j];
      }
      ICTM_REQUIRE(ukRow[kk] > 0.0,
                   "matrix is not positive definite in Cholesky");
      const double diag = std::sqrt(ukRow[kk]);
      ukRow[kk] = diag;
      const double inv = 1.0 / diag;
      for (std::size_t j = kk + 1; j < n; ++j) ukRow[j] *= inv;
    }
    const double* __restrict u0 = m + k * n;
    const double* __restrict u1 = m + (k + 1) * n;
    const double* __restrict u2 = m + (k + 2) * n;
    const double* __restrict u3 = m + (k + 3) * n;
    for (std::size_t i = k + 4; i < n; ++i) {
      const double a = u0[i], b = u1[i], c = u2[i], e = u3[i];
      double* __restrict ui = m + i * n;
      for (std::size_t j = i; j < n; ++j) {
        ui[j] -= a * u0[j] + b * u1[j] + c * u2[j] + e * u3[j];
      }
    }
  }
  for (; k < n; ++k) {  // remainder rows (n mod 4)
    double* __restrict uk = m + k * n;
    ICTM_REQUIRE(uk[k] > 0.0, "matrix is not positive definite in Cholesky");
    const double ukk = std::sqrt(uk[k]);
    uk[k] = ukk;
    const double inv = 1.0 / ukk;
    for (std::size_t j = k + 1; j < n; ++j) uk[j] *= inv;
    for (std::size_t i = k + 1; i < n; ++i) {
      const double uki = uk[i];
      double* __restrict ui = m + i * n;
      for (std::size_t j = i; j < n; ++j) ui[j] -= uki * uk[j];
    }
  }
}

/// The upper triangle of the square `m` in the packed layout the
/// normal-equations kernels work on (nothing below the diagonal is
/// read).
inline linalg::PackedUpper PackUpper(const linalg::Matrix& m) {
  ICTM_REQUIRE(m.rows() == m.cols(), "only a square matrix packs");
  linalg::PackedUpper packed(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.data().data() + i * m.cols();
    std::copy(row + i, row + m.cols(), packed.row(i) + i);
  }
  return packed;
}

/// The dense n x n view of a packed upper triangle: its upper triangle
/// verbatim, zeros below the diagonal.  Lets a packed result be
/// memcmp-ed row by row against a dense oracle.
inline linalg::Matrix UnpackUpper(const linalg::PackedUpper& packed) {
  const std::size_t n = packed.dim();
  linalg::Matrix dense(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(packed.row(i) + i, packed.row(i) + n, &dense(i, i));
  }
  return dense;
}

/// One explicit entry of a sparse matrix under triplet assembly.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

/// CSC from (row, col, value) entries in any order: sorts by (column,
/// row), sums duplicates and drops exact zeros.
inline linalg::CscMatrix CscFromTriplets(std::size_t rows, std::size_t cols,
                                         std::vector<Triplet> entries) {
  for (const Triplet& t : entries) {
    ICTM_REQUIRE(t.row < rows && t.col < cols, "triplet index out of range");
  }
  std::sort(entries.begin(), entries.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.col != b.col ? a.col < b.col : a.row < b.row;
            });
  std::vector<std::size_t> ptr(cols + 1, 0), idx;
  std::vector<double> values;
  std::size_t i = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    while (i < entries.size() && entries[i].col == c) {
      const std::size_t r = entries[i].row;
      double acc = 0.0;
      while (i < entries.size() && entries[i].col == c &&
             entries[i].row == r) {
        acc += entries[i].value;
        ++i;
      }
      if (acc != 0.0) {
        idx.push_back(r);
        values.push_back(acc);
      }
    }
    ptr[c + 1] = idx.size();
  }
  return linalg::CscMatrix(rows, cols, std::move(ptr), std::move(idx),
                           std::move(values));
}

/// y = A x the way the retired row-compressed SpMV computed it: the
/// entries sorted by (row, column), each y[r] summed in that order
/// from +0.0.  The bit-equality oracle of CscMatrix::MultiplyInto.
inline std::vector<double> RowOrderGather(std::size_t rows,
                                          std::vector<Triplet> entries,
                                          const std::vector<double>& x) {
  std::sort(entries.begin(), entries.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  std::vector<double> y(rows);
  std::size_t i = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    for (; i < entries.size() && entries[i].row == r; ++i) {
      acc += entries[i].value * x[entries[i].col];
    }
    y[r] = acc;
  }
  return y;
}

/// Connectivity oracle of topology::IsStronglyConnected: one Dijkstra
/// per source, every distance finite.
inline bool ReferenceIsStronglyConnected(const topology::Graph& g) {
  for (topology::NodeId s = 0; s < g.nodeCount(); ++s) {
    for (double d : topology::ComputeShortestPaths(g, s).dist) {
      if (!std::isfinite(d)) return false;
    }
  }
  return true;
}

/// The routing matrix's entries as the old all-links builder found
/// them: per OD pair, every reachable node sorted by decreasing
/// distance, each unit of traffic split evenly across the predecessor
/// links, and a scan of all links.
inline std::vector<Triplet> ReferenceRoutingTriplets(
    const topology::Graph& g) {
  const std::size_t n = g.nodeCount();
  ICTM_REQUIRE(n > 0, "routing matrix of empty graph");
  ICTM_REQUIRE(ReferenceIsStronglyConnected(g),
               "graph must be strongly connected for routing");
  std::vector<Triplet> entries;
  std::vector<double> linkFraction(g.linkCount(), 0.0);
  for (topology::NodeId src = 0; src < n; ++src) {
    const topology::ShortestPaths sp = topology::ComputeShortestPaths(g, src);
    for (topology::NodeId dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      std::fill(linkFraction.begin(), linkFraction.end(), 0.0);
      std::vector<double> nodeMass(n, 0.0);
      nodeMass[dst] = 1.0;
      std::vector<topology::NodeId> order;
      for (topology::NodeId v = 0; v < n; ++v) {
        if (std::isfinite(sp.dist[v])) order.push_back(v);
      }
      std::sort(order.begin(), order.end(),
                [&](topology::NodeId a, topology::NodeId b) {
                  return sp.dist[a] > sp.dist[b];
                });
      for (topology::NodeId v : order) {
        if (v == src || nodeMass[v] <= 0.0) continue;
        const auto& preds = sp.predecessors[v];
        ICTM_REQUIRE(!preds.empty(), "unreachable node in routing tree");
        const double share = nodeMass[v] / static_cast<double>(preds.size());
        for (topology::LinkId lid : preds) {
          linkFraction[lid] += share;
          nodeMass[g.link(lid).src] += share;
        }
      }
      for (topology::LinkId lid = 0; lid < g.linkCount(); ++lid) {
        if (linkFraction[lid] != 0.0) {
          entries.push_back({lid, src * n + dst, linkFraction[lid]});
        }
      }
    }
  }
  return entries;
}

/// Routing-matrix oracle that topology::BuildRouting is held to byte
/// for byte: the old builder's entries by triplet assembly.
inline linalg::CscMatrix ReferenceRouting(const topology::Graph& g) {
  return CscFromTriplets(g.linkCount(), g.nodeCount() * g.nodeCount(),
                         ReferenceRoutingTriplets(g));
}

/// Oracle of core::AugmentedTmSystem's operator A = [R; Q]: the
/// routing entries plus, with marginal constraints, the ingress row
/// L + i and egress row L + n + j of column (i, j), by triplet assembly.
inline linalg::CscMatrix ReferenceAugmentedOperator(
    const linalg::CscMatrix& routing, std::size_t n,
    bool marginalConstraints) {
  const std::size_t links = routing.rows();
  std::vector<Triplet> entries;
  for (std::size_t c = 0; c < routing.cols(); ++c) {
    for (std::size_t k = routing.colPtr()[c]; k < routing.colPtr()[c + 1];
         ++k) {
      entries.push_back({routing.rowIdx()[k], c, routing.values()[k]});
    }
  }
  if (marginalConstraints) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        entries.push_back({links + i, i * n + j, 1.0});
        entries.push_back({links + n + j, i * n + j, 1.0});
      }
    }
  }
  return CscFromTriplets(marginalConstraints ? links + 2 * n : links, n * n,
                         std::move(entries));
}

/// True when two vectors hold the same bytes.
template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace ictm::test
