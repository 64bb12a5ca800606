// Routing matrix construction (Y = R x, paper Sec. 6).
//
// R has one row per directed link and one column per OD pair (column
// index i*n + j).  Entry R[l, (i,j)] is the fraction of OD flow (i,j)
// carried on link l — 1 on single shortest paths, fractional under
// equal-cost multipath splitting.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "topology/graph.hpp"

namespace ictm::topology {

/// Builds the (#links x n^2) routing matrix for the graph in compressed
/// column form — the natural representation: a column holds only the
/// links on one OD pair's shortest path(s), so density is about
/// (path length)/links.  The walk emits the OD pairs in column order,
/// so its buffer is the matrix, with no transpose.  Traffic splits
/// evenly across equal-cost shortest paths (per-link ECMP splitting,
/// as deployed IGPs do).  OD pair (i,j) maps to column i*n + j;
/// diagonal OD pairs (i == i) stay inside the PoP and use no backbone
/// link (empty column).
linalg::CscMatrix BuildRouting(const Graph& g);

/// The former name of BuildRouting, kept only so e2ebench/harness.cpp
/// compiles unchanged until ROADMAP item 5 re-anchors the benchmark.
inline linalg::CsrMatrix BuildRoutingCsr(const Graph& g) {
  return BuildRouting(g);
}

/// Computes per-link loads Y = R x for a TM given as an n x n matrix.
linalg::Vector ComputeLinkLoads(const linalg::CscMatrix& routing,
                                const linalg::Matrix& tm);

/// Flattens an n x n TM into the x vector ordering used by
/// BuildRouting (row-major, x[i*n+j] = X_ij).
linalg::Vector FlattenTm(const linalg::Matrix& tm);

/// Inverse of FlattenTm.
linalg::Matrix UnflattenTm(const linalg::Vector& x, std::size_t n);

}  // namespace ictm::topology
