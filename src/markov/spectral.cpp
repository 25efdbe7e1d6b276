#include "markov/spectral.hpp"

#include <cmath>
#include <numbers>

#include "util/assertions.hpp"

namespace dlb {
namespace {

/// Removes the component along the all-ones vector (the top eigenvector
/// of a doubly stochastic P) and returns the 2-norm of what remains.
double deflate_and_norm(std::vector<double>& x) {
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(x.size());
  double norm2 = 0.0;
  for (double& v : x) {
    v -= mean;
    norm2 += v * v;
  }
  return std::sqrt(norm2);
}

}  // namespace

// The power iteration is a few short loops run thousands of times, and
// its speed followed where the linker happened to place them: with this
// file unchanged and the same data addresses, table1's set-up (this call
// on the 1024-node random-regular graph) read 37 ms in one build of the
// library and 48 ms in another. Starting this function and TransitionOperator::apply on a cache
// line fixes their loops' offsets, so an unrelated change elsewhere in
// the library no longer moves this time.
[[gnu::aligned(64)]] SpectralResult spectral_gap(const Graph& g,
                                                 int self_loops, double tol,
                                                 int max_iters) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  DLB_REQUIRE(n >= 2, "spectral_gap needs n >= 2");
  const TransitionOperator op(g, self_loops);

  // Deterministic, aperiodic start vector with mass on every frequency.
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.7 * static_cast<double>(i) + 0.3) +
           0.01 * static_cast<double>(i % 17);
  }
  double norm = deflate_and_norm(x);
  DLB_REQUIRE(norm > 0, "spectral_gap: degenerate start vector");
  for (double& v : x) v /= norm;

  std::vector<double> y(n);
  double rho_prev = -1.0;
  int iter = 0;
  for (; iter < max_iters; ++iter) {
    // One step of the shifted operator Q = (P + I)/2; spec(Q) ⊂ [0, 1]
    // and the order of eigenvalues of P is preserved, so the dominant
    // deflated eigenvalue of Q is (1 + λ₂)/2 with the *signed* λ₂.
    op.apply(x, y);
    for (std::size_t i = 0; i < n; ++i) y[i] = 0.5 * (y[i] + x[i]);

    // Rayleigh quotient ρ = xᵀQx (x is unit-norm).
    double rho = 0.0;
    for (std::size_t i = 0; i < n; ++i) rho += x[i] * y[i];

    norm = deflate_and_norm(y);
    if (norm == 0.0) {
      // x was (numerically) entirely in the top eigenspace: gap is huge.
      return {2.0 * rho - 1.0, 1.0 - (2.0 * rho - 1.0), iter};
    }
    for (std::size_t i = 0; i < n; ++i) x[i] = y[i] / norm;

    if (iter > 16 && std::abs(rho - rho_prev) < tol) {
      rho_prev = rho;
      break;
    }
    rho_prev = rho;
  }

  const double lambda2 = 2.0 * rho_prev - 1.0;
  return {lambda2, 1.0 - lambda2, iter};
}

double lambda2_cycle(NodeId n, int self_loops) {
  DLB_REQUIRE(n >= 3, "lambda2_cycle needs n >= 3");
  const double d_plus = 2.0 + self_loops;
  return (self_loops + 2.0 * std::cos(2.0 * std::numbers::pi / n)) / d_plus;
}

double lambda2_torus(const std::vector<NodeId>& extents, int self_loops) {
  DLB_REQUIRE(!extents.empty(), "lambda2_torus needs dimensions");
  NodeId max_extent = 0;
  for (NodeId e : extents) {
    DLB_REQUIRE(e >= 3, "lambda2_torus extents must be >= 3");
    max_extent = std::max(max_extent, e);
  }
  const auto r = static_cast<double>(extents.size());
  const double d_plus = 2.0 * r + self_loops;
  // Adjacency eigenvalues are Σ_k 2cos(2π j_k / e_k); the second-largest
  // puts j=1 in the dimension with the largest extent and 0 elsewhere.
  const double adj = 2.0 * (r - 1.0) +
                     2.0 * std::cos(2.0 * std::numbers::pi / max_extent);
  return (self_loops + adj) / d_plus;
}

double lambda2_hypercube(int dim, int self_loops) {
  DLB_REQUIRE(dim >= 1, "lambda2_hypercube needs dim >= 1");
  // Adjacency spectrum is {dim - 2k}; second largest is dim - 2.
  return (self_loops + dim - 2.0) / (dim + self_loops);
}

double lambda2_complete(NodeId n, int self_loops) {
  DLB_REQUIRE(n >= 2, "lambda2_complete needs n >= 2");
  // Adjacency spectrum is {n-1, -1, ..., -1}.
  return (self_loops - 1.0) / (n - 1.0 + self_loops);
}

}  // namespace dlb
