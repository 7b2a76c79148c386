// Lanczos iteration with full reorthogonalization for extreme eigenvalues
// of large sparse symmetric operators.
//
// Used to obtain lambda = second-largest-in-magnitude eigenvalue of the
// (symmetrized) diffusion matrix M, which determines beta_opt =
// 2 / (1 + sqrt(1 - lambda^2)). The known top eigenvector of M
// (constant / speed-weighted) is deflated explicitly so the Lanczos extremes
// are exactly lambda_2 and lambda_n. Ritz values come from Sturm-sequence
// bisection on the Lanczos tridiagonal: O(k) per eigenvalue count, no dense
// eigensolve.
#ifndef DLB_LINALG_LANCZOS_HPP
#define DLB_LINALG_LANCZOS_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace dlb {

struct lanczos_result {
    double largest = 0.0;    // largest eigenvalue found (after deflation)
    double smallest = 0.0;   // smallest eigenvalue found (after deflation)
    int iterations = 0;      // Krylov dimension actually used
    bool converged = false;  // extremes stable to tolerance (or breakdown)
    /// Ritz residual beta_k * |s_k| of the larger-magnitude extreme (the
    /// value lanczos_lambda2 returns), s_k being the last entry of its unit
    /// eigenvector of the tridiagonal T_k. The operator has an eigenvalue
    /// within this distance of the returned Ritz value.
    double residual = 0.0;
};

/// The j-th smallest eigenvalue (j = 0 .. k-1) of the symmetric k x k
/// tridiagonal matrix with diagonal `alpha` and off-diagonal `beta`
/// (beta[i] couples i and i+1, so beta.size() == k - 1). Sturm-sequence
/// bisection from the Gershgorin interval down to adjacent doubles (or to
/// eps^2 * ||T|| around zero); each step is one O(k) LDL^T pivot count.
double tridiagonal_eigenvalue(std::span<const double> alpha,
                              std::span<const double> beta, std::size_t j);

/// Extreme eigenvalues of the symmetric operator `apply` (dimension n) on the
/// complement of span(deflate) — pass the known top eigenvector(s),
/// normalized, in `deflate`. Deterministic for a fixed seed.
lanczos_result lanczos_extreme_eigenvalues(
    const std::function<void(std::span<const double>, std::span<double>)>& apply,
    std::size_t n, std::span<const std::vector<double>> deflate,
    int max_iterations = 200, double tolerance = 1e-10,
    std::uint64_t seed = 0xdecafbad);

/// Largest-magnitude eigenvalue orthogonal to `deflate`:
/// max(|largest|, |smallest|) of lanczos_extreme_eigenvalues.
double lanczos_lambda2(
    const std::function<void(std::span<const double>, std::span<double>)>& apply,
    std::size_t n, std::span<const std::vector<double>> deflate,
    int max_iterations = 200, double tolerance = 1e-10,
    std::uint64_t seed = 0xdecafbad);

} // namespace dlb

#endif // DLB_LINALG_LANCZOS_HPP
