// Construction of the (heterogeneous) diffusion matrix M = I - L S^{-1}
// in sparse and dense form, plus lambda (second-largest eigenvalue in
// magnitude) computation.
//
// Entries: M_ij = alpha_ij / s_j for j in N(i), M_ii = 1 - (sum_j alpha_ij)/s_i.
// In the homogeneous case this reduces to the doubly stochastic M of eq. (2).
// M is not symmetric when speeds differ, but S^{-1/2} M S^{1/2} is, with top
// eigenvector proportional to sqrt(s); lambda is computed on that
// symmetrization (paper Section IV, Lemma 5/7 machinery).
#ifndef DLB_CORE_DIFFUSION_MATRIX_HPP
#define DLB_CORE_DIFFUSION_MATRIX_HPP

#include <vector>

#include "core/speeds.hpp"
#include "graph/graph.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/sparse_op.hpp"

namespace dlb {

/// Sparse M (row-action: y = M x). Off-diagonal weight on half-edge
/// h = (i -> j) is M_ij = alpha[h] / s_j.
sparse_op make_diffusion_operator(const graph& g, const std::vector<double>& alpha,
                                  const speed_profile& speeds);

/// Sparse M^T; needed for row-vector recursions (contributions, divergence).
sparse_op make_diffusion_operator_transposed(const graph& g,
                                             const std::vector<double>& alpha,
                                             const speed_profile& speeds);

/// Sparse symmetrization S^{-1/2} M S^{1/2}; equals M when speeds are
/// uniform. Shares the spectrum of M.
sparse_op make_symmetrized_diffusion_operator(const graph& g,
                                              const std::vector<double>& alpha,
                                              const speed_profile& speeds);

/// Dense M for small graphs / tests.
dense_matrix make_dense_diffusion_matrix(const graph& g,
                                         const std::vector<double>& alpha,
                                         const speed_profile& speeds);

/// The unit top eigenvector of the symmetrized operator: sqrt(s)/||sqrt(s)||.
std::vector<double> top_eigenvector_symmetrized(const speed_profile& speeds);

/// lambda = second-largest eigenvalue of M in magnitude, via Lanczos with
/// the top eigenvector deflated. Deterministic. Under an obs session each
/// call records its duration in the `campaign.lambda_ns` histogram and an
/// unconverged solve bumps the `lambda.unconverged` counter.
double compute_lambda(const graph& g, const std::vector<double>& alpha,
                      const speed_profile& speeds, int max_iterations = 300,
                      double tolerance = 1e-11);

} // namespace dlb

#endif // DLB_CORE_DIFFUSION_MATRIX_HPP
