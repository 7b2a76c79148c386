// Tests for the Lanczos extreme-eigenvalue solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/alpha.hpp"
#include "core/diffusion_matrix.hpp"
#include "core/speeds.hpp"
#include "graph/generators.hpp"
#include "linalg/jacobi.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/spectra.hpp"
#include "util/rng.hpp"

namespace dlb {
namespace {

/// Dense operator wrapper.
auto dense_apply(const dense_matrix& m)
{
    return [&m](std::span<const double> x, std::span<double> y) {
        const auto result = m.multiply(x);
        std::copy(result.begin(), result.end(), y.begin());
    };
}

TEST(Lanczos, DiagonalOperatorExtremes)
{
    const std::size_t n = 50;
    dense_matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = static_cast<double>(i) / static_cast<double>(n - 1); // [0, 1]
    const auto result = lanczos_extreme_eigenvalues(dense_apply(m), n, {});
    EXPECT_NEAR(result.largest, 1.0, 1e-8);
    EXPECT_NEAR(result.smallest, 0.0, 1e-8);
    EXPECT_TRUE(result.converged);
}

TEST(Lanczos, DeflationRemovesTopEigenvalue)
{
    const std::size_t n = 40;
    dense_matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    m(0, 0) = 5.0; // top eigenpair: e_0 with value 5
    std::vector<double> top(n, 0.0);
    top[0] = 1.0;
    const std::vector<std::vector<double>> deflate{top};
    const auto result = lanczos_extreme_eigenvalues(dense_apply(m), n, deflate);
    EXPECT_NEAR(result.largest, 1.0, 1e-8);
}

TEST(Lanczos, CycleLambdaMatchesAnalytic)
{
    for (const node_id n : {8, 16, 33}) {
        const graph g = make_cycle(n);
        const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
        const double lambda =
            compute_lambda(g, alpha, speed_profile::uniform(n));
        EXPECT_NEAR(lambda, cycle_lambda(n), 1e-8) << "n=" << n;
    }
}

TEST(Lanczos, TorusLambdaMatchesAnalytic)
{
    const graph g = make_torus_2d(8, 10);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const double lambda =
        compute_lambda(g, alpha, speed_profile::uniform(g.num_nodes()));
    EXPECT_NEAR(lambda, torus_2d_lambda(8, 10), 1e-8);
}

TEST(Lanczos, HypercubeLambdaMatchesAnalytic)
{
    const graph g = make_hypercube(7);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const double lambda =
        compute_lambda(g, alpha, speed_profile::uniform(g.num_nodes()));
    EXPECT_NEAR(lambda, hypercube_lambda(7), 1e-8);
}

TEST(Lanczos, CompleteGraphLambdaIsZero)
{
    const graph g = make_complete(20);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const double lambda =
        compute_lambda(g, alpha, speed_profile::uniform(g.num_nodes()));
    // K_n with alpha = 1/n: all non-trivial eigenvalues are exactly 0.
    EXPECT_NEAR(lambda, 0.0, 1e-7);
}

TEST(Lanczos, HeterogeneousLambdaMatchesDenseJacobi)
{
    const graph g = make_torus_2d(4, 4);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    std::vector<double> speeds(16, 1.0);
    for (std::size_t i = 0; i < speeds.size(); i += 3) speeds[i] = 4.0;
    const auto profile = speed_profile::from_vector(speeds);

    const double lanczos_lambda = compute_lambda(g, alpha, profile);

    // Reference: dense eigensolve on the symmetrized matrix.
    const auto sym = make_symmetrized_diffusion_operator(g, alpha, profile);
    dense_matrix dense(16, 16);
    for (node_id v = 0; v < 16; ++v) {
        std::vector<double> unit(16, 0.0);
        unit[v] = 1.0;
        const auto column = sym.apply(unit);
        for (node_id u = 0; u < 16; ++u) dense(u, v) = column[u];
    }
    const auto eigen = jacobi_eigen(dense);
    // eigen.values sorted descending; top is 1. lambda = max(|v2|, |vn|).
    const double reference =
        std::max(std::abs(eigen.values[1]), std::abs(eigen.values.back()));
    EXPECT_NEAR(lanczos_lambda, reference, 1e-7);
}

/// Every eigenvalue of the tridiagonal (alpha, beta), descending, via the
/// dense Jacobi reference.
std::vector<double> jacobi_tridiagonal_spectrum(const std::vector<double>& alpha,
                                                const std::vector<double>& beta)
{
    const std::size_t k = alpha.size();
    dense_matrix t(k, k);
    for (std::size_t i = 0; i < k; ++i) {
        t(i, i) = alpha[i];
        if (i + 1 < k) t(i, i + 1) = t(i + 1, i) = beta[i];
    }
    return jacobi_eigen(t).values;
}

void expect_extremes_match_jacobi(const std::vector<double>& alpha,
                                  const std::vector<double>& beta,
                                  const std::string& what)
{
    // ||T|| is the Frobenius norm: the Jacobi reference's own rounding
    // error grows with it (at k = 300 it sits ~1e-13 * ||T||_2 away from an
    // extended-precision Sturm count, while bisection stays within an ulp).
    double norm_sq = 0.0;
    for (const double a : alpha) norm_sq += a * a;
    for (const double b : beta) norm_sq += 2.0 * b * b;
    const double tolerance = 1e-13 * std::max(std::sqrt(norm_sq), 1.0);
    const auto reference = jacobi_tridiagonal_spectrum(alpha, beta);
    const std::size_t k = alpha.size();
    EXPECT_NEAR(tridiagonal_eigenvalue(alpha, beta, 0), reference.back(),
                tolerance)
        << what << " k=" << k << " (smallest)";
    EXPECT_NEAR(tridiagonal_eigenvalue(alpha, beta, k - 1), reference.front(),
                tolerance)
        << what << " k=" << k << " (largest)";
}

TEST(TridiagonalBisection, ExtremesMatchJacobiOnRandomTridiagonals)
{
    for (const std::size_t k : {1u, 2u, 3u, 50u, 300u}) {
        auto rng = tagged_rng(17, k);
        std::vector<double> alpha(k);
        std::vector<double> beta(k - 1);
        for (double& a : alpha) a = 2.0 * rng.next_double() - 1.0;
        for (double& b : beta) b = rng.next_double();
        expect_extremes_match_jacobi(alpha, beta, "random");

        if (k >= 3) {
            // Breakdown: a zero off-diagonal splits T into two blocks.
            std::vector<double> split = beta;
            split[k / 2] = 0.0;
            expect_extremes_match_jacobi(alpha, split, "split");
        }

        // Clustered spectrum: diagonal within 1e-9 of 0.5, off-diagonals at
        // 1e-8, so every eigenvalue sits in a 1e-7-wide cluster.
        std::vector<double> clustered_alpha(k);
        std::vector<double> clustered_beta(k - 1);
        for (double& a : clustered_alpha) a = 0.5 + 1e-9 * rng.next_double();
        for (double& b : clustered_beta) b = 1e-8 * rng.next_double();
        expect_extremes_match_jacobi(clustered_alpha, clustered_beta,
                                     "clustered");
    }
}

TEST(TridiagonalBisection, EveryIndexOfASmallMatrixMatchesJacobi)
{
    const std::vector<double> alpha{2.0, -1.0, 0.5, 3.0, 0.0};
    const std::vector<double> beta{1.0, 0.25, 2.0, 0.75};
    const auto reference = jacobi_tridiagonal_spectrum(alpha, beta);
    for (std::size_t j = 0; j < alpha.size(); ++j)
        EXPECT_NEAR(tridiagonal_eigenvalue(alpha, beta, j),
                    reference[alpha.size() - 1 - j], 1e-13)
            << "j=" << j;
    EXPECT_THROW(tridiagonal_eigenvalue(alpha, beta, alpha.size()),
                 std::invalid_argument);
    EXPECT_THROW(tridiagonal_eigenvalue(alpha, {}, 0), std::invalid_argument);
}

// Campaign-path lambda against the closed form, to within about one ulp.
TEST(Lanczos, Torus32LambdaMatchesClosedFormToMachinePrecision)
{
    const graph g = make_torus_2d(32, 32);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const double lambda =
        compute_lambda(g, alpha, speed_profile::uniform(g.num_nodes()));
    EXPECT_NEAR(lambda, torus_2d_lambda(32, 32), 1e-15);
}

TEST(Lanczos, Hypercube1024LambdaMatchesClosedFormToMachinePrecision)
{
    const graph g = make_hypercube(10);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const double lambda =
        compute_lambda(g, alpha, speed_profile::uniform(g.num_nodes()));
    EXPECT_NEAR(lambda, hypercube_lambda(10), 1e-15);
}

// The Ritz residual bounds the distance from the returned extreme to the
// operator's spectrum, converged or not.
TEST(Lanczos, ResidualBoundsTheDistanceToTheSpectrum)
{
    const graph g = make_torus_2d(8, 10);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    const dense_matrix m = make_dense_diffusion_matrix(g, alpha, speeds);
    const auto spectrum = jacobi_eigen(m).values;
    const auto sym = make_symmetrized_diffusion_operator(g, alpha, speeds);
    const std::vector<std::vector<double>> deflate{
        top_eigenvector_symmetrized(speeds)};
    const auto apply = [&sym](std::span<const double> x, std::span<double> y) {
        sym.apply(x, y);
    };

    for (const int iterations : {6, 12, 300}) {
        const auto result = lanczos_extreme_eigenvalues(
            apply, static_cast<std::size_t>(g.num_nodes()), deflate,
            iterations, 1e-11);
        const double extreme =
            std::abs(result.largest) >= std::abs(result.smallest)
                ? result.largest
                : result.smallest;
        double distance = std::abs(extreme - spectrum.front());
        for (const double value : spectrum)
            distance = std::min(distance, std::abs(extreme - value));
        EXPECT_LE(distance, result.residual + 1e-14)
            << "iterations=" << iterations;
        if (iterations == 300) {
            EXPECT_TRUE(result.converged);
            EXPECT_LT(result.residual, 1e-5);
        } else {
            EXPECT_FALSE(result.converged);
            EXPECT_GT(result.residual, 1e-6);
        }
    }
}

TEST(Lanczos, EmptyOperatorThrows)
{
    EXPECT_THROW(
        lanczos_extreme_eigenvalues([](auto, auto) {}, 0, {}),
        std::invalid_argument);
}

} // namespace
} // namespace dlb
