#include "linalg/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/vector_ops.hpp"
#include "util/rng.hpp"

namespace dlb {

namespace {

/// Removes the components of v along each (normalized) basis vector.
void project_out(std::span<double> v, std::span<const std::vector<double>> basis)
{
    for (const auto& b : basis) {
        const double coefficient = dot(v, b);
        axpy(-coefficient, b, v);
    }
}

/// Gershgorin interval of T: every eigenvalue lies in [lo, hi], and
/// norm = max(|lo|, |hi|) bounds ||T||.
struct gershgorin_interval {
    double lo = 0.0;
    double hi = 0.0;
    double norm = 0.0;
};

gershgorin_interval gershgorin(std::span<const double> alpha,
                               std::span<const double> beta)
{
    gershgorin_interval out{std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(), 0.0};
    const std::size_t k = alpha.size();
    for (std::size_t i = 0; i < k; ++i) {
        const double radius = (i > 0 ? std::abs(beta[i - 1]) : 0.0) +
                              (i + 1 < k ? std::abs(beta[i]) : 0.0);
        out.lo = std::min(out.lo, alpha[i] - radius);
        out.hi = std::max(out.hi, alpha[i] + radius);
    }
    out.norm = std::max(std::abs(out.lo), std::abs(out.hi));
    return out;
}

/// Number of eigenvalues of T strictly below x: by Sylvester's law of
/// inertia, the count of negative pivots of the LDL^T factorization of
/// T - xI. A pivot within `pivmin` of zero is replaced by -pivmin (the
/// LAPACK dstebz convention): the count stays exact for a slightly
/// perturbed T and the next division cannot overflow.
std::size_t count_below(std::span<const double> alpha,
                        std::span<const double> beta, double x, double pivmin)
{
    std::size_t count = 0;
    double pivot = 1.0;
    for (std::size_t i = 0; i < alpha.size(); ++i) {
        pivot = (alpha[i] - x) -
                (i > 0 ? beta[i - 1] * beta[i - 1] / pivot : 0.0);
        if (std::abs(pivot) <= pivmin) pivot = -pivmin;
        if (pivot < 0.0) ++count;
    }
    return count;
}

/// |s_k|, the magnitude of the last entry of T's unit eigenvector for the
/// extreme eigenvalue theta: two steps of inverse iteration, each one O(k)
/// LDL^T solve of T - theta I. At an extreme eigenvalue T - theta I is
/// semidefinite, so the unpivoted factorization is stable; the pivot of the
/// (near-)singular direction is floored at eps * ||T||.
double last_eigenvector_entry(std::span<const double> alpha,
                              std::span<const double> beta, double theta)
{
    const std::size_t k = alpha.size();
    if (k == 1) return 1.0;
    const double floor =
        std::max(std::numeric_limits<double>::epsilon() *
                     gershgorin(alpha, beta).norm,
                 std::numeric_limits<double>::min());
    const auto floored = [floor](double pivot) {
        return std::abs(pivot) >= floor ? pivot
                                        : (pivot < 0.0 ? -floor : floor);
    };

    std::vector<double> pivots(k);
    std::vector<double> multipliers(k - 1);
    pivots[0] = floored(alpha[0] - theta);
    for (std::size_t i = 1; i < k; ++i) {
        multipliers[i - 1] = beta[i - 1] / pivots[i - 1];
        pivots[i] = floored(alpha[i] - theta - multipliers[i - 1] * beta[i - 1]);
    }

    std::vector<double> x(k, 1.0);
    for (int step = 0; step < 2; ++step) {
        for (std::size_t i = 1; i < k; ++i) x[i] -= multipliers[i - 1] * x[i - 1];
        for (std::size_t i = 0; i < k; ++i) x[i] /= pivots[i];
        for (std::size_t i = k - 1; i-- > 0;) x[i] -= multipliers[i] * x[i + 1];
        scale(x, 1.0 / norm2(x));
    }
    return std::abs(x[k - 1]);
}

} // namespace

double tridiagonal_eigenvalue(std::span<const double> alpha,
                              std::span<const double> beta, std::size_t j)
{
    const std::size_t k = alpha.size();
    if (k == 0 || beta.size() + 1 != k)
        throw std::invalid_argument(
            "tridiagonal_eigenvalue: need k >= 1 diagonal and k - 1 "
            "off-diagonal entries");
    if (j >= k)
        throw std::invalid_argument("tridiagonal_eigenvalue: index out of range");

    double max_beta_sq = 1.0;
    for (const double b : beta) max_beta_sq = std::max(max_beta_sq, b * b);
    const double pivmin = std::numeric_limits<double>::min() * max_beta_sq;
    const double eps = std::numeric_limits<double>::epsilon();

    // Widen the Gershgorin interval by the count's rounding error so that
    // count_below(lo) <= j < count_below(hi) holds in floating point too.
    const gershgorin_interval bounds = gershgorin(alpha, beta);
    const double slack = 2.0 * eps * bounds.norm * static_cast<double>(k) +
                         2.0 * pivmin;
    double lo = bounds.lo - slack;
    double hi = bounds.hi + slack;
    const double zero_width = eps * eps * bounds.norm + pivmin;

    // Invariant: lambda_j lies in [lo, hi).
    while (true) {
        const double mid = lo + 0.5 * (hi - lo);
        if (mid <= lo || mid >= hi || hi - lo <= zero_width) break;
        if (count_below(alpha, beta, mid, pivmin) > j)
            hi = mid;
        else
            lo = mid;
    }
    return lo + 0.5 * (hi - lo);
}

lanczos_result lanczos_extreme_eigenvalues(
    const std::function<void(std::span<const double>, std::span<double>)>& apply,
    std::size_t n, std::span<const std::vector<double>> deflate,
    int max_iterations, double tolerance, std::uint64_t seed)
{
    if (n == 0) throw std::invalid_argument("lanczos: empty operator");
    for (const auto& b : deflate)
        if (b.size() != n)
            throw std::invalid_argument("lanczos: deflation vector size mismatch");

    const int kmax = std::min<int>(max_iterations, static_cast<int>(n));

    // Krylov basis with full reorthogonalization (kept densely; the intended
    // use is kmax <= ~200 so memory is kmax * n doubles).
    std::vector<std::vector<double>> basis;
    basis.reserve(static_cast<std::size_t>(kmax));

    std::vector<double> alpha;
    std::vector<double> beta;
    std::vector<double> v(n);
    std::vector<double> w(n);

    // Random deterministic start orthogonal to the deflated space.
    auto rng = tagged_rng(seed, n);
    for (auto& entry : v) entry = rng.next_double() - 0.5;
    project_out(v, deflate);
    double v_norm = norm2(v);
    if (v_norm < 1e-300)
        throw std::runtime_error("lanczos: start vector vanished after deflation");
    scale(v, 1.0 / v_norm);

    lanczos_result result;
    double prev_largest = 0.0;
    double prev_smallest = 0.0;
    double last_b = 0.0;

    for (int k = 0; k < kmax; ++k) {
        basis.push_back(v);
        apply(v, w);

        const double a_k = dot(w, v);
        alpha.push_back(a_k);

        // w <- w - a_k v - b_{k-1} v_{k-1}, then full reorthogonalization
        // against the whole basis and the deflated space (twice for safety).
        axpy(-a_k, v, w);
        if (k > 0) axpy(-beta.back(), basis[static_cast<std::size_t>(k) - 1], w);
        for (int pass = 0; pass < 2; ++pass) {
            project_out(w, deflate);
            for (const auto& b : basis) {
                const double c = dot(w, b);
                axpy(-c, b, w);
            }
        }

        const double b_k = norm2(w);
        result.iterations = k + 1;
        last_b = b_k;

        // Extremes are checked every 8th iteration (and at breakdown / the
        // final step); the stopping rule compares successive checks, so
        // this cadence fixes the iteration count.
        const bool check_now =
            b_k < tolerance || k == kmax - 1 || (k >= 8 && k % 8 == 0);
        if (check_now) {
            const double largest =
                tridiagonal_eigenvalue(alpha, beta, alpha.size() - 1);
            const double smallest = tridiagonal_eigenvalue(alpha, beta, 0);
            result.largest = largest;
            result.smallest = smallest;

            if (b_k < tolerance) {
                // Invariant subspace found: extremes are exact for it.
                result.converged = true;
                break;
            }
            if (k >= 16 && std::abs(largest - prev_largest) < tolerance &&
                std::abs(smallest - prev_smallest) < tolerance) {
                result.converged = true;
                break;
            }
            prev_largest = largest;
            prev_smallest = smallest;
        }

        beta.push_back(b_k);
        for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / b_k;
    }

    if (alpha.empty()) return result; // max_iterations <= 0
    // The last check saw T_k = (alpha, first k - 1 betas); a run that hit
    // kmax has already appended b_k past it.
    const std::span<const double> t_beta =
        std::span<const double>(beta).first(alpha.size() - 1);
    const double extreme = std::abs(result.largest) >= std::abs(result.smallest)
                               ? result.largest
                               : result.smallest;
    result.residual = last_b * last_eigenvector_entry(alpha, t_beta, extreme);
    return result;
}

double lanczos_lambda2(
    const std::function<void(std::span<const double>, std::span<double>)>& apply,
    std::size_t n, std::span<const std::vector<double>> deflate,
    int max_iterations, double tolerance, std::uint64_t seed)
{
    const auto extremes = lanczos_extreme_eigenvalues(apply, n, deflate,
                                                      max_iterations, tolerance, seed);
    return std::max(std::abs(extremes.largest), std::abs(extremes.smallest));
}

} // namespace dlb
