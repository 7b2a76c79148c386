// Euclidean helpers on raw vectors, shared by the dense and the Krylov
// (Lanczos) code paths.
#ifndef DLB_LINALG_VECTOR_OPS_HPP
#define DLB_LINALG_VECTOR_OPS_HPP

#include <cmath>
#include <cstddef>
#include <span>

namespace dlb {

inline double dot(std::span<const double> a, std::span<const double> b)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
    return acc;
}

inline double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

/// y += a * x
inline void axpy(double a, std::span<const double> x, std::span<double> y)
{
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
}

inline void scale(std::span<double> x, double a)
{
    for (double& v : x) v *= a;
}

} // namespace dlb

#endif // DLB_LINALG_VECTOR_OPS_HPP
