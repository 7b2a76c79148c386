// Row-major dense matrix. Used for small-graph spectral analysis (the
// paper's LAPACK substitute) and for validating the Q(t) second-order
// matrix recursion in tests. Not intended for large n.
#ifndef DLB_LINALG_DENSE_MATRIX_HPP
#define DLB_LINALG_DENSE_MATRIX_HPP

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/vector_ops.hpp" // dot / norm2 / axpy / scale

namespace dlb {

class dense_matrix {
public:
    dense_matrix() = default;

    /// rows x cols zero matrix.
    dense_matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
    {
    }

    static dense_matrix identity(std::size_t n);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }

    double& operator()(std::size_t i, std::size_t j) noexcept
    {
        return data_[i * cols_ + j];
    }
    double operator()(std::size_t i, std::size_t j) const noexcept
    {
        return data_[i * cols_ + j];
    }

    std::span<const double> row(std::size_t i) const noexcept
    {
        return {data_.data() + i * cols_, cols_};
    }

    std::span<double> row(std::size_t i) noexcept
    {
        return {data_.data() + i * cols_, cols_};
    }

    /// this * other. Throws std::invalid_argument on shape mismatch.
    dense_matrix multiply(const dense_matrix& other) const;

    /// this * x (x has cols() entries).
    std::vector<double> multiply(std::span<const double> x) const;

    /// this^T * x (x has rows() entries).
    std::vector<double> multiply_transposed(std::span<const double> x) const;

    /// a*this + b*other, same shape.
    dense_matrix linear_combination(double a, double b, const dense_matrix& other) const;

    dense_matrix transposed() const;

    /// max_ij |this_ij - other_ij|.
    double max_abs_diff(const dense_matrix& other) const;

    /// max_ij |this_ij|.
    double max_abs() const;

    /// Frobenius norm.
    double frobenius_norm() const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

} // namespace dlb

#endif // DLB_LINALG_DENSE_MATRIX_HPP
