#include "linalg/dense_matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace dlb {

dense_matrix dense_matrix::identity(std::size_t n)
{
    dense_matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

dense_matrix dense_matrix::multiply(const dense_matrix& other) const
{
    if (cols_ != other.rows_)
        throw std::invalid_argument("dense_matrix::multiply: shape mismatch");
    dense_matrix result(rows_, other.cols_);
    // i-k-j loop order keeps the inner loop contiguous in both inputs.
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double a_ik = (*this)(i, k);
            if (a_ik == 0.0) continue;
            const double* other_row = other.data_.data() + k * other.cols_;
            double* out_row = result.data_.data() + i * other.cols_;
            for (std::size_t j = 0; j < other.cols_; ++j)
                out_row[j] += a_ik * other_row[j];
        }
    }
    return result;
}

std::vector<double> dense_matrix::multiply(std::span<const double> x) const
{
    if (x.size() != cols_)
        throw std::invalid_argument("dense_matrix::multiply: vector size mismatch");
    std::vector<double> y(rows_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
        const double* row_ptr = data_.data() + i * cols_;
        double acc = 0.0;
        for (std::size_t j = 0; j < cols_; ++j) acc += row_ptr[j] * x[j];
        y[i] = acc;
    }
    return y;
}

std::vector<double> dense_matrix::multiply_transposed(std::span<const double> x) const
{
    if (x.size() != rows_)
        throw std::invalid_argument(
            "dense_matrix::multiply_transposed: vector size mismatch");
    std::vector<double> y(cols_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
        const double xi = x[i];
        if (xi == 0.0) continue;
        const double* row_ptr = data_.data() + i * cols_;
        for (std::size_t j = 0; j < cols_; ++j) y[j] += row_ptr[j] * xi;
    }
    return y;
}

dense_matrix dense_matrix::linear_combination(double a, double b,
                                              const dense_matrix& other) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        throw std::invalid_argument("dense_matrix::linear_combination: shape mismatch");
    dense_matrix result(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        result.data_[i] = a * data_[i] + b * other.data_[i];
    return result;
}

dense_matrix dense_matrix::transposed() const
{
    dense_matrix result(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j) result(j, i) = (*this)(i, j);
    return result;
}

double dense_matrix::max_abs_diff(const dense_matrix& other) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        throw std::invalid_argument("dense_matrix::max_abs_diff: shape mismatch");
    double best = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i)
        best = std::max(best, std::abs(data_[i] - other.data_[i]));
    return best;
}

double dense_matrix::max_abs() const
{
    double best = 0.0;
    for (const double v : data_) best = std::max(best, std::abs(v));
    return best;
}

double dense_matrix::frobenius_norm() const
{
    double acc = 0.0;
    for (const double v : data_) acc += v * v;
    return std::sqrt(acc);
}

} // namespace dlb
