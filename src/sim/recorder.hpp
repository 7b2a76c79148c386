// Time-series container and CSV/console output for experiment runs.
#ifndef DLB_SIM_RECORDER_HPP
#define DLB_SIM_RECORDER_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/process.hpp"

namespace dlb {

/// Per-round metric series recorded by the runner (paper Section VI
/// metrics 1-3 and 5, plus deviation when a continuous twin runs).
struct time_series {
    std::vector<std::int64_t> rounds;
    std::vector<double> max_minus_average;    // phi_global = Delta(t)
    std::vector<double> max_local_difference; // phi_local
    std::vector<double> potential_over_n;     // phi_t / n
    std::vector<double> min_load;
    std::vector<double> min_transient_load;
    std::vector<double> deviation_from_twin;  // empty unless twin enabled
    std::vector<double> total_load_error;     // |total(t) - total(0)|, FP drift

    std::int64_t switch_round = -1;           // -1: never switched
    std::int64_t total_injected = 0;          // workload tokens added (dynamic runs)
    std::int64_t total_drained = 0;           // workload tokens removed, >= 0
    negative_load_stats negative;
    double remaining_imbalance = 0.0;         // plateau median (metric 5)
    bool imbalance_converged = false;

    std::size_t size() const noexcept { return rounds.size(); }
};

/// Writes the series as CSV with a fixed column set, atomically
/// (util/tempfile.hpp): on failure it throws std::runtime_error and leaves
/// neither a partial file nor a temp behind.
void write_csv(const std::string& path, const time_series& series);

/// Compact human-readable summary (first/last values, minima, plateau).
void print_summary(std::ostream& out, const std::string& label,
                   const time_series& series);

/// Sparse console plot: prints `points` sampled rows of one metric column.
void print_series(std::ostream& out, const std::string& label,
                  const time_series& series,
                  const std::vector<double> time_series::*column,
                  int points = 12);

} // namespace dlb

#endif // DLB_SIM_RECORDER_HPP
