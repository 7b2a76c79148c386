#include "sim/recorder.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/csv.hpp"
#include "util/tempfile.hpp"

namespace dlb {

void write_csv(const std::string& path, const time_series& series)
{
    // The whole file is built in memory and saved through the atomic
    // writer, so a failed write throws instead of leaving a truncated file.
    std::ostringstream bytes;
    bytes << "round,max_minus_average,max_local_difference,potential_over_n,"
             "min_load,min_transient_load,deviation_from_twin,"
             "total_load_error\n";
    for (std::size_t i = 0; i < series.size(); ++i) {
        auto cell = [&](const std::vector<double>& column) {
            return column.empty() ? std::string{} : format_double(column[i]);
        };
        bytes << series.rounds[i] << ',' << cell(series.max_minus_average)
              << ',' << cell(series.max_local_difference) << ','
              << cell(series.potential_over_n) << ','
              << cell(series.min_load) << ','
              << cell(series.min_transient_load) << ','
              << cell(series.deviation_from_twin) << ','
              << cell(series.total_load_error) << '\n';
    }
    write_file_atomic(path, bytes.str(), "series");
}

void print_summary(std::ostream& out, const std::string& label,
                   const time_series& series)
{
    if (series.size() == 0) {
        out << label << ": (empty series)\n";
        return;
    }
    const auto last = series.size() - 1;
    out << label << ":\n"
        << "  rounds recorded      : " << series.size() << " (last round "
        << series.rounds[last] << ")\n"
        << "  max-avg   first/last : " << series.max_minus_average.front()
        << " / " << series.max_minus_average[last] << "\n"
        << "  local-diff first/last: " << series.max_local_difference.front()
        << " / " << series.max_local_difference[last] << "\n"
        << "  potential/n last     : " << series.potential_over_n[last] << "\n"
        << "  min load (all rounds): " << series.negative.min_end_of_round_load
        << "  transient: " << series.negative.min_transient_load << "\n"
        << "  negative rounds      : end="
        << series.negative.rounds_with_negative_end_load
        << " transient=" << series.negative.rounds_with_negative_transient << "\n";
    if (series.switch_round >= 0)
        out << "  switched SOS->FOS at : round " << series.switch_round << "\n";
    if (series.imbalance_converged)
        out << "  remaining imbalance  : " << series.remaining_imbalance << "\n";
    if (!series.deviation_from_twin.empty()) {
        const double worst = *std::max_element(series.deviation_from_twin.begin(),
                                               series.deviation_from_twin.end());
        out << "  twin deviation  last : " << series.deviation_from_twin[last]
            << "  max: " << worst << "\n";
    }
}

void print_series(std::ostream& out, const std::string& label,
                  const time_series& series,
                  const std::vector<double> time_series::*column, int points)
{
    const auto& data = series.*column;
    if (data.empty()) {
        out << label << ": (no data)\n";
        return;
    }
    out << "  " << std::left << std::setw(24) << label << ":";
    const std::size_t count = data.size();
    for (int p = 0; p < points; ++p) {
        const std::size_t idx =
            points <= 1 ? count - 1
                        : std::min(count - 1, p * (count - 1) / (points - 1));
        out << " [" << series.rounds[idx] << "]=" << std::setprecision(4)
            << data[idx];
    }
    out << "\n";
}

} // namespace dlb
