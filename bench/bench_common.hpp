// Shared plumbing for the figure/table reproduction binaries.
//
// Every binary accepts:
//   --full        paper-scale sizes (default: laptop-scale with the same
//                 qualitative shape)
//   --csv DIR     also write the recorded series as CSV files into DIR
//   --rounds N    override the round budget
//   --seed S      override the RNG seed
// and prints a compact "paper expectation vs measured" summary to stdout.
// main returns exit_code(): nonzero once any verdict found a mismatch, so
// ctest (label `paper`) gates on the paper's qualitative claims.
#ifndef DLB_BENCH_COMMON_HPP
#define DLB_BENCH_COMMON_HPP

#include <filesystem>
#include <iostream>
#include <string>

#include "dlb.hpp"

namespace dlb::bench {

struct bench_context {
    bool full = false;
    std::string csv_dir;
    std::int64_t rounds_override = -1;
    std::uint64_t seed = 20150622; // ICDCS'15 conference date
    thread_pool pool;

    explicit bench_context(const cli_args& args)
        : full(args.has("full")),
          csv_dir(args.get_string("csv", "")),
          rounds_override(args.get_int("rounds", -1)),
          seed(args.get_uint64("seed", 20150622))
    {
        if (!csv_dir.empty()) std::filesystem::create_directories(csv_dir);
    }

    std::int64_t rounds_or(std::int64_t fallback) const
    {
        return rounds_override > 0 ? rounds_override : fallback;
    }

    void maybe_csv(const std::string& name, const time_series& series) const
    {
        if (csv_dir.empty()) return;
        const std::string path = csv_dir + "/" + name + ".csv";
        write_csv(path, series);
        std::cout << "  csv -> " << path << "\n";
    }
};

/// Homogeneous experiment config with the paper-default alpha.
inline experiment_config make_experiment(const graph& g, scheme_params scheme,
                                         bench_context& ctx)
{
    experiment_config config;
    config.diffusion = {&g, make_alpha(g, alpha_policy::max_degree_plus_one),
                        speed_profile::uniform(g.num_nodes()), scheme};
    config.seed = ctx.seed;
    config.exec = &ctx.pool;
    return config;
}

inline void banner(const std::string& title, const std::string& paper_shape)
{
    std::cout << "\n=== " << title << " ===\n"
              << "paper shape: " << paper_shape << "\n";
}

/// Prints one row of a paper-vs-measured comparison.
inline void compare_row(const std::string& what, double paper, double measured)
{
    std::cout << "  " << what << ": paper ~" << paper << ", measured "
              << measured << "\n";
}

inline bool shape_mismatch = false; // set by the first failed verdict

inline void verdict(bool shape_holds, const std::string& detail)
{
    if (!shape_holds) shape_mismatch = true;
    std::cout << (shape_holds ? "[SHAPE HOLDS] " : "[SHAPE MISMATCH] ") << detail
              << "\n";
}

inline int exit_code() { return shape_mismatch ? 1 : 0; }

} // namespace dlb::bench

#endif // DLB_BENCH_COMMON_HPP
