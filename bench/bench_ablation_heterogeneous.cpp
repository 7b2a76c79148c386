// Ablation A4: heterogeneous networks (Sections II-c and IV). Sweeps the
// speed spread s_max with bimodal and zipf profiles and reports convergence
// to the speed-proportional fixed point plus the deviation from the
// continuous twin — Theorems 4/9 predict only a log(s_max) growth.
#include <cmath>
#include <iomanip>

#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    bench::bench_context ctx(args);

    const node_id side = static_cast<node_id>(args.get_int("side", 32));
    const auto rounds = ctx.rounds_or(4000);
    const graph g = make_torus_2d(side, side);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);

    bench::banner("Ablation A4: heterogeneous speeds, torus " +
                      std::to_string(side) + "^2",
                  "deviation grows ~log(s_max) (Theorems 4/9), fixed point is "
                  "speed-proportional");

    std::cout << "  " << std::left << std::setw(26) << "profile" << std::setw(12)
              << "lambda" << std::setw(22) << "worst |load-ideal|"
              << std::setw(20) << "max twin deviation" << "\n";

    std::vector<double> deviations;
    std::vector<double> smax_values{2.0, 8.0, 32.0};
    for (const double smax : smax_values) {
        const auto speeds =
            speed_profile::bimodal(g.num_nodes(), 0.25, smax, ctx.seed);
        const double lambda = compute_lambda(g, alpha, speeds);

        experiment_config config;
        config.diffusion = {&g, alpha, speeds, sos_scheme(beta_opt(lambda))};
        config.rounds = rounds;
        config.seed = ctx.seed;
        config.exec = &ctx.pool;
        config.switching = switch_policy::at(rounds / 2);
        config.run_continuous_twin = true;
        config.record_every = std::max<std::int64_t>(1, rounds / 100);

        const std::int64_t total = g.num_nodes() * 1000LL;
        const auto outcome = run_experiment_with_final_load(
            config, point_load(g.num_nodes(), 0, total));

        const auto ideal = speeds.ideal_load(static_cast<double>(total));
        double worst = 0.0;
        for (node_id v = 0; v < g.num_nodes(); ++v)
            worst = std::max(worst,
                             std::abs(static_cast<double>(outcome.final_load[v]) -
                                      ideal[v]));
        const double twin_deviation =
            *std::max_element(outcome.series.deviation_from_twin.begin(),
                              outcome.series.deviation_from_twin.end());
        std::cout << "  " << std::left << std::setw(26)
                  << ("bimodal s_max=" + format_double(smax)) << std::setw(12)
                  << std::setprecision(6) << lambda << std::setw(22) << worst
                  << std::setw(20) << twin_deviation << "\n";
        deviations.push_back(twin_deviation);
    }

    // Zipf long tail for contrast.
    {
        const auto speeds = speed_profile::zipf(g.num_nodes(), 0.8, 32.0, ctx.seed);
        const double lambda = compute_lambda(g, alpha, speeds);
        experiment_config config;
        config.diffusion = {&g, alpha, speeds, sos_scheme(beta_opt(lambda))};
        config.rounds = rounds;
        config.seed = ctx.seed;
        config.exec = &ctx.pool;
        config.switching = switch_policy::at(rounds / 2);
        const std::int64_t total = g.num_nodes() * 1000LL;
        const auto outcome = run_experiment_with_final_load(
            config, point_load(g.num_nodes(), 0, total));
        const auto ideal = speeds.ideal_load(static_cast<double>(total));
        double worst = 0.0;
        for (node_id v = 0; v < g.num_nodes(); ++v)
            worst = std::max(worst,
                             std::abs(static_cast<double>(outcome.final_load[v]) -
                                      ideal[v]));
        std::cout << "  " << std::left << std::setw(26) << "zipf s_max=32"
                  << std::setw(12) << lambda << std::setw(22) << worst
                  << std::setw(20) << "-" << "\n";
    }

    // Theorem 4/9 shape: deviation grows far slower than s_max itself.
    const double growth = deviations.back() / std::max(1.0, deviations.front());
    const double smax_growth = smax_values.back() / smax_values.front();
    bench::compare_row("deviation growth s_max 2->32", std::log2(32.0) / 1.0,
                       growth);
    bench::verdict(growth < smax_growth / 2.0,
                   "twin deviation grows sub-linearly in s_max (log-like), "
                   "matching the Theorem 4/9 dependence");
    return bench::exit_code();
}
