// Ablation A2: beta sensitivity. Sweeps beta around beta_opt on the torus
// and reports convergence rounds plus negative-load exposure. Paper theory:
// convergence in O(log(Kn)/sqrt(1-lambda)) only at beta_opt; smaller beta
// degrades towards FOS, larger beta (still < 2) oscillates longer and digs
// deeper into negative transient load.
#include <iomanip>

#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    bench::bench_context ctx(args);

    const node_id side = static_cast<node_id>(args.get_int("side", 64));
    const auto rounds = ctx.rounds_or(3000);
    const graph g = make_torus_2d(side, side);
    const double lambda = torus_2d_lambda(side, side);
    const double opt = beta_opt(lambda);
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL);

    bench::banner("Ablation A2: beta sweep, torus " + std::to_string(side) +
                      "^2 (beta_opt = " + format_double(opt) + ")",
                  "fastest convergence at beta_opt; deeper transient "
                  "negatives as beta -> 2");

    std::cout << "  " << std::left << std::setw(10) << "beta" << std::setw(22)
              << "rounds to pot/n<100" << std::setw(20) << "min transient load"
              << std::setw(16) << "final max-avg" << "\n";

    std::int64_t best_rounds = rounds + 1;
    double best_beta = 1.0;
    double transient_at_opt = 0.0, transient_high = 0.0;

    const std::vector<double> betas{1.0, 0.5 + opt / 2.0, 0.9 * opt + 0.1,
                                    opt, std::min(1.999, opt + 0.5 * (2.0 - opt)),
                                    1.999};
    for (const double beta : betas) {
        auto config = bench::make_experiment(
            g, beta == 1.0 ? fos_scheme() : sos_scheme(beta), ctx);
        config.rounds = rounds;
        config.record_every = std::max<std::int64_t>(1, rounds / 400);
        const auto series = run_experiment(config, initial);

        std::int64_t cross = rounds + 1;
        for (std::size_t i = 0; i < series.size(); ++i)
            if (series.potential_over_n[i] < 100.0) {
                cross = series.rounds[i];
                break;
            }
        std::cout << "  " << std::left << std::setw(10) << std::setprecision(5)
                  << beta << std::setw(22) << cross << std::setw(20)
                  << series.negative.min_transient_load << std::setw(16)
                  << series.max_minus_average.back() << "\n";
        if (cross < best_rounds) {
            best_rounds = cross;
            best_beta = beta;
        }
        if (beta == opt) transient_at_opt = series.negative.min_transient_load;
        if (beta == betas.back())
            transient_high = series.negative.min_transient_load;
    }

    bench::compare_row("argmin over swept betas vs beta_opt", opt, best_beta);
    bench::verdict(std::abs(best_beta - opt) <= 0.25 * (2.0 - opt) &&
                       transient_high <= transient_at_opt,
                   "convergence optimum sits at ~beta_opt; pushing beta to 2 "
                   "deepens negative transient load");
    return bench::exit_code();
}
