// Ablation A5 (extension): balancing-circuit comparison on the torus —
// FOS vs SOS(beta_opt) vs Chebyshev semi-iteration vs random-matching
// dimension exchange vs the cumulative baseline. Reports rounds to reach a
// potential threshold and the remaining imbalance.
#include <iomanip>

#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    bench::bench_context ctx(args);

    const node_id side = static_cast<node_id>(
        args.get_int("side", ctx.full ? 316 : 64));
    const auto rounds = ctx.rounds_or(ctx.full ? 8000 : 4000);
    const graph g = make_torus_2d(side, side);
    const double lambda = torus_2d_lambda(side, side);
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL);

    bench::banner("Ablation A5: balancing circuits, torus " +
                      std::to_string(side) + "^2",
                  "Chebyshev <= SOS << FOS in rounds; matching slowest; all "
                  "plateau at small constants");

    std::cout << "  " << std::left << std::setw(16) << "circuit"
              << std::setw(24) << "rounds to pot/n<100" << std::setw(18)
              << "final max-avg" << "\n";

    auto report = [&](const std::string& name, const time_series& series) {
        std::int64_t cross = rounds + 1;
        for (std::size_t i = 0; i < series.size(); ++i)
            if (series.potential_over_n[i] < 100.0) {
                cross = series.rounds[i];
                break;
            }
        std::cout << "  " << std::left << std::setw(16) << name << std::setw(24)
                  << cross << std::setw(18) << series.max_minus_average.back()
                  << "\n";
        ctx.maybe_csv("ablation_schemes_" + name, series);
        return cross;
    };

    auto run_scheme = [&](scheme_params scheme) {
        auto config = bench::make_experiment(g, scheme, ctx);
        config.rounds = rounds;
        config.record_every = std::max<std::int64_t>(1, rounds / 400);
        return run_experiment(config, initial);
    };

    const auto fos_cross = report("fos", run_scheme(fos_scheme()));
    const auto sos_cross = report("sos", run_scheme(sos_scheme(beta_opt(lambda))));
    const auto cheb_cross =
        report("chebyshev", run_scheme(chebyshev_scheme(lambda)));

    // Cumulative baseline with SOS inside.
    {
        auto config = bench::make_experiment(g, sos_scheme(beta_opt(lambda)), ctx);
        config.rounds = rounds;
        config.process = process_kind::cumulative;
        config.record_every = std::max<std::int64_t>(1, rounds / 400);
        report("cumulative", run_experiment(config, initial));
    }

    // Matching circuit (separate engine: one partner per round).
    std::int64_t matching_cross = rounds + 1;
    {
        matching_process proc(g, initial, ctx.seed);
        const std::vector<double> ideal(static_cast<std::size_t>(g.num_nodes()),
                                        1000.0);
        time_series series;
        for (std::int64_t t = 0; t <= rounds; ++t) {
            const double pot = potential(proc.load(), std::span<const double>(ideal)) /
                               static_cast<double>(g.num_nodes());
            if (pot < 100.0 && matching_cross > rounds) {
                matching_cross = t;
                break;
            }
            if (t < rounds) proc.step();
        }
        std::cout << "  " << std::left << std::setw(16) << "matching"
                  << std::setw(24) << matching_cross << std::setw(18)
                  << max_minus_average(proc.load()) << "\n";
    }

    bench::compare_row("Chebyshev vs SOS crossing", 1.0,
                       static_cast<double>(cheb_cross) /
                           static_cast<double>(sos_cross));
    bench::verdict(cheb_cross <= sos_cross * 5 / 4 && sos_cross * 3 < fos_cross &&
                       fos_cross <= matching_cross,
                   "Chebyshev ~ SOS << FOS <= matching in convergence rounds");
    return bench::exit_code();
}
