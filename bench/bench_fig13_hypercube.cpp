// Figure 13: load balancing on the hypercube (paper: n = 2^20; switch to
// FOS after 32 steps shown in green, metric lines to round 200). Paper:
// SOS's advantage is small (large spectral gap); the FOS remaining
// imbalance is smaller by one token than SOS's.
#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    bench::bench_context ctx(args);

    const int dim = static_cast<int>(args.get_int("dim", ctx.full ? 20 : 16));
    const auto rounds = ctx.rounds_or(200);
    const graph g = make_hypercube(dim);
    const double lambda = hypercube_lambda(dim);
    const double beta = beta_opt(lambda);
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 100LL);

    bench::banner("Figure 13: hypercube 2^" + std::to_string(dim),
                  "SOS ~ FOS (gap 2/(d+1)); FOS remaining imbalance smaller "
                  "by about one token; switch at 32/50 changes little");
    std::cout << "  lambda = " << lambda << ", beta_opt = " << beta
              << " (paper Table I: 1.4026054847 at 2^20)\n";

    auto sos_config = bench::make_experiment(g, sos_scheme(beta), ctx);
    sos_config.rounds = rounds;
    const auto sos = run_experiment(sos_config, initial);
    print_summary(std::cout, "SOS", sos);
    print_series(std::cout, "SOS max-avg", sos, &time_series::max_minus_average);
    ctx.maybe_csv("fig13_sos", sos);

    auto fos_config = bench::make_experiment(g, fos_scheme(), ctx);
    fos_config.rounds = rounds;
    const auto fos = run_experiment(fos_config, initial);
    print_summary(std::cout, "FOS", fos);
    ctx.maybe_csv("fig13_fos", fos);

    auto switch_config = sos_config;
    switch_config.switching = switch_policy::at(32);
    const auto switched = run_experiment(switch_config, initial);
    print_summary(std::cout, "SOS->FOS at 32", switched);
    ctx.maybe_csv("fig13_switch32", switched);

    auto rounds_below = [](const time_series& s, double threshold) {
        for (std::size_t i = 0; i < s.size(); ++i)
            if (s.max_minus_average[i] < threshold) return s.rounds[i];
        return s.rounds.back() + 1;
    };
    const auto sos_cross = rounds_below(sos, 10.0);
    const auto fos_cross = rounds_below(fos, 10.0);
    bench::compare_row("rounds to max-avg<10 (SOS)", 40.0,
                       static_cast<double>(sos_cross));
    bench::compare_row("rounds to max-avg<10 (FOS)", 60.0,
                       static_cast<double>(fos_cross));
    bench::compare_row("FOS imbalance minus SOS imbalance", -1.0,
                       fos.max_minus_average.back() -
                           sos.max_minus_average.back());
    bench::verdict(sos_cross <= fos_cross && fos_cross <= 3 * sos_cross &&
                       fos.max_minus_average.back() <=
                           sos.max_minus_average.back() + 0.5,
                   "negligible SOS/FOS difference on the hypercube, FOS floor "
                   "slightly lower");
    return bench::exit_code();
}
