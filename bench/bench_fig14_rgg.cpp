// Figure 14: random geometric graph with 10^4 nodes in [0, sqrt(n)]^2
// (paper radius "sqrt(log n)" per the figure caption; isolated components
// attached to the giant component). Paper: behavior "very similar to the
// torus" but with a less pronounced potential drop; switch to FOS at 500.
#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    bench::bench_context ctx(args);

    const node_id n = static_cast<node_id>(args.get_int("nodes", 10000));
    const double radius = rgg_paper_radius(n, args.get_double("radius-factor", 1.0));
    const auto rounds = ctx.rounds_or(1000);
    const graph g = make_random_geometric(n, radius, ctx.seed);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    const double lambda = compute_lambda(g, alpha, speeds);
    const double beta = beta_opt(lambda);
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL);

    bench::banner("Figure 14: RGG n=" + std::to_string(n),
                  "torus-like: clear SOS advantage, switch at 500 drops the "
                  "imbalance");
    std::cout << "  radius = " << radius << " (degrees: min " << g.min_degree()
              << " max " << g.max_degree() << " avg " << g.average_degree()
              << ")\n  lambda = " << lambda << ", beta_opt = " << beta
              << " (paper Table I: 1.9554636334)\n";

    experiment_config sos_config;
    sos_config.diffusion = {&g, alpha, speeds, sos_scheme(beta)};
    sos_config.rounds = rounds;
    sos_config.seed = ctx.seed;
    sos_config.exec = &ctx.pool;
    sos_config.record_every = std::max<std::int64_t>(1, rounds / 200);
    const auto sos = run_experiment(sos_config, initial);
    print_summary(std::cout, "SOS", sos);
    ctx.maybe_csv("fig14_sos", sos);

    auto fos_config = sos_config;
    fos_config.diffusion.scheme = fos_scheme();
    const auto fos = run_experiment(fos_config, initial);
    print_summary(std::cout, "FOS", fos);
    ctx.maybe_csv("fig14_fos", fos);

    auto switch_config = sos_config;
    switch_config.switching = switch_policy::at(500);
    const auto switched = run_experiment(switch_config, initial);
    print_summary(std::cout, "SOS->FOS at 500", switched);
    ctx.maybe_csv("fig14_switch500", switched);

    auto rounds_below = [](const time_series& s, double threshold) {
        for (std::size_t i = 0; i < s.size(); ++i)
            if (s.potential_over_n[i] < threshold) return s.rounds[i];
        return s.rounds.back() + 1;
    };
    const auto sos_cross = rounds_below(sos, 100.0);
    const auto fos_cross = rounds_below(fos, 100.0);
    bench::compare_row("rounds to potential/n<100 (SOS)", 200.0,
                       static_cast<double>(sos_cross));
    bench::compare_row("rounds to potential/n<100 (FOS)", 800.0,
                       static_cast<double>(fos_cross));
    bench::verdict(sos_cross * 2 < fos_cross &&
                       switched.max_minus_average.back() <=
                           sos.max_minus_average.back() + 1.0,
                   "torus-like SOS advantage on the RGG; switching helps");
    return bench::exit_code();
}
