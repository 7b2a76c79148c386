// Figure 2: impact of the initial load volume. Average loads 10/100/1000
// per node, all placed on one node. Paper: "the amount of initial load does
// only have limited impact on the behavior of the simulation, especially
// once the system has converged".
#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    bench::bench_context ctx(args);

    const node_id side = static_cast<node_id>(
        args.get_int("side", ctx.full ? 1000 : 100));
    const auto rounds = ctx.rounds_or(ctx.full ? 5000 : 3000);
    const graph g = make_torus_2d(side, side);
    const double beta = beta_opt(torus_2d_lambda(side, side));

    bench::banner("Figure 2: initial average loads 10 / 100 / 1000, torus " +
                      std::to_string(side) + "^2",
                  "curves shifted by log(load) early, identical plateau late");

    std::vector<double> plateaus;
    for (const std::int64_t per_node : {10LL, 100LL, 1000LL}) {
        auto config = bench::make_experiment(g, sos_scheme(beta), ctx);
        config.rounds = rounds;
        config.record_every = std::max<std::int64_t>(1, rounds / 150);
        const auto series = run_experiment(
            config, point_load(g.num_nodes(), 0, g.num_nodes() * per_node));
        print_summary(std::cout, "avg load " + std::to_string(per_node), series);
        ctx.maybe_csv("fig02_load" + std::to_string(per_node), series);
        plateaus.push_back(series.max_minus_average.back());
    }

    bench::compare_row("plateau(avg 10)", 10.0, plateaus[0]);
    bench::compare_row("plateau(avg 100)", 10.0, plateaus[1]);
    bench::compare_row("plateau(avg 1000)", 10.0, plateaus[2]);
    const double spread =
        *std::max_element(plateaus.begin(), plateaus.end()) -
        *std::min_element(plateaus.begin(), plateaus.end());
    bench::verdict(spread < 10.0,
                   "remaining imbalance is insensitive to the initial volume "
                   "(spread " + format_double(spread) + " tokens)");
    return bench::exit_code();
}
