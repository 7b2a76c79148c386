// Figure 4: switching from SOS to FOS at a fixed round (paper: 2500 and
// 3000 of 5000 at 1000^2; scaled proportionally by default). Paper: after
// the switch the max local difference converges to 4 and max-avg to 7.
#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    bench::bench_context ctx(args);

    const node_id side = static_cast<node_id>(
        args.get_int("side", ctx.full ? 1000 : 100));
    const auto rounds = ctx.rounds_or(ctx.full ? 5000 : 1400);
    const std::int64_t early = ctx.full ? 2500 : 500;
    const std::int64_t late = ctx.full ? 3000 : 700;
    const graph g = make_torus_2d(side, side);
    const double beta = beta_opt(torus_2d_lambda(side, side));
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL);

    bench::banner("Figure 4: switch SOS->FOS at fixed rounds " +
                      std::to_string(early) + " / " + std::to_string(late),
                  "local diff -> ~4 and max-avg -> ~7 after the switch");

    for (const std::int64_t switch_round : {early, late}) {
        auto config = bench::make_experiment(g, sos_scheme(beta), ctx);
        config.rounds = rounds;
        config.record_every = std::max<std::int64_t>(1, rounds / 200);
        config.switching = switch_policy::at(switch_round);
        const auto series = run_experiment(config, initial);
        print_summary(std::cout,
                      "switch at " + std::to_string(switch_round), series);
        ctx.maybe_csv("fig04_switch" + std::to_string(switch_round), series);

        bench::compare_row("final max local difference", 4.0,
                           series.max_local_difference.back());
        bench::compare_row("final max-avg", 7.0, series.max_minus_average.back());
        bench::verdict(series.max_local_difference.back() <= 6.0 &&
                           series.max_minus_average.back() <= 10.0,
                       "post-switch imbalance collapses to single digits");
    }
    return bench::exit_code();
}
