// Figure 5: direct overlay of SOS-only vs SOS->FOS (same data as Figure 4,
// plotted against each other). Paper: the switched curves fall visibly
// below the SOS-only plateau.
#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    bench::bench_context ctx(args);

    const node_id side = static_cast<node_id>(
        args.get_int("side", ctx.full ? 1000 : 100));
    const auto rounds = ctx.rounds_or(ctx.full ? 5000 : 1400);
    const std::int64_t switch_round = ctx.full ? 2500 : 500;
    const graph g = make_torus_2d(side, side);
    const double beta = beta_opt(torus_2d_lambda(side, side));
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL);

    bench::banner("Figure 5: SOS-only vs switched overlay",
                  "switched max-avg strictly below the SOS-only plateau");

    auto sos_config = bench::make_experiment(g, sos_scheme(beta), ctx);
    sos_config.rounds = rounds;
    sos_config.record_every = std::max<std::int64_t>(1, rounds / 200);
    const auto sos_only = run_experiment(sos_config, initial);

    auto switch_config = sos_config;
    switch_config.switching = switch_policy::at(switch_round);
    const auto switched = run_experiment(switch_config, initial);

    print_summary(std::cout, "SOS only", sos_only);
    print_summary(std::cout, "switched", switched);
    ctx.maybe_csv("fig05_sos_only", sos_only);
    ctx.maybe_csv("fig05_switched", switched);

    // Overlay sample (paper plots both series on one axis).
    std::cout << "\n  round | SOS-only max-avg | switched max-avg\n";
    for (std::size_t i = 0; i < sos_only.size(); i += sos_only.size() / 12 + 1)
        std::cout << "  " << sos_only.rounds[i] << " | "
                  << sos_only.max_minus_average[i] << " | "
                  << switched.max_minus_average[i] << "\n";

    bench::compare_row("SOS-only plateau", 10.0, sos_only.max_minus_average.back());
    bench::compare_row("switched plateau", 7.0, switched.max_minus_average.back());
    bench::verdict(switched.max_minus_average.back() <
                       sos_only.max_minus_average.back(),
                   "switching to FOS drops the remaining imbalance");
    return bench::exit_code();
}
