// Figure 8: sweep of the SOS->FOS switching round on the 100x100 torus
// (paper: switches at 300/500/700/900 plus SOS-only). Paper: once the
// leading eigenvector's impact has faded (~round 700 at 100^2), the exact
// switch round no longer matters, but every switch drops the final
// imbalance below SOS-only.
#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    bench::bench_context ctx(args);

    const node_id side = static_cast<node_id>(args.get_int("side", 100));
    const auto rounds = ctx.rounds_or(1500);
    const graph g = make_torus_2d(side, side);
    const double beta = beta_opt(torus_2d_lambda(side, side));
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL);

    bench::banner("Figure 8: switch-round sweep, torus " +
                      std::to_string(side) + "^2",
                  "late switches (post eigen-impact fade) all land at the "
                  "same final imbalance; all beat SOS-only");

    auto sos_config = bench::make_experiment(g, sos_scheme(beta), ctx);
    sos_config.rounds = rounds;
    sos_config.record_every = std::max<std::int64_t>(1, rounds / 150);
    const auto sos_only = run_experiment(sos_config, initial);
    std::cout << "  SOS-only final max-avg: " << sos_only.max_minus_average.back()
              << "\n";
    ctx.maybe_csv("fig08_sos_only", sos_only);

    std::vector<double> finals;
    for (const std::int64_t switch_round : {300LL, 500LL, 700LL, 900LL}) {
        auto config = sos_config;
        config.switching = switch_policy::at(switch_round);
        const auto series = run_experiment(config, initial);
        std::cout << "  switch at " << switch_round
                  << ": final max-avg = " << series.max_minus_average.back()
                  << " (local diff " << series.max_local_difference.back()
                  << ")\n";
        ctx.maybe_csv("fig08_switch" + std::to_string(switch_round), series);
        finals.push_back(series.max_minus_average.back());
    }

    const double spread = *std::max_element(finals.begin(), finals.end()) -
                          *std::min_element(finals.begin(), finals.end());
    bench::compare_row("spread across switch rounds", 2.0, spread);
    const bool all_beat_sos = *std::max_element(finals.begin(), finals.end()) <=
                              sos_only.max_minus_average.back();
    bench::verdict(all_beat_sos && spread <= 5.0,
                   "switch round barely matters; every switch beats SOS-only");
    return bench::exit_code();
}
