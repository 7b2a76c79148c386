// Figure 12: load balancing on a configuration-model random graph
// (paper: n = 10^6, d = floor(log2 n) = 19; switch to FOS at round 12).
// Paper: only a limited improvement of SOS over FOS — both converge within
// tens of rounds because the graph is an expander — and the remaining
// imbalance is the same for both.
//
// Ported onto the campaign engine: the three curves are three declarative
// scenario specs run through campaign::run_scenarios, which replaces the
// hand-wired graph/config/run plumbing this binary used to duplicate.
#include <cmath>
#include <fstream>

#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    bench::bench_context ctx(args);

    const std::int64_t n = args.get_int("nodes", ctx.full ? 1000000 : 65536);
    const auto d = static_cast<std::int32_t>(std::floor(std::log2(n)));

    // Lambda once, up front, on the exact graph instance the scenarios will
    // rebuild (same derived topology seed) — the SOS cells then take beta
    // explicitly instead of each running their own Lanczos.
    const graph g = campaign::build_topology("random_regular", n, 0.0,
                                             campaign::topology_seed(ctx.seed));
    const double lambda = compute_lambda(
        g, make_alpha(g, alpha_policy::max_degree_plus_one),
        speed_profile::uniform(g.num_nodes()));

    campaign::scenario_spec base;
    base.topology = "random_regular";
    base.nodes = n;
    base.scheme = "sos";
    base.beta = beta_opt(lambda);
    base.load_pattern = "point";
    base.tokens_per_node = 1000;
    base.rounds = ctx.rounds_or(100);
    base.seed = ctx.seed;

    auto fos = base;
    fos.scheme = "fos";

    auto switched = base;
    switched.switch_mode = "at_round";
    switched.switch_value = 12;

    bench::banner("Figure 12: random graph (CM), n=" + std::to_string(n) +
                      " d=" + std::to_string(d),
                  "SOS barely beats FOS (expander); same remaining imbalance; "
                  "switch at 12 changes little");

    campaign::campaign_options options;
    options.threads = 3; // one worker per curve
    options.series_dir = ctx.csv_dir; // per-round curves for the figure
    const auto result =
        campaign::run_scenarios("fig12_random_graph", {base, fos, switched},
                                options);
    campaign::print_campaign_summary(std::cout, result);

    const auto& sos_result = result.scenarios[0];
    const auto& fos_result = result.scenarios[1];
    const auto& switched_result = result.scenarios[2];
    for (const auto& r : result.scenarios)
        if (!r.error.empty()) {
            bench::verdict(false, "scenario failed: " + r.error);
            return 1;
        }

    std::cout << "  lambda = " << lambda << ", beta_opt = " << sos_result.beta
              << " (paper Table I: 1.0651965147 at n=10^6)\n";
    if (!ctx.csv_dir.empty()) {
        const std::string path = ctx.csv_dir + "/fig12_campaign.csv";
        std::ofstream out(path);
        campaign::write_csv(out, result);
        std::cout << "  summary csv -> " << path
                  << "  (per-round series in the same directory)\n";
    }

    bench::compare_row("rounds to plateau (SOS)", 15.0,
                       static_cast<double>(sos_result.rounds_to_plateau));
    bench::compare_row("rounds to plateau (FOS)", 25.0,
                       static_cast<double>(fos_result.rounds_to_plateau));
    bench::compare_row("remaining imbalance SOS vs FOS", 0.0,
                       sos_result.final_max_minus_average -
                           fos_result.final_max_minus_average);
    bench::compare_row("switch@12 final max-avg",
                       sos_result.final_max_minus_average,
                       switched_result.final_max_minus_average);

    const bool sos_not_slower =
        sos_result.rounds_to_plateau >= 0 && fos_result.rounds_to_plateau >= 0 &&
        sos_result.rounds_to_plateau <= fos_result.rounds_to_plateau &&
        fos_result.rounds_to_plateau <= 3 * std::max<std::int64_t>(
                                            1, sos_result.rounds_to_plateau);
    const bool same_plateau = std::abs(sos_result.final_max_minus_average -
                                       fos_result.final_max_minus_average) <= 3.0;
    bench::verdict(sos_not_slower && same_plateau,
                   "limited SOS advantage; matching remaining imbalance");
    return bench::exit_code();
}
