// Ablation A3: negative load (Section V). Sweeps the uniform initial
// cushion added under a point spike and reports the minimum transient load,
// validating the Observation 5 / Theorem 10/11 scaling and the cost of the
// practical `prevent` policy.
#include <cmath>
#include <iomanip>

#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    bench::bench_context ctx(args);

    const node_id side = static_cast<node_id>(args.get_int("side", 32));
    const auto rounds = ctx.rounds_or(1500);
    const graph g = make_torus_2d(side, side);
    const double n = static_cast<double>(g.num_nodes());
    const double lambda = torus_2d_lambda(side, side);
    const diffusion_config config{
        &g, make_alpha(g, alpha_policy::max_degree_plus_one),
        speed_profile::uniform(g.num_nodes()), sos_scheme(beta_opt(lambda))};

    const std::int64_t spike = g.num_nodes() * 1000LL;
    const double delta0 = static_cast<double>(spike) * (1.0 - 1.0 / n);
    const double sufficient =
        negative_load_bounds::sufficient_initial_load_discrete(
            n, delta0, g.max_degree(), lambda);

    bench::banner("Ablation A3: negative load vs initial cushion, torus " +
                      std::to_string(side) + "^2",
                  "min transient load rises with the cushion; the Theorem 11 "
                  "sufficient cushion eliminates negatives");
    std::cout << "  Delta(0) = " << delta0
              << ", Theorem 11 sufficient cushion = " << sufficient << "\n"
              << "  " << std::left << std::setw(22) << "cushion (tokens/node)"
              << std::setw(22) << "min transient load" << std::setw(20)
              << "negative rounds" << "\n";

    double min_transient_bare = 0.0;
    double min_transient_full = 0.0;
    for (const double fraction : {0.0, 0.1, 0.25, 0.5, 1.0}) {
        const auto cushion =
            static_cast<std::int64_t>(std::ceil(fraction * sufficient));
        auto load = balanced_load(g.num_nodes(), cushion);
        load[0] += spike;
        discrete_process proc(config, load, rounding_kind::randomized, ctx.seed,
                              negative_load_policy::allow, &ctx.pool);
        proc.run(rounds);
        const auto& stats = proc.negative_stats();
        std::cout << "  " << std::left << std::setw(22) << cushion
                  << std::setw(22) << stats.min_transient_load << std::setw(20)
                  << stats.rounds_with_negative_transient << "\n";
        if (fraction == 0.0) min_transient_bare = stats.min_transient_load;
        if (fraction == 1.0) min_transient_full = stats.min_transient_load;
    }

    // The prevent policy as the practical alternative.
    {
        auto load = point_load(g.num_nodes(), 0, spike);
        discrete_process proc(config, load, rounding_kind::randomized, ctx.seed,
                              negative_load_policy::prevent, &ctx.pool);
        proc.run(rounds);
        std::cout << "  prevent-policy run: min transient "
                  << proc.negative_stats().min_transient_load << ", clipped "
                  << proc.clipped_tokens() << " tokens, final max-avg "
                  << max_minus_average(proc.load()) << "\n";
    }

    bench::compare_row("bare-spike min transient vs Thm 11 bound",
                       negative_load_bounds::theorem11(n, delta0, g.max_degree(),
                                                       lambda),
                       min_transient_bare);
    bench::verdict(min_transient_bare < 0.0 && min_transient_full >= 0.0 &&
                       min_transient_bare >=
                           negative_load_bounds::theorem11(n, delta0,
                                                           g.max_degree(), lambda),
                   "negatives appear bare, vanish with the sufficient cushion, "
                   "and respect the Theorem 11 lower bound");
    return bench::exit_code();
}
