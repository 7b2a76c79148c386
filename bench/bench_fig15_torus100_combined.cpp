// Figure 15: the combined 100x100-torus plot — load metrics, the maximum
// eigen-coefficient max|a_i| (which equals -a_4 from ~round 100 to ~700),
// the leading-coefficient scatter, and the switch to FOS at round 500.
#include <iomanip>

#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    bench::bench_context ctx(args);

    const node_id side = static_cast<node_id>(args.get_int("side", 100));
    const auto rounds = ctx.rounds_or(1000);
    const std::int64_t switch_round = 500;
    const graph g = make_torus_2d(side, side);
    const double beta = beta_opt(torus_2d_lambda(side, side));

    bench::banner("Figure 15: torus 100^2 combined metrics + eigen impact",
                  "max|a_i| = |a_4| in the mid window; switch at 500 drops "
                  "the metrics; no leading mode after ~700");

    const diffusion_config config{
        &g, make_alpha(g, alpha_policy::max_degree_plus_one),
        speed_profile::uniform(g.num_nodes()), sos_scheme(beta)};
    discrete_process proc(config,
                          point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL),
                          rounding_kind::randomized, ctx.seed,
                          negative_load_policy::allow, &ctx.pool);
    const auto analyzer = eigen_impact_analyzer::for_torus(side, side);

    std::unique_ptr<csv_writer> csv;
    if (!ctx.csv_dir.empty())
        csv = std::make_unique<csv_writer>(
            ctx.csv_dir + "/fig15_combined.csv",
            std::vector<std::string>{"round", "max_minus_avg", "local_diff",
                                     "potential_over_n", "max_abs_coeff",
                                     "leading_rank", "a4"});

    std::int64_t a4_led_rounds = 0;
    bool a4_is_leader_and_negative = false;
    const std::int64_t stride = std::max<std::int64_t>(1, rounds / 500);
    for (std::int64_t t = 1; t <= rounds; ++t) {
        if (t == switch_round) proc.set_scheme(fos_scheme());
        proc.step();
        if (t % stride != 0) continue;
        const auto sample = analyzer.analyze(proc.load());
        const double global = max_minus_average(proc.load());
        const double local = max_local_difference(g, proc.load());
        if (sample.leading_rank <= 4 && sample.max_abs_coefficient > 30.0) {
            ++a4_led_rounds;
            // Paper: the leading coefficient is -a_4 (sign depends on the
            // basis convention; magnitude-match is the invariant claim).
            if (std::abs(std::abs(sample.a4) - sample.max_abs_coefficient) <
                1e-6 * sample.max_abs_coefficient)
                a4_is_leader_and_negative = true;
        }
        if (csv)
            csv->row_numeric({static_cast<double>(t), global, local,
                              potential_homogeneous(proc.load()) /
                                  static_cast<double>(g.num_nodes()),
                              sample.max_abs_coefficient,
                              static_cast<double>(sample.leading_rank),
                              sample.a4});
        if (t % (rounds / 10) == 0)
            std::cout << "  round " << std::setw(5) << t << ": max-avg "
                      << std::setw(10) << global << " local " << std::setw(8)
                      << local << " max|a_i| " << std::setw(12)
                      << sample.max_abs_coefficient << " lead rank "
                      << sample.leading_rank << "\n";
    }

    const auto final_sample = analyzer.analyze(proc.load());
    bench::compare_row("rounds led by the a_4 eigenspace", 120.0,
                       static_cast<double>(a4_led_rounds * stride));
    bench::compare_row("final max-avg (post switch)", 7.0,
                       max_minus_average(proc.load()));
    bench::verdict(a4_led_rounds > 0 && a4_is_leader_and_negative &&
                       max_minus_average(proc.load()) <= 10.0 &&
                       final_sample.max_abs_coefficient < 30.0,
                   "a_4 block leads mid-run, switch at 500 lands single-digit "
                   "imbalance, no leading mode at the end");
    return bench::exit_code();
}
