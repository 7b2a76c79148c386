// Figure 6: idealized (IEEE754 double) SOS vs discrete randomized SOS.
// Left plot: max-avg of both. Right plot: |total load(t) - total load(0)|
// of the idealized run — the accumulated floating-point error, which the
// paper observes to be negligible (~1e-8..1e-4 absolute on 10^9 tokens).
#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    bench::bench_context ctx(args);

    const node_id side = static_cast<node_id>(
        args.get_int("side", ctx.full ? 1000 : 100));
    const auto rounds = ctx.rounds_or(ctx.full ? 5000 : 2500);
    const graph g = make_torus_2d(side, side);
    const double beta = beta_opt(torus_2d_lambda(side, side));
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL);

    bench::banner("Figure 6: idealized vs discrete SOS + FP conservation error",
                  "idealized decays below the discrete floor; FP error stays "
                  "many orders below the total load");

    auto ideal_config = bench::make_experiment(g, sos_scheme(beta), ctx);
    ideal_config.rounds = rounds;
    ideal_config.process = process_kind::continuous;
    ideal_config.record_every = std::max<std::int64_t>(1, rounds / 150);
    const auto idealized = run_experiment(ideal_config, initial);
    print_summary(std::cout, "idealized SOS", idealized);
    print_series(std::cout, "idealized |total error|", idealized,
                 &time_series::total_load_error);
    ctx.maybe_csv("fig06_idealized", idealized);

    auto discrete_config = bench::make_experiment(g, sos_scheme(beta), ctx);
    discrete_config.rounds = rounds;
    discrete_config.record_every = ideal_config.record_every;
    const auto discrete = run_experiment(discrete_config, initial);
    print_summary(std::cout, "discrete SOS", discrete);
    ctx.maybe_csv("fig06_discrete", discrete);

    const double total = static_cast<double>(g.num_nodes()) * 1000.0;
    const double worst_error = *std::max_element(
        idealized.total_load_error.begin(), idealized.total_load_error.end());
    bench::compare_row("max FP error / total load", 1e-10, worst_error / total);
    bench::compare_row("discrete conservation error (exact)", 0.0,
                       discrete.total_load_error.back());
    bench::verdict(worst_error / total < 1e-6 &&
                       discrete.total_load_error.back() == 0.0,
                   "idealized FP drift negligible; discrete conservation exact");
    return bench::exit_code();
}
