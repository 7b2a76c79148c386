// Figure 1: SOS vs FOS on the 2-D torus with randomized rounding.
// Series: max load - average (SOS and FOS), max local difference,
// potential/n. Paper: SOS converges in a fraction of FOS's rounds; SOS's
// remaining max-avg plateaus around 10 and exhibits discontinuities when
// the wavefronts collapse (~every 1200-1300 rounds at 1000^2).
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
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL);

    bench::banner("Figure 1: SOS vs FOS, torus " + std::to_string(side) + "^2",
                  "SOS potential crashes much earlier than FOS; SOS max-avg "
                  "plateaus ~10 with wavefront discontinuities");

    auto sos_config = bench::make_experiment(g, sos_scheme(beta), ctx);
    sos_config.rounds = rounds;
    sos_config.record_every = std::max<std::int64_t>(1, rounds / 200);
    const auto sos = run_experiment(sos_config, initial);
    print_summary(std::cout, "SOS randomized", sos);
    print_series(std::cout, "SOS max-avg", sos, &time_series::max_minus_average);
    ctx.maybe_csv("fig01_sos", sos);

    auto fos_config = bench::make_experiment(g, fos_scheme(), ctx);
    fos_config.rounds = rounds;
    fos_config.record_every = sos_config.record_every;
    const auto fos = run_experiment(fos_config, initial);
    print_summary(std::cout, "FOS randomized", fos);
    print_series(std::cout, "FOS max-avg", fos, &time_series::max_minus_average);
    ctx.maybe_csv("fig01_fos", fos);

    // Shape checks: (1) SOS reaches potential/n < 100 at least 3x earlier;
    // (2) SOS plateau is a small constant (paper: does not drop below ~10).
    auto first_below = [](const time_series& s, double threshold) {
        for (std::size_t i = 0; i < s.size(); ++i)
            if (s.potential_over_n[i] < threshold) return s.rounds[i];
        return s.rounds.back() + 1;
    };
    const auto sos_cross = first_below(sos, 100.0);
    const auto fos_cross = first_below(fos, 100.0);
    bench::compare_row("rounds to potential/n<100 (SOS)", ctx.full ? 1500 : 400,
                       static_cast<double>(sos_cross));
    bench::compare_row("rounds to potential/n<100 (FOS)", ctx.full ? 1e5 : 4000,
                       static_cast<double>(fos_cross));
    bench::compare_row("SOS remaining max-avg plateau", 10.0,
                       sos.max_minus_average.back());
    bench::verdict(sos_cross * 3 < fos_cross &&
                       sos.max_minus_average.back() < 30.0,
                   "SOS converges >3x faster; SOS plateau is a small constant");
    return bench::exit_code();
}
