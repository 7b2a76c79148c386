// Figure 3: SOS vs FOS max-avg, discrete randomized rounding (top plot)
// against the idealized continuous scheme (bottom plot). Paper: the curves
// coincide until the discrete processes hit their rounding floor, where the
// idealized curves keep decaying geometrically.
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

    bench::banner("Figure 3: discrete vs idealized, torus " +
                      std::to_string(side) + "^2",
                  "discrete tracks idealized until the rounding floor; "
                  "idealized keeps dropping");

    struct run {
        const char* name;
        scheme_params scheme;
        process_kind kind;
        time_series series;
    };
    std::vector<run> runs{
        {"SOS discrete", sos_scheme(beta), process_kind::discrete, {}},
        {"FOS discrete", fos_scheme(), process_kind::discrete, {}},
        {"SOS idealized", sos_scheme(beta), process_kind::continuous, {}},
        {"FOS idealized", fos_scheme(), process_kind::continuous, {}},
    };
    for (auto& r : runs) {
        auto config = bench::make_experiment(g, r.scheme, ctx);
        config.rounds = rounds;
        config.process = r.kind;
        config.record_every = std::max<std::int64_t>(1, rounds / 150);
        r.series = run_experiment(config, initial);
        print_summary(std::cout, r.name, r.series);
        ctx.maybe_csv(std::string("fig03_") + r.name, r.series);
    }

    const double sos_floor = runs[0].series.max_minus_average.back();
    const double sos_ideal_end = runs[2].series.max_minus_average.back();
    const double fos_floor = runs[1].series.max_minus_average.back();
    const double fos_ideal_end = runs[3].series.max_minus_average.back();
    bench::compare_row("SOS discrete floor", 10.0, sos_floor);
    bench::compare_row("FOS discrete floor", 5.0, fos_floor);
    std::cout << "  idealized SOS/FOS end values: " << sos_ideal_end << " / "
              << fos_ideal_end << "\n";
    bench::verdict(sos_floor > sos_ideal_end && sos_floor < 40.0,
                   "discrete floors are small constants while the idealized "
                   "SOS curve decays below them");
    return bench::exit_code();
}
