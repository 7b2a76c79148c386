// Figures 9 and 10: raster visualization of the torus load. The point load
// spreads in circular wavefronts from all four corners (the initial node is
// at the corner and the torus wraps) and collapses at the center; the
// collapse is the cause of the discontinuities in Figure 1. Writes PGM
// frames and prints pixel statistics per frame.
#include <filesystem>

#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    bench::bench_context ctx(args);

    const node_id side = static_cast<node_id>(
        args.get_int("side", ctx.full ? 1000 : 200));
    const graph g = make_torus_2d(side, side);
    const double beta = beta_opt(torus_2d_lambda(side, side));
    // Paper frames at 500/1000/1100/1200/1400 on the 1000^2 torus; the
    // wavefront collapse happens when the front reaches the antipodal node,
    // which scales linearly with the side length.
    const double scale = static_cast<double>(side) / 1000.0;
    std::vector<std::int64_t> frames;
    for (const std::int64_t paper_round : {500LL, 1000LL, 1100LL, 1200LL, 1400LL})
        frames.push_back(std::max<std::int64_t>(
            1, static_cast<std::int64_t>(paper_round * scale)));

    const std::string out_dir =
        ctx.csv_dir.empty() ? "bench_out_frames" : ctx.csv_dir;
    std::filesystem::create_directories(out_dir);

    bench::banner("Figures 9/10: torus wavefront visualization, " +
                      std::to_string(side) + "^2",
                  "wavefronts from the corners; collapse at the center when "
                  "the front meets (paper round ~1200 at 1000^2)");

    const diffusion_config config{
        &g, make_alpha(g, alpha_policy::max_degree_plus_one),
        speed_profile::uniform(g.num_nodes()), sos_scheme(beta)};
    discrete_process proc(config,
                          point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL),
                          rounding_kind::randomized, ctx.seed,
                          negative_load_policy::allow, &ctx.pool);

    // The geometric signature of the wavefront: load at the center node vs
    // the ring. The center (antipode of node 0) receives its first tokens at
    // the collapse round.
    const node_id center =
        (side / 2) * side + side / 2; // antipode of the corner origin
    std::int64_t first_center_load = -1;
    std::size_t next = 0;
    for (std::int64_t t = 1; t <= frames.back(); ++t) {
        proc.step();
        if (first_center_load < 0 && proc.load()[center] > 0)
            first_center_load = t;
        if (next < frames.size() && t == frames[next]) {
            const std::string path =
                out_dir + "/fig09_round" + std::to_string(t) + ".pgm";
            write_torus_load_pgm(path, side, side, proc.load());
            const auto stats = torus_pixel_stats(proc.load());
            std::cout << "  frame round " << t << " -> " << path
                      << "  (center load " << proc.load()[center]
                      << ", max above avg " << stats.max_above_average << ")\n";
            ++next;
        }
    }

    bench::compare_row("wavefront collapse round (scaled paper ~1200)",
                       1200.0 * scale, static_cast<double>(first_center_load));
    bench::verdict(first_center_load > 0 &&
                       std::abs(static_cast<double>(first_center_load) -
                                1200.0 * scale) < 400.0 * scale,
                   "center node first receives load near the scaled paper "
                   "collapse round");
    return bench::exit_code();
}
