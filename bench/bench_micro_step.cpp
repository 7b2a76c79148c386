// Microbenchmarks of the per-round kernels (google-benchmark): scheduled
// flow computation, rounding schemes, whole discrete/continuous steps, and
// thread-pool scaling. Reports edges/second so kernel regressions surface.
#include <benchmark/benchmark.h>

#include "dlb.hpp"

namespace {

using namespace dlb;

diffusion_config make_config(const graph& g, scheme_params scheme)
{
    return {&g, make_alpha(g, alpha_policy::max_degree_plus_one),
            speed_profile::uniform(g.num_nodes()), scheme};
}

const graph& torus_for(std::int64_t side)
{
    static std::map<std::int64_t, graph> cache;
    auto [it, inserted] = cache.try_emplace(side);
    if (inserted)
        it->second = make_torus_2d(static_cast<node_id>(side),
                                   static_cast<node_id>(side));
    return it->second;
}

void bm_discrete_step_fos(benchmark::State& state)
{
    const graph& g = torus_for(state.range(0));
    discrete_process proc(make_config(g, fos_scheme()),
                          point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL),
                          rounding_kind::randomized, 1);
    for (auto _ : state) proc.step();
    state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(bm_discrete_step_fos)->Arg(64)->Arg(128)->Arg(256);

void bm_discrete_step_sos(benchmark::State& state)
{
    const graph& g = torus_for(state.range(0));
    const double beta = beta_opt(torus_2d_lambda(
        static_cast<node_id>(state.range(0)), static_cast<node_id>(state.range(0))));
    discrete_process proc(make_config(g, sos_scheme(beta)),
                          point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL),
                          rounding_kind::randomized, 1);
    for (auto _ : state) proc.step();
    state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(bm_discrete_step_sos)->Arg(64)->Arg(128)->Arg(256);

/// Whole discrete SOS step under the v2 RNG stream format — the
/// engine-level view of the v2 rounding-kernel speedup.
void bm_discrete_step_sos_v2(benchmark::State& state)
{
    const graph& g = torus_for(state.range(0));
    const double beta = beta_opt(torus_2d_lambda(
        static_cast<node_id>(state.range(0)), static_cast<node_id>(state.range(0))));
    discrete_process proc(make_config(g, sos_scheme(beta)),
                          point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL),
                          rounding_kind::randomized, 1,
                          negative_load_policy::allow, nullptr, nullptr,
                          rng_version::v2);
    for (auto _ : state) proc.step();
    state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(bm_discrete_step_sos_v2)->Arg(256);

void bm_continuous_step_sos(benchmark::State& state)
{
    const graph& g = torus_for(state.range(0));
    const double beta = beta_opt(torus_2d_lambda(
        static_cast<node_id>(state.range(0)), static_cast<node_id>(state.range(0))));
    continuous_process proc(make_config(g, sos_scheme(beta)),
                            to_continuous(point_load(g.num_nodes(), 0,
                                                     g.num_nodes() * 1000LL)));
    for (auto _ : state) proc.step();
    state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(bm_continuous_step_sos)->Arg(128)->Arg(256);

// --- edge-kernel benchmarks --------------------------------------------

/// Scheduled-flow state frozen from a warmed-up engine, so the kernels see
/// a realistic mid-run distribution instead of a synthetic one.
struct kernel_fixture {
    const graph& g;
    std::vector<double> alpha;
    scheme_params scheme;
    std::vector<double> x;
    std::vector<double> prev;
    std::vector<double> scheduled;
    std::vector<std::int64_t> flows;

    explicit kernel_fixture(std::int64_t side)
        : g(torus_for(side)),
          alpha(make_alpha(g, alpha_policy::max_degree_plus_one)),
          scheme(sos_scheme(beta_opt(torus_2d_lambda(
              static_cast<node_id>(side), static_cast<node_id>(side)))))
    {
        discrete_process proc(make_config(g, scheme),
                              point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL),
                              rounding_kind::randomized, 1);
        for (int i = 0; i < 600; ++i) proc.step();
        x.assign(proc.load().begin(), proc.load().end());
        prev.resize(static_cast<std::size_t>(g.num_half_edges()));
        for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
            prev[h] = static_cast<double>(proc.previous_flows()[h]);
        scheduled.resize(prev.size());
        scheduled_flows(g, alpha, scheme, proc.round(), x, prev, scheduled,
                        default_executor());
        flows.resize(prev.size());
    }
};

void bm_scheduled_flows(benchmark::State& state)
{
    kernel_fixture fx(state.range(0));
    std::vector<double> out(fx.prev.size());
    for (auto _ : state)
        scheduled_flows(fx.g, fx.alpha, fx.scheme, 5, fx.x, fx.prev, out,
                        default_executor());
    state.SetItemsProcessed(state.iterations() * fx.g.num_edges());
}
BENCHMARK(bm_scheduled_flows)->Arg(128)->Arg(256);

void bm_round_flows(benchmark::State& state)
{
    kernel_fixture fx(state.range(0));
    std::int64_t round = 0;
    for (auto _ : state)
        round_flows(fx.g, rounding_kind::randomized, fx.scheduled, 3, round++,
                    fx.flows, default_executor());
    state.SetItemsProcessed(state.iterations() * fx.g.num_edges());
}
BENCHMARK(bm_round_flows)->Arg(256);

void bm_rounding(benchmark::State& state, rounding_kind kind,
                 rng_version version = rng_version::v1)
{
    const graph& g = torus_for(128);
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()));
    xoshiro256ss rng{7};
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            if (v < g.head(h)) {
                scheduled[h] = rng.next_double() * 6.0 - 3.0;
                scheduled[g.twin(h)] = -scheduled[h];
            }
    std::vector<std::int64_t> out(scheduled.size());
    std::int64_t round = 0;
    for (auto _ : state)
        round_flows(g, kind, scheduled, 3, round++, out, default_executor(),
                    version);
    state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK_CAPTURE(bm_rounding, randomized, rounding_kind::randomized);
BENCHMARK_CAPTURE(bm_rounding, randomized_v2, rounding_kind::randomized,
                  rng_version::v2);
BENCHMARK_CAPTURE(bm_rounding, floor, rounding_kind::floor);
BENCHMARK_CAPTURE(bm_rounding, nearest, rounding_kind::nearest);
BENCHMARK_CAPTURE(bm_rounding, bernoulli, rounding_kind::bernoulli_edge);
BENCHMARK_CAPTURE(bm_rounding, bernoulli_v2, rounding_kind::bernoulli_edge,
                  rng_version::v2);

/// Load on every node of the torus (uniform in [0, 2000]), so each edge
/// schedules a fractional flow from the first round on. A spreading point
/// load instead leaves most edges idle early and makes the per-step cost
/// drift with the iteration count.
std::vector<std::int64_t> spread_load(const graph& g)
{
    return uniform_range_load(g.num_nodes(), 0, 2000, 3);
}

void bm_step_threads(benchmark::State& state)
{
    const graph& g = torus_for(512);
    thread_pool pool(static_cast<unsigned>(state.range(0)));
    const double beta = beta_opt(torus_2d_lambda(512, 512));
    discrete_process proc(make_config(g, sos_scheme(beta)), spread_load(g),
                          rounding_kind::randomized, 1,
                          negative_load_policy::allow, &pool);
    for (auto _ : state) proc.step();
    state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(bm_step_threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// The runner's per-round metric sweeps (phi_global over the nodes and
/// phi_local over the half-edges) on the engine's pool.
void bm_round_metrics(benchmark::State& state)
{
    const graph& g = torus_for(512);
    thread_pool pool(static_cast<unsigned>(state.range(0)));
    const auto load = spread_load(g);
    const std::span<const std::int64_t> view(load);
    for (auto _ : state) {
        benchmark::DoNotOptimize(max_minus_average(view, &pool));
        benchmark::DoNotOptimize(max_local_difference(g, view, &pool));
    }
    state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(bm_round_metrics)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void bm_cumulative_step(benchmark::State& state)
{
    const graph& g = torus_for(128);
    cumulative_process proc(make_config(g, fos_scheme()),
                            point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL));
    for (auto _ : state) proc.step();
    state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(bm_cumulative_step);

void bm_torus_projection(benchmark::State& state)
{
    const auto side = static_cast<node_id>(state.range(0));
    const torus_fourier_basis basis(side, side);
    std::vector<double> load(static_cast<std::size_t>(side) * side);
    xoshiro256ss rng{5};
    for (auto& v : load) v = rng.next_double();
    for (auto _ : state) benchmark::DoNotOptimize(basis.project(load));
    state.SetItemsProcessed(state.iterations() * side * side);
}
BENCHMARK(bm_torus_projection)->Arg(64)->Arg(100);

void bm_lanczos_lambda(benchmark::State& state)
{
    const graph& g = torus_for(state.range(0));
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    for (auto _ : state)
        benchmark::DoNotOptimize(compute_lambda(g, alpha, speeds, 80, 1e-8));
}
BENCHMARK(bm_lanczos_lambda)->Arg(64)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
