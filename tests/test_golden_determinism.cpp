// Golden determinism suite for the round kernels.
//
// The bitwise guarantees pinned here:
//
//  1. The production kernels — the discrete engine's fused owner pass
//     (each node computes its scheduled flows and rounds them in one
//     sweep) and the public scheduled_flows / round_flows — produce
//     bit-for-bit the output of the original two-sided kernels, frozen
//     below as scheduled_flows_reference / round_flows_reference. A
//     reference pipeline re-implementing the original engine round drives
//     the comparison over real engine trajectories, so every `time_series`
//     a run records is byte-identical to what the original kernels
//     produced: the series is a pure function of the per-round load state,
//     which is compared exactly here.
//
//  2. The fused engine equals the unfused public composition
//     (scheduled_flows -> round_flows -> clip -> apply) for every rounding,
//     both RNG stream formats and both negative-load policies, serially
//     and on 2- and 4-worker pools.
//
//  3. Engine output is byte-identical across executors: serial_executor and
//     thread_pool with 1, 2 and 8 workers, across discrete/continuous
//     engines, all four roundings, both negative-load policies, and a
//     hybrid-switch Chebyshev long run (>= 4000 rounds, which is only
//     affordable because the engines carry the omega recurrence in O(1)).
//
//  4. Engine output is independent of buffer reuse: one engine_scratch
//     serving a large run and then a smaller one yields the same series and
//     final load as fresh allocation, on all three engines.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "campaign/workload.hpp"
#include "core/alpha.hpp"
#include "obs/obs.hpp"
#include "core/beta.hpp"
#include "core/checkpoint.hpp"
#include "core/diffusion_matrix.hpp"
#include "core/process.hpp"
#include "core/rounding.hpp"
#include "core/scheme.hpp"
#include "core/scratch.hpp"
#include "graph/generators.hpp"
#include "sim/initial_load.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"

namespace dlb {
namespace {

// --- the frozen oracle --------------------------------------------------
//
// The two-sided kernels of the original engine, kept verbatim: the flow
// rule evaluated independently on every half-edge, and rounding as an
// owner pass over all half-edges plus a full mirror sweep (v1 stream
// format only — this is the frozen pre-version pipeline). Nothing in the
// library calls these; they exist so the production kernels have a fixed
// bitwise target.

void scheduled_flows_reference(const graph& g, std::span<const double> alpha,
                               scheme_params scheme,
                               std::int64_t rounds_in_scheme,
                               std::span<const double> load_over_speed,
                               std::span<const double> previous_flows,
                               std::span<double> flows_out, executor& exec)
{
    if (alpha.size() != static_cast<std::size_t>(g.num_half_edges()) ||
        flows_out.size() != alpha.size())
        throw std::invalid_argument("scheduled_flows: size mismatch");
    if (load_over_speed.size() != static_cast<std::size_t>(g.num_nodes()))
        throw std::invalid_argument("scheduled_flows: load size mismatch");

    const bool second_order =
        scheme.kind != scheme_kind::fos && rounds_in_scheme > 0;
    if (second_order && previous_flows.size() != alpha.size())
        throw std::invalid_argument("scheduled_flows: previous flows missing");

    const double beta = scheme_beta_for_round(scheme, rounds_in_scheme);

    // Parallel over nodes; each chunk writes only its nodes' half-edges.
    exec.parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
        for (node_id v = static_cast<node_id>(begin); v < end; ++v) {
            const double xv = load_over_speed[v];
            const half_edge_id he_begin = g.half_edge_begin(v);
            const half_edge_id he_end = g.half_edge_end(v);
            if (second_order) {
                for (half_edge_id h = he_begin; h < he_end; ++h) {
                    const double gradient = xv - load_over_speed[g.head(h)];
                    flows_out[h] = (beta - 1.0) * previous_flows[h] +
                                   beta * alpha[h] * gradient;
                }
            } else {
                for (half_edge_id h = he_begin; h < he_end; ++h) {
                    const double gradient = xv - load_over_speed[g.head(h)];
                    flows_out[h] = alpha[h] * gradient;
                }
            }
        }
    });
}

void round_node_bernoulli(const graph& g, node_id v,
                          std::span<const double> scheduled, std::uint64_t seed,
                          std::int64_t round, std::span<std::int64_t> flows_out)
{
    auto rng = stream_for(seed, static_cast<std::uint64_t>(v),
                          static_cast<std::uint64_t>(round));
    for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h) {
        const double yhat = scheduled[h];
        if (yhat <= 0.0) {
            flows_out[h] = 0;
            continue;
        }
        const double floored = std::floor(yhat);
        const double fraction = yhat - floored;
        flows_out[h] = static_cast<std::int64_t>(floored) +
                       (rng.next_bernoulli(fraction) ? 1 : 0);
    }
}

/// Pre-canonical helpers, kept verbatim for round_flows_reference.
void round_node_randomized_reference(const graph& g, node_id v,
                                     std::span<const double> scheduled,
                                     std::uint64_t seed, std::int64_t round,
                                     std::span<std::int64_t> flows_out)
{
    const half_edge_id begin = g.half_edge_begin(v);
    const half_edge_id end = g.half_edge_end(v);

    // Pass 1: floor all outgoing flows, accumulate the excess mass r.
    double excess = 0.0;
    for (half_edge_id h = begin; h < end; ++h) {
        const double yhat = scheduled[h];
        if (yhat > 0.0) {
            const double floored = std::floor(yhat);
            flows_out[h] = static_cast<std::int64_t>(floored);
            excess += yhat - floored;
        }
    }
    if (excess <= 0.0) return;

    // Pass 2: distribute ceil(r) candidate tokens. Each leaves the node
    // with probability r/ceil(r); a leaving token picks the outgoing edge
    // h with probability {Yhat_h}/r.
    const double token_count_real = std::ceil(excess);
    const auto token_count = static_cast<std::int64_t>(token_count_real);
    const double send_probability = excess / token_count_real;

    auto rng = stream_for(seed, static_cast<std::uint64_t>(v),
                          static_cast<std::uint64_t>(round));
    for (std::int64_t token = 0; token < token_count; ++token) {
        if (!rng.next_bernoulli(send_probability)) continue;
        // Inverse-CDF walk over the fractional parts.
        double target = rng.next_double() * excess;
        half_edge_id chosen = -1;
        for (half_edge_id h = begin; h < end; ++h) {
            const double yhat = scheduled[h];
            if (yhat <= 0.0) continue;
            const double fraction = yhat - std::floor(yhat);
            if (fraction <= 0.0) continue;
            chosen = h;
            target -= fraction;
            if (target <= 0.0) break;
        }
        // target may stay positive due to floating-point slack; the walk
        // then lands on the last fractional edge, preserving totals.
        if (chosen >= 0) flows_out[chosen] += 1;
    }
}

void round_flows_reference(const graph& g, rounding_kind kind,
                           std::span<const double> scheduled, std::uint64_t seed,
                           std::int64_t round, std::span<std::int64_t> flows_out,
                           executor& exec)
{
    if (scheduled.size() != static_cast<std::size_t>(g.num_half_edges()) ||
        flows_out.size() != scheduled.size())
        throw std::invalid_argument("round_flows: size mismatch");

    // Owners write their outgoing half-edges only; twins are fixed after.
    exec.parallel_for(g.num_nodes(), [&](std::int64_t chunk_begin, std::int64_t chunk_end) {
        for (node_id v = static_cast<node_id>(chunk_begin); v < chunk_end; ++v) {
            const half_edge_id begin = g.half_edge_begin(v);
            const half_edge_id end = g.half_edge_end(v);
            for (half_edge_id h = begin; h < end; ++h) flows_out[h] = 0;

            switch (kind) {
            case rounding_kind::randomized:
                round_node_randomized_reference(g, v, scheduled, seed, round,
                                                flows_out);
                break;
            case rounding_kind::floor:
                for (half_edge_id h = begin; h < end; ++h)
                    if (scheduled[h] > 0.0)
                        flows_out[h] =
                            static_cast<std::int64_t>(std::floor(scheduled[h]));
                break;
            case rounding_kind::nearest:
                for (half_edge_id h = begin; h < end; ++h)
                    if (scheduled[h] > 0.0)
                        flows_out[h] = std::llround(scheduled[h]);
                break;
            case rounding_kind::bernoulli_edge:
                round_node_bernoulli(g, v, scheduled, seed, round, flows_out);
                break;
            }
        }
    });

    // Mirror pass: the negative side of each edge is minus the owner's
    // rounded flow. Safe in parallel: each index writes only itself.
    exec.parallel_for(g.num_half_edges(), [&](std::int64_t begin, std::int64_t end) {
        for (half_edge_id h = begin; h < end; ++h)
            if (scheduled[h] < 0.0) flows_out[h] = -flows_out[g.twin(h)];
    });
}

template <class T>
bool bytes_equal(const std::vector<T>& a, const std::vector<T>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <class T>
bool bytes_equal(std::span<const T> a, const std::vector<T>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Byte-level equality of every recorded series field (memcmp, so it also
/// distinguishes -0.0 from +0.0 and would catch any reordered combine).
void expect_series_identical(const time_series& a, const time_series& b,
                             const std::string& label)
{
    EXPECT_TRUE(bytes_equal(a.rounds, b.rounds)) << label;
    EXPECT_TRUE(bytes_equal(a.max_minus_average, b.max_minus_average)) << label;
    EXPECT_TRUE(bytes_equal(a.max_local_difference, b.max_local_difference))
        << label;
    EXPECT_TRUE(bytes_equal(a.potential_over_n, b.potential_over_n)) << label;
    EXPECT_TRUE(bytes_equal(a.min_load, b.min_load)) << label;
    EXPECT_TRUE(bytes_equal(a.min_transient_load, b.min_transient_load)) << label;
    EXPECT_TRUE(bytes_equal(a.deviation_from_twin, b.deviation_from_twin))
        << label;
    EXPECT_TRUE(bytes_equal(a.total_load_error, b.total_load_error)) << label;
    EXPECT_EQ(a.switch_round, b.switch_round) << label;
    EXPECT_EQ(a.total_injected, b.total_injected) << label;
    EXPECT_EQ(a.total_drained, b.total_drained) << label;
    EXPECT_EQ(std::memcmp(&a.negative, &b.negative, sizeof a.negative), 0)
        << label;
    EXPECT_EQ(a.remaining_imbalance, b.remaining_imbalance) << label;
    EXPECT_EQ(a.imbalance_converged, b.imbalance_converged) << label;
}

struct golden_case {
    std::string name;
    graph g;
    speed_profile speeds;
};

std::vector<golden_case> golden_topologies()
{
    std::vector<golden_case> cases;
    cases.push_back({"torus", make_torus_2d(8, 8), speed_profile::uniform(64)});
    cases.push_back(
        {"hypercube", make_hypercube(6), speed_profile::uniform(64)});
    {
        graph g = make_random_regular_cm(60, 5, 17);
        const node_id n = g.num_nodes();
        cases.push_back({"random_regular_zipf_speeds", std::move(g),
                         speed_profile::zipf(n, 1.0, 8.0, 23)});
    }
    return cases;
}

/// One old-style engine round: the exact pre-refactor pipeline built from
/// the retained reference kernels and the (unchanged) apply rule.
struct reference_pipeline {
    const graph& g;
    std::vector<double> alpha;
    speed_profile speeds;
    scheme_params scheme;
    rounding_kind rounding;
    std::uint64_t seed;

    std::vector<std::int64_t> load;
    std::vector<double> x_over_s;
    std::vector<double> scheduled;
    std::vector<std::int64_t> flows;
    std::vector<std::int64_t> prev_int;
    std::vector<double> prev_dbl;
    std::int64_t round = 0;

    reference_pipeline(const graph& graph_, speed_profile speeds_,
                       scheme_params scheme_, rounding_kind rounding_,
                       std::uint64_t seed_, std::vector<std::int64_t> initial)
        : g(graph_),
          alpha(make_alpha(g, alpha_policy::max_degree_plus_one)),
          speeds(std::move(speeds_)),
          scheme(scheme_),
          rounding(rounding_),
          seed(seed_),
          load(std::move(initial))
    {
        const auto half_edges = static_cast<std::size_t>(g.num_half_edges());
        x_over_s.resize(load.size());
        scheduled.assign(half_edges, 0.0);
        flows.assign(half_edges, 0);
        prev_int.assign(half_edges, 0);
        prev_dbl.assign(half_edges, 0.0);
    }

    void step()
    {
        for (node_id v = 0; v < g.num_nodes(); ++v)
            x_over_s[v] = static_cast<double>(load[v]) / speeds.speed(v);
        scheduled_flows_reference(g, alpha, scheme, round, x_over_s, prev_dbl,
                                  scheduled, default_executor());
        round_flows_reference(g, rounding, scheduled, seed, round, flows,
                              default_executor());
        for (node_id v = 0; v < g.num_nodes(); ++v) {
            std::int64_t net_out = 0;
            for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v);
                 ++h)
                net_out += flows[h];
            load[v] -= net_out;
        }
        std::swap(prev_int, flows);
        for (std::size_t h = 0; h < prev_int.size(); ++h)
            prev_dbl[h] = static_cast<double>(prev_int[h]);
        ++round;
    }
};

TEST(GoldenKernel, FusedEngineMatchesFrozenOracleBitwise)
{
    // Drive the real engine and the reference pipeline in lock-step over
    // real trajectories: loads and rounded flows must stay bit-for-bit
    // identical on every round, for every rounding scheme, on three
    // topology families (one heterogeneous). The public scheduled_flows,
    // evaluated on the oracle's pre-step state, must match the oracle's
    // scheduled flows too.
    for (auto& tc : golden_topologies()) {
        for (const rounding_kind rounding :
             {rounding_kind::randomized, rounding_kind::floor,
              rounding_kind::nearest, rounding_kind::bernoulli_edge}) {
            const double lambda = compute_lambda(
                tc.g, make_alpha(tc.g, alpha_policy::max_degree_plus_one),
                tc.speeds);
            const scheme_params scheme = sos_scheme(beta_opt(lambda));
            const auto initial =
                point_load(tc.g.num_nodes(), 0, tc.g.num_nodes() * 500LL);

            diffusion_config config{
                &tc.g, make_alpha(tc.g, alpha_policy::max_degree_plus_one),
                tc.speeds, scheme};
            discrete_process engine(config, initial, rounding, 42);
            reference_pipeline reference(tc.g, tc.speeds, scheme, rounding, 42,
                                         initial);
            std::vector<double> scheduled(reference.scheduled.size());

            for (int t = 0; t < 120; ++t) {
                const std::vector<double> prev_before = reference.prev_dbl;
                engine.step();
                reference.step();
                const std::string label = tc.name + " " +
                                          std::string(to_string(rounding)) +
                                          " round " + std::to_string(t);
                ASSERT_TRUE(bytes_equal(engine.load(), reference.load)) << label;
                ASSERT_TRUE(bytes_equal(engine.previous_flows(), reference.prev_int))
                    << label;
                scheduled_flows(tc.g, reference.alpha, scheme, t,
                                reference.x_over_s, prev_before, scheduled,
                                default_executor());
                ASSERT_TRUE(bytes_equal(scheduled, reference.scheduled)) << label;
            }
        }
    }
}

TEST(GoldenKernel, ChebyshevTrajectoryMatchesReferenceBitwise)
{
    // Same lock-step comparison under the Chebyshev per-round omega — this
    // also pins the incremental scheme_beta_state against the pure
    // recurrence the reference kernel evaluates from scratch each round.
    const graph g = make_torus_2d(8, 8);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    const double lambda =
        compute_lambda(g, make_alpha(g, alpha_policy::max_degree_plus_one), speeds);
    const scheme_params scheme = chebyshev_scheme(lambda);
    const auto initial = point_load(g.num_nodes(), 0, 64000);

    diffusion_config config{&g, make_alpha(g, alpha_policy::max_degree_plus_one),
                            speeds, scheme};
    discrete_process engine(config, initial, rounding_kind::randomized, 9);
    reference_pipeline reference(g, speeds, scheme, rounding_kind::randomized, 9,
                                 initial);
    for (int t = 0; t < 200; ++t) {
        engine.step();
        reference.step();
        ASSERT_TRUE(bytes_equal(engine.load(), reference.load)) << t;
        ASSERT_TRUE(bytes_equal(engine.previous_flows(), reference.prev_int))
            << t;
    }
}

/// The unfused public composition of one discrete round: scheduled_flows,
/// round_flows, then the prevent clip and the apply written out plainly
/// (an owner clipped, its twin re-mirrored; loads minus net outflow).
struct public_composition {
    const graph& g;
    const diffusion_config& config;
    rounding_kind rounding;
    rng_version rng;
    negative_load_policy policy;
    std::uint64_t seed;

    std::vector<std::int64_t> load;
    std::vector<std::int64_t> prev;
    std::vector<double> x_over_s;
    std::vector<double> prev_dbl;
    std::vector<double> scheduled;
    std::vector<std::int64_t> flows;
    std::int64_t round = 0;
    std::int64_t clipped = 0;

    public_composition(const diffusion_config& config_, rounding_kind rounding_,
                       rng_version rng_, negative_load_policy policy_,
                       std::uint64_t seed_, std::vector<std::int64_t> initial)
        : g(*config_.network),
          config(config_),
          rounding(rounding_),
          rng(rng_),
          policy(policy_),
          seed(seed_),
          load(std::move(initial)),
          prev(static_cast<std::size_t>(g.num_half_edges()), 0),
          x_over_s(load.size()),
          prev_dbl(prev.size()),
          scheduled(prev.size()),
          flows(prev.size())
    {
    }

    void step()
    {
        for (node_id v = 0; v < g.num_nodes(); ++v)
            x_over_s[v] = static_cast<double>(load[v]) / config.speeds.speed(v);
        for (std::size_t h = 0; h < prev.size(); ++h)
            prev_dbl[h] = static_cast<double>(prev[h]);
        scheduled_flows(g, config.alpha, config.scheme, round, x_over_s,
                        prev_dbl, scheduled, default_executor());
        round_flows(g, rounding, scheduled, seed, round, flows,
                    default_executor(), rng);
        if (policy == negative_load_policy::prevent) {
            for (node_id v = 0; v < g.num_nodes(); ++v) {
                std::int64_t remaining = std::max<std::int64_t>(load[v], 0);
                for (half_edge_id h = g.half_edge_begin(v);
                     h < g.half_edge_end(v); ++h) {
                    if (flows[h] <= 0) continue;
                    const std::int64_t keep = std::min(flows[h], remaining);
                    clipped += flows[h] - keep;
                    flows[h] = keep;
                    flows[g.twin(h)] = -keep;
                    remaining -= keep;
                }
            }
        }
        for (node_id v = 0; v < g.num_nodes(); ++v)
            for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v);
                 ++h)
                load[v] -= flows[h];
        prev = flows;
        ++round;
    }
};

TEST(GoldenKernel, FusedOwnerPassMatchesPublicComposition)
{
    // The engine computes and rounds each node's scheduled flows in one
    // pass and clips in it too; the public kernels run the same rules as
    // separate sweeps. Loads, previous flows and clipped-token totals must
    // agree byte for byte on every round, for every rounding, both stream
    // formats and both policies — serially and on 2/4-worker pools. The
    // graphs exceed one 4096-node reduce chunk, so the pooled owner pass
    // and apply really run concurrently.
    struct topology {
        std::string name;
        graph g;
        speed_profile speeds;
    };
    std::vector<topology> topologies;
    topologies.push_back(
        {"torus", make_torus_2d(72, 72), speed_profile::uniform(72 * 72)});
    topologies.push_back(
        {"star", make_star(4500), speed_profile::uniform(4500)});
    topologies.push_back({"random_regular_bimodal",
                          make_random_regular_cm(4800, 5, 31),
                          speed_profile::bimodal(4800, 0.25, 4.0, 3)});

    thread_pool pool2(2);
    thread_pool pool4(4);
    executor* const executors[] = {nullptr, &pool2, &pool4};
    bool any_clipped = false;
    for (const auto& tp : topologies) {
        const diffusion_config config{
            &tp.g, make_alpha(tp.g, alpha_policy::max_degree_plus_one),
            tp.speeds, sos_scheme(1.7)};
        const auto initial =
            point_load(tp.g.num_nodes(), 0, tp.g.num_nodes() * 40LL);
        for (const auto rng : {rng_version::v1, rng_version::v2})
            for (const auto rounding :
                 {rounding_kind::randomized, rounding_kind::floor,
                  rounding_kind::nearest, rounding_kind::bernoulli_edge})
                for (const auto policy : {negative_load_policy::allow,
                                          negative_load_policy::prevent})
                    for (executor* exec : executors) {
                        discrete_process engine(config, initial, rounding, 13,
                                                policy, exec, nullptr, rng);
                        public_composition reference(config, rounding, rng,
                                                     policy, 13, initial);
                        const std::string label =
                            tp.name + " " + std::string(to_string(rounding)) +
                            " rng" + std::string(to_string(rng)) +
                            (policy == negative_load_policy::prevent
                                 ? " prevent"
                                 : " allow") +
                            (exec == nullptr ? " serial" : " pooled");
                        for (int t = 0; t < 40; ++t) {
                            engine.step();
                            reference.step();
                            ASSERT_TRUE(bytes_equal(engine.load(), reference.load))
                                << label << " round " << t;
                            ASSERT_TRUE(bytes_equal(engine.previous_flows(),
                                                    reference.prev))
                                << label << " round " << t;
                            ASSERT_EQ(engine.clipped_tokens(), reference.clipped)
                                << label << " round " << t;
                        }
                        any_clipped = any_clipped || reference.clipped > 0;
                    }
    }
    EXPECT_TRUE(any_clipped) << "no cell exercised the prevent clip";
}

TEST(GoldenKernel, ContinuousScheduledFlowsMatchReferenceBitwise)
{
    // The continuous engine exercises the signed-zero corner cases (exact
    // cancellation near convergence) that integer-valued discrete flows
    // cannot: compare the kernels directly on the continuous engine's own
    // evolving state.
    const graph g = make_torus_2d(8, 8);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    const scheme_params scheme = sos_scheme(1.6);

    diffusion_config config{&g, alpha, speeds, scheme};
    continuous_process engine(config,
                              to_continuous(point_load(g.num_nodes(), 0, 64000)));

    std::vector<double> x(engine.load().begin(), engine.load().end());
    std::vector<double> production(static_cast<std::size_t>(g.num_half_edges()));
    std::vector<double> reference(production.size());
    for (int t = 0; t < 2000; ++t) {
        engine.step();
        x.assign(engine.load().begin(), engine.load().end());
        const auto prev = engine.previous_flows();
        scheduled_flows(g, alpha, scheme, t + 1, x, prev, production,
                        default_executor());
        scheduled_flows_reference(g, alpha, scheme, t + 1, x, prev, reference,
                                  default_executor());
        ASSERT_TRUE(bytes_equal(std::span<const double>(production), reference))
            << "round " << t;
    }
}

struct determinism_grid_case {
    process_kind process;
    rounding_kind rounding;
    negative_load_policy policy;
    rng_version rng;
};

TEST(GoldenDeterminism, SeriesByteIdenticalAcrossExecutorsBothRngVersions)
{
    const graph g = make_torus_2d(12, 12);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::bimodal(g.num_nodes(), 0.25, 4.0, 5);
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 100LL);

    std::vector<determinism_grid_case> grid;
    for (const auto rng : {rng_version::v1, rng_version::v2})
        for (const auto rounding :
             {rounding_kind::randomized, rounding_kind::floor,
              rounding_kind::nearest, rounding_kind::bernoulli_edge})
            for (const auto policy :
                 {negative_load_policy::allow, negative_load_policy::prevent})
                grid.push_back({process_kind::discrete, rounding, policy, rng});
    grid.push_back({process_kind::continuous, rounding_kind::randomized,
                    negative_load_policy::allow, rng_version::v1});

    for (const auto& cell : grid) {
        experiment_config config;
        config.diffusion = {&g, alpha, speeds, sos_scheme(1.7)};
        config.process = cell.process;
        config.rounding = cell.rounding;
        config.policy = cell.policy;
        config.rng = cell.rng;
        config.seed = 77;
        config.rounds = 300;
        config.record_every = 7;

        const std::string label =
            std::string(cell.process == process_kind::continuous ? "continuous"
                                                                 : "discrete") +
            "/" + std::string(to_string(cell.rounding)) + "/" +
            (cell.policy == negative_load_policy::prevent ? "prevent" : "allow") +
            "/rng" + std::string(to_string(cell.rng));

        config.exec = nullptr;
        const time_series serial = run_experiment(config, initial);
        for (const unsigned workers : {1u, 2u, 8u}) {
            thread_pool pool(workers);
            config.exec = &pool;
            const time_series pooled = run_experiment(config, initial);
            expect_series_identical(serial, pooled,
                                    label + " workers=" + std::to_string(workers));
        }
    }
}

TEST(GoldenDeterminism, SaveResumeSeriesByteIdenticalAcrossGrid)
{
    // The checkpoint contract over the same grid as the executor test:
    // a checkpointing run records the identical series (snapshots are pure
    // output), and resuming from the last snapshot finishes with the
    // identical series — both compared byte-for-byte against the
    // uninterrupted run, for both RNG stream formats and all three engines.
    const graph g = make_torus_2d(12, 12);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::bimodal(g.num_nodes(), 0.25, 4.0, 5);
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 100LL);

    std::vector<determinism_grid_case> grid;
    for (const auto rng : {rng_version::v1, rng_version::v2})
        for (const auto rounding :
             {rounding_kind::randomized, rounding_kind::floor,
              rounding_kind::nearest, rounding_kind::bernoulli_edge})
            grid.push_back({process_kind::discrete, rounding,
                            negative_load_policy::allow, rng});
    grid.push_back({process_kind::discrete, rounding_kind::randomized,
                    negative_load_policy::prevent, rng_version::v1});
    grid.push_back({process_kind::discrete, rounding_kind::bernoulli_edge,
                    negative_load_policy::prevent, rng_version::v2});
    grid.push_back({process_kind::continuous, rounding_kind::randomized,
                    negative_load_policy::allow, rng_version::v1});
    grid.push_back({process_kind::cumulative, rounding_kind::randomized,
                    negative_load_policy::allow, rng_version::v1});

    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto& cell = grid[i];
        experiment_config config;
        config.diffusion = {&g, alpha, speeds, sos_scheme(1.7)};
        config.process = cell.process;
        config.rounding = cell.rounding;
        config.policy = cell.policy;
        config.rng = cell.rng;
        config.seed = 77;
        config.rounds = 300;
        config.record_every = 7;

        const std::string label =
            "cell " + std::to_string(i) + " (" +
            std::string(to_string(cell.rounding)) + "/rng" +
            std::string(to_string(cell.rng)) + ")";
        const std::string path = testing::TempDir() + "dlb_golden_resume_" +
                                 std::to_string(i) + ".ckpt";

        const time_series full = run_experiment(config, initial);

        config.checkpoint_every = 90;
        config.checkpoint_path = path;
        const time_series checkpointed = run_experiment(config, initial);
        expect_series_identical(full, checkpointed,
                                label + " with checkpointing on");

        // Snapshots landed at rounds 90, 180 and 270; the file holds the
        // last one. Resume must replay rounds 270..300 bit-for-bit.
        const engine_checkpoint snapshot = read_checkpoint_file(path);
        EXPECT_EQ(snapshot.round, 270) << label;

        experiment_config resume_config = config;
        resume_config.checkpoint_every = 0;
        resume_config.checkpoint_path.clear();
        resume_config.resume = &snapshot;
        const time_series resumed = run_experiment(resume_config, initial);
        expect_series_identical(full, resumed, label + " resumed");

        std::remove(path.c_str());
    }
}

TEST(GoldenDeterminism, SeriesByteIdenticalWithObservabilityEnabled)
{
    // The observability layer's zero-perturbation contract: re-running the
    // executor x engine x rounding grid with tracing AND metrics active must
    // reproduce the unobserved series byte-for-byte. Instrumentation reads
    // clocks and bumps counters but never touches engine state or RNG
    // streams, and this is where that claim is pinned.
    const graph g = make_torus_2d(12, 12);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::bimodal(g.num_nodes(), 0.25, 4.0, 5);
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 100LL);

    std::vector<determinism_grid_case> grid;
    for (const auto rounding :
         {rounding_kind::randomized, rounding_kind::floor,
          rounding_kind::nearest, rounding_kind::bernoulli_edge})
        grid.push_back({process_kind::discrete, rounding,
                        negative_load_policy::allow, rng_version::v1});
    grid.push_back({process_kind::discrete, rounding_kind::randomized,
                    negative_load_policy::prevent, rng_version::v2});
    grid.push_back({process_kind::continuous, rounding_kind::randomized,
                    negative_load_policy::allow, rng_version::v1});

    auto make_config = [&](const determinism_grid_case& cell) {
        experiment_config config;
        config.diffusion = {&g, alpha, speeds, sos_scheme(1.7)};
        config.process = cell.process;
        config.rounding = cell.rounding;
        config.policy = cell.policy;
        config.rng = cell.rng;
        config.seed = 77;
        config.rounds = 200;
        config.record_every = 7;
        return config;
    };

    // Baseline: the whole grid with observability off (the default).
    ASSERT_FALSE(obs::tracing());
    ASSERT_FALSE(obs::metrics_enabled());
    std::vector<time_series> baseline;
    for (const auto& cell : grid) {
        experiment_config config = make_config(cell);
        config.exec = nullptr;
        baseline.push_back(run_experiment(config, initial));
    }

    // Same grid again, serial and pooled, inside a live session with both
    // the trace writer and the metrics registry hot.
    {
        obs::session_options options;
        options.trace_path = testing::TempDir() + "dlb_golden_obs_trace.json";
        options.metrics_path = testing::TempDir() + "dlb_golden_obs_metrics.jsonl";
        options.collect_metrics = true;
        const obs::session session(options);
        ASSERT_TRUE(obs::tracing());
        ASSERT_TRUE(obs::metrics_enabled());

        for (std::size_t i = 0; i < grid.size(); ++i) {
            experiment_config config = make_config(grid[i]);
            const std::string label =
                std::string(grid[i].process == process_kind::continuous
                                ? "continuous"
                                : "discrete") +
                "/" + std::string(to_string(grid[i].rounding)) + "/rng" +
                std::string(to_string(grid[i].rng)) + " (observed)";

            config.exec = nullptr;
            expect_series_identical(baseline[i], run_experiment(config, initial),
                                    label + " serial");
            for (const unsigned workers : {2u, 8u}) {
                thread_pool pool(workers);
                config.exec = &pool;
                expect_series_identical(
                    baseline[i], run_experiment(config, initial),
                    label + " workers=" + std::to_string(workers));
            }
        }
    }
    ASSERT_FALSE(obs::tracing());
    ASSERT_FALSE(obs::metrics_enabled());
}

TEST(GoldenDeterminism, RngVersionsProduceDistinctButValidTrajectories)
{
    // The two formats are different streams (trajectories diverge) but the
    // same scheme: conservation holds exactly under both.
    const graph g = make_torus_2d(8, 8);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    diffusion_config config{&g, alpha, speeds, sos_scheme(1.7)};
    const auto initial = point_load(g.num_nodes(), 0, 64000);

    discrete_process v1_engine(config, initial, rounding_kind::randomized, 5,
                               negative_load_policy::allow, nullptr, nullptr,
                               rng_version::v1);
    discrete_process v2_engine(config, initial, rounding_kind::randomized, 5,
                               negative_load_policy::allow, nullptr, nullptr,
                               rng_version::v2);
    bool diverged = false;
    for (int t = 0; t < 50; ++t) {
        v1_engine.step();
        v2_engine.step();
        ASSERT_TRUE(v1_engine.verify_conservation()) << t;
        ASSERT_TRUE(v2_engine.verify_conservation()) << t;
        if (!bytes_equal(v1_engine.load(),
                         std::vector<std::int64_t>(v2_engine.load().begin(),
                                                   v2_engine.load().end())))
            diverged = true;
    }
    EXPECT_TRUE(diverged) << "v2 unexpectedly reproduced the v1 stream";
}

TEST(GoldenDeterminism, V2ConservationAcrossEnginesRoundingsWorkloads)
{
    // Conservation-modulo-injection under rng_version = 2, across the
    // discrete/cumulative engines x all four roundings x all three dynamic
    // workload models (the workload draws also come from the v2 streams).
    const graph g = make_torus_2d(10, 10);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 50LL);

    const campaign::workload_spec workloads[] = {
        {"poisson", 6.0, 0, 0},
        {"burst", 0.0, 40, 11},
        {"drain", 3.0, 0, 0},
    };

    for (const auto process : {process_kind::discrete, process_kind::cumulative}) {
        for (const auto rounding :
             {rounding_kind::randomized, rounding_kind::floor,
              rounding_kind::nearest, rounding_kind::bernoulli_edge}) {
            if (process == process_kind::cumulative &&
                rounding != rounding_kind::randomized)
                continue; // the cumulative baseline has a fixed rounding
            for (const auto& wl : workloads) {
                const auto hook = campaign::make_workload(
                    wl, g.num_nodes(), mix64(31, 0x776b6c64), rng_version::v2);

                experiment_config config;
                config.diffusion = {&g, alpha, speeds, fos_scheme()};
                config.process = process;
                config.rounding = rounding;
                config.rng = rng_version::v2;
                config.seed = 31;
                config.rounds = 120;
                config.record_every = 10;
                config.workload = hook.get();

                const time_series series = run_experiment(config, initial);
                const std::string label =
                    std::string(process == process_kind::cumulative
                                    ? "cumulative"
                                    : "discrete") +
                    "/" + std::string(to_string(rounding)) + "/" + wl.kind;
                // Exact token conservation modulo the injected/drained
                // totals, at every recorded round.
                for (const double error : series.total_load_error)
                    EXPECT_EQ(error, 0.0) << label;
                if (wl.kind != "drain") {
                    EXPECT_GT(series.total_injected, 0) << label;
                } else {
                    EXPECT_GT(series.total_drained, 0) << label;
                }
            }
        }
    }
}

TEST(GoldenDeterminism, HybridChebyshevLongRunByteIdentical)
{
    // >= 4000 rounds of Chebyshev followed by a hybrid switch to FOS. Under
    // the old O(T^2) scheme_beta_for_round-per-round recurrence this run
    // alone would re-execute ~T^2/2 omega iterations; with the incremental
    // state it is O(T) and cheap enough for the suite.
    const graph g = make_torus_2d(8, 8);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    const double lambda = compute_lambda(g, alpha, speeds);

    experiment_config config;
    config.diffusion = {&g, alpha, speeds, chebyshev_scheme(lambda)};
    config.rounding = rounding_kind::randomized;
    config.seed = 13;
    config.rounds = 4500;
    config.record_every = 50;
    config.switching = switch_policy::at(4000);
    config.switch_to = fos_scheme();

    const auto initial = point_load(g.num_nodes(), 0, 64000);
    config.exec = nullptr;
    const time_series serial = run_experiment(config, initial);
    EXPECT_EQ(serial.switch_round, 4000);

    for (const unsigned workers : {2u, 8u}) {
        thread_pool pool(workers);
        config.exec = &pool;
        expect_series_identical(serial, run_experiment(config, initial),
                                "hybrid-chebyshev workers=" +
                                    std::to_string(workers));
    }
}

// A campaign worker lends one scratch pool to every scenario it runs, so a
// small scenario inherits a larger one's released (longer) buffers. Reused
// capacity must come back zeroed and sized to the new graph: the large and
// then the smaller run each match a fresh-allocation run byte for byte.
TEST(GoldenDeterminism, ScratchReuseAcrossSizesMatchesFreshAllocation)
{
    const graph large = make_torus_2d(12, 12);
    const graph small = make_hypercube(5);
    const std::pair<process_kind, const char*> engines[] = {
        {process_kind::discrete, "discrete"},
        {process_kind::continuous, "continuous"},
        {process_kind::cumulative, "cumulative"}};
    for (const auto& [process, name] : engines) {
        engine_scratch scratch;
        for (const graph* g : {&large, &small}) {
            experiment_config config;
            config.diffusion = {
                g, make_alpha(*g, alpha_policy::max_degree_plus_one),
                speed_profile::uniform(g->num_nodes()), sos_scheme(1.6)};
            config.process = process;
            config.rounding = rounding_kind::randomized;
            config.seed = 21;
            config.rounds = 60;
            config.record_every = 3;
            const auto initial =
                random_load(g->num_nodes(), 100 * g->num_nodes(), 5);
            const std::string label =
                std::string(name) + " n=" + std::to_string(g->num_nodes());

            config.scratch = nullptr;
            const experiment_outcome fresh =
                run_experiment_with_final_load(config, initial);
            config.scratch = &scratch;
            const experiment_outcome pooled =
                run_experiment_with_final_load(config, initial);
            expect_series_identical(fresh.series, pooled.series, label);
            EXPECT_EQ(fresh.final_load, pooled.final_load) << label;
            EXPECT_TRUE(bytes_equal(fresh.final_load_continuous,
                                    pooled.final_load_continuous))
                << label;
        }
        EXPECT_GT(scratch.pooled_count(), 0u) << name;
    }
}

TEST(GoldenDeterminism, PreventPolicyClipRepairKeepsAntisymmetry)
{
    // Force heavy clipping (tiny loads, aggressive SOS beta) and verify
    // that the owner-side clip keeps the derived flows antisymmetric,
    // conservation holds, and serial/pooled runs agree bitwise.
    const graph g = make_random_regular_cm(80, 4, 3);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    diffusion_config config{&g, alpha, speeds, sos_scheme(1.9)};
    const auto initial = point_load(g.num_nodes(), 0, 3 * g.num_nodes());

    discrete_process serial_engine(config, initial, rounding_kind::randomized, 21,
                                   negative_load_policy::prevent);
    thread_pool pool(8);
    discrete_process pooled_engine(config, initial, rounding_kind::randomized, 21,
                                   negative_load_policy::prevent, &pool);

    for (int t = 0; t < 150; ++t) {
        serial_engine.step();
        pooled_engine.step();
        ASSERT_TRUE(bytes_equal(serial_engine.load(),
                                std::vector<std::int64_t>(
                                    pooled_engine.load().begin(),
                                    pooled_engine.load().end())))
            << t;
        const auto flows = serial_engine.previous_flows();
        for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
            ASSERT_EQ(flows[h], -flows[g.twin(h)]) << "h=" << h << " t=" << t;
        ASSERT_TRUE(serial_engine.verify_conservation()) << t;
    }
    EXPECT_GT(serial_engine.clipped_tokens(), 0);
    EXPECT_EQ(serial_engine.clipped_tokens(), pooled_engine.clipped_tokens());
}

TEST(GoldenDeterminism, ParallelReduceCombinesInFixedOrder)
{
    // Floating-point sums are order-sensitive; the fixed chunking + ordered
    // combine must make them bitwise reproducible for any executor.
    const std::int64_t n = 100003;
    std::vector<double> values(static_cast<std::size_t>(n));
    xoshiro256ss rng{123};
    for (auto& v : values) v = rng.next_double() * 2.0 - 1.0;

    auto sum_with = [&](executor& exec) {
        return exec.parallel_reduce(
            n, 0.0,
            [&](std::int64_t begin, std::int64_t end) {
                double acc = 0.0;
                for (std::int64_t i = begin; i < end; ++i)
                    acc += values[static_cast<std::size_t>(i)];
                return acc;
            },
            [](double a, double b) { return a + b; });
    };

    const double serial = sum_with(default_executor());
    for (const unsigned workers : {1u, 2u, 3u, 8u}) {
        thread_pool pool(workers);
        const double pooled = sum_with(pool);
        EXPECT_EQ(std::memcmp(&serial, &pooled, sizeof serial), 0)
            << "workers=" << workers;
    }
}

} // namespace
} // namespace dlb
