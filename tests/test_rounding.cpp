// Tests for the rounding framework, including unbiasedness
// (paper Observation 1) and conservation.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/alpha.hpp"
#include "core/rounding.hpp"
#include "core/scheme.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace dlb {
namespace {

std::vector<double> antisymmetric_flows(const graph& g, std::uint64_t seed,
                                        double scale = 3.0)
{
    std::vector<double> flows(static_cast<std::size_t>(g.num_half_edges()), 0.0);
    xoshiro256ss rng{seed};
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            if (v < g.head(h)) {
                flows[h] = (rng.next_double() * 2.0 - 1.0) * scale;
                flows[g.twin(h)] = -flows[h];
            }
    return flows;
}

/// Net integer outflow per node.
std::vector<std::int64_t> net_outflow(const graph& g,
                                      std::span<const std::int64_t> flows)
{
    std::vector<std::int64_t> net(static_cast<std::size_t>(g.num_nodes()), 0);
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            net[v] += flows[h];
    return net;
}

class RoundingKinds : public ::testing::TestWithParam<rounding_kind> {};

TEST_P(RoundingKinds, AntisymmetryHolds)
{
    const graph g = make_torus_2d(5, 5);
    const auto scheduled = antisymmetric_flows(g, 11);
    std::vector<std::int64_t> flows(scheduled.size());
    round_flows(g, GetParam(), scheduled, 7, 0, flows, default_executor());
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
        EXPECT_EQ(flows[h], -flows[g.twin(h)]) << "half-edge " << h;
}

TEST_P(RoundingKinds, ConservationNetSumIsZero)
{
    const graph g = make_random_regular_exact(60, 4, 5);
    const auto scheduled = antisymmetric_flows(g, 13);
    std::vector<std::int64_t> flows(scheduled.size());
    round_flows(g, GetParam(), scheduled, 3, 1, flows, default_executor());
    const auto net = net_outflow(g, flows);
    EXPECT_EQ(std::accumulate(net.begin(), net.end(), std::int64_t{0}), 0);
}

TEST_P(RoundingKinds, IntegerFlowsNearScheduled)
{
    const graph g = make_cycle(30);
    const auto scheduled = antisymmetric_flows(g, 17, 10.0);
    std::vector<std::int64_t> flows(scheduled.size());
    round_flows(g, GetParam(), scheduled, 23, 2, flows, default_executor());
    // Every rounding scheme keeps each edge within 1 token of the scheduled
    // flow (floor/ceil for the randomized ones, nearest for deterministic).
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
        EXPECT_LE(std::abs(static_cast<double>(flows[h]) - scheduled[h]), 1.0 + 1e-9)
            << "half-edge " << h;
}

TEST_P(RoundingKinds, ExactIntegersPassThrough)
{
    const graph g = make_cycle(8);
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()), 0.0);
    // Set edge (0,1) to exactly 3 tokens.
    for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h)
        if (g.head(h) == 1) {
            scheduled[h] = 3.0;
            scheduled[g.twin(h)] = -3.0;
        }
    std::vector<std::int64_t> flows(scheduled.size());
    round_flows(g, GetParam(), scheduled, 1, 0, flows, default_executor());
    for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h) {
        if (g.head(h) == 1) {
            EXPECT_EQ(flows[h], 3);
        }
    }
}

TEST_P(RoundingKinds, ZeroFlowsStayZero)
{
    const graph g = make_torus_2d(3, 3);
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()), 0.0);
    std::vector<std::int64_t> flows(scheduled.size(), 99);
    round_flows(g, GetParam(), scheduled, 5, 7, flows, default_executor());
    for (const auto f : flows) EXPECT_EQ(f, 0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, RoundingKinds,
                         ::testing::Values(rounding_kind::randomized,
                                           rounding_kind::floor,
                                           rounding_kind::nearest,
                                           rounding_kind::bernoulli_edge),
                         [](const auto& info) {
                             return std::string(to_string(info.param));
                         });

TEST(Rounding, FloorAlwaysRoundsDown)
{
    const graph g = make_path(2);
    std::vector<double> scheduled(2, 0.0);
    for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h) {
        scheduled[h] = 2.9;
        scheduled[g.twin(h)] = -2.9;
    }
    std::vector<std::int64_t> flows(2);
    round_flows(g, rounding_kind::floor, scheduled, 0, 0, flows, default_executor());
    EXPECT_EQ(flows[g.half_edge_begin(0)], 2);
}

TEST(Rounding, NearestRoundsToClosest)
{
    const graph g = make_path(2);
    std::vector<double> scheduled(2, 0.0);
    scheduled[g.half_edge_begin(0)] = 2.6;
    scheduled[g.twin(g.half_edge_begin(0))] = -2.6;
    std::vector<std::int64_t> flows(2);
    round_flows(g, rounding_kind::nearest, scheduled, 0, 0, flows,
                default_executor());
    EXPECT_EQ(flows[g.half_edge_begin(0)], 3);
}

TEST(Rounding, RandomizedIsDeterministicInSeedAndRound)
{
    const graph g = make_torus_2d(4, 4);
    const auto scheduled = antisymmetric_flows(g, 19);
    std::vector<std::int64_t> a(scheduled.size()), b(scheduled.size()),
        c(scheduled.size());
    round_flows(g, rounding_kind::randomized, scheduled, 5, 9, a,
                default_executor());
    round_flows(g, rounding_kind::randomized, scheduled, 5, 9, b,
                default_executor());
    round_flows(g, rounding_kind::randomized, scheduled, 6, 9, c,
                default_executor());
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(Rounding, RandomizedIsUnbiasedPerEdge)
{
    // Observation 1: E[Yhat - Y^R] = 0. Estimate the mean rounded flow on a
    // fixed edge over many rounds.
    const graph g = make_star(5); // center 0 with 4 leaves
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()), 0.0);
    // Outgoing 0 -> j: 0.25, 0.5, 0.75, 1.5.
    const double values[] = {0.25, 0.5, 0.75, 1.5};
    int idx = 0;
    for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h) {
        scheduled[h] = values[idx++];
        scheduled[g.twin(h)] = -scheduled[h];
    }

    const int trials = 40000;
    std::vector<double> mean(4, 0.0);
    std::vector<std::int64_t> flows(scheduled.size());
    for (int trial = 0; trial < trials; ++trial) {
        round_flows(g, rounding_kind::randomized, scheduled, 99, trial, flows,
                    default_executor());
        idx = 0;
        for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h)
            mean[idx++] += static_cast<double>(flows[h]);
    }
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(mean[i] / trials, values[i], 0.02) << "edge " << i;
}

TEST(Rounding, RandomizedExcessTokensBoundedByCeil)
{
    // Total sent tokens from a node is between floor-sum and
    // floor-sum + ceil(r).
    const graph g = make_star(7);
    const auto scheduled = [&] {
        std::vector<double> flows(static_cast<std::size_t>(g.num_half_edges()), 0.0);
        xoshiro256ss rng{3};
        for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h) {
            flows[h] = rng.next_double() * 2.0; // outgoing only
            flows[g.twin(h)] = -flows[h];
        }
        return flows;
    }();

    double floor_sum = 0.0, excess = 0.0;
    for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h) {
        floor_sum += std::floor(scheduled[h]);
        excess += scheduled[h] - std::floor(scheduled[h]);
    }

    std::vector<std::int64_t> flows(scheduled.size());
    for (int round = 0; round < 200; ++round) {
        round_flows(g, rounding_kind::randomized, scheduled, 1, round, flows,
                    default_executor());
        std::int64_t sent = 0;
        for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h)
            sent += flows[h];
        EXPECT_GE(sent, static_cast<std::int64_t>(floor_sum));
        EXPECT_LE(sent, static_cast<std::int64_t>(floor_sum + std::ceil(excess)));
    }
}

TEST(Rounding, BernoulliEdgeIsUnbiased)
{
    const graph g = make_path(2);
    std::vector<double> scheduled(2, 0.0);
    scheduled[g.half_edge_begin(0)] = 0.7;
    scheduled[g.twin(g.half_edge_begin(0))] = -0.7;
    std::vector<std::int64_t> flows(2);
    double mean = 0.0;
    const int trials = 40000;
    for (int trial = 0; trial < trials; ++trial) {
        round_flows(g, rounding_kind::bernoulli_edge, scheduled, 4, trial, flows,
                    default_executor());
        mean += static_cast<double>(flows[g.half_edge_begin(0)]);
    }
    EXPECT_NEAR(mean / trials, 0.7, 0.02);
}

TEST(Rounding, SizeMismatchThrows)
{
    const graph g = make_cycle(4);
    std::vector<double> scheduled(3);
    std::vector<std::int64_t> flows(8);
    EXPECT_THROW(round_flows(g, rounding_kind::floor, scheduled, 0, 0, flows,
                             default_executor()),
                 std::invalid_argument);
}

TEST(Rounding, ToStringNames)
{
    EXPECT_EQ(to_string(rounding_kind::randomized), "randomized");
    EXPECT_EQ(to_string(rounding_kind::floor), "floor");
    EXPECT_EQ(to_string(rounding_kind::nearest), "nearest");
    EXPECT_EQ(to_string(rounding_kind::bernoulli_edge), "bernoulli_edge");
}

} // namespace
} // namespace dlb
