// Tests for the Section VI metrics and the remaining-imbalance tracker.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/metrics.hpp"
#include "graph/generators.hpp"
#include "sim/thread_pool.hpp"
#include "util/rng.hpp"

namespace dlb {
namespace {

TEST(Metrics, MaxMinusAverage)
{
    const std::vector<std::int64_t> load{10, 20, 30};
    EXPECT_DOUBLE_EQ(max_minus_average(std::span<const std::int64_t>(load)), 10.0);
    const std::vector<double> flat{5.0, 5.0, 5.0};
    EXPECT_DOUBLE_EQ(max_minus_average(std::span<const double>(flat)), 0.0);
}

TEST(Metrics, MaxMinusIdeal)
{
    const std::vector<std::int64_t> load{10, 20};
    const std::vector<double> ideal{12.0, 15.0};
    EXPECT_DOUBLE_EQ(
        max_minus_ideal(std::span<const std::int64_t>(load), ideal), 5.0);
}

TEST(Metrics, MaxLocalDifference)
{
    const graph g = make_path(4);
    const std::vector<std::int64_t> load{0, 10, 3, 4};
    EXPECT_DOUBLE_EQ(max_local_difference(g, std::span<const std::int64_t>(load)),
                     10.0);
}

TEST(Metrics, MaxLocalDifferenceIgnoresNonEdges)
{
    // Star: only center-leaf differences matter.
    const graph g = make_star(4);
    const std::vector<std::int64_t> load{5, 0, 10, 5};
    // Edges: (0,1): 5, (0,2): 5, (0,3): 0. Leaf-leaf difference 10 ignored.
    EXPECT_DOUBLE_EQ(max_local_difference(g, std::span<const std::int64_t>(load)),
                     5.0);
}

TEST(Metrics, NormalizedLocalDifference)
{
    const graph g = make_path(2);
    const std::vector<std::int64_t> load{10, 30};
    const std::vector<double> speeds{1.0, 3.0};
    EXPECT_DOUBLE_EQ(max_local_difference_normalized(
                         g, std::span<const std::int64_t>(load), speeds),
                     0.0);
}

TEST(Metrics, Potential)
{
    const std::vector<std::int64_t> load{0, 10};
    const std::vector<double> ideal{5.0, 5.0};
    EXPECT_DOUBLE_EQ(potential(std::span<const std::int64_t>(load), ideal), 50.0);
    EXPECT_DOUBLE_EQ(potential_homogeneous(std::span<const std::int64_t>(load)),
                     50.0);
}

TEST(Metrics, MinLoadAndDeviation)
{
    const std::vector<std::int64_t> load{3, -2, 7};
    EXPECT_DOUBLE_EQ(min_load(std::span<const std::int64_t>(load)), -2.0);

    const std::vector<std::int64_t> a{1, 2, 3};
    const std::vector<double> b{1.5, 2.0, 0.0};
    EXPECT_DOUBLE_EQ(
        max_deviation(std::span<const std::int64_t>(a), std::span<const double>(b)),
        3.0);
}

TEST(Metrics, DeltaInfinity)
{
    const std::vector<double> load{9.0, 11.0};
    const std::vector<double> ideal{10.0, 10.0};
    EXPECT_DOUBLE_EQ(delta_infinity(std::span<const double>(load), ideal), 1.0);
}

TEST(ImbalanceTracker, DetectsPlateau)
{
    imbalance_tracker tracker(10, 0.01);
    // Steady improvement: never converged.
    for (int i = 0; i < 50; ++i) tracker.observe(1000.0 / (i + 1));
    EXPECT_FALSE(tracker.converged());
    // Plateau at ~8 for a full window.
    for (int i = 0; i < 12; ++i) tracker.observe(8.0 + (i % 3));
    EXPECT_TRUE(tracker.converged());
    EXPECT_NEAR(tracker.remaining(), 9.0, 1.0);
}

TEST(ImbalanceTracker, SmallFluctuationsDontResetPlateau)
{
    imbalance_tracker tracker(5, 0.05);
    tracker.observe(100.0);
    // Tiny improvements below 5% don't count as progress.
    for (int i = 0; i < 6; ++i) tracker.observe(99.0 - i * 0.1);
    EXPECT_TRUE(tracker.converged());
}

TEST(ImbalanceTracker, LargeImprovementResets)
{
    imbalance_tracker tracker(5, 0.01);
    for (int i = 0; i < 6; ++i) tracker.observe(100.0);
    EXPECT_TRUE(tracker.converged());
    tracker.observe(10.0); // big improvement: plateau broken
    EXPECT_FALSE(tracker.converged());
}

TEST(ImbalanceTracker, Validation)
{
    EXPECT_THROW(imbalance_tracker(0), std::invalid_argument);
    EXPECT_THROW(imbalance_tracker(10, -1.0), std::invalid_argument);
}

TEST(Metrics, EmptyInputs)
{
    EXPECT_DOUBLE_EQ(max_minus_average(std::span<const double>{}), 0.0);
    EXPECT_DOUBLE_EQ(potential_homogeneous(std::span<const double>{}), 0.0);
    EXPECT_DOUBLE_EQ(min_load(std::span<const double>{}), 0.0);
}

// ---------------------------------------------------------------------------
// Parity of the executor-taking metrics with the plain serial sweeps they
// replaced. The oracles below are those sweeps, kept verbatim; results are
// compared as bytes, so a last-bit or signed-zero difference fails.

template <class Load>
double oracle_max_minus_average(const std::vector<Load>& load)
{
    double sum = 0.0;
    double max_value = static_cast<double>(load.front());
    for (const Load value : load) {
        sum += static_cast<double>(value);
        max_value = std::max(max_value, static_cast<double>(value));
    }
    return max_value - sum / static_cast<double>(load.size());
}

template <class Load>
double oracle_max_local_difference(const graph& g, const std::vector<Load>& load)
{
    double best = 0.0;
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h) {
            const double diff =
                static_cast<double>(load[v]) - static_cast<double>(load[g.head(h)]);
            best = std::max(best, diff < 0 ? -diff : diff);
        }
    return best;
}

bool same_bytes(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/// null (serial default), serial_executor, and pools of 1, 2 and 8 workers.
struct executor_set {
    serial_executor serial;
    thread_pool one{1};
    thread_pool two{2};
    thread_pool eight{8};

    std::vector<std::pair<const char*, executor*>> all()
    {
        return {{"null", nullptr},
                {"serial", &serial},
                {"pool1", &one},
                {"pool2", &two},
                {"pool8", &eight}};
    }
};

template <class Load>
void expect_average_parity(const std::vector<Load>& load, executor_set& execs)
{
    const double expected = oracle_max_minus_average(load);
    for (const auto& [name, exec] : execs.all()) {
        const double got = max_minus_average(std::span<const Load>(load), exec);
        EXPECT_TRUE(same_bytes(got, expected))
            << name << ": " << got << " vs " << expected;
    }
}

template <class Load>
void expect_local_parity(const graph& g, const std::vector<Load>& load,
                         executor_set& execs)
{
    const double expected = oracle_max_local_difference(g, load);
    for (const auto& [name, exec] : execs.all()) {
        const double got =
            max_local_difference(g, std::span<const Load>(load), exec);
        EXPECT_TRUE(same_bytes(got, expected))
            << name << ": " << got << " vs " << expected;
    }
}

// 111 x 113 = 12543 nodes: four reduce chunks, the last one partial.
constexpr node_id kSideA = 111;
constexpr node_id kSideB = 113;
static_assert(kSideA * kSideB % executor::reduce_chunk != 0);
static_assert(kSideA * kSideB > 3 * executor::reduce_chunk);

TEST(MetricsParity, IntegerLoadsWithNegatives)
{
    executor_set execs;
    const graph g = make_torus_2d(kSideA, kSideB);
    xoshiro256ss rng{11};
    std::vector<std::int64_t> load(static_cast<std::size_t>(g.num_nodes()));
    for (auto& x : load)
        x = static_cast<std::int64_t>(rng.next_below(2'000'001)) - 1'000'000;
    expect_average_parity(load, execs);
    expect_local_parity(g, load, execs);

    // All-negative and a lone spike in the last, partial chunk.
    for (auto& x : load) x = -static_cast<std::int64_t>(rng.next_below(50)) - 1;
    load.back() = 1'000'000'007;
    expect_average_parity(load, execs);
    expect_local_parity(g, load, execs);
}

TEST(MetricsParity, ExactIntegerPathBoundary)
{
    executor_set execs;
    constexpr std::int64_t two52 = std::int64_t{1} << 52;
    // Sigma|x| == 2^53: the last load the exact reduction accepts.
    expect_average_parity(std::vector<std::int64_t>{two52, two52}, execs);
    expect_average_parity(std::vector<std::int64_t>{-two52, two52, 0}, execs);
    // Sigma|x| == 2^53 + 1: the serial fallback.
    expect_average_parity(std::vector<std::int64_t>{two52, two52, -1}, execs);
}

TEST(MetricsParity, RoundingSumTakesSerialFallback)
{
    // Odd loads near 2^45 over 12543 nodes: Sigma|x| ~ 2^58.6 > 2^53, so the
    // serial double accumulation drops low bits once its prefix passes 2^53
    // and only the fallback can reproduce it.
    executor_set execs;
    xoshiro256ss rng{12};
    std::vector<std::int64_t> load(static_cast<std::size_t>(kSideA) * kSideB);
    for (auto& x : load)
        x = (std::int64_t{1} << 45) + 2 * static_cast<std::int64_t>(
                                              rng.next_below(1 << 20)) + 1;
    __int128 exact = 0;
    double serial = 0.0;
    for (const std::int64_t x : load) {
        exact += x;
        serial += static_cast<double>(x);
    }
    ASSERT_NE(static_cast<__int128>(serial), exact)
        << "fixture must make the serial sum round";
    expect_average_parity(load, execs);
}

TEST(MetricsParity, Int64ExtremesSaturate)
{
    executor_set execs;
    constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
    expect_average_parity(std::vector<std::int64_t>{lo}, execs);
    expect_average_parity(std::vector<std::int64_t>{lo, hi, 0, -1}, execs);
    // |INT64_MIN| = 2^63 per node across several chunks: an unsaturated
    // Sigma|x| would wrap to a small value and wrongly pick the exact path.
    std::vector<std::int64_t> extreme(3 * executor::reduce_chunk + 5, lo);
    extreme[7] = hi;
    extreme.back() = 3;
    expect_average_parity(extreme, execs);
    std::vector<std::int64_t> wrap(4, lo);
    expect_average_parity(wrap, execs);
    const graph path = make_path(static_cast<node_id>(extreme.size()));
    expect_local_parity(path, extreme, execs);
}

TEST(MetricsParity, DoubleLoads)
{
    executor_set execs;
    const graph g = make_torus_2d(kSideA, kSideB);
    xoshiro256ss rng{13};
    std::vector<double> load(static_cast<std::size_t>(g.num_nodes()));
    for (auto& x : load) x = rng.next_double() * 2e6 - 1e6;
    expect_average_parity(load, execs);
    expect_local_parity(g, load, execs);

    std::vector<double> zeros(load.size(), 0.0);
    zeros[5] = -0.0;
    expect_average_parity(zeros, execs);
    expect_local_parity(g, zeros, execs);
}

} // namespace
} // namespace dlb
