// Tests for the experiment runner and recorder.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/alpha.hpp"
#include "core/beta.hpp"
#include "graph/generators.hpp"
#include "linalg/spectra.hpp"
#include "sim/initial_load.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"

namespace dlb {
namespace {

experiment_config base_config(const graph& g, scheme_params scheme)
{
    experiment_config config;
    config.diffusion = {&g, make_alpha(g, alpha_policy::max_degree_plus_one),
                        speed_profile::uniform(g.num_nodes()), scheme};
    config.rounds = 100;
    return config;
}

TEST(Runner, RecordsExpectedNumberOfRows)
{
    const graph g = make_torus_2d(5, 5);
    auto config = base_config(g, fos_scheme());
    config.rounds = 50;
    config.record_every = 10;
    const auto series = run_experiment(config, point_load(25, 0, 2500));
    // Rounds 0, 10, 20, 30, 40, 50.
    ASSERT_EQ(series.size(), 6u);
    EXPECT_EQ(series.rounds.front(), 0);
    EXPECT_EQ(series.rounds.back(), 50);
}

TEST(Runner, MetricsDecreaseUnderBalancing)
{
    const graph g = make_torus_2d(6, 6);
    auto config = base_config(g, fos_scheme());
    config.rounds = 800;
    const auto series = run_experiment(config, point_load(36, 0, 36000));
    EXPECT_LT(series.max_minus_average.back(),
              series.max_minus_average.front() / 100.0);
    EXPECT_LT(series.potential_over_n.back(), series.potential_over_n.front());
}

TEST(Runner, SwitchPolicyIsAppliedAndRecorded)
{
    const graph g = make_torus_2d(8, 8);
    const double beta = beta_opt(torus_2d_lambda(8, 8));
    auto config = base_config(g, sos_scheme(beta));
    config.rounds = 400;
    config.switching = switch_policy::at(150);
    const auto series = run_experiment(config, point_load(64, 0, 64000));
    EXPECT_EQ(series.switch_round, 150);
}

TEST(Runner, LocalThresholdSwitchFires)
{
    const graph g = make_torus_2d(8, 8);
    const double beta = beta_opt(torus_2d_lambda(8, 8));
    auto config = base_config(g, sos_scheme(beta));
    config.rounds = 1500;
    config.switching = switch_policy::when_local_below(10.0);
    const auto series = run_experiment(config, point_load(64, 0, 64000));
    EXPECT_GE(series.switch_round, 0);
    // After the switch the imbalance must end small (paper: drops to ~7).
    EXPECT_LE(series.max_minus_average.back(), 10.0);
}

// phi_local is computed only on recorded rounds and while a local trigger
// is armed. Had an unrecorded round skipped it, the trigger would read a
// stale or zero value and fire early; the switch round and final load must
// instead be the same at every recording stride. The 128^2 torus spans four
// reduce chunks, so the pool really splits the metric sweeps.
TEST(Runner, LocalSwitchIndependentOfRecordStride)
{
    constexpr double kLocalSwitchThreshold = 20.0;
    const graph g = make_torus_2d(128, 128);
    const double beta = beta_opt(torus_2d_lambda(128, 128));
    thread_pool pool(4);
    auto config = base_config(g, sos_scheme(beta));
    config.rounds = 200;
    config.exec = &pool;
    config.switching = switch_policy::when_local_below(kLocalSwitchThreshold);
    const auto initial = uniform_range_load(g.num_nodes(), 0, 200, 9);

    config.record_every = 1;
    const auto reference = run_experiment_with_final_load(config, initial);
    const std::int64_t fired = reference.series.switch_round;
    ASSERT_GT(fired, 0);
    ASSERT_NE(fired % 7, 0) << "fixture must switch on an unrecorded round";
    ASSERT_NE(fired % 16, 0) << "fixture must switch on an unrecorded round";

    for (const std::int64_t every : {7, 16}) {
        config.record_every = every;
        const auto outcome = run_experiment_with_final_load(config, initial);
        EXPECT_EQ(outcome.series.switch_round, fired) << "record_every " << every;
        EXPECT_EQ(outcome.final_load, reference.final_load)
            << "record_every " << every;
    }
}

TEST(Runner, ContinuousTwinDeviationRecorded)
{
    const graph g = make_torus_2d(6, 6);
    auto config = base_config(g, fos_scheme());
    config.rounds = 200;
    config.run_continuous_twin = true;
    const auto series = run_experiment(config, point_load(36, 0, 3600));
    ASSERT_EQ(series.deviation_from_twin.size(), series.size());
    EXPECT_DOUBLE_EQ(series.deviation_from_twin.front(), 0.0);
    for (const double d : series.deviation_from_twin) EXPECT_LT(d, 50.0);
}

TEST(Runner, ContinuousEngineRuns)
{
    const graph g = make_torus_2d(5, 5);
    auto config = base_config(g, fos_scheme());
    config.process = process_kind::continuous;
    config.rounds = 300;
    const auto outcome =
        run_experiment_with_final_load(config, point_load(25, 0, 2500));
    ASSERT_EQ(outcome.final_load_continuous.size(), 25u);
    EXPECT_TRUE(outcome.final_load.empty());
    for (const double v : outcome.final_load_continuous)
        EXPECT_NEAR(v, 100.0, 1.0);
}

TEST(Runner, CumulativeEngineRuns)
{
    const graph g = make_torus_2d(5, 5);
    auto config = base_config(g, fos_scheme());
    config.process = process_kind::cumulative;
    config.rounds = 500;
    const auto outcome =
        run_experiment_with_final_load(config, point_load(25, 0, 2500));
    ASSERT_EQ(outcome.final_load.size(), 25u);
    EXPECT_LE(outcome.series.max_minus_average.back(), 3.0);
}

TEST(Runner, RemainingImbalanceDetected)
{
    const graph g = make_torus_2d(6, 6);
    auto config = base_config(g, fos_scheme());
    config.rounds = 2500;
    config.imbalance_window = 300;
    const auto series = run_experiment(config, point_load(36, 0, 36000));
    EXPECT_TRUE(series.imbalance_converged);
    EXPECT_LE(series.remaining_imbalance, 8.0);
}

TEST(Runner, Validation)
{
    const graph g = make_cycle(4);
    auto config = base_config(g, fos_scheme());
    config.rounds = -1;
    EXPECT_THROW(run_experiment(config, point_load(4, 0, 4)),
                 std::invalid_argument);
    config.rounds = 10;
    config.diffusion.network = nullptr;
    EXPECT_THROW(run_experiment(config, point_load(4, 0, 4)),
                 std::invalid_argument);
}

TEST(Recorder, CsvRoundTrip)
{
    const graph g = make_torus_2d(4, 4);
    auto config = base_config(g, fos_scheme());
    config.rounds = 20;
    config.record_every = 5;
    const auto series = run_experiment(config, point_load(16, 0, 1600));

    const std::string path = ::testing::TempDir() + "dlb_runner_series.csv";
    write_csv(path, series);
    std::ifstream in(path);
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) ++lines;
    EXPECT_EQ(lines, 1 + static_cast<int>(series.size()));
    std::remove(path.c_str());
}

TEST(Recorder, SummaryMentionsKeyNumbers)
{
    const graph g = make_torus_2d(4, 4);
    auto config = base_config(g, fos_scheme());
    config.rounds = 10;
    const auto series = run_experiment(config, point_load(16, 0, 160));
    std::ostringstream out;
    print_summary(out, "unit-test", series);
    const std::string text = out.str();
    EXPECT_NE(text.find("unit-test"), std::string::npos);
    EXPECT_NE(text.find("max-avg"), std::string::npos);
    print_series(out, "max-avg", series, &time_series::max_minus_average, 5);
    EXPECT_NE(out.str().find("[0]"), std::string::npos);
}

} // namespace
} // namespace dlb
