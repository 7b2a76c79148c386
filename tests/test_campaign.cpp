// Tests for the campaign subsystem: spec expansion, the scenario registry,
// spec-file parsing, and thread-count-independent campaign reports.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "campaign/campaign_executor.hpp"
#include "campaign/registry.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "graph/algorithms.hpp"

namespace dlb {
namespace {

using namespace dlb::campaign;

// One scenario through the campaign driver, recording every round.
scenario_result run_one(const scenario_spec& spec)
{
    campaign_options options;
    options.record_every = 1;
    return run_scenarios("one", {spec}, options).scenarios.at(0);
}

TEST(CampaignSpec, FieldRoundTripForEveryField)
{
    scenario_spec spec;
    for (const auto& field : field_names()) {
        const std::string before = get_field(spec, field);
        set_field(spec, field, before);
        EXPECT_EQ(get_field(spec, field), before) << field;
    }
    set_field(spec, "topology", "hypercube");
    EXPECT_EQ(spec.topology, "hypercube");
    set_field(spec, "nodes", "4096");
    EXPECT_EQ(spec.nodes, 4096);
    set_field(spec, "beta", "1.5");
    EXPECT_DOUBLE_EQ(spec.beta, 1.5);
    set_field(spec, "seed", "18446744073709551615"); // UINT64_MAX survives
    EXPECT_EQ(spec.seed, 18446744073709551615ULL);
    EXPECT_THROW(set_field(spec, "no_such_field", "x"), std::invalid_argument);
    EXPECT_THROW(set_field(spec, "nodes", "not-a-number"), std::invalid_argument);
    EXPECT_THROW(get_field(spec, "no_such_field"), std::invalid_argument);
}

TEST(CampaignSpec, RngVersionValidatesEagerly)
{
    scenario_spec spec;
    EXPECT_EQ(spec.rng_version, 1); // v1 is the pinned default
    set_field(spec, "rng_version", "2");
    EXPECT_EQ(spec.rng_version, 2);
    set_field(spec, "rng_version", "1");
    EXPECT_EQ(spec.rng_version, 1);

    // Unknown versions are rejected at parse time with a message naming
    // the valid set — not at scenario resolution deep inside a sweep.
    for (const char* bad : {"3", "0", "-1", "v2", ""}) {
        try {
            set_field(spec, "rng_version", bad);
            FAIL() << "rng_version '" << bad << "' unexpectedly accepted";
        } catch (const std::invalid_argument& rejected) {
            EXPECT_NE(std::string(rejected.what()).find("rng_version"),
                      std::string::npos)
                << rejected.what();
        }
    }
    EXPECT_EQ(spec.rng_version, 1); // failed sets leave the spec untouched

    // Programmatic specs bypass set_field; scenario resolution re-validates
    // and reports the error in the result row instead of throwing.
    scenario_spec bad_spec;
    bad_spec.nodes = 16;
    bad_spec.rounds = 5;
    bad_spec.rng_version = 3;
    const auto result = run_one(bad_spec);
    EXPECT_NE(result.error.find("rng_version"), std::string::npos)
        << result.error;
}

TEST(CampaignSpec, RngVersionTagsLabelOnlyForV2)
{
    scenario_spec spec;
    const std::string v1_label = scenario_label(spec);
    EXPECT_EQ(v1_label.find("rng"), std::string::npos)
        << "v1 labels must stay byte-identical to pre-version builds";
    spec.rng_version = 2;
    EXPECT_NE(scenario_label(spec).find("-rng2"), std::string::npos);
}

TEST(CampaignSpec, ExpansionCountIsAxisProduct)
{
    campaign_spec spec;
    EXPECT_EQ(spec.expected_count(), 1);
    EXPECT_EQ(expand(spec).size(), 1u);

    spec.axes["topology"] = {"torus", "hypercube", "cycle"};
    spec.axes["scheme"] = {"fos", "sos"};
    spec.axes["seed"] = {"1", "2"};
    EXPECT_EQ(spec.expected_count(), 12);
    const auto scenarios = expand(spec);
    ASSERT_EQ(scenarios.size(), 12u);

    // Axes iterate key-sorted (scheme, seed, topology), last key fastest.
    EXPECT_EQ(scenarios[0].scheme, "fos");
    EXPECT_EQ(scenarios[0].seed, 1u);
    EXPECT_EQ(scenarios[0].topology, "torus");
    EXPECT_EQ(scenarios[1].topology, "hypercube");
    EXPECT_EQ(scenarios[2].topology, "cycle");
    EXPECT_EQ(scenarios[3].seed, 2u);
    EXPECT_EQ(scenarios[6].scheme, "sos");
}

TEST(CampaignSpec, ExpansionRejectsBadAxes)
{
    campaign_spec spec;
    spec.axes["scheme"] = {};
    EXPECT_THROW(expand(spec), std::invalid_argument);

    spec.axes.clear();
    spec.axes["no_such_field"] = {"x"};
    EXPECT_THROW(expand(spec), std::invalid_argument);

    spec.axes.clear();
    spec.axes["seed"] = std::vector<std::string>(1001, "1");
    spec.axes["rounds"] = std::vector<std::string>(1001, "10");
    EXPECT_THROW(expand(spec), std::invalid_argument); // > 1e6 scenarios
}

TEST(CampaignSpec, SplitListTrims)
{
    const auto items = split_list(" torus , hypercube ,cycle,, ");
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0], "torus");
    EXPECT_EQ(items[1], "hypercube");
    EXPECT_EQ(items[2], "cycle");
}

TEST(CampaignSpec, ParseCampaignFileFormat)
{
    std::istringstream in(
        "# demo campaign\n"
        "name = demo\n"
        "nodes = 144\n"
        "rounds = 50   # trailing comment\n"
        "seed = 9\n"
        "sweep.scheme = fos, sos\n"
        "seeds = 3\n"
        "\n");
    const campaign_spec spec = parse_campaign(in);
    EXPECT_EQ(spec.name, "demo");
    EXPECT_EQ(spec.base.nodes, 144);
    EXPECT_EQ(spec.base.rounds, 50);
    ASSERT_EQ(spec.axes.count("scheme"), 1u);
    ASSERT_EQ(spec.axes.count("seed"), 1u);
    const auto& seeds = spec.axes.at("seed");
    ASSERT_EQ(seeds.size(), 3u);
    EXPECT_EQ(seeds[0], "9");
    EXPECT_EQ(seeds[2], "11");
    EXPECT_EQ(spec.expected_count(), 6);

    std::istringstream bad("nodes 144\n");
    EXPECT_THROW(parse_campaign(bad), std::invalid_argument);
}

TEST(CampaignSpec, SeedsShorthandHonorsLaterSeedLine)
{
    // The "seeds" axis is built after the whole file parses, so a later
    // "seed = N" line still anchors it.
    std::istringstream in(
        "seeds = 3\n"
        "seed = 100\n");
    const campaign_spec spec = parse_campaign(in);
    const auto& seeds = spec.axes.at("seed");
    ASSERT_EQ(seeds.size(), 3u);
    EXPECT_EQ(seeds[0], "100");
    EXPECT_EQ(seeds[2], "102");
}

TEST(CampaignRegistry, EveryTopologyBuilds)
{
    for (const auto& family : topology_names()) {
        const graph g = build_topology(family, 64, 0.0, 77);
        EXPECT_GT(g.num_nodes(), 0) << family;
        EXPECT_GT(g.num_edges(), 0) << family;
        EXPECT_TRUE(is_connected(g)) << family;
    }
    EXPECT_THROW(build_topology("no_such_family", 64, 0.0, 1),
                 std::invalid_argument);
}

TEST(CampaignRegistry, TopologySizesResolve)
{
    EXPECT_EQ(build_topology("torus", 64, 0.0, 1).num_nodes(), 64);     // 8x8
    EXPECT_EQ(build_topology("grid", 100, 0.0, 1).num_nodes(), 100);    // 10x10
    EXPECT_EQ(build_topology("hypercube", 64, 0.0, 1).num_nodes(), 64); // 2^6
    EXPECT_EQ(build_topology("cycle", 64, 0.0, 1).num_nodes(), 64);
    EXPECT_EQ(build_topology("path", 64, 0.0, 1).num_nodes(), 64);
    EXPECT_EQ(build_topology("complete", 16, 0.0, 1).num_nodes(), 16);
    EXPECT_EQ(build_topology("star", 64, 0.0, 1).num_nodes(), 64);
    // random_regular honors an explicit degree via topology_param.
    const graph r = build_topology("random_regular", 64, 4.0, 1);
    EXPECT_LE(r.max_degree(), 4);
}

TEST(CampaignRegistry, EveryLoadPatternConservesTotal)
{
    const node_id n = 50;
    const std::int64_t per_node = 10;
    for (const auto& pattern : load_pattern_names()) {
        const auto load = build_initial_load(pattern, n, per_node, 123);
        ASSERT_EQ(load.size(), static_cast<std::size_t>(n)) << pattern;
        EXPECT_EQ(std::accumulate(load.begin(), load.end(), std::int64_t{0}),
                  per_node * n)
            << pattern;
        for (const auto value : load) EXPECT_GE(value, 0) << pattern;
    }
    EXPECT_THROW(build_initial_load("no_such_pattern", n, per_node, 1),
                 std::invalid_argument);
}

TEST(CampaignRegistry, PatternShapes)
{
    const auto point = build_initial_load("point", 10, 5, 1);
    EXPECT_EQ(point[0], 50);
    EXPECT_EQ(point[5], 0);

    const auto balanced = build_initial_load("balanced", 10, 5, 1);
    for (const auto v : balanced) EXPECT_EQ(v, 5);

    const auto wave = build_initial_load("wavefront", 10, 5, 1);
    EXPECT_GT(wave[0], wave[9]);
    EXPECT_EQ(wave[9], 0);

    const auto corner = build_initial_load("adversarial_corner", 100, 5, 1);
    for (node_id v = 10; v < 100; ++v) EXPECT_EQ(corner[v], 0);

    // Patterns with randomness are deterministic in the seed.
    EXPECT_EQ(build_initial_load("bimodal", 40, 7, 9),
              build_initial_load("bimodal", 40, 7, 9));
    EXPECT_EQ(build_initial_load("random", 40, 7, 9),
              build_initial_load("random", 40, 7, 9));
}

TEST(CampaignExecutor, ScenarioErrorIsCapturedNotThrown)
{
    scenario_spec spec;
    spec.topology = "no_such_family";
    const auto result = run_one(spec);
    EXPECT_FALSE(result.error.empty());
}

TEST(CampaignExecutor, SingleScenarioSummaries)
{
    scenario_spec spec;
    spec.topology = "torus";
    spec.nodes = 36;
    spec.scheme = "sos";
    spec.rounds = 400;
    spec.tokens_per_node = 100;
    const auto result = run_one(spec);
    ASSERT_TRUE(result.error.empty()) << result.error;
    EXPECT_EQ(result.index, 0);
    EXPECT_EQ(result.nodes, 36);
    EXPECT_GT(result.beta, 1.0);
    EXPECT_GE(result.lambda, 0.0);
    EXPECT_EQ(result.initial_total, 3600);
    EXPECT_TRUE(result.conservation_ok);
    EXPECT_TRUE(result.imbalance_converged);
    EXPECT_GE(result.rounds_to_plateau, 0);
    EXPECT_LT(result.final_max_minus_average,
              static_cast<double>(result.initial_total));
}

campaign_spec determinism_spec()
{
    campaign_spec spec;
    spec.name = "determinism";
    spec.base.nodes = 36;
    spec.base.rounds = 80;
    spec.base.tokens_per_node = 50;
    spec.axes["topology"] = {"torus", "hypercube", "cycle"};
    spec.axes["scheme"] = {"fos", "sos"};
    spec.axes["workload"] = {"static", "poisson"};
    spec.base.workload_rate = 5.0;
    spec.axes["seed"] = {"1", "2"};
    return spec;
}

TEST(CampaignExecutor, ReportsAreThreadCountIndependent)
{
    const campaign_spec spec = determinism_spec();

    campaign_options serial;
    serial.threads = 1;
    campaign_options parallel;
    parallel.threads = 4;

    const auto a = run_campaign(spec, serial);
    const auto b = run_campaign(spec, parallel);
    ASSERT_EQ(a.scenarios.size(), 24u);
    ASSERT_EQ(b.scenarios.size(), 24u);

    std::ostringstream json_a, json_b, csv_a, csv_b;
    write_json(json_a, a);
    write_json(json_b, b);
    write_csv(csv_a, a);
    write_csv(csv_b, b);
    EXPECT_EQ(json_a.str(), json_b.str());
    EXPECT_EQ(csv_a.str(), csv_b.str());
}

TEST(CampaignExecutor, EngineThreadsKeepReportsByteIdentical)
{
    // In-engine parallelism (one kernel pool shared by serially executed
    // scenarios) must not change a single byte of the reports.
    const campaign_spec spec = determinism_spec();

    campaign_options serial;
    serial.threads = 1;
    campaign_options engine_parallel;
    engine_parallel.threads = 4; // forced back to 1 by engine_threads != 1
    engine_parallel.engine_threads = 3;

    const auto a = run_campaign(spec, serial);
    const auto b = run_campaign(spec, engine_parallel);
    ASSERT_EQ(a.scenarios.size(), b.scenarios.size());

    std::ostringstream json_a, json_b;
    write_json(json_a, a);
    write_json(json_b, b);
    EXPECT_EQ(json_a.str(), json_b.str());
}

TEST(CampaignExecutor, ConservationHoldsAcrossTheSweep)
{
    const auto result = run_campaign(determinism_spec(), {});
    for (const auto& r : result.scenarios) {
        ASSERT_TRUE(r.error.empty()) << r.label << ": " << r.error;
        EXPECT_TRUE(r.conservation_ok) << r.label;
    }
}

TEST(CampaignExecutor, SeriesDirWritesPerRoundCurves)
{
    campaign_spec spec;
    spec.base.nodes = 16;
    spec.base.rounds = 30;
    spec.base.scheme = "fos";
    spec.axes["rounding"] = {"randomized", "floor"};

    campaign_options options;
    options.record_every = 1;
    options.series_dir = ::testing::TempDir() + "dlb_campaign_series";
    const auto result = run_campaign(spec, options);

    for (const auto& r : result.scenarios) {
        ASSERT_TRUE(r.error.empty()) << r.error;
        const std::string path = options.series_dir + "/" +
                                 std::to_string(r.index) + "_" + r.label +
                                 ".csv";
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << path;
        std::string line;
        std::size_t lines = 0;
        while (std::getline(in, line)) ++lines;
        EXPECT_EQ(lines, 1u + 31u); // header + rounds 0..30
        std::filesystem::remove(path);
    }
    std::filesystem::remove(options.series_dir);
}

TEST(CampaignReport, CsvShapeMatchesHeader)
{
    const auto result = run_campaign(determinism_spec(), {});
    std::ostringstream out;
    write_csv(out, result);
    std::istringstream in(out.str());
    std::string line;
    std::size_t lines = 0;
    const auto columns = csv_header().size();
    while (std::getline(in, line)) {
        ++lines;
        // Column count by comma counting; no cell in this campaign embeds
        // commas (labels and enum names are comma-free by construction).
        const auto commas =
            static_cast<std::size_t>(std::count(line.begin(), line.end(), ','));
        EXPECT_EQ(commas + 1, columns);
    }
    EXPECT_EQ(lines, 1 + result.scenarios.size());
}

TEST(CampaignReport, JsonMentionsAggregateAndScenarios)
{
    campaign_spec spec;
    spec.name = "tiny";
    spec.base.nodes = 16;
    spec.base.rounds = 20;
    spec.base.scheme = "fos";
    const auto result = run_campaign(spec, {});
    std::ostringstream out;
    write_json(out, result);
    const std::string text = out.str();
    EXPECT_NE(text.find("\"name\": \"tiny\""), std::string::npos);
    EXPECT_NE(text.find("\"aggregate\""), std::string::npos);
    EXPECT_NE(text.find("\"scenarios\""), std::string::npos);
    EXPECT_NE(text.find("\"conservation_ok\": true"), std::string::npos);
}

} // namespace
} // namespace dlb
