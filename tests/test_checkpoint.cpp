// Checkpointed engine state with byte-identical resume.
//
// Four contracts are pinned here:
//
//  1. Round-trip exactness: save_checkpoint -> serialize -> parse ->
//     restore_checkpoint reproduces every engine field bit-for-bit, and a
//     restored engine's subsequent trajectory is bitwise identical to the
//     engine it was saved from.
//
//  2. Resume byte-identity: a campaign run that checkpoints, and a second
//     invocation resuming from the snapshot, both produce reports
//     byte-identical to the uninterrupted run — across discrete /
//     continuous / cumulative engines, all four roundings, both RNG stream
//     formats and the poisson / burst / drain workload models.
//
//  3. Strict rejection: a snapshot that does not match the run it is fed
//     to (spec hash, seed, rng_version, rounding, policy, record_every,
//     engine kind, round range, load shape, scheme) is refused with an error
//     naming the field — and a corrupted snapshot file (eight shapes,
//     mirroring the lambda-sidecar battery) never parses.
//
//  4. Windowed sampling (measure_windows): window 0 with W = rounds -
//     start_round reproduces the uninterrupted run's final discrepancy
//     exactly; re-seeded windows match golden values; aggregates are
//     consistent; non-discrete snapshots, snapshots under another scheme
//     and degenerate options are rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign_executor.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "core/alpha.hpp"
#include "core/checkpoint.hpp"
#include "core/process.hpp"
#include "core/scheme.hpp"
#include "graph/generators.hpp"
#include "sim/initial_load.hpp"
#include "sim/runner.hpp"
#include "util/parse.hpp"

namespace dlb {
namespace {

using namespace dlb::campaign;

// One small-but-busy scenario: random initial load, an SOS -> FOS switch
// mid-run and (per test) a dynamic workload, so a snapshot taken at round
// 40 carries nontrivial scheme, hybrid, tracker and conservation state.
campaign_spec checkpoint_spec()
{
    campaign_spec spec;
    spec.name = "checkpoint";
    spec.base.nodes = 36;
    spec.base.rounds = 60;
    spec.base.scheme = "sos";
    spec.base.load_pattern = "random";
    spec.base.tokens_per_node = 200;
    spec.base.switch_mode = "at_round";
    spec.base.switch_value = 20;
    spec.base.seed = 7;
    return spec;
}

std::string csv_of(const campaign_result& result)
{
    std::ostringstream out;
    write_csv(out, result);
    return out.str();
}

std::string json_of(const campaign_result& result)
{
    std::ostringstream out;
    write_json(out, result);
    return out.str();
}

std::string read_binary(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void write_binary(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << bytes;
}

void expect_contains(const std::string& message, const std::string& needle)
{
    EXPECT_NE(message.find(needle), std::string::npos)
        << "message \"" << message << "\" does not name \"" << needle << "\"";
}

/// Runs `fn`, which must throw; returns the exception message.
template <class Fn>
std::string thrown_message(Fn&& fn)
{
    try {
        fn();
    } catch (const std::exception& error) {
        return error.what();
    }
    ADD_FAILURE() << "expected an exception, none was thrown";
    return {};
}

class CheckpointTest : public ::testing::Test {
protected:
    std::string dir_ = ::testing::TempDir() + "dlb_checkpoint_test";
    void SetUp() override
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string snapshot_path(const campaign_spec& spec,
                              std::int64_t index = 0) const
    {
        const auto scenarios = expand(spec);
        return dir_ + "/" + std::to_string(index) + "_" +
               scenario_label(scenarios[static_cast<std::size_t>(index)]) +
               ".ckpt";
    }
};

// ---------------------------------------------------------------------------
// Resume byte-identity across the engine grid (campaign level).
// ---------------------------------------------------------------------------

struct resume_cell {
    const char* process;
    const char* rounding;
    const char* workload;
    std::int64_t rng;
};

TEST_F(CheckpointTest, ResumeByteIdenticalAcrossEngineGrid)
{
    // Every dimension value appears: 3 engines, 4 roundings, rng 1|2,
    // poisson/burst/drain (cycled through the discrete cells, fixed
    // pairings elsewhere — the cross product would be 72 cells for no
    // added coverage).
    std::vector<resume_cell> grid;
    const char* workloads[] = {"poisson", "burst", "drain"};
    int next_workload = 0;
    for (const char* rounding :
         {"randomized", "floor", "nearest", "bernoulli_edge"})
        for (const std::int64_t rng : {1, 2})
            grid.push_back({"discrete", rounding,
                            workloads[next_workload++ % 3], rng});
    for (const char* workload : workloads)
        grid.push_back({"continuous", "randomized", workload, 1});
    grid.push_back({"cumulative", "randomized", "poisson", 1});
    grid.push_back({"cumulative", "randomized", "drain", 2});

    for (const auto& cell : grid) {
        campaign_spec spec = checkpoint_spec();
        spec.base.process = cell.process;
        spec.base.rounding = cell.rounding;
        spec.base.rng_version = cell.rng;
        spec.base.workload = cell.workload;
        if (spec.base.workload == "poisson") {
            spec.base.workload_rate = 3.0;
        } else if (spec.base.workload == "drain") {
            spec.base.workload_rate = 2.0;
        } else {
            spec.base.workload_amount = 120;
            spec.base.workload_period = 15;
        }
        SCOPED_TRACE(std::string(cell.process) + "/" + cell.rounding + "/" +
                     cell.workload + "/rng" + std::to_string(cell.rng));

        // Uninterrupted reference.
        const auto full = run_campaign(spec, {});

        // Checkpointing is pure output: the report does not change.
        campaign_options with_snapshots;
        with_snapshots.checkpoint_every = 40;
        with_snapshots.checkpoint_dir = dir_;
        const auto checkpointed = run_campaign(spec, with_snapshots);
        EXPECT_EQ(csv_of(full), csv_of(checkpointed))
            << "checkpointing changed the report bytes";

        const std::string path = snapshot_path(spec);
        const engine_checkpoint snapshot = read_checkpoint_file(path);
        EXPECT_EQ(snapshot.round, 40);
        EXPECT_EQ(snapshot.scenario_index, 0);
        EXPECT_EQ(snapshot.rng_version, cell.rng);
        EXPECT_EQ(std::string(to_string(snapshot.engine)), cell.process);

        // Resume from round 40 and compare the whole report byte-for-byte.
        campaign_options resume;
        resume.resume_path = path;
        const auto resumed = run_campaign(spec, resume);
        EXPECT_EQ(csv_of(full), csv_of(resumed))
            << "resumed CSV differs from the uninterrupted run";
        EXPECT_EQ(json_of(full), json_of(resumed))
            << "resumed JSON differs from the uninterrupted run";
    }
}

// ---------------------------------------------------------------------------
// Round-trip exactness (engine level).
// ---------------------------------------------------------------------------

TEST(CheckpointRoundTrip, DiscreteStateSurvivesSerializeParseExactly)
{
    const graph g = make_torus_2d(6, 6);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::bimodal(g.num_nodes(), 0.25, 4.0, 5);
    const diffusion_config diffusion{&g, alpha, speeds, sos_scheme(1.7)};
    const auto initial = point_load(g.num_nodes(), 0, 3600);

    discrete_process engine(diffusion, initial, rounding_kind::randomized, 9);
    engine.run(37);

    engine_checkpoint checkpoint;
    checkpoint.spec_hash = 0xfeedbeefcafef00dULL;
    checkpoint.scenario_index = 3;
    checkpoint.rng_version = 1;
    checkpoint.seed = 9;
    checkpoint.round = engine.round();
    checkpoint.rng_check = checkpoint_rng_check(1, 9, engine.round());
    checkpoint.engine = checkpoint_engine::discrete;
    checkpoint.record_every = 7;
    engine.save_checkpoint(checkpoint.discrete);

    const std::string image = serialize_checkpoint(checkpoint);
    const engine_checkpoint parsed = parse_checkpoint(image);

    EXPECT_EQ(parsed.spec_hash, checkpoint.spec_hash);
    EXPECT_EQ(parsed.scenario_index, checkpoint.scenario_index);
    EXPECT_EQ(parsed.rng_version, checkpoint.rng_version);
    EXPECT_EQ(parsed.seed, checkpoint.seed);
    EXPECT_EQ(parsed.rng_check, checkpoint.rng_check);
    EXPECT_EQ(parsed.engine, checkpoint.engine);
    EXPECT_EQ(parsed.round, checkpoint.round);
    EXPECT_EQ(parsed.record_every, checkpoint.record_every);
    EXPECT_EQ(parsed.discrete.load, checkpoint.discrete.load);
    EXPECT_EQ(parsed.discrete.previous_flows,
              checkpoint.discrete.previous_flows);
    EXPECT_EQ(parsed.discrete.round, checkpoint.discrete.round);
    EXPECT_EQ(parsed.discrete.scheme.kind, checkpoint.discrete.scheme.kind);
    EXPECT_EQ(parsed.discrete.scheme.beta, checkpoint.discrete.scheme.beta);
    EXPECT_EQ(parsed.discrete.scheme.lambda,
              checkpoint.discrete.scheme.lambda);
    EXPECT_EQ(parsed.discrete.scheme.rounds_in_scheme,
              checkpoint.discrete.scheme.rounds_in_scheme);
    EXPECT_EQ(parsed.discrete.scheme.omega, checkpoint.discrete.scheme.omega);
    EXPECT_EQ(parsed.discrete.initial_total, checkpoint.discrete.initial_total);
    EXPECT_EQ(parsed.discrete.external_total,
              checkpoint.discrete.external_total);
    EXPECT_EQ(parsed.discrete.clipped_tokens,
              checkpoint.discrete.clipped_tokens);
    EXPECT_EQ(std::memcmp(&parsed.discrete.negative,
                          &checkpoint.discrete.negative,
                          sizeof checkpoint.discrete.negative),
              0);

    // Serialization is a fixed point: re-serializing the parsed snapshot
    // reproduces the file image byte-for-byte.
    EXPECT_EQ(serialize_checkpoint(parsed), image);

    // A fresh engine seeded with a *different* initial distribution,
    // restored from the snapshot, walks the identical trajectory.
    const auto other = point_load(g.num_nodes(), g.num_nodes() - 1, 3600);
    discrete_process resumed(diffusion, other, rounding_kind::randomized, 9);
    resumed.restore_checkpoint(parsed.discrete);
    ASSERT_EQ(resumed.round(), engine.round());
    for (int i = 0; i < 15; ++i) {
        engine.step();
        resumed.step();
    }
    const auto a = engine.load();
    const auto b = resumed.load();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof a[0]), 0)
        << "restored engine diverged from the original";
    EXPECT_TRUE(resumed.verify_conservation());
}

TEST(CheckpointRoundTrip, CumulativeStateSurvivesSerializeParseExactly)
{
    const graph g = make_torus_2d(6, 6);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    const diffusion_config diffusion{&g, alpha, speeds, sos_scheme(1.7)};
    const auto initial = point_load(g.num_nodes(), 0, 3600);

    cumulative_process engine(diffusion, initial);
    engine.run(23);

    engine_checkpoint checkpoint;
    checkpoint.seed = 1;
    checkpoint.round = engine.round();
    checkpoint.rng_check = checkpoint_rng_check(1, 1, engine.round());
    checkpoint.engine = checkpoint_engine::cumulative;
    engine.save_checkpoint(checkpoint.cumulative);

    const engine_checkpoint parsed =
        parse_checkpoint(serialize_checkpoint(checkpoint));
    EXPECT_EQ(parsed.cumulative.load, checkpoint.cumulative.load);
    EXPECT_EQ(parsed.cumulative.cumulative_continuous,
              checkpoint.cumulative.cumulative_continuous);
    EXPECT_EQ(parsed.cumulative.cumulative_discrete,
              checkpoint.cumulative.cumulative_discrete);
    EXPECT_EQ(parsed.cumulative.twin.load, checkpoint.cumulative.twin.load);
    EXPECT_EQ(parsed.cumulative.twin.previous_flows,
              checkpoint.cumulative.twin.previous_flows);

    cumulative_process resumed(diffusion, initial);
    resumed.restore_checkpoint(parsed.cumulative);
    ASSERT_EQ(resumed.round(), engine.round());
    for (int i = 0; i < 15; ++i) {
        engine.step();
        resumed.step();
    }
    const auto a = engine.load();
    const auto b = resumed.load();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof a[0]), 0);
    EXPECT_TRUE(resumed.verify_conservation());
    EXPECT_LE(resumed.max_cumulative_error(), 0.5);
}

// ---------------------------------------------------------------------------
// Mismatch rejection, naming the field (runner level).
// ---------------------------------------------------------------------------

TEST(CheckpointResumeValidation, MismatchesThrowNamingTheField)
{
    const graph g = make_torus_2d(6, 6);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    const auto initial = point_load(g.num_nodes(), 0, 3600);
    const std::string path =
        ::testing::TempDir() + "dlb_checkpoint_mismatch.ckpt";

    experiment_config config;
    config.diffusion = {&g, alpha, speeds, sos_scheme(1.7)};
    config.seed = 11;
    config.rounds = 50;
    config.record_every = 1;
    config.checkpoint_every = 20;
    config.checkpoint_path = path;
    run_experiment(config, initial);

    const engine_checkpoint snapshot = read_checkpoint_file(path);
    ASSERT_EQ(snapshot.round, 40);
    std::filesystem::remove(path);

    experiment_config base = config;
    base.checkpoint_every = 0;
    base.checkpoint_path.clear();
    base.resume = &snapshot;
    run_experiment(base, initial); // control: the matching config resumes

    const auto message_for = [&](const experiment_config& bad) {
        return thrown_message([&] { run_experiment(bad, initial); });
    };

    {
        experiment_config bad = base;
        bad.seed = 12;
        expect_contains(message_for(bad), "seed");
    }
    {
        experiment_config bad = base;
        bad.rng = rng_version::v2;
        expect_contains(message_for(bad), "rng_version");
    }
    {
        experiment_config bad = base;
        bad.rounding = rounding_kind::floor;
        expect_contains(message_for(bad), "rounding");
    }
    {
        experiment_config bad = base;
        bad.policy = negative_load_policy::prevent;
        expect_contains(message_for(bad), "policy");
    }
    {
        experiment_config bad = base;
        bad.record_every = 2;
        expect_contains(message_for(bad), "record_every");
    }
    {
        experiment_config bad = base;
        bad.process = process_kind::continuous;
        expect_contains(message_for(bad), "continuous");
    }
    {
        experiment_config bad = base;
        bad.checkpoint_spec_hash = 123;
        expect_contains(message_for(bad), "spec_hash");
        expect_contains(message_for(bad), hex64(123));
    }
    {
        experiment_config bad = base;
        bad.rounds = 30; // snapshot round 40 is beyond the end
        expect_contains(message_for(bad), "round");
    }
    {
        experiment_config bad = base;
        bad.run_continuous_twin = true;
        expect_contains(message_for(bad), "twin");
    }
    {
        // The scheme is pinned bitwise: one ulp of beta is a different run.
        engine_checkpoint forged = snapshot;
        forged.discrete.scheme.beta = std::nextafter(1.7, 2.0);
        experiment_config bad = base;
        bad.resume = &forged;
        expect_contains(message_for(bad), "scheme mismatch");
    }
    {
        experiment_config bad = base;
        bad.diffusion.scheme = chebyshev_scheme(0.5);
        expect_contains(message_for(bad), "scheme mismatch");
    }
    {
        // A shape mismatch survives parsing (the snapshot is internally
        // consistent) but must be refused by the engine restore.
        engine_checkpoint forged = snapshot;
        forged.discrete.load.pop_back();
        experiment_config bad = base;
        bad.resume = &forged;
        expect_contains(message_for(bad), "load");
    }
}

// ---------------------------------------------------------------------------
// Mismatch rejection at the campaign driver.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, CampaignResumeRejectsSpecHashMismatch)
{
    campaign_spec spec = checkpoint_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);
    const std::string path = snapshot_path(spec);

    campaign_spec other = spec;
    other.base.rounds = 80; // different campaign, different spec_hash
    campaign_options resume;
    resume.resume_path = path;
    const std::string message =
        thrown_message([&] { run_campaign(other, resume); });
    expect_contains(message, "spec_hash");
    expect_contains(message, path);
}

TEST_F(CheckpointTest, CampaignResumeRejectsRngVersionMismatch)
{
    campaign_spec spec = checkpoint_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);

    // Forge a snapshot claiming rng_version 2, with a self-consistent
    // probe word so it parses — the campaign driver must still refuse it
    // against the scenario's rng_version 1.
    engine_checkpoint forged = read_checkpoint_file(snapshot_path(spec));
    forged.rng_version = 2;
    forged.rng_check = checkpoint_rng_check(2, forged.seed, forged.round);
    const std::string forged_path = dir_ + "/forged_rng.ckpt";
    write_checkpoint_file(forged_path, forged);

    campaign_options resume;
    resume.resume_path = forged_path;
    expect_contains(thrown_message([&] { run_campaign(spec, resume); }),
                    "rng_version");
}

// A snapshot taken under another lambda (hence another beta) must not
// resume with the stale beta: under --resume the scenario is an error row
// naming the scheme.
TEST_F(CheckpointTest, CampaignResumeRejectsSnapshotUnderAnotherScheme)
{
    campaign_spec spec = checkpoint_spec();
    spec.base.switch_mode = "never"; // the snapshot holds the derived SOS beta
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    const auto full = run_campaign(spec, with_snapshots);

    engine_checkpoint forged = read_checkpoint_file(snapshot_path(spec));
    ASSERT_EQ(forged.discrete.scheme.beta, full.scenarios.at(0).beta);
    forged.discrete.scheme.beta = std::nextafter(forged.discrete.scheme.beta, 0.0);
    const std::string forged_path = dir_ + "/forged_scheme.ckpt";
    write_checkpoint_file(forged_path, forged);

    campaign_options resume;
    resume.resume_path = forged_path;
    const auto resumed = run_campaign(spec, resume);
    ASSERT_EQ(resumed.scenarios.size(), 1u);
    expect_contains(resumed.scenarios[0].error, "scheme mismatch");
}

TEST_F(CheckpointTest, CampaignResumeRejectsRecordEveryMismatch)
{
    campaign_spec spec = checkpoint_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    with_snapshots.record_every = 1;
    run_campaign(spec, with_snapshots);

    campaign_options resume;
    resume.resume_path = snapshot_path(spec);
    resume.record_every = 5;
    expect_contains(thrown_message([&] { run_campaign(spec, resume); }),
                    "record_every");
}

TEST_F(CheckpointTest, CampaignResumeRejectsScenarioOutsideShard)
{
    campaign_spec spec = checkpoint_spec();
    spec.axes["seed"] = {"1", "2"};
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);

    // Scenario 0 lands in round-robin shard 0 of 2; shard 1 must refuse
    // its snapshot rather than silently run it.
    campaign_options resume;
    resume.resume_path = snapshot_path(spec, 0);
    resume.shard_index = 1;
    resume.shard_count = 2;
    expect_contains(thrown_message([&] { run_campaign(spec, resume); }),
                    "shard");
}

// The one snapshot gate, fed each campaign-level mismatch. --resume and
// measure_windows both refuse it naming the field, in the same words after
// their own prefix. Windows adopt the snapshot's stride and belong to no
// shard, so the record_every and shard rows reach --resume only.
TEST_F(CheckpointTest, SnapshotGateRefusesEachMismatchNamingTheField)
{
    campaign_spec spec = checkpoint_spec();
    spec.axes["seed"] = {"1", "2"};
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    with_snapshots.record_every = 1;
    run_campaign(spec, with_snapshots);
    const engine_checkpoint genuine = read_checkpoint_file(snapshot_path(spec));

    struct mismatch {
        const char* field;
        void (*forge)(engine_checkpoint&, campaign_options&);
        bool reaches_windows;
    };
    const mismatch table[] = {
        {"spec_hash",
         [](engine_checkpoint& s, campaign_options&) { s.spec_hash ^= 1; },
         true},
        {"scenario index",
         [](engine_checkpoint& s, campaign_options&) { s.scenario_index = 7; },
         true},
        {"rng_version",
         [](engine_checkpoint& s, campaign_options&) {
             s.rng_version = 2;
             s.rng_check = checkpoint_rng_check(2, s.seed, s.round);
         },
         true},
        {"record_every",
         [](engine_checkpoint&, campaign_options& o) { o.record_every = 5; },
         false},
        {"shard",
         [](engine_checkpoint&, campaign_options& o) {
             o.shard_index = 1; // scenario 0 is round-robin shard 0's
             o.shard_count = 2;
         },
         false},
    };
    measure_windows_options windows;
    windows.windows = 2;
    windows.window_rounds = 5;
    for (const mismatch& row : table) {
        engine_checkpoint forged = genuine;
        campaign_options resume;
        resume.record_every = 1;
        row.forge(forged, resume);
        resume.resume_path = dir_ + "/forged.ckpt";
        write_checkpoint_file(resume.resume_path, forged);

        const std::string resumed =
            thrown_message([&] { run_campaign(spec, resume); });
        SCOPED_TRACE(row.field);
        expect_contains(resumed, "resume: " + resume.resume_path + ": ");
        expect_contains(resumed, row.field);
        if (!row.reaches_windows) continue;
        const std::string windowed =
            thrown_message([&] { measure_windows(spec, forged, windows); });
        expect_contains(windowed, std::string("measure_windows: ") + row.field);
        EXPECT_EQ(resumed.substr(resumed.find(row.field)),
                  windowed.substr(windowed.find(row.field)));
    }
    // Hashes print as 16 hex digits at every gate, the runner's included.
    engine_checkpoint forged = genuine;
    forged.spec_hash = 0x7b;
    expect_contains(
        thrown_message([&] { measure_windows(spec, forged, windows); }),
        "000000000000007b");
}

TEST_F(CheckpointTest, CheckpointKnobsMustBeSetTogether)
{
    const campaign_spec spec = checkpoint_spec();
    {
        campaign_options options;
        options.checkpoint_every = 5;
        expect_contains(thrown_message([&] { run_campaign(spec, options); }),
                        "together");
    }
    {
        campaign_options options;
        options.checkpoint_dir = dir_;
        expect_contains(thrown_message([&] { run_campaign(spec, options); }),
                        "together");
    }
    {
        campaign_options options;
        options.resume_path = dir_ + "/does_not_exist.ckpt";
        expect_contains(thrown_message([&] { run_campaign(spec, options); }),
                        "does_not_exist.ckpt");
    }
}

// ---------------------------------------------------------------------------
// Corruption battery (mirrors the lambda-sidecar shapes).
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, CorruptSnapshotFilesAreRejected)
{
    campaign_spec spec = checkpoint_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);
    const std::string image = read_binary(snapshot_path(spec));
    ASSERT_GT(image.size(), 100u);
    const std::size_t header = std::string(kCheckpointHeader).size() + 1;

    std::string flipped_payload = image;
    flipped_payload[header + 8] ^= 0x40;
    std::string zeroed_checksum = image;
    for (std::size_t i = image.size() - 8; i < image.size(); ++i)
        zeroed_checksum[i] = '\0';

    const std::vector<std::string> corruptions = {
        "",                                           // empty file
        image.substr(0, 10),                          // truncated header
        "# dlb lambda sidecar v1\n" + image.substr(header), // wrong magic
        std::string(kCheckpointHeader) + "\n",        // header, no payload
        image.substr(0, image.size() * 6 / 10),       // truncated payload
        flipped_payload,                              // flipped byte
        image + "trailing garbage",                   // extra bytes
        zeroed_checksum,                              // checksum wiped
    };
    const std::string path = dir_ + "/corrupt.ckpt";
    for (std::size_t i = 0; i < corruptions.size(); ++i) {
        SCOPED_TRACE("corruption shape " + std::to_string(i));
        write_binary(path, corruptions[i]);
        EXPECT_THROW(read_checkpoint_file(path), std::runtime_error);
        expect_contains(
            thrown_message([&] { read_checkpoint_file(path); }),
            "checkpoint");
    }
}

TEST_F(CheckpointTest, InternallyInconsistentSnapshotsAreRejected)
{
    campaign_spec spec = checkpoint_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);
    const engine_checkpoint valid =
        read_checkpoint_file(snapshot_path(spec));

    {
        // Header round drifted from the engine's own round (probe word kept
        // consistent so the round check, not the RNG check, must fire).
        engine_checkpoint forged = valid;
        forged.round += 1;
        forged.rng_check =
            checkpoint_rng_check(forged.rng_version, forged.seed, forged.round);
        expect_contains(
            thrown_message([&] { parse_checkpoint(serialize_checkpoint(forged)); }),
            "round");
    }
    {
        // A probe word from some other RNG implementation.
        engine_checkpoint forged = valid;
        forged.rng_check ^= 1;
        expect_contains(
            thrown_message([&] { parse_checkpoint(serialize_checkpoint(forged)); }),
            "rng");
    }
    {
        // Scheme kind outside the wire range.
        engine_checkpoint forged = valid;
        forged.discrete.scheme.kind = 9;
        expect_contains(
            thrown_message([&] { parse_checkpoint(serialize_checkpoint(forged)); }),
            "scheme");
    }
}

// ---------------------------------------------------------------------------
// Windowed sampling (measure_windows).
// ---------------------------------------------------------------------------

campaign_spec windows_spec()
{
    campaign_spec spec = checkpoint_spec();
    spec.base.workload = "poisson";
    spec.base.workload_rate = 3.0;
    return spec;
}

TEST_F(CheckpointTest, WindowZeroReproducesTheFullRunExactly)
{
    const campaign_spec spec = windows_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    const auto full = run_campaign(spec, with_snapshots);
    ASSERT_EQ(full.scenarios.size(), 1u);
    ASSERT_TRUE(full.scenarios[0].error.empty()) << full.scenarios[0].error;

    const engine_checkpoint snapshot =
        read_checkpoint_file(snapshot_path(spec));
    measure_windows_options options;
    options.windows = 1;
    options.window_rounds = spec.base.rounds - snapshot.round;
    const auto result = measure_windows(spec, snapshot, options);

    ASSERT_EQ(result.samples.size(), 1u);
    EXPECT_EQ(result.samples[0].seed, spec.base.seed);
    EXPECT_EQ(result.samples[0].discrepancy,
              full.scenarios[0].final_max_minus_average)
        << "window 0 with W = rounds - start_round must replay the tail";
    EXPECT_EQ(result.mean, result.samples[0].discrepancy);
    EXPECT_EQ(result.stddev, 0.0);
    EXPECT_EQ(result.ci95_half_width, 0.0);
    EXPECT_EQ(result.start_round, snapshot.round);
}

TEST_F(CheckpointTest, WindowZeroReplaysALocalTriggerSwitch)
{
    // A local-threshold switch still armed at the snapshot: the window loop
    // must compute max_local_difference each round for the trigger and fire
    // it on the same round as the full run. The horizon ends three rounds
    // after the switch, close enough that an early or late switch shows in
    // the final discrepancy.
    campaign_spec spec = windows_spec();
    spec.base.nodes = 1024;
    spec.base.rounds = 48;
    spec.base.switch_mode = "local";
    spec.base.switch_value = 8;
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    const auto full = run_campaign(spec, with_snapshots);
    ASSERT_EQ(full.scenarios.size(), 1u);
    ASSERT_TRUE(full.scenarios[0].error.empty()) << full.scenarios[0].error;

    const engine_checkpoint snapshot =
        read_checkpoint_file(snapshot_path(spec));
    ASSERT_FALSE(snapshot.runner.hybrid_switched);
    ASSERT_GT(full.scenarios[0].switch_round, snapshot.round)
        << "fixture must switch inside the window";

    measure_windows_options options;
    options.windows = 1;
    options.window_rounds = spec.base.rounds - snapshot.round;
    const auto result = measure_windows(spec, snapshot, options);
    ASSERT_EQ(result.samples.size(), 1u);
    EXPECT_EQ(result.samples[0].discrepancy,
              full.scenarios[0].final_max_minus_average);
}

TEST_F(CheckpointTest, WindowAggregatesAreConsistent)
{
    const campaign_spec spec = windows_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);
    const engine_checkpoint snapshot =
        read_checkpoint_file(snapshot_path(spec));

    measure_windows_options options;
    options.windows = 5;
    options.window_rounds = 10;
    const auto result = measure_windows(spec, snapshot, options);
    ASSERT_EQ(result.samples.size(), 5u);
    EXPECT_EQ(result.window_rounds, 10);

    // Window 0 keeps the run's seed; every other window is re-seeded and
    // all seeds are pairwise distinct.
    EXPECT_EQ(result.samples[0].seed, spec.base.seed);
    for (std::size_t i = 0; i < result.samples.size(); ++i)
        for (std::size_t j = i + 1; j < result.samples.size(); ++j)
            EXPECT_NE(result.samples[i].seed, result.samples[j].seed)
                << "windows " << i << " and " << j << " share a seed";

    double sum = 0.0;
    for (const auto& sample : result.samples) sum += sample.discrepancy;
    EXPECT_DOUBLE_EQ(result.mean, sum / 5.0);
    EXPECT_GE(result.stddev, 0.0);
    EXPECT_DOUBLE_EQ(result.ci95_half_width,
                     1.96 * result.stddev / std::sqrt(5.0));

    // Determinism: the same snapshot and options reproduce the samples.
    const auto again = measure_windows(spec, snapshot, options);
    ASSERT_EQ(again.samples.size(), result.samples.size());
    for (std::size_t i = 0; i < result.samples.size(); ++i) {
        EXPECT_EQ(again.samples[i].seed, result.samples[i].seed);
        EXPECT_EQ(again.samples[i].discrepancy, result.samples[i].discrepancy);
    }
}

// Golden values for the re-seeded windows 1..4 (K = 5, W = 10 from the
// round-40 snapshot), recorded from the build whose windows ran a private
// engine loop. Windows now run through run_experiment's resume path; these
// literals prove it is the same program, seeds and bits.
TEST_F(CheckpointTest, ReseededWindowsMatchGoldenValues)
{
    const campaign_spec spec = windows_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);
    const engine_checkpoint snapshot =
        read_checkpoint_file(snapshot_path(spec));
    ASSERT_EQ(snapshot.round, 40);

    measure_windows_options options;
    options.windows = 5;
    options.window_rounds = 10;
    const auto result = measure_windows(spec, snapshot, options);
    ASSERT_EQ(result.samples.size(), 5u);

    const std::uint64_t seeds[] = {12292164382328776928ull,
                                   3767983011347183381ull,
                                   10060818075775667555ull,
                                   5243479874409963082ull};
    const double discrepancies[] = {1.6111111111111143, 2.4444444444444571,
                                    1.8611111111111143, 1.5833333333333428};
    for (std::size_t k = 1; k < 5; ++k) {
        EXPECT_EQ(result.samples[k].seed, seeds[k - 1]) << "window " << k;
        EXPECT_EQ(result.samples[k].discrepancy, discrepancies[k - 1])
            << "window " << k;
    }
}

// Windows resume through the runner, so they honour the same scheme pin
// as --resume: a snapshot whose beta drifted by one ulp is refused.
TEST_F(CheckpointTest, WindowsRejectSnapshotUnderAnotherScheme)
{
    const campaign_spec spec = windows_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);
    engine_checkpoint forged = read_checkpoint_file(snapshot_path(spec));
    forged.discrete.scheme.beta =
        std::nextafter(forged.discrete.scheme.beta, 0.0);

    measure_windows_options options;
    options.windows = 2;
    options.window_rounds = 5;
    expect_contains(
        thrown_message([&] { measure_windows(spec, forged, options); }),
        "scheme mismatch");
}

TEST_F(CheckpointTest, WindowedSamplingRejectsNonDiscreteAndBadOptions)
{
    campaign_spec continuous = windows_spec();
    continuous.base.process = "continuous";
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(continuous, with_snapshots);
    const engine_checkpoint snapshot =
        read_checkpoint_file(snapshot_path(continuous));

    measure_windows_options options;
    options.windows = 2;
    options.window_rounds = 5;
    expect_contains(
        thrown_message([&] { measure_windows(continuous, snapshot, options); }),
        "discrete");

    const campaign_spec spec = windows_spec();
    {
        measure_windows_options bad = options;
        bad.windows = 0;
        EXPECT_THROW(measure_windows(spec, snapshot, bad),
                     std::invalid_argument);
    }
    {
        measure_windows_options bad = options;
        bad.window_rounds = 0;
        EXPECT_THROW(measure_windows(spec, snapshot, bad),
                     std::invalid_argument);
    }
}

TEST_F(CheckpointTest, WindowReportsAreWellFormed)
{
    const campaign_spec spec = windows_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);
    const engine_checkpoint snapshot =
        read_checkpoint_file(snapshot_path(spec));

    measure_windows_options options;
    options.windows = 3;
    options.window_rounds = 10;
    const auto result = measure_windows(spec, snapshot, options);

    std::ostringstream csv;
    write_windows_csv(csv, result);
    const std::string csv_text = csv.str();
    expect_contains(csv_text,
                    "window,seed,start_round,window_rounds,discrepancy,"
                    "mean,stddev,ci95_half_width");
    // Header plus one row per window.
    EXPECT_EQ(std::count(csv_text.begin(), csv_text.end(), '\n'), 4);

    std::ostringstream json;
    write_windows_json(json, result);
    expect_contains(json.str(), "\"windows\"");
    expect_contains(json.str(), "\"ci95_half_width\"");

    // Byte-stable like every other report.
    std::ostringstream csv_again;
    write_windows_csv(csv_again, measure_windows(spec, snapshot, options));
    EXPECT_EQ(csv_text, csv_again.str());
}

} // namespace
} // namespace dlb
