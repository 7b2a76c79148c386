// Golden vectors pinning both RNG stream formats bit-exactly.
//
// v1 (stream_for + xoshiro256**) is the default format and the one every
// pre-version report was produced under: its vectors may NEVER change — a
// failure here means the default format drifted, which silently invalidates
// every archived campaign report and golden series. v2 (counter-based
// draw_u64) is pinned the same way from the release that introduced it:
// evolving the stream again means adding a v3, not editing v2 (see
// docs/architecture.md, "RNG-stream contract").
//
// Two layers are pinned per format: the raw draw words for fixed
// (seed, node, round) inputs, and the randomized-rounding output of a whole
// fixed scenario (3x3 torus, deterministic antisymmetric scheduled flows),
// which additionally freezes the draw *consumption order* of the owner
// pass — raw words alone would not catch a reordering.
#include <gtest/gtest.h>

#include <vector>

#include "core/rounding.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace dlb {
namespace {

struct stream_golden {
    std::uint64_t seed;
    std::uint64_t node;
    std::uint64_t round;
    std::uint64_t words[3]; // first three draws of the substream
};

// v1: the first three outputs of stream_for(seed, node, round).
const stream_golden kV1Streams[] = {
    {1ULL, 0ULL, 0ULL,
     {4623014522170988166ULL, 12820495699381722146ULL, 17965059027334124938ULL}},
    {1ULL, 1ULL, 0ULL,
     {6779608536529617433ULL, 6030115801519976082ULL, 14546059765013774290ULL}},
    {1ULL, 0ULL, 1ULL,
     {15685890622521051859ULL, 14631778451451619110ULL, 9148128671176408727ULL}},
    {42ULL, 7ULL, 3ULL,
     {13094145838232242919ULL, 130126718218767970ULL, 761758640811976620ULL}},
    {6840124660045547947ULL, 1000000ULL, 4096ULL,
     {10169898920969654354ULL, 7796193526877424401ULL, 8910569974820711233ULL}},
    {18446744073709551615ULL, 5ULL, 2ULL,
     {12880894865415816502ULL, 6556835055425169346ULL, 11672749438557834409ULL}},
};

// v2: draw_u64(seed, node, round, i) for i = 0, 1, 2.
const stream_golden kV2Streams[] = {
    {1ULL, 0ULL, 0ULL,
     {6535721012157785706ULL, 2134938885099536146ULL, 18190390861039114489ULL}},
    {1ULL, 1ULL, 0ULL,
     {10419041500976450680ULL, 16232538827714772508ULL, 5089427536641201908ULL}},
    {1ULL, 0ULL, 1ULL,
     {15074325541806124071ULL, 17350095584914184684ULL, 11247279047685065566ULL}},
    {42ULL, 7ULL, 3ULL,
     {5629528106756497104ULL, 6357449888078014566ULL, 730100476589100835ULL}},
    {6840124660045547947ULL, 1000000ULL, 4096ULL,
     {769910712315693037ULL, 5854660214317324125ULL, 3797810075799329834ULL}},
    {18446744073709551615ULL, 5ULL, 2ULL,
     {12322254161731393095ULL, 8656377847639188561ULL, 7905170758349639469ULL}},
};

TEST(RngGolden, V1StreamForIsPinned)
{
    for (const auto& golden : kV1Streams) {
        auto rng = stream_for(golden.seed, golden.node, golden.round);
        for (const std::uint64_t word : golden.words)
            EXPECT_EQ(rng(), word)
                << "seed=" << golden.seed << " node=" << golden.node
                << " round=" << golden.round;
    }
}

TEST(RngGolden, V2DrawU64IsPinned)
{
    for (const auto& golden : kV2Streams) {
        for (std::uint64_t i = 0; i < 3; ++i)
            EXPECT_EQ(draw_u64(golden.seed, golden.node, golden.round, i),
                      golden.words[i])
                << "seed=" << golden.seed << " node=" << golden.node
                << " round=" << golden.round << " i=" << i;
    }
}

TEST(RngGolden, V2SubstreamIsNotTheV1SeedingSequence)
{
    // The v2 base is version-tagged: without the tag, v2 draws 0..3 would
    // be exactly the four state words v1's xoshiro ctor seeds from
    // mix64(seed, node+1, round+1) — deterministically coupling the two
    // formats and silently breaking "run both versions as independent
    // replicates". Pin the decorrelation.
    for (const auto& golden : kV2Streams) {
        std::uint64_t v1_base =
            mix64(golden.seed, golden.node + 1, golden.round + 1);
        for (const std::uint64_t v2_word : golden.words)
            EXPECT_NE(v2_word, splitmix64(v1_base)) // advances v1_base
                << "seed=" << golden.seed << " node=" << golden.node;
    }
}

TEST(RngGolden, V2CounterRngMatchesDrawU64)
{
    // The incremental view and the stateless contract are the same stream:
    // counter_rng output k equals draw_u64(..., k).
    for (const auto& golden : kV2Streams) {
        counter_rng rng(golden.seed, golden.node, golden.round);
        for (std::uint64_t i = 0; i < 16; ++i)
            EXPECT_EQ(rng(), draw_u64(golden.seed, golden.node, golden.round, i));
    }
}

// The fixed rounding scenario: a 3x3 torus with deterministic antisymmetric
// scheduled flows in roughly [-2, 3.1]. Must match gen formula used to
// produce the tables below exactly.
std::vector<double> golden_scheduled(const graph& g)
{
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()));
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            if (g.is_canonical(h)) {
                scheduled[h] =
                    static_cast<double>((h * 37 + 11) % 97) / 19.0 - 2.0;
                scheduled[g.twin(h)] = -scheduled[h];
            }
    return scheduled;
}

struct rounding_golden {
    rng_version version;
    std::int64_t round;
    std::int64_t flows[36]; // one per half-edge of the 3x3 torus
};

const rounding_golden kRoundingGoldens[] = {
    {rng_version::v1, 0,
     {-2, 1, 2, 0, 2, -1, 0, 2, -1, 1, 2, -1, -2, -2, 0, 2, 0, 2,
      3, 0, -2, 0, -3, 3, 0, -2, -2, 1, -2, 0, 2, 3, 1, -3, -1, -3}},
    {rng_version::v1, 1,
     {-1, 0, 3, 0, 1, -2, 0, 2, 0, 2, 3, 0, -3, -1, 0, 3, 0, 1,
      3, 0, -3, 0, -3, 3, 0, -3, -1, 1, -2, 0, 1, 4, 0, -3, -1, -4}},
    {rng_version::v2, 0,
     {-1, 0, 3, -1, 1, -2, 0, 2, 0, 2, 3, 0, -3, -2, 0, 2, 0, 2,
      3, 0, -3, 0, -3, 3, 1, -2, -1, 0, -2, 0, 1, 4, 0, -3, 0, -4}},
    {rng_version::v2, 1,
     {-2, 1, 2, -1, 2, -2, 0, 2, -1, 2, 2, 0, -2, -2, 0, 2, 0, 2,
      3, 0, -2, 0, -3, 2, 1, -2, -1, 0, -2, 0, 1, 4, 0, -2, 0, -4}},
};

TEST(RngGolden, RandomizedRoundingOutputsArePinned)
{
    const graph g = make_torus_2d(3, 3);
    ASSERT_EQ(g.num_half_edges(), 36);
    const auto scheduled = golden_scheduled(g);
    std::vector<std::int64_t> flows(scheduled.size());

    for (const auto& golden : kRoundingGoldens) {
        round_flows(g, rounding_kind::randomized, scheduled, 42, golden.round,
                    flows, default_executor(), golden.version);
        for (std::size_t h = 0; h < flows.size(); ++h)
            EXPECT_EQ(flows[h], golden.flows[h])
                << "version=" << to_string(golden.version)
                << " round=" << golden.round << " h=" << h;
    }
}

TEST(RngGolden, RoundFlowsMirrorsEveryOwner)
{
    // round_flows writes each owner's (positive-scheduled) value and its
    // exact negation on the twin, for both formats; zero-scheduled edges
    // carry no flow.
    const graph g = make_torus_2d(3, 3);
    const auto scheduled = golden_scheduled(g);
    std::vector<std::int64_t> flows(scheduled.size());

    for (const rng_version version : {rng_version::v1, rng_version::v2}) {
        for (std::int64_t round = 0; round < 4; ++round) {
            round_flows(g, rounding_kind::randomized, scheduled, 42, round,
                        flows, default_executor(), version);
            for (half_edge_id h = 0; h < g.num_half_edges(); ++h) {
                EXPECT_EQ(flows[h], -flows[g.twin(h)])
                    << "version=" << to_string(version) << " h=" << h;
                if (scheduled[h] == 0.0) {
                    EXPECT_EQ(flows[h], 0)
                        << "version=" << to_string(version) << " h=" << h;
                }
            }
        }
    }
}

} // namespace
} // namespace dlb
