#include "core/rounding.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace dlb {

namespace {

// Half-edges processed per rounding kernel: with the engine's round counter
// and a trace this gives per-kernel edges/s. Counted in the owner sweep,
// which both round_flows and the discrete engine run.
obs::counter& kernel_counter(rounding_kind kind)
{
    static obs::counter& randomized =
        obs::registry_counter("rounding.randomized_half_edges");
    static obs::counter& floor_edges =
        obs::registry_counter("rounding.floor_half_edges");
    static obs::counter& nearest =
        obs::registry_counter("rounding.nearest_half_edges");
    static obs::counter& bernoulli =
        obs::registry_counter("rounding.bernoulli_edge_half_edges");
    switch (kind) {
    case rounding_kind::randomized: return randomized;
    case rounding_kind::floor: return floor_edges;
    case rounding_kind::nearest: return nearest;
    case rounding_kind::bernoulli_edge: return bernoulli;
    }
    return randomized;
}

} // namespace

std::string_view to_string(rounding_kind kind) noexcept
{
    switch (kind) {
    case rounding_kind::randomized: return "randomized";
    case rounding_kind::floor: return "floor";
    case rounding_kind::nearest: return "nearest";
    case rounding_kind::bernoulli_edge: return "bernoulli-edge";
    }
    return "unknown";
}

namespace {

// Every per-node kernel below rounds one node's outgoing flows: yhat[j] is
// Yhat on half-edge half_edge_begin(v) + j and out[j] receives its integer
// flow — the rounded value where yhat[j] > 0, 0 everywhere else.
// StaticDegree != 0 instantiates a kernel for that exact degree, fully
// unrolling its short loops (the owner sweep's degree-4 fast path); 0 is
// the dynamic-degree body. The degree only changes trip counts, never the
// order of any floating-point operation, so both give identical results.

/// Cold path of the inverse-CDF walk: an exact-zero target starts
/// non-positive before any subtraction and, like the early-exit walk,
/// lands on the first fractional edge (one exists whenever the caller's
/// excess is positive). Out of line so the hot walk stays compact.
[[gnu::noinline]] void credit_first_fractional(const double* fractions,
                                               std::int64_t* out)
{
    std::int32_t first_fractional = 0;
    while (fractions[first_fractional] <= 0.0) ++first_fractional;
    out[first_fractional] += 1;
}

/// Pass 1 of the v1 owner kernel: floor all outgoing flows (zeroing the
/// rest), accumulate the excess mass r, and cache the fractional parts
/// slice-aligned. The gate multiply keeps the loop free of data-dependent
/// branches: x * 1.0 == x and (nonnegative) * 0.0 == +0.0 exactly, so
/// outgoing edges contribute bit-identically to the original guarded sum
/// and the rest contribute an exact 0.0.
struct owner_floor_pass {
    double excess = 0.0;
    std::int32_t last_fractional = 0;
};

inline owner_floor_pass floor_outgoing(const double* yhat, std::int64_t* out,
                                       std::int32_t degree, double* fractions)
{
    owner_floor_pass pass;
    for (std::int32_t j = 0; j < degree; ++j) {
        const double gate = yhat[j] > 0.0 ? 1.0 : 0.0;
        const double magnitude = std::fabs(yhat[j]);
        const double floored = std::floor(magnitude);
        out[j] = static_cast<std::int64_t>(floored * gate);
        const double fraction = (magnitude - floored) * gate;
        pass.excess += fraction;
        fractions[j] = fraction;
        pass.last_fractional = fraction > 0.0 ? j : pass.last_fractional;
    }
    return pass;
}

/// The inverse-CDF walk of one v1 token: branch-free — the remainders
/// decrease only at fractional slots (subtracting the cached 0.0 elsewhere
/// is exact), so the slot where the remainder first turns non-positive —
/// the edge the early-exit walk stopped on — is the count of positive
/// remainders. `target` may stay positive through the whole slice due to
/// floating-point slack, landing on the last fractional edge, preserving
/// totals.
inline void credit_token(const double* fractions, std::int64_t* out,
                         std::int32_t degree, std::int32_t last_fractional,
                         double target)
{
    if (target <= 0.0) [[unlikely]] {
        credit_first_fractional(fractions, out);
        return;
    }
    std::int32_t chosen = 0;
    for (std::int32_t j = 0; j < degree; ++j) {
        target -= fractions[j];
        chosen += target > 0.0 ? 1 : 0;
    }
    out[chosen < degree ? chosen : last_fractional] += 1;
}

/// The paper's randomized rounding for one node's outgoing flows, v1
/// stream format (per-(node, round) xoshiro stream). `fractions` (degree
/// long) lets the inverse-CDF walk run over a cached slice-aligned array
/// instead of rescanning the flows per token. Draw sequence and results
/// are bit-identical to the pre-canonical early-exit loop.
template <std::int32_t StaticDegree>
inline void round_node_randomized(const double* yhat, std::int64_t* out,
                                  std::int32_t dynamic_degree,
                                  std::uint64_t seed, node_id v,
                                  std::int64_t round, double* fractions)
{
    const std::int32_t degree =
        StaticDegree != 0 ? StaticDegree : dynamic_degree;
    const auto pass = floor_outgoing(yhat, out, degree, fractions);
    const double excess = pass.excess;
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
        credit_token(fractions, out, degree, pass.last_fractional,
                     rng.next_double() * excess);
    }
}

/// The same rounding under the v2 format: stateless counter-based draws.
/// Token `i` owns exactly draw index i, so every token's bits are a pure
/// function of (seed, node, round, i) — no generator state is seeded or
/// carried, and the per-node RNG cost is one mix64 plus one splitmix
/// finalizer per token.
///
/// The v2 kernel restructures both passes around the new format (the
/// frozen v1 kernel above is deliberately untouched):
///
///  * Pass 1 floors with a trunc-by-cast — exact for the nonnegative
///    magnitudes < 2^63 the int64 cast already requires — and caches the
///    *cumulative* fractional mass per slot (the running sum the excess
///    accumulator computes anyway) instead of the raw fractions.
///  * One draw decides both the send coin and the edge pick: with
///    u ~ U[0, 1), the scaled target u * ceil(r) is below r with
///    probability exactly r/ceil(r) (the paper's send probability), and
///    conditioned on that event it is uniform on [0, r) — the inverse-CDF
///    value. The joint distribution equals v1's two independent draws with
///    half the hashing.
///  * The walk picks the first slot whose cumulative mass reaches the
///    target by counting independent prefix[j] < target compares — no
///    loop-carried subtract chain. prefix jumps only at fractional slots
///    and a sent token has 0 < target < excess == prefix[degree-1], so the
///    chosen slot is always a fractional one.
///
/// The unrolled degree-4 body is worth ~1.3x alone on the 2.1 GHz Xeon
/// this was tuned on. Raw restrict pointers keep the compiler from
/// re-reading across the flows stores.
template <std::int32_t StaticDegree>
[[gnu::always_inline]] inline void
round_node_randomized_v2(const double* __restrict yhat,
                         std::int64_t* __restrict out,
                         std::int32_t dynamic_degree, std::uint64_t seed,
                         node_id v, std::int64_t round,
                         double* __restrict prefix)
{
    const std::int32_t degree =
        StaticDegree != 0 ? StaticDegree : dynamic_degree;

    // Pass 1: floor and accumulate the cumulative fractional mass.
    double excess = 0.0;
    for (std::int32_t j = 0; j < degree; ++j) {
        const double gate = yhat[j] > 0.0 ? 1.0 : 0.0;
        const double magnitude = std::fabs(yhat[j]);
        const auto floored_int = static_cast<std::int64_t>(magnitude);
        const double floored = static_cast<double>(floored_int);
        out[j] = static_cast<std::int64_t>(floored * gate);
        excess += (magnitude - floored) * gate;
        prefix[j] = excess;
    }
    if (excess <= 0.0) return;

    const double token_count_real = std::ceil(excess);
    const auto token_count = static_cast<std::int64_t>(token_count_real);

    const std::uint64_t base = stream_base(
        seed, static_cast<std::uint64_t>(v), static_cast<std::uint64_t>(round));
    for (std::int64_t token = 0; token < token_count; ++token) {
        const double target =
            to_unit_double(draw_at(base, static_cast<std::uint64_t>(token))) *
            token_count_real;
        if (target >= excess) continue;
        if (target <= 0.0) [[unlikely]] {
            // The one-in-2^53 exact-zero draw: land on the first fractional
            // slot (the first strictly positive prefix; one exists because
            // excess > 0).
            std::int32_t first_fractional = 0;
            while (prefix[first_fractional] <= 0.0) ++first_fractional;
            out[first_fractional] += 1;
            continue;
        }
        std::int32_t chosen = 0;
        for (std::int32_t j = 0; j < degree; ++j)
            chosen += prefix[j] < target ? 1 : 0;
        out[chosen] += 1;
    }
}

/// Per-edge independent rounding, v1 format: floor + Bernoulli(fractional
/// part), one xoshiro draw per outgoing edge in slice order.
inline void round_node_bernoulli(const double* yhat, std::int64_t* out,
                                 std::int32_t degree, std::uint64_t seed,
                                 node_id v, std::int64_t round)
{
    auto rng = stream_for(seed, static_cast<std::uint64_t>(v),
                          static_cast<std::uint64_t>(round));
    for (std::int32_t j = 0; j < degree; ++j) {
        if (yhat[j] <= 0.0) {
            out[j] = 0;
            continue;
        }
        const double floored = std::floor(yhat[j]);
        const double fraction = yhat[j] - floored;
        out[j] = static_cast<std::int64_t>(floored) +
                 (rng.next_bernoulli(fraction) ? 1 : 0);
    }
}

/// Per-edge Bernoulli rounding under the v2 format: outgoing slot j of the
/// node always owns draw index j, so each edge coin is a pure function of
/// (seed, node, round, j) regardless of how many edges are outgoing.
inline void round_node_bernoulli_v2(const double* yhat, std::int64_t* out,
                                    std::int32_t degree, std::uint64_t seed,
                                    node_id v, std::int64_t round)
{
    const std::uint64_t base = stream_base(seed, static_cast<std::uint64_t>(v),
                                           static_cast<std::uint64_t>(round));
    for (std::int32_t j = 0; j < degree; ++j) {
        if (yhat[j] <= 0.0) {
            out[j] = 0;
            continue;
        }
        const double floored = std::floor(yhat[j]);
        const double fraction = yhat[j] - floored;
        const double coin =
            to_unit_double(draw_at(base, static_cast<std::uint64_t>(j)));
        out[j] = static_cast<std::int64_t>(floored) +
                 (fraction > 0.0 && coin < fraction ? 1 : 0);
    }
}

/// One node's rounding under a kind and stream format fixed per sweep.
/// `scratch` is degree long (v1 fractions, v2 prefix sums).
template <rounding_kind Kind, rng_version Version>
struct node_rounder {
    std::uint64_t seed;
    std::int64_t round;

    template <std::int32_t StaticDegree>
    void node(const double* yhat, std::int64_t* out, std::int32_t degree,
              node_id v, double* scratch) const
    {
        if constexpr (Kind == rounding_kind::randomized) {
            if constexpr (Version == rng_version::v2)
                round_node_randomized_v2<StaticDegree>(yhat, out, degree, seed,
                                                       v, round, scratch);
            else
                round_node_randomized<StaticDegree>(yhat, out, degree, seed, v,
                                                    round, scratch);
        } else if constexpr (Kind == rounding_kind::bernoulli_edge) {
            if constexpr (Version == rng_version::v2)
                round_node_bernoulli_v2(yhat, out, degree, seed, v, round);
            else
                round_node_bernoulli(yhat, out, degree, seed, v, round);
        } else {
            const std::int32_t d = StaticDegree != 0 ? StaticDegree : degree;
            for (std::int32_t j = 0; j < d; ++j) {
                if constexpr (Kind == rounding_kind::floor)
                    out[j] = yhat[j] > 0.0
                                 ? static_cast<std::int64_t>(std::floor(yhat[j]))
                                 : 0;
                else
                    out[j] = yhat[j] > 0.0 ? std::llround(yhat[j]) : 0;
            }
        }
    }
};

/// The prevent policy on one node's rounded slice: if the outgoing tokens
/// exceed max(load, 0), keep them greedily in slice order. Returns the
/// tokens refused.
inline std::int64_t clip_outgoing(std::int64_t* out, std::int32_t degree,
                                  std::int64_t load)
{
    std::int64_t positive_out = 0;
    for (std::int32_t j = 0; j < degree; ++j)
        if (out[j] > 0) positive_out += out[j];
    const std::int64_t available = std::max<std::int64_t>(load, 0);
    if (positive_out <= available) return 0;
    std::int64_t remaining = available;
    std::int64_t tokens = 0;
    for (std::int32_t j = 0; j < degree; ++j) {
        if (out[j] <= 0) continue;
        const std::int64_t keep = std::min(out[j], remaining);
        tokens += out[j] - keep;
        out[j] = keep;
        remaining -= keep;
    }
    return tokens;
}

/// Yhat sources of the owner sweep: node() returns a pointer to v's
/// degree values. A precomputed per-half-edge array is read in place; the
/// bound flow rule evaluates into the caller's buffer.
struct precomputed_flows {
    const double* scheduled;

    template <std::int32_t StaticDegree>
    const double* node(const graph&, node_id, half_edge_id begin, std::int32_t,
                       double*) const
    {
        return scheduled + begin;
    }
};

struct flows_from_rule {
    const flow_rule<std::int64_t>& rule;

    template <std::int32_t StaticDegree>
    const double* node(const graph& g, node_id v, half_edge_id begin,
                       std::int32_t degree, double* buffer) const
    {
        rule.node_flows<StaticDegree>(g, v, begin, degree, buffer);
        return buffer;
    }
};

/// The owner sweep: Yhat, rounding and (for a nonempty `clip_load`) the
/// prevent clip of each node in one pass over its slice. Degree-4 nodes
/// get the fully unrolled kernels with stack buffers — on a 4-regular
/// graph (the 2D torus, the paper's primary topology) with begin == 4v and
/// no CSR offset loads; irregular graphs dispatch per node so e.g. grid
/// interiors still qualify.
template <class Source, class Rounder>
std::int64_t owner_sweep(const graph& g, const Source& source,
                         const Rounder& rounder,
                         std::span<const std::int64_t> clip_load,
                         std::span<std::int64_t> flows_out, executor& exec)
{
    std::int64_t* const flows = flows_out.data();
    const bool clip = !clip_load.empty();
    const bool regular4 =
        g.max_degree() == 4 &&
        g.num_half_edges() == 4 * static_cast<std::int64_t>(g.num_nodes());
    return exec.parallel_reduce(
        g.num_nodes(), std::int64_t{0},
        [&](std::int64_t chunk_begin, std::int64_t chunk_end) {
            std::int64_t clipped = 0;
            const auto visit = [&]<std::int32_t StaticDegree>(
                                   node_id v, half_edge_id begin,
                                   std::int32_t degree, double* buffer,
                                   double* scratch) {
                const double* yhat = source.template node<StaticDegree>(
                    g, v, begin, degree, buffer);
                rounder.template node<StaticDegree>(yhat, flows + begin, degree,
                                                    v, scratch);
                if (clip)
                    clipped += clip_outgoing(flows + begin, degree, clip_load[v]);
            };
            if (regular4) {
                for (auto v = static_cast<node_id>(chunk_begin); v < chunk_end;
                     ++v) {
                    double buffer[4];
                    double scratch[4];
                    visit.template operator()<4>(
                        v, static_cast<half_edge_id>(v) * 4, 4, buffer, scratch);
                }
                return clipped;
            }
            std::vector<double> buffers(
                2 * static_cast<std::size_t>(g.max_degree()));
            double* const buffer = buffers.data();
            double* const scratch = buffer + g.max_degree();
            for (auto v = static_cast<node_id>(chunk_begin); v < chunk_end; ++v) {
                const half_edge_id begin = g.half_edge_begin(v);
                const auto degree =
                    static_cast<std::int32_t>(g.half_edge_end(v) - begin);
                if (degree == 4)
                    visit.template operator()<4>(v, begin, 4, buffer, scratch);
                else
                    visit.template operator()<0>(v, begin, degree, buffer,
                                                 scratch);
            }
            return clipped;
        },
        [](std::int64_t acc, std::int64_t part) { return acc + part; });
}

/// Picks the rounder for `kind` and `version` (the deterministic kinds
/// draw nothing, so they ignore the version) and runs the owner sweep.
template <class Source>
std::int64_t dispatch_owner_sweep(const graph& g, const Source& source,
                                  rounding_kind kind, std::uint64_t seed,
                                  std::int64_t round, rng_version version,
                                  std::span<const std::int64_t> clip_load,
                                  std::span<std::int64_t> flows_out,
                                  executor& exec)
{
    kernel_counter(kind).add(g.num_half_edges());
    const auto run = [&]<rounding_kind Kind, rng_version Version>() {
        return owner_sweep(g, source, node_rounder<Kind, Version>{seed, round},
                           clip_load, flows_out, exec);
    };
    const bool v2 = version == rng_version::v2;
    switch (kind) {
    case rounding_kind::randomized:
        return v2 ? run.template operator()<rounding_kind::randomized,
                                            rng_version::v2>()
                  : run.template operator()<rounding_kind::randomized,
                                            rng_version::v1>();
    case rounding_kind::floor:
        return run.template operator()<rounding_kind::floor, rng_version::v1>();
    case rounding_kind::nearest:
        return run.template operator()<rounding_kind::nearest, rng_version::v1>();
    case rounding_kind::bernoulli_edge:
        return v2 ? run.template operator()<rounding_kind::bernoulli_edge,
                                            rng_version::v2>()
                  : run.template operator()<rounding_kind::bernoulli_edge,
                                            rng_version::v1>();
    }
    return 0;
}

} // namespace

void round_flows(const graph& g, rounding_kind kind,
                 std::span<const double> scheduled, std::uint64_t seed,
                 std::int64_t round, std::span<std::int64_t> flows_out,
                 executor& exec, rng_version version)
{
    if (scheduled.size() != static_cast<std::size_t>(g.num_half_edges()) ||
        flows_out.size() != scheduled.size())
        throw std::invalid_argument("round_flows: size mismatch");

    // Owners write their outgoing half-edges (zeros elsewhere) ...
    dispatch_owner_sweep(g, precomputed_flows{scheduled.data()}, kind, seed,
                         round, version, {}, flows_out, exec);

    // ... and each canonical edge then mirrors its owner's result onto the
    // negative side. Each half-edge belongs to exactly one edge, so the
    // edge-parallel writes are disjoint. Both sides are rewritten
    // unconditionally (select, no data-dependent branch): the owner side
    // keeps its value, the other side gets the negation, and zero-scheduled
    // edges rewrite the 0 the owner pass produced.
    const auto canonical = g.canonical_half_edges();
    exec.parallel_for(g.num_edges(), [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t e = begin; e < end; ++e) {
            const half_edge_id h = canonical[e];
            const half_edge_id tw = g.twin(h);
            const std::int64_t forward = flows_out[h];
            const std::int64_t backward = flows_out[tw];
            const bool owner_is_canonical = scheduled[h] > 0.0;
            flows_out[h] = owner_is_canonical ? forward : -backward;
            flows_out[tw] = owner_is_canonical ? -forward : backward;
        }
    });
}

std::int64_t round_owner_pass(const graph& g,
                              const flow_rule<std::int64_t>& rule,
                              rounding_kind kind, std::uint64_t seed,
                              std::int64_t round, rng_version version,
                              std::span<const std::int64_t> clip_load,
                              std::span<std::int64_t> flows_out,
                              executor& exec)
{
    if (flows_out.size() != static_cast<std::size_t>(g.num_half_edges()) ||
        (!clip_load.empty() &&
         clip_load.size() != static_cast<std::size_t>(g.num_nodes())))
        throw std::invalid_argument("round_owner_pass: size mismatch");
    return dispatch_owner_sweep(g, flows_from_rule{rule}, kind, seed, round,
                                version, clip_load, flows_out, exec);
}

} // namespace dlb
