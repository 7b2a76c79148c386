// Rounding schemes that turn the continuous scheduled flows Yhat into
// integral token movements (paper Definition 1 and Section III-B).
//
// Every scheme processes only the positive direction of each edge (the node
// with outgoing scheduled flow "owns" it); the negative direction is the
// owner's negation, so antisymmetry holds exactly.
//
//  * randomized    — the paper's framework R(C): floor every outgoing flow,
//                    gather the fractional parts r, take ceil(r) excess
//                    tokens, send each with probability r/ceil(r) to
//                    neighbor j with probability {Yhat_ij}/r. Unbiased
//                    (Observation 1: E[error] = 0).
//  * floor         — always round down [Sauerwald & Sun, FOCS'12 style].
//  * nearest       — deterministic round-half-away-from-zero.
//  * bernoulli_edge— per-edge independent randomized rounding:
//                    floor + Bernoulli(fractional part) [Friedrich et al.].
//
// All randomness comes from per-(seed, node, round) streams, so outcomes
// are independent of thread count and fully reproducible. The stream
// *format* is versioned (util/rng.hpp rng_version): v1 seeds a xoshiro
// stream per (node, round); v2 computes stateless counter-based draws
// inline, which skips the per-node 256-bit seeding and is the faster
// format. Both are unbiased; only v1 is bit-compatible with pre-version
// builds.
#ifndef DLB_CORE_ROUNDING_HPP
#define DLB_CORE_ROUNDING_HPP

#include <cstdint>
#include <span>
#include <string_view>

#include "core/executor.hpp"
#include "core/scheme.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dlb {

enum class rounding_kind {
    randomized,     // paper Section III-B framework
    floor,          // always round down
    nearest,        // round half away from zero
    bernoulli_edge, // independent per-edge randomized rounding
};

/// The kind's spec-field spelling, the same name `rounding = ...` takes.
std::string_view to_string(rounding_kind kind) noexcept;

/// Rounds scheduled flows to integer flows with the chosen scheme.
/// `scheduled` and `flows_out` are per-half-edge; `scheduled` must be
/// antisymmetric. `seed`/`round` select the deterministic random streams
/// and `version` the stream format (both unused by the deterministic
/// schemes).
///
/// Runs the same per-node rounding as round_owner_pass — each node rounds
/// its own outgoing (positive-scheduled) half-edges — and then one mirror
/// sweep per canonical edge writes the owner's negation onto the twin.
void round_flows(const graph& g, rounding_kind kind,
                 std::span<const double> scheduled, std::uint64_t seed,
                 std::int64_t round, std::span<std::int64_t> flows_out,
                 executor& exec, rng_version version = default_rng_version);

/// The discrete engine's fused owner pass, one node-parallel sweep: each
/// node v computes Yhat for its slice (rule.node_flows) into a local
/// buffer and rounds it at once, exactly as round_flows would. Only v's
/// outgoing (Yhat > 0) half-edges receive their integer flow; every other
/// half-edge gets 0, so each edge's flow is
///   y[h] = flows_out[h] - flows_out[twin(h)]
/// with exactly one term nonzero (Yhat is exactly antisymmetric for a
/// symmetric alpha). A nonempty `clip_load` (one entry per node) applies
/// the prevent policy in the same pass: a node whose outgoing tokens exceed
/// max(load, 0) keeps them greedily in slice order. Returns the clipped
/// token count, reduced deterministically.
std::int64_t round_owner_pass(const graph& g,
                              const flow_rule<std::int64_t>& rule,
                              rounding_kind kind, std::uint64_t seed,
                              std::int64_t round, rng_version version,
                              std::span<const std::int64_t> clip_load,
                              std::span<std::int64_t> flows_out,
                              executor& exec);

} // namespace dlb

#endif // DLB_CORE_ROUNDING_HPP
