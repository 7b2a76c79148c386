// Named builders for every topology family and initial-load pattern a
// scenario_spec can reference.
//
// Topologies cover the paper's Table I families (torus, hypercube, random
// regular via the configuration model, random geometric) plus the standard
// fixtures the wider sweep literature uses (grid, star, path, complete,
// cycle, Erdos-Renyi — cf. Sauerwald & Sun, "Tight Bounds for Randomized
// Load Balancing on Arbitrary Network Topologies").
//
// All builders are deterministic in (spec, seed); load patterns always
// return exactly tokens_per_node * n tokens so conservation bookkeeping
// stays exact.
#ifndef DLB_CAMPAIGN_REGISTRY_HPP
#define DLB_CAMPAIGN_REGISTRY_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dlb::campaign {

/// Registered topology family names.
const std::vector<std::string>& topology_names();

/// The derived seed the campaign executor hands build_topology for a
/// scenario with master seed `scenario_seed`; exposed so callers can
/// rebuild a scenario's exact graph instance (e.g. to precompute lambda).
std::uint64_t topology_seed(std::uint64_t scenario_seed);

/// True when the family's construction consumes the seed (random_regular,
/// erdos_renyi, rgg). Seed-independent families build the same graph for
/// every seed, so caches can share one instance across a whole seed sweep.
/// Unknown names return true (the conservative answer; build_topology is
/// what rejects them).
bool topology_uses_seed(const std::string& family);

/// Builds the named family with approximately `nodes` nodes. Families with
/// structural constraints round to the nearest realizable size (torus/grid:
/// square side; hypercube: power of two). `param` is the family knob
/// documented in scenario_spec::topology_param; 0 picks the family default.
/// Throws std::invalid_argument on unknown names or impossible sizes.
graph build_topology(const std::string& family, std::int64_t nodes,
                     double param, std::uint64_t seed);

/// Builds the named pattern over n nodes with exactly tokens_per_node * n
/// total tokens. Patterns:
///   point              — everything on node 0 (the paper's default)
///   balanced           — tokens_per_node everywhere
///   random             — independent uniform loads, total corrected exactly
///   wavefront          — linear ramp from 2*tokens_per_node down to 0
///   bimodal            — a random half of the nodes holds all load
///   adversarial_corner — all load on the ~sqrt(n) lowest-index nodes (a
///                        corner patch in row-major grid/torus layouts)
/// `version` selects the stream format for the randomized patterns
/// (random, bimodal); the deterministic patterns ignore it.
std::vector<std::int64_t> build_initial_load(const std::string& pattern,
                                             node_id n,
                                             std::int64_t tokens_per_node,
                                             std::uint64_t seed,
                                             rng_version version = default_rng_version);

/// The accepted names of every enum-valued scenario field, keyed by field
/// name, each list in canonical order: "topology" (topology_names()),
/// "load" (the patterns build_initial_load takes), "workload" (the models
/// make_workload takes), and "alpha", "speeds", "scheme", "process",
/// "rounding", "policy" and "switch", which the executor's resolvers read.
/// expand() checks spec values against these lists; tools/spec_lint.py
/// mirrors them and its --check-tables compares both ways.
const std::map<std::string, std::vector<std::string>>& value_names();

/// Position of `value` in value_names().at(field). Throws
/// std::invalid_argument naming the field and listing its accepted names.
std::size_t value_index(const std::string& field, const std::string& value);

} // namespace dlb::campaign

#endif // DLB_CAMPAIGN_REGISTRY_HPP
