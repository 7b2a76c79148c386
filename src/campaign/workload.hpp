// Dynamic workload models: per-round token injection and drain.
//
// These open the workload class of Berenbrink et al., "Dynamic Averaging
// Load Balancing on Arbitrary Graphs": the balancer no longer chases a fixed
// initial imbalance but a stream of arrivals/departures. All randomness is
// drawn from per-(seed, round) streams, so a workload is bit-identical
// across thread counts and reruns.
//
//   static  — no dynamic load (the paper's setting); make_workload -> null
//   poisson — k ~ Poisson(rate) tokens arrive each round, each at a
//             uniformly random node
//   burst   — `amount` tokens arrive at one random node every `period`
//             rounds, starting at round `period` (never at round 0)
//   drain   — `rate` departure attempts per round at random nodes; a node at
//             zero is skipped, so loads never go negative from draining
#ifndef DLB_CAMPAIGN_WORKLOAD_HPP
#define DLB_CAMPAIGN_WORKLOAD_HPP

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/runner.hpp"
#include "util/rng.hpp"

namespace dlb::campaign {

struct workload_spec {
    std::string kind = "static"; // static | poisson | burst | drain
    double rate = 0.0;           // poisson/drain: expected tokens per round
    std::int64_t amount = 0;     // burst: tokens per burst
    std::int64_t period = 0;     // burst: rounds between bursts (>= 1)
};

/// Builds the hook for `spec` over `nodes` nodes. Returns null for "static"
/// (run_experiment treats a null workload as the classic static setting).
/// `version` selects the per-(seed, round) stream format the model draws
/// from (util/rng.hpp); v1 is the pinned default. Throws
/// std::invalid_argument on unknown kinds or bad parameters.
std::unique_ptr<workload_hook> make_workload(const workload_spec& spec,
                                             node_id nodes, std::uint64_t seed,
                                             rng_version version = default_rng_version);

namespace detail {

// Knuth's product method; exact but O(mean), and exp(-mean) underflows for
// large means. poisson_sample splits big means into chunks (Poisson
// additivity).
template <class Rng>
std::int64_t poisson_knuth(Rng& rng, double mean)
{
    const double limit = std::exp(-mean);
    std::int64_t k = 0;
    double product = 1.0;
    do {
        ++k;
        product *= rng.next_double();
    } while (product > limit);
    return k - 1;
}

} // namespace detail

/// Deterministic Poisson(mean) sample driven by `rng` — any generator with
/// next_double() (both stream formats); exposed for tests.
template <class Rng>
std::int64_t poisson_sample(Rng& rng, double mean)
{
    if (!(mean >= 0.0))
        throw std::invalid_argument("poisson_sample: negative mean");
    // Chunked Knuth: Poisson(a + b) = Poisson(a) + Poisson(b), so large
    // means are sampled as a sum of well-conditioned chunks.
    constexpr double chunk = 32.0;
    std::int64_t total = 0;
    while (mean > chunk) {
        total += detail::poisson_knuth(rng, chunk);
        mean -= chunk;
    }
    if (mean > 0.0) total += detail::poisson_knuth(rng, mean);
    return total;
}

} // namespace dlb::campaign

#endif // DLB_CAMPAIGN_WORKLOAD_HPP
