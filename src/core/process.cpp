#include "core/process.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"

namespace dlb {

namespace {

// Per-phase observability (obs/obs.hpp): spans and duration histograms for
// the three sub-phases of a round, plus rounds/edges counters so traces
// and metrics report per-kernel throughput. Everything below is
// out-of-band — one relaxed load per phase when no session is active.
struct engine_obs {
    obs::histogram& flows_ns = obs::registry_histogram("engine.flows_ns");
    obs::histogram& rounding_ns = obs::registry_histogram("engine.rounding_ns");
    obs::histogram& apply_ns = obs::registry_histogram("engine.apply_ns");
    obs::counter& rounds = obs::registry_counter("engine.rounds");
    obs::counter& edges = obs::registry_counter("engine.canonical_edges");
};

engine_obs& engine_metrics()
{
    static engine_obs metrics;
    return metrics;
}

/// Chunk-local minima of the fused apply+scan sweep.
struct load_minima {
    double end_of_round = std::numeric_limits<double>::infinity();
    double transient = std::numeric_limits<double>::infinity();
};

load_minima combine_minima(load_minima a, load_minima b)
{
    return {std::min(a.end_of_round, b.end_of_round),
            std::min(a.transient, b.transient)};
}

void validate_config(const diffusion_config& config, std::size_t load_size)
{
    if (config.network == nullptr)
        throw std::invalid_argument("process: null network");
    const graph& g = *config.network;
    if (config.alpha.size() != static_cast<std::size_t>(g.num_half_edges()))
        throw std::invalid_argument("process: alpha size mismatch");
    // The node-local flow rule is exactly antisymmetric only for a
    // bitwise-symmetric alpha (same bits on both half-edges of an edge).
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
        if (std::bit_cast<std::uint64_t>(config.alpha[h]) !=
            std::bit_cast<std::uint64_t>(config.alpha[g.twin(h)]))
            throw std::invalid_argument(
                "process: alpha is not symmetric at half-edge " +
                std::to_string(h) + ": alpha[" + std::to_string(h) +
                "] != alpha[" + std::to_string(g.twin(h)) + "] (its twin)");
    if (config.speeds.size() != g.num_nodes())
        throw std::invalid_argument("process: speeds size mismatch");
    if (load_size != static_cast<std::size_t>(g.num_nodes()))
        throw std::invalid_argument("process: initial load size mismatch");
    validate_scheme(config.scheme);
}

} // namespace

continuous_process::continuous_process(diffusion_config config,
                                       std::span<const double> initial_load,
                                       executor* exec, engine_scratch* scratch)
    : config_(std::move(config)),
      exec_(exec != nullptr ? exec : &default_executor()),
      scratch_(scratch)
{
    validate_config(config_, initial_load.size());
    const auto half_edges =
        static_cast<std::size_t>(config_.network->num_half_edges());
    load_ = scratch_real(scratch_, initial_load.size());
    std::copy(initial_load.begin(), initial_load.end(), load_.begin());
    load_over_speed_ = scratch_real(scratch_, load_.size());
    flows_ = scratch_real(scratch_, half_edges);
    previous_flows_ = scratch_real(scratch_, half_edges);
    beta_state_.reset(config_.scheme);
    initial_total_ = std::accumulate(load_.begin(), load_.end(), 0.0);
}

continuous_process::~continuous_process()
{
    if (scratch_ == nullptr) return;
    scratch_->release(std::move(load_));
    scratch_->release(std::move(load_over_speed_));
    scratch_->release(std::move(flows_));
    scratch_->release(std::move(previous_flows_));
}

void continuous_process::set_scheme(scheme_params scheme)
{
    validate_scheme(scheme);
    config_.scheme = scheme;
    rounds_in_scheme_ = 0;
    beta_state_.reset(scheme);
}

double continuous_process::total_load() const
{
    return std::accumulate(load_.begin(), load_.end(), 0.0);
}

void continuous_process::inject(std::span<const std::int64_t> delta)
{
    if (delta.size() != load_.size())
        throw std::invalid_argument("inject: delta size mismatch");
    for (std::size_t v = 0; v < delta.size(); ++v) {
        load_[v] += static_cast<double>(delta[v]);
        external_total_ += static_cast<double>(delta[v]);
    }
}

void continuous_process::step()
{
    const graph& g = *config_.network;
    engine_obs& em = engine_metrics();
    em.rounds.add(1);
    em.edges.add(g.num_half_edges() / 2);

    {
        obs::phase_scope phase("engine", "flows", &em.flows_ns);

        if (config_.speeds.is_uniform()) {
            std::copy(load_.begin(), load_.end(), load_over_speed_.begin());
        } else {
            exec_->parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
                for (node_id v = static_cast<node_id>(begin); v < end; ++v)
                    load_over_speed_[v] = load_[v] / config_.speeds.speed(v);
            });
        }

        scheduled_flows(g, config_.alpha, config_.scheme, rounds_in_scheme_,
                        beta_state_.next(), load_over_speed_, previous_flows_,
                        flows_, *exec_);
    }

    // Apply flows; the negative-load min-scan is fused into the same sweep,
    // with per-chunk minima combined deterministically in chunk order.
    obs::phase_scope apply_phase("engine", "apply", &em.apply_ns);
    const load_minima minima = exec_->parallel_reduce(
        g.num_nodes(), load_minima{},
        [&](std::int64_t begin, std::int64_t end) {
            load_minima local;
            for (node_id v = static_cast<node_id>(begin); v < end; ++v) {
                double net_out = 0.0;
                double positive_out = 0.0;
                for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v);
                     ++h) {
                    const double f = flows_[h];
                    net_out += f;
                    if (f > 0.0) positive_out += f;
                }
                local.transient = std::min(local.transient, load_[v] - positive_out);
                load_[v] -= net_out;
                local.end_of_round = std::min(local.end_of_round, load_[v]);
            }
            return local;
        },
        combine_minima);

    const double min_end = load_.empty() ? 0.0 : minima.end_of_round;
    const double min_transient = load_.empty() ? 0.0 : minima.transient;
    negative_.min_end_of_round_load =
        std::min(negative_.min_end_of_round_load, min_end);
    negative_.min_transient_load =
        std::min(negative_.min_transient_load, min_transient);
    if (min_end < 0.0) ++negative_.rounds_with_negative_end_load;
    if (min_transient < 0.0) ++negative_.rounds_with_negative_transient;

    std::swap(previous_flows_, flows_);
    ++round_;
    ++rounds_in_scheme_;
}

void continuous_process::run(std::int64_t count)
{
    for (std::int64_t i = 0; i < count; ++i) step();
}

discrete_process::discrete_process(diffusion_config config,
                                   std::span<const std::int64_t> initial_load,
                                   rounding_kind rounding, std::uint64_t seed,
                                   negative_load_policy policy, executor* exec,
                                   engine_scratch* scratch, rng_version rng)
    : config_(std::move(config)),
      exec_(exec != nullptr ? exec : &default_executor()),
      scratch_(scratch),
      rounding_(rounding),
      seed_(seed),
      rng_(rng),
      policy_(policy)
{
    validate_config(config_, initial_load.size());
    const auto half_edges =
        static_cast<std::size_t>(config_.network->num_half_edges());
    load_ = scratch_int(scratch_, initial_load.size());
    std::copy(initial_load.begin(), initial_load.end(), load_.begin());
    load_over_speed_ = scratch_real(scratch_, load_.size());
    flows_ = scratch_int(scratch_, half_edges);
    previous_flows_int_ = scratch_int(scratch_, half_edges);
    beta_state_.reset(config_.scheme);
    initial_total_ = std::accumulate(load_.begin(), load_.end(), std::int64_t{0});
}

discrete_process::~discrete_process()
{
    if (scratch_ == nullptr) return;
    scratch_->release(std::move(load_));
    scratch_->release(std::move(load_over_speed_));
    scratch_->release(std::move(flows_));
    scratch_->release(std::move(previous_flows_int_));
}

void discrete_process::set_scheme(scheme_params scheme)
{
    validate_scheme(scheme);
    config_.scheme = scheme;
    rounds_in_scheme_ = 0;
    beta_state_.reset(scheme);
}

std::int64_t discrete_process::total_load() const
{
    return std::accumulate(load_.begin(), load_.end(), std::int64_t{0});
}

void discrete_process::inject(std::span<const std::int64_t> delta)
{
    if (delta.size() != load_.size())
        throw std::invalid_argument("inject: delta size mismatch");
    for (std::size_t v = 0; v < delta.size(); ++v) {
        load_[v] += delta[v];
        external_total_ += delta[v];
    }
}

void discrete_process::step()
{
    const graph& g = *config_.network;
    engine_obs& em = engine_metrics();
    em.rounds.add(1);
    em.edges.add(g.num_half_edges() / 2);

    {
        obs::phase_scope phase("engine", "flows", &em.flows_ns);

        // x/s == x exactly for uniform speeds; skip the division.
        if (config_.speeds.is_uniform()) {
            exec_->parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
                for (node_id v = static_cast<node_id>(begin); v < end; ++v)
                    load_over_speed_[v] = static_cast<double>(load_[v]);
            });
        } else {
            exec_->parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
                for (node_id v = static_cast<node_id>(begin); v < end; ++v)
                    load_over_speed_[v] =
                        static_cast<double>(load_[v]) / config_.speeds.speed(v);
            });
        }
    }

    {
        obs::phase_scope phase("engine", "rounding", &em.rounding_ns);

        // The owner pass: each node computes Yhat(t) = C(x^D(t), y^D(t-1))
        // for its own slice (previous integer flows cast exactly) and
        // rounds it at once; only its outgoing half-edges get a flow, every
        // other half-edge 0. Under prevent the clip runs in the same pass —
        // each node clips only its own outgoing half-edges.
        const flow_rule<std::int64_t> rule = bind_flow_rule<std::int64_t>(
            g, config_.alpha, config_.scheme, rounds_in_scheme_,
            beta_state_.next(), load_over_speed_, previous_flows_int_);
        clipped_tokens_ += round_owner_pass(
            g, rule, rounding_, seed_, round_, rng_,
            policy_ == negative_load_policy::prevent
                ? std::span<const std::int64_t>(load_)
                : std::span<const std::int64_t>(),
            flows_, *exec_);
    }

    // Apply; track the transient state x-breve (all sends out, nothing
    // received yet). Exactly one side of each edge holds its rounded flow,
    // so y[h] = flows[h] - flows[twin(h)] (flows_ is read-only here, so the
    // twin gathers race with nothing); the per-round result lands directly
    // in previous_flows_int_, and the negative-load min-scan is fused in.
    obs::phase_scope apply_phase("engine", "apply", &em.apply_ns);
    const load_minima minima = exec_->parallel_reduce(
        g.num_nodes(), load_minima{},
        [&](std::int64_t begin, std::int64_t end) {
            load_minima local;
            for (node_id v = static_cast<node_id>(begin); v < end; ++v) {
                std::int64_t net_out = 0;
                std::int64_t positive_out = 0;
                for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v);
                     ++h) {
                    const std::int64_t f = flows_[h] - flows_[g.twin(h)];
                    previous_flows_int_[h] = f;
                    net_out += f;
                    if (f > 0) positive_out += f;
                }
                local.transient = std::min(
                    local.transient, static_cast<double>(load_[v] - positive_out));
                load_[v] -= net_out;
                local.end_of_round = std::min(local.end_of_round,
                                              static_cast<double>(load_[v]));
            }
            return local;
        },
        combine_minima);

    const double min_end = load_.empty() ? 0.0 : minima.end_of_round;
    const double min_transient = load_.empty() ? 0.0 : minima.transient;
    negative_.min_end_of_round_load =
        std::min(negative_.min_end_of_round_load, min_end);
    negative_.min_transient_load =
        std::min(negative_.min_transient_load, min_transient);
    if (min_end < 0.0) ++negative_.rounds_with_negative_end_load;
    if (min_transient < 0.0) ++negative_.rounds_with_negative_transient;

    ++round_;
    ++rounds_in_scheme_;
}

void discrete_process::run(std::int64_t count)
{
    for (std::int64_t i = 0; i < count; ++i) step();
}

} // namespace dlb
