#include "core/scheme.hpp"

#include <stdexcept>

namespace dlb {

executor& default_executor()
{
    static serial_executor instance;
    return instance;
}

void validate_scheme(scheme_params scheme)
{
    if (scheme.kind == scheme_kind::sos &&
        !(scheme.beta > 0.0 && scheme.beta < 2.0))
        throw std::invalid_argument("scheme: SOS requires beta in (0, 2)");
    if (scheme.kind == scheme_kind::chebyshev &&
        !(scheme.lambda >= 0.0 && scheme.lambda < 1.0))
        throw std::invalid_argument("scheme: Chebyshev requires lambda in [0, 1)");
}

double scheme_beta_for_round(scheme_params scheme, std::int64_t rounds_in_scheme)
{
    // O(1) for FOS/SOS; only Chebyshev needs the recurrence replayed
    // (per-round callers like contribution_rows rely on the fast paths).
    if (scheme.kind != scheme_kind::chebyshev)
        return scheme.kind == scheme_kind::fos || rounds_in_scheme == 0
                   ? 1.0
                   : scheme.beta;
    scheme_beta_state state(scheme);
    double beta = 1.0;
    for (std::int64_t t = 0; t <= rounds_in_scheme; ++t) beta = state.next();
    return beta;
}

void scheduled_flows(const graph& g, std::span<const double> alpha,
                     scheme_params scheme, std::int64_t rounds_in_scheme,
                     double beta, std::span<const double> load_over_speed,
                     std::span<const double> previous_flows,
                     std::span<double> flows_out, executor& exec)
{
    const flow_rule<double> rule =
        bind_flow_rule(g, alpha, scheme, rounds_in_scheme, beta,
                       load_over_speed, previous_flows);
    if (flows_out.size() != alpha.size())
        throw std::invalid_argument("scheduled_flows: size mismatch");

    // Parallel over nodes; each chunk writes only its nodes' half-edges.
    exec.parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
        for (node_id v = static_cast<node_id>(begin); v < end; ++v) {
            const half_edge_id first = g.half_edge_begin(v);
            rule.node_flows(g, v, first,
                            static_cast<std::int32_t>(g.half_edge_end(v) - first),
                            flows_out.data() + first);
        }
    });
}

void scheduled_flows(const graph& g, std::span<const double> alpha,
                     scheme_params scheme, std::int64_t rounds_in_scheme,
                     std::span<const double> load_over_speed,
                     std::span<const double> previous_flows,
                     std::span<double> flows_out, executor& exec)
{
    scheduled_flows(g, alpha, scheme, rounds_in_scheme,
                    scheme_beta_for_round(scheme, rounds_in_scheme),
                    load_over_speed, previous_flows, flows_out, exec);
}

} // namespace dlb
