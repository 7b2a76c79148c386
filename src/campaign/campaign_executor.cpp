#include "campaign/campaign_executor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "campaign/orchestrator.hpp"
#include "campaign/registry.hpp"
#include "campaign/scenario_loop.hpp"
#include "campaign/workload.hpp"
#include "core/alpha.hpp"
#include "core/beta.hpp"
#include "core/checkpoint.hpp"
#include "core/diffusion_matrix.hpp"
#include "core/hybrid.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"
#include "util/csv.hpp"   // format_double
#include "util/parse.hpp" // hex64
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/tempfile.hpp"
#include "util/timer.hpp"

namespace dlb::campaign {

namespace {

// Distinct substream tags so load placement, speed assignment and workload
// arrivals never share random bits (graph construction has its own tag in
// registry::topology_seed).
constexpr std::uint64_t kLoadStream = 0x6c6f6164;
constexpr std::uint64_t kSpeedStream = 0x73706473;
constexpr std::uint64_t kWorkloadStream = 0x776b6c64;
// Per-window reseeding for measure_windows ("wndw"): window k > 0 runs
// under mix64(seed, kWindowStream, k), giving independent tail replicas.
constexpr std::uint64_t kWindowStream = 0x776e6477;

alpha_policy resolve_alpha(const scenario_spec& spec)
{
    if (spec.alpha == "max_degree_plus_one")
        return alpha_policy::max_degree_plus_one;
    if (spec.alpha == "uniform_gamma_d") return alpha_policy::uniform_gamma_d;
    throw std::invalid_argument("unknown alpha policy '" + spec.alpha + "'");
}

speed_profile resolve_speeds(const scenario_spec& spec, node_id n)
{
    if (spec.speeds == "uniform") return speed_profile::uniform(n);
    const std::uint64_t seed = mix64(spec.seed, kSpeedStream);
    if (spec.speeds == "bimodal") {
        const double fraction = spec.speed_shape > 0.0 ? spec.speed_shape : 0.1;
        const double fast = spec.speed_value >= 1.0 ? spec.speed_value : 4.0;
        return speed_profile::bimodal(n, fraction, fast, seed);
    }
    if (spec.speeds == "zipf") {
        const double exponent = spec.speed_shape > 0.0 ? spec.speed_shape : 1.0;
        const double s_max = spec.speed_value >= 1.0 ? spec.speed_value : 8.0;
        return speed_profile::zipf(n, exponent, s_max, seed);
    }
    throw std::invalid_argument("unknown speed profile '" + spec.speeds + "'");
}

rounding_kind resolve_rounding(const scenario_spec& spec)
{
    if (spec.rounding == "randomized") return rounding_kind::randomized;
    if (spec.rounding == "floor") return rounding_kind::floor;
    if (spec.rounding == "nearest") return rounding_kind::nearest;
    if (spec.rounding == "bernoulli_edge") return rounding_kind::bernoulli_edge;
    throw std::invalid_argument("unknown rounding '" + spec.rounding + "'");
}

process_kind resolve_process(const scenario_spec& spec)
{
    if (spec.process == "discrete") return process_kind::discrete;
    if (spec.process == "continuous") return process_kind::continuous;
    if (spec.process == "cumulative") return process_kind::cumulative;
    throw std::invalid_argument("unknown process '" + spec.process + "'");
}

negative_load_policy resolve_policy(const scenario_spec& spec)
{
    if (spec.policy == "allow") return negative_load_policy::allow;
    if (spec.policy == "prevent") return negative_load_policy::prevent;
    throw std::invalid_argument("unknown policy '" + spec.policy + "'");
}

// set_field validates eagerly, but programmatic specs can hold anything;
// re-validate at resolution like every other field.
rng_version resolve_rng_version(const scenario_spec& spec)
{
    if (spec.rng_version == 1) return rng_version::v1;
    if (spec.rng_version == 2) return rng_version::v2;
    throw std::invalid_argument("rng_version must be 1 or 2, got " +
                                std::to_string(spec.rng_version));
}

// Every input of compute_lambda(g, alpha, speeds), encoded: the exact graph
// identity (cache key), the alpha policy (gamma only when it is read), and
// the speed profile (its knobs and derived seed only when non-uniform). Two
// scenarios with equal keys get bit-identical lambdas by construction. The
// key doubles as the persistent sidecar key, so it must stay stable across
// invocations; the param is normalized like the graph key (-0.0 == 0.0).
std::string lambda_cache_key(const scenario_spec& spec)
{
    std::string key = spec.topology + "|" + std::to_string(spec.nodes) + "|" +
                      format_double(normalized_param(spec.topology_param)) +
                      "|";
    key += topology_uses_seed(spec.topology)
               ? std::to_string(topology_seed(spec.seed))
               : std::string("-");
    // Built with plain appends: `"|" + std::string_rvalue` trips GCC 12's
    // -Wrestrict false positive (PR 105329) in the inlined insert path.
    key += "|";
    key += spec.alpha;
    if (spec.alpha == "uniform_gamma_d") {
        key += "|";
        key += format_double(spec.alpha_gamma);
    }
    key += "|";
    key += spec.speeds;
    if (spec.speeds != "uniform") {
        key += "|";
        key += format_double(spec.speed_value);
        key += "|";
        key += format_double(spec.speed_shape);
        key += "|";
        key += std::to_string(mix64(spec.seed, kSpeedStream));
    }
    return key;
}

switch_policy resolve_switching(const scenario_spec& spec)
{
    if (spec.switch_mode == "never") return switch_policy::never();
    if (spec.switch_mode == "at_round")
        return switch_policy::at(
            static_cast<std::int64_t>(std::llround(spec.switch_value)));
    if (spec.switch_mode == "local")
        return switch_policy::when_local_below(spec.switch_value);
    if (spec.switch_mode == "global")
        return switch_policy::when_global_below(spec.switch_value);
    throw std::invalid_argument("unknown switch mode '" + spec.switch_mode + "'");
}

workload_spec workload_of(const scenario_spec& spec)
{
    return {spec.workload, spec.workload_rate, spec.workload_amount,
            spec.workload_period};
}

/// One scenario instance resolved from its spec: everything run_experiment
/// needs except the per-invocation knobs (record stride, executor,
/// scratch, checkpointing), which the caller sets on `config`.
struct resolved_scenario {
    std::shared_ptr<const graph> network; // config.diffusion points into it
    experiment_config config;
    std::vector<std::int64_t> initial;
    std::unique_ptr<workload_hook> workload; // wired into config.workload
    double lambda = -1.0; // -1 unless the scheme read it
    double beta = 0.0;
};

/// The one spec -> instance resolution, shared by run_scenario and
/// measure_windows so a snapshot is always sampled under the very scheme,
/// alpha and speeds the checkpointing run resolved. Topologies and lambdas
/// come from `cache` (identical build inputs, so bit-identical results).
resolved_scenario resolve_scenario(const scenario_spec& spec, graph_cache& cache)
{
    if (spec.rounds < 0)
        throw std::invalid_argument("scenario: negative round count");
    // set_field rejects this eagerly, but programmatic specs can hold
    // anything, and a NaN param would corrupt cache-key ordering.
    if (!std::isfinite(spec.topology_param))
        throw std::invalid_argument("scenario: topology_param must be finite");

    resolved_scenario out;
    // The shared_ptr keeps a cached graph alive for the run.
    out.network =
        cache.get(spec.topology, spec.nodes, spec.topology_param, spec.seed);
    const graph& g = *out.network;

    experiment_config& config = out.config;
    diffusion_config& diffusion = config.diffusion;
    diffusion.network = &g;
    diffusion.alpha = make_alpha(g, resolve_alpha(spec), spec.alpha_gamma);
    diffusion.speeds = resolve_speeds(spec, g.num_nodes());
    const auto lambda_of = [&] {
        return cache.lambda(lambda_cache_key(spec), [&] {
            return compute_lambda(g, diffusion.alpha, diffusion.speeds);
        });
    };

    // Relaxation parameter: explicit beta wins; otherwise SOS and
    // Chebyshev derive it from the computed lambda (Table I pipeline).
    if (spec.scheme == "fos") {
        diffusion.scheme = fos_scheme();
        out.beta = 1.0;
    } else if (spec.scheme == "sos") {
        out.beta = spec.beta;
        if (out.beta <= 0.0) {
            out.lambda = lambda_of();
            out.beta = beta_opt(out.lambda);
        }
        diffusion.scheme = sos_scheme(out.beta);
    } else if (spec.scheme == "chebyshev") {
        out.lambda = lambda_of();
        diffusion.scheme = chebyshev_scheme(out.lambda);
        out.beta = beta_opt(out.lambda);
    } else {
        throw std::invalid_argument("unknown scheme '" + spec.scheme + "'");
    }

    // The versioned stream format reaches every randomized consumer: the
    // load pattern, the workload model, and the engine's rounding.
    // Topology construction and speed assignment stay format-independent
    // by design, so graphs and lambdas are shared across a
    // sweep.rng_version axis.
    config.rng = resolve_rng_version(spec);
    out.initial = build_initial_load(spec.load_pattern, g.num_nodes(),
                                     spec.tokens_per_node,
                                     mix64(spec.seed, kLoadStream), config.rng);
    out.workload = make_workload(workload_of(spec), g.num_nodes(),
                                 mix64(spec.seed, kWorkloadStream), config.rng);

    config.process = resolve_process(spec);
    config.rounding = resolve_rounding(spec);
    config.seed = spec.seed;
    config.policy = resolve_policy(spec);
    config.rounds = spec.rounds;
    config.switching = resolve_switching(spec);
    // Plateau window scaled to the round budget: the runner default of
    // 200 can never converge on short campaign runs.
    config.imbalance_window = std::clamp<std::int64_t>(spec.rounds / 4, 8, 200);
    config.workload = out.workload.get();
    return out;
}

std::string checkpoint_path_of(const std::string& dir, std::int64_t index,
                               const std::string& label)
{
    return dir + "/" + std::to_string(index) + "_" + label + ".ckpt";
}

/// The one check of a snapshot against the campaign it is fed to: the
/// campaign's spec_hash, a scenario index inside the expansion, that
/// scenario's rng_version, the sampling stride (record_every 0: the
/// snapshot's own stride is adopted) and, when `assignment` is given,
/// membership in it (a shard's partition, a queue worker's lease). Throws
/// std::invalid_argument prefixed with `where`, naming the field; returns
/// the snapshot's scenario. The runner's validate_resume re-checks the
/// engine-level fields (seed, rounding, policy, scheme) when the run starts.
const scenario_spec& check_snapshot(const engine_checkpoint& snapshot,
                                    const std::string& where,
                                    std::uint64_t campaign_hash,
                                    const std::vector<scenario_spec>& scenarios,
                                    std::int64_t record_every,
                                    const std::vector<std::int64_t>* assignment,
                                    const std::string& owner)
{
    const auto fail = [&](const std::string& message) {
        throw std::invalid_argument(where + ": " + message);
    };
    if (snapshot.spec_hash != campaign_hash)
        fail("spec_hash mismatch: the snapshot was saved under campaign "
             "spec_hash " +
             hex64(snapshot.spec_hash) +
             " but this invocation's spec hashes to " + hex64(campaign_hash) +
             "; use the same campaign definition");
    const std::int64_t index = snapshot.scenario_index;
    if (index < 0 || index >= static_cast<std::int64_t>(scenarios.size()))
        fail("scenario index " + std::to_string(index) +
             " is outside this campaign's " +
             std::to_string(scenarios.size()) + " scenarios");
    const scenario_spec& target = scenarios[static_cast<std::size_t>(index)];
    if (snapshot.rng_version != target.rng_version)
        fail("rng_version mismatch: the snapshot has " +
             std::to_string(snapshot.rng_version) + " but scenario " +
             std::to_string(index) + " uses " +
             std::to_string(target.rng_version));
    if (record_every > 0 && snapshot.record_every != record_every)
        fail("record_every mismatch: the snapshot recorded every " +
             std::to_string(snapshot.record_every) +
             " rounds but this invocation records every " +
             std::to_string(record_every) + " (rerun with --record-every " +
             std::to_string(snapshot.record_every) + ")");
    if (assignment != nullptr &&
        !std::binary_search(assignment->begin(), assignment->end(), index))
        fail("scenario " + std::to_string(index) + " is not in " + owner +
             "'s assignment");
    return target;
}

/// What every scenario a campaign worker runs shares.
struct scenario_env {
    const campaign_options& options;
    std::int64_t record_every;
    std::uint64_t spec_hash;
    executor* engine_exec; // nullptr: serial round kernels
    graph_cache& cache;
    const orchestrator_hooks& hooks;
};

/// Resolves and runs one scenario; never throws — failures land in
/// scenario_result::error so one bad cell cannot sink a sweep. `resume`
/// (optional) continues the run from a snapshot.
scenario_result run_scenario(const scenario_spec& spec, std::int64_t index,
                             const scenario_env& env, engine_scratch& scratch,
                             const engine_checkpoint* resume)
{
    scenario_result result;
    result.spec = spec;
    result.index = index;
    result.label = scenario_label(spec);
    result.record_every = env.record_every;
    result.predicted_cost = scenario_cost(spec);
    const obs::trace_span span("scenario", result.label);
    const stopwatch watch;

    try {
        resolved_scenario resolved = resolve_scenario(spec, env.cache);
        result.nodes = resolved.network->num_nodes();
        result.edges = resolved.network->num_edges();
        result.lambda = resolved.lambda;
        result.beta = resolved.beta;
        result.initial_total = std::accumulate(
            resolved.initial.begin(), resolved.initial.end(), std::int64_t{0});

        experiment_config& config = resolved.config;
        config.record_every = env.record_every;
        config.exec = env.engine_exec;
        config.scratch = &scratch;
        config.checkpoint_every = env.options.checkpoint_every;
        if (config.checkpoint_every > 0)
            config.checkpoint_path = checkpoint_path_of(
                env.options.checkpoint_dir, index, result.label);
        config.checkpoint_spec_hash = env.spec_hash;
        config.checkpoint_scenario_index = index;
        config.resume = resume;
        if (env.hooks.after_checkpoint)
            config.after_checkpoint = [&env, index](std::int64_t round) {
                env.hooks.after_checkpoint(index, round);
            };

        const time_series series = run_experiment(config, resolved.initial);

        if (!env.options.series_dir.empty())
            write_csv(env.options.series_dir + "/" + std::to_string(index) +
                          "_" + result.label + ".csv",
                      series);

        result.final_max_minus_average = series.max_minus_average.back();
        result.final_max_local_difference = series.max_local_difference.back();
        result.remaining_imbalance = series.remaining_imbalance;
        result.imbalance_converged = series.imbalance_converged;
        result.switch_round = series.switch_round;
        result.negative = series.negative;
        result.total_injected = series.total_injected;
        result.total_drained = series.total_drained;

        if (series.imbalance_converged) {
            for (std::size_t i = 0; i < series.size(); ++i) {
                if (series.max_minus_average[i] <= series.remaining_imbalance) {
                    result.rounds_to_plateau = series.rounds[i];
                    break;
                }
            }
        }

        // Discrete engines conserve tokens exactly (modulo injection); the
        // continuous engine only up to floating-point drift.
        const double error = series.total_load_error.back();
        if (config.process == process_kind::continuous) {
            const double scale =
                std::max(1.0, std::abs(static_cast<double>(result.initial_total)));
            result.conservation_ok = error <= 1e-6 * scale;
        } else {
            result.conservation_ok = error == 0.0;
        }
    } catch (const std::exception& failure) {
        result.error = failure.what();
    }

    result.wall_seconds = watch.seconds();
    return result;
}

// Static-shard execution for run_scenarios / run_campaign.
campaign_result detail_run(const campaign_spec& spec,
                           const std::vector<scenario_spec>& scenarios,
                           const campaign_options& options)
{
    if (!options.queue_dir.empty())
        throw std::invalid_argument(
            "campaign: lease-queue runs go through run_queue_campaign "
            "(run_campaign dispatches on queue_dir; run_scenarios has no "
            "queue mode)");
    if (options.shard_count < 1)
        throw std::invalid_argument("campaign: shard count must be >= 1");
    if (options.shard_index < 0 || options.shard_index >= options.shard_count)
        throw std::invalid_argument("campaign: shard index out of range");
    check_loop_options(options);

    // Process-level sharding: the partitioner (cost_model.hpp) splits the
    // expansion either round-robin or cost-balanced; both are pure
    // functions of the spec, so independently launched shard processes
    // agree on the assignment. Selected scenarios keep their global
    // indices; merge_shard_csv reassembles the full report.
    scenario_feed feed;
    feed.assignment = partition_scenarios(
        scenarios, options.shard_count,
        options.balance)[static_cast<std::size_t>(options.shard_index)];
    const auto count = static_cast<std::int64_t>(feed.assignment.size());
    std::vector<scenario_result> rows(feed.assignment.size());
    std::atomic<std::int64_t> next{0};
    feed.next = [&](obs::progress_meter*) -> std::optional<scenario_claim> {
        const std::int64_t slot = next.fetch_add(1);
        if (slot >= count) return std::nullopt;
        return scenario_claim{
            feed.assignment[static_cast<std::size_t>(slot)], slot,
            "[" + std::to_string(slot + 1) + "/" + std::to_string(count) + "]",
            {}};
    };
    // Each slot is claimed exactly once, so no two workers share a row.
    feed.finish = [&](const scenario_claim& claimed,
                      const scenario_result& row, bool) {
        rows[static_cast<std::size_t>(claimed.slot)] = row;
    };

    const obs::trace_span run_span("campaign", "run");
    campaign_result result = run_scenario_loop(spec, scenarios, options, feed);
    result.scenarios = std::move(rows);
    return result;
}

} // namespace

void check_loop_options(const campaign_options& options)
{
    if (options.checkpoint_every < 0)
        throw std::invalid_argument("campaign: checkpoint-every must be >= 0");
    if ((options.checkpoint_every > 0) != !options.checkpoint_dir.empty())
        throw std::invalid_argument(
            "campaign: --checkpoint-every and --checkpoint-dir must be set "
            "together");
}

campaign_result run_scenario_loop(const campaign_spec& spec,
                                  const std::vector<scenario_spec>& scenarios,
                                  const campaign_options& options,
                                  const scenario_feed& feed,
                                  const orchestrator_hooks& hooks)
{
    const bool queue_mode = !options.queue_dir.empty();
    const std::int64_t record_every =
        resolved_record_every(spec, options.record_every);
    const std::uint64_t campaign_hash = spec_hash(spec);
    const auto count = static_cast<std::int64_t>(feed.assignment.size());

    // A --resume snapshot is gated before any scenario spends work against
    // the campaign it claims to belong to, this shard's assignment and the
    // effective stride, so a stale or mislabeled snapshot is diagnosable,
    // never silently replayed. (Queue workers resume their own snapshots.)
    std::optional<engine_checkpoint> resume_snapshot;
    if (!options.resume_path.empty()) {
        resume_snapshot = read_checkpoint_file(options.resume_path);
        check_snapshot(*resume_snapshot, "resume: " + options.resume_path,
                       campaign_hash, scenarios, record_every,
                       &feed.assignment,
                       "shard " + std::to_string(options.shard_index) + "/" +
                           std::to_string(options.shard_count));
    }

    campaign_result result;
    result.spec = spec;

    if (!options.series_dir.empty())
        std::filesystem::create_directories(options.series_dir);
    if (!options.checkpoint_dir.empty()) {
        std::filesystem::create_directories(options.checkpoint_dir);
        // A killed run leaves `<ckpt>.tmp.<pid>.<n>` orphans next to its
        // snapshots; sweep the ones whose writer is provably gone so crash
        // loops don't strew the directory (live co-workers are untouched).
        sweep_stale_temp_files(options.checkpoint_dir);
    }

    const stopwatch watch;

    // Heartbeats: the predicted cost of this worker's scenarios sizes the
    // cost-model ETA. The meter lives in an optional so it can be torn
    // down (printing its final summary line) before the sidecar save.
    std::optional<obs::progress_meter> meter;
    if (options.heartbeat != nullptr) {
        double total_cost = 0.0;
        for (const std::int64_t i : feed.assignment)
            total_cost += scenario_cost(scenarios[static_cast<std::size_t>(i)]);
        obs::progress_meter::options meter_options;
        meter_options.period_seconds = options.heartbeat_seconds;
        meter_options.out = options.heartbeat;
        meter_options.shard_index = options.shard_index;
        meter_options.shard_count = options.shard_count;
        meter.emplace(meter_options, count, total_cost);
    }

    // Shared topology/lambda resolution across the whole campaign, with a
    // persistent lambda tier loaded before any scenario runs. Queue workers
    // share one live sidecar inside the queue unless --lambda-cache
    // overrides: reloaded on every lease (peers' computations arrive
    // mid-run, and loads never override local entries) and saved, merged,
    // after every row.
    graph_cache cache;
    const std::string sidecar_path =
        !options.lambda_cache_path.empty() || !queue_mode
            ? options.lambda_cache_path
            : (std::filesystem::path(options.queue_dir) / "lambda.sidecar")
                  .string();
    if (!sidecar_path.empty())
        result.lambda_sidecar_loaded = static_cast<std::int64_t>(
            cache.load_lambda_sidecar(sidecar_path));
    // Persist every lambda this worker computed (or inherited) so the next
    // invocation — and any co-running worker — starts warm. Best effort:
    // the sidecar is an accelerator, so a failed save must not discard
    // completed rows — but it must not vanish either
    // (result.lambda_sidecar_error lets callers warn in quiet modes).
    // Only ever called by one thread: the end of a static run, or the one
    // queue worker after each row.
    const auto save_sidecar = [&] {
        try {
            cache.save_lambda_sidecar(sidecar_path);
        } catch (const std::exception& failure) {
            result.lambda_sidecar_error = failure.what();
            if (options.progress != nullptr)
                *options.progress << "lambda sidecar not saved: "
                                  << failure.what() << "\n";
        }
    };

    // In-engine parallelism: one shared kernel pool handed to every
    // scenario. The pool's parallel_for is a single-caller rendezvous, so
    // the scenario fan-out must be serial whenever engines are parallel;
    // the two levels would oversubscribe the machine anyway.
    std::unique_ptr<thread_pool> engine_pool;
    if (options.engine_threads != 1)
        engine_pool = std::make_unique<thread_pool>(options.engine_threads);
    const scenario_env env{options,          record_every, campaign_hash,
                           engine_pool.get(), cache,       hooks};

    // One scenario per claim: every worker drains the feed in a single
    // invocation, so its scratch pool is reused across all its scenarios,
    // and a handful of slow scenarios cannot idle the other workers.
    mutex progress_mutex;
    auto drain = [&](std::int64_t, std::int64_t) {
        engine_scratch scratch;
        while (const std::optional<scenario_claim> claimed =
                   feed.next(meter ? &*meter : nullptr)) {
            const std::int64_t index = claimed->index;
            const scenario_spec& scenario =
                scenarios[static_cast<std::size_t>(index)];
            if (queue_mode) cache.load_lambda_sidecar(sidecar_path);

            // A re-leased queue scenario's own valid snapshot turns a
            // re-run into a tail-run; the resumed series is byte-identical
            // to the uninterrupted one, so the row cannot tell. A damaged
            // or mismatched snapshot means recompute, never an error row.
            std::optional<engine_checkpoint> own;
            const std::string own_path =
                queue_mode && options.checkpoint_every > 0
                    ? checkpoint_path_of(options.checkpoint_dir, index,
                                         scenario_label(scenario))
                    : std::string();
            std::error_code ec;
            if (!own_path.empty() && std::filesystem::exists(own_path, ec)) {
                try {
                    own = read_checkpoint_file(own_path);
                    const std::vector<std::int64_t> lease{index};
                    check_snapshot(*own, own_path, campaign_hash, scenarios,
                                   record_every, &lease, "the lease");
                } catch (const std::exception&) {
                    own.reset();
                }
            }
            const engine_checkpoint* resume =
                own ? &*own
                : resume_snapshot && resume_snapshot->scenario_index == index
                    ? &*resume_snapshot
                    : nullptr;

            scenario_result row =
                run_scenario(scenario, index, env, scratch, resume);
            // An own snapshot that passed the gate but failed deeper
            // validation (or a half-written file that parsed) must cost a
            // recompute, never an error row the unsharded run would not
            // have. A --resume snapshot's failure is the row's error.
            if (!row.error.empty() && own)
                row = run_scenario(scenario, index, env, scratch, nullptr);

            feed.finish(*claimed, row, own.has_value());
            if (queue_mode) save_sidecar();
            if (meter)
                meter->scenario_done(row.predicted_cost, row.wall_seconds,
                                     !row.error.empty());
            if (options.progress != nullptr) {
                const scoped_lock lock(progress_mutex);
                *options.progress
                    << claimed->tag << " " << row.label << claimed->note
                    << (own ? "  (resumed)" : "")
                    << (row.error.empty() ? "" : "  ERROR: " + row.error)
                    << "\n";
            }
        }
    };

    unsigned threads = queue_mode ? 1 : options.threads;
    if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
    if (engine_pool != nullptr) threads = 1; // see engine_pool comment above
    if (threads <= 1 || count <= 1) {
        drain(0, count);
    } else {
        thread_pool pool(threads);
        pool.parallel_tasks(count, drain);
    }
    meter.reset(); // final heartbeat summary, before the sidecar save

    if (!queue_mode && !sidecar_path.empty()) save_sidecar();
    result.cache = cache.stats();
    result.wall_seconds = watch.seconds();
    return result;
}

campaign_result run_scenarios(const std::string& name,
                              const std::vector<scenario_spec>& scenarios,
                              const campaign_options& options)
{
    campaign_spec spec;
    spec.name = name;
    if (!scenarios.empty()) spec.base = scenarios.front();
    return detail_run(spec, scenarios, options);
}

campaign_result run_campaign(const campaign_spec& spec,
                             const campaign_options& options)
{
    if (!options.queue_dir.empty()) return run_queue_campaign(spec, options);
    return detail_run(spec, expand(spec), options);
}

std::int64_t resolved_record_every(const campaign_spec& spec,
                                   std::int64_t record_every)
{
    if (record_every > 0) return record_every;
    return std::max<std::int64_t>(1, spec.base.rounds / 256);
}

measure_windows_result measure_windows(const campaign_spec& spec,
                                       const engine_checkpoint& snapshot,
                                       const measure_windows_options& options)
{
    if (options.windows < 1)
        throw std::invalid_argument("measure_windows: windows must be >= 1");
    if (options.window_rounds < 1)
        throw std::invalid_argument(
            "measure_windows: window_rounds must be >= 1");

    // Windows adopt the snapshot's stride and belong to no shard, so the
    // gate pins the campaign, the scenario and its rng_version.
    const std::uint64_t campaign_hash = spec_hash(spec);
    const std::vector<scenario_spec> scenarios = expand(spec);
    const scenario_spec target =
        check_snapshot(snapshot, "measure_windows", campaign_hash, scenarios,
                       /*record_every=*/0, /*assignment=*/nullptr, {});
    if (target.process != "discrete")
        throw std::invalid_argument(
            "measure_windows: windowed sampling runs the discrete engine, "
            "but the checkpointed scenario's process is '" +
            target.process + "'");
    if (snapshot.engine != checkpoint_engine::discrete)
        throw std::invalid_argument(
            "measure_windows: checkpoint holds " +
            std::string(to_string(snapshot.engine)) +
            " state, expected discrete");

    // Resolve the scenario exactly as run_scenario does (the spec hash
    // guarantees these inputs equal the checkpointing run's), then run each
    // window through the runner's resume path. A window differs from the
    // scenario only in its seed, its workload stream, its horizon and the
    // snapshot's seed stamp, so the runner's scheme pin applies unchanged.
    graph_cache cache;
    resolved_scenario resolved = resolve_scenario(target, cache);
    experiment_config& config = resolved.config;
    config.rounds = snapshot.round + options.window_rounds;
    config.record_every = snapshot.record_every;
    config.checkpoint_spec_hash = campaign_hash;
    engine_checkpoint stamped = snapshot;
    config.resume = &stamped;

    measure_windows_result result;
    result.campaign = spec;
    result.spec = target;
    result.scenario_index = snapshot.scenario_index;
    result.label = scenario_label(target);
    result.start_round = snapshot.round;
    result.window_rounds = options.window_rounds;

    for (std::int64_t k = 0; k < options.windows; ++k) {
        // Window 0 keeps the original seed: with window_rounds reaching the
        // scenario's horizon it replays the uninterrupted tail bit for bit.
        const std::uint64_t window_seed =
            k == 0 ? target.seed
                   : mix64(target.seed, kWindowStream,
                           static_cast<std::uint64_t>(k));
        const auto workload = make_workload(
            workload_of(target), resolved.network->num_nodes(),
            mix64(window_seed, kWorkloadStream), config.rng);
        config.seed = window_seed;
        config.workload = workload.get();
        stamped.seed = window_seed;
        stamped.rng_check =
            checkpoint_rng_check(stamped.rng_version, window_seed, stamped.round);

        window_sample sample;
        sample.window = k;
        sample.seed = window_seed;
        sample.discrepancy =
            run_experiment(config, resolved.initial).max_minus_average.back();
        result.samples.push_back(sample);
    }

    double sum = 0.0;
    for (const window_sample& sample : result.samples)
        sum += sample.discrepancy;
    const auto k = static_cast<double>(result.samples.size());
    result.mean = sum / k;
    if (result.samples.size() > 1) {
        double squares = 0.0;
        for (const window_sample& sample : result.samples) {
            const double diff = sample.discrepancy - result.mean;
            squares += diff * diff;
        }
        result.stddev = std::sqrt(squares / (k - 1.0));
    }
    result.ci95_half_width = 1.96 * result.stddev / std::sqrt(k);
    return result;
}

} // namespace dlb::campaign
