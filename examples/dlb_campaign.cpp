// dlb_campaign: declarative scenario sweeps from the command line.
//
// A campaign is a base scenario plus Cartesian sweep axes. Every scenario
// field can be set as --<field> <value> and swept as --sweep.<field> a,b,c;
// the same vocabulary works in a key=value spec file loaded with --spec.
// Full reference: docs/campaign-specs.md.
//
//   # 24 scenarios: 3 topologies x 2 schemes x 2 roundings x 2 seeds
//   # (one shell command; join the continuation lines)
//   dlb_campaign --nodes 1024 --rounds 400
//     --sweep.topology torus,hypercube,random_regular
//     --sweep.scheme fos,sos --sweep.rounding randomized,floor --seeds 2
//     --threads 8 --json campaign.json --csv campaign.csv
//
//   # the same campaign split across two processes/machines (cost-balanced,
//   # sharing one lambda sidecar), then merged
//   dlb_campaign --spec big.spec --shard 0/2 --shard-balance cost
//     --lambda-cache lam.cache --csv s0.csv
//   dlb_campaign --spec big.spec --shard 1/2 --shard-balance cost
//     --lambda-cache lam.cache --csv s1.csv
//   dlb_campaign --spec big.spec --merge s0.csv,s1.csv
//     --csv full.csv --json full.json
//
// Reports are byte-identical for any --threads / --engine-threads value
// and with or without --shard + --merge; add --timing to include
// (nondeterministic) wall-clock fields.
#include <functional>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>

#include <unistd.h> // gethostname

#include "dlb.hpp"
#include "util/parse.hpp" // hex64

using namespace dlb;

namespace {

void print_usage(std::ostream& out)
{
    out << "usage: dlb_campaign [options]\n"
           "  --spec FILE            load a key=value campaign file\n"
           "  --name NAME            campaign name for the reports\n"
           "  --<field> VALUE        set a base scenario field\n"
           "  --sweep.<field> A,B,C  sweep a field over a value list\n"
           "  --seeds N              sweep seed over base..base+N-1\n"
           "  --rng-version 1|2      versioned RNG stream format (alias of\n"
           "                         --rng_version): 1 = xoshiro streams\n"
           "                         (default, bit-identical to pre-version\n"
           "                         builds), 2 = counter-based draws (the\n"
           "                         faster format). Shards must agree:\n"
           "                         --merge rejects mixed-version reports\n"
           "  --shard I/N            run only this invocation's share of the\n"
           "                         scenarios (rows keep global indices;\n"
           "                         merge with --merge for the full report)\n"
           "  --shard-balance MODE   how --shard splits the expansion:\n"
           "                         round-robin (index = I mod N, the\n"
           "                         default) or cost (greedy LPT over the\n"
           "                         per-scenario cost model — balances\n"
           "                         wall clock on heterogeneous sweeps).\n"
           "                         Every shard must use the same mode\n"
           "  --lambda-cache FILE    persistent lambda sidecar: loaded\n"
           "                         before the run, rewritten atomically\n"
           "                         after it, shared across invocations\n"
           "                         and shard processes so each distinct\n"
           "                         topology pays Lanczos once per\n"
           "                         machine. Missing/corrupt files\n"
           "                         degrade to recompute\n"
           "  --queue DIR            fault-tolerant lease-queue mode: this\n"
           "                         invocation becomes one worker on the\n"
           "                         shared queue directory (any number of\n"
           "                         processes/machines sharing DIR cooperate\n"
           "                         on one sweep). Workers lease scenarios\n"
           "                         heaviest-first, take over leases whose\n"
           "                         holder died (resuming from its newest\n"
           "                         valid checkpoint when --checkpoint-dir\n"
           "                         is shared), and each writes the full\n"
           "                         merged report — byte-identical to an\n"
           "                         unsharded run. One worker per process\n"
           "                         (--threads other than 1 is rejected).\n"
           "                         Exclusive with --shard, --merge and\n"
           "                         --resume\n"
           "  --lease-expiry SECS    queue mode: a cross-host worker whose\n"
           "                         heartbeat is older than SECS is treated\n"
           "                         as dead and its lease re-assigned\n"
           "                         (same-host death is detected by pid,\n"
           "                         immediately). Default 30\n"
           "  --merge A.csv,B.csv    merge shard CSV reports written with the\n"
           "                         same campaign definition; runs nothing,\n"
           "                         writes --csv/--json byte-identical to an\n"
           "                         unsharded run\n"
           "  --checkpoint-every N   write an atomic engine snapshot per\n"
           "                         scenario every N rounds to\n"
           "                         <dir>/<index>_<label>.ckpt; requires\n"
           "                         --checkpoint-dir. Pure output: reports\n"
           "                         stay byte-identical\n"
           "  --checkpoint-dir DIR   where --checkpoint-every writes its\n"
           "                         snapshots (created if missing)\n"
           "  --resume FILE          resume one scenario from a snapshot; it\n"
           "                         continues from the saved round and the\n"
           "                         reports come out byte-identical to an\n"
           "                         uninterrupted run. The snapshot must\n"
           "                         match this campaign (spec hash,\n"
           "                         rng_version, stride — mismatches are\n"
           "                         rejected naming the field)\n"
           "  --measure-windows K    SMARTS-style windowed sampling: instead\n"
           "                         of one long tail, run K short measured\n"
           "                         windows from the --resume snapshot\n"
           "                         (window 0 keeps the scenario seed, the\n"
           "                         rest re-seed) and report mean/stddev/\n"
           "                         95% CI of the sampled discrepancy;\n"
           "                         --csv/--json then write the windows\n"
           "                         report. Requires --window-rounds;\n"
           "                         rejects --series-dir, --lambda-cache\n"
           "                         and --record-every\n"
           "  --window-rounds W      rounds per measured window (>= 1)\n"
           "  --threads N            parallel scenario workers (0: hardware).\n"
           "                         Fans whole scenarios out; use it when a\n"
           "                         campaign is many scenarios\n"
           "  --engine-threads N     in-engine round-kernel workers per\n"
           "                         scenario (0: hardware, 1: serial). Use it\n"
           "                         when a campaign is a few LARGE scenarios;\n"
           "                         any value != 1 forces the scenario\n"
           "                         fan-out serial, so --threads is then\n"
           "                         ignored — the two levels never compose,\n"
           "                         pick one. Reports are byte-identical\n"
           "                         either way\n"
           "  --record-every N       series sampling stride (0: rounds/256)\n"
           "  --json PATH            write the aggregated JSON report\n"
           "  --csv PATH             write the per-scenario CSV report\n"
           "  --series-dir DIR       write each scenario's per-round series CSV\n"
           "  --timing               include wall-clock fields in reports\n"
           "                         (breaks byte-determinism and --merge)\n"
           "                         and print cache hit/miss counters\n"
           "  --trace FILE           write a Chrome/Perfetto trace-event JSON\n"
           "                         of the run's phases (graph builds,\n"
           "                         lambda solves, per-scenario engine\n"
           "                         phases, report writes; one track per\n"
           "                         worker thread). Load it in\n"
           "                         ui.perfetto.dev or about://tracing.\n"
           "                         Out-of-band: reports stay byte-identical\n"
           "  --metrics FILE         write aggregated counters/histograms as\n"
           "                         JSONL (deterministic for a given run\n"
           "                         shape), and embed a metrics object in\n"
           "                         the --timing JSON report\n"
           "  --progress[=SECS]      per-shard heartbeat lines on stderr\n"
           "                         every SECS (default 10) with scenarios\n"
           "                         done, elapsed, a cost-model ETA and the\n"
           "                         predicted-vs-actual residual spread\n"
           "  --manifest FILE        write a run manifest (provenance: spec\n"
           "                         hash, args, shard assignment, build,\n"
           "                         host). With --merge, validates the\n"
           "                         shard manifests from --manifests and\n"
           "                         writes the merged manifest here\n"
           "  --manifests A,B        shard manifest files for --merge to\n"
           "                         check consistency across (spec hash,\n"
           "                         stride, shard count, balance mode must\n"
           "                         all agree) before trusting the rows\n"
           "  --quiet                suppress per-scenario progress on stderr\n"
           "  --dry-run              expand and list scenarios, run nothing\n"
           "  --list                 print the accepted names of every\n"
           "                         enum field, then exit\n"
           "fields:";
    for (const auto& field : campaign::field_names()) out << " " << field;
    for (const auto& [field, names] : campaign::value_names()) {
        out << "\n" << field << ":";
        for (const auto& name : names) out << " " << name;
    }
    out << "\nsee docs/campaign-specs.md for the full reference\n";
}

// Registry dump for scripts (and for keeping docs honest: the names printed
// here are the lists expand() checks and the executor resolves against).
void print_registry(std::ostream& out)
{
    for (const auto& [field, names] : campaign::value_names()) {
        out << field << ":\n";
        for (const auto& name : names)
            out << "  " << name
                << (field == "topology" && campaign::topology_uses_seed(name)
                        ? "  (seed-dependent)\n"
                        : "\n");
    }
}

// Every report is written through write_file_atomic: a reader (or a peer
// queue worker pointed at the same path) sees the old file or the whole
// new one, and a failed write exits non-zero leaving neither a partial
// report nor a temp behind.
void write_report(const std::string& path,
                  const std::function<void(std::ostream&)>& emit)
{
    std::ostringstream bytes;
    emit(bytes);
    write_file_atomic(path, bytes.str(), "report");
}

// The provenance record one invocation (shard or whole campaign) writes via
// --manifest. The leading fields are the ones every shard of a campaign
// must agree on — the merged manifest checks exactly those — followed by
// the per-shard fields (assignment, argv, build, host) that may differ.
obs::run_manifest build_manifest(const campaign::campaign_spec& spec,
                                 std::int64_t record_every,
                                 std::int64_t shard_index,
                                 std::int64_t shard_count,
                                 campaign::shard_balance balance, int argc,
                                 char** argv)
{
    obs::run_manifest manifest;
    manifest.set("campaign", spec.name);
    manifest.set("spec_hash", hex64(campaign::spec_hash(spec)));
    manifest.set("scenario_count", std::to_string(spec.expected_count()));
    manifest.set("record_every", std::to_string(record_every));
    manifest.set("shard_count", std::to_string(shard_count));
    manifest.set("shard_balance", campaign::to_string(balance));
    manifest.set("rng_version",
                 campaign::get_field(spec.base, "rng_version"));

    manifest.set("shard_index", std::to_string(shard_index));
    std::string command = "dlb_campaign";
    for (int i = 1; i < argc; ++i) command += std::string(" ") + argv[i];
    manifest.set("args", command);
#ifdef __VERSION__
    manifest.set("build", __VERSION__);
#else
    manifest.set("build", "unknown");
#endif
    char host[256] = {};
    if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0')
        manifest.set("host", host);
    return manifest;
}

// The fields that define a merge-compatible shard set. shard_index is
// deliberately absent (it must differ — coverage is checked separately).
const std::vector<std::string> kManifestMustMatch = {
    "campaign",     "spec_hash",     "scenario_count", "record_every",
    "shard_count",  "shard_balance", "rng_version"};

// Proves the shard manifests belong to one campaign before --merge trusts
// the shard rows: every must-match field agrees, the set covers shard
// indices 0..N-1 exactly once, and the spec the merge itself was given
// hashes to the same campaign the shards ran.
obs::run_manifest merge_and_validate_manifests(
    const campaign::campaign_spec& spec, std::int64_t record_every,
    const std::vector<std::string>& paths)
{
    std::vector<obs::run_manifest> shards;
    shards.reserve(paths.size());
    for (const auto& path : paths)
        shards.push_back(obs::parse_manifest_file(path));

    obs::run_manifest merged =
        obs::merge_manifests(shards, kManifestMustMatch);

    const std::string local_hash = hex64(campaign::spec_hash(spec));
    if (merged.get("spec_hash") != local_hash)
        throw std::runtime_error(
            "manifest: shard manifests were produced by campaign spec_hash " +
            merged.get("spec_hash") + " but this merge invocation's spec "
            "hashes to " + local_hash +
            "; merge with the same campaign definition the shards ran");
    const std::string local_stride = std::to_string(record_every);
    if (merged.get("record_every") != local_stride)
        throw std::runtime_error(
            "manifest: shards ran with record_every = " +
            merged.get("record_every") + " but this merge resolves to " +
            local_stride + "; pass the same --record-every");

    const std::int64_t count = std::stoll(merged.get("shard_count"));
    if (static_cast<std::int64_t>(shards.size()) != count)
        throw std::runtime_error(
            "manifest: " + std::to_string(shards.size()) +
            " shard manifests given but the shards ran with shard_count = " +
            std::to_string(count));
    std::vector<bool> seen(static_cast<std::size_t>(count), false);
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const std::string field = shards[s].get("shard_index");
        std::int64_t index = -1;
        try {
            index = std::stoll(field);
        } catch (const std::exception&) {
        }
        if (index < 0 || index >= count)
            throw std::runtime_error("manifest: " + paths[s] +
                                     ": shard_index '" + field +
                                     "' outside 0.." + std::to_string(count - 1));
        if (seen[static_cast<std::size_t>(index)])
            throw std::runtime_error("manifest: shard_index " + field +
                                     " appears twice (duplicate manifest for " +
                                     paths[s] + ")");
        seen[static_cast<std::size_t>(index)] = true;
    }
    return merged;
}

} // namespace

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    if (args.has("help")) {
        print_usage(std::cout);
        return 0;
    }
    if (args.has("list")) {
        print_registry(std::cout);
        return 0;
    }

    try {
        campaign::campaign_spec spec;
        if (args.has("spec"))
            spec = campaign::parse_campaign_file(args.get_string("spec", ""));
        if (args.has("name")) spec.name = args.get_string("name", spec.name);

        // Known option names: harness flags plus every scenario field in
        // base and sweep form. Anything else is a typo worth failing on.
        std::set<std::string> known = {"spec",    "name",   "seeds",
                                       "queue",   "lease-expiry",
                                       "shard",   "shard-balance", "merge",
                                       "checkpoint-every", "checkpoint-dir",
                                       "resume",  "measure-windows",
                                       "window-rounds",
                                       "lambda-cache", "threads",
                                       "engine-threads", "record-every",
                                       "rng-version", "sweep.rng-version",
                                       "json",    "csv",    "series-dir",
                                       "timing",  "trace",  "metrics",
                                       "progress", "manifest", "manifests",
                                       "quiet",   "dry-run",
                                       "list",    "help"};
        for (const auto& field : campaign::field_names()) {
            known.insert(field);
            known.insert("sweep." + field);
            if (args.has(field))
                campaign::set_field(spec.base, field, args.get_string(field, ""));
            if (args.has("sweep." + field)) {
                const auto values = campaign::split_list(
                    args.get_string("sweep." + field, ""));
                if (values.empty())
                    throw std::invalid_argument("empty sweep list for --sweep." +
                                                field);
                spec.axes[field] = values;
            }
        }
        // Dashed aliases for the rng_version field (flag convention).
        if (args.has("rng-version"))
            campaign::set_field(spec.base, "rng_version",
                                args.get_string("rng-version", ""));
        if (args.has("sweep.rng-version")) {
            const auto values =
                campaign::split_list(args.get_string("sweep.rng-version", ""));
            if (values.empty())
                throw std::invalid_argument(
                    "empty sweep list for --sweep.rng-version");
            spec.axes["rng_version"] = values;
        }

        for (const auto& name : args.option_names()) {
            if (known.count(name) == 0)
                throw std::invalid_argument("unknown option --" + name +
                                            " (see --help)");
        }

        if (args.has("seeds")) {
            const std::int64_t seeds = args.get_int("seeds", 1);
            if (seeds < 1) throw std::invalid_argument("--seeds must be >= 1");
            std::vector<std::string> values;
            for (std::int64_t s = 0; s < seeds; ++s)
                values.push_back(std::to_string(
                    spec.base.seed + static_cast<std::uint64_t>(s)));
            spec.axes["seed"] = std::move(values);
        }

        if (args.has("dry-run")) {
            const auto scenarios = campaign::expand(spec);
            std::cout << "campaign '" << spec.name << "': " << scenarios.size()
                      << " scenarios\n";
            for (std::size_t i = 0; i < scenarios.size(); ++i)
                std::cout << "  [" << i << "] "
                          << campaign::scenario_label(scenarios[i]) << "\n";
            return 0;
        }

        const bool timing = args.get_bool("timing", false);

        // Observability session: binds --trace / --metrics output for the
        // whole run (campaign, report writes, merge). Out-of-band by
        // construction — with or without it the CSV/JSON reports are
        // byte-identical, which the golden determinism suite asserts.
        std::optional<obs::session> session;
        if (args.has("trace") || args.has("metrics")) {
            obs::session_options obs_options;
            obs_options.trace_path = args.get_string("trace", "");
            if (args.has("trace") && obs_options.trace_path.empty())
                throw std::invalid_argument("--trace needs a file path");
            obs_options.metrics_path = args.get_string("metrics", "");
            if (args.has("metrics") && obs_options.metrics_path.empty())
                throw std::invalid_argument("--metrics needs a file path");
            obs_options.collect_metrics = args.has("metrics");
            session.emplace(obs_options);
        }

        const std::int64_t resolved_stride = campaign::resolved_record_every(
            spec, args.get_int("record-every", 0));

        // Windowed sampling is its own mode: it runs measured windows from
        // one snapshot and writes the windows report, never the campaign
        // one. Flags that drive the scenario sweep don't compose with it.
        if (args.has("measure-windows")) {
            if (args.has("merge"))
                throw std::invalid_argument(
                    "--measure-windows and --merge are exclusive");
            if (args.has("shard"))
                throw std::invalid_argument(
                    "--measure-windows and --shard are exclusive");
            if (args.has("queue"))
                throw std::invalid_argument(
                    "--measure-windows and --queue are exclusive");
            if (args.has("checkpoint-every") || args.has("checkpoint-dir"))
                throw std::invalid_argument(
                    "--measure-windows samples from an existing snapshot; "
                    "checkpointing flags do not apply");
            if (args.has("manifest") || args.has("manifests"))
                throw std::invalid_argument(
                    "--measure-windows does not write campaign manifests");
            // The windows run on the snapshot's own stride, write only the
            // windows report and resolve no lambda through a sidecar.
            for (const char* flag : {"series-dir", "lambda-cache", "record-every"})
                if (args.has(flag))
                    throw std::invalid_argument(
                        std::string("--measure-windows and --") + flag +
                        " are exclusive: windows sample at the snapshot's "
                        "stride and write only the windows report");
            if (!args.has("resume"))
                throw std::invalid_argument(
                    "--measure-windows needs --resume FILE (the snapshot "
                    "to sample from)");
            const std::string snapshot_path = args.get_string("resume", "");
            if (snapshot_path.empty())
                throw std::invalid_argument(
                    "--resume needs a checkpoint file path");
            campaign::measure_windows_options windows_options;
            windows_options.windows = args.get_int("measure-windows", 8);
            windows_options.window_rounds = args.get_int("window-rounds", 0);
            if (windows_options.window_rounds < 1)
                throw std::invalid_argument(
                    "--measure-windows needs --window-rounds W (>= 1)");

            const engine_checkpoint snapshot =
                read_checkpoint_file(snapshot_path);
            const campaign::measure_windows_result windows =
                campaign::measure_windows(spec, snapshot, windows_options);

            std::cout << "windows '" << windows.label << "': "
                      << windows.samples.size() << " x "
                      << windows.window_rounds << " rounds from round "
                      << windows.start_round << "\n"
                      << "  discrepancy mean=" << windows.mean
                      << " stddev=" << windows.stddev << " ci95=+/-"
                      << windows.ci95_half_width << "\n";
            if (args.has("json")) {
                const std::string path = args.get_string("json", "");
                write_report(path, [&](std::ostream& out) {
                    campaign::write_windows_json(out, windows);
                });
                std::cout << "json -> " << path << "\n";
            }
            if (args.has("csv")) {
                const std::string path = args.get_string("csv", "");
                write_report(path, [&](std::ostream& out) {
                    campaign::write_windows_csv(out, windows);
                });
                std::cout << "csv -> " << path << "\n";
            }
            return 0;
        }
        if (args.has("window-rounds"))
            throw std::invalid_argument(
                "--window-rounds only applies to --measure-windows");

        campaign::campaign_result result;
        std::optional<obs::run_manifest> merged_manifest;
        if (args.has("merge")) {
            if (args.has("shard"))
                throw std::invalid_argument("--merge and --shard are exclusive");
            if (args.has("queue"))
                throw std::invalid_argument(
                    "--merge and --queue are exclusive: every queue worker "
                    "already writes the full merged report");
            if (args.has("lambda-cache"))
                throw std::invalid_argument(
                    "--merge runs nothing, so --lambda-cache has no effect "
                    "there; pass it to the shard runs instead");
            if (args.has("resume"))
                throw std::invalid_argument(
                    "--merge and --resume are exclusive: --merge runs "
                    "nothing; resume the shard run that wrote the "
                    "checkpoint, then merge its report");
            if (args.has("checkpoint-every") || args.has("checkpoint-dir"))
                throw std::invalid_argument(
                    "--merge runs nothing, so checkpointing flags have no "
                    "effect there; pass them to the shard runs instead");
            if (timing)
                throw std::invalid_argument(
                    "--merge works on timing-free reports (drop --timing)");
            const auto paths =
                campaign::split_list(args.get_string("merge", ""));
            if (paths.empty())
                throw std::invalid_argument("--merge needs shard CSV paths");
            // Shard manifests are checked before any row is trusted: a
            // mixed set (different spec, stride, balance mode or shard
            // count) fails here naming the differing field.
            if (args.has("manifests")) {
                const auto manifest_paths =
                    campaign::split_list(args.get_string("manifests", ""));
                if (manifest_paths.empty())
                    throw std::invalid_argument(
                        "--manifests needs shard manifest paths");
                merged_manifest = merge_and_validate_manifests(
                    spec, resolved_stride, manifest_paths);
            }
            result = campaign::merge_shard_csv(spec, paths,
                                               args.get_int("record-every", 0));
        } else {
            if (args.has("manifests"))
                throw std::invalid_argument(
                    "--manifests only applies to --merge; a shard run writes "
                    "its own manifest with --manifest FILE");
            campaign::campaign_options options;
            const std::int64_t threads = args.get_int("threads", 0);
            const std::int64_t engine_threads = args.get_int("engine-threads", 1);
            if (threads < 0 || engine_threads < 0)
                throw std::invalid_argument("thread counts must be >= 0");
            options.threads = static_cast<unsigned>(threads);
            options.engine_threads = static_cast<unsigned>(engine_threads);
            options.record_every = args.get_int("record-every", 0);
            options.series_dir = args.get_string("series-dir", "");
            options.lambda_cache_path = args.get_string("lambda-cache", "");
            if (args.has("lambda-cache") && options.lambda_cache_path.empty())
                throw std::invalid_argument(
                    "--lambda-cache needs a file path (a bare flag would "
                    "silently run without the sidecar)");
            options.checkpoint_every = args.get_int("checkpoint-every", 0);
            options.checkpoint_dir = args.get_string("checkpoint-dir", "");
            if (args.has("checkpoint-dir") && options.checkpoint_dir.empty())
                throw std::invalid_argument(
                    "--checkpoint-dir needs a directory path");
            options.resume_path = args.get_string("resume", "");
            if (args.has("resume") && options.resume_path.empty())
                throw std::invalid_argument(
                    "--resume needs a checkpoint file path");
            if (args.has("queue")) {
                if (args.has("shard"))
                    throw std::invalid_argument(
                        "--queue and --shard are exclusive (the queue "
                        "assigns scenarios dynamically)");
                if (args.has("shard-balance"))
                    throw std::invalid_argument(
                        "--queue and --shard-balance are exclusive: lease "
                        "order is always cost-descending (LPT)");
                if (args.has("resume"))
                    throw std::invalid_argument(
                        "--queue and --resume are exclusive: queue workers "
                        "resume from the shared --checkpoint-dir "
                        "automatically");
                if (args.has("threads") && threads != 1)
                    throw std::invalid_argument(
                        "--queue runs one lease worker per process, so "
                        "--threads must be 1 there; start more processes on "
                        "the same queue directory instead");
                options.queue_dir = args.get_string("queue", "");
                if (options.queue_dir.empty())
                    throw std::invalid_argument(
                        "--queue needs a directory path");
                const double expiry = args.get_double("lease-expiry", 30.0);
                if (expiry <= 0.0)
                    throw std::invalid_argument(
                        "--lease-expiry must be positive seconds");
                options.lease_expiry_seconds = expiry;
            } else if (args.has("lease-expiry")) {
                throw std::invalid_argument(
                    "--lease-expiry only applies to --queue");
            }
            if (args.has("shard")) {
                const auto shard =
                    campaign::parse_shard(args.get_string("shard", ""));
                options.shard_index = shard.index;
                options.shard_count = shard.count;
            }
            options.balance = campaign::parse_shard_balance(
                args.get_string("shard-balance", "round-robin"));
            if (!args.get_bool("quiet", false)) options.progress = &std::cerr;
            if (args.has("progress")) {
                // Bare --progress keeps the 10 s default; --progress=SECS
                // (or --progress SECS) overrides it.
                const double period = args.get_double("progress", 10.0);
                if (period <= 0.0)
                    throw std::invalid_argument(
                        "--progress period must be positive seconds");
                options.heartbeat = &std::cerr;
                options.heartbeat_seconds = period;
            }

            result = campaign::run_campaign(spec, options);
        }

        // A failed sidecar save degrades later runs to recompute; say so
        // even under --quiet (which only suppresses per-scenario progress).
        if (!result.lambda_sidecar_error.empty())
            std::cerr << "dlb_campaign: warning: lambda sidecar not saved: "
                      << result.lambda_sidecar_error << "\n";

        campaign::print_campaign_summary(std::cout, result);
        if (result.queue.queue_mode)
            std::cout << "queue: completed=" << result.queue.completed
                      << " leased=" << result.queue.leased
                      << " re-leased=" << result.queue.re_leased
                      << " resumed=" << result.queue.resumed
                      << " stolen=" << result.queue.stolen << "\n";
        if (timing && !args.has("merge"))
            std::cout << "cache: graph hits=" << result.cache.graph_hits
                      << " misses=" << result.cache.graph_misses
                      << " | lambda hits=" << result.cache.lambda_hits
                      << " misses=" << result.cache.lambda_misses
                      << " sidecar_loaded=" << result.lambda_sidecar_loaded
                      << "\n";

        if (args.has("json")) {
            const std::string path = args.get_string("json", "");
            write_report(path, [&](std::ostream& out) {
                campaign::write_json(out, result, timing);
            });
            std::cout << "json -> " << path << "\n";
        }
        if (args.has("csv")) {
            const std::string path = args.get_string("csv", "");
            write_report(path, [&](std::ostream& out) {
                campaign::write_csv(out, result, timing);
            });
            std::cout << "csv -> " << path << "\n";
        }

        // Provenance record, written to its own file — never into the
        // CSV/JSON reports, which must stay byte-identical with or without
        // it. On --merge this is the validated merged manifest with every
        // shard's record embedded; otherwise it describes this invocation.
        if (args.has("manifest")) {
            const std::string path = args.get_string("manifest", "");
            if (path.empty())
                throw std::invalid_argument("--manifest needs a file path");
            obs::run_manifest manifest;
            if (merged_manifest) {
                manifest = *merged_manifest;
            } else {
                std::int64_t shard_index = 0;
                std::int64_t shard_count = 1;
                if (args.has("shard")) {
                    const auto shard =
                        campaign::parse_shard(args.get_string("shard", ""));
                    shard_index = shard.index;
                    shard_count = shard.count;
                }
                manifest = build_manifest(
                    spec, resolved_stride, shard_index, shard_count,
                    campaign::parse_shard_balance(
                        args.get_string("shard-balance", "round-robin")),
                    argc, argv);
                if (!args.has("merge"))
                    manifest.set("scenarios_run",
                                 std::to_string(result.scenarios.size()));
                // Lease-mode provenance: the queue directory identifies
                // the fleet (its meta file pins spec_hash/count/stride for
                // every joining worker — the same invariants shard
                // manifests are checked for at --merge), and the lease
                // counters record what this worker actually did.
                if (result.queue.queue_mode) {
                    manifest.set("mode", "queue");
                    manifest.set("queue_dir", args.get_string("queue", ""));
                    manifest.set("queue_completed",
                                 std::to_string(result.queue.completed));
                    manifest.set("queue_re_leased",
                                 std::to_string(result.queue.re_leased));
                    manifest.set("queue_resumed",
                                 std::to_string(result.queue.resumed));
                    manifest.set("queue_stolen",
                                 std::to_string(result.queue.stolen));
                }
            }
            obs::write_manifest_file(path, manifest);
            std::cout << "manifest -> " << path << "\n";
        }

        for (const auto& r : result.scenarios)
            if (!r.error.empty()) return 1;
        return 0;
    } catch (const std::exception& failure) {
        std::cerr << "dlb_campaign: " << failure.what() << "\n";
        return 2;
    }
}
