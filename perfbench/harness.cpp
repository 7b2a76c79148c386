// Campaign benchmark harness: runs one workload's campaigns through the
// public campaign entry points (run_scenarios / run_campaign /
// run_queue_campaign), one campaign at a time, and prints the raw
// measurements on stdout as a sequence of JSON documents. run.py builds this
// binary, turns the samples into the benchmark's metrics and prints them.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --dir SCRATCH_DIR [--scale tiny]
//
// --trace 0 measures the end-to-end numbers: whole campaigns (spec parse ->
// reports on disk), each in a forked child so that wait4 gives its peak
// memory, until S seconds have passed; between campaigns it times the
// set-up phase alone, in batches. --trace 1 runs one untraced campaign, one campaign inside an
// obs::session that writes a Chrome trace (run.py reads the per-layer split
// from the spans the library already emits), and the legs that time layer
// calls directly from here: discrete_process::step at several engine thread
// counts and read_checkpoint_file on the snapshots a queue campaign left.
//
// Every campaign is checked: no error rows, every row conserves tokens, and
// the CSV rows and JSON report equal those of the run's first (reference)
// campaign. A queue_sweep reference is the in-memory sweep_small campaign of
// the same seed, so the queue's merged report must be byte-equal to it.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/campaign_executor.hpp"
#include "campaign/orchestrator.hpp"
#include "campaign/registry.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "core/alpha.hpp"
#include "core/beta.hpp"
#include "core/checkpoint.hpp"
#include "core/process.hpp"
#include "core/scheme.hpp"
#include "core/speeds.hpp"
#include "linalg/spectra.hpp"
#include "obs/obs.hpp"
#include "sim/thread_pool.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace fs = std::filesystem;
using namespace dlb;
using namespace dlb::campaign;

namespace {

constexpr unsigned kThreads = 4; // scenario / queue workers (nproc here)

struct args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false; // harness self-test sizes
    std::string dir;
};

// -- workload definitions ------------------------------------------------------

struct workload_def {
    std::string name;
    std::string spec_text;               // campaign workloads
    std::vector<scenario_spec> explicit_list; // lambda_solve
    campaign_options options;
    bool queue = false;
    std::int64_t checkpoint_every = 0;
    // discrete_process::step leg: a torus of this many nodes.
    std::int64_t step_nodes = 0;
    std::int64_t step_rounds = 0;
    std::vector<unsigned> step_threads;
};

std::string format_double(double value)
{
    std::ostringstream out;
    out.precision(17);
    out << value;
    return out.str();
}

// The sweep_small grid; queue_sweep runs the same expansion.
std::string sweep_spec_text(std::uint64_t seed, bool tiny)
{
    std::ostringstream spec;
    spec << "name = sweep_small\n"
         << "nodes = " << (tiny ? 64 : 1024) << "\n"
         << "rounds = " << (tiny ? 16 : 128) << "\n"
         << "seed = " << seed << "\n"
         << "workload_rate = 10\n"
         << "sweep.topology = torus, hypercube, random_regular, rgg\n"
         << "sweep.scheme = fos, sos, chebyshev\n"
         << "sweep.rounding = randomized, floor, nearest\n"
         << "sweep.speeds = uniform, bimodal\n"
         << "sweep.workload = static, poisson\n"
         << "seeds = 2\n";
    return spec.str();
}

workload_def make_workload(const args& a)
{
    workload_def w;
    w.name = a.workload;
    if (a.workload == "lambda_solve") {
        // lambda dominates: derived beta on three large graphs, short horizon.
        struct topo {
            const char* family;
            std::int64_t nodes;
        };
        const topo topos[] = {{"torus", a.tiny ? 256 : 65536},
                              {"hypercube", a.tiny ? 256 : 65536},
                              {"rgg", a.tiny ? 256 : 16384}};
        for (const topo& t : topos) {
            for (const char* scheme : {"sos", "chebyshev"}) {
                scenario_spec s;
                s.topology = t.family;
                s.nodes = t.nodes;
                s.scheme = scheme;
                s.rounds = a.tiny ? 8 : 32;
                s.seed = a.seed;
                w.explicit_list.push_back(s);
            }
        }
        w.options.threads = kThreads;
        w.step_nodes = a.tiny ? 256 : 65536;
        w.step_rounds = a.tiny ? 8 : 64;
        w.step_threads = {1, 2, std::max(1u, std::thread::hardware_concurrency())};
    } else if (a.workload == "kernel_torus") {
        // The round kernel dominates: beta pinned to the closed-form optimum
        // so no lambda solve runs, one large torus.
        const std::int64_t side = a.tiny ? 16 : 512;
        const double beta = beta_opt(torus_2d_lambda(
            static_cast<node_id>(side), static_cast<node_id>(side)));
        std::ostringstream spec;
        spec << "name = kernel_torus\n"
             << "topology = torus\n"
             << "nodes = " << side * side << "\n"
             << "beta = " << format_double(beta) << "\n"
             << "rounds = " << (a.tiny ? 16 : 128) << "\n"
             << "seed = " << a.seed << "\n"
             << "sweep.scheme = fos, sos\n"
             << "sweep.rounding = randomized, nearest\n";
        w.spec_text = spec.str();
        w.options.threads = 1;
        // Two engine threads: in ten-run sets on the reference host, campaign
        // walls at 2 threads spread less from run to run than at 1 or at 4
        // (see README.md). The traced run still times 1, 2 and 4.
        w.options.engine_threads = 2;
        // Sparse recording keeps the runner's per-round series off the
        // critical path (128 rounds / 16 = 8 samples plus round 0).
        w.options.record_every = a.tiny ? 4 : 16;
        w.step_nodes = side * side;
        w.step_rounds = a.tiny ? 8 : 48;
        w.step_threads = {1, 2, std::max(1u, std::thread::hardware_concurrency())};
    } else if (a.workload == "sweep_small" || a.workload == "queue_sweep") {
        // Per-scenario fixed costs: many small scenarios, stride-1 recording.
        w.spec_text = sweep_spec_text(a.seed, a.tiny);
        w.options.threads = kThreads;
        w.step_nodes = a.tiny ? 64 : 1024;
        w.step_rounds = a.tiny ? 64 : 2000;
        w.step_threads = {1};
        if (a.workload == "queue_sweep") {
            w.queue = true;
            w.checkpoint_every = a.tiny ? 4 : 32;
            w.options.threads = 1; // a queue worker runs its leases serially
        }
    } else {
        throw std::invalid_argument("unknown workload '" + a.workload + "'");
    }
    return w;
}

// -- one campaign ----------------------------------------------------------------

struct campaign_run {
    double wall = 0.0;        // spec parse -> CSV + JSON closed on disk
    double setup = 0.0;       // spec parse + expand + options + directories
    double parse_expand = 0.0;
    double execute = 0.0;     // the run_* call(s)
    double report_write = 0.0;
    std::int64_t report_bytes = 0;
    campaign_result result;
    std::string csv;
    std::string json;
    std::vector<campaign_result> queue_results; // one per queue worker
    std::string queue_dir;
    std::string checkpoint_dir;
};

std::string read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::int64_t directory_bytes(const fs::path& root)
{
    std::int64_t bytes = 0;
    std::error_code ec;
    for (const auto& entry : fs::recursive_directory_iterator(root, ec))
        if (entry.is_regular_file(ec))
            bytes += static_cast<std::int64_t>(entry.file_size(ec));
    return bytes;
}

struct prepared {
    campaign_spec spec;
    std::vector<scenario_spec> scenarios;
    campaign_options options;
};

// Set-up, part one: spec parse + expand and the campaign options.
prepared prepare(const workload_def& w)
{
    prepared p;
    if (w.spec_text.empty()) {
        p.scenarios = w.explicit_list;
    } else {
        std::istringstream in(w.spec_text);
        p.spec = parse_campaign(in);
        p.scenarios = expand(p.spec);
    }
    p.options = w.options;
    return p;
}

// Set-up, part two: the per-run directory and, for the queue, the queue and
// checkpoint directories.
void make_dirs(const workload_def& w, const fs::path& run_dir, prepared& p)
{
    fs::create_directories(run_dir);
    if (w.queue) {
        p.options.queue_dir = (run_dir / "queue").string();
        p.options.checkpoint_every = w.checkpoint_every;
        p.options.checkpoint_dir = (run_dir / "queue" / "ckpt").string();
        fs::create_directories(p.options.checkpoint_dir);
    }
}

campaign_run run_one(const workload_def& w, const fs::path& run_dir)
{
    std::error_code ec;
    fs::remove_all(run_dir, ec);
    campaign_run run;
    const std::int64_t start = now_ns();
    prepared p = prepare(w);
    run.parse_expand = static_cast<double>(now_ns() - start) * 1e-9;
    make_dirs(w, run_dir, p);
    const std::int64_t executed_at = now_ns();
    run.setup = static_cast<double>(executed_at - start) * 1e-9;

    if (w.queue) {
        run.queue_results.resize(kThreads);
        std::vector<std::exception_ptr> errors(kThreads);
        {
            std::vector<std::jthread> workers; // joined when the scope ends
            for (unsigned i = 0; i < kThreads; ++i)
                workers.emplace_back([&, i] {
                    try {
                        run.queue_results[i] = run_queue_campaign(p.spec, p.options);
                    } catch (...) {
                        errors[i] = std::current_exception();
                    }
                });
        }
        for (const auto& error : errors)
            if (error) std::rethrow_exception(error);
        run.result = run.queue_results.front();
        run.queue_dir = p.options.queue_dir;
        run.checkpoint_dir = p.options.checkpoint_dir;
    } else if (w.spec_text.empty()) {
        run.result = run_scenarios(w.name, p.scenarios, p.options);
    } else {
        run.result = run_campaign(p.spec, p.options);
    }
    const std::int64_t reported_at = now_ns();
    run.execute = static_cast<double>(reported_at - executed_at) * 1e-9;

    const std::string csv_path = (run_dir / "report.csv").string();
    const std::string json_path = (run_dir / "report.json").string();
    {
        std::ofstream csv(csv_path, std::ios::binary);
        write_csv(csv, run.result);
        std::ofstream json(json_path, std::ios::binary);
        write_json(json, run.result);
        if (!csv || !json) throw std::runtime_error("cannot write reports");
    }
    const std::int64_t end = now_ns();
    run.report_write = static_cast<double>(end - reported_at) * 1e-9;
    run.wall = static_cast<double>(end - start) * 1e-9;
    run.csv = read_file(csv_path);
    run.json = read_file(json_path);
    run.report_bytes =
        static_cast<std::int64_t>(run.csv.size() + run.json.size());
    return run;
}

// -- output checks ------------------------------------------------------------------

std::vector<std::string> csv_rows(const std::string& csv)
{
    std::vector<std::string> rows;
    std::istringstream in(csv);
    std::string line;
    while (std::getline(in, line)) rows.push_back(line);
    return rows;
}

struct check_tally {
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> notes; // first few failure reasons
    void note(const std::string& text)
    {
        if (notes.size() < 8) notes.push_back(text);
    }
};

// Counts each scenario of `run` once; it fails on an error row, a
// conservation failure or a CSV row that differs from the reference run's.
// A JSON report that differs although every row matched fails them all.
void check_run(const campaign_run& run, const campaign_run& reference,
               check_tally& tally)
{
    const auto rows = csv_rows(run.csv);
    const auto expected = csv_rows(reference.csv);
    std::int64_t failed = 0;
    for (std::size_t i = 0; i < run.result.scenarios.size(); ++i) {
        const scenario_result& s = run.result.scenarios[i];
        std::string why;
        if (!s.error.empty()) why = "error row: " + s.error;
        else if (!s.conservation_ok) why = "conservation failed";
        else if (i + 1 >= rows.size() || i + 1 >= expected.size() ||
                 rows[i + 1] != expected[i + 1])
            why = "CSV row differs from the reference run";
        if (!why.empty()) {
            ++failed;
            tally.note(s.label + ": " + why);
        }
    }
    if (rows.size() != expected.size()) {
        failed = static_cast<std::int64_t>(run.result.scenarios.size());
        tally.note("CSV row count differs from the reference run");
    } else if (failed == 0 && run.json != reference.json && !reference.json.empty()) {
        failed = static_cast<std::int64_t>(run.result.scenarios.size());
        tally.note("JSON report differs from the reference run");
    }
    for (const campaign_result& worker : run.queue_results) {
        std::ostringstream csv;
        write_csv(csv, worker);
        if (csv.str() != run.csv) {
            failed = static_cast<std::int64_t>(run.result.scenarios.size());
            tally.note("queue workers merged different reports");
            break;
        }
    }
    tally.attempted += static_cast<std::int64_t>(run.result.scenarios.size());
    tally.failed += failed;
}

// queue_sweep's reference: the in-memory sweep_small campaign of the same
// seed. Every queue campaign starts from a fresh, cold queue directory, so its
// workers solve lambda themselves and race on it as a first sweep does.
workload_def sweep_reference(const args& a)
{
    args in_memory = a;
    in_memory.workload = "sweep_small";
    return make_workload(in_memory);
}

// -- JSON output helpers ---------------------------------------------------------------

void emit_doubles(json_writer& out, const char* name, const std::vector<double>& values)
{
    out.key(name);
    out.begin_array();
    for (double v : values) out.value(v);
    out.end_array();
}

void emit_run(json_writer& out, const campaign_run& run)
{
    out.begin_object();
    out.member("wall_s", run.wall);
    out.member("setup_s", run.setup);
    out.member("parse_expand_s", run.parse_expand);
    out.member("execute_s", run.execute);
    out.member("report_write_s", run.report_write);
    out.member("report_bytes", run.report_bytes);
    std::int64_t edge_rounds = 0;
    std::vector<double> scenario_walls;
    for (const scenario_result& s : run.result.scenarios) {
        edge_rounds += s.edges * s.spec.rounds;
        scenario_walls.push_back(s.wall_seconds);
    }
    out.member("scenarios", static_cast<std::int64_t>(run.result.scenarios.size()));
    out.member("edge_rounds", edge_rounds);
    // Queue results are merged from row files and carry no scenario times.
    if (run.queue_results.empty()) emit_doubles(out, "scenario_wall_s", scenario_walls);
    if (!run.queue_results.empty()) {
        queue_worker_stats total;
        for (const campaign_result& worker : run.queue_results) {
            total.leased += worker.queue.leased;
            total.re_leased += worker.queue.re_leased;
            total.stolen += worker.queue.stolen;
        }
        out.key("queue");
        out.begin_object();
        out.member("leases", total.leased);
        out.member("re_leased", total.re_leased);
        out.member("stolen", total.stolen);
        out.member("disk_bytes", directory_bytes(run.queue_dir));
        out.end_object();
    }
    out.end_object();
}

// Largest relative error of the spectral gap 1 - lambda against the closed
// forms (uniform-speed tori and hypercubes); -1 when no scenario has one.
double lambda_gap_rel_err(const campaign_result& result)
{
    double worst = -1.0;
    for (const scenario_result& s : result.scenarios) {
        if (s.lambda < 0.0 || s.spec.speeds != "uniform") continue;
        double exact = -1.0;
        if (s.spec.topology == "torus") {
            const auto side = static_cast<node_id>(std::llround(std::sqrt(
                static_cast<double>(s.nodes))));
            if (static_cast<std::int64_t>(side) * side == s.nodes)
                exact = torus_2d_lambda(side, side);
        } else if (s.spec.topology == "hypercube") {
            exact = hypercube_lambda(
                static_cast<int>(std::llround(std::log2(static_cast<double>(s.nodes)))));
        }
        if (exact < 0.0) continue;
        worst = std::max(worst, std::abs((1.0 - s.lambda) - (1.0 - exact)) /
                                    (1.0 - exact));
    }
    return worst;
}

// Working-set bytes of the discrete engine on a graph: per node the load,
// load/speed and CSR offset (8 B each, plus the speed for non-uniform
// profiles); per half-edge the scheduled flow, the integer flow, the
// previous flow and alpha (8 B each), the neighbour id (4 B) and the twin
// index (8 B). A round streams each of these arrays at least once, so this
// is also a lower bound on the bytes one round moves. Computed, not measured.
std::int64_t engine_bytes(std::int64_t nodes, std::int64_t edges, bool uniform_speeds)
{
    return nodes * (uniform_speeds ? 24 : 32) + 2 * edges * 44;
}

// The computed engine working set of the largest scenario and how many such
// scenarios run at once (run.py compares the product with L2 and L3).
void emit_working_set(json_writer& out, const campaign_result& result,
                      const workload_def& w)
{
    std::int64_t nodes = 0, edges = 0;
    bool uniform = true;
    for (const scenario_result& s : result.scenarios)
        if (s.edges > edges) {
            nodes = s.nodes;
            edges = s.edges;
            uniform = s.spec.speeds == "uniform";
        }
    out.member("largest_scenario_engine_bytes", engine_bytes(nodes, edges, uniform));
    out.member("concurrent_scenarios",
               static_cast<std::int64_t>(w.queue ? kThreads : w.options.threads));
}

// -- traced legs --------------------------------------------------------------------------

struct step_leg {
    std::vector<double> step_s;
    std::int64_t pulls = 0;
    std::int64_t steals = 0;
};

// Times discrete_process::step on a SOS torus (the workload's representative
// round kernel), with `threads` in-engine workers.
step_leg time_steps(const workload_def& w, std::uint64_t seed, unsigned threads)
{
    const graph g = build_topology("torus", w.step_nodes, 0.0, topology_seed(seed));
    const auto side = static_cast<node_id>(std::llround(std::sqrt(
        static_cast<double>(g.num_nodes()))));
    diffusion_config config{&g, make_alpha(g, alpha_policy::max_degree_plus_one),
                            speed_profile::uniform(g.num_nodes()),
                            sos_scheme(beta_opt(torus_2d_lambda(side, side)))};
    const auto initial = build_initial_load("point", g.num_nodes(), 1000, seed);
    std::unique_ptr<thread_pool> pool;
    if (threads > 1) pool = std::make_unique<thread_pool>(threads);

    step_leg leg;
    obs::session metrics({.trace_path = {}, .metrics_path = {}, .collect_metrics = true});
    discrete_process process(config, initial, rounding_kind::randomized, seed,
                             negative_load_policy::allow, pool.get());
    process.step(); // first touch of the engine arrays is not a round
    for (std::int64_t r = 0; r < w.step_rounds; ++r) {
        const std::int64_t start = now_ns();
        process.step();
        leg.step_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    }
    leg.pulls = obs::registry_counter("thread_pool.chunk_pulls").value();
    leg.steals = obs::registry_counter("thread_pool.chunk_steals").value();
    return leg;
}

struct checkpoint_leg {
    std::int64_t files = 0;
    std::int64_t bytes = 0;
    double read_s = 0.0;
};

checkpoint_leg read_checkpoints(const std::string& dir)
{
    checkpoint_leg leg;
    if (dir.empty()) return leg;
    std::vector<std::string> paths;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".ckpt") paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
    for (const std::string& path : paths) {
        const std::int64_t start = now_ns();
        (void)read_checkpoint_file(path);
        leg.read_s += static_cast<double>(now_ns() - start) * 1e-9;
        ++leg.files;
        leg.bytes += static_cast<std::int64_t>(fs::file_size(path));
    }
    return leg;
}

// -- modes ------------------------------------------------------------------------------------

void emit_tally(json_writer& out, const check_tally& tally)
{
    out.member("attempted", tally.attempted);
    out.member("failed", tally.failed);
    out.key("failures");
    out.begin_array();
    for (const std::string& note : tally.notes) out.value(note);
    out.end_array();
}

campaign_run read_reports(const fs::path& run_dir)
{
    campaign_run reports;
    reports.csv = read_file((run_dir / "report.csv").string());
    reports.json = read_file((run_dir / "report.json").string());
    return reports;
}

double seconds_of(const timeval& t)
{
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
}

// CPU time the hypervisor gave other guests while this one wanted it, summed
// over all CPUs (the "steal" column of /proc/stat); 0 where it is not kept.
double host_steal_seconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    double ticks[8] = {};
    if (!(in >> cpu) || cpu != "cpu") return 0.0;
    for (double& t : ticks) in >> t;
    return ticks[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// Runs one campaign in a forked child, so that wait4 gives the peak resident
// set of that campaign alone and no campaign runs on another's heap. The
// child checks the campaign against `reference` (null: against itself) and
// prints one JSON document of kind `kind`; the parent, which never starts a
// thread, prints the child's peak RSS after it.
void campaign_in_child(const workload_def& w, const fs::path& run_dir,
                       const campaign_run* reference, const char* kind)
{
    std::cout.flush();
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
        int code = 0;
        try {
            const campaign_run run = run_one(w, run_dir);
            check_tally tally;
            check_run(run, reference != nullptr ? *reference : run, tally);
            json_writer out(std::cout);
            out.begin_object();
            out.member("kind", kind);
            out.key("run");
            emit_run(out, run);
            emit_tally(out, tally);
            out.member("lambda_gap_rel_err", lambda_gap_rel_err(run.result));
            emit_working_set(out, run.result, w);
            out.end_object();
        } catch (const std::exception& failure) {
            std::cerr << "perfbench_harness: campaign: " << failure.what() << "\n";
            code = 2;
        }
        std::cout << "\n";
        std::cout.flush();
        ::_exit(code);
    }
    int status = 0;
    rusage usage{};
    const double steal_before = host_steal_seconds();
    if (::wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error("campaign child failed");
    const double steal = host_steal_seconds() - steal_before;
    json_writer out(std::cout);
    out.begin_object();
    out.member("kind", "rss");
    out.member("of", kind);
    out.member("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
    out.member("cpu_s", seconds_of(usage.ru_utime) + seconds_of(usage.ru_stime));
    out.member("steal_s", steal);
    out.end_object();
    std::cout << "\n";
}

// Set-up alone, in batches: one set-up takes microseconds, so a sample is a
// batch's mean. A few batches run between every two campaigns, so that the
// median spans the whole run rather than one moment of it. The metric
// (setup_s) times the CPU part; directory creation is timed apart because its
// latency on a shared disk varied several-fold between runs.
struct setup_timer {
    static constexpr int kBatch = 100;
    static constexpr int kBatchesPerCall = 3;
    std::vector<double> cpu_samples;
    std::vector<double> dirs_samples;
    int calls = 0;

    void time_batches(const workload_def& w, const fs::path& dir)
    {
        // The first call's batches warm the allocator and page cache.
        const bool warm_up = calls++ == 0;
        for (int rep = 0; rep < kBatchesPerCall; ++rep) {
            std::int64_t start = now_ns();
            for (int i = 0; i < kBatch; ++i) (void)prepare(w);
            const double cpu = static_cast<double>(now_ns() - start) * 1e-9;

            const fs::path setup_dir = dir / "setup";
            std::error_code ec;
            fs::remove_all(setup_dir, ec);
            prepared p = prepare(w);
            start = now_ns();
            for (int i = 0; i < kBatch; ++i)
                make_dirs(w, setup_dir / std::to_string(i), p);
            const double dirs = static_cast<double>(now_ns() - start) * 1e-9;
            if (warm_up) continue;
            cpu_samples.push_back(cpu / kBatch);
            dirs_samples.push_back(dirs / kBatch);
        }
    }

    void emit() const
    {
        json_writer out(std::cout);
        out.begin_object();
        out.member("kind", "setup");
        emit_doubles(out, "setup_samples_s", cpu_samples);
        emit_doubles(out, "setup_dirs_samples_s", dirs_samples);
        out.end_object();
        std::cout << "\n";
    }
};

void untraced_mode(const args& a, const workload_def& w, const fs::path& dir)
{
    // The reference is the first timed campaign, except for queue_sweep,
    // whose reference is the untimed in-memory sweep_small campaign. Every
    // campaign writes into a directory of its own and nothing is deleted
    // until the run ends, so no campaign waits on the file system reclaiming
    // the previous one's files.
    setup_timer setup;
    setup.time_batches(w, dir);
    std::optional<campaign_run> reference;
    if (w.queue) {
        campaign_in_child(sweep_reference(a), dir / "reference", nullptr,
                          "reference");
        reference = read_reports(dir / "reference");
    }
    stopwatch clock;
    for (int k = 1; k == 1 || clock.seconds() < a.seconds; ++k) {
        if (k > 1) setup.time_batches(w, dir);
        const fs::path run_dir = dir / ("campaign-" + std::to_string(k));
        campaign_in_child(w, run_dir, reference ? &*reference : nullptr, "campaign");
        if (!reference) reference = read_reports(run_dir);
    }
    setup.time_batches(w, dir);
    setup.emit();
}

void traced_mode(const args& a, const workload_def& w, const fs::path& dir)
{
    json_writer out(std::cout);
    out.begin_object();
    out.member("kind", "traced");
    check_tally tally;
    // The reference campaign runs first and warms the heap and page cache;
    // the untraced twin then runs right before the traced campaign, so that
    // trace.overhead_frac compares two warm runs.
    campaign_run reference;
    if (w.queue) {
        // queue.overhead_s compares the queue with a warm in-memory twin.
        const workload_def sweep = sweep_reference(a);
        reference = run_one(sweep, dir / "reference");
        const campaign_run in_memory = run_one(sweep, dir / "in_memory");
        check_run(in_memory, reference, tally);
        out.key("sweep_small_reference");
        emit_run(out, in_memory);
    } else {
        reference = run_one(w, dir / "reference");
    }
    check_run(reference, reference, tally);
    const campaign_run untraced = run_one(w, dir / "untraced");
    check_run(untraced, reference, tally);
    out.key("untraced");
    emit_run(out, untraced);

    const std::string trace_path = (dir / "trace.json").string();
    campaign_run traced;
    std::vector<obs::metric_value> metrics;
    {
        obs::session session({.trace_path = trace_path, .metrics_path = {},
                              .collect_metrics = true});
        traced = run_one(w, dir / "traced");
        metrics = obs::snapshot_metrics();
    }
    check_run(traced, reference, tally);
    out.key("traced");
    emit_run(out, traced);
    out.member("trace_path", trace_path);
    out.member("lanes", static_cast<std::int64_t>(w.queue ? kThreads : w.options.threads));
    out.member("engine_threads", static_cast<std::int64_t>(w.options.engine_threads));
    out.key("obs_metrics");
    out.begin_object();
    for (const obs::metric_value& m : metrics) {
        out.key(m.name);
        out.begin_object();
        out.member("value", m.value);
        if (m.is_histogram) out.member("sum", m.sum);
        out.end_object();
    }
    out.end_object();
    out.member("lambda_gap_rel_err", lambda_gap_rel_err(traced.result));
    emit_working_set(out, traced.result, w);

    const checkpoint_leg ckpt = read_checkpoints(traced.checkpoint_dir);
    out.key("checkpoint_leg");
    out.begin_object();
    out.member("files", ckpt.files);
    out.member("bytes", ckpt.bytes);
    out.member("read_s", ckpt.read_s);
    out.end_object();

    out.key("step_legs");
    out.begin_array();
    for (const unsigned threads : w.step_threads) {
        const step_leg leg = time_steps(w, a.seed, threads);
        out.begin_object();
        out.member("threads", static_cast<std::int64_t>(threads));
        out.member("nodes", w.step_nodes);
        emit_doubles(out, "step_s", leg.step_s);
        out.member("chunk_pulls", leg.pulls);
        out.member("chunk_steals", leg.steals);
        out.end_object();
    }
    out.end_array();

    // Bytes one step-leg round touches (uniform-speed torus, degree 4).
    out.member("step_engine_bytes", engine_bytes(w.step_nodes, 2 * w.step_nodes, true));
    emit_tally(out, tally);
    out.end_object();
    std::cout << "\n";
}

args parse_args(int argc, char** argv)
{
    args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") a.workload = value;
        else if (flag == "--seed") a.seed = std::stoull(value);
        else if (flag == "--seconds") a.seconds = std::stod(value);
        else if (flag == "--trace") a.trace = value == "1";
        else if (flag == "--dir") a.dir = value;
        else if (flag == "--scale") a.tiny = value == "tiny";
        else throw std::invalid_argument("unknown flag " + flag);
    }
    if (a.workload.empty() || a.dir.empty())
        throw std::invalid_argument("--workload and --dir are required");
    return a;
}

} // namespace

int main(int argc, char** argv)
{
    try {
        const args a = parse_args(argc, argv);
        const workload_def w = make_workload(a);
        const fs::path dir(a.dir);
        fs::create_directories(dir);
        {
            json_writer out(std::cout);
            out.begin_object();
            out.member("kind", "header");
            out.member("workload", a.workload);
            out.member("seed", static_cast<std::uint64_t>(a.seed));
            out.key("build");
            out.begin_object();
            out.member("compiler", DLB_BENCH_COMPILER);
            out.member("flags", DLB_BENCH_FLAGS);
            out.member("build_type", DLB_BENCH_BUILD_TYPE);
            out.end_object();
            out.end_object();
            std::cout << "\n";
        }
        if (a.trace) traced_mode(a, w, dir);
        else untraced_mode(a, w, dir);
        std::cout.flush();
        return 0;
    } catch (const std::exception& failure) {
        std::cerr << "perfbench_harness: " << failure.what() << "\n";
        return 2;
    }
}
