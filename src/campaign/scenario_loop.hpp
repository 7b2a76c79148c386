// The one campaign scenario loop, shared by static shards (run_campaign,
// run_scenarios) and lease-queue workers (run_queue_campaign); internal to
// the campaign layer. The two modes differ only in their scenario_feed:
// where a worker's next scenario comes from (an atomic counter over the
// shard's partition, or a lease taken under the queue lock) and what
// becomes of a finished row (a result slot, or a row file). The loop does
// the rest: directories, the graph cache and λ sidecar, the engine pool,
// per-worker scratch, checkpoint wiring and the snapshot gate, the
// progress meter and progress lines.
#ifndef DLB_CAMPAIGN_SCENARIO_LOOP_HPP
#define DLB_CAMPAIGN_SCENARIO_LOOP_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign_executor.hpp"
#include "campaign/orchestrator.hpp"

namespace dlb::obs {
class progress_meter;
}

namespace dlb::campaign {

struct scenario_claim {
    std::int64_t index = 0; // global scenario index
    std::int64_t slot = 0;  // the feed's own bookkeeping
    std::string tag;        // opens the progress line, e.g. "[3/12]"
    std::string note;       // follows the label, e.g. "  (re-leased)"
};

struct scenario_feed {
    /// The scenarios this worker answers for, ascending: its shard's
    /// partition, or every scenario for a queue worker.
    std::vector<std::int64_t> assignment;
    /// The next scenario, or nullopt when none is left. A static shard's
    /// fan-out workers call it concurrently.
    std::function<std::optional<scenario_claim>(obs::progress_meter*)> next;
    /// Takes a finished row; `resumed`: it continued from the scenario's
    /// own checkpoint (queue workers only).
    std::function<void(const scenario_claim&, const scenario_result&,
                       bool resumed)>
        finish;
};

/// Throws std::invalid_argument on the option errors both modes share
/// (checkpoint knobs). Entry points call it before any side effect.
void check_loop_options(const campaign_options& options);

/// Runs every scenario `feed` hands out and returns the campaign-level
/// fields of the result (cache counters, sidecar outcome, wall time); the
/// rows went to feed.finish. Queue mode (options.queue_dir set) runs one
/// worker, reloads the λ sidecar per lease, saves it per row, and resumes
/// a scenario from its own checkpoint when that passes the snapshot gate.
/// A static shard fans out over options.threads, resumes only
/// options.resume_path, and saves the sidecar once at the end.
campaign_result run_scenario_loop(const campaign_spec& spec,
                                  const std::vector<scenario_spec>& scenarios,
                                  const campaign_options& options,
                                  const scenario_feed& feed,
                                  const orchestrator_hooks& hooks = {});

} // namespace dlb::campaign

#endif // DLB_CAMPAIGN_SCENARIO_LOOP_HPP
