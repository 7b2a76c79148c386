// Fault-tolerant lease-queue campaign orchestration.
//
// Static sharding (--shard i/N) fixes each scenario's owner at launch: a
// mis-calibrated cost weight strands one shard long after the others
// finish, and a crashed shard silently loses its rows until --merge
// rejects the sweep. The orchestrator replaces the precomputed partition
// with a shared on-disk queue (--queue DIR): every worker process leases
// the next cheapest-fit scenario, idle workers take over ("steal") the
// leases of dead or expired holders, and a re-leased scenario resumes from
// its newest valid checkpoint when one exists — from scratch otherwise.
// Any number of workers on any machines sharing the directory cooperate on
// one sweep, and kill -9 of a worker costs at most the work since its last
// checkpoint.
//
// Queue directory layout:
//
//   <queue>/lock           flock(LOCK_EX)-held around every queue mutation
//   <queue>/meta           campaign identity (spec_hash, scenario_count,
//                          record_every), created once and validated by
//                          every joining worker
//   <queue>/leases         one record per scenario:
//                          index \t leases \t first_holder \t current_holder
//                          rewritten atomically (temp + rename) under lock
//   <queue>/hb.<holder>    heartbeat file, mtime = the holder's last beat
//   <queue>/rows/<i>.csv   the completed row for scenario i (a one-row
//                          write_csv report), written atomically
//   <queue>/lambda.sidecar shared λ cache (unless --lambda-cache overrides)
//
// The row files are the durable ground truth: a scenario is complete
// exactly when its row file exists, so there is no crash window between
// "finished the work" and "marked it done", and because every scenario is
// a pure function of its spec, a double-completion (two workers racing one
// re-leased scenario) writes byte-identical bytes. The final report is
// assembled by merge_shard_csv over the row files — the same validated
// machinery static shards use — so the merged CSV/JSON is byte-identical
// to an unsharded run by construction.
//
// Liveness: each worker's identity is `host:pid:serial`. A same-host
// holder is probed with kill(pid, 0) — ESRCH is proof of death, so
// recovery from a killed worker is immediate. Cross-host (or pid-recycled)
// holders expire when their heartbeat file's mtime trails the prober's own
// just-touched heartbeat by more than lease_expiry_seconds; both mtimes
// come from the shared filesystem, which is the only clock the hosts have
// in common.
#ifndef DLB_CAMPAIGN_ORCHESTRATOR_HPP
#define DLB_CAMPAIGN_ORCHESTRATOR_HPP

#include <cstdint>
#include <functional>

#include "campaign/campaign_executor.hpp"
#include "campaign/spec.hpp"

namespace dlb::campaign {

/// Test seams for crash-recovery proofs. after_checkpoint fires on the
/// worker thread right after a scenario's checkpoint file lands on disk
/// (arguments: global scenario index, snapshot round) — a kill-9 hung off
/// it dies at a point where a valid checkpoint provably exists.
struct orchestrator_hooks {
    std::function<void(std::int64_t, std::int64_t)> after_checkpoint;
};

/// Runs one lease-queue worker on `spec` against options.queue_dir (see
/// file comment for the protocol) and blocks until every scenario in the
/// campaign has a row file — completing leases itself while work is
/// pending, polling while live peers hold the rest (10 ms, doubling on
/// each consecutive wait up to one heartbeat, reset by a lease).
/// Returns the full merged campaign_result (all scenarios, global order),
/// byte-identical across workers and to an unsharded run;
/// campaign_result::queue reports this worker's lease activity. Throws
/// std::invalid_argument on option conflicts (static --shard/--resume
/// knobs, malformed heartbeat periods) and std::runtime_error when the
/// queue directory belongs to a different campaign or is corrupt.
campaign_result run_queue_campaign(const campaign_spec& spec,
                                   const campaign_options& options,
                                   const orchestrator_hooks& hooks = {});

} // namespace dlb::campaign

#endif // DLB_CAMPAIGN_ORCHESTRATOR_HPP
