// Always-on invariant auditing for the cluster simulator.
//
// A production scheduler must never silently corrupt cluster state; the
// auditor is the simulator-side analogue of that guarantee. Once per
// scheduling interval it checks the cluster state (per-server load from job
// placements, job-state census, progress deltas):
//   capacity    — per-server placed load fits within the server's capacity,
//                 free resources stay non-negative, placement vectors are
//                 sized to the server list, and per-job placement totals
//                 match the job's allocation
//   dead-server — no running job has a task on an unavailable server
//   progress    — job epoch progress is monotone non-decreasing, except
//                 across an announced checkpoint rollback
//   accounting  — completed + running + paused + pending == jobs submitted,
//                 and the metrics completion counter agrees
//   state       — non-running jobs hold no allocation; task counts and
//                 progress are non-negative
//
// Two check modes share the same invariants:
//   Check()            re-derives everything from the passed-in views from
//                      first principles — O(jobs * servers) per call.
//   CheckIncremental() reads a placement tracker maintained by delta updates
//                      (SetPlacement / ClearPlacement at placement, eviction
//                      and completion time) — O(jobs + changed servers) per
//                      call. The simulator runs this most intervals and falls
//                      back to the full re-derivation periodically, pairing it
//                      with CheckTrackerAgainstViews() so any drift between the
//                      tracker and the true state is itself a violation.
//
// Every per-job structure is addressed by the caller's job slot (the
// simulator's dense index into its job table), never by job id: ids are
// sparse (service submissions pick arbitrary ones) while slots are dense, so
// per-job state is one vector element and a check costs no tree lookups. Job
// ids only name jobs in violation messages and order each server's occupants.
//
// Violations are collected with timestamps; the simulator reports them
// loudly at the end of the run (fatally when audit_fatal is set). The checks
// are pure over the passed-in views, so tests can feed deliberately corrupted
// snapshots and assert the auditor rejects them.

#ifndef SRC_SIM_INVARIANT_AUDITOR_H_
#define SRC_SIM_INVARIANT_AUDITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/job.h"
#include "src/cluster/server.h"
#include "src/obs/flight_recorder.h"
#include "src/pserver/comm_model.h"

namespace optimus {

struct AuditViolation {
  double time_s = 0.0;
  std::string invariant;  // short id: capacity, dead-server, progress, ...
  std::string detail;
};

class InvariantAuditor {
 public:
  // The auditor's read-only view of one job at check time.
  struct JobView {
    int slot = 0;    // the caller's dense job index; keys all per-job state
    int job_id = 0;  // names the job in violation messages
    JobState state = JobState::kPending;
    double steps_done = 0.0;
    int num_ps = 0;
    int num_workers = 0;
    Resources ps_demand;
    Resources worker_demand;
    const JobPlacement* placement = nullptr;  // may be null or empty
    // All-reduce jobs legitimately run with zero PS tasks; the running-state
    // allocation check is comm-aware.
    CommMode comm = CommMode::kParameterServer;
  };

  // Job-state census at check time, as the metrics layer counts it.
  struct Counts {
    int submitted = 0;  // jobs that have arrived so far
    int completed_metric = 0;  // RunMetrics::completed_jobs
    // Completed jobs whose runtime records were retired (freed) by streaming
    // admission; they no longer appear in the job views, so the accounting
    // identities count them explicitly: census.completed + retired must equal
    // completed_metric, and the submitted identity includes them.
    int retired = 0;
  };

  // Announces that the job in `slot` had its progress legitimately rolled
  // back to a checkpoint since the last Check (crash eviction or task
  // failure); the next Check allows a progress decrease for it, once.
  void NoteRollback(int slot);

  // Announces that the runtime record in `slot` was retired after completion
  // (streaming admission): its progress history is dropped. The job must
  // already have left the placement tracker (completion cleared it).
  void NoteRetired(int slot);

  // Runs all invariant checks against the snapshot, re-deriving per-server
  // load from scratch. Appends violations.
  void Check(double now_s, const std::vector<Server>& servers,
             const std::vector<JobView>& jobs, const Counts& counts);

  // --- Incremental mode ----------------------------------------------------

  // Sizes the per-server tracker; must be called before SetPlacement.
  void SetClusterSize(size_t n_servers);

  // Delta updates to the placement tracker. SetPlacement replaces the
  // tracked contribution of the job in `slot` with `placement` (recording
  // the demands so per-server load can be re-derived lazily); ClearPlacement
  // removes it (eviction, pause, completion). Both are O(tasks of the job).
  // Re-placing a job exactly as tracked (same tasks, same demands) is a
  // no-op: nothing is cleared, re-inserted or marked for re-checking.
  void SetPlacement(int slot, int job_id, const Resources& worker_demand,
                    const Resources& ps_demand, const JobPlacement& placement);
  void ClearPlacement(int slot);

  // Same invariants as Check(), but per-server load comes from the tracker:
  // only servers whose occupancy changed since the last incremental check
  // are re-summed, and the dead-server scan visits only `down_servers` (the
  // ascending indices of the unavailable servers, which the caller keeps as
  // availability changes), so the cost is O(jobs + changed + down servers)
  // instead of O(jobs * servers).
  void CheckIncremental(double now_s, const std::vector<Server>& servers,
                        const std::vector<int>& down_servers,
                        const std::vector<JobView>& jobs, const Counts& counts);

  // Cross-checks the tracker against the ground-truth views: every running
  // job's placement must match its tracked contribution exactly, and the
  // tracker must hold nothing else. Divergence is reported as an
  // "audit-divergence" violation. Does not count as a check (checks_run()
  // is unchanged) — the simulator runs it alongside the periodic full
  // Check() to prove the incremental path never drifted.
  void CheckTrackerAgainstViews(double now_s, const std::vector<JobView>& jobs);

  bool ok() const { return violations_.empty(); }
  const std::vector<AuditViolation>& violations() const { return violations_; }
  int64_t checks_run() const { return checks_run_; }
  // Servers whose load the last CheckIncremental re-derived (occupied
  // servers whose occupancy changed since the check before it).
  int64_t servers_rederived() const { return servers_rederived_; }

  // When set, every reported violation is also recorded into the flight
  // recorder (kind kAuditViolation, detail "invariant: detail"), so the
  // post-mortem dump carries the violations interleaved with the allocation
  // and fault events that led up to them. The recorder must outlive the
  // auditor's checks.
  void set_flight_recorder(FlightRecorder* recorder) { flight_ = recorder; }

  // Human-readable digest of up to `max_items` violations.
  std::string Summary(size_t max_items = 5) const;

 private:
  struct Census {
    int running = 0;
    int paused = 0;
    int pending = 0;
    int completed = 0;
  };

  // One tracked (server, workers, ps) contribution of a job.
  struct TrackedTask {
    int server = 0;
    int workers = 0;
    int ps = 0;
  };
  struct TrackedJob {
    int job_id = 0;
    std::vector<TrackedTask> tasks;  // ascending server order
    Resources worker_demand;
    Resources ps_demand;
    int num_workers = 0;
    int num_ps = 0;
  };
  // Per-slot state: 16 bytes per job ever seen. The tracked contribution
  // lives in a pool sized by the running set, not by every slot.
  struct SlotState {
    double last_steps = 0.0;
    int tracked = -1;          // index into tracked_, -1 = nothing tracked
    bool has_last = false;     // last_steps holds the previous check's value
    bool rollback_ok = false;  // NoteRollback since the last check
  };
  // One job's tasks on one server. A server's occupants are kept sorted by
  // job id, so its load is summed in one fixed order.
  struct Occupant {
    int job_id = 0;
    int slot = 0;
    int workers = 0;
    int ps = 0;
  };

  void Report(double now_s, const char* invariant, std::string detail);
  // Per-job scalar invariants shared by both check modes: state sanity,
  // progress monotonicity (consuming the rollback allowances at the end),
  // and the accounting identities. Returns the state census.
  Census CheckJobScalars(double now_s, const std::vector<JobView>& jobs);
  void CheckAccounting(double now_s, const Census& census, const Counts& counts);
  // Drops every pending rollback allowance (end of a check).
  void ClearRollbacks();
  SlotState& Slot(int slot);
  // The tracked contribution of `slot`, or null when it has none.
  const TrackedJob* Tracked(int slot) const;
  Resources DeriveServerLoad(size_t s) const;
  void MarkDirty(int server);

  std::vector<SlotState> slots_;
  std::vector<int> rollback_slots_;  // slots whose rollback_ok is set
  std::vector<AuditViolation> violations_;
  int64_t checks_run_ = 0;
  int64_t servers_rederived_ = 0;
  FlightRecorder* flight_ = nullptr;

  // Incremental tracker state.
  std::vector<TrackedJob> tracked_;  // pool; SlotState::tracked indexes it
  std::vector<int> free_tracked_;    // pool entries not in use
  std::vector<std::vector<Occupant>> occupants_;  // per server, by job id
  std::vector<char> dirty_;          // per server: occupancy changed
  std::vector<int> dirty_servers_;   // the servers with dirty_ set
};

}  // namespace optimus

#endif  // SRC_SIM_INVARIANT_AUDITOR_H_
