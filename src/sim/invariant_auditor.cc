#include "src/sim/invariant_auditor.h"

#include <algorithm>
#include <sstream>

#include "src/common/logging.h"

namespace optimus {

namespace {

// Slack for floating-point accumulation of placed demands.
constexpr double kEps = 1e-6;

}  // namespace

InvariantAuditor::SlotState& InvariantAuditor::Slot(int slot) {
  OPTIMUS_CHECK_GE(slot, 0) << "job slots are non-negative";
  if (static_cast<size_t>(slot) >= slots_.size()) {
    slots_.resize(static_cast<size_t>(slot) + 1);
  }
  return slots_[static_cast<size_t>(slot)];
}

const InvariantAuditor::TrackedJob* InvariantAuditor::Tracked(int slot) const {
  if (slot < 0 || static_cast<size_t>(slot) >= slots_.size()) {
    return nullptr;
  }
  const int idx = slots_[static_cast<size_t>(slot)].tracked;
  return idx < 0 ? nullptr : &tracked_[static_cast<size_t>(idx)];
}

void InvariantAuditor::NoteRollback(int slot) {
  SlotState& st = Slot(slot);
  if (!st.rollback_ok) {
    st.rollback_ok = true;
    rollback_slots_.push_back(slot);
  }
}

void InvariantAuditor::NoteRetired(int slot) {
  SlotState& st = Slot(slot);
  st.has_last = false;
  st.rollback_ok = false;
}

void InvariantAuditor::ClearRollbacks() {
  for (const int slot : rollback_slots_) {
    slots_[static_cast<size_t>(slot)].rollback_ok = false;
  }
  rollback_slots_.clear();
}

void InvariantAuditor::Report(double now_s, const char* invariant,
                              std::string detail) {
  if (flight_ != nullptr) {
    flight_->Record(now_s, FlightEventKind::kAuditViolation, -1, 0, 0, 0.0,
                    std::string(invariant) + ": " + detail);
  }
  violations_.push_back({now_s, invariant, std::move(detail)});
}

InvariantAuditor::Census InvariantAuditor::CheckJobScalars(
    double now_s, const std::vector<JobView>& jobs) {
  Census census;
  for (const JobView& job : jobs) {
    switch (job.state) {
      case JobState::kRunning:
        ++census.running;
        break;
      case JobState::kPaused:
        ++census.paused;
        break;
      case JobState::kPending:
        ++census.pending;
        break;
      case JobState::kCompleted:
        ++census.completed;
        break;
    }

    // State sanity: non-negative counts and progress; non-running jobs hold
    // no allocation; running jobs hold an active one.
    if (job.num_ps < 0 || job.num_workers < 0 || job.steps_done < 0.0) {
      std::ostringstream os;
      os << "job " << job.job_id << ": negative ps/workers/steps (" << job.num_ps
         << ", " << job.num_workers << ", " << job.steps_done << ")";
      Report(now_s, "state", os.str());
    }
    if (job.state == JobState::kRunning &&
        ((job.comm != CommMode::kAllReduce && job.num_ps <= 0) ||
         job.num_workers <= 0)) {
      std::ostringstream os;
      os << "job " << job.job_id << " is running with allocation (" << job.num_ps
         << ", " << job.num_workers << ")";
      Report(now_s, "state", os.str());
    }
    if ((job.state == JobState::kPaused || job.state == JobState::kPending) &&
        (job.num_ps != 0 || job.num_workers != 0)) {
      std::ostringstream os;
      os << "job " << job.job_id << " is " << JobStateName(job.state)
         << " but holds allocation (" << job.num_ps << ", " << job.num_workers
         << ")";
      Report(now_s, "state", os.str());
    }

    // Progress monotonicity (modulo announced rollbacks).
    SlotState& st = Slot(job.slot);
    if (st.has_last && job.steps_done < st.last_steps - kEps && !st.rollback_ok) {
      std::ostringstream os;
      os << "job " << job.job_id << " progress went backwards without a "
         << "rollback: " << st.last_steps << " -> " << job.steps_done << " steps";
      Report(now_s, "progress", os.str());
    }
    st.last_steps = job.steps_done;
    st.has_last = true;
  }
  return census;
}

void InvariantAuditor::CheckAccounting(double now_s, const Census& census,
                                       const Counts& counts) {
  // Accounting identity over submitted jobs. Retired jobs (streaming
  // admission freed their runtime records after completion) are absent from
  // the views, so they enter both identities through the counts.
  if (census.running + census.paused + census.pending + census.completed +
          counts.retired !=
      counts.submitted) {
    std::ostringstream os;
    os << "job census " << census.running << "+" << census.paused << "+"
       << census.pending << "+" << census.completed << "+" << counts.retired
       << " retired != " << counts.submitted << " submitted";
    Report(now_s, "accounting", os.str());
  }
  if (census.completed + counts.retired != counts.completed_metric) {
    std::ostringstream os;
    os << "metrics report " << counts.completed_metric << " completed, census "
       << "says " << census.completed << " + " << counts.retired << " retired";
    Report(now_s, "accounting", os.str());
  }
}

void InvariantAuditor::Check(double now_s, const std::vector<Server>& servers,
                             const std::vector<JobView>& jobs,
                             const Counts& counts) {
  ++checks_run_;
  const size_t n_servers = servers.size();
  std::vector<Resources> placed_load(n_servers);
  std::vector<int> placed_tasks(n_servers, 0);

  const Census census = CheckJobScalars(now_s, jobs);
  for (const JobView& job : jobs) {
    // Accumulate per-server load from the placement of running jobs (only
    // running jobs hold cluster resources between intervals).
    if (job.state != JobState::kRunning || job.placement == nullptr ||
        job.placement->empty()) {
      continue;
    }
    const JobPlacement& placement = *job.placement;
    if (placement.used_workers.size() != placement.used_servers.size() ||
        placement.used_ps.size() != placement.used_servers.size()) {
      std::ostringstream os;
      os << "job " << job.job_id << " placement sized "
         << placement.used_servers.size() << "/" << placement.used_workers.size()
         << "/" << placement.used_ps.size();
      Report(now_s, "capacity", os.str());
      continue;
    }
    int placed_w = 0;
    int placed_p = 0;
    placement.ForEachUsed([&](size_t s, int w, int p) {
      if (s >= n_servers) {
        std::ostringstream os;
        os << "job " << job.job_id << " places tasks on server " << s
           << " outside the " << n_servers << "-server cluster";
        Report(now_s, "capacity", os.str());
        return;
      }
      if (w < 0 || p < 0) {
        std::ostringstream os;
        os << "job " << job.job_id << " has negative task count on server " << s;
        Report(now_s, "capacity", os.str());
        return;
      }
      placed_w += w;
      placed_p += p;
      placed_load[s] += job.worker_demand * w + job.ps_demand * p;
      placed_tasks[s] += w + p;
      if ((w > 0 || p > 0) && !servers[s].available()) {
        std::ostringstream os;
        os << "job " << job.job_id << " has " << w << " worker(s) and " << p
           << " ps on dead server " << servers[s].id();
        Report(now_s, "dead-server", os.str());
      }
    });
    if (placed_w != job.num_workers || placed_p != job.num_ps) {
      std::ostringstream os;
      os << "job " << job.job_id << " placement totals (" << placed_p << ", "
         << placed_w << ") != allocation (" << job.num_ps << ", "
         << job.num_workers << ")";
      Report(now_s, "capacity", os.str());
    }
  }

  // Capacity conservation: the sum of placed demands on each server must fit
  // within its physical capacity (equivalently, free stays non-negative).
  for (size_t s = 0; s < n_servers; ++s) {
    if (placed_tasks[s] == 0) {
      continue;
    }
    if (!servers[s].capacity().Fits(placed_load[s])) {
      std::ostringstream os;
      os << "server " << servers[s].id() << " overcommitted: placed "
         << placed_load[s].ToString() << " on capacity "
         << servers[s].capacity().ToString();
      Report(now_s, "capacity", os.str());
    }
  }

  CheckAccounting(now_s, census, counts);

  ClearRollbacks();
}

void InvariantAuditor::SetClusterSize(size_t n_servers) {
  occupants_.resize(n_servers);
  dirty_.resize(n_servers, 0);
}

void InvariantAuditor::MarkDirty(int server) {
  char& flag = dirty_[static_cast<size_t>(server)];
  if (flag == 0) {
    flag = 1;
    dirty_servers_.push_back(server);
  }
}

void InvariantAuditor::SetPlacement(int slot, int job_id,
                                    const Resources& worker_demand,
                                    const Resources& ps_demand,
                                    const JobPlacement& placement) {
  if (const TrackedJob* tracked = Tracked(slot);
      tracked != nullptr && tracked->job_id == job_id &&
      tracked->worker_demand == worker_demand &&
      tracked->ps_demand == ps_demand &&
      tracked->tasks.size() == placement.used_servers.size()) {
    // The common round: the job keeps its placement. Compare in place and
    // leave every structure (and the servers' dirty flags) untouched.
    bool same = true;
    for (size_t i = 0; same && i < tracked->tasks.size(); ++i) {
      const TrackedTask& task = tracked->tasks[i];
      same = task.server == placement.used_servers[i] &&
             task.workers == placement.used_workers[i] &&
             task.ps == placement.used_ps[i];
    }
    if (same) {
      return;
    }
  }
  ClearPlacement(slot);
  if (placement.empty()) {
    return;
  }
  int idx;
  if (!free_tracked_.empty()) {
    idx = free_tracked_.back();
    free_tracked_.pop_back();
  } else {
    idx = static_cast<int>(tracked_.size());
    tracked_.emplace_back();
  }
  Slot(slot).tracked = idx;
  TrackedJob& tracked = tracked_[static_cast<size_t>(idx)];
  tracked.job_id = job_id;
  tracked.worker_demand = worker_demand;
  tracked.ps_demand = ps_demand;
  tracked.num_workers = 0;
  tracked.num_ps = 0;
  placement.ForEachUsed([&](size_t s, int w, int p) {
    OPTIMUS_CHECK_LT(s, occupants_.size())
        << "SetClusterSize was not called (or placement outgrew the cluster)";
    tracked.tasks.push_back({static_cast<int>(s), w, p});
    tracked.num_workers += w;
    tracked.num_ps += p;
    std::vector<Occupant>& on_server = occupants_[s];
    const auto pos = std::lower_bound(
        on_server.begin(), on_server.end(), job_id,
        [](const Occupant& o, int id) { return o.job_id < id; });
    on_server.insert(pos, {job_id, slot, w, p});
    MarkDirty(static_cast<int>(s));
  });
}

void InvariantAuditor::ClearPlacement(int slot) {
  if (Tracked(slot) == nullptr) {
    return;
  }
  SlotState& st = slots_[static_cast<size_t>(slot)];
  TrackedJob& tracked = tracked_[static_cast<size_t>(st.tracked)];
  for (const TrackedTask& task : tracked.tasks) {
    std::vector<Occupant>& on_server = occupants_[static_cast<size_t>(task.server)];
    const auto pos = std::lower_bound(
        on_server.begin(), on_server.end(), tracked.job_id,
        [](const Occupant& o, int id) { return o.job_id < id; });
    OPTIMUS_CHECK(pos != on_server.end() && pos->job_id == tracked.job_id);
    on_server.erase(pos);
    MarkDirty(task.server);
  }
  tracked.tasks.clear();  // keeps its capacity for the next pool user
  free_tracked_.push_back(st.tracked);
  st.tracked = -1;
}

Resources InvariantAuditor::DeriveServerLoad(size_t s) const {
  Resources load;
  for (const Occupant& o : occupants_[s]) {
    const TrackedJob* tracked = Tracked(o.slot);
    OPTIMUS_CHECK(tracked != nullptr);
    load += tracked->worker_demand * o.workers + tracked->ps_demand * o.ps;
  }
  return load;
}

void InvariantAuditor::CheckIncremental(double now_s,
                                        const std::vector<Server>& servers,
                                        const std::vector<int>& down_servers,
                                        const std::vector<JobView>& jobs,
                                        const Counts& counts) {
  ++checks_run_;
  const Census census = CheckJobScalars(now_s, jobs);

  // Per-job placement totals vs. allocation, via the tracker (O(1) per job).
  for (const JobView& job : jobs) {
    if (job.state != JobState::kRunning || job.placement == nullptr ||
        job.placement->empty()) {
      continue;
    }
    const TrackedJob* tracked = Tracked(job.slot);
    if (tracked == nullptr) {
      std::ostringstream os;
      os << "running job " << job.job_id << " has a placement but no tracked "
         << "contribution";
      Report(now_s, "capacity", os.str());
      continue;
    }
    if (tracked->num_workers != job.num_workers || tracked->num_ps != job.num_ps) {
      std::ostringstream os;
      os << "job " << job.job_id << " placement totals (" << tracked->num_ps
         << ", " << tracked->num_workers << ") != allocation (" << job.num_ps
         << ", " << job.num_workers << ")";
      Report(now_s, "capacity", os.str());
    }
  }

  // Dead-server: no down server may be occupied.
  for (const int s : down_servers) {
    if (static_cast<size_t>(s) >= occupants_.size()) {
      continue;  // outside the tracked cluster: nothing placed there
    }
    for (const Occupant& o : occupants_[static_cast<size_t>(s)]) {
      std::ostringstream os;
      os << "job " << o.job_id << " has " << o.workers << " worker(s) and "
         << o.ps << " ps on dead server " << servers[static_cast<size_t>(s)].id();
      Report(now_s, "dead-server", os.str());
    }
  }

  // Capacity conservation on servers whose occupancy changed since the last
  // check — unchanged servers were already verified and cannot have regressed.
  std::sort(dirty_servers_.begin(), dirty_servers_.end());
  servers_rederived_ = 0;
  for (const int s : dirty_servers_) {
    const size_t idx = static_cast<size_t>(s);
    dirty_[idx] = 0;
    if (occupants_[idx].empty()) {
      continue;
    }
    ++servers_rederived_;
    const Resources load = DeriveServerLoad(idx);
    if (!servers[idx].capacity().Fits(load)) {
      std::ostringstream os;
      os << "server " << servers[idx].id() << " overcommitted: placed "
         << load.ToString() << " on capacity " << servers[idx].capacity().ToString();
      Report(now_s, "capacity", os.str());
    }
  }
  dirty_servers_.clear();

  CheckAccounting(now_s, census, counts);

  ClearRollbacks();
}

void InvariantAuditor::CheckTrackerAgainstViews(double now_s,
                                                const std::vector<JobView>& jobs) {
  size_t tracked_seen = 0;
  for (const JobView& job : jobs) {
    const bool should_track = job.state == JobState::kRunning &&
                              job.placement != nullptr && !job.placement->empty();
    const TrackedJob* tracked = Tracked(job.slot);
    if (!should_track) {
      if (tracked != nullptr) {
        std::ostringstream os;
        os << "tracker holds a placement for job " << job.job_id
           << " which is not running";
        Report(now_s, "audit-divergence", os.str());
        ++tracked_seen;
      }
      continue;
    }
    if (tracked == nullptr) {
      std::ostringstream os;
      os << "tracker is missing running job " << job.job_id;
      Report(now_s, "audit-divergence", os.str());
      continue;
    }
    ++tracked_seen;
    // Re-derive the expected contribution from the view and compare.
    std::vector<TrackedTask> expected;
    job.placement->ForEachUsed([&](size_t s, int w, int p) {
      expected.push_back({static_cast<int>(s), w, p});
    });
    bool same = expected.size() == tracked->tasks.size() &&
                tracked->job_id == job.job_id &&
                tracked->worker_demand == job.worker_demand &&
                tracked->ps_demand == job.ps_demand;
    for (size_t i = 0; same && i < expected.size(); ++i) {
      same = expected[i].server == tracked->tasks[i].server &&
             expected[i].workers == tracked->tasks[i].workers &&
             expected[i].ps == tracked->tasks[i].ps;
    }
    if (!same) {
      std::ostringstream os;
      os << "tracker diverges from the true placement of job " << job.job_id;
      Report(now_s, "audit-divergence", os.str());
    }
  }
  const size_t tracked_count = tracked_.size() - free_tracked_.size();
  if (tracked_seen != tracked_count) {
    std::ostringstream os;
    os << "tracker holds " << tracked_count << " job(s), views cover "
       << tracked_seen;
    Report(now_s, "audit-divergence", os.str());
  }
}

std::string InvariantAuditor::Summary(size_t max_items) const {
  std::ostringstream os;
  os << violations_.size() << " violation(s)";
  const size_t n = std::min(max_items, violations_.size());
  for (size_t i = 0; i < n; ++i) {
    const AuditViolation& v = violations_[i];
    os << "; [t=" << v.time_s << " " << v.invariant << "] " << v.detail;
  }
  if (violations_.size() > n) {
    os << "; ...";
  }
  return os.str();
}

}  // namespace optimus
