// Incremental-auditor tests: the O(changed) check must enforce the same
// invariants as the full re-derivation, the tracker cross-check must catch
// corrupted incremental state that the cheap path cannot see, re-placing a
// job unchanged must cost nothing, and the audit cadence must never perturb
// the simulation itself.

#include <algorithm>
#include <climits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/sim/fault_injector.h"
#include "src/sim/invariant_auditor.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"

namespace optimus {
namespace {

struct Fixture {
  std::vector<Server> servers;
  JobPlacement placement;
  InvariantAuditor::JobView view;
  InvariantAuditor::Counts counts;

  Fixture() {
    servers.push_back(Server(0, Resources(16, 64, 0, 1)));
    servers.push_back(Server(1, Resources(16, 64, 0, 1)));
    placement.Add(0, 2, 1);
    view.job_id = 0;
    view.state = JobState::kRunning;
    view.steps_done = 10.0;
    view.num_ps = 1;
    view.num_workers = 2;
    view.worker_demand = Resources(2.5, 10, 0, 0.15);
    view.ps_demand = Resources(2.5, 10, 0, 0.15);
    view.placement = &placement;
    counts.submitted = 1;
    counts.completed_metric = 0;
  }

  // Registers the fixture's job with the tracker, as the simulator does at
  // decision-application time.
  void Track(InvariantAuditor* auditor) const {
    auditor->SetClusterSize(servers.size());
    auditor->SetPlacement(view.slot, view.job_id, view.worker_demand,
                          view.ps_demand, placement);
  }

  // Ascending indices of the unavailable servers, as the simulator keeps
  // them for CheckIncremental.
  std::vector<int> Down() const { return DownServers(servers); }

  static std::vector<int> DownServers(const std::vector<Server>& servers) {
    std::vector<int> down;
    for (size_t s = 0; s < servers.size(); ++s) {
      if (!servers[s].available()) {
        down.push_back(static_cast<int>(s));
      }
    }
    return down;
  }
};

TEST(IncrementalAuditorTest, ConsistentStatePassesBothModes) {
  Fixture f;
  InvariantAuditor auditor;
  f.Track(&auditor);
  auditor.CheckIncremental(600.0, f.servers, f.Down(), {f.view}, f.counts);
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  EXPECT_EQ(auditor.checks_run(), 1);
  // Periodic full pass with tracker cross-check: still clean, and the
  // cross-check does not count as an extra check.
  auditor.Check(1200.0, f.servers, {f.view}, f.counts);
  auditor.CheckTrackerAgainstViews(1200.0, {f.view});
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  EXPECT_EQ(auditor.checks_run(), 2);
}

TEST(IncrementalAuditorTest, CatchesDeadServerIncrementally) {
  Fixture f;
  InvariantAuditor auditor;
  f.Track(&auditor);
  f.servers[0].SetAvailable(false);
  auditor.CheckIncremental(600.0, f.servers, f.Down(), {f.view}, f.counts);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].invariant, "dead-server");
}

TEST(IncrementalAuditorTest, CatchesOvercommitIncrementally) {
  Fixture f;
  // 8 workers at 10 GB each overflow the server's 64 GB.
  f.placement.used_workers[0] = 8;
  f.view.num_workers = 8;
  InvariantAuditor auditor;
  f.Track(&auditor);
  auditor.CheckIncremental(600.0, f.servers, f.Down(), {f.view}, f.counts);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].invariant, "capacity");
}

TEST(IncrementalAuditorTest, CatchesAllocationTotalsMismatchIncrementally) {
  Fixture f;
  InvariantAuditor auditor;
  f.Track(&auditor);
  f.view.num_workers = 3;  // allocation says 3, tracked placement holds 2
  auditor.CheckIncremental(600.0, f.servers, f.Down(), {f.view}, f.counts);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].invariant, "capacity");
}

TEST(IncrementalAuditorTest, OnlyDirtyServersAreRecheckedForCapacity) {
  Fixture f;
  InvariantAuditor auditor;
  f.Track(&auditor);
  auditor.CheckIncremental(600.0, f.servers, f.Down(), {f.view}, f.counts);
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  // No occupancy change since the last check: a second incremental pass is
  // clean too (and exercises the empty-dirty-set path).
  auditor.CheckIncremental(1200.0, f.servers, f.Down(), {f.view}, f.counts);
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  EXPECT_EQ(auditor.checks_run(), 2);
}

TEST(IncrementalAuditorTest, FullCrossCheckCatchesCorruptedTracker) {
  Fixture f;
  InvariantAuditor auditor;
  auditor.SetClusterSize(f.servers.size());
  // Corrupt the incremental state: track a placement with the same totals as
  // the truth but different servers. The cheap incremental check only
  // compares totals, so it passes...
  JobPlacement corrupted;
  corrupted.Add(0, 1, 0);
  corrupted.Add(1, 1, 1);
  auditor.SetPlacement(f.view.slot, f.view.job_id, f.view.worker_demand,
                       f.view.ps_demand, corrupted);
  auditor.CheckIncremental(600.0, f.servers, f.Down(), {f.view}, f.counts);
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  // ...which is exactly why the periodic full re-derivation cross-checks the
  // tracker against the true views and flags the drift.
  auditor.CheckTrackerAgainstViews(1200.0, {f.view});
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].invariant, "audit-divergence");
}

TEST(IncrementalAuditorTest, CrossCheckCatchesStaleTrackerEntry) {
  Fixture f;
  InvariantAuditor auditor;
  f.Track(&auditor);
  // The job pauses and releases everything, but the tracker is (wrongly) not
  // cleared — the cross-check must notice the stale contribution.
  f.view.state = JobState::kPaused;
  f.view.num_ps = 0;
  f.view.num_workers = 0;
  f.view.placement = nullptr;
  auditor.CheckTrackerAgainstViews(600.0, {f.view});
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].invariant, "audit-divergence");
}

TEST(IncrementalAuditorTest, ClearPlacementRemovesContribution) {
  Fixture f;
  InvariantAuditor auditor;
  f.Track(&auditor);
  auditor.ClearPlacement(f.view.slot);
  f.view.state = JobState::kPaused;
  f.view.num_ps = 0;
  f.view.num_workers = 0;
  f.view.placement = nullptr;
  auditor.CheckIncremental(600.0, f.servers, f.Down(), {f.view}, f.counts);
  auditor.CheckTrackerAgainstViews(600.0, {f.view});
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
}

TEST(IncrementalAuditorTest, UnchangedReplacementRederivesNothing) {
  // Three jobs with sparse ids (one at INT_MAX) on six servers.
  std::vector<Server> servers;
  for (int s = 0; s < 6; ++s) {
    servers.push_back(Server(s, Resources(16, 64, 0, 1)));
  }
  const Resources demand(2, 8, 0, 0.25);
  const int ids[3] = {INT_MAX, 7, 1000000000};
  std::vector<JobPlacement> placements(3);
  placements[0].Add(0, 1, 1);
  placements[0].Add(1, 1, 0);
  placements[1].Add(1, 2, 1);
  placements[2].Add(3, 1, 1);
  placements[2].Add(4, 1, 0);
  std::vector<InvariantAuditor::JobView> views(3);
  for (int j = 0; j < 3; ++j) {
    views[j].slot = j;
    views[j].job_id = ids[j];
    views[j].state = JobState::kRunning;
    views[j].num_ps = placements[j].TotalPs();
    views[j].num_workers = placements[j].TotalWorkers();
    views[j].worker_demand = demand;
    views[j].ps_demand = demand;
    views[j].placement = &placements[j];
  }
  InvariantAuditor::Counts counts;
  counts.submitted = 3;

  InvariantAuditor auditor;
  auditor.SetClusterSize(servers.size());
  auto place_all = [&] {
    for (int j = 0; j < 3; ++j) {
      auditor.SetPlacement(j, ids[j], demand, demand, placements[j]);
    }
  };
  place_all();
  auditor.CheckIncremental(600.0, servers, {}, views, counts);
  EXPECT_EQ(auditor.servers_rederived(), 4);  // servers 0, 1, 3 and 4
  // The simulator re-places every job every round; when nothing moved, the
  // next check re-derives no server at all.
  place_all();
  auditor.CheckIncremental(1200.0, servers, {}, views, counts);
  EXPECT_EQ(auditor.servers_rederived(), 0);

  // A real move of the INT_MAX job from {0, 1} to {1, 2} re-derives exactly
  // the servers it touched: 0 is left empty (nothing to sum), 1 and 2 are
  // re-summed. The other jobs' servers stay untouched.
  placements[0] = JobPlacement();
  placements[0].Add(1, 1, 0);
  placements[0].Add(2, 1, 1);
  place_all();
  auditor.CheckIncremental(1800.0, servers, {}, views, counts);
  EXPECT_EQ(auditor.servers_rederived(), 2);
  // A changed demand is a real change too, on the same servers.
  auditor.SetPlacement(1, ids[1], Resources(1, 8, 0, 0.25), demand, placements[1]);
  views[1].worker_demand = Resources(1, 8, 0, 0.25);
  auditor.CheckIncremental(2400.0, servers, {}, views, counts);
  EXPECT_EQ(auditor.servers_rederived(), 1);
  auditor.Check(3000.0, servers, views, counts);
  auditor.CheckTrackerAgainstViews(3000.0, views);
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
}

// ---------------------------------------------------------------------------
// Randomized differential test: one auditor driven only through the tracker
// deltas (as the simulator drives it) and checked incrementally, one checked
// by full re-derivation, over random placements, moves, pauses, completions,
// retirements, rollbacks, server outages and injected faults. Every step both
// must report the same violations — except that the incremental check
// re-sums only servers whose occupancy changed, so an overcommit on a server
// nobody touched is reported by the full check alone.
// ---------------------------------------------------------------------------

struct SimJob {
  int id = 0;
  JobState state = JobState::kPending;
  double steps = 0.0;
  int num_ps = 0;
  int num_workers = 0;
  Resources worker_demand;
  Resources ps_demand;
  JobPlacement placement;
  bool retired = false;
};

std::vector<std::string> Sorted(const std::vector<AuditViolation>& all, size_t from) {
  std::vector<std::string> out;
  for (size_t i = from; i < all.size(); ++i) {
    out.push_back(all[i].invariant + ": " + all[i].detail);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(IncrementalAuditorTest, RandomizedDifferentialAgainstFullCheck) {
  constexpr int kServers = 10;
  constexpr int kSteps = 400;
  Rng rng(20261020);
  std::vector<Server> servers;
  for (int s = 0; s < kServers; ++s) {
    servers.push_back(Server(s, Resources(8, 32, 0, 2)));
  }
  // Demands are multiples of 1/4, so per-server sums are exact in any order.
  const Resources demands[3] = {Resources(2, 8, 0, 0.5), Resources(1, 4, 0, 0.25),
                                Resources(3, 6, 0, 0.75)};
  // Sparse ids, several near INT_MAX, far from the dense slots.
  std::vector<int> free_ids = {INT_MAX,     INT_MAX - 1, INT_MAX - 7, 0,
                               1,           1000000000,  123456789,   65536,
                               2000000000,  42,          INT_MAX - 100000};
  while (free_ids.size() < 60) {
    const int id = static_cast<int>(rng.UniformInt(0, INT_MAX));
    if (std::find(free_ids.begin(), free_ids.end(), id) == free_ids.end()) {
      free_ids.push_back(id);
    }
  }
  std::vector<SimJob> jobs;
  InvariantAuditor incremental;
  InvariantAuditor full;
  incremental.SetClusterSize(servers.size());
  int retired = 0;
  int completed = 0;
  std::set<int> touched;  // servers whose occupancy changed since last check

  auto random_placement = [&](SimJob* job) {
    job->placement = JobPlacement();
    const int first = static_cast<int>(rng.UniformInt(0, kServers - 1));
    const int span = static_cast<int>(rng.UniformInt(1, 3));
    for (int s = first; s < std::min(kServers, first + span); ++s) {
      job->placement.Add(s, static_cast<int>(rng.UniformInt(1, 3)),
                         static_cast<int>(rng.UniformInt(0, 1)));
    }
    job->num_workers = job->placement.TotalWorkers();
    job->num_ps = job->placement.TotalPs();
  };
  auto touch = [&](const JobPlacement& placement) {
    for (const int s : placement.used_servers) {
      touched.insert(s);
    }
  };

  int64_t unchanged_replacements = 0;
  for (int step = 0; step < kSteps; ++step) {
    const double now = 600.0 * (step + 1);
    // Arrivals: a new slot with a sparse id.
    if (!free_ids.empty() && rng.Bernoulli(0.2)) {
      SimJob job;
      job.id = free_ids.back();
      free_ids.pop_back();
      job.worker_demand = demands[rng.UniformInt(0, 2)];
      job.ps_demand = demands[rng.UniformInt(0, 2)];
      jobs.push_back(job);
    }
    for (size_t slot = 0; slot < jobs.size(); ++slot) {
      SimJob& job = jobs[slot];
      const int sl = static_cast<int>(slot);
      if (job.state == JobState::kCompleted) {
        if (!job.retired && rng.Bernoulli(0.3)) {
          job.retired = true;
          ++retired;
          incremental.NoteRetired(sl);
          full.NoteRetired(sl);
        }
        continue;
      }
      const double roll = rng.Uniform(0.0, 1.0);
      if (roll < 0.45) {
        // Keep: a running job is re-placed exactly as it is, every round.
        if (job.state == JobState::kRunning) {
          incremental.SetPlacement(sl, job.id, job.worker_demand, job.ps_demand,
                                   job.placement);
          ++unchanged_replacements;
        }
      } else if (roll < 0.7) {
        // (Re)place or move.
        touch(job.placement);
        random_placement(&job);
        touch(job.placement);
        job.state = JobState::kRunning;
        incremental.SetPlacement(sl, job.id, job.worker_demand, job.ps_demand,
                                 job.placement);
      } else if (roll < 0.8 && job.state == JobState::kRunning) {
        // Pause.
        touch(job.placement);
        job.placement = JobPlacement();
        job.num_ps = job.num_workers = 0;
        job.state = JobState::kPaused;
        incremental.ClearPlacement(sl);
      } else if (roll < 0.82) {
        // Complete (a running or a pending job).
        touch(job.placement);
        job.placement = JobPlacement();
        job.num_ps = job.num_workers = 0;
        job.state = JobState::kCompleted;
        ++completed;
        incremental.ClearPlacement(sl);
      } else if (roll < 0.9 && job.steps > 0.0) {
        // Announced checkpoint rollback.
        job.steps = std::max(0.0, job.steps - rng.Uniform(1.0, 50.0));
        incremental.NoteRollback(sl);
        full.NoteRollback(sl);
      } else if (roll < 0.92 && job.steps > 0.0) {
        // Silent progress loss: a violation for both.
        job.steps = std::max(0.0, job.steps - rng.Uniform(1.0, 50.0));
      }
      if (job.state == JobState::kRunning) {
        job.steps += rng.Uniform(0.0, 20.0);
      }
    }
    // Server outages and recoveries.
    if (rng.Bernoulli(0.1)) {
      Server& server = servers[rng.UniformInt(0, kServers - 1)];
      server.SetAvailable(!server.available());
    }

    std::vector<InvariantAuditor::JobView> views;
    for (size_t slot = 0; slot < jobs.size(); ++slot) {
      const SimJob& job = jobs[slot];
      if (job.retired) {
        continue;
      }
      InvariantAuditor::JobView view;
      view.slot = static_cast<int>(slot);
      view.job_id = job.id;
      view.state = job.state;
      view.steps_done = job.steps;
      view.num_ps = job.num_ps;
      view.num_workers = job.num_workers;
      view.worker_demand = job.worker_demand;
      view.ps_demand = job.ps_demand;
      view.placement = &job.placement;
      views.push_back(view);
    }
    // An injected allocation/placement mismatch, now and then.
    if (!views.empty() && rng.Bernoulli(0.05)) {
      InvariantAuditor::JobView& v = views[rng.UniformInt(0, views.size() - 1)];
      if (v.state == JobState::kRunning) {
        ++v.num_workers;
      }
    }
    InvariantAuditor::Counts counts;
    counts.submitted = static_cast<int>(jobs.size());
    counts.completed_metric = completed;
    counts.retired = retired;

    const size_t inc_before = incremental.violations().size();
    const size_t full_before = full.violations().size();
    incremental.CheckIncremental(now, servers, Fixture::DownServers(servers),
                                 views, counts);
    full.Check(now, servers, views, counts);

    // The servers the incremental check re-derives are exactly the touched
    // ones that are still occupied.
    std::set<int> occupied;
    for (const SimJob& job : jobs) {
      for (const int s : job.placement.used_servers) {
        occupied.insert(s);
      }
    }
    int64_t expected_rederived = 0;
    for (const int s : touched) {
      expected_rederived += occupied.count(s);
    }
    EXPECT_EQ(incremental.servers_rederived(), expected_rederived) << "step " << step;

    std::vector<std::string> want;
    for (const std::string& v : Sorted(full.violations(), full_before)) {
      const std::string prefix = "capacity: server ";
      if (v.rfind(prefix, 0) == 0) {
        const int server = std::stoi(v.substr(prefix.size()));
        if (touched.count(server) == 0) {
          continue;  // unchanged overcommitted server: already reported
        }
      }
      want.push_back(v);
    }
    EXPECT_EQ(Sorted(incremental.violations(), inc_before), want) << "step " << step;
    touched.clear();

    // The tracker never drifts from the truth.
    const size_t before_cross = incremental.violations().size();
    incremental.CheckTrackerAgainstViews(now, views);
    EXPECT_EQ(incremental.violations().size(), before_cross)
        << incremental.violations().back().detail;
  }
  // The run exercised what it claims to.
  EXPECT_GT(unchanged_replacements, 100);
  EXPECT_GT(retired, 0);
  bool saw[4] = {false, false, false, false};
  for (const AuditViolation& v : full.violations()) {
    saw[0] = saw[0] || v.invariant == "dead-server";
    saw[1] = saw[1] || v.invariant == "progress";
    saw[2] = saw[2] || v.detail.find("overcommitted") != std::string::npos;
    saw[3] = saw[3] || v.detail.find("!= allocation") != std::string::npos;
  }
  EXPECT_TRUE(saw[0] && saw[1] && saw[2] && saw[3]);
}

// ---------------------------------------------------------------------------
// Simulator-level equivalence: the O(changed) cadence and a full
// re-derivation (plus tracker cross-check) every interval must observe the
// identical simulation (auditing is read-only) and both find a healthy
// faulted run clean.
// ---------------------------------------------------------------------------

RunMetrics RunFaultedSimulator(SimEngine engine, int full_audit_period) {
  SimulatorConfig sim;
  sim.seed = 11;
  sim.engine = engine;
  sim.max_sim_time_s = 2e5;
  sim.audit = true;
  sim.full_audit_period = full_audit_period;
  std::string error;
  EXPECT_TRUE(ParseFaultPlan(
      "crash@1800:server=2,recover=9000;slow@2400:factor=0.7,duration=1800",
      &sim.fault.plan, &error))
      << error;
  sim.fault.task_failure_prob = 0.03;
  sim.fault.checkpoint_period_s = 1800.0;

  WorkloadConfig workload;
  workload.num_jobs = 8;
  workload.arrival_window_s = 1200.0;

  Rng workload_rng(sim.seed ^ 0x5eedULL);
  std::vector<JobSpec> specs = GenerateWorkload(workload, &workload_rng);
  Simulator simulator(sim, BuildTestbed(), std::move(specs));
  return simulator.Run();
}

TEST(IncrementalAuditorTest, SimulationIsIdenticalUnderAllAuditModes) {
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    // Every check a full re-derivation plus a tracker-divergence pass (the
    // strictest mode) vs. the default cadence and a sparser one.
    const RunMetrics full = RunFaultedSimulator(engine, 1);
    const RunMetrics incremental = RunFaultedSimulator(engine, 16);
    const RunMetrics sparse = RunFaultedSimulator(engine, 1000);

    for (const RunMetrics* m : {&full, &incremental, &sparse}) {
      EXPECT_GT(m->audit_checks, 0);
      EXPECT_EQ(m->audit_violations, 0);
      EXPECT_GT(m->job_evictions, 0);  // the crash hit a placed job
    }
    for (const RunMetrics* m : {&incremental, &sparse}) {
      EXPECT_EQ(full.completed_jobs, m->completed_jobs);
      EXPECT_EQ(full.avg_jct_s, m->avg_jct_s);          // bitwise
      EXPECT_EQ(full.makespan_s, m->makespan_s);        // bitwise
      EXPECT_EQ(full.rolled_back_steps, m->rolled_back_steps);
      EXPECT_EQ(full.job_evictions, m->job_evictions);
      EXPECT_EQ(full.task_failures, m->task_failures);
      EXPECT_EQ(full.audit_checks, m->audit_checks);
    }
  }
}

}  // namespace
}  // namespace optimus
