// Run invariance: a run's outputs — full metrics, event-trace digest and
// audit results — must be bitwise identical for every thread count on each
// engine, and streaming admission and the hash-only trace must match their
// batch / storage counterparts, on the golden scenarios (including the
// committed fault plans).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"
#include "src/workload/scenario.h"

namespace optimus {
namespace {

std::string ScenarioPath(const std::string& name) {
  return std::string(OPTIMUS_SOURCE_DIR) + "/scenarios/" + name;
}

// Everything a run computes, for bitwise comparison across configurations.
struct RunOutputs {
  RunMetrics metrics;
  uint64_t trace_digest = 0;
  size_t trace_records = 0;
  int64_t audit_checks = 0;
  int64_t audit_violations = 0;
};

RunOutputs RunScenario(const ScenarioSpec& scenario, int threads, SimEngine engine,
                       bool streaming = false, bool hash_only = false) {
  SimulatorConfig config = scenario.MakeSimConfig("optimus");
  config.threads = threads;
  config.engine = engine;
  config.streaming = streaming;
  config.trace_hash_only = hash_only;
  config.audit = true;
  Simulator sim(config, scenario.cluster.Build(), scenario.JobsForRepeat());
  RunOutputs out;
  out.metrics = sim.Run();
  out.trace_digest = sim.trace().digest();
  out.trace_records = sim.trace().size();
  out.audit_checks = out.metrics.audit_checks;
  out.audit_violations = out.metrics.audit_violations;
  return out;
}

void ExpectBitwiseEqual(const RunOutputs& a, const RunOutputs& b,
                        const std::string& label) {
  EXPECT_EQ(a.metrics.completed_jobs, b.metrics.completed_jobs) << label;
  EXPECT_EQ(a.metrics.jcts, b.metrics.jcts) << label;
  EXPECT_EQ(a.metrics.avg_jct_s, b.metrics.avg_jct_s) << label;
  EXPECT_EQ(a.metrics.makespan_s, b.metrics.makespan_s) << label;
  EXPECT_EQ(a.metrics.total_scalings, b.metrics.total_scalings) << label;
  EXPECT_EQ(a.metrics.straggler_replacements, b.metrics.straggler_replacements)
      << label;
  EXPECT_EQ(a.metrics.job_evictions, b.metrics.job_evictions) << label;
  EXPECT_EQ(a.metrics.task_failures, b.metrics.task_failures) << label;
  EXPECT_EQ(a.metrics.rolled_back_steps, b.metrics.rolled_back_steps) << label;
  EXPECT_EQ(a.metrics.events_processed, b.metrics.events_processed) << label;
  EXPECT_EQ(a.audit_violations, b.audit_violations) << label;
  EXPECT_EQ(a.trace_digest, b.trace_digest) << label;
  EXPECT_EQ(a.trace_records, b.trace_records) << label;
}

// ---------------------------------------------------------------------------
// End-to-end threads x engines invariance on the golden scenarios
// ---------------------------------------------------------------------------

class GoldenScenarioInvariance : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenScenarioInvariance, ThreadsAreBitwiseInvariantOnBothEngines) {
  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(ScenarioPath(GetParam()), &scenario, &error))
      << error;

  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    const RunOutputs reference = RunScenario(scenario, 1, engine);
    EXPECT_EQ(reference.audit_violations, 0);
    for (const int threads : {2, 4, 8}) {
      const RunOutputs run = RunScenario(scenario, threads, engine);
      ExpectBitwiseEqual(run, reference,
                         std::string(GetParam()) + " " + SimEngineName(engine) +
                             " threads=" + std::to_string(threads));
    }
  }
}

// The four golden scenarios; rack_outage carries the committed fault plan
// (a scripted rack outage + task failures).
INSTANTIATE_TEST_SUITE_P(Golden, GoldenScenarioInvariance,
                         ::testing::Values("fig11_testbed.json",
                                           "rack_outage.json",
                                           "poisson_hetero60.json",
                                           "diurnal_heavytail.json"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           return name.substr(0, name.find('.'));
                         });

// ---------------------------------------------------------------------------
// Streaming admission parity
// ---------------------------------------------------------------------------

TEST(StreamingAdmissionTest, BatchAndStreamingAreBitwiseIdentical) {
  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(ScenarioPath("rack_outage.json"), &scenario,
                               &error))
      << error;
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    const RunOutputs batch = RunScenario(scenario, 2, engine, /*streaming=*/false);
    const RunOutputs streaming = RunScenario(scenario, 2, engine, /*streaming=*/true);
    ExpectBitwiseEqual(streaming, batch,
                       std::string("streaming ") + SimEngineName(engine));
  }
}

TEST(StreamingAdmissionTest, RejectsUnsortedSpecsAndOnlineSubmit) {
  SimulatorConfig config;
  config.streaming = true;
  std::vector<Server> servers = BuildUniformCluster(4, Resources(16, 80, 0, 1));

  WorkloadConfig workload;
  workload.num_jobs = 4;
  Rng rng(3);
  std::vector<JobSpec> specs = GenerateWorkload(workload, &rng);
  ASSERT_EQ(specs.size(), 4u);
  std::swap(specs[0], specs[3]);  // break the arrival order
  EXPECT_DEATH(Simulator(config, servers, specs),
               "sorted by arrival");

  std::swap(specs[0], specs[3]);
  Simulator sim(config, servers, specs);
  std::string why;
  JobSpec late = specs[0];
  late.id = 99;
  late.arrival_time_s = 1e9;
  EXPECT_FALSE(sim.SubmitJob(late, &why));
  EXPECT_NE(why.find("streaming"), std::string::npos) << why;
}

TEST(StreamingAdmissionTest, RetiresCompletedJobsAndKeepsAccounting) {
  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(ScenarioPath("fig11_testbed.json"), &scenario,
                               &error))
      << error;
  SimulatorConfig config = scenario.MakeSimConfig("optimus");
  config.streaming = true;
  config.audit = true;
  Simulator sim(config, scenario.cluster.Build(), scenario.JobsForRepeat());
  const RunMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.audit_violations, 0);
  EXPECT_GT(metrics.completed_jobs, 0);
  // Completed jobs were retired: their runtime slots are gone but the
  // aggregate metrics still count them.
  EXPECT_EQ(static_cast<int>(metrics.jcts.size()), metrics.completed_jobs);
}

// ---------------------------------------------------------------------------
// Online arrivals out of slot order
// ---------------------------------------------------------------------------

// A job submitted online may arrive before constructor jobs that have not
// arrived yet (here: at the very instant one of them does), and a job killed
// before its arrival must never activate. Neither may perturb the run: it
// equals a batch construction holding the same specs (the online job last,
// where SubmitJob appends it) with the same kill at the same time.
TEST(OnlineArrivalOrderTest, EarlySubmitAndUnarrivedKillMatchBatch) {
  WorkloadConfig workload;
  workload.num_jobs = 12;
  workload.arrival_window_s = 6000.0;
  Rng rng(17);
  const std::vector<JobSpec> specs = GenerateWorkload(workload, &rng);
  constexpr double kSubmitAt = 1200.0;
  // Constructor jobs still unarrived at kSubmitAt, by arrival time.
  std::vector<JobSpec> later;
  for (const JobSpec& spec : specs) {
    if (spec.arrival_time_s > kSubmitAt) {
      later.push_back(spec);
    }
  }
  std::sort(later.begin(), later.end(), [](const JobSpec& a, const JobSpec& b) {
    return a.arrival_time_s < b.arrival_time_s;
  });
  ASSERT_GE(later.size(), 3u);
  JobSpec online = specs[0];
  online.id = 500;
  online.arrival_time_s = later[0].arrival_time_s;  // ties an earlier slot
  const int killed = later[1].id;

  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    SimulatorConfig config;
    config.seed = 23;
    config.engine = engine;
    config.audit = true;
    auto run = [&](bool submit_online) {
      std::vector<JobSpec> constructor = specs;
      if (!submit_online) {
        constructor.push_back(online);
      }
      Simulator sim(config, BuildTestbed(), constructor);
      sim.AdvanceTo(kSubmitAt);
      std::string error;
      if (submit_online) {
        EXPECT_TRUE(sim.SubmitJob(online, &error)) << error;
      }
      EXPECT_TRUE(sim.KillJob(killed, &error)) << error;
      RunOutputs out;
      out.metrics = sim.Run();
      out.trace_digest = sim.trace().digest();
      out.trace_records = sim.trace().size();
      out.audit_checks = out.metrics.audit_checks;
      out.audit_violations = out.metrics.audit_violations;
      // The killed job never arrived: no arrival event names it.
      for (const SimEvent& event : sim.trace().events()) {
        EXPECT_FALSE(event.type == SimEventType::kArrival && event.job_id == killed);
      }
      return out;
    };
    const RunOutputs batch = run(false);
    const RunOutputs session = run(true);
    EXPECT_EQ(batch.audit_violations, 0);
    EXPECT_EQ(batch.metrics.jobs_killed, 1);
    EXPECT_EQ(batch.metrics.total_jobs, 13);
    EXPECT_EQ(session.metrics.total_jobs, 13);
    EXPECT_EQ(batch.metrics.completed_jobs, 13);
    ExpectBitwiseEqual(session, batch,
                       std::string("online arrival ") + SimEngineName(engine));
  }
}

// ---------------------------------------------------------------------------
// Hash-only trace mode
// ---------------------------------------------------------------------------

TEST(TraceHashOnlyTest, DigestMatchesStorageMode) {
  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(ScenarioPath("rack_outage.json"), &scenario,
                               &error))
      << error;
  const RunOutputs stored = RunScenario(scenario, 1, SimEngine::kEvents,
                                        /*streaming=*/false, /*hash_only=*/false);
  const RunOutputs hashed = RunScenario(scenario, 1, SimEngine::kEvents,
                                        /*streaming=*/false, /*hash_only=*/true);
  EXPECT_EQ(stored.trace_digest, hashed.trace_digest);
  EXPECT_EQ(stored.trace_records, hashed.trace_records);
}

TEST(TraceHashOnlyTest, HashModeStoresNothing) {
  EventTrace trace;
  trace.set_hash_only(true);
  trace.Record(1.0, SimEventType::kArrival, 7);
  trace.RecordEpochs(2.0, SimEventType::kCompleted, 7, 1, 2, 11);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_TRUE(trace.events().empty());
  EXPECT_NE(trace.digest(), 14695981039346656037ULL);  // moved off the basis

  EventTrace stored;
  stored.Record(1.0, SimEventType::kArrival, 7);
  stored.RecordEpochs(2.0, SimEventType::kCompleted, 7, 1, 2, 11);
  EXPECT_EQ(stored.digest(), trace.digest());
  EXPECT_EQ(stored.events().size(), 2u);
}

}  // namespace
}  // namespace optimus
