// Golden-session and determinism tests for the online service mode.
//
// The service's core contract (docs/SERVICE.md): for a fixed request log the
// response stream is a pure function of (genesis scenario, request bytes) —
// no wall-clock values, no thread-count sensitivity, no engine-internal
// ordering leaks. These tests pin that contract four ways:
//
//   1. A committed golden session (tests/golden/serve/) replays byte for
//      byte across --threads {1, 2, 8}, including its error responses.
//   2. The events engine is exact across thread counts; interval vs events
//      agree on average JCT within the ALGORITHMS.md §16 tolerance.
//   3. snapshot/restore round-trips: a session restored from a snapshot
//      produces a bitwise-identical remainder-of-run.
//   4. Batch equivalence: a replayed session's final run report matches an
//      equivalent direct Simulator batch run, and chunked AdvanceTo stepping
//      lands on the same report as one uninterrupted Run().
//
// Regenerating the goldens after an INTENDED protocol/behavior change:
//
//   OPTIMUS_REGEN_GOLDEN=1 ./build/tests/service_replay_test
//
// then commit tests/golden/serve/*.ndjson with the change that moved them.

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json_writer.h"
#include "src/obs/exporters.h"
#include "src/service/replay.h"
#include "src/service/session.h"
#include "src/sim/simulator.h"
#include "src/workload/json.h"
#include "src/workload/scenario.h"

#ifndef OPTIMUS_SOURCE_DIR
#error "OPTIMUS_SOURCE_DIR must be defined to locate the golden files"
#endif

namespace optimus {
namespace {

constexpr char kGoldenDir[] = OPTIMUS_SOURCE_DIR "/tests/golden/serve";

std::string ScenarioPath() { return std::string(kGoldenDir) + "/scenario.json"; }
std::string RequestsPath() { return std::string(kGoldenDir) + "/basic.requests.ndjson"; }
std::string ResponsesPath() { return std::string(kGoldenDir) + "/basic.responses.ndjson"; }
std::string SmokePath() { return std::string(kGoldenDir) + "/smoke.requests.ndjson"; }

// The committed basic session: every op, both metric formats, a snapshot
// mid-stream, and three deliberately bad lines so the golden also pins the
// positioned-error response format.
const char kBasicRequests[] =
    R"({"op": "metrics_snapshot"})" "\n"
    R"({"op": "what_if", "model": "ResNet-50", "mode": "sync"})" "\n"
    R"({"op": "advance", "to_s": 900.0})" "\n"
    R"({"op": "submit", "model": "Seq2Seq", "job_id": 100, "arrival_s": 1200.0})" "\n"
    R"({"op": "what_if", "model": "Inception-BN", "max_workers": 4})" "\n"
    "# comments and blank lines are skipped, not answered\n"
    "\n"
    R"({"op": "advance", "dt_s": 600.0})" "\n"
    R"({"op": "submit", "model": "ResNet-50", "job_id": 101, "arrival_s": 2000.0, "mode": "async"})" "\n"
    R"({"op": "kill", "job_id": 100})" "\n"
    R"({"op": "snapshot"})" "\n"
    R"({"op": "metrics_snapshot", "format": "prom", "scope": "service"})" "\n"
    R"({"op": "submit", "model": "NoSuchNet"})" "\n"
    R"({"op": "bogus_op"})" "\n"
    R"({"op": "advance", "to_s": 1.0, "to_s": 2.0})" "\n"
    R"({"op": "run"})" "\n"
    R"({"op": "metrics_snapshot"})" "\n"
    R"({"op": "shutdown"})" "\n";

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing " << path
                         << " — run with OPTIMUS_REGEN_GOLDEN=1 to create it";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  ASSERT_TRUE(os.good()) << "cannot write " << path;
  os << content;
}

std::unique_ptr<ServiceSession> MakeSession(const SessionOverrides& overrides) {
  std::string error;
  std::unique_ptr<ServiceSession> session = ServiceSession::Create(
      ReadFileOrDie(ScenarioPath()), "scenario.json", overrides, &error);
  EXPECT_NE(session, nullptr) << error;
  return session;
}

struct ReplayOutput {
  std::string responses;
  ReplayResult result;
};

ReplayOutput Replay(ServiceSession* session, const std::string& log) {
  std::istringstream in(log);
  std::ostringstream out;
  ReplayOutput r;
  r.result = RunReplay(session, in, out);
  r.responses = out.str();
  return r;
}

// The deterministic final-state fingerprint: the full simulator run report
// (metrics, per-interval series, flight recorder) with profiling excluded.
std::string SimReport(Simulator* sim) {
  ExportOptions options;
  options.include_profiling = false;
  return ExportJsonReportString(sim->registry(), &sim->series(),
                                &sim->flight_recorder(), options);
}

TEST(ServiceReplayTest, GoldenSessionByteForByteAcrossThreads) {
  SessionOverrides overrides;
  overrides.threads = 1;
  std::unique_ptr<ServiceSession> session = MakeSession(overrides);
  ASSERT_NE(session, nullptr);
  const ReplayOutput base = Replay(session.get(), kBasicRequests);
  EXPECT_TRUE(base.result.shutdown);
  EXPECT_EQ(base.result.exit_code, 0);
  EXPECT_EQ(base.result.errors, 3);  // the three deliberately bad lines

  if (std::getenv("OPTIMUS_REGEN_GOLDEN") != nullptr) {
    WriteFileOrDie(RequestsPath(), kBasicRequests);
    WriteFileOrDie(ResponsesPath(), base.responses);
    GTEST_SKIP() << "regenerated " << RequestsPath() << " and "
                 << ResponsesPath();
  }

  // The committed request log is the embedded one (it is also what check.sh
  // and external replays consume), and the committed responses match.
  EXPECT_EQ(ReadFileOrDie(RequestsPath()), kBasicRequests)
      << "basic.requests.ndjson drifted from the test's embedded log; "
         "regenerate with OPTIMUS_REGEN_GOLDEN=1";
  EXPECT_EQ(base.responses, ReadFileOrDie(ResponsesPath()))
      << "responses drifted from the committed golden; if intended, "
         "regenerate with OPTIMUS_REGEN_GOLDEN=1 and commit";

  // Bitwise identity across thread counts — responses AND final report.
  const std::string base_report = SimReport(&session->simulator());
  for (const int threads : {2, 8}) {
    SessionOverrides t_overrides;
    t_overrides.threads = threads;
    std::unique_ptr<ServiceSession> t_session = MakeSession(t_overrides);
    ASSERT_NE(t_session, nullptr);
    const ReplayOutput out = Replay(t_session.get(), kBasicRequests);
    EXPECT_EQ(out.responses, base.responses) << "threads=" << threads;
    EXPECT_EQ(SimReport(&t_session->simulator()), base_report)
        << "threads=" << threads;
  }
}

TEST(ServiceReplayTest, SyntheticSmokeLogMatchesCommittedFixture) {
  // The 200-request smoke log CI pipes through the daemon: 198 generated
  // requests plus a metrics epilogue and shutdown. Committed so shell-level
  // smoke tests need no generator binary; this test keeps it in sync.
  std::ostringstream log;
  GenerateSyntheticRequests(198, /*seed=*/21, SyntheticMixOptions{}, log);
  log << R"({"op": "metrics_snapshot", "format": "prom", "scope": "service"})"
      << "\n"
      << R"({"op": "shutdown"})" << "\n";

  if (std::getenv("OPTIMUS_REGEN_GOLDEN") != nullptr) {
    WriteFileOrDie(SmokePath(), log.str());
    GTEST_SKIP() << "regenerated " << SmokePath();
  }
  EXPECT_EQ(ReadFileOrDie(SmokePath()), log.str())
      << "smoke.requests.ndjson drifted from the generator; regenerate with "
         "OPTIMUS_REGEN_GOLDEN=1";

  // And it replays cleanly: every request answered ok, auditor quiet.
  std::unique_ptr<ServiceSession> session = MakeSession(SessionOverrides{});
  ASSERT_NE(session, nullptr);
  const ReplayOutput out = Replay(session.get(), log.str());
  EXPECT_EQ(out.result.requests, 200);
  EXPECT_EQ(out.result.errors, 0);
  EXPECT_TRUE(out.result.shutdown);
  EXPECT_EQ(out.result.exit_code, 0);
}

TEST(ServiceReplayTest, EventsEngineExactAcrossThreads) {
  std::string base_responses, base_report;
  for (const int threads : {1, 8}) {
    SessionOverrides overrides;
    overrides.engine = SimEngine::kEvents;
    overrides.threads = threads;
    std::unique_ptr<ServiceSession> session = MakeSession(overrides);
    ASSERT_NE(session, nullptr);
    const ReplayOutput out = Replay(session.get(), kBasicRequests);
    EXPECT_EQ(out.result.exit_code, 0);
    const std::string report = SimReport(&session->simulator());
    if (threads == 1) {
      base_responses = out.responses;
      base_report = report;
    } else {
      EXPECT_EQ(out.responses, base_responses) << "threads=" << threads;
      EXPECT_EQ(report, base_report) << "threads=" << threads;
    }
  }
}

TEST(ServiceReplayTest, CrossEngineAgreementWithinTolerance) {
  // The §16 parity contract carried over to service mode: the same online
  // session (submits, a kill, advances, then run-to-completion) lands both
  // engines within the documented JCT tolerance.
  constexpr double kJctTolerance = 0.15;  // docs/ALGORITHMS.md section 16
  double avg_jct[2] = {0.0, 0.0};
  int64_t completed[2] = {0, 0};
  int i = 0;
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    SessionOverrides overrides;
    overrides.engine = engine;
    std::unique_ptr<ServiceSession> session = MakeSession(overrides);
    ASSERT_NE(session, nullptr);
    const ReplayOutput out = Replay(session.get(), kBasicRequests);
    EXPECT_EQ(out.result.exit_code, 0);
    const RunMetrics& m = session->simulator().metrics();
    avg_jct[i] = m.avg_jct_s;
    completed[i] = m.completed_jobs;
    ++i;
  }
  EXPECT_EQ(completed[0], completed[1]);
  ASSERT_GT(avg_jct[0], 0.0);
  const double rel = std::abs(avg_jct[0] - avg_jct[1]) / avg_jct[0];
  EXPECT_LE(rel, kJctTolerance)
      << "interval avg_jct=" << avg_jct[0] << " events avg_jct=" << avg_jct[1];
}

TEST(ServiceReplayTest, SnapshotRestoreBitwiseRemainderOfRun) {
  // Drive a prefix on session A, snapshot it, restore a fresh session B from
  // the snapshot (through the protocol, as a real client would), then run
  // the identical suffix on both: responses and final reports must match
  // byte for byte.
  const std::string prefix =
      R"({"op": "advance", "to_s": 900.0})" "\n"
      R"({"op": "submit", "model": "Seq2Seq", "job_id": 100, "arrival_s": 1200.0})" "\n"
      R"({"op": "advance", "dt_s": 600.0})" "\n";
  // Explicit ids: the two sessions' request sequence numbers differ (A
  // served the prefix, B served one restore), and default ids echo the
  // sequence — the determinism contract is over request bytes, ids included.
  const std::string suffix =
      R"({"op": "what_if", "id": 901, "model": "ResNet-50"})" "\n"
      R"({"op": "advance", "id": 902, "dt_s": 900.0})" "\n"
      R"({"op": "run", "id": 903})" "\n"
      R"({"op": "metrics_snapshot", "id": 904})" "\n";

  std::unique_ptr<ServiceSession> a = MakeSession(SessionOverrides{});
  ASSERT_NE(a, nullptr);
  Replay(a.get(), prefix);

  // Build the restore request from the session's snapshot state — the same
  // pair the `snapshot` op returns.
  JsonObject restore;
  restore.Set("op", "restore");
  restore.Set("genesis", a->genesis_text());
  restore.Set("journal", a->journal());
  EXPECT_EQ(a->journal().size(), 3u);  // the three mutating prefix lines

  std::unique_ptr<ServiceSession> b = MakeSession(SessionOverrides{});
  ASSERT_NE(b, nullptr);
  bool shutdown = false;
  const std::string restore_resp =
      b->HandleLine(restore.ToCompactString(), &shutdown);
  EXPECT_NE(restore_resp.find("\"ok\":true"), std::string::npos)
      << restore_resp;
  EXPECT_EQ(b->simulator().now_s(), a->simulator().now_s());

  const ReplayOutput rest_a = Replay(a.get(), suffix);
  const ReplayOutput rest_b = Replay(b.get(), suffix);
  EXPECT_EQ(rest_a.responses, rest_b.responses);
  EXPECT_EQ(rest_a.result.errors, 0);
  EXPECT_EQ(SimReport(&a->simulator()), SimReport(&b->simulator()));
}

TEST(ServiceReplayTest, ReplayedRunMatchesBatchSimulatorRun) {
  // A session that only advances and runs — no online mutations — must land
  // on the exact report a direct batch Simulator over the same scenario
  // produces, chunked stepping and all.
  std::unique_ptr<ServiceSession> session = MakeSession(SessionOverrides{});
  ASSERT_NE(session, nullptr);
  const std::string log =
      R"({"op": "advance", "to_s": 1000.0})" "\n"
      R"({"op": "advance", "dt_s": 1500.0})" "\n"
      R"({"op": "run"})" "\n";
  const ReplayOutput out = Replay(session.get(), log);
  EXPECT_EQ(out.result.errors, 0);

  ScenarioSpec scenario;
  std::string error;
  ASSERT_TRUE(ParseScenario(ReadFileOrDie(ScenarioPath()), "scenario.json",
                            &scenario, &error))
      << error;
  scenario.sim.obs.per_interval_series = true;  // mirror the session's config
  Simulator batch(scenario.MakeSimConfig(scenario.policies[0], 0),
                  scenario.cluster.Build(), scenario.JobsForRepeat(0));
  batch.Run();

  EXPECT_EQ(SimReport(&session->simulator()), SimReport(&batch))
      << "service-mode chunked run drifted from the batch simulator";
}

TEST(ServiceReplayTest, RelativeAdvancesMoveTheClockOnBothEngines) {
  // On the event engine now_s only reaches the last processed event, so a
  // relative advance must count from the furthest target reached, not from
  // now_s, or repeated small dt_s requests leave the clock standing. On the
  // interval engine now_s already sits at or past every target reached.
  const std::string genesis = R"({
  "schema": "scenario-v1", "name": "relative_advance", "seed": 5,
  "policies": ["optimus"],
  "workload": {"jobs": 200, "arrivals": {"kind": "uniform", "window_s": 6000.0},
               "sizes": {"kind": "zoo", "target_steps_per_epoch": 20}},
  "cluster": {"classes": [{"name": "std", "count": 32, "cpu": 16,
                           "memory_gb": 80, "gpu": 0, "bandwidth_gbps": 1}]}
})";
  constexpr int kSteps = 200;
  constexpr double kDt = 30.0;
  constexpr double kIntervalS = 600.0;  // the scenario's scheduling interval
  std::string relative, absolute;
  for (int k = 1; k <= kSteps; ++k) {
    relative += R"({"op": "advance", "dt_s": 30})" "\n";
    absolute += R"({"op": "advance", "to_s": )" + std::to_string(k * kDt) + "}\n";
  }
  auto make = [&](SimEngine engine) {
    SessionOverrides overrides;
    overrides.engine = engine;
    std::string error;
    std::unique_ptr<ServiceSession> session =
        ServiceSession::Create(genesis, "relative.json", overrides, &error);
    EXPECT_NE(session, nullptr) << error;
    return session;
  };
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    SCOPED_TRACE(SimEngineName(engine));
    std::unique_ptr<ServiceSession> rel = make(engine);
    ASSERT_NE(rel, nullptr);
    EXPECT_EQ(Replay(rel.get(), relative).result.errors, 0);
    EXPECT_GE(rel->simulator().now_s(), kSteps * kDt - kIntervalS);

    if (engine == SimEngine::kEvents) {
      // Relative steps land exactly where absolute steps to the cumulative
      // targets land.
      std::unique_ptr<ServiceSession> abs = make(engine);
      ASSERT_NE(abs, nullptr);
      EXPECT_EQ(Replay(abs.get(), absolute).result.errors, 0);
      EXPECT_EQ(rel->simulator().now_s(), abs->simulator().now_s());
      EXPECT_EQ(SimReport(&rel->simulator()), SimReport(&abs->simulator()));
    }

    // A restore replays the journal, which rebuilds the reached target: the
    // next relative step answers identically on both sessions.
    JsonObject restore;
    restore.Set("op", "restore");
    restore.Set("genesis", rel->genesis_text());
    restore.Set("journal", rel->journal());
    std::unique_ptr<ServiceSession> restored = make(engine);
    ASSERT_NE(restored, nullptr);
    bool shutdown = false;
    const std::string restore_resp =
        restored->HandleLine(restore.ToCompactString(), &shutdown);
    EXPECT_NE(restore_resp.find("\"ok\":true"), std::string::npos) << restore_resp;
    const std::string step = R"({"op": "advance", "id": 1, "dt_s": 600})" "\n";
    EXPECT_EQ(Replay(restored.get(), step).responses, Replay(rel.get(), step).responses);
  }
}

TEST(ServiceReplayTest, AdvancesPastTheDrainReachTheRequestedTime) {
  // Once the golden scenario's six jobs drain, nothing is left to simulate,
  // but the clock must still reach every requested time (capped at
  // max_sim_time_s), so a later submission arrives when the client says.
  // The rounds it starts stay on the drained run's interval grid: the
  // session lands on the report of one that submitted the same job up front.
  const std::string advances =
      R"({"op": "advance", "id": 1, "to_s": 50000})" "\n"
      R"({"op": "advance", "id": 2, "dt_s": 30})" "\n"
      R"({"op": "advance", "id": 3, "to_s": 900000})" "\n";
  const std::string tail =
      R"({"op": "run", "id": 9})" "\n";
  const std::string late_submit =
      R"({"op": "submit", "id": 4, "model": "ResNet-50", "job_id": 500})" "\n";
  const std::string early_submit =
      R"({"op": "submit", "id": 4, "model": "ResNet-50", "job_id": 500, "arrival_s": 900000})" "\n";
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    SCOPED_TRACE(SimEngineName(engine));
    SessionOverrides overrides;
    overrides.engine = engine;
    std::unique_ptr<ServiceSession> session = MakeSession(overrides);
    ASSERT_NE(session, nullptr);
    const ReplayOutput out = Replay(session.get(), advances);
    EXPECT_EQ(out.result.errors, 0);
    std::vector<double> now;
    std::istringstream lines(out.responses);
    for (std::string line; std::getline(lines, line);) {
      JsonValue response;
      std::string error;
      ASSERT_TRUE(ParseJson(line, "response", &response, &error)) << error;
      now.push_back(response.Find("now_s")->AsDouble());
      EXPECT_EQ(response.Find("completed_jobs")->AsInt(), 6) << line;
    }
    EXPECT_EQ(now, (std::vector<double>{50000.0, 50030.0, 900000.0}));
    // Past the time cap the clock stops at the cap.
    const ReplayOutput capped = Replay(
        session.get(), R"({"op": "advance", "id": 5, "to_s": 1e12})" "\n");
    EXPECT_NE(capped.responses.find("\"now_s\":3000000"), std::string::npos)
        << capped.responses;

    // A submission after the drain: arrival defaults to the reached clock.
    std::unique_ptr<ServiceSession> late = MakeSession(overrides);
    const ReplayOutput late_out = Replay(late.get(), advances + late_submit + tail);
    EXPECT_EQ(late_out.result.errors, 0);
    EXPECT_NE(late_out.responses.find("\"arrival_s\":900000"), std::string::npos)
        << late_out.responses;
    // The same job submitted before anything ran.
    std::unique_ptr<ServiceSession> early = MakeSession(overrides);
    const ReplayOutput early_out = Replay(early.get(), early_submit + tail);
    EXPECT_EQ(early_out.result.errors, 0);
    const auto run_line = [](const std::string& responses) {
      return responses.substr(responses.rfind("{\"id\":9"));
    };
    EXPECT_EQ(run_line(late_out.responses), run_line(early_out.responses));
    EXPECT_NE(run_line(late_out.responses).find("\"completed_jobs\":7"),
              std::string::npos)
        << late_out.responses;
    EXPECT_EQ(SimReport(&late->simulator()), SimReport(&early->simulator()));
  }
}

}  // namespace
}  // namespace optimus
