// Online-service throughput and latency: one ServiceSession under a
// million-request synthetic load.
//
// The replay harness's load generator (GenerateSyntheticRequests) produces a
// deterministic read-heavy op mix — metric snapshots, what-if admission
// queries, time advances, rare submit/kill pairs — and the bench drives it
// through the session exactly like the daemon's stdio loop would, measuring
// wall-clock service latency per request via the session's own profiling
// histogram. Reported: requests/s plus p50/p95/p99 latency, per op-mix row.
//
// Gate (exit 3 on failure): the deterministic service counters and the final
// simulator run report must be bitwise identical across --threads {1, 8} —
// the protocol's determinism contract measured at bench scale, not just in
// unit tests.

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/obs/exporters.h"
#include "src/service/replay.h"
#include "src/service/session.h"

namespace {

using namespace optimus;

// Small testbed scenario: request throughput is the subject, so the
// simulator behind it stays small and the mix stays read-heavy.
const char kScenario[] = R"({
  "schema": "scenario-v1",
  "name": "bench_serve",
  "description": "Service-mode load-generation target.",
  "seed": 7,
  "repeats": 1,
  "policies": ["optimus"],
  "workload": {
    "jobs": 6,
    "arrivals": {"kind": "uniform", "window_s": 6000.0},
    "sizes": {"kind": "zoo", "target_steps_per_epoch": 20}
  },
  "cluster": {"testbed": true}
})";

struct RowResult {
  int64_t requests = 0;
  int64_t errors = 0;
  double wall_s = 0.0;
  double sim_s = 0.0;  // simulated seconds covered by the replayed session
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  // Deterministic fingerprints compared across thread counts.
  std::string service_fp;  // service registry, profiling excluded
  std::string sim_fp;      // simulator run report, profiling excluded
};

RowResult RunRow(const std::string& log, int threads) {
  SessionOverrides overrides;
  overrides.threads = threads;
  std::string error;
  std::unique_ptr<ServiceSession> session = ServiceSession::Create(
      kScenario, "<bench_serve>", overrides, &error);
  OPTIMUS_CHECK(session != nullptr) << error;

  std::istringstream in(log);
  // Responses are produced but not kept: a full run answers ~370k JSON
  // report snapshots, and buffering them all took over 8 GB of memory. A
  // stream with no buffer drops each write.
  std::ostream discard(nullptr);
  const auto start = std::chrono::steady_clock::now();
  const ReplayResult replay = RunReplay(session.get(), in, discard);
  const auto end = std::chrono::steady_clock::now();
  OPTIMUS_CHECK(replay.exit_code == 0) << "audit violation under load";

  RowResult row;
  row.requests = replay.requests;
  row.errors = replay.errors;
  row.wall_s = std::chrono::duration<double>(end - start).count();
  const Histogram& latency = session->latency_histogram();
  row.p50_s = latency.Quantile(0.5);
  row.p95_s = latency.Quantile(0.95);
  row.p99_s = latency.Quantile(0.99);
  ExportOptions options;
  options.include_profiling = false;
  row.service_fp = ExportPrometheusString(session->service_registry(), options);
  session->simulator().Run();
  row.sim_fp = ExportJsonReportString(session->simulator().registry(),
                                      &session->simulator().series(),
                                      &session->simulator().flight_recorder(),
                                      options);
  row.sim_s = session->simulator().now_s();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const int64_t requests = flags.GetInt("requests", smoke ? 20000 : 1000000);
  const std::string json_path = BenchJsonPath(flags, "serve", smoke);
  for (const std::string& key : flags.UnconsumedKeys()) {
    std::cerr << "unknown flag --" << key << "\n";
    return 1;
  }

  PrintExperimentHeader(
      "EXT: online service throughput",
      "ServiceSession under a synthetic NDJSON request load (read-heavy mix: "
      "metric snapshots, what-if queries, advances, rare submit/kill)",
      "Service latency stays low-millisecond at p99 under a 1M-request load "
      "and every deterministic output is bitwise identical across thread "
      "counts");

  std::ostringstream log_stream;
  GenerateSyntheticRequests(requests, /*seed=*/17, SyntheticMixOptions{},
                            log_stream);
  const std::string log = log_stream.str();

  TablePrinter table({"threads", "requests", "errors", "wall (s)", "req/s",
                      "p50 (us)", "p95 (us)", "p99 (us)"});
  std::vector<RowResult> rows;
  std::vector<JsonObject> row_objects;
  for (const int threads : {1, 8}) {
    const RowResult row = RunRow(log, threads);
    table.AddRow({std::to_string(threads), std::to_string(row.requests),
                  std::to_string(row.errors),
                  TablePrinter::FormatDouble(row.wall_s, 2),
                  TablePrinter::FormatDouble(
                      static_cast<double>(row.requests) / row.wall_s, 0),
                  TablePrinter::FormatDouble(row.p50_s * 1e6, 1),
                  TablePrinter::FormatDouble(row.p95_s * 1e6, 1),
                  TablePrinter::FormatDouble(row.p99_s * 1e6, 1)});
    JsonObject obj;
    obj.Set("threads", threads);
    obj.Set("requests", row.requests);
    obj.Set("errors", row.errors);
    // Shared perf schema (wall_s, sim_s, sim_s_per_wall_s, peak_rss_mib) so
    // BENCH_serve.json lines up with the other BENCH_*.json files.
    SetPerfColumns(&obj, row.wall_s, row.sim_s);
    obj.Set("requests_per_s", static_cast<double>(row.requests) / row.wall_s);
    obj.Set("p50_latency_s", row.p50_s);
    obj.Set("p95_latency_s", row.p95_s);
    obj.Set("p99_latency_s", row.p99_s);
    row_objects.push_back(obj);
    rows.push_back(row);
  }
  table.Print(std::cout);

  const bool deterministic = rows[0].service_fp == rows[1].service_fp &&
                             rows[0].sim_fp == rows[1].sim_fp;
  std::cout << (deterministic
                    ? "deterministic outputs identical across thread counts\n"
                    : "DETERMINISM FAILURE: outputs differ across thread counts\n");

  JsonObject summary;
  summary.Set("smoke", smoke);
  summary.Set("requests", requests);
  summary.Set("deterministic_across_threads", deterministic);
  summary.Set("p50_latency_s", rows[0].p50_s);
  summary.Set("p95_latency_s", rows[0].p95_s);
  summary.Set("p99_latency_s", rows[0].p99_s);
  summary.Set("rows", row_objects);
  if (!WriteBenchJsonSection(json_path, "serve", summary)) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  std::cout << "wrote " << json_path << "\n";
  return deterministic ? 0 : 3;
}
