#include "perfbench/harness/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/obs/exporters.h"
#include "src/service/protocol.h"
#include "src/service/replay.h"
#include "src/service/session.h"
#include "src/sim/simulator.h"
#include "src/workload/json.h"
#include "src/workload/scenario.h"

namespace perfbench {
namespace {

using optimus::MetricsRegistry;
using optimus::RunMetrics;

constexpr double kIntervalS = 600.0;
// The paper's Fig 12 claim: 4,000 jobs on 16,000 nodes scheduled in < 5 s.
constexpr double kPaperRoundLimitS = 5.0;
// Fig 12's timed horizon: the first 100 intervals, while the 4,000 jobs
// still crowd the cluster. Past it the few remaining jobs make cheap rounds
// whose count varies by seed and would dominate the interval percentiles, so
// the tail is drained by an untimed Run().
constexpr int kFig12Intervals = 100;
// Safety cap on the interval loop; online_faults completes far earlier.
constexpr int kMaxIntervals = 20000;
// Requests per serve_mixed rep (the reference shape).
constexpr int kServeRequests = 6000;

double SecondsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) * 1e-9; }
double MsBetween(int64_t a, int64_t b) { return static_cast<double>(b - a) * 1e-6; }

bool Corrupt(const RepOptions& options, int64_t op_index) {
  return options.inject_bad_every > 0 && op_index % options.inject_bad_every == 0;
}

// ---------------------------------------------------------------------------
// Scenario texts. The seed is written into the text, so the parse is the
// same work a user's scenario file costs.

std::string Fig12Scenario(uint64_t seed, bool tiny) {
  // Fig 12: every job arrives inside the first interval; oracle estimates
  // (no model fitting), a flat network, no stragglers or faults, so the
  // scheduling round (allocation + placement) is nearly all the work.
  const int jobs = tiny ? 40 : 4000;
  const int servers = tiny ? 160 : 16000;
  char buf[1024];
  std::snprintf(buf, sizeof(buf), R"({
  "schema": "scenario-v1", "name": "perfbench_fig12_scale", "seed": %llu,
  "repeats": 1, "policies": ["optimus"],
  "workload": {"jobs": %d, "arrivals": {"kind": "uniform", "window_s": 300.0},
               "sizes": {"kind": "zoo", "target_steps_per_epoch": 200}},
  "cluster": {"classes": [{"name": "std", "count": %d, "cpu": 16,
                           "memory_gb": 80, "gpu": 0, "bandwidth_gbps": 1}]},
  "knobs": {"engine": "events", "oracle": true, "stragglers": 0.0}
})",
                static_cast<unsigned long long>(seed), jobs, servers);
  return buf;
}

std::string OnlineFaultsScenario(uint64_t seed, bool tiny) {
  // A long steady state: Poisson arrivals, online model fitting, a 4:1
  // oversubscribed contention fabric, stragglers, a rack outage, a slowdown
  // burst, task failures and hourly checkpoints.
  const int jobs = tiny ? 60 : 3000;
  const int servers = tiny ? 32 : 256;
  char buf[1536];
  std::snprintf(buf, sizeof(buf), R"({
  "schema": "scenario-v1", "name": "perfbench_online_faults", "seed": %llu,
  "repeats": 1, "policies": ["optimus"],
  "workload": {"jobs": %d, "arrivals": {"kind": "poisson", "rate_per_interval": 6.0},
               "sizes": {"kind": "zoo", "target_steps_per_epoch": 20}},
  "cluster": {"classes": [{"name": "std", "count": %d, "cpu": 16,
                           "memory_gb": 80, "gpu": 0, "bandwidth_gbps": 1}],
              "rack_size": 8},
  "network": {"model": "contention", "nic_bps": 125e6, "oversubscription": 4.0},
  "faults": {"plan": "rack@%d:rack=3,recover=%d;slow@%d:factor=0.8,duration=%d",
             "task_failure_prob": 0.002, "checkpoint_period_s": 3600.0},
  "knobs": {"engine": "events", "stragglers": 0.12}
})",
                static_cast<unsigned long long>(seed), jobs, servers,
                tiny ? 1800 : 36000, tiny ? 5400 : 72000, tiny ? 2400 : 120000,
                tiny ? 1200 : 18000);
  return buf;
}

std::string ServeScenario(uint64_t seed, bool tiny) {
  const int jobs = tiny ? 60 : 3000;
  const int servers = tiny ? 24 : 192;
  char buf[1024];
  std::snprintf(buf, sizeof(buf), R"({
  "schema": "scenario-v1", "name": "perfbench_serve_mixed", "seed": %llu,
  "repeats": 1, "policies": ["optimus"],
  "workload": {"jobs": %d, "arrivals": {"kind": "poisson", "rate_per_interval": 5.0},
               "sizes": {"kind": "zoo", "target_steps_per_epoch": 20}},
  "cluster": {"classes": [{"name": "std", "count": %d, "cpu": 16,
                           "memory_gb": 80, "gpu": 0, "bandwidth_gbps": 1}],
              "rack_size": 8},
  "knobs": {"engine": "events", "stragglers": 0.12}
})",
                static_cast<unsigned long long>(seed), jobs, servers);
  return buf;
}

// ---------------------------------------------------------------------------
// Registry reads (counters and profiling gauges the simulator exports).

double RegistryValue(const MetricsRegistry& registry, const std::string& name) {
  const optimus::Metric* metric = registry.Find(name);
  if (metric == nullptr) {
    return 0.0;
  }
  switch (metric->kind()) {
    case optimus::MetricKind::kCounter:
      return static_cast<const optimus::Counter*>(metric)->value();
    case optimus::MetricKind::kGauge:
      return static_cast<const optimus::Gauge*>(metric)->value();
    case optimus::MetricKind::kHistogram:
      break;
  }
  return 0.0;
}

// Exported counters that disagree with the RunMetrics of the same run.
int StaleCounters(const MetricsRegistry& registry, const RunMetrics& m) {
  const std::pair<const char*, double> pairs[] = {
      {"optimus_jobs_completed_total", m.completed_jobs},
      {"optimus_jobs_killed_total", static_cast<double>(m.jobs_killed)},
      {"optimus_scalings_total", static_cast<double>(m.total_scalings)},
      {"optimus_straggler_replacements_total",
       static_cast<double>(m.straggler_replacements)},
      {"optimus_checkpoints_total", static_cast<double>(m.checkpoints_taken)},
      {"optimus_job_evictions_total", static_cast<double>(m.job_evictions)},
      {"optimus_task_failures_total", static_cast<double>(m.task_failures)},
      {"optimus_server_crashes_total", static_cast<double>(m.server_crashes)},
      {"optimus_server_recoveries_total", static_cast<double>(m.server_recoveries)},
      {"optimus_backoff_deferrals_total", static_cast<double>(m.backoff_deferrals)},
      {"optimus_rolled_back_steps_total", m.rolled_back_steps},
      {"optimus_audit_checks_total", static_cast<double>(m.audit_checks)},
      {"optimus_audit_violations_total", static_cast<double>(m.audit_violations)},
      {"optimus_events_processed_total", static_cast<double>(m.events_processed)},
  };
  int stale = 0;
  for (const auto& [name, expected] : pairs) {
    if (registry.Find(name) != nullptr && RegistryValue(registry, name) != expected) {
      ++stale;
    }
  }
  return stale;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void RegistryLayers(const MetricsRegistry& r, const RunMetrics& m,
                    std::map<std::string, double>* layers) {
  auto& L = *layers;
  L["sim.events_s"] = RegistryValue(r, "optimus_wall_events_seconds");
  L["sim.audit_s"] = RegistryValue(r, "optimus_wall_audit_seconds");
  L["sim.faults_s"] = RegistryValue(r, "optimus_wall_faults_seconds");
  L["sim.events_processed"] = static_cast<double>(m.events_processed);
  L["sim.audit_checks"] = static_cast<double>(m.audit_checks);

  const double probes = RegistryValue(r, "optimus_speed_probes_total");
  const double evals = RegistryValue(r, "optimus_speed_evals_total");
  L["sched.speed_probes"] = probes;
  L["sched.speed_evals"] = evals;
  L["sched.memo_hit_ratio"] = probes > 0.0 ? 1.0 - evals / probes : 0.0;
  const double pops = RegistryValue(r, "optimus_alloc_pops_total");
  const double grants = RegistryValue(r, "optimus_alloc_grants_total");
  L["sched.alloc_pops"] = pops;
  L["sched.alloc_grants"] = grants;
  L["sched.grant_ratio"] = Ratio(grants, pops);

  const double conv_fits = RegistryValue(r, "optimus_conv_fits_total");
  const double speed_fits = RegistryValue(r, "optimus_speedmodel_fits_total");
  L["perfmodel.conv_fits"] = conv_fits;
  L["perfmodel.conv_fit_hit_ratio"] =
      Ratio(RegistryValue(r, "optimus_conv_fit_cache_hits_total"), conv_fits);
  L["perfmodel.speed_fits"] = speed_fits;
  L["perfmodel.speed_fit_hit_ratio"] =
      Ratio(RegistryValue(r, "optimus_speedmodel_fit_cache_hits_total"), speed_fits);
  L["solver.nnls_iterations"] = RegistryValue(r, "optimus_conv_nnls_iterations_total") +
                                RegistryValue(r, "optimus_speedmodel_nnls_iterations_total");

  const double flows = RegistryValue(r, "optimus_net_flows_total");
  L["net.solves"] = RegistryValue(r, "optimus_net_solves_total");
  L["net.flows"] = flows;
  L["net.contended_ratio"] = Ratio(RegistryValue(r, "optimus_net_contended_flows_total"), flows);

  L["obs.stale_counters"] = StaleCounters(r, m);
}

// Per-layer numbers from the spans of one rep (indices >= first_span).
void SpanLayers(const Tracer& tracer, size_t first_span, double wall_schedule_s,
                std::map<std::string, double>* layers) {
  std::map<std::string, std::vector<double>> durations;
  double advance_self_s = 0.0;
  double round_allocate_s = 0.0;
  double first_round_s = -1.0;
  const std::vector<Span>& spans = tracer.spans();
  // spans[first_span] is the rep's still-open root; its children follow.
  for (size_t i = first_span + 1; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    durations[name].push_back(s.seconds());
    const bool advance = name == "sim.advance_to" || name == "service.advance";
    if (advance) {
      advance_self_s += s.self_seconds();
    }
    if (advance && first_round_s < 0.0) {
      first_round_s = s.seconds();
    }
    if (name == "sched.allocate" && s.parent >= 0 &&
        std::string(spans[static_cast<size_t>(s.parent)].name) != "service.what_if") {
      round_allocate_s += s.seconds();
    }
  }
  auto sum = [&](const char* name) {
    double total = 0.0;
    for (double d : durations[name]) {
      total += d;
    }
    return total;
  };
  auto median_ms = [&](const char* name) { return optimus::Median(durations[name]) * 1e3; };

  auto& L = *layers;
  L["workload.parse_s"] = sum("workload.parse");
  L["workload.generate_s"] = sum("workload.generate");
  // A ServiceSession builds its simulator inside Create; the harness times
  // the parse and generation separately on the same text and subtracts them.
  L["sim.construct_s"] =
      durations.count("service.create") > 0
          ? std::max(0.0, sum("service.create") - L["workload.parse_s"] -
                              L["workload.generate_s"])
          : sum("sim.construct");
  L["sim.advance_self_s"] = advance_self_s;
  L["sim.first_round_s"] = std::max(0.0, first_round_s);
  L["sched.allocate_s"] = sum("sched.allocate");
  L["sched.allocate_calls"] = static_cast<double>(durations["sched.allocate"].size());
  L["sched.allocate_p50_ms"] = median_ms("sched.allocate");
  L["sched.schedule_rest_s"] = std::max(0.0, wall_schedule_s - round_allocate_s);
  L["obs.export_json_ms"] = median_ms("obs.export_json");
  L["obs.export_prom_ms"] = median_ms("obs.export_prom");
  L["service.parse_p50_us"] = median_ms("service.parse") * 1e3;
  L["service.what_if_p50_ms"] = median_ms("service.what_if");
  L["service.advance_p50_ms"] = median_ms("service.advance");
  L["service.advance_p99_ms"] = optimus::Percentile(durations["service.advance"], 99.0) * 1e3;
  L["service.snapshot_json_p50_ms"] = median_ms("service.snapshot_json");
  L["service.snapshot_prom_p50_ms"] = median_ms("service.snapshot_prom");
  L["service.submit_p50_ms"] = median_ms("service.submit");
  L["service.kill_p50_ms"] = median_ms("service.kill");
}

// ---------------------------------------------------------------------------
// Simulation workloads (fig12_scale, online_faults): a user stepping a
// Simulator one scheduling interval at a time, then collecting RunMetrics.

struct SimShape {
  std::string text;
  std::string source;
  int max_intervals = kMaxIntervals;
  bool fig12 = false;  // timed horizon, first round held to the paper's bound
};

Rep RunSimRep(const SimShape& shape, const RepOptions& options, Tracer* tracer,
              const std::string& policy) {
  Rep rep;
  ScopedSpan rep_span(tracer, "rep", 0);
  const size_t first_span = tracer != nullptr ? tracer->spans().size() - 1 : 0;

  const int64_t setup_start = NowNs();
  optimus::ScenarioSpec spec;
  std::string error;
  bool parsed = false;
  {
    ScopedSpan span(tracer, "workload.parse", 0);
    parsed = optimus::ParseScenario(shape.text, shape.source, &spec, &error);
  }
  OPTIMUS_CHECK(parsed) << error;
  std::vector<optimus::JobSpec> jobs;
  {
    ScopedSpan span(tracer, "workload.generate", 0);
    jobs = spec.JobsForRepeat(0);
  }
  const int total_jobs = static_cast<int>(jobs.size());
  optimus::SimulatorConfig config = spec.MakeSimConfig(policy, 0);
  config.threads = 1;
  std::unique_ptr<optimus::Simulator> sim;
  {
    ScopedSpan span(tracer, "sim.construct", 0);
    sim = std::make_unique<optimus::Simulator>(std::move(config), spec.cluster.Build(),
                                               std::move(jobs));
  }
  rep.setup_s = SecondsSince(setup_start);

  const int64_t run_start = NowNs();
  int64_t violations = 0;
  for (int k = 1; sim->metrics().completed_jobs < total_jobs && k <= shape.max_intervals;
       ++k) {
    const int64_t a = NowNs();
    {
      ScopedSpan span(tracer, "sim.advance_to", k);
      sim->AdvanceTo(k * kIntervalS);
    }
    const int64_t b = NowNs();
    rep.interval_ms.push_back(MsBetween(a, b));

    // An interval passes when it adds no audit violation. An injected fault
    // stands for an interval whose audit reported one.
    const int64_t now_violations =
        sim->metrics().audit_violations + (Corrupt(options, k) ? 1 : 0);
    rep.ok += now_violations == violations ? 1 : 0;
    violations = now_violations;
    ++rep.attempted;

    if (k == 1 && shape.fig12 && !options.tiny &&
        MsBetween(a, b) * 1e-3 >= kPaperRoundLimitS) {
      rep.check_failures.push_back("first round took " + std::to_string(MsBetween(a, b)) +
                                   " ms, over the paper's 5 s");
    }
  }
  rep.run_s = SecondsSince(run_start);

  // Untimed: finishes what the timed phase left (fig12_scale's tail past its
  // horizon), so the outputs cover every job of every workload.
  RunMetrics metrics;
  {
    ScopedSpan span(tracer, "sim.run", 0);
    metrics = sim->Run();
  }
  rep.outcome = {metrics.completed_jobs, metrics.total_jobs, metrics.avg_jct_s,
                 metrics.makespan_s, sim->trace().digest()};
  if (metrics.total_jobs != total_jobs || metrics.completed_jobs != total_jobs) {
    rep.check_failures.push_back(std::to_string(metrics.completed_jobs) + " of " +
                                 std::to_string(metrics.total_jobs) + " jobs completed");
  }
  if (metrics.audit_violations != 0) {
    rep.check_failures.push_back(std::to_string(metrics.audit_violations) +
                                 " invariant-audit violations");
  }

  if (tracer != nullptr) {
    // The exporters timed once each on the final registry, after the run.
    {
      ScopedSpan span(tracer, "obs.export_json", 0);
      OPTIMUS_CHECK(!optimus::ExportJsonReportString(sim->registry(), &sim->series(),
                                                     &sim->flight_recorder())
                         .empty());
    }
    {
      ScopedSpan span(tracer, "obs.export_prom", 0);
      OPTIMUS_CHECK(!optimus::ExportPrometheusString(sim->registry()).empty());
    }
    RegistryLayers(sim->registry(), metrics, &rep.layers);
    SpanLayers(*tracer, first_span,
               RegistryValue(sim->registry(), "optimus_wall_schedule_seconds"), &rep.layers);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// serve_mixed: one closed-loop client driving a ServiceSession.

enum class OpKind { kAdvance, kSubmit, kKill, kWhatIf, kSnapshotJson, kSnapshotProm, kRun };

struct OpInfo {
  const char* op;    // protocol op name
  const char* span;  // span name of its HandleLine call
  bool write;        // mutating (timed as a write) or a read
};

// Indexed by OpKind.
constexpr OpInfo kOps[] = {
    {"advance", "service.advance", true},
    {"submit", "service.submit", true},
    {"kill", "service.kill", true},
    {"what_if", "service.what_if", false},
    {"metrics_snapshot", "service.snapshot_json", false},
    {"metrics_snapshot", "service.snapshot_prom", false},
    {"run", "service.run", true},
};

const OpInfo& Info(OpKind kind) { return kOps[static_cast<int>(kind)]; }

struct Request {
  OpKind kind;
  int64_t id;
  std::string line;
  bool crosses_interval = false;  // an advance whose target reaches k * interval
};

struct RequestStream {
  std::vector<Request> requests;
  double last_target_s = 0.0;
};

// The repository's own synthetic service traffic (GenerateSyntheticRequests
// with the default SyntheticMixOptions: 30% what_if, 20% advance, 1% submit +
// kill pairs, the rest metrics_snapshot with one in four as Prometheus), with
// ids added and every relative `advance dt_s` rewritten into the absolute
// `to_s` it means. On the event engine a relative dt_s is measured from
// now_s, which only moves to the last processed event, so repeated small
// dt_s advances can leave the clock standing still.
RequestStream MakeRequestStream(uint64_t seed, int count, const RepOptions& options) {
  const optimus::SyntheticMixOptions mix;
  std::ostringstream text;
  optimus::GenerateSyntheticRequests(count, seed, mix, text);

  RequestStream stream;
  std::istringstream lines(text.str());
  std::string line;
  while (std::getline(lines, line)) {
    optimus::ServiceRequest parsed;
    std::string error;
    OPTIMUS_CHECK(optimus::ParseServiceRequest(line, "synthetic", 0, &parsed, &error)) << error;
    const int64_t id = static_cast<int64_t>(stream.requests.size()) + 1;
    const std::string id_key = "{\"id\":" + std::to_string(id) + ",";
    OpKind kind;
    bool crosses_interval = false;
    if (parsed.op == "advance") {
      kind = OpKind::kAdvance;
      const double from_s = stream.last_target_s;
      stream.last_target_s += parsed.body.Find("dt_s")->AsDouble();
      crosses_interval = std::floor(stream.last_target_s / kIntervalS) >
                         std::floor(from_s / kIntervalS);
      char to_s[64];
      std::snprintf(to_s, sizeof(to_s), "%.1f", stream.last_target_s);
      line = id_key + "\"op\":\"advance\",\"to_s\":" + to_s + "}";
    } else {
      if (parsed.op == "what_if") {
        kind = OpKind::kWhatIf;
      } else if (parsed.op == "submit") {
        kind = OpKind::kSubmit;
      } else if (parsed.op == "kill") {
        kind = OpKind::kKill;
      } else {
        OPTIMUS_CHECK(parsed.op == "metrics_snapshot") << "unexpected op " << parsed.op;
        kind = line.find("\"prom\"") != std::string::npos ? OpKind::kSnapshotProm
                                                           : OpKind::kSnapshotJson;
      }
      line = id_key + line.substr(1);
    }
    if (Corrupt(options, id)) {
      line = "{\"op\":\"no_such_op\",\"id\":" + std::to_string(id) + "}";
    }
    stream.requests.push_back({kind, id, std::move(line), crosses_interval});
  }
  return stream;
}

bool ResponseOk(const std::string& response, int64_t id, OpKind kind) {
  const std::string prefix = "{\"id\":" + std::to_string(id) + ",\"ok\":true,\"op\":\"" +
                             Info(kind).op + "\"";
  return response.compare(0, prefix.size(), prefix) == 0;
}

uint64_t Fnv1a(uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return (h ^ '\n') * 1099511628211ULL;
}

Rep RunServeRep(const std::string& text, uint64_t seed, const RepOptions& options,
                Tracer* tracer, const std::string& policy) {
  const int count = options.tiny ? 300 : kServeRequests;
  const RequestStream stream = MakeRequestStream(seed, count, options);

  Rep rep;
  ScopedSpan rep_span(tracer, "rep", 0);
  const size_t first_span = tracer != nullptr ? tracer->spans().size() - 1 : 0;
  if (tracer != nullptr) {
    // Create() parses and generates internally; time the same two steps on
    // the same text so the workload layer has numbers on this workload too.
    optimus::ScenarioSpec spec;
    std::string error;
    bool parsed = false;
    {
      ScopedSpan span(tracer, "workload.parse", 0);
      parsed = optimus::ParseScenario(text, "perfbench_serve", &spec, &error);
    }
    OPTIMUS_CHECK(parsed) << error;
    ScopedSpan span(tracer, "workload.generate", 0);
    OPTIMUS_CHECK(!spec.JobsForRepeat(0).empty());
  }

  optimus::SessionOverrides overrides;
  overrides.policy = policy;
  overrides.threads = 1;
  const int64_t setup_start = NowNs();
  std::unique_ptr<optimus::ServiceSession> session;
  std::string error;
  {
    ScopedSpan span(tracer, "service.create", 0);
    session = optimus::ServiceSession::Create(text, "perfbench_serve", overrides, &error);
  }
  OPTIMUS_CHECK(session != nullptr) << error;
  rep.setup_s = SecondsSince(setup_start);

  const optimus::ExportOptions snapshot_options{.include_profiling = false};
  uint64_t digest = 14695981039346656037ULL;
  bool shutdown = false;
  const int64_t run_start = NowNs();
  for (const Request& req : stream.requests) {
    std::string response;
    int64_t a = 0;
    int64_t b = 0;
    if (tracer == nullptr) {
      a = NowNs();
      response = session->HandleLine(req.line, &shutdown);
      b = NowNs();
    } else {
      ScopedSpan root(tracer, "service.request", req.id);
      // Work only traced reps do is timed on its own and excluded from the
      // traced run_s, so trace.overhead_frac measures span recording alone.
      const int64_t parse_start = NowNs();
      {
        ScopedSpan span(tracer, "service.parse", req.id);
        optimus::ServiceRequest parsed;
        std::string parse_error;
        optimus::ParseServiceRequest(req.line, "perfbench", req.id, &parsed, &parse_error);
      }
      a = NowNs();
      {
        ScopedSpan span(tracer, Info(req.kind).span, req.id);
        response = session->HandleLine(req.line, &shutdown);
      }
      b = NowNs();
      const optimus::Simulator& sim = session->simulator();
      // The exporters are timed on their own for a quarter of the snapshot
      // requests: a median needs no more, and each JSON export costs as much
      // as the request it duplicates.
      if (req.kind == OpKind::kSnapshotJson && req.id % 4 == 0) {
        ScopedSpan span(tracer, "obs.export_json", req.id);
        OPTIMUS_CHECK(!optimus::ExportJsonReportString(sim.registry(), &sim.series(),
                                                       &sim.flight_recorder(),
                                                       snapshot_options)
                           .empty());
      } else if (req.kind == OpKind::kSnapshotProm && req.id % 4 == 0) {
        ScopedSpan span(tracer, "obs.export_prom", req.id);
        OPTIMUS_CHECK(
            !optimus::ExportPrometheusString(sim.registry(), snapshot_options).empty());
      }
      rep.harness_s += static_cast<double>((a - parse_start) + (NowNs() - b)) * 1e-9;
    }
    (Info(req.kind).write ? rep.write_ms : rep.read_ms).push_back(MsBetween(a, b));
    if (req.crosses_interval) {
      rep.interval_ms.push_back(MsBetween(a, b));
    }
    ++rep.attempted;
    rep.ok += ResponseOk(response, req.id, req.kind) ? 1 : 0;
    digest = Fnv1a(digest, response);
  }
  rep.run_s = SecondsSince(run_start);

  const double now_s = session->simulator().now_s();
  if (now_s < stream.last_target_s - kIntervalS) {
    rep.check_failures.push_back("session clock at " + std::to_string(now_s) +
                                 " s, more than one interval before the last target " +
                                 std::to_string(stream.last_target_s) + " s");
  }

  // Drain: run the remaining workload to completion for the final report.
  const int64_t drain_id = count + 1;
  std::string drain;
  {
    ScopedSpan root(tracer, "service.request", drain_id);
    ScopedSpan span(tracer, "service.run", drain_id);
    drain = session->HandleLine("{\"op\":\"run\",\"id\":" + std::to_string(drain_id) + "}",
                                &shutdown);
  }
  ++rep.attempted;
  const bool drain_ok = ResponseOk(drain, drain_id, OpKind::kRun);
  rep.ok += drain_ok ? 1 : 0;
  digest = Fnv1a(digest, drain);
  optimus::JsonValue report;
  if (drain_ok && optimus::ParseJson(drain, "run-response", &report, &error)) {
    rep.outcome.completed_jobs = static_cast<int>(report.Find("completed_jobs")->AsInt());
    rep.outcome.total_jobs = static_cast<int>(report.Find("total_jobs")->AsInt());
    rep.outcome.avg_jct_s = report.Find("avg_jct_s")->AsDouble();
    rep.outcome.makespan_s = report.Find("makespan_s")->AsDouble();
  } else {
    rep.check_failures.push_back("run request failed: " + drain);
  }
  rep.outcome.digest = digest;
  if (rep.outcome.completed_jobs != rep.outcome.total_jobs) {
    rep.check_failures.push_back(std::to_string(rep.outcome.completed_jobs) + " of " +
                                 std::to_string(rep.outcome.total_jobs) + " jobs completed");
  }
  if (session->audit_failed()) {
    rep.check_failures.push_back("invariant-audit violations in the session");
  }

  if (tracer != nullptr) {
    const optimus::Simulator& sim = session->simulator();
    RegistryLayers(sim.registry(), sim.metrics(), &rep.layers);
    SpanLayers(*tracer, first_span,
               RegistryValue(sim.registry(), "optimus_wall_schedule_seconds"), &rep.layers);
  }
  return rep;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"fig12_scale", "online_faults",
                                                 "serve_mixed"};
  return names;
}

Rep RunRep(const std::string& workload, uint64_t seed, const RepOptions& options,
           Tracer* tracer) {
  const std::string policy = tracer != nullptr ? RegisterTracedOptimusPolicy() : "optimus";
  SetActiveTracer(tracer);
  Rep rep;
  if (workload == "fig12_scale") {
    rep = RunSimRep({Fig12Scenario(seed, options.tiny), "perfbench_fig12_scale",
                     kFig12Intervals, /*fig12=*/true},
                    options, tracer, policy);
  } else if (workload == "online_faults") {
    rep = RunSimRep({OnlineFaultsScenario(seed, options.tiny), "perfbench_online_faults"},
                    options, tracer, policy);
  } else {
    OPTIMUS_CHECK(workload == "serve_mixed") << "unknown workload " << workload;
    rep = RunServeRep(ServeScenario(seed, options.tiny), seed, options, tracer, policy);
  }
  SetActiveTracer(nullptr);
  return rep;
}

}  // namespace perfbench
