// Observability subsystem tests: registry semantics (read-through metrics
// included), histogram bucket edges, flight-recorder wraparound and
// dump-on-violation, exporter golden files, and the end-to-end acceptance
// criteria — the exported registry contents and flight-recorder sequence of
// a simulator run are bitwise identical for --threads {1, 2, 8}, with and
// without a fault plan, on both engines, and every exported total equals the
// run's own at run end and between rounds.
//
// Regenerating the exporter goldens after an INTENDED format change:
//
//   OPTIMUS_REGEN_GOLDEN=1 ./build/tests/obs_test
//
// then commit tests/golden/metrics.prom and tests/golden/run_report.json.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/obs/exporters.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/phase_profiler.h"
#include "src/sim/fault_injector.h"
#include "src/sim/invariant_auditor.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"
#include "src/workload/json.h"

#ifndef OPTIMUS_SOURCE_DIR
#error "OPTIMUS_SOURCE_DIR must be defined to locate the golden files"
#endif

namespace optimus {
namespace {

// ---------------------------------------------------------------------------
// Registry basics
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, RegistersAndFindsMetrics) {
  MetricsRegistry registry;
  Counter* c = registry.AddCounter("jobs_total", "Jobs.");
  Gauge* g = registry.AddGauge("clock_s", "Sim time.");
  Histogram* h = registry.AddHistogram("jct_s", "JCTs.", {10.0, 100.0});

  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.Find("jobs_total"), c);
  EXPECT_EQ(registry.Find("clock_s"), g);
  EXPECT_EQ(registry.Find("jct_s"), h);
  EXPECT_EQ(registry.Find("nope"), nullptr);
  // Registration order is export order.
  EXPECT_EQ(registry.metric(0).name(), "jobs_total");
  EXPECT_EQ(registry.metric(2).kind(), MetricKind::kHistogram);

  c->Add();
  c->Add(2.5);
  EXPECT_DOUBLE_EQ(c->value(), 3.5);
  g->Set(-4.0);
  EXPECT_DOUBLE_EQ(g->value(), -4.0);
}

TEST(MetricsRegistryTest, ReadThroughMetricsAreCurrentAtEveryRead) {
  MetricsRegistry registry;
  int64_t owned_total = 3;
  double owned_level = 0.5;
  Counter* c = registry.AddCounter("owned_total", "Owned elsewhere.", false,
                                   [&owned_total] { return owned_total * 1.0; });
  Gauge* g = registry.AddGauge("owned_level", "Owned elsewhere.", true,
                               [&owned_level] { return owned_level; });
  EXPECT_DOUBLE_EQ(c->value(), 3.0);
  EXPECT_DOUBLE_EQ(g->value(), 0.5);
  EXPECT_TRUE(g->profiling());
  owned_total = 7;
  owned_level = -2.0;
  EXPECT_DOUBLE_EQ(c->value(), 7.0);
  EXPECT_DOUBLE_EQ(g->value(), -2.0);
  EXPECT_NE(ExportPrometheusString(registry).find("owned_total 7\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ProfilingFlagIsPerMetric) {
  MetricsRegistry registry;
  registry.AddCounter("det_total", "Deterministic.");
  Gauge* wall = registry.AddGauge("wall_s", "Wall clock.", /*profiling=*/true);
  EXPECT_FALSE(registry.Find("det_total")->profiling());
  EXPECT_TRUE(wall->profiling());
}

// ---------------------------------------------------------------------------
// Histogram bucket edges and quantiles
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketEdgesAreUpperInclusive) {
  MetricsRegistry registry;
  Histogram* h = registry.AddHistogram("h", "H.", {1.0, 2.0, 4.0});
  // Exactly on a bound lands in that bucket (Prometheus `le` semantics).
  h->Record(1.0);   // bucket 0 (<= 1)
  h->Record(1.5);   // bucket 1 (<= 2)
  h->Record(2.0);   // bucket 1
  h->Record(4.0);   // bucket 2 (<= 4)
  h->Record(4.01);  // overflow (+Inf)
  h->Record(-1.0);  // bucket 0

  ASSERT_EQ(h->buckets().size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(h->buckets()[0], 2);
  EXPECT_EQ(h->buckets()[1], 2);
  EXPECT_EQ(h->buckets()[2], 1);
  EXPECT_EQ(h->buckets()[3], 1);
  EXPECT_EQ(h->count(), 6);
  EXPECT_DOUBLE_EQ(h->sum(), 1.0 + 1.5 + 2.0 + 4.0 + 4.01 - 1.0);
}

TEST(HistogramTest, QuantilesInterpolateWithinBuckets) {
  MetricsRegistry registry;
  Histogram* h = registry.AddHistogram("h", "H.", {10.0, 20.0, 40.0});
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 10; ++i) {
    h->Record(5.0);   // bucket 0
  }
  for (int i = 0; i < 10; ++i) {
    h->Record(15.0);  // bucket 1
  }
  // p50 sits exactly at the edge between buckets 0 and 1.
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 10.0);
  // p75 is halfway through bucket 1: 10 + 0.5 * (20 - 10).
  EXPECT_DOUBLE_EQ(h->Quantile(0.75), 15.0);
  // Quantiles landing in the overflow bucket clamp to the last finite bound.
  h->Record(1000.0);
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 40.0);
}

TEST(HistogramQuantileTest, MatchesHandComputedValues) {
  const std::vector<double> bounds = {1.0, 2.0};
  // 4 in (…, 1], 4 in (1, 2], 2 overflow.
  const std::vector<int64_t> counts = {4, 4, 2};
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.4), 1.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.6), 1.5);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.95), 2.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile({}, {0}, 0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Phase profiler
// ---------------------------------------------------------------------------

TEST(PhaseProfilerTest, AccumulatesAndMirrorsProfilingGauges) {
  MetricsRegistry registry;
  PhaseProfiler profiler;
  profiler.AttachRegistry(&registry, "wall_");
  const int a = profiler.RegisterPhase("alpha");
  const int b = profiler.RegisterPhase("beta");
  profiler.Add(a, 1.25);
  profiler.Add(a, 0.25);
  profiler.Add(b, 3.0);
  EXPECT_DOUBLE_EQ(profiler.seconds(a), 1.5);
  EXPECT_DOUBLE_EQ(profiler.seconds(b), 3.0);
  EXPECT_EQ(profiler.name(a), "alpha");

  const Metric* ga = registry.Find("wall_alpha_seconds");
  ASSERT_NE(ga, nullptr);
  EXPECT_TRUE(ga->profiling());
  EXPECT_DOUBLE_EQ(static_cast<const Gauge*>(ga)->value(), 1.5);

  {
    ScopedTimer timer(&profiler, b);
  }
  EXPECT_GE(profiler.seconds(b), 3.0);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, WrapsAroundKeepingTheNewestEvents) {
  FlightRecorder recorder(4);
  ASSERT_TRUE(recorder.enabled());
  for (int i = 0; i < 10; ++i) {
    recorder.Record(100.0 * i, FlightEventKind::kScheduled, i, i + 1, 2 * i);
  }
  EXPECT_EQ(recorder.total_recorded(), 10u);
  EXPECT_EQ(recorder.size(), 4u);
  const std::vector<FlightEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: sequence numbers 6..9 survive.
  for (size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].seq, 6 + k);
    EXPECT_EQ(events[k].job_id, static_cast<int>(6 + k));
    EXPECT_DOUBLE_EQ(events[k].time_s, 100.0 * static_cast<double>(6 + k));
  }
}

TEST(FlightRecorderTest, DepthZeroIsDisabledNoOp) {
  FlightRecorder recorder(0);
  EXPECT_FALSE(recorder.enabled());
  recorder.Record(1.0, FlightEventKind::kEvicted, 3);
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_TRUE(recorder.Events().empty());
}

TEST(FlightRecorderTest, DumpAndJsonCarryTheEventFields) {
  FlightRecorder recorder(8);
  recorder.Record(600.0, FlightEventKind::kScaled, 4, 2, 6);
  recorder.Record(1200.0, FlightEventKind::kSlowdown, -1, 0, 0, 0.7);
  std::ostringstream dump;
  recorder.Dump(dump);
  EXPECT_NE(dump.str().find("scaled"), std::string::npos);
  EXPECT_NE(dump.str().find("slowdown"), std::string::npos);
  std::string json;
  recorder.AppendJson(0, &json);
  EXPECT_NE(json.find("\"kind\": \"scaled\""), std::string::npos);
  EXPECT_NE(json.find("\"job\": 4"), std::string::npos);
}

// The auditor's violation reports land in the flight recorder, so the
// post-mortem dump names the failed invariant.
TEST(FlightRecorderTest, AuditorRecordsViolationsIntoTheRecorder) {
  FlightRecorder recorder(16);
  InvariantAuditor auditor;
  auditor.set_flight_recorder(&recorder);

  std::vector<Server> servers = BuildTestbed();
  // Corrupted view: a "running" job with no allocation at all.
  InvariantAuditor::JobView bad;
  bad.job_id = 42;
  bad.state = JobState::kRunning;
  bad.num_ps = 0;
  bad.num_workers = 0;
  InvariantAuditor::Counts counts;
  counts.submitted = 1;
  auditor.Check(600.0, servers, {bad}, counts);

  ASSERT_FALSE(auditor.ok());
  const std::vector<FlightEvent> events = recorder.Events();
  ASSERT_FALSE(events.empty());
  bool found = false;
  for (const FlightEvent& e : events) {
    if (e.kind == FlightEventKind::kAuditViolation &&
        e.detail.find("state:") != std::string::npos &&
        e.detail.find("42") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no kAuditViolation event naming job 42";
}

// ---------------------------------------------------------------------------
// Exporter golden files
// ---------------------------------------------------------------------------

// A small fixed registry + series + flight recorder exercising every metric
// kind, special characters, and the profiling flag.
struct GoldenFixture {
  MetricsRegistry registry;
  MetricsSeries series;
  FlightRecorder flight{4};

  GoldenFixture() {
    Counter* jobs = registry.AddCounter("demo_jobs_total", "Jobs \"done\".");
    Gauge* temp = registry.AddGauge("demo_temp", "Signed gauge.");
    Histogram* lat =
        registry.AddHistogram("demo_latency_seconds", "Latency.", {0.5, 2.0});
    Gauge* wall = registry.AddGauge("demo_wall_seconds", "Wall clock.",
                                    /*profiling=*/true);
    jobs->Add(3.0);
    temp->Set(-1.5);
    lat->Record(0.25);
    lat->Record(1.0);
    lat->Record(10.0);
    wall->Set(0.125);
    series.Sample(600.0, registry);
    jobs->Add(1.0);
    temp->Set(2.25);
    series.Sample(1200.0, registry);
    flight.Record(600.0, FlightEventKind::kScheduled, 1, 2, 4);
    flight.Record(900.0, FlightEventKind::kEvicted, 1, 0, 0, 0.0,
                  "server=3 \"down\"");
    flight.Record(1200.0, FlightEventKind::kAuditCheck, -1, 0, 0, 0.0, "full");
  }
};

void CompareToGolden(const std::string& actual, const std::string& filename) {
  const std::string path =
      std::string(OPTIMUS_SOURCE_DIR) + "/tests/golden/" + filename;
  if (std::getenv("OPTIMUS_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    os << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run with OPTIMUS_REGEN_GOLDEN=1 to create it";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str())
      << "exporter output drifted from " << filename
      << "; if intended, regenerate with OPTIMUS_REGEN_GOLDEN=1 and commit";
}

TEST(ExporterGoldenTest, PrometheusTextMatchesGolden) {
  GoldenFixture f;
  CompareToGolden(ExportPrometheusString(f.registry), "metrics.prom");
}

TEST(ExporterGoldenTest, JsonRunReportMatchesGolden) {
  GoldenFixture f;
  CompareToGolden(
      ExportJsonReportString(f.registry, &f.series, &f.flight), "run_report.json");
}

TEST(ExporterTest, IncludeProfilingFalseDropsWallMetrics) {
  GoldenFixture f;
  ExportOptions options;
  options.include_profiling = false;
  const std::string prom = ExportPrometheusString(f.registry, options);
  EXPECT_EQ(prom.find("demo_wall_seconds"), std::string::npos);
  EXPECT_NE(prom.find("demo_jobs_total"), std::string::npos);
  const std::string json =
      ExportJsonReportString(f.registry, nullptr, nullptr, options);
  EXPECT_EQ(json.find("demo_wall_seconds"), std::string::npos);
}

TEST(MetricsSeriesTest, ColumnsFreezeAtFirstSampleAndRowsAccumulate) {
  GoldenFixture f;
  ASSERT_EQ(f.series.num_rows(), 2u);
  // Times are tracked separately (the JSON exporter prepends a time_s
  // column); profiling metrics are excluded; histograms contribute _count
  // and _sum columns.
  ASSERT_FALSE(f.series.columns().empty());
  EXPECT_EQ(f.series.columns()[0], "demo_jobs_total");
  bool has_wall = false;
  bool has_hist_count = false;
  for (const std::string& c : f.series.columns()) {
    if (c == "demo_wall_seconds") {
      has_wall = true;
    }
    if (c == "demo_latency_seconds_count") {
      has_hist_count = true;
    }
  }
  EXPECT_FALSE(has_wall);
  EXPECT_TRUE(has_hist_count);
  EXPECT_DOUBLE_EQ(f.series.times()[0], 600.0);
  EXPECT_DOUBLE_EQ(f.series.times()[1], 1200.0);
}

// JSON has no NaN/Inf and Prometheus spells them +Inf/-Inf/NaN: a gauge that
// goes non-finite must leave both exports parseable.
TEST(ExporterTest, NonFiniteValuesExportAsNullAndPrometheusSpellings) {
  MetricsRegistry registry;
  Gauge* pos = registry.AddGauge("demo_pos", "Positive infinity.");
  Gauge* neg = registry.AddGauge("demo_neg", "Negative infinity.");
  Gauge* nan = registry.AddGauge("demo_nan", "Not a number.");
  Histogram* lat = registry.AddHistogram("demo_lat", "Latency.", {1.0});
  pos->Set(std::numeric_limits<double>::infinity());
  neg->Set(-std::numeric_limits<double>::infinity());
  nan->Set(std::numeric_limits<double>::quiet_NaN());
  lat->Record(std::numeric_limits<double>::infinity());
  MetricsSeries series;
  series.Sample(600.0, registry);

  const std::string json = ExportJsonReportString(registry, &series, nullptr);
  JsonValue report;
  std::string error;
  ASSERT_TRUE(ParseJson(json, "report", &report, &error)) << error << "\n" << json;
  const JsonValue* metrics = report.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  for (const char* name : {"demo_pos", "demo_neg", "demo_nan"}) {
    ASSERT_NE(metrics->Find(name), nullptr) << name;
    EXPECT_TRUE(metrics->Find(name)->Find("value")->is_null()) << name;
  }
  EXPECT_TRUE(metrics->Find("demo_lat")->Find("sum")->is_null());
  const std::vector<JsonValue>& rows = report.Find("series")->Find("rows")->AsArray();
  ASSERT_EQ(rows.size(), 1u);
  const std::vector<JsonValue>& row = rows[0].AsArray();
  ASSERT_EQ(row.size(), 6u);  // time_s, three gauges, _count, _sum
  EXPECT_EQ(row[0].AsDouble(), 600.0);
  EXPECT_TRUE(row[1].is_null());
  EXPECT_TRUE(row[2].is_null());
  EXPECT_TRUE(row[3].is_null());
  EXPECT_EQ(row[4].AsDouble(), 1.0);
  EXPECT_TRUE(row[5].is_null());

  // Every sample line is "<name>[{labels}] <value>", and every value parses
  // in the exposition format's number grammar.
  const std::string prom = ExportPrometheusString(registry);
  std::istringstream lines(prom);
  std::string line;
  std::map<std::string, std::string> samples;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    if (value != "+Inf" && value != "-Inf" && value != "NaN") {
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      EXPECT_TRUE(end != value.c_str() && *end == '\0') << line;
      EXPECT_EQ(value.find_first_of("in"), std::string::npos) << line;
    }
    samples[line.substr(0, space)] = value;
  }
  EXPECT_EQ(samples["demo_pos"], "+Inf");
  EXPECT_EQ(samples["demo_neg"], "-Inf");
  EXPECT_EQ(samples["demo_nan"], "NaN");
  EXPECT_EQ(samples["demo_lat_sum"], "+Inf");
  EXPECT_EQ(samples["demo_lat_count"], "1");
}

// A reference rendering of the report's "series" section from recorded
// values, built from scratch with printf (null for non-finite).
std::string ReferenceSeriesSection(const std::vector<std::string>& columns,
                                   const std::vector<std::vector<double>>& rows) {
  const auto number = [](double v) {
    if (!std::isfinite(v)) {
      return std::string("null");
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  std::string out = "  \"series\": {";
  if (!rows.empty()) {
    out += "\n    \"columns\": [\"time_s\"";
    for (const std::string& c : columns) {
      out += ", \"" + c + "\"";
    }
    out += "],\n    \"rows\": [";
    for (size_t r = 0; r < rows.size(); ++r) {
      out += r == 0 ? "\n      [" : ",\n      [";
      for (size_t c = 0; c < rows[r].size(); ++c) {
        out += (c == 0 ? "" : ", ") + number(rows[r][c]);
      }
      out += "]";
    }
    out += "\n    ]\n  ";
  }
  return out + "},\n";
}

std::string SeriesSection(const std::string& report) {
  const size_t begin = report.find("  \"series\": {");
  const size_t end = report.find("  \"flight_recorder\": ");
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(end, std::string::npos);
  return report.substr(begin, end - begin);
}

// Rows are rendered once at sample time; exports taken between samples must
// still equal a from-scratch rendering of every row so far.
TEST(MetricsSeriesTest, InterleavedSamplesAndExportsMatchReferenceRendering) {
  MetricsRegistry registry;
  Counter* jobs = registry.AddCounter("demo_jobs_total", "Jobs.");
  Gauge* temp = registry.AddGauge("demo_temp", "Gauge.");
  Histogram* lat = registry.AddHistogram("demo_latency_seconds", "Latency.", {0.5, 2.0});
  Gauge* wall = registry.AddGauge("demo_wall_seconds", "Wall.", /*profiling=*/true);
  MetricsSeries series;
  const std::vector<std::string> columns = {"demo_jobs_total", "demo_temp",
                                            "demo_latency_seconds_count",
                                            "demo_latency_seconds_sum"};
  std::vector<std::vector<double>> rows;
  EXPECT_EQ(SeriesSection(ExportJsonReportString(registry, &series, nullptr)),
            ReferenceSeriesSection(columns, rows));

  Rng rng(17);
  for (int round = 0; round < 6; ++round) {
    for (int k = 0; k <= round % 3; ++k) {
      jobs->Add(1.0);
      temp->Set(rng.Uniform(-1e6, 1e6) * (round == 4 ? 1e300 : 1.0));
      if (round == 3) {
        temp->Set(std::numeric_limits<double>::quiet_NaN());
      }
      lat->Record(rng.Uniform(0.0, 3.0));
      wall->Set(rng.Uniform(0.0, 1.0));
      const double t = 600.0 * static_cast<double>(rows.size() + 1) + rng.Uniform(0, 1);
      series.Sample(t, registry);
      rows.push_back({t, jobs->value(), temp->value(),
                      static_cast<double>(lat->count()), lat->sum()});
    }
    const std::string report = ExportJsonReportString(registry, &series, nullptr);
    EXPECT_EQ(SeriesSection(report), ReferenceSeriesSection(columns, rows))
        << "after " << rows.size() << " rows";
    ASSERT_EQ(series.num_rows(), rows.size());
    JsonValue parsed;
    std::string error;
    EXPECT_TRUE(ParseJson(report, "report", &parsed, &error)) << error;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: simulator exports are bitwise thread-count invariant
// ---------------------------------------------------------------------------

// The golden-trace pinned scenario, parameterized over threads / faults / obs
// and engine.
std::unique_ptr<Simulator> MakeScenario(int threads, bool faulted, bool obs_on,
                                        SimEngine engine = SimEngine::kInterval) {
  SimulatorConfig config;
  config.seed = 7;
  config.max_sim_time_s = 2e5;
  config.threads = threads;
  config.engine = engine;
  config.obs.enabled = obs_on;
  config.obs.per_interval_series = obs_on;
  if (faulted) {
    std::string error;
    const bool ok = ParseFaultPlan(
        "crash@1800:server=2,recover=5400;"
        "rack@4200:servers=6-8,recover=6600;"
        "slow@2400:factor=0.7,duration=1800",
        &config.fault.plan, &error);
    EXPECT_TRUE(ok) << error;
    config.fault.task_failure_prob = 0.02;
    config.fault.checkpoint_period_s = 3600.0;
  }
  WorkloadConfig workload;
  workload.num_jobs = 6;
  workload.arrival_window_s = 2400.0;
  Rng rng(config.seed ^ 0x5eedULL);
  return std::make_unique<Simulator>(config, BuildTestbed(),
                                     GenerateWorkload(workload, &rng));
}

const char* EngineName(SimEngine engine) {
  return engine == SimEngine::kEvents ? "events" : "interval";
}

// Deterministic fingerprint of a finished run's observability output: the
// profiling-free registry export, the full flight-recorder JSON (sequence
// numbers included), and the series row count.
std::string ObservabilityFingerprint(Simulator* sim) {
  ExportOptions options;
  options.include_profiling = false;
  std::string out = ExportPrometheusString(sim->registry(), options);
  sim->flight_recorder().AppendJson(0, &out);
  return out + "\nrows=" + std::to_string(sim->series().num_rows()) + "\n";
}

TEST(SimObservabilityTest, ExportsAreBitwiseIdenticalAcrossThreadsAndFaults) {
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    for (const bool faulted : {false, true}) {
      std::unique_ptr<Simulator> base = MakeScenario(1, faulted, true, engine);
      base->Run();
      const std::string want = ObservabilityFingerprint(base.get());
      EXPECT_NE(want.find("optimus_jobs_completed_total"), std::string::npos);
      for (const int threads : {2, 8}) {
        std::unique_ptr<Simulator> sim = MakeScenario(threads, faulted, true, engine);
        sim->Run();
        EXPECT_EQ(ObservabilityFingerprint(sim.get()), want)
            << "observability diverged at threads=" << threads
            << " faulted=" << faulted << " engine=" << EngineName(engine);
      }
    }
  }
}

TEST(SimObservabilityTest, DisablingObservabilityLeavesSimulationUnchanged) {
  std::unique_ptr<Simulator> on = MakeScenario(1, true, true);
  std::unique_ptr<Simulator> off = MakeScenario(1, true, false);
  const RunMetrics a = on->Run();
  const RunMetrics b = off->Run();
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_EQ(a.jcts, b.jcts);
  EXPECT_EQ(a.total_scalings, b.total_scalings);
  EXPECT_EQ(a.job_evictions, b.job_evictions);
  EXPECT_EQ(a.task_failures, b.task_failures);
  EXPECT_DOUBLE_EQ(a.rolled_back_steps, b.rolled_back_steps);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  // Off really is off.
  EXPECT_EQ(off->registry().size(), 0u);
  EXPECT_FALSE(off->flight_recorder().enabled());
  EXPECT_EQ(off->series().num_rows(), 0u);
}

// A counter's or gauge's exported value; NaN (and a failure) when missing.
double RegistryScalar(const MetricsRegistry& reg, const std::string& name) {
  const Metric* m = reg.Find(name);
  EXPECT_NE(m, nullptr) << name;
  if (m == nullptr) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return m->kind() == MetricKind::kCounter ? static_cast<const Counter*>(m)->value()
                                           : static_cast<const Gauge*>(m)->value();
}

// Every total the registry exports and the run also keeps is bitwise equal
// to the run's own: the RunMetrics counts, the arrivals the trace recorded,
// the simulated clock, and each profiler phase.
void ExpectRegistryMatchesRun(const Simulator& sim, const RunMetrics& m,
                              const std::string& where) {
  int64_t arrivals = 0;
  for (const SimEvent& e : sim.trace().events()) {
    arrivals += e.type == SimEventType::kArrival ? 1 : 0;
  }
  const std::pair<const char*, double> pairs[] = {
      {"optimus_jobs_submitted_total", static_cast<double>(arrivals)},
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
      {"optimus_sim_time_seconds", sim.now_s()},
      {"optimus_wall_faults_seconds", m.wall_faults_s},
      {"optimus_wall_schedule_seconds", m.wall_schedule_s},
      {"optimus_wall_advance_seconds", m.wall_advance_s},
      {"optimus_wall_audit_seconds", m.wall_audit_s},
      {"optimus_wall_events_seconds", m.wall_events_s},
  };
  for (const auto& [name, expected] : pairs) {
    EXPECT_EQ(RegistryScalar(sim.registry(), name), expected) << name << " " << where;
  }
}

TEST(SimObservabilityTest, RegistryMirrorsRunMetricsAndWallPhases) {
  for (const SimEngine engine : {SimEngine::kInterval, SimEngine::kEvents}) {
    SCOPED_TRACE(EngineName(engine));
    std::unique_ptr<Simulator> sim = MakeScenario(1, true, true, engine);
    const RunMetrics metrics = sim->Run();
    const MetricsRegistry& reg = sim->registry();
    ExpectRegistryMatchesRun(*sim, metrics, "after Run");
    // Run() returns the live view's totals.
    ExpectRegistryMatchesRun(*sim, sim->metrics(), "metrics() after Run");

    auto counter = [&reg](const char* name) { return RegistryScalar(reg, name); };
    EXPECT_EQ(counter("optimus_jobs_submitted_total"), metrics.total_jobs);
    EXPECT_GT(counter("optimus_speed_probes_total"), 0.0);
    EXPECT_GE(counter("optimus_speed_probes_total"),
              counter("optimus_speed_evals_total"));
    EXPECT_GT(counter("optimus_alloc_grants_total"), 0.0);
    EXPECT_GT(counter("optimus_conv_fits_total"), 0.0);
    EXPECT_GT(counter("optimus_speedmodel_fits_total"), 0.0);

    // JCT histogram count equals completed jobs; its sum equals the JCT sum.
    const Metric* jct = reg.Find("optimus_jct_seconds");
    ASSERT_NE(jct, nullptr);
    const Histogram* h = static_cast<const Histogram*>(jct);
    EXPECT_EQ(h->count(), metrics.completed_jobs);
    double jct_sum = 0.0;
    for (double v : metrics.jcts) {
      jct_sum += v;
    }
    EXPECT_NEAR(h->sum(), jct_sum, 1e-6);

    // Wall phases are profiling gauges.
    const Metric* wall = reg.Find("optimus_wall_schedule_seconds");
    ASSERT_NE(wall, nullptr);
    EXPECT_TRUE(wall->profiling());

    // Flight recorder saw the run's lifecycle.
    EXPECT_GT(sim->flight_recorder().total_recorded(), 0u);
    bool saw_crash = false;
    bool saw_audit = false;
    for (const FlightEvent& e : sim->flight_recorder().Events()) {
      saw_crash |= e.kind == FlightEventKind::kServerCrash;
      saw_audit |= e.kind == FlightEventKind::kAuditCheck;
    }
    EXPECT_TRUE(saw_audit);
    (void)saw_crash;  // the tail may have rotated past the early crashes
  }
}

// Between two rounds of the event engine — after a completion the last round
// has not seen — the export still equals the run's own totals.
TEST(SimObservabilityTest, EventEngineExportIsCurrentBetweenRounds) {
  std::unique_ptr<Simulator> full = MakeScenario(1, true, true, SimEngine::kEvents);
  full->Run();
  double first_done = -1.0;
  for (const SimEvent& e : full->trace().events()) {
    if (e.type == SimEventType::kCompleted) {
      first_done = e.time_s;
      break;
    }
  }
  ASSERT_GT(first_done, 0.0);
  const double interval_s = SimulatorConfig().interval_s;
  ASSERT_NE(std::fmod(first_done, interval_s), 0.0)
      << "the first completion must fall strictly between two rounds";

  std::unique_ptr<Simulator> sim = MakeScenario(1, true, true, SimEngine::kEvents);
  sim->AdvanceTo(first_done);
  ASSERT_GE(sim->metrics().completed_jobs, 1);
  EXPECT_EQ(sim->now_s(), first_done);
  ExpectRegistryMatchesRun(*sim, sim->metrics(), "between rounds");
  // The series row of the last round predates the completion; the export
  // does not.
  EXPECT_LT(sim->series().times().back(), first_done);
}

}  // namespace
}  // namespace optimus
