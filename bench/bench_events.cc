// Discrete-event kernel vs the interval engine: wall time to advance the
// same simulation over the same horizon, at cluster scale.
//
// Two arrival regimes at 1,000 jobs on 16,000 nodes, plus a 10,000-job row:
//
//   burst  — every job arrives inside the first five intervals
//            (bench_interval's regime): hundreds of jobs run concurrently,
//            so per-interval advance work and per-round event work are both
//            large and the scheduling rounds — identical in both engines —
//            are a sizable shared floor.
//   steady — arrivals spread across the horizon, and jobs train at realistic
//            dataset scale (the generator's default caps steps-per-epoch at
//            ~20 so toy experiments finish in simulated minutes; the headline
//            row raises the cap to 100, putting job lifetimes at a few
//            simulated hours, in line with the paper's workloads). ~100 jobs
//            run at once; the interval engine polls and refits every running
//            job every interval — a cost that grows quadratically with job
//            lifetime, because each refit rescans the whole accumulated loss
//            history — while the event engine touches each job only at its
//            own epoch events. This is the regime the event kernel targets
//            (and the headline speedup row).
//
// Both engines run the identical workload from the identical seed. Event
// rows across --threads must be bitwise identical (determinism contract);
// interval vs events is compared under the documented tolerance
// (docs/ALGORITHMS.md section 16): completed-job counts within
// max(3, 1% of submissions), average JCT within 15% — the engines consume
// per-job RNG streams at different cadences, so trajectories differ in the
// noise term but not in substance, and at a hard horizon cutoff a small
// fraction of near-boundary jobs can land on opposite sides of it.
// Any violation exits 3: speed that changes the answer is a bug.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/server.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"
#include "src/sim/workload.h"

namespace {

using namespace optimus;

struct RegimeSpec {
  std::string name;
  int jobs = 1000;
  int nodes = 16000;
  int horizon_intervals = 100;
  // Uniform arrivals land in [0, arrival_intervals * interval_s].
  int arrival_intervals = 5;
  // Dataset-downscaling cap handed to the workload generator (its default of
  // 20 keeps toy runs short; the headline regime uses 100 for realistic
  // multi-hour training jobs).
  int64_t target_steps_per_epoch = 20;
  bool headline = false;
};

struct RowSpec {
  std::string label;
  SimEngine engine = SimEngine::kInterval;
  int threads = 1;
};

struct RowResult {
  RunMetrics metrics;
  double wall_s = 0.0;
  double sim_s_per_wall_s = 0.0;
  double sim_s = 0.0;
};

constexpr uint64_t kSeed = 7;
constexpr double kIntervalS = 600.0;
// Cross-engine tolerances (documented in docs/ALGORITHMS.md section 16).
// The engines consume per-job RNG streams at different cadences, so noise
// terms differ; at a hard horizon cutoff a handful of near-boundary jobs can
// land on opposite sides of it.
constexpr double kJctTolerance = 0.15;
// Absolute floor; the effective tolerance is max(this, 1% of submissions) —
// longer-lived jobs put more of the population near the horizon boundary.
constexpr int kCompletedTolerance = 3;

int CompletedTolerance(int total_jobs) {
  return std::max(kCompletedTolerance, total_jobs / 100);
}

RowResult RunRowOnce(const RegimeSpec& regime, const RowSpec& row) {
  SimulatorConfig sim;
  sim.seed = kSeed;
  sim.threads = row.threads;
  sim.engine = row.engine;
  sim.audit = true;
  sim.max_sim_time_s = regime.horizon_intervals * kIntervalS;
  // Same fault load as bench_interval: scripted crash + slowdown, stochastic
  // container deaths, periodic checkpoints — both fault paths exercised.
  std::string error;
  OPTIMUS_CHECK(ParseFaultPlan(
      "crash@1800:server=2,recover=9000;slow@2400:factor=0.8,duration=1800",
      &sim.fault.plan, &error))
      << error;
  sim.fault.task_failure_prob = 0.005;
  sim.fault.checkpoint_period_s = 3600.0;
  // Dense loss feed for the interval engine (one sample every ~6 simulated
  // seconds, full-fidelity fits); the event engine observes the same curves
  // at its own cadence (conv_samples_per_epoch, default 2).
  sim.conv_samples_per_interval = 300;
  sim.conv_fit_points = 16384;

  WorkloadConfig workload;
  workload.num_jobs = regime.jobs;
  workload.arrival_window_s = regime.arrival_intervals * kIntervalS;
  workload.target_steps_per_epoch = regime.target_steps_per_epoch;

  Rng workload_rng(sim.seed ^ 0x5eedULL);
  std::vector<JobSpec> specs = GenerateWorkload(workload, &workload_rng);
  Simulator simulator(
      sim, BuildUniformCluster(regime.nodes, Resources(16, 80, 0, 1)),
      std::move(specs));

  RowResult result;
  const auto start = std::chrono::steady_clock::now();
  result.metrics = simulator.Run();
  const auto end = std::chrono::steady_clock::now();
  result.wall_s = std::chrono::duration<double>(end - start).count();
  result.sim_s = simulator.now_s();
  result.sim_s_per_wall_s =
      result.wall_s > 0.0 ? result.sim_s / result.wall_s : 0.0;
  return result;
}

bool MetricsIdentical(const RunMetrics& a, const RunMetrics& b, std::string* why);

// Best-of-two timing: wall clock on a shared host is noisy, the simulation
// is not — the repeat must reproduce the metrics bitwise.
RowResult RunRow(const RegimeSpec& regime, const RowSpec& row) {
  RowResult best = RunRowOnce(regime, row);
  RowResult again = RunRowOnce(regime, row);
  std::string why;
  OPTIMUS_CHECK(MetricsIdentical(best.metrics, again.metrics, &why))
      << regime.name << "/" << row.label
      << " not deterministic across repeats: " << why;
  if (again.wall_s < best.wall_s) {
    best = again;
  }
  return best;
}

// Bitwise equality of everything the simulation computes; wall_* phase
// timers are host measurements and intentionally excluded.
bool MetricsIdentical(const RunMetrics& a, const RunMetrics& b,
                      std::string* why) {
  auto fail = [&](const std::string& what) {
    *why = what;
    return false;
  };
  if (a.completed_jobs != b.completed_jobs) return fail("completed_jobs");
  if (a.jcts != b.jcts) return fail("jcts");
  if (a.events_processed != b.events_processed) return fail("events_processed");
  if (a.scaling_overhead_fraction != b.scaling_overhead_fraction) {
    return fail("scaling_overhead_fraction");
  }
  if (a.straggler_replacements != b.straggler_replacements) {
    return fail("straggler_replacements");
  }
  if (a.total_scalings != b.total_scalings) return fail("total_scalings");
  if (a.server_crashes != b.server_crashes) return fail("server_crashes");
  if (a.server_recoveries != b.server_recoveries) return fail("server_recoveries");
  if (a.task_failures != b.task_failures) return fail("task_failures");
  if (a.job_evictions != b.job_evictions) return fail("job_evictions");
  if (a.backoff_deferrals != b.backoff_deferrals) return fail("backoff_deferrals");
  if (a.checkpoints_taken != b.checkpoints_taken) return fail("checkpoints_taken");
  if (a.rolled_back_steps != b.rolled_back_steps) return fail("rolled_back_steps");
  if (a.audit_checks != b.audit_checks) return fail("audit_checks");
  if (a.audit_violations != b.audit_violations) return fail("audit_violations");
  if (a.timeline.size() != b.timeline.size()) return fail("timeline size");
  for (size_t i = 0; i < a.timeline.size(); ++i) {
    if (a.timeline[i].time_s != b.timeline[i].time_s ||
        a.timeline[i].running_tasks != b.timeline[i].running_tasks ||
        a.timeline[i].worker_cpu_util_pct != b.timeline[i].worker_cpu_util_pct ||
        a.timeline[i].ps_cpu_util_pct != b.timeline[i].ps_cpu_util_pct) {
      return fail("timeline point " + std::to_string(i));
    }
  }
  return true;
}

// Cross-engine parity under the documented tolerance.
bool EnginesAgree(const RunMetrics& interval, const RunMetrics& events,
                  int total_jobs, std::string* why) {
  if (std::abs(interval.completed_jobs - events.completed_jobs) >
      CompletedTolerance(total_jobs)) {
    *why = "completed_jobs: interval=" + std::to_string(interval.completed_jobs) +
           " events=" + std::to_string(events.completed_jobs);
    return false;
  }
  if (interval.avg_jct_s > 0.0) {
    const double rel =
        std::abs(events.avg_jct_s - interval.avg_jct_s) / interval.avg_jct_s;
    if (rel > kJctTolerance) {
      *why = "avg_jct_s: interval=" + std::to_string(interval.avg_jct_s) +
             " events=" + std::to_string(events.avg_jct_s) +
             " (rel " + std::to_string(rel) + " > " +
             std::to_string(kJctTolerance) + ")";
      return false;
    }
  }
  if (interval.audit_violations != 0 || events.audit_violations != 0) {
    *why = "audit violations";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  // --smoke: a seconds-scale subset for tools/check.sh and CI.
  const bool smoke = flags.GetBool("smoke", false);
  const std::string json_path = BenchJsonPath(flags, "events", smoke);
  for (const std::string& key : flags.UnconsumedKeys()) {
    std::cerr << "unknown flag --" << key << "\n";
    return 1;
  }

  PrintExperimentHeader(
      "EXT: discrete-event kernel",
      "Event-driven advancement (lazy per-job epochs, analytic completion "
      "times) vs fixed-interval polling over the same horizon",
      "The event engine advances the steady-state 1k-job/16k-node simulation "
      ">= 10x faster, with bitwise-identical event rows across threads and "
      "interval parity within the documented tolerance");

  std::vector<RegimeSpec> regimes;
  if (smoke) {
    regimes.push_back({"burst", 60, 200, 8, 2, 20, false});
    regimes.push_back({"steady", 60, 200, 10, 8, 20, true});
  } else {
    regimes.push_back({"burst", 1000, 16000, 100, 5, 20, false});
    regimes.push_back({"steady", 1000, 16000, 120, 100, 100, true});
    regimes.push_back({"steady-10k", 10000, 16000, 120, 100, 20, false});
  }

  TablePrinter table({"regime", "configuration", "wall (s)", "sim s / wall s",
                      "events", "faults (s)", "schedule (s)", "advance (s)",
                      "audit (s)", "events (s)"});
  std::vector<JsonObject> json_rows;
  bool ok = true;
  std::string divergence;
  double headline_speedup = 0.0;
  std::vector<JsonObject> regime_sections;
  for (const RegimeSpec& regime : regimes) {
    std::vector<RowSpec> rows;
    rows.push_back({"interval @ 1t", SimEngine::kInterval, 1});
    for (const int threads : {1, 2, 8}) {
      rows.push_back({"events @ " + std::to_string(threads) + "t",
                      SimEngine::kEvents, threads});
    }
    std::vector<RowResult> results;
    for (const RowSpec& row : rows) {
      const RowResult r = RunRow(regime, row);
      // Event rows must be bitwise identical to each other for any thread
      // count; the first event row is the reference.
      if (row.engine == SimEngine::kEvents && results.size() > 1) {
        std::string why;
        if (!MetricsIdentical(results[1].metrics, r.metrics, &why)) {
          ok = false;
          divergence = regime.name + "/" + row.label + ": " + why;
        }
      }
      table.AddRow({regime.name, row.label,
                    TablePrinter::FormatDouble(r.wall_s, 3),
                    TablePrinter::FormatDouble(r.sim_s_per_wall_s, 0),
                    std::to_string(r.metrics.events_processed),
                    TablePrinter::FormatDouble(r.metrics.wall_faults_s, 3),
                    TablePrinter::FormatDouble(r.metrics.wall_schedule_s, 3),
                    TablePrinter::FormatDouble(r.metrics.wall_advance_s, 3),
                    TablePrinter::FormatDouble(r.metrics.wall_audit_s, 3),
                    TablePrinter::FormatDouble(r.metrics.wall_events_s, 3)});
      JsonObject jr;
      jr.Set("regime", regime.name);
      jr.Set("label", row.label);
      jr.Set("engine", SimEngineName(row.engine));
      jr.Set("threads", row.threads);
      SetPerfColumns(&jr, r.wall_s, r.sim_s);
      jr.Set("events_processed", r.metrics.events_processed);
      jr.Set("completed_jobs", r.metrics.completed_jobs);
      jr.Set("avg_jct_s", r.metrics.avg_jct_s);
      jr.Set("wall_faults_s", r.metrics.wall_faults_s);
      jr.Set("wall_schedule_s", r.metrics.wall_schedule_s);
      jr.Set("wall_advance_s", r.metrics.wall_advance_s);
      jr.Set("wall_audit_s", r.metrics.wall_audit_s);
      jr.Set("wall_events_s", r.metrics.wall_events_s);
      jr.Set("audit_checks", r.metrics.audit_checks);
      jr.Set("audit_violations", r.metrics.audit_violations);
      json_rows.push_back(jr);
      results.push_back(r);
    }

    // Cross-engine parity under the documented tolerance.
    std::string why;
    if (!EnginesAgree(results[0].metrics, results[1].metrics, regime.jobs,
                      &why)) {
      ok = false;
      divergence = regime.name + " interval vs events: " + why;
    }

    const double interval_wall = results[0].wall_s;
    const double events_wall = results[1].wall_s;
    const double speedup =
        events_wall > 0.0 ? interval_wall / events_wall : 0.0;
    if (regime.headline) {
      headline_speedup = speedup;
    }
    JsonObject rs;
    rs.Set("regime", regime.name);
    rs.Set("jobs", regime.jobs);
    rs.Set("nodes", regime.nodes);
    rs.Set("horizon_intervals", regime.horizon_intervals);
    rs.Set("arrival_intervals", regime.arrival_intervals);
    rs.Set("target_steps_per_epoch", regime.target_steps_per_epoch);
    rs.Set("interval_wall_s", interval_wall);
    rs.Set("events_wall_s_1t", events_wall);
    rs.Set("speedup_events_1t", speedup);
    rs.Set("headline", regime.headline);
    regime_sections.push_back(rs);
  }
  table.Print(std::cout);

  std::cout << "\nheadline (steady, events @ 1t vs interval @ 1t): "
            << TablePrinter::FormatDouble(headline_speedup, 2)
            << "x (target >= 10x)\n";
  if (ok) {
    std::cout << "event rows bitwise identical across threads; engines agree "
                 "within tolerance\n";
  } else {
    std::cerr << "METRICS DIVERGED: " << divergence << "\n";
  }

  JsonObject section;
  section.Set("smoke", smoke);
  section.Set("interval_s", kIntervalS);
  section.Set("seed", static_cast<int64_t>(kSeed));
  section.Set("jct_tolerance", kJctTolerance);
  section.Set("completed_tolerance_floor", kCompletedTolerance);
  section.Set("completed_tolerance_frac", 0.01);
  section.Set("headline_speedup", headline_speedup);
  section.Set("metrics_ok", ok);
  section.Set("regimes", regime_sections);
  section.Set("rows", json_rows);
  if (WriteBenchJsonSection(json_path, "event_kernel", section)) {
    std::cout << "wrote section event_kernel to " << json_path << "\n";
  }

  return ok ? 0 : 3;
}
