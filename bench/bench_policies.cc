// Policy-registry bench: the full policy catalog compared on one scenario,
// plus a bitwise-determinism sweep over every registered policy
// (BENCH_policies.json).
//
// Two sections:
//
//   comparison — every registered policy on scenarios/batch_adaptive.json
//       (synchronous communication-heavy jobs with wide admissible batch
//       ranges). The acceptance point: at least one non-Optimus-family policy
//       must beat plain `optimus` on average JCT — the batch-adaptive goodput
//       policy is the expected winner on this workload.
//
//   determinism — every policy x engines {interval, events} x threads: each
//       cell must reproduce its (policy, engine) reference bitwise (JCTs,
//       trace digest, counters). Any divergence exits 3. Both sections run
//       under --smoke (tools/check.sh and CI); --smoke trims the grid to
//       threads {1, 2}.

#include <cstdio>
#include <chrono>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/sched/scheduler_registry.h"
#include "src/sim/simulator.h"
#include "src/workload/scenario.h"

namespace {

using namespace optimus;

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buf);
}

double MeanJct(const std::vector<double>& jcts) {
  if (jcts.empty()) return 0.0;
  return std::accumulate(jcts.begin(), jcts.end(), 0.0) / jcts.size();
}

// Everything the run computes, fingerprinted for bitwise comparison across
// thread-count cells of one (policy, engine).
struct RunFingerprint {
  std::vector<double> jcts;
  int completed = 0;
  int64_t events_processed = 0;
  int total_scalings = 0;
  int64_t audit_violations = 0;
  uint64_t trace_digest = 0;
  int64_t trace_records = 0;

  bool Matches(const RunFingerprint& other, std::string* why) const {
    auto fail = [&](const std::string& what) {
      *why = what;
      return false;
    };
    if (jcts != other.jcts) return fail("jcts");
    if (completed != other.completed) return fail("completed_jobs");
    if (events_processed != other.events_processed) {
      return fail("events_processed");
    }
    if (total_scalings != other.total_scalings) return fail("total_scalings");
    if (audit_violations != other.audit_violations) {
      return fail("audit_violations");
    }
    if (trace_digest != other.trace_digest) return fail("trace_digest");
    if (trace_records != other.trace_records) return fail("trace_records");
    return true;
  }
};

struct CellRun {
  RunFingerprint fp;
  RunMetrics metrics;
  double wall_s = 0.0;
  double sim_s = 0.0;
};

CellRun RunSim(const SimulatorConfig& config, std::vector<Server> servers,
               std::vector<JobSpec> specs) {
  Simulator sim(config, std::move(servers), std::move(specs));
  CellRun run;
  const auto start = std::chrono::steady_clock::now();
  run.metrics = sim.Run();
  const auto end = std::chrono::steady_clock::now();
  run.wall_s = std::chrono::duration<double>(end - start).count();
  run.sim_s = sim.now_s();
  run.fp.jcts = run.metrics.jcts;
  run.fp.completed = run.metrics.completed_jobs;
  run.fp.events_processed = run.metrics.events_processed;
  run.fp.total_scalings = run.metrics.total_scalings;
  run.fp.audit_violations = run.metrics.audit_violations;
  run.fp.trace_digest = sim.trace().digest();
  run.fp.trace_records = static_cast<int64_t>(sim.trace().size());
  return run;
}

// ---------------------------------------------------------------------------
// Section 1: full-catalog comparison on the batch-adaptive scenario.
// ---------------------------------------------------------------------------

bool RunComparison(const ScenarioSpec& scenario, JsonObject* section,
                   std::string* why) {
  const std::vector<std::string> policies = SchedulerRegistry::Global().Names();
  TablePrinter table(
      {"policy", "family", "completed", "avg JCT (s)", "vs optimus"});
  double optimus_jct = 0.0;
  std::string best_other;
  double best_other_jct = 0.0;
  std::vector<JsonObject> rows;
  for (const std::string& policy : policies) {
    const SchedulerPolicyInfo* info = SchedulerRegistry::Global().Find(policy);
    const CellRun run = RunSim(scenario.MakeSimConfig(policy),
                               scenario.cluster.Build(),
                               scenario.JobsForRepeat());
    const double avg_jct = MeanJct(run.metrics.jcts);
    if (policy == "optimus") {
      optimus_jct = avg_jct;
    } else if (info->allocator_family != AllocatorPolicy::kOptimus &&
               (best_other.empty() || avg_jct < best_other_jct)) {
      best_other = policy;
      best_other_jct = avg_jct;
    }
    table.AddRow({policy, AllocatorPolicyName(info->allocator_family),
                  std::to_string(run.fp.completed),
                  TablePrinter::FormatDouble(avg_jct, 1),
                  optimus_jct > 0.0
                      ? TablePrinter::FormatDouble(avg_jct / optimus_jct, 2) + "x"
                      : "-"});
    JsonObject row;
    row.Set("policy", policy);
    row.Set("family", AllocatorPolicyName(info->allocator_family));
    row.Set("completed_jobs", run.fp.completed);
    row.Set("avg_jct_s", avg_jct);
    row.Set("makespan_s", run.sim_s);
    row.Set("total_scalings", run.fp.total_scalings);
    row.Set("trace_digest", DigestHex(run.fp.trace_digest));
    SetPerfColumns(&row, run.wall_s, run.sim_s);
    rows.push_back(row);
  }
  table.Print(std::cout);

  const bool adaptive_wins =
      !best_other.empty() && best_other_jct < optimus_jct;
  std::cout << "  best non-Optimus-family policy: "
            << (best_other.empty() ? "(none)" : best_other) << " at "
            << TablePrinter::FormatDouble(best_other_jct, 1) << " s vs optimus "
            << TablePrinter::FormatDouble(optimus_jct, 1) << " s ("
            << (adaptive_wins ? "wins" : "OPTIMUS WINS") << ")\n";
  section->Set("rows", rows);
  section->Set("policies_compared", static_cast<int64_t>(policies.size()));
  section->Set("optimus_avg_jct_s", optimus_jct);
  section->Set("best_other_policy", best_other);
  section->Set("best_other_avg_jct_s", best_other_jct);
  section->Set("adaptive_wins", adaptive_wins);
  if (!adaptive_wins) {
    *why = "no non-Optimus-family policy beat optimus (" +
           std::to_string(optimus_jct) + " s) on " + scenario.name;
  }
  return adaptive_wins;
}

// ---------------------------------------------------------------------------
// Section 2: determinism sweep over every registered policy.
// ---------------------------------------------------------------------------

bool RunDeterminismSweep(const ScenarioSpec& scenario, bool smoke,
                         std::vector<JsonObject>* rows, std::string* why) {
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 8};
  const std::vector<SimEngine> engines = {SimEngine::kInterval,
                                          SimEngine::kEvents};

  TablePrinter table({"policy", "engine", "threads", "completed",
                      "trace digest", "match"});
  bool ok = true;
  for (const std::string& policy : SchedulerRegistry::Global().Names()) {
    for (const SimEngine engine : engines) {
      // The two engines legitimately differ from each other; the bitwise
      // contract is per (policy, engine), across threads.
      bool have_reference = false;
      RunFingerprint reference;
      for (const int threads : thread_counts) {
        SimulatorConfig config = scenario.MakeSimConfig(policy);
        config.engine = engine;
        config.threads = threads;
        const CellRun run =
            RunSim(config, scenario.cluster.Build(), scenario.JobsForRepeat());
        std::string mismatch;
        bool match = true;
        if (!have_reference) {
          reference = run.fp;
          have_reference = true;
        } else if (!run.fp.Matches(reference, &mismatch)) {
          match = false;
          ok = false;
          *why = policy + " " + SimEngineName(engine) + " threads=" +
                 std::to_string(threads) + " diverged on " + mismatch;
        }
        table.AddRow({policy, SimEngineName(engine), std::to_string(threads),
                      std::to_string(run.fp.completed), DigestHex(run.fp.trace_digest),
                      match ? "ok" : "DIVERGED"});
        JsonObject row;
        row.Set("policy", policy);
        row.Set("engine", SimEngineName(engine));
        row.Set("threads", threads);
        row.Set("completed_jobs", run.fp.completed);
        row.Set("trace_digest", DigestHex(run.fp.trace_digest));
        row.Set("trace_records", run.fp.trace_records);
        row.Set("match", match);
        SetPerfColumns(&row, run.wall_s, run.sim_s);
        rows->push_back(row);
      }
    }
  }
  table.Print(std::cout);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string json_path = BenchJsonPath(flags, "policies", smoke);
  const std::string scenario_path =
      flags.GetString("scenario", "scenarios/batch_adaptive.json");
  for (const std::string& key : flags.UnconsumedKeys()) {
    std::cerr << "unknown flag --" << key << "\n";
    return 1;
  }

  PrintExperimentHeader(
      "EXT: policy families",
      "Full SchedulerRegistry catalog (goodput / synergy / dl2 included) on "
      "the batch-adaptive workload, plus per-policy determinism",
      "every policy is bitwise identical across threads per engine; "
      "a non-Optimus-family policy (goodput expected) wins average JCT on the "
      "batch-adaptive scenario");

  ScenarioSpec scenario;
  std::string error;
  if (!LoadScenarioFile(scenario_path, &scenario, &error)) {
    std::cerr << "bad scenario: " << error << "\n";
    return 1;
  }

  bool ok = true;
  std::string divergence;
  JsonObject section;
  section.Set("smoke", smoke);
  section.Set("scenario", scenario_path);

  std::cout << "\nPolicy catalog on " << scenario_path << ":\n";
  JsonObject comparison;
  std::string comparison_why;
  if (!RunComparison(scenario, &comparison, &comparison_why)) {
    ok = false;
    divergence = comparison_why;
  }
  section.Set("comparison", comparison);

  std::cout << "\nDeterminism sweep (every policy x engine x threads):\n";
  std::vector<JsonObject> determinism_rows;
  bool determinism_ok = true;
  if (!RunDeterminismSweep(scenario, smoke, &determinism_rows, &divergence)) {
    determinism_ok = false;
  }
  ok = ok && determinism_ok;
  section.Set("determinism", determinism_rows);
  section.Set("determinism_ok", determinism_ok);

  if (ok) {
    std::cout << "\nall policies deterministic; catalog comparison passed\n";
  } else {
    std::cerr << "\nFAILURE: " << divergence << "\n";
  }
  section.Set("ok", ok);
  if (WriteBenchJsonSection(json_path, "policies", section)) {
    std::cout << "wrote section policies to " << json_path << "\n";
  }
  return ok ? 0 : 3;
}
