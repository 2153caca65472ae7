// perfbench_harness: runs one benchmark workload for a fixed time and prints
// its metrics. See perfbench/NOTES.md for the workloads and metric
// definitions; perfbench/run.py builds this binary and invokes it.
//
//   perfbench_harness --workload=NAME --seed=N --seconds=S --trace=0|1
//                     [--tiny] [--inject-bad-every=K] [--trace-out=PATH]
//
// Output: a "detail" JSON line (rep counts, per-rep times, percentile sample
// counts, failed checks) and, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. Exit 0 whenever a result is
// printed (correct or not); 2 on bad usage.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "perfbench/harness/tracer.h"
#include "perfbench/harness/workloads.h"
#include "src/common/stats.h"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Order and units of the reported metrics; BENCHMARK.json lists the same.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"run_s", "s"},      {"peak_rss_mib", "MiB"},
    {"ok_frac", "fraction"},   {"avg_jct_s", "s"},  {"makespan_s", "s"},
    {"interval_p50_ms", "ms"}, {"interval_p90_ms", "ms"},
};

constexpr Metric kPerLayer[] = {
    {"workload.parse_s", "s"},
    {"workload.generate_s", "s"},
    {"sim.construct_s", "s"},
    {"sim.advance_self_s", "s"},
    {"sim.events_s", "s"},
    {"sim.events_processed", "count"},
    {"sim.audit_s", "s"},
    {"sim.audit_checks", "count"},
    {"sim.faults_s", "s"},
    {"sim.first_round_s", "s"},
    {"sched.allocate_s", "s"},
    {"sched.allocate_calls", "count"},
    {"sched.allocate_p50_ms", "ms"},
    {"sched.schedule_rest_s", "s"},
    {"sched.speed_probes", "count"},
    {"sched.speed_evals", "count"},
    {"sched.memo_hit_ratio", "ratio"},
    {"sched.alloc_pops", "count"},
    {"sched.alloc_grants", "count"},
    {"sched.grant_ratio", "ratio"},
    {"perfmodel.conv_fits", "count"},
    {"perfmodel.conv_fit_hit_ratio", "ratio"},
    {"perfmodel.speed_fits", "count"},
    {"perfmodel.speed_fit_hit_ratio", "ratio"},
    {"solver.nnls_iterations", "count"},
    {"net.solves", "count"},
    {"net.flows", "count"},
    {"net.contended_ratio", "ratio"},
    {"obs.export_json_ms", "ms"},
    {"obs.export_prom_ms", "ms"},
    {"obs.stale_counters", "count"},
    {"service.read_p50_ms", "ms"},
    {"service.read_p90_ms", "ms"},
    {"service.write_p50_ms", "ms"},
    {"service.write_p90_ms", "ms"},
    {"service.parse_p50_us", "us"},
    {"service.what_if_p50_ms", "ms"},
    {"service.advance_p50_ms", "ms"},
    {"service.advance_p99_ms", "ms"},
    {"service.snapshot_json_p50_ms", "ms"},
    {"service.snapshot_prom_p50_ms", "ms"},
    {"service.submit_p50_ms", "ms"},
    {"service.kill_p50_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

// A percentile is reported only with at least this many samples beyond it.
constexpr double kMinSamplesBeyond = 10.0;

// Layer metrics that must be nonzero in a traced run of the workload: the
// layers it is meant to load (see NOTES.md). A zero means the layer was not
// reached or its counter is no longer exported, and fails the run.
std::vector<std::string> ExpectedLayers(const std::string& workload) {
  std::vector<std::string> names = {
      "workload.parse_s",     "workload.generate_s",  "sim.construct_s",
      "sim.advance_self_s",   "sim.events_processed", "sim.audit_checks",
      "sched.allocate_calls", "sched.allocate_s",     "sched.speed_probes",
      "sched.alloc_pops",     "obs.export_json_ms",   "obs.export_prom_ms",
  };
  if (workload == "fig12_scale") {
    names.insert(names.end(), {"sim.first_round_s", "sched.schedule_rest_s"});
  } else if (workload == "online_faults") {
    names.insert(names.end(), {"sim.events_s", "sim.faults_s", "perfmodel.conv_fits",
                               "perfmodel.speed_fits", "solver.nnls_iterations",
                               "net.solves", "net.flows"});
  } else {
    names.insert(names.end(),
                 {"service.read_p50_ms", "service.read_p90_ms", "service.write_p50_ms",
                  "service.write_p90_ms", "service.parse_p50_us",
                  "service.what_if_p50_ms", "service.advance_p50_ms",
                  "service.advance_p99_ms", "service.snapshot_json_p50_ms",
                  "service.snapshot_prom_p50_ms", "service.submit_p50_ms",
                  "service.kill_p50_ms"});
  }
  return names;
}

// A run cycles through several workload instances generated from its seed,
// so its medians average over several job mixes instead of resting on one.
// Every instance runs at least once; the counts fit a few passes into a run.
int Instances(const std::string& workload) {
  return workload == "serve_mixed" ? 3 : 8;
}

uint64_t InstanceSeed(uint64_t seed, int instance) {
  return seed * 100 + static_cast<uint64_t>(instance);
}

std::string Num(double v) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Peak resident set size of this process (the kernel's VmHWM).
double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  RepOptions rep;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    char* end = nullptr;
    if (arg == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0.0)) {
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args->trace = value == "1";
    } else if (arg == "--tiny") {
      args->rep.tiny = true;
    } else if (arg == "--inject-bad-every") {
      args->rep.inject_bad_every = std::atoi(value.c_str());
    } else if (arg == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return false;
    }
  }
  if (!have_workload) {
    return false;
  }
  for (const std::string& name : WorkloadNames()) {
    if (name == args->workload) {
      return true;
    }
  }
  return false;
}

struct Pooled {
  const char* name;
  double q;
  const std::vector<double>* samples;
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload=fig12_scale|online_faults|"
                 "serve_mixed --seed=N --seconds=S --trace=0|1 [--tiny] "
                 "[--inject-bad-every=K] [--trace-out=PATH]\n");
    return 2;
  }

  // Untraced reps give the end-to-end numbers. A traced run follows each
  // untraced rep with a traced rep of the same instance, so the overhead
  // ratio compares reps taken under the same host conditions. Rep 0 warms
  // the process up (heap growth, first-touch page faults: ~15% slower on
  // fig12_scale); its outputs are checked but its times are not reported,
  // so every instance has at least one timed rep after it.
  const int instances = Instances(args.workload);
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  Tracer tracer;
  const int64_t start = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  for (int i = 0; i <= instances || NowNs() - start < budget_ns; ++i) {
    const uint64_t seed = InstanceSeed(args.seed, i % instances);
    plain.push_back(RunRep(args.workload, seed, args.rep, nullptr));
    if (args.trace) {
      traced.push_back(RunRep(args.workload, seed, args.rep, &tracer));
    }
  }

  // Every rep of an instance, traced or not, must reproduce its first rep.
  std::vector<std::string> failures;
  int64_t attempted = 0;
  int64_t ok = 0;
  std::vector<double> interval_ms, write_ms, read_ms, setup_s, run_s, traced_run_s;
  auto absorb = [&](const Rep& rep, size_t index, const char* kind) {
    attempted += rep.attempted;
    ok += rep.ok;
    for (const std::string& f : rep.check_failures) {
      failures.push_back(std::string(kind) + " rep: " + f);
    }
    const RepOutcome& reference = plain[index % static_cast<size_t>(instances)].outcome;
    if (!(rep.outcome == reference)) {
      failures.push_back(std::string(kind) + " rep " + std::to_string(index) +
                         " outputs differ from the instance's first rep (avg_jct_s " +
                         Num(rep.outcome.avg_jct_s) + " vs " + Num(reference.avg_jct_s) +
                         ", completed " + std::to_string(rep.outcome.completed_jobs) +
                         " vs " + std::to_string(reference.completed_jobs) + ")");
    }
  };
  for (size_t i = 0; i < plain.size(); ++i) {
    const Rep& rep = plain[i];
    absorb(rep, i, "untraced");
    run_s.push_back(rep.run_s);
    setup_s.push_back(rep.setup_s);
    if (i == 0) {
      continue;
    }
    interval_ms.insert(interval_ms.end(), rep.interval_ms.begin(), rep.interval_ms.end());
    write_ms.insert(write_ms.end(), rep.write_ms.begin(), rep.write_ms.end());
    read_ms.insert(read_ms.end(), rep.read_ms.begin(), rep.read_ms.end());
  }
  const std::vector<double> timed_run_s(run_s.begin() + 1, run_s.end());
  const std::vector<double> timed_setup_s(setup_s.begin() + 1, setup_s.end());
  for (size_t i = 0; i < traced.size(); ++i) {
    absorb(traced[i], i, "traced");
    if (i > 0) {
      traced_run_s.push_back(traced[i].run_s - traced[i].harness_s);
    }
  }
  // Outputs of the run: means over its instances (each deterministic). The
  // run time is likewise the mean over instances of each instance's median,
  // so it does not jump with which instance's reps land mid-sample.
  RepOutcome outputs;
  double instance_run_s = 0.0;
  for (int j = 0; j < instances; ++j) {
    const RepOutcome& o = plain[static_cast<size_t>(j)].outcome;
    outputs.completed_jobs += o.completed_jobs;
    outputs.total_jobs += o.total_jobs;
    outputs.avg_jct_s += o.avg_jct_s / instances;
    outputs.makespan_s += o.makespan_s / instances;
    std::vector<double> reps_of_instance;
    for (size_t i = j > 0 ? j : instances; i < run_s.size(); i += instances) {
      reps_of_instance.push_back(run_s[i]);
    }
    instance_run_s += optimus::Median(reps_of_instance) / instances;
  }
  if (ok != attempted) {
    failures.push_back(std::to_string(attempted - ok) + " of " + std::to_string(attempted) +
                       " operations failed their check");
  }

  // Reads and writes exist on serve_mixed only; their percentiles are
  // per-layer metrics.
  std::vector<Pooled> pooled = {
      {"interval_p50_ms", 0.5, &interval_ms},
      {"interval_p90_ms", 0.9, &interval_ms},
  };
  if (args.workload == "serve_mixed") {
    pooled.push_back({"service.read_p50_ms", 0.5, &read_ms});
    pooled.push_back({"service.read_p90_ms", 0.9, &read_ms});
    pooled.push_back({"service.write_p50_ms", 0.5, &write_ms});
    pooled.push_back({"service.write_p90_ms", 0.9, &write_ms});
  }
  std::map<std::string, double> percentiles;
  std::string samples_json;
  for (const Pooled& p : pooled) {
    percentiles[p.name] = optimus::Percentile(*p.samples, p.q * 100.0);
    const double n = static_cast<double>(p.samples->size());
    const double beyond = n * (1.0 - p.q);
    if (!args.rep.tiny && beyond < kMinSamplesBeyond) {
      failures.push_back(std::string(p.name) + " has only " + Num(beyond) +
                         " samples beyond it");
    }
    samples_json += std::string(samples_json.empty() ? "" : ",") + Quote(p.name) +
                    ":{\"n\":" + Num(n) + ",\"beyond\":" + Num(beyond) + "}";
  }

  std::string metrics;
  auto add = [&metrics](const char* name, const char* unit, double value) {
    metrics += std::string(metrics.empty() ? "" : ",") + Quote(name) +
               ":{\"value\":" + Num(value) + ",\"unit\":" + Quote(unit) + "}";
  };
  if (!args.trace) {
    std::map<std::string, double> values = {
        {"setup_s", optimus::Median(timed_setup_s)},
        {"run_s", instance_run_s},
        {"peak_rss_mib", PeakRssMib()},
        {"ok_frac", attempted > 0 ? static_cast<double>(ok) / attempted : 0.0},
        {"avg_jct_s", outputs.avg_jct_s},
        {"makespan_s", outputs.makespan_s},
        {"interval_p50_ms", percentiles.at("interval_p50_ms")},
        {"interval_p90_ms", percentiles.at("interval_p90_ms")},
    };
    for (const Metric& m : kEndToEnd) {
      add(m.name, m.unit, values.at(m.name));
    }
  } else {
    if (!args.trace_out.empty() && !tracer.WriteJson(args.trace_out)) {
      failures.push_back("cannot write spans to " + args.trace_out);
    }
    std::map<std::string, double> values;
    for (const Metric& m : kPerLayer) {
      std::vector<double> per_rep;
      for (const Rep& rep : traced) {
        per_rep.push_back(rep.layers.count(m.name) > 0 ? rep.layers.at(m.name) : 0.0);
      }
      values[m.name] = optimus::Median(per_rep);
    }
    // Read latency comes from the run's untraced reps, like the end-to-end
    // metrics; the traced reps carry span overhead.
    for (const auto& [name, value] : percentiles) {
      if (values.count(name) > 0) {
        values[name] = value;
      }
    }
    values["trace.overhead_frac"] =
        optimus::Median(traced_run_s) / optimus::Median(timed_run_s) - 1.0;
    for (const std::string& name : ExpectedLayers(args.workload)) {
      if (!(values.at(name) > 0.0)) {
        failures.push_back("layer metric " + name + " is 0 on " + args.workload);
      }
    }
    for (const Metric& m : kPerLayer) {
      add(m.name, m.unit, values.at(m.name));
    }
  }

  std::string run_list, setup_list, failure_list;
  for (double v : run_s) run_list += (run_list.empty() ? "" : ",") + Num(v);
  for (double v : setup_s) setup_list += (setup_list.empty() ? "" : ",") + Num(v);
  for (const std::string& f : failures) {
    failure_list += (failure_list.empty() ? "" : ",") + Quote(f);
  }
  std::printf(
      "{\"detail\":{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"instances\":%d,\"reps\":%zu,"
      "\"traced_reps\":%zu,\"rep_run_s\":[%s],\"rep_setup_s\":[%s],"
      "\"samples\":{%s},\"completed_jobs\":%d,\"total_jobs\":%d,\"failures\":[%s]}}\n",
      Quote(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, instances, plain.size(), traced.size(), run_list.c_str(),
      setup_list.c_str(), samples_json.c_str(), outputs.completed_jobs, outputs.total_jobs,
      failure_list.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
              failures.empty() ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(attempted - ok), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
