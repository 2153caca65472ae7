// The benchmark's workloads. Each repetition ("rep") builds its inputs from
// the seed, sets the system up, drives it through one timed phase, and checks
// the outputs. Time is measured from outside the library: around calls into
// its public functions, plus the counters and gauges its registries export.

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/harness/tracer.h"

namespace perfbench {

// What a rep produced; every rep of one run (traced or not) must agree.
struct RepOutcome {
  int completed_jobs = 0;
  int total_jobs = 0;
  double avg_jct_s = 0.0;
  double makespan_s = 0.0;
  // Simulator event-trace digest (simulation workloads) or FNV-1a digest of
  // the full response byte stream (serve_mixed).
  uint64_t digest = 0;

  bool operator==(const RepOutcome& o) const {
    return completed_jobs == o.completed_jobs && total_jobs == o.total_jobs &&
           avg_jct_s == o.avg_jct_s && makespan_s == o.makespan_s &&
           digest == o.digest;
  }
};

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  // Host latency of every call in the timed phase that carries the system
  // across a scheduling-interval boundary: each AdvanceTo(k * interval), or
  // each advance request whose target reaches k * interval.
  std::vector<double> interval_ms;
  // serve_mixed: host latency of every advance/submit/kill request (writes)
  // and every what_if/metrics_snapshot request (reads).
  std::vector<double> write_ms;
  std::vector<double> read_ms;
  // Traced reps: time the harness spent inside the timed phase on work of its
  // own (extra parses and exports that only traced reps make).
  double harness_s = 0.0;
  int64_t attempted = 0;  // operations issued
  int64_t ok = 0;         // operations whose result passed its check
  RepOutcome outcome;
  std::vector<std::string> check_failures;  // output checks that failed
  std::map<std::string, double> layers;     // traced reps only
};

struct RepOptions {
  bool tiny = false;         // seconds-scale shapes for the self-test
  int inject_bad_every = 0;  // >0: corrupt every Nth operation (self-test)
};

const std::vector<std::string>& WorkloadNames();

// Runs one rep of `workload`. With a tracer, records spans for the rep and
// fills Rep::layers; without one, takes the untraced path.
Rep RunRep(const std::string& workload, uint64_t seed, const RepOptions& options,
           Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
