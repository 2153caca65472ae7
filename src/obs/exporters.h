// Exporters: Prometheus text format and a JSON time-series run report.
//
// Both exporters walk the registry in registration order, build one string,
// and format numbers with AppendDouble17 (src/common/json_writer.h: 17
// significant digits, exactly printf's %.17g), so for a fixed simulation
// outcome the exported bytes are fixed too — the determinism tests compare
// exports bitwise across thread counts. Profiling metrics (host wall-clock)
// are included for human consumption by default and excluded
// (include_profiling = false) wherever bitwise stability matters:
// determinism comparisons and golden files.
//
// Formats:
//   Prometheus — standard text exposition: # HELP / # TYPE lines, counters
//     and gauges as single samples, histograms as cumulative `_bucket{le=..}`
//     samples plus `_sum` / `_count`.
//   JSON run report — one self-contained object: the final registry snapshot
//     (histograms with buckets and p50/p95/p99), the per-interval time series
//     sampled by MetricsSeries, and the flight-recorder tail.

#ifndef SRC_OBS_EXPORTERS_H_
#define SRC_OBS_EXPORTERS_H_

#include <string>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics_registry.h"

namespace optimus {

struct ExportOptions {
  // Include profiling (wall-clock) metrics. Turn off for determinism
  // comparisons and golden snapshots.
  bool include_profiling = true;
};

// Per-interval snapshots of the registry's deterministic scalar values:
// every non-profiling counter and gauge, plus `_count` / `_sum` per
// non-profiling histogram. The column set is frozen at the first Sample()
// call (register all metrics first); every row carries one value per column.
//
// Rows are append-only, so Sample() renders each row once, as the exact text
// the JSON report prints for it, and keeps only that text: an export splices
// it in instead of re-formatting every past interval. Memory is the text
// (~1-24 bytes per value) instead of 8-byte doubles; the report, and with it
// a metrics_snapshot response, still grows with the number of intervals.
class MetricsSeries {
 public:
  void Sample(double time_s, const MetricsRegistry& registry);

  size_t num_rows() const { return times_.size(); }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<double>& times() const { return times_; }
  // Every row as report text, each led by ",\n      ": "[t, v, ...]" with
  // AppendJsonDouble numbers.
  const std::string& rows_json() const { return rows_json_; }

 private:
  std::vector<std::string> columns_;
  std::vector<double> times_;
  std::string rows_json_;
};

// Prometheus text exposition of the registry. Non-finite samples are spelled
// +Inf / -Inf / NaN.
std::string ExportPrometheusString(const MetricsRegistry& registry,
                                   const ExportOptions& options = {});

// JSON run report: final registry snapshot + per-interval series + flight
// recorder tail. `series` and `flight` may be null (sections are emitted
// empty). Non-finite numbers are emitted as null.
std::string ExportJsonReportString(const MetricsRegistry& registry,
                                   const MetricsSeries* series,
                                   const FlightRecorder* flight,
                                   const ExportOptions& options = {});

}  // namespace optimus

#endif  // SRC_OBS_EXPORTERS_H_
