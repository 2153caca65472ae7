#include "src/obs/exporters.h"

#include <cmath>

#include "src/common/json_writer.h"
#include "src/common/logging.h"

namespace optimus {

namespace {

// Appends every part in order: the exporters build one string, no stream.
template <typename... Parts>
void Append(std::string* out, const Parts&... parts) {
  (out->append(parts), ...);
}

// A counter's or gauge's value (histograms have none).
double ScalarValue(const Metric& m) {
  return m.kind() == MetricKind::kCounter ? static_cast<const Counter&>(m).value()
                                          : static_cast<const Gauge&>(m).value();
}

// Prometheus text exposition spells non-finite samples +Inf / -Inf / NaN.
void AppendPromDouble(double value, std::string* out) {
  if (std::isfinite(value)) {
    AppendDouble17(value, out);
  } else {
    *out += std::isnan(value) ? "NaN" : value > 0 ? "+Inf" : "-Inf";
  }
}

}  // namespace

void MetricsSeries::Sample(double time_s, const MetricsRegistry& registry) {
  if (columns_.empty()) {
    for (size_t i = 0; i < registry.size(); ++i) {
      const Metric& m = registry.metric(i);
      if (m.profiling()) {
        continue;
      }
      if (m.kind() == MetricKind::kHistogram) {
        columns_.push_back(m.name() + "_count");
        columns_.push_back(m.name() + "_sum");
      } else {
        columns_.push_back(m.name());
      }
    }
  }
  // The row's exact report text, rendered once: rows are append-only, so
  // no export ever formats a past row again.
  size_t values = 0;
  const auto add = [&](double v) {
    rows_json_ += values++ == 0 ? ",\n      [" : ", ";
    AppendJsonDouble(v, &rows_json_);
  };
  add(time_s);
  for (size_t i = 0; i < registry.size(); ++i) {
    const Metric& m = registry.metric(i);
    if (m.profiling()) {
      continue;
    }
    if (m.kind() == MetricKind::kHistogram) {
      const auto& h = static_cast<const Histogram&>(m);
      add(static_cast<double>(h.count()));
      add(h.sum());
    } else {
      add(ScalarValue(m));
    }
  }
  rows_json_ += "]";
  OPTIMUS_CHECK_EQ(values, columns_.size() + 1)
      << "metrics were registered after the first Sample()";
  times_.push_back(time_s);
}

std::string ExportPrometheusString(const MetricsRegistry& registry,
                                   const ExportOptions& options) {
  std::string out;
  out.reserve(registry.size() * 160);
  for (size_t i = 0; i < registry.size(); ++i) {
    const Metric& m = registry.metric(i);
    if (m.profiling() && !options.include_profiling) {
      continue;
    }
    const std::string& name = m.name();
    Append(&out, "# HELP ", name, " ", m.help(), "\n", "# TYPE ", name, " ",
           MetricKindName(m.kind()), "\n");
    if (m.kind() != MetricKind::kHistogram) {
      Append(&out, name, " ");
      AppendPromDouble(ScalarValue(m), &out);
      out += "\n";
      continue;
    }
    const auto& h = static_cast<const Histogram&>(m);
    int64_t cumulative = 0;
    for (size_t b = 0; b < h.bounds().size(); ++b) {
      cumulative += h.buckets()[b];
      Append(&out, name, "_bucket{le=\"");
      AppendPromDouble(h.bounds()[b], &out);
      Append(&out, "\"} ", std::to_string(cumulative), "\n");
    }
    const std::string count = std::to_string(h.count());
    Append(&out, name, "_bucket{le=\"+Inf\"} ", count, "\n", name, "_sum ");
    AppendPromDouble(h.sum(), &out);
    Append(&out, "\n", name, "_count ", count, "\n");
  }
  return out;
}

std::string ExportJsonReportString(const MetricsRegistry& registry,
                                   const MetricsSeries* series,
                                   const FlightRecorder* flight,
                                   const ExportOptions& options) {
  std::string out;
  out.reserve(4096 + registry.size() * 256 +
              (series != nullptr ? series->rows_json().size() : 0));
  out += "{\n  \"format\": \"optimus-run-report-v1\",\n";

  // Final registry snapshot.
  out += "  \"metrics\": {";
  bool first = true;
  for (size_t i = 0; i < registry.size(); ++i) {
    const Metric& m = registry.metric(i);
    if (m.profiling() && !options.include_profiling) {
      continue;
    }
    Append(&out, first ? "\n" : ",\n", "    \"", m.name(), "\": {\"type\": \"",
           MetricKindName(m.kind()), "\"");
    first = false;
    if (m.profiling()) {
      out += ", \"profiling\": true";
    }
    if (m.kind() != MetricKind::kHistogram) {
      out += ", \"value\": ";
      AppendJsonDouble(ScalarValue(m), &out);
    } else {
      const auto& h = static_cast<const Histogram&>(m);
      Append(&out, ", \"count\": ", std::to_string(h.count()), ", \"sum\": ");
      AppendJsonDouble(h.sum(), &out);
      out += ", \"bounds\": [";
      for (size_t b = 0; b < h.bounds().size(); ++b) {
        out += b == 0 ? "" : ", ";
        AppendJsonDouble(h.bounds()[b], &out);
      }
      out += "], \"buckets\": [";
      for (size_t b = 0; b < h.buckets().size(); ++b) {
        Append(&out, b == 0 ? "" : ", ", std::to_string(h.buckets()[b]));
      }
      out += "]";
      for (const auto& [key, q] : {std::pair<const char*, double>{"p50", 0.50},
                                   {"p95", 0.95},
                                   {"p99", 0.99}}) {
        Append(&out, ", \"", key, "\": ");
        AppendJsonDouble(h.Quantile(q), &out);
      }
    }
    out += "}";
  }
  Append(&out, first ? "" : "\n  ", "},\n");

  // Per-interval time series.
  out += "  \"series\": {";
  if (series != nullptr && series->num_rows() > 0) {
    out += "\n    \"columns\": [\"time_s\"";
    for (const std::string& c : series->columns()) {
      Append(&out, ", \"", c, "\"");
    }
    out += "],\n    \"rows\": [";
    // Rows were rendered at sample time, each led by ",\n"; the first row
    // drops its comma.
    out.append(series->rows_json(), 1);
    out += "\n    ]\n  ";
  }
  out += "},\n";

  // Flight-recorder tail.
  out += "  \"flight_recorder\": ";
  if (flight != nullptr && flight->enabled()) {
    flight->AppendJson(1, &out);
  } else {
    out += "[]";
  }
  out += "\n}\n";
  return out;
}

}  // namespace optimus
