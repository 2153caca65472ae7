#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <ostream>

#include "src/common/json_writer.h"

namespace optimus {

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kScheduled:
      return "scheduled";
    case FlightEventKind::kScaled:
      return "scaled";
    case FlightEventKind::kPaused:
      return "paused";
    case FlightEventKind::kResumed:
      return "resumed";
    case FlightEventKind::kEvicted:
      return "evicted";
    case FlightEventKind::kCheckpoint:
      return "checkpoint";
    case FlightEventKind::kTaskFailed:
      return "task-failed";
    case FlightEventKind::kServerCrash:
      return "server-crash";
    case FlightEventKind::kServerRecovered:
      return "server-recovered";
    case FlightEventKind::kSlowdown:
      return "slowdown";
    case FlightEventKind::kCompleted:
      return "completed";
    case FlightEventKind::kAuditCheck:
      return "audit-check";
    case FlightEventKind::kAuditViolation:
      return "audit-violation";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(int depth)
    : capacity_(depth > 0 ? static_cast<size_t>(depth) : 0) {
  if (capacity_ > 0) {
    ring_.reserve(capacity_);
  }
}

size_t FlightRecorder::size() const {
  return std::min<uint64_t>(next_seq_, capacity_);
}

void FlightRecorder::Record(double time_s, FlightEventKind kind, int job_id,
                            int num_ps, int num_workers, double value,
                            std::string detail) {
  if (capacity_ == 0) {
    return;
  }
  FlightEvent e;
  e.seq = next_seq_++;
  e.time_s = time_s;
  e.kind = kind;
  e.job_id = job_id;
  e.num_ps = num_ps;
  e.num_workers = num_workers;
  e.value = value;
  e.detail = std::move(detail);
  const size_t slot = static_cast<size_t>(e.seq % capacity_);
  if (slot < ring_.size()) {
    ring_[slot] = std::move(e);
  } else {
    ring_.push_back(std::move(e));
  }
}

std::vector<FlightEvent> FlightRecorder::Events() const {
  std::vector<FlightEvent> out;
  const size_t n = size();
  out.reserve(n);
  const uint64_t first = next_seq_ - n;  // oldest retained sequence number
  for (uint64_t s = first; s < next_seq_; ++s) {
    out.push_back(ring_[static_cast<size_t>(s % capacity_)]);
  }
  return out;
}

void FlightRecorder::Dump(std::ostream& os) const {
  const auto number = [](double v) {
    std::string text;
    AppendDouble17(v, &text);
    return text;
  };
  os << "flight recorder: " << size() << " of " << total_recorded()
     << " event(s) retained (depth " << capacity_ << ")\n";
  for (const FlightEvent& e : Events()) {
    os << "  [" << e.seq << "] t=" << number(e.time_s) << " "
       << FlightEventKindName(e.kind) << " job=" << e.job_id;
    if (e.num_ps != 0 || e.num_workers != 0) {
      os << " ps=" << e.num_ps << " workers=" << e.num_workers;
    }
    if (e.value != 0.0) {
      os << " value=" << number(e.value);
    }
    if (!e.detail.empty()) {
      os << " " << e.detail;
    }
    os << "\n";
  }
}

void FlightRecorder::AppendJson(int indent, std::string* out) const {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  *out += "[";
  const uint64_t first = next_seq_ - size();  // oldest retained sequence number
  for (uint64_t s = first; s < next_seq_; ++s) {
    const FlightEvent& e = ring_[static_cast<size_t>(s % capacity_)];
    *out += (s == first ? "\n" : ",\n") + pad + "  {\"seq\": " +
            std::to_string(e.seq) + ", \"time_s\": ";
    AppendJsonDouble(e.time_s, out);
    *out += std::string(", \"kind\": \"") + FlightEventKindName(e.kind) +
            "\", \"job\": " + std::to_string(e.job_id) +
            ", \"ps\": " + std::to_string(e.num_ps) +
            ", \"workers\": " + std::to_string(e.num_workers) + ", \"value\": ";
    AppendJsonDouble(e.value, out);
    *out += ", \"detail\": ";
    AppendJsonString(e.detail, out);
    *out += "}";
  }
  *out += first < next_seq_ ? "\n" + pad + "]" : "]";
}

}  // namespace optimus
