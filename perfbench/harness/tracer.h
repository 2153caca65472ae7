// In-memory span recorder for the traced benchmark pass.
//
// Spans are recorded by the harness around its calls into the library and,
// through a timing wrapper registered as its own scheduler policy, around
// every Allocator::Allocate call the simulator makes. Spans stay in memory
// and are written out once, when the run ends, so recording costs one
// steady_clock read per boundary.

#ifndef PERFBENCH_HARNESS_TRACER_H_
#define PERFBENCH_HARNESS_TRACER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int parent = -1;        // index of the enclosing span; -1 for a root
  int64_t trace_id = 0;   // spans of one operation share it
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;   // summed durations of direct children

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  double self_seconds() const {
    return static_cast<double>(end_ns - start_ns - child_ns) * 1e-9;
  }
};

class Tracer {
 public:
  // Opens a span as a child of the innermost open span; returns its index.
  int Begin(const char* name, int64_t trace_id);
  // Closes the innermost open span; aborts if `index` is any other. Spans
  // therefore nest strictly on one monotonic clock, so a child never outlasts
  // its parent and the children's durations never exceed the parent's.
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  int64_t current_trace_id() const {
    return open_.empty() ? 0 : spans_[static_cast<size_t>(open_.back())].trace_id;
  }

  // Writes every span as one JSON document ({"spans": [...]}).
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span on an optional tracer (a null tracer records nothing).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t trace_id)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name, trace_id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// Registers "perfbench_traced_optimus": the registered "optimus" policy with
// its factory wrapped so every allocator it creates (the simulator's own and
// the what-if scratch allocators) records a "sched.allocate" span on the
// active tracer. Idempotent.
const char* RegisterTracedOptimusPolicy();

// The tracer the wrapped allocators record into; null outside traced reps.
void SetActiveTracer(Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACER_H_
