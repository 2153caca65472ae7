#include "perfbench/harness/tracer.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/sched/scheduler_registry.h"

namespace perfbench {

int Tracer::Begin(const char* name, int64_t trace_id) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.trace_id = trace_id;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  spans_.back().start_ns = NowNs();
  return index;
}

void Tracer::End(int index) {
  const int64_t now = NowNs();
  OPTIMUS_CHECK(!open_.empty() && open_.back() == index)
      << "span " << index << " closed out of order";
  open_.pop_back();
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = now;
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_ns += now - span.start_ns;
  }
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"trace_id\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld}%s\n",
                 i, s.name, s.parent, static_cast<long long>(s.trace_id),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.end_ns - s.start_ns - s.child_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

namespace {

// The simulator runs single-threaded in every workload (threads = 1), so the
// wrapped allocators and the harness share this pointer without locking.
Tracer* g_active_tracer = nullptr;

class TimedAllocator : public optimus::Allocator {
 public:
  explicit TimedAllocator(std::unique_ptr<optimus::Allocator> inner)
      : inner_(std::move(inner)) {}

  using optimus::Allocator::Allocate;
  optimus::AllocationMap Allocate(const std::vector<optimus::SchedJob>& jobs,
                                  const optimus::Resources& capacity,
                                  optimus::SpeedSurfaceSet* surfaces) const override {
    Tracer* tracer = g_active_tracer;
    ScopedSpan span(tracer, "sched.allocate",
                    tracer != nullptr ? tracer->current_trace_id() : 0);
    return inner_->Allocate(jobs, capacity, surfaces);
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<optimus::Allocator> inner_;
};

class TimedPolicyFactory : public optimus::PolicyFactory {
 public:
  explicit TimedPolicyFactory(std::shared_ptr<const optimus::PolicyFactory> inner)
      : inner_(std::move(inner)) {}

  std::unique_ptr<optimus::Allocator> Create(
      optimus::OptimusAllocRoundStats* stats) const override {
    return std::make_unique<TimedAllocator>(inner_->Create(stats));
  }

 private:
  std::shared_ptr<const optimus::PolicyFactory> inner_;
};

}  // namespace

const char* RegisterTracedOptimusPolicy() {
  static const char kName[] = "perfbench_traced_optimus";
  optimus::SchedulerRegistry& registry = optimus::SchedulerRegistry::Global();
  if (registry.Has(kName)) {
    return kName;
  }
  const optimus::SchedulerPolicyInfo* base = registry.Find("optimus");
  OPTIMUS_CHECK(base != nullptr) << "policy 'optimus' is not registered";
  optimus::SchedulerPolicyInfo info = *base;
  info.name = kName;
  info.display_name = std::string(base->display_name) + " (traced)";
  info.factory = std::make_shared<TimedPolicyFactory>(base->factory);
  std::string error;
  OPTIMUS_CHECK(registry.Register(std::move(info), &error)) << error;
  return kName;
}

void SetActiveTracer(Tracer* tracer) { g_active_tracer = tracer; }

}  // namespace perfbench
