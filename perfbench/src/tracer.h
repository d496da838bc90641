// In-memory span recorder for the benchmark's traced runs.
//
// Spans are taken from the benchmark's own code around each call into a simulator
// layer (scenario::Wlan::BuildNow, shard::CampusSim::Run, campaign::Coordinator::Run,
// ...), never from inside src/. A span records its name ("layer.call"), start, end,
// the span that caused it and a request id (the sweep job index, the campus, or the
// campaign). Spans stay in memory until the run ends and are then written as JSON
// lines, so recording costs one clock read per edge and a short locked append.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

struct Span {
  const char* name = "";  // Static "layer.call" string.
  int64_t id = 0;
  int64_t parent = -1;    // -1: root span of its request.
  int64_t request = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  // Only valid once every recording thread has been joined or synchronized with.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::atomic<int64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Opens a span at construction and records it at destruction. With a null tracer it
// does nothing at all (no clock reads), which is what untraced reps use.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent, int64_t request)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      span_.name = name;
      span_.id = tracer_->NextId();
      span_.parent = parent;
      span_.request = request;
      span_.start_ns = NowNs();
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      span_.end_ns = NowNs();
      tracer_->Record(span_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return tracer_ != nullptr ? span_.id : -1; }

 private:
  Tracer* tracer_;
  Span span_;
};

// Self time per layer, in seconds: each span's duration minus the part of its
// interval that its child spans cover (children on other threads included, so a
// pool's parent span keeps only the time no job was running).
std::map<std::string, double> SelfSecondsByLayer(const std::vector<Span>& spans);

// Writes one JSON object per line: `header` (already a JSON object) first, then one
// line per span in recording order.
bool WriteTrace(const std::string& path, const std::string& header,
                const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
