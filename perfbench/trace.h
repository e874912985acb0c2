// Timing samples and in-memory spans for the end-to-end benchmark.
//
// Spans are recorded from the benchmark's own code around each call into
// an engine module; nothing inside src/ is instrumented. A span carries a
// name, its start and end, the span that caused it and the id of the
// client request it belongs to. Spans stay in memory and are written out
// as JSON once the run ends. A span's self time is its duration minus the
// part its child spans cover.

#ifndef ADEPT_PERFBENCH_TRACE_H_
#define ADEPT_PERFBENCH_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline int64_t NanosOf(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// A bag of measurements of one kind; percentiles use the nearest rank.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }

  double Percentile(double p) const {
    if (values_.empty()) return 0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    rank = std::max<size_t>(rank, 1);
    return sorted[std::min(rank, sorted.size()) - 1];
  }
  double Median() const { return Percentile(50); }

  // The highest of the usual tail percentiles that still has at least ten
  // samples beyond it; {0, 0} when even p50 has fewer.
  std::pair<double, double> Tail() const {
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
      double beyond = static_cast<double>(values_.size()) * (100.0 - p) / 100;
      if (beyond >= 10) return {p, Percentile(p)};
    }
    return {0, 0};
  }

 private:
  std::vector<double> values_;
};

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0: a root span
  uint64_t request = 0;  // shared by every span of one client request
};

class Tracer {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  void Record(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  // Self time in microseconds of every span, grouped by span name.
  std::map<std::string, Samples> SelfTimesUs() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::unordered_map<uint64_t, int64_t> child_ns;
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, Samples> out;
    for (const Span& s : spans_) {
      int64_t self = s.end_ns - s.start_ns;
      auto it = child_ns.find(s.id);
      if (it != child_ns.end()) self -= it->second;
      out[s.name].Add(static_cast<double>(std::max<int64_t>(self, 0)) / 1e3);
    }
    return out;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  bool WriteJson(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Records one span over its lifetime; does nothing with a null tracer, so
// the untraced run pays only the pointer test.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const ScopedSpan* parent = nullptr)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.id = tracer_->NextId();
    span_.parent = parent != nullptr ? parent->span_.id : 0;
    span_.request = parent != nullptr ? parent->span_.request : span_.id;
    span_.start_ns = NanosOf(Clock::now());
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = NanosOf(Clock::now());
    tracer_->Record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Span span_;
};

}  // namespace perfbench

#endif  // ADEPT_PERFBENCH_TRACE_H_
