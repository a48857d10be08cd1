#ifndef TSWARP_PERFBENCH_TRACE_H_
#define TSWARP_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace tswarp::perfbench {

/// In-memory span recorder for the traced run. A span is one call into a
/// layer made from the benchmark's own code: its name ("<layer>.<what>"),
/// the phase it ran in, start/end in microseconds since the tracer was
/// created, the enclosing span, the op it belongs to, and counters.
/// Spans are only kept in memory while the benchmark runs and are written
/// out once, at exit (WriteJsonLines). A disabled tracer records nothing
/// and reads no clock.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string phase;
    std::int64_t parent = -1;
    std::int64_t op = -1;
    double start_us = 0;
    double end_us = 0;
    std::vector<std::pair<std::string, double>> counters;
  };

  /// RAII handle of one open span; closes it on destruction. Inert (all
  /// calls are no-ops) when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer* tracer, std::int64_t id) : tracer_(tracer), id_(id) {}
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void Count(const char* key, double value) {
      if (id_ >= 0) tracer_->spans_[id_].counters.emplace_back(key, value);
    }
    std::int64_t id() const { return id_; }
    void End() {
      if (id_ < 0) return;
      tracer_->Close(id_);
      id_ = -1;
    }

   private:
    Tracer* tracer_;
    std::int64_t id_;
  };

  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_phase(std::string phase) { phase_ = std::move(phase); }

  /// Opens a span nested in the innermost open span. `parent` overrides
  /// the nesting: spans that re-invoke, after the fact, a step that an
  /// enclosing library call ran internally name that call's span as their
  /// parent, so the reader charges their time to them and not to it.
  Scope Begin(const char* name, std::int64_t op = -1,
              std::int64_t parent = -2) {
    if (!enabled_) return Scope(this, -1);
    Span span;
    span.name = name;
    span.phase = phase_;
    span.op = op;
    span.parent = parent != -2 ? parent
                  : open_.empty() ? -1
                                  : open_.back();
    span.start_us = NowUs();
    span.end_us = span.start_us;
    spans_.push_back(std::move(span));
    const auto id = static_cast<std::int64_t>(spans_.size() - 1);
    open_.push_back(id);
    return Scope(this, id);
  }

  /// Records a zero-length span that only carries counters (end-of-phase
  /// gauges such as mapped bytes or server queue depth).
  void Event(const char* name,
             std::vector<std::pair<std::string, double>> counters) {
    if (!enabled_) return;
    Scope scope = Begin(name);
    spans_[scope.id()].counters = std::move(counters);
    scope.End();
    spans_.back().end_us = spans_.back().start_us;
  }

  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"phase\":\"%s\","
                   "\"parent\":%lld,\"op\":%lld,\"start_us\":%.3f,"
                   "\"end_us\":%.3f,\"counters\":{",
                   i, s.name.c_str(), s.phase.c_str(),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.op), s.start_us, s.end_us);
      for (std::size_t c = 0; c < s.counters.size(); ++c) {
        std::fprintf(f, "%s\"%s\":%.17g", c == 0 ? "" : ",",
                     s.counters[c].first.c_str(), s.counters[c].second);
      }
      std::fprintf(f, "}}\n");
    }
    return std::fclose(f) == 0;
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  void Close(std::int64_t id) {
    spans_[id].end_us = NowUs();
    // Spans close in LIFO order; the id is always the innermost.
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::string phase_ = "setup";
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

}  // namespace tswarp::perfbench

#endif  // TSWARP_PERFBENCH_TRACE_H_
