// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own code, around each call
// it makes into a simulator layer.  They stay in memory until the run
// ends, then go out as a chrome://tracing trace-event file plus a
// per-layer self-time table.  A span's self time is its duration minus
// the part of it covered by child spans on the same thread.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, nanoseconds.
std::int64_t now_ns();

/// Small per-process thread number, in order of first use.
int thread_number();

struct Span {
  std::string name;   // e.g. "engine.run"
  std::string layer;  // e.g. "scenario"
  long id = -1;       // cell index; spans of one cell share it (-1: none)
  int parent = -1;    // enclosing span on the same thread, or the span
                      // that handed this one to a worker thread
  int tid = 0;        // small per-process thread number (0 = main)
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

class SpanLog {
 public:
  /// Off by default: untraced runs record nothing.  Toggle only while no
  /// worker thread is running.
  void enable(bool on) { on_ = on; }

  /// Opens a span on the calling thread; its parent is the innermost
  /// open span of this thread, else `cause`.  Returns -1 when disabled.
  int open(const std::string& name, const std::string& layer, long id = -1,
           int cause = -1);
  void close(int index);
  /// Records an already-finished span (e.g. a phase the program timed).
  void add(const std::string& name, const std::string& layer, long id,
           int parent, std::int64_t t0, std::int64_t t1);

  std::vector<Span> spans() const;
  void clear();

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog& log, const std::string& name, const std::string& layer,
        long id = -1, int cause = -1)
      : log_(log), index_(log.open(name, layer, id, cause)) {}
  ~Scope() { log_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

/// Self time per span, in nanoseconds, parallel to `spans`.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" events, microseconds).
std::string chrome_trace_json(const std::vector<Span>& spans);

/// Plain-text table: layer, self ms, share of `wall_ns`, span count.
std::string self_time_table(const std::vector<Span>& spans,
                            std::int64_t wall_ns);

}  // namespace perfbench
