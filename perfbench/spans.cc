#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

std::atomic<int> g_next_tid{0};

// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int thread_number() {
  thread_local const int tid = g_next_tid.fetch_add(1);
  return tid;
}

int SpanLog::open(const std::string& name, const std::string& layer, long id,
                  int cause) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.layer = layer;
  s.id = id;
  s.parent = t_open.empty() ? cause : t_open.back();
  s.tid = thread_number();
  s.t0 = now_ns();
  int index = 0;
  {
    const std::scoped_lock lock(mu_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_open.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  if (index < 0) return;
  const std::int64_t t1 = now_ns();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  const std::scoped_lock lock(mu_);
  spans_[static_cast<std::size_t>(index)].t1 = t1;
}

void SpanLog::add(const std::string& name, const std::string& layer, long id,
                  int parent, std::int64_t t0, std::int64_t t1) {
  if (!on_) return;
  Span s{name, layer, id, parent, thread_number(), t0, t1};
  const std::scoped_lock lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Span> SpanLog::spans() const {
  const std::scoped_lock lock(mu_);
  return spans_;
}

void SpanLog::clear() {
  const std::scoped_lock lock(mu_);
  spans_.clear();
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (p.tid != s.tid) continue;  // work handed to another thread
    kids[static_cast<std::size_t>(s.parent)].emplace_back(
        std::max(s.t0, p.t0), std::min(s.t1, p.t1));
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t lo = 0;
    std::int64_t hi = -1;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (open && a <= hi) {
        hi = std::max(hi, b);
        continue;
      }
      if (open) covered += hi - lo;
      lo = a;
      hi = b;
      open = true;
    }
    if (open) covered += hi - lo;
    self[i] = std::max<std::int64_t>(0, spans[i].t1 - spans[i].t0 - covered);
  }
  return self;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::int64_t base = 0;
  if (!spans.empty()) {
    base = std::min_element(spans.begin(), spans.end(),
                            [](const Span& a, const Span& b) {
                              return a.t0 < b.t0;
                            })
               ->t0;
  }
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"" + escape(s.name) + "\",\"cat\":\"" +
           escape(s.layer) + "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof buf,
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"cell\":%ld}}",
                  static_cast<double>(s.t0 - base) / 1e3,
                  static_cast<double>(s.t1 - s.t0) / 1e3, s.tid, i, s.parent,
                  s.id);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string self_time_table(const std::vector<Span>& spans,
                            std::int64_t wall_ns) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::pair<std::int64_t, std::size_t>> by_name;
  std::map<std::string, std::int64_t> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& e = by_name[spans[i].layer + " " + spans[i].name];
    e.first += self[i];
    ++e.second;
    by_layer[spans[i].layer] += self[i];
  }
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-12s %-26s %12s %9s %8s\n", "layer",
                "span", "self_ms", "of_wall", "count");
  out += buf;
  for (const auto& [key, v] : by_name) {
    const std::size_t sp = key.find(' ');
    std::snprintf(buf, sizeof buf, "%-12s %-26s %12.3f %8.2f%% %8zu\n",
                  key.substr(0, sp).c_str(), key.substr(sp + 1).c_str(),
                  static_cast<double>(v.first) / 1e6,
                  wall_ns > 0 ? 100.0 * static_cast<double>(v.first) /
                                    static_cast<double>(wall_ns)
                              : 0.0,
                  v.second);
    out += buf;
  }
  out += "\nper layer (all threads):\n";
  for (const auto& [layer, ns] : by_layer) {
    std::snprintf(buf, sizeof buf, "%-12s %39.3f %8.2f%%\n", layer.c_str(),
                  static_cast<double>(ns) / 1e6,
                  wall_ns > 0 ? 100.0 * static_cast<double>(ns) /
                                    static_cast<double>(wall_ns)
                              : 0.0);
    out += buf;
  }
  return out;
}

}  // namespace perfbench
