// perfbench — runs one benchmark workload and prints its metrics
// (perfbench/README.md).  perfbench/run.py builds and invokes it:
//
//   perfbench --workload paper_grid --seed 0 --seconds 10
//             --trace 0 --root . --out .bench_out
//
// Every workload is a closed batch: the next repetition starts only after
// the previous one finished.  The binary builds each workload's .scn text
// from the seed, drives the simulator only through its public entry
// points, checks every cell, and prints a result object as its last line.
// With --trace 0 it prints the end-to-end metrics of untraced runs; with
// --trace 1 it alternates untraced and traced repetitions and prints the
// per-layer metrics, writing spans as a chrome trace plus a self-time
// table under --out.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cc_timing.h"
#include "check/determinism.h"
#include "common/hash.h"
#include "exp/runner.h"
#include "exp/world.h"
#include "scenario/engine.h"
#include "scenario/partition.h"
#include "spans.h"
#include "sweep/key.h"
#include "sweep/record.h"
#include "sweep/service.h"
#include "sweep/store.h"

namespace fs = std::filesystem;
using namespace vegas;
using perfbench::now_ns;

namespace {

constexpr double kMss = 1024.0;  // payload bytes per segment

// ------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string root = ".";
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload "
               "paper_grid|ackclock_steady|flow_scale_sharded\n"
               "         [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n"
               "         [--root DIR] [--out DIR]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = value();
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
      } else if (k == "--trace") {
        a.trace = std::stoi(value()) != 0;
      } else if (k == "--smoke") {
        a.smoke = true;
      } else if (k == "--root") {
        a.root = value();
      } else if (k == "--out") {
        a.out = value();
      } else {
        usage("unknown flag " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

// ------------------------------------------------------------- utilities

struct Cpu {
  double user_s = 0;
  double sys_s = 0;
};

Cpu cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

// Returns free heap memory to the system, so that every timed section
// starts from the same heap state a fresh process has and pays the same
// first-touch page faults.  Without it, whether glibc happened to trim
// after the previous repetition makes set-up time bimodal (on a 4-vCPU VM:
// 1.1k vs 6.5k faults, 5 vs 18 ms for ackclock_steady's world).
void cold_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

Cpu cpu_since(const Cpu& c0) {
  const Cpu c1 = cpu_now();
  return {c1.user_s - c0.user_s, c1.sys_s - c0.sys_s};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Adds `offset` to the scenario seed(s) of a shipped .scn file: the
// `seed = N` key of [scenario] and every entry of a [sweep.zip]
// `scenario.seed = [...]` list.  Offset 0 returns the file unchanged.
std::string offset_seeds(const std::string& text, std::uint64_t offset) {
  if (offset == 0) return text;
  std::istringstream in(text);
  std::string out;
  std::string line;
  std::string section;
  bool in_seed_list = false;
  bool changed = false;
  const auto bump_numbers = [&](const std::string& s) {
    std::string r;
    std::size_t i = 0;
    while (i < s.size()) {
      if (s[i] == '#') {
        r += s.substr(i);
        break;
      }
      if (std::isdigit(static_cast<unsigned char>(s[i])) != 0) {
        std::size_t j = i;
        while (j < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[j])) != 0) {
          ++j;
        }
        r += std::to_string(std::stoull(s.substr(i, j - i)) + offset);
        changed = true;
        i = j;
        continue;
      }
      r += s[i++];
    }
    return r;
  };
  while (std::getline(in, line)) {
    const std::size_t first = line.find_first_not_of(" \t");
    const std::string body = first == std::string::npos ? "" : line.substr(first);
    if (!in_seed_list && body.rfind('[', 0) == 0) {
      section = body.substr(0, body.find(']') + 1);
    }
    const std::size_t eq = line.find('=');
    const auto key = [&] {
      std::string k = eq == std::string::npos ? "" : body.substr(0, body.find('='));
      while (!k.empty() && (k.back() == ' ' || k.back() == '\t')) k.pop_back();
      return k;
    }();
    if (in_seed_list) {
      out += bump_numbers(line) + "\n";
      if (line.find(']') != std::string::npos) in_seed_list = false;
      continue;
    }
    if (section == "[scenario]" && key == "seed") {
      out += line.substr(0, eq + 1) + bump_numbers(line.substr(eq + 1)) + "\n";
      continue;
    }
    if (section == "[sweep.zip]" && key == "scenario.seed") {
      out += line.substr(0, eq + 1) + bump_numbers(line.substr(eq + 1)) + "\n";
      in_seed_list = line.find(']', eq) == std::string::npos;
      continue;
    }
    out += line + "\n";
  }
  if (!changed) throw std::runtime_error("scenario text has no seed to offset");
  return out;
}

// ------------------------------------------------------------- workloads

struct GridText {
  std::string name;  // logical file name, e.g. "table1.scn"
  std::string text;
};

std::vector<GridText> paper_grid_texts(const Args& a) {
  const std::string dir = a.root + "/examples/scenarios/";
  std::vector<std::string> files = {"table1.scn", "table2.scn", "wan.scn"};
  if (a.smoke) files = {"table1.scn", "wan.scn"};
  std::vector<GridText> out;
  for (const std::string& f : files) {
    out.push_back({f, offset_seeds(read_file(dir + f), a.seed)});
  }
  return out;
}

// ~1k long-lived Vegas bulk flows in 8 groups plus one traced Reno probe
// on a 400 Mbps dumbbell whose queues never overflow: after the short
// start-up, the ACK clock is the whole run.  The seed shuffles the groups'
// transfer sizes (a fixed set, so the total work is the same for every
// seed) and draws their start times, staggers and the cell seed.
std::string ackclock_text(const Args& a) {
  const int groups = a.smoke ? 4 : 8;
  const int per_group = a.smoke ? 10 : 125;
  std::vector<int> sizes_kb;
  for (int g = 0; g < groups; ++g) sizes_kb.push_back((a.smoke ? 96 : 384) + 32 * g);
  std::uint64_t rng = a.seed;
  for (std::size_t i = sizes_kb.size(); i > 1; --i) {
    std::swap(sizes_kb[i - 1], sizes_kb[splitmix(rng) % i]);
  }
  std::ostringstream s;
  s << "[scenario]\nname = \"ackclock-steady\"\nstop = \"flows-done\"\n"
    << "timeout_s = 200\nseed = " << 1 + a.seed << "\n\n"
    << "[topology]\nkind = \"dumbbell\"\npairs = " << groups + 1 << "\n"
    << "bottleneck_kbps = 400000\nbottleneck_delay_ms = 10\n"
    << "bottleneck_queue = 4096\naccess_mbps = 100\naccess_queue = 2048\n";
  for (int g = 0; g < groups; ++g) {
    const double stagger_s = 0.001 + static_cast<double>(splitmix(rng) % 1000) / 1e6;
    const double start_s = static_cast<double>(splitmix(rng) % 50) / 1000.0;
    s << "\n[[flow]]\nname = \"bulk" << g << "\"\nprotocol = \"vegas\"\n"
      << "bytes = \"" << sizes_kb[static_cast<std::size_t>(g)] << "KB\"\nsrc = \"left"
      << g << "\"\ndst = \"right" << g << "\"\nport = 5001\ncount = " << per_group
      << "\nstagger_s = " << stagger_s << "\nstart_s = " << start_s << "\n";
  }
  s << "\n[[flow]]\nname = \"probe\"\nprotocol = \"reno\"\nbytes = \""
    << (a.smoke ? "1MB" : "8MB") << "\"\nsrc = \"left" << groups
    << "\"\ndst = \"right" << groups << "\"\nport = 4001\nstart_s = 0.2\n"
    << "trace = true\n";
  return s.str();
}

std::string flow_scale_text(const Args& a) {
  std::string text = offset_seeds(
      read_file(a.root + "/examples/scenarios/megaflows.scn"), a.seed);
  if (a.smoke) {
    // 16 x 150 flows over a 2 s horizon: same shape, seconds not minutes.
    for (std::size_t p; (p = text.find("count = 6250")) != std::string::npos;) {
      text.replace(p, 12, "count = 150");
    }
    const std::size_t p = text.find("timeout_s = 8");
    if (p == std::string::npos) throw std::runtime_error("megaflows.scn changed");
    text.replace(p, 13, "timeout_s = 2");
  }
  return text;
}

// ------------------------------------------------------------- checking

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void cell(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (problems.size() < 20) problems.push_back(why);
    }
  }
  void fail_all(std::size_t cells, const std::string& why) {
    // A workload-level check failed: every cell of the repetition counts.
    failed = std::min(attempted, failed + cells);
    if (problems.size() < 20) problems.push_back(why);
  }
};

// Per-cell correctness: the right flows ran, every completed flow
// delivered exactly its configured bytes, traced flows carry a digest.
std::string check_cell(const sweep::CellRecord& rec,
                       const scenario::ScenarioSpec& spec, bool all_complete) {
  if (rec.flows.size() != spec.flows.size()) return "flow count mismatch";
  for (std::size_t i = 0; i < rec.flows.size(); ++i) {
    const sweep::FlowRecord& f = rec.flows[i];
    if (f.bytes != static_cast<std::uint64_t>(spec.flows[i].bytes)) {
      return f.name + ": configured bytes mismatch";
    }
    if (f.completed && f.bytes_delivered != f.bytes) {
      return f.name + ": completed but delivered " +
             std::to_string(f.bytes_delivered) + " of " + std::to_string(f.bytes);
    }
    if (f.bytes_delivered > f.bytes) {
      return f.name + ": delivered more than its configured bytes";
    }
    if (all_complete && !f.completed) return f.name + ": did not complete";
    if (spec.flows[i].trace && (!f.traced || f.trace_digest == 0)) {
      return f.name + ": traced flow has no digest";
    }
  }
  return {};
}

// Digest over every cell's trace digests and per-flow outcomes.  Excludes
// sweep keys (they depend on the registered CC modules) and event counts
// ([metrics] sampling adds events without changing any outcome).
void mix_outcome(common::Hash128& h, const sweep::CellRecord& r) {
  const auto mix_double = [&h](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    h.mix_u64(bits);
  };
  h.mix("cell").mix_u64(r.cell).mix(r.label).mix_u64(r.seed);
  mix_double(r.background_goodput_Bps);
  for (const sweep::FlowRecord& f : r.flows) {
    h.mix(f.name).mix_u64(f.completed ? 1 : 0).mix_u64(f.bytes);
    h.mix_u64(f.bytes_delivered);
    mix_double(f.duration_s);
    h.mix_u64(f.bytes_retransmitted).mix_u64(f.coarse_timeouts);
    h.mix_u64(f.fast_retransmits).mix_u64(f.fine_retransmits);
    h.mix_u64(f.sack_retransmits).mix_u64(f.trace_digest).mix_u64(f.trace_events);
  }
  for (const sweep::TrafficRecord& t : r.traffic) {
    h.mix(t.name).mix_u64(t.started).mix_u64(t.completed).mix_u64(t.failed);
    h.mix_u64(t.bytes_scripted);
  }
  if (r.shard.has_value()) {
    h.mix_u64(static_cast<std::uint64_t>(r.shard->shards));
    h.mix_u64(r.shard->windows).mix_u64(r.shard->cross_posts);
    for (const std::uint64_t e : r.shard->lane_events) h.mix_u64(e);
  }
}

// Simulated totals of one repetition (deterministic for a seed).
struct Outcome {
  std::size_t cells = 0;
  double sim_s = 0;
  double payload_bytes = 0;  // bulk + completed-conversation payload
  std::uint64_t flows_completed = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t bytes_retx = 0;
  std::uint64_t coarse_timeouts = 0;
  std::uint64_t fine_retransmits = 0;
  std::uint64_t conv_started = 0;
  std::uint64_t conv_completed = 0;
  std::uint64_t trace_events = 0;
  std::string digest;

  void add(const sweep::CellRecord& r) {
    ++cells;
    sim_s += r.sim_time_s;
    for (const sweep::FlowRecord& f : r.flows) {
      flows_completed += f.completed ? 1 : 0;
      bytes_delivered += f.bytes_delivered;
      bytes_retx += f.bytes_retransmitted;
      coarse_timeouts += f.coarse_timeouts;
      fine_retransmits += f.fine_retransmits;
      trace_events += f.trace_events;
      payload_bytes += static_cast<double>(f.bytes_delivered);
    }
    for (const sweep::TrafficRecord& t : r.traffic) {
      conv_started += t.started;
      conv_completed += t.completed;
      payload_bytes += static_cast<double>(t.bytes_scripted);
    }
  }
};

Outcome outcome_of(const std::vector<sweep::CellRecord>& recs) {
  Outcome o;
  common::Hash128 h;
  for (const sweep::CellRecord& r : recs) {
    o.add(r);
    mix_outcome(h, r);
  }
  o.digest = h.hex();
  return o;
}

// ------------------------------------------------------------- traced data

// Per-layer observations of one traced repetition.
struct Layers {
  double load_ms = 0;
  double partition_ms = 0;
  double setup_ms = 0;
  double run_ms = 0;
  double collect_ms = 0;
  double run_thread_ns = 0;  // run phase x threads executing it
  std::uint64_t events = 0;
  std::uint64_t timer_scheduled = 0;
  std::uint64_t timer_cancelled = 0;
  std::uint64_t timer_fired = 0;
  std::uint64_t timer_max_live = 0;
  std::uint64_t drops = 0;
  std::vector<double> queue_samples;
  double runner_busy_us = 0;
  double runner_capacity_us = 0;  // threads x map wall
  double straggler_ms = 0;
  std::uint64_t shard_windows = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t lane_events_total = 0;
  double lane_imbalance = 0;
  double digest_ms = 0;
  double cached_pass_ms = 0;
  std::size_t cached_cells = 0;
  std::uint64_t store_bytes = 0;
  perfbench::HookTotals hooks;

  void add_cell(const scenario::CellResult& r) {
    for (const obs::Profiler::Phase& p : r.phases) {
      if (p.name == "setup") setup_ms += p.dur_us / 1e3;
      if (p.name == "run") {
        run_ms += p.dur_us / 1e3;
        run_thread_ns += p.dur_us * 1e3 * (r.shard ? r.shard->threads : 1);
      }
      if (p.name == "collect") collect_ms += p.dur_us / 1e3;
    }
    events += r.sim.events_executed;
    timer_scheduled += r.sim.timer_scheduled;
    timer_cancelled += r.sim.timer_cancelled;
    timer_fired += r.sim.timer_fired;
    timer_max_live = std::max(timer_max_live, r.sim.timer_max_live);
    if (r.shard.has_value()) {
      shard_windows += r.shard->windows;
      cross_posts += r.shard->cross_posts;
      std::uint64_t mx = 0;
      std::uint64_t sum = 0;
      for (const std::uint64_t e : r.shard->lane_events) {
        mx = std::max(mx, e);
        sum += e;
      }
      lane_events_total += sum;
      if (sum > 0) {
        lane_imbalance = std::max(
            lane_imbalance, static_cast<double>(mx) *
                                static_cast<double>(r.shard->lane_events.size()) /
                                static_cast<double>(sum));
      }
    }
    if (r.metrics_on) {
      for (const obs::Summary::Scalar& s : r.summary.scalars) {
        if (s.name == "link.bottleneck.packets_dropped") {
          drops += static_cast<std::uint64_t>(s.value);
        }
      }
      const auto& cols = r.series.columns;
      const auto it = std::find(cols.begin(), cols.end(),
                                std::string("link.bottleneck.queue_packets"));
      if (it != cols.end()) {
        const auto c = static_cast<std::size_t>(it - cols.begin());
        for (const obs::TimeSeries::Row& row : r.series.rows) {
          queue_samples.push_back(row.values[c]);
        }
      }
    }
  }
};

// Spec copy whose Vegas/Reno users run the timed forwarding tables and
// whose bottleneck is sampled by [metrics] (unsharded cells only: the
// engine runs a sampled cell unsharded).  Vegas' alpha/beta/gamma/
// fine_decrease ride on the AlgoSpec only for the module named "vegas",
// so they move into the cell's TcpConfig; that needs every Vegas user of
// the cell to agree, else the cell stays unwrapped.
scenario::ScenarioSpec traced_spec(const scenario::ScenarioSpec& base,
                                   bool sample_metrics) {
  scenario::ScenarioSpec s = base;
  if (sample_metrics) {
    s.metrics.enabled = true;
    s.metrics.interval_s = 0.1;
  }
  std::vector<exp::AlgoSpec*> algos;
  for (auto& f : s.flows) algos.push_back(&f.algo);
  for (auto& t : s.traffic) algos.push_back(&t.algo);
  const exp::AlgoSpec* vegas_params = nullptr;
  for (const exp::AlgoSpec* al : algos) {
    if (al->name != "vegas") continue;
    if (vegas_params != nullptr &&
        (al->alpha != vegas_params->alpha || al->beta != vegas_params->beta ||
         al->gamma != vegas_params->gamma ||
         al->fine_decrease != vegas_params->fine_decrease)) {
      return s;
    }
    vegas_params = al;
  }
  if (vegas_params != nullptr) {
    s.tcp.vegas_alpha = vegas_params->alpha;
    s.tcp.vegas_beta = vegas_params->beta;
    s.tcp.vegas_gamma = vegas_params->gamma;
    s.tcp.vegas_fine_decrease = vegas_params->fine_decrease;
  }
  for (exp::AlgoSpec* al : algos) {
    const std::string wrapped = perfbench::timed_name(al->name);
    if (!wrapped.empty()) al->name = wrapped;
  }
  return s;
}

// Runs one cell inside a span with its engine phases as child spans and
// the trace digests re-checked; labels restored to the untraced spec's.
scenario::CellResult traced_cell(perfbench::SpanLog& log,
                                 const scenario::ScenarioSpec& plain,
                                 const scenario::ScenarioSpec& spec,
                                 std::size_t index, const std::string& label,
                                 const scenario::RunOptions& opts, int cause,
                                 double* digest_ms, std::string* problem) {
  scenario::CellResult r;
  {
    const perfbench::Scope span(log, "run_cell", "scenario",
                                static_cast<long>(index), cause);
    const std::int64_t t0 = now_ns();
    r = scenario::run_cell(spec, index, label, opts);
    for (const obs::Profiler::Phase& p : r.phases) {
      const auto at = t0 + static_cast<std::int64_t>(p.start_us * 1e3);
      log.add("engine." + p.name, "scenario", static_cast<long>(index),
              span.index(), at, at + static_cast<std::int64_t>(p.dur_us * 1e3));
    }
  }
  {
    const perfbench::Scope span(log, "trace_digest", "check",
                                static_cast<long>(index));
    const std::int64_t t0 = now_ns();
    for (const scenario::FlowResult& f : r.flows) {
      if (f.traced && check::trace_digest(f.trace) != f.trace_digest) {
        *problem = "cell " + std::to_string(index) + ": trace digest mismatch";
      }
    }
    *digest_ms += static_cast<double>(now_ns() - t0) / 1e6;
  }
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    r.flows[i].algorithm = plain.flows[i].algo.label();
  }
  return r;
}

// ------------------------------------------------------------- repetitions

// World construction time of one cell, from the engine's own setup phase
// on a copy of the cell stopped before its first event.
double world_setup_s(scenario::ScenarioSpec spec,
                     const scenario::RunOptions& opts) {
  spec.stop = scenario::ScenarioSpec::Stop::kTimeout;
  spec.timeout_s = 0;
  const scenario::CellResult r = scenario::run_cell(spec, 0, "", opts);
  for (const obs::Profiler::Phase& p : r.phases) {
    if (p.name == "setup") return p.dur_us / 1e6;
  }
  return 0;
}

// One measured repetition.
struct Rep {
  double wall_s = 0;  // the workload's measured call(s)
  Cpu cpu;            // CPU consumed by them
  double setup_s = 0; // load+compile + world construction
  Outcome outcome;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Compiles the workload, timing it into load_s.
  virtual void load() = 0;
  /// Set-up time (load + compile + world construction) measured apart
  /// from the repetitions.
  virtual double separate_setup_s() = 0;
  virtual Rep run(Tally& tally) = 0;
  virtual Rep run_traced(Tally& tally, perfbench::SpanLog& log,
                         Layers& layers) = 0;

  double load_s = 0;
  /// separate_setup_s() samples per run; with none, each repetition
  /// reports its own set-up (where a separate one would be costly).
  int setup_samples = 0;
};

// ---- paper_grid

class PaperGrid final : public Workload {
 public:
  PaperGrid(const Args& a, int threads)
      : args_(a), threads_(threads), store_dir_(a.out + "/paper_grid-store") {}

  void load() override {
    texts_ = paper_grid_texts(args_);
    const std::int64_t t0 = now_ns();
    grids_.clear();
    for (const GridText& g : texts_) {
      grids_.push_back(scenario::Scenario::from_text(g.text, g.name));
    }
    load_s = static_cast<double>(now_ns() - t0) / 1e9;
  }

  double separate_setup_s() override {
    load();
    double world_s = 0;
    for (const scenario::Scenario& sc : grids_) {
      for (std::size_t i = 0; i < sc.cells(); ++i) {
        world_s += world_setup_s(sc.cell(i), {});
      }
    }
    return load_s + world_s;
  }

  Rep run(Tally& tally) override {
    reset_store();
    const sweep::ResultStore store(store_dir_);
    sweep::SweepOptions opts;
    opts.threads = threads_;
    Rep rep;
    std::vector<sweep::SweepReport> first;
    const Cpu c0 = cpu_now();
    const std::int64_t t0 = now_ns();
    for (std::size_t g = 0; g < grids_.size(); ++g) {
      first.push_back(sweep::run_sweep(grids_[g], texts_[g].name, store, opts));
    }
    rep.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    rep.cpu = cpu_since(c0);
    std::vector<std::string> summaries;
    for (const sweep::SweepReport& r : first) {
      summaries.push_back(r.complete ? sweep::summary_json(r) : "");
    }
    cached_pass(store, opts, summaries, tally, nullptr);
    rep.outcome = verify(first, tally);
    return rep;
  }

  Rep run_traced(Tally& tally, perfbench::SpanLog& log, Layers& layers) override {
    {
      const perfbench::Scope span(log, "load", "scenario");
      load();
    }
    layers.load_ms += load_s * 1e3;
    {
      const perfbench::Scope span(log, "reset_store", "sweep");
      reset_store();
    }
    const sweep::ResultStore store(store_dir_);
    const sweep::KeyContext ctx = sweep::default_key_context(0);
    sweep::SweepOptions opts;
    opts.threads = threads_;
    Rep rep;
    std::vector<sweep::SweepReport> first;
    std::vector<std::string> problems;
    const Cpu c0 = cpu_now();
    const std::int64_t t0 = now_ns();
    // The uncached pass, drained as run_sweep drains it (key, runner
    // fan-out, run_cell, store put), with a span around each call.
    for (std::size_t g = 0; g < grids_.size(); ++g) {
      const scenario::Scenario& sc = grids_[g];
      sweep::SweepReport report;
      report.scenario = sc.name();
      report.file = texts_[g].name;
      report.cells = sc.cells();
      std::vector<std::string> keys;
      {
        const perfbench::Scope span(log, "cell_keys", "sweep");
        for (std::size_t i = 0; i < sc.cells(); ++i) {
          keys.push_back(sweep::cell_key(sc, i, ctx));
        }
        report.grid_key = sweep::grid_key(keys, ctx);
      }
      std::vector<std::string> cell_problems(sc.cells());
      std::vector<double> digest_ms(sc.cells(), 0.0);
      exp::ParallelRunner runner(threads_);
      std::mutex layers_mu;  // guards `layers` across runner workers
      std::vector<sweep::CellRecord> recs;
      {
        const perfbench::Scope map_span(log, "ParallelRunner.map", "exp.runner");
        const std::int64_t m0 = now_ns();
        recs = runner.map(sc.cells(), [&](int ii) {
          const auto i = static_cast<std::size_t>(ii);
          const scenario::ScenarioSpec spec = traced_spec(sc.cell(i), true);
          const scenario::CellResult r =
              traced_cell(log, sc.cell(i), spec, i, sc.label(i), {},
                          map_span.index(), &digest_ms[i], &cell_problems[i]);
          {
            const std::scoped_lock lock(layers_mu);
            layers.add_cell(r);
          }
          sweep::CellRecord rec = sweep::record_from_result(r, keys[i]);
          const perfbench::Scope put(log, "store_put", "sweep",
                                     static_cast<long>(i));
          store.put(keys[i], rec, report.grid_key);
          return rec;
        });
        const double wall_us = static_cast<double>(now_ns() - m0) / 1e3;
        layers.runner_capacity_us += wall_us * runner.threads();
        for (const auto& ws : runner.worker_stats()) {
          layers.runner_busy_us += ws.busy_us;
        }
      }
      for (const double d : digest_ms) layers.digest_ms += d;
      for (const std::string& p : cell_problems) {
        if (!p.empty()) problems.push_back(p);
      }
      report.complete = true;
      report.records = std::move(recs);
      first.push_back(std::move(report));
    }
    rep.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    rep.cpu = cpu_since(c0);
    layers.straggler_ms += straggler_ms(log, t0);
    {
      const perfbench::Scope span(log, "store_bytes", "sweep");
      layers.store_bytes = dir_bytes(store_dir_);
    }
    std::vector<std::string> summaries;
    {
      const perfbench::Scope span(log, "summary_json", "sweep");
      for (const sweep::SweepReport& r : first) {
        summaries.push_back(sweep::summary_json(r));
      }
    }
    const std::int64_t c_t0 = now_ns();
    cached_pass(store, opts, summaries, tally, &log);
    layers.cached_pass_ms += static_cast<double>(now_ns() - c_t0) / 1e6;
    for (const scenario::Scenario& sc : grids_) layers.cached_cells += sc.cells();
    const perfbench::Scope span(log, "verify", "bench");
    rep.outcome = verify(first, tally);
    for (const std::string& p : problems) tally.fail_all(1, p);
    return rep;
  }

 private:
  void reset_store() {
    std::error_code ec;
    fs::remove_all(store_dir_, ec);
  }

  // Second pass over the same store: every cell must be a cache hit and
  // the summary byte-identical to the first pass's.
  void cached_pass(const sweep::ResultStore& store,
                   const sweep::SweepOptions& opts,
                   const std::vector<std::string>& summaries, Tally& tally,
                   perfbench::SpanLog* log) {
    for (std::size_t g = 0; g < grids_.size(); ++g) {
      std::optional<perfbench::Scope> span;
      if (log != nullptr) span.emplace(*log, "run_sweep (cached)", "sweep");
      const sweep::SweepReport again =
          sweep::run_sweep(grids_[g], texts_[g].name, store, opts);
      if (again.cache_hits != grids_[g].cells() || again.computed != 0 ||
          !again.complete) {
        tally.fail_all(grids_[g].cells(), texts_[g].name + ": cached pass missed");
      } else if (sweep::summary_json(again) != summaries[g]) {
        tally.fail_all(grids_[g].cells(),
                       texts_[g].name + ": cached summary differs");
      }
    }
  }

  Outcome verify(const std::vector<sweep::SweepReport>& first, Tally& tally) {
    std::vector<sweep::CellRecord> all;
    for (std::size_t g = 0; g < grids_.size(); ++g) {
      const sweep::SweepReport& r = first[g];
      if (!r.complete || r.records.size() != grids_[g].cells()) {
        for (std::size_t i = 0; i < grids_[g].cells(); ++i) {
          tally.cell(false, texts_[g].name + ": incomplete sweep");
        }
        continue;
      }
      for (std::size_t i = 0; i < r.records.size(); ++i) {
        const std::string why = check_cell(r.records[i], grids_[g].cell(i), false);
        tally.cell(why.empty(), texts_[g].name + " cell " + std::to_string(i) +
                                    ": " + why);
        all.push_back(r.records[i]);
      }
    }
    return outcome_of(all);
  }

  // Sum over the runner fan-outs of (last worker finish - mean worker
  // finish), from the worker threads' run_cell spans.
  static double straggler_ms(const perfbench::SpanLog& log, std::int64_t since) {
    const std::vector<perfbench::Span> spans = log.spans();
    double total = 0;
    for (std::size_t m = 0; m < spans.size(); ++m) {
      const perfbench::Span& map = spans[m];
      if (map.name != "ParallelRunner.map" || map.t0 < since) continue;
      std::map<int, std::int64_t> finish;
      for (const perfbench::Span& s : spans) {
        if (s.name == "run_cell" && s.parent == static_cast<int>(m)) {
          std::int64_t& f = finish[s.tid];
          f = std::max(f, s.t1);
        }
      }
      if (finish.empty()) continue;
      double mean = 0;
      std::int64_t last = 0;
      for (const auto& [tid, f] : finish) {
        mean += static_cast<double>(f);
        last = std::max(last, f);
      }
      mean /= static_cast<double>(finish.size());
      total += (static_cast<double>(last) - mean) / 1e6;
    }
    return total;
  }

  Args args_;
  int threads_;
  std::string store_dir_;
  std::vector<GridText> texts_;
  std::vector<scenario::Scenario> grids_;
};

// ---- single-cell workloads (ackclock_steady, flow_scale_sharded)

// A flows-done cell must complete every flow; a sharded one runs
// without [metrics] sampling, which would force it unsharded.
class SingleCell final : public Workload {
 public:
  SingleCell(std::string text, scenario::RunOptions opts)
      : text_(std::move(text)), opts_(std::move(opts)) {}

  double separate_setup_s() override {
    load();
    return load_s + world_setup_s(sc_->cell(0), opts_);
  }

  void load() override {
    const std::int64_t t0 = now_ns();
    sc_ = std::make_unique<scenario::Scenario>(
        scenario::Scenario::from_text(text_, "workload.scn"));
    load_s = static_cast<double>(now_ns() - t0) / 1e9;
    if (sc_->cells() != 1) throw std::runtime_error("expected one cell");
  }

  Rep run(Tally& tally) override {
    load();
    Rep rep;
    const Cpu c0 = cpu_now();
    const std::int64_t t0 = now_ns();
    const scenario::CellResult r = scenario::run_cell(sc_->cell(0), 0, "", opts_);
    rep.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    rep.cpu = cpu_since(c0);
    rep.setup_s = load_s + setup_phase_s(r);
    rep.outcome = verify(r, tally);
    return rep;
  }

  Rep run_traced(Tally& tally, perfbench::SpanLog& log, Layers& layers) override {
    Rep rep;
    {
      const perfbench::Scope span(log, "load", "scenario");
      load();
    }
    layers.load_ms += load_s * 1e3;
    const bool sharded = opts_.shards > 1;
    if (sharded) {
      // The partitioner alone, on the cell's own topology and flows.
      const perfbench::Scope span(log, "partition_network", "scenario");
      layers.partition_ms += partition_ms();
    }
    const scenario::ScenarioSpec spec = traced_spec(sc_->cell(0), !sharded);
    std::string problem;
    const Cpu c0 = cpu_now();
    const std::int64_t r0 = now_ns();
    const scenario::CellResult r =
        traced_cell(log, sc_->cell(0), spec, 0, "", opts_, -1,
                    &layers.digest_ms, &problem);
    rep.wall_s = static_cast<double>(now_ns() - r0) / 1e9;
    rep.cpu = cpu_since(c0);
    layers.add_cell(r);
    rep.setup_s = load_s + setup_phase_s(r);
    const perfbench::Scope span(log, "verify", "bench");
    rep.outcome = verify(r, tally);
    if (!problem.empty()) tally.fail_all(1, problem);
    return rep;
  }

 private:
  static double setup_phase_s(const scenario::CellResult& r) {
    for (const obs::Profiler::Phase& p : r.phases) {
      if (p.name == "setup") return p.dur_us / 1e6;
    }
    return 0;
  }

  Outcome verify(const scenario::CellResult& r, Tally& tally) {
    const sweep::CellRecord rec = sweep::record_from_result(r, "");
    const scenario::ScenarioSpec& spec = sc_->cell(0);
    const std::string why = check_cell(
        rec, spec, spec.stop == scenario::ScenarioSpec::Stop::kFlowsDone);
    tally.cell(why.empty(), why);
    return outcome_of({rec});
  }

  // Builds the cell's dumbbell and partitions it exactly as the engine
  // does for a [sharding] request (flow endpoints feed the weights).
  double partition_ms() {
    const scenario::ScenarioSpec& spec = sc_->cell(0);
    if (spec.topology.kind != scenario::TopologySpec::Kind::kDumbbell) return 0;
    exp::DumbbellWorld world(spec.topology.dumbbell, spec.tcp, spec.seed);
    const auto host_id = [&](const std::string& ref) {
      const bool left = ref.rfind("left", 0) == 0;
      const int i = std::stoi(ref.substr(left ? 4 : 5));
      const auto idx = static_cast<std::size_t>(i);
      return left ? world.topo().left[idx]->id() : world.topo().right[idx]->id();
    };
    scenario::PartitionInput pin;
    pin.want_shards = std::min(opts_.shards, sim::Simulator::kMaxLanes);
    for (const scenario::FlowSpec& f : spec.flows) {
      pin.flows.push_back({host_id(f.src), host_id(f.dst)});
    }
    const std::int64_t t0 = now_ns();
    const scenario::ShardPlan plan = scenario::partition_network(world.topo().net, pin);
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    if (plan.shards < 2) throw std::runtime_error("partitioner did not shard");
    return ms;
  }

  std::string text_;
  scenario::RunOptions opts_;
  std::unique_ptr<scenario::Scenario> sc_;
};

// ------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool integral = false;
};

std::string result_json(bool correct, const Tally& t,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    if (m.integral) {
      std::snprintf(buf, sizeof buf, "%.0f", m.value);
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    }
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  (void)perfbench::thread_number();  // the main thread is thread 0
  fs::create_directories(args.out);

  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (nproc < 1) nproc = 1;
  const int threads = static_cast<int>(std::min<long>(4, nproc));

  std::unique_ptr<Workload> w;
  if (args.workload == "paper_grid") {
    w = std::make_unique<PaperGrid>(args, threads);
    w->setup_samples = args.smoke ? 1 : 5;
  } else if (args.workload == "ackclock_steady") {
    scenario::RunOptions o;
    o.threads = 1;
    o.shards = 1;
    w = std::make_unique<SingleCell>(ackclock_text(args), o);
    w->setup_samples = args.smoke ? 1 : 15;
  } else if (args.workload == "flow_scale_sharded") {
    scenario::RunOptions o;
    o.threads = threads;
    o.shards = 4;
    w = std::make_unique<SingleCell>(flow_scale_text(args), o);
  } else {
    usage("unknown workload " + args.workload);
  }

  Tally tally;
  perfbench::SpanLog log;
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  std::vector<Layers> layer_reps;
  std::vector<double> setups;
  std::vector<std::string> digests;
  std::int64_t traced_wall_ns = 0;

  const auto guarded = [&](const std::function<Rep()>& fn) -> std::optional<Rep> {
    try {
      return fn();
    } catch (const std::exception& e) {
      tally.cell(false, std::string("threw: ") + e.what());
      return std::nullopt;
    }
  };

  // Set-up, measured several times up front where that is cheap; a
  // workload without samples reports it from its repetitions.
  try {
    for (int i = 0; i < w->setup_samples; ++i) {
      cold_heap();
      setups.push_back(w->separate_setup_s());
    }
    w->load();
  } catch (const std::exception& e) {
    tally.cell(false, std::string("set-up threw: ") + e.what());
  }

  const int min_reps = args.smoke ? 1 : 3;
  const int warmups = args.smoke ? 0 : 1;
  if (args.trace) perfbench::install_timed_cc();

  const std::int64_t start = now_ns();
  int rep_i = 0;
  for (;; ++rep_i) {
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    const int measured = rep_i - warmups;
    if (measured >= min_reps && elapsed >= args.seconds) break;
    if (tally.attempted > 0 && tally.failed == tally.attempted && rep_i > 0) break;
    std::optional<Rep> rep;
    if (!args.trace) {
      cold_heap();
      rep = guarded([&] { return w->run(tally); });
      if (rep && measured >= 0) plain.push_back(*rep);
    } else {
      // Alternate untraced and traced repetitions.
      cold_heap();
      std::optional<Rep> p = guarded([&] { return w->run(tally); });
      Layers layers;
      perfbench::reset_hook_totals();
      cold_heap();
      log.enable(true);
      const std::int64_t t0 = now_ns();
      rep = guarded([&] { return w->run_traced(tally, log, layers); });
      const std::int64_t t1 = now_ns();
      log.enable(false);
      layers.hooks = perfbench::hook_totals();
      if (p && rep && p->outcome.digest != rep->outcome.digest) {
        tally.fail_all(rep->outcome.cells, "traced and untraced digests differ");
      }
      if (p) digests.push_back(p->outcome.digest);
      if (measured >= 0) {
        if (p) plain.push_back(*p);
        if (rep) {
          traced.push_back(*rep);
          layer_reps.push_back(layers);
          traced_wall_ns += t1 - t0;
        }
      } else {
        log.clear();  // warm-up spans are not reported
      }
    }
    if (rep) digests.push_back(rep->outcome.digest);
    if (rep && w->setup_samples == 0 && measured >= 0) {
      setups.push_back(rep->setup_s);
    }
  }

  // Every repetition of a seed must give the same outcome.
  for (const std::string& d : digests) {
    if (d != digests.front()) {
      tally.fail_all(plain.empty() ? 1 : plain.back().outcome.cells,
                     "outcome digest differs between repetitions");
      break;
    }
  }
  if (plain.empty() || (args.trace && traced.empty())) {
    tally.fail_all(1, "no repetition completed");
  }
  if (tally.attempted == 0) tally.cell(false, "nothing ran");

  const Outcome o = plain.empty() ? Outcome{} : plain.back().outcome;
  const auto med = [](const std::vector<Rep>& reps, auto f) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(f(r));
    return median(v);
  };
  const double wall = med(plain, [](const Rep& r) { return r.wall_s; });
  const double cpu = med(plain, [](const Rep& r) { return r.cpu.user_s + r.cpu.sys_s; });
  const double sys = med(plain, [](const Rep& r) { return r.cpu.sys_s; });
  const double segments = o.payload_bytes / kMss;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"wall_s_per_sim_s", o.sim_s > 0 ? wall / o.sim_s : 0, "s/s"},
        {"us_per_segment", segments > 0 ? wall * 1e6 / segments : 0, "us"},
        {"cells_per_s", wall > 0 ? static_cast<double>(o.cells) / wall : 0, "1/s"},
        {"cpu_s_per_sim_s", o.sim_s > 0 ? cpu / o.sim_s : 0, "s/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const auto lmed = [&](auto f) {
      std::vector<double> v;
      for (const Layers& l : layer_reps) v.push_back(f(l));
      return median(v);
    };
    const Layers last = layer_reps.empty() ? Layers{} : layer_reps.back();
    const double twall = med(traced, [](const Rep& r) { return r.wall_s; });
    const std::vector<perfbench::Span> spans = log.spans();
    const std::vector<std::int64_t> self = perfbench::self_times(spans);
    std::int64_t main_self = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].tid == 0) main_self += self[i];
    }
    std::vector<double> queue;
    for (const Layers& l : layer_reps) {
      queue.insert(queue.end(), l.queue_samples.begin(), l.queue_samples.end());
    }
    const double events = static_cast<double>(last.events);
    const double run_ns = lmed([](const Layers& l) { return l.run_ms * 1e6; });
    metrics = {
        {"scenario.load_ms", lmed([](const Layers& l) { return l.load_ms; }), "ms"},
        {"scenario.partition_ms", lmed([](const Layers& l) { return l.partition_ms; }), "ms"},
        {"engine.setup_ms", lmed([](const Layers& l) { return l.setup_ms; }), "ms"},
        {"engine.run_ms", lmed([](const Layers& l) { return l.run_ms; }), "ms"},
        {"engine.collect_ms", lmed([](const Layers& l) { return l.collect_ms; }), "ms"},
        {"sim.events", events, "count", true},
        {"sim.events_per_segment", segments > 0 ? events / segments : 0, "count"},
        {"sim.ns_per_event", events > 0 ? run_ns / events : 0, "ns"},
        {"sim.timer_scheduled", static_cast<double>(last.timer_scheduled), "count", true},
        {"sim.timer_cancelled", static_cast<double>(last.timer_cancelled), "count", true},
        {"sim.timer_fired", static_cast<double>(last.timer_fired), "count", true},
        {"sim.timer_max_live", static_cast<double>(last.timer_max_live), "count", true},
        {"cc.hook_calls", static_cast<double>(last.hooks.calls), "count", true},
        {"cc.on_ack_ns", lmed([](const Layers& l) {
           return l.hooks.on_ack_calls > 0
                      ? static_cast<double>(l.hooks.on_ack_ns) /
                            static_cast<double>(l.hooks.on_ack_calls)
                      : 0.0;
         }), "ns"},
        {"cc.share_of_run", lmed([](const Layers& l) {
           return l.run_thread_ns > 0 ? static_cast<double>(l.hooks.ns) / l.run_thread_ns
                                      : 0.0;
         }), "ratio"},
        {"tcp.flows_completed", static_cast<double>(o.flows_completed), "count", true},
        {"tcp.retx_ratio", o.bytes_delivered > 0
                               ? static_cast<double>(o.bytes_retx) /
                                     static_cast<double>(o.bytes_delivered)
                               : 0, "ratio"},
        {"tcp.coarse_timeouts", static_cast<double>(o.coarse_timeouts), "count", true},
        {"tcp.fine_retransmits", static_cast<double>(o.fine_retransmits), "count", true},
        {"traffic.conversations_started", static_cast<double>(o.conv_started), "count", true},
        {"traffic.conversations_completed", static_cast<double>(o.conv_completed), "count", true},
        {"net.bottleneck_drops", static_cast<double>(last.drops), "count", true},
        {"net.bottleneck_queue_p99", percentile(queue, 0.99), "packets"},
        {"runner.utilization", lmed([](const Layers& l) {
           return l.runner_capacity_us > 0 ? l.runner_busy_us / l.runner_capacity_us : 0.0;
         }), "ratio"},
        {"runner.straggler_ms", lmed([](const Layers& l) { return l.straggler_ms; }), "ms"},
        {"shard.windows", static_cast<double>(last.shard_windows), "count", true},
        {"shard.cross_posts", static_cast<double>(last.cross_posts), "count", true},
        {"shard.cross_post_share", last.lane_events_total > 0
                                       ? static_cast<double>(last.cross_posts) /
                                             static_cast<double>(last.lane_events_total)
                                       : 0, "ratio"},
        {"shard.lane_imbalance", last.lane_imbalance, "ratio"},
        {"proc.sys_share", wall > 0 ? sys / wall : 0, "ratio"},
        {"check.digest_ms", lmed([](const Layers& l) { return l.digest_ms; }), "ms"},
        {"trace.events", static_cast<double>(o.trace_events), "count", true},
        {"sweep.cached_pass_ms", lmed([](const Layers& l) { return l.cached_pass_ms; }), "ms"},
        {"sweep.hit_us_per_cell", lmed([](const Layers& l) {
           return l.cached_cells > 0
                      ? l.cached_pass_ms * 1e3 / static_cast<double>(l.cached_cells)
                      : 0.0;
         }), "us"},
        {"sweep.store_bytes", static_cast<double>(last.store_bytes), "bytes", true},
        {"obs.trace_overhead_pct", wall > 0 ? 100.0 * (twall - wall) / wall : 0, "%"},
        {"obs.span_coverage", traced_wall_ns > 0
                                  ? static_cast<double>(main_self) /
                                        static_cast<double>(traced_wall_ns)
                                  : 0, "ratio"},
        {"cell_error_rate", tally.attempted > 0
                                ? static_cast<double>(tally.failed) /
                                      static_cast<double>(tally.attempted)
                                : 1, "ratio"},
    };
    const std::string stem = args.out + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    write_file(stem + "-spans.json", perfbench::chrome_trace_json(spans));
    write_file(stem + "-selftime.txt",
               perfbench::self_time_table(spans, traced_wall_ns));
    std::printf("# spans: %s-spans.json, self times: %s-selftime.txt\n",
                stem.c_str(), stem.c_str());
  }

  for (const std::string& p : tally.problems) {
    std::printf("# problem: %s\n", p.c_str());
  }
  std::printf("# reps: %zu untraced, %zu traced; cells %zu; sim %.6g s\n",
              plain.size(), traced.size(), o.cells, o.sim_s);
  std::printf("# untraced walls (s):");
  for (const Rep& r : plain) std::printf(" %.4f", r.wall_s);
  std::printf("\n");
  std::printf("outcome_digest %s\n", o.digest.c_str());
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::printf("%s\n", result_json(correct, tally, metrics).c_str());
  std::fflush(stdout);
  return 0;
}
