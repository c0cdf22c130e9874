#include "cc_timing.h"

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "cc/cc_sender.h"
#include "cc/registry.h"
#include "spans.h"

namespace perfbench {

namespace {

using vegas::ByteCount;
using vegas::cc::CcSender;
using vegas::cc::CongOps;
using vegas::cc::CwndEvent;
using vegas::cc::PacingHint;

enum Hook { kInit, kRelease, kOnAck, kOnDupAck, kOnLoss, kOnRttSample,
            kCwndEvent, kSsthresh, kPacing, kHooks };

// One writer (its thread), read by the main thread between runs.
struct ThreadTotals {
  std::array<std::atomic<std::uint64_t>, kHooks> calls{};
  std::array<std::atomic<std::uint64_t>, kHooks> ns{};
};

std::mutex g_totals_mu;
std::vector<std::unique_ptr<ThreadTotals>> g_totals;  // guarded by g_totals_mu

ThreadTotals& mine() {
  thread_local ThreadTotals* t = [] {
    const std::scoped_lock lock(g_totals_mu);
    g_totals.push_back(std::make_unique<ThreadTotals>());
    return g_totals.back().get();
  }();
  return *t;
}

class Timed {
 public:
  explicit Timed(Hook h) : h_(h), t0_(now_ns()) {}
  ~Timed() {
    ThreadTotals& t = mine();
    t.calls[h_].fetch_add(1, std::memory_order_relaxed);
    t.ns[h_].fetch_add(static_cast<std::uint64_t>(now_ns() - t0_),
                       std::memory_order_relaxed);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Hook h_;
  std::int64_t t0_;
};

constexpr int kSlots = 2;
constexpr std::array<const char*, kSlots> kBase = {"vegas", "reno"};
constexpr std::array<const char*, kSlots> kWrapped = {"perfbench_vegas",
                                                      "perfbench_reno"};
std::array<const CongOps*, kSlots> g_base{};
std::array<CongOps, kSlots> g_ops{};  // registered: static storage

template <int S> void fw_init(CcSender& s) {
  const Timed t(kInit);
  g_base[S]->init(s);
}
template <int S> void fw_release(CcSender& s) {
  const Timed t(kRelease);
  g_base[S]->release(s);
}
template <int S> void fw_on_ack(CcSender& s, ByteCount n) {
  const Timed t(kOnAck);
  g_base[S]->on_ack(s, n);
}
void fw_reno_on_ack(CcSender& s, ByteCount n) {
  const Timed t(kOnAck);
  s.reno_on_ack(n);
}
template <int S> void fw_on_dup_ack(CcSender& s, int dups) {
  const Timed t(kOnDupAck);
  g_base[S]->on_dup_ack(s, dups);
}
void fw_reno_on_dup_ack(CcSender& s, int dups) {
  const Timed t(kOnDupAck);
  s.reno_on_dup_ack(dups);
}
template <int S> void fw_on_loss(CcSender& s) {
  const Timed t(kOnLoss);
  g_base[S]->on_loss(s);
}
void fw_reno_on_loss(CcSender& s) {
  const Timed t(kOnLoss);
  s.reno_on_loss();
}
template <int S> void fw_on_rtt_sample(CcSender& s, vegas::tcp::StreamOffset a,
                                       bool dup) {
  const Timed t(kOnRttSample);
  g_base[S]->on_rtt_sample(s, a, dup);
}
template <int S> void fw_cwnd_event(CcSender& s, const CwndEvent& ev) {
  const Timed t(kCwndEvent);
  g_base[S]->cwnd_event(s, ev);
}
template <int S> ByteCount fw_ssthresh(CcSender& s) {
  const Timed t(kSsthresh);
  return g_base[S]->ssthresh(s);
}
template <int S> PacingHint fw_pacing(const CcSender& s) {
  const Timed t(kPacing);
  return g_base[S]->pacing(s);
}

template <int S>
void build(const CongOps& b) {
  g_base[S] = &b;
  CongOps o = b;
  o.name = kWrapped[S];
  o.alt = nullptr;
  // A null loss/ACK hook with a null ssthresh runs the base Reno joint;
  // forwarding to the same joint keeps behaviour and makes it timeable.
  const bool reno_joints = b.ssthresh == nullptr;
  if (b.init != nullptr) o.init = fw_init<S>;
  if (b.release != nullptr) o.release = fw_release<S>;
  if (b.on_ack != nullptr) {
    o.on_ack = fw_on_ack<S>;
  } else if (reno_joints) {
    o.on_ack = fw_reno_on_ack;
  }
  if (b.on_dup_ack != nullptr) {
    o.on_dup_ack = fw_on_dup_ack<S>;
  } else if (reno_joints) {
    o.on_dup_ack = fw_reno_on_dup_ack;
  }
  if (b.on_loss != nullptr) {
    o.on_loss = fw_on_loss<S>;
  } else if (reno_joints) {
    o.on_loss = fw_reno_on_loss;
  }
  if (b.on_rtt_sample != nullptr) o.on_rtt_sample = fw_on_rtt_sample<S>;
  if (b.cwnd_event != nullptr) o.cwnd_event = fw_cwnd_event<S>;
  if (b.ssthresh != nullptr) o.ssthresh = fw_ssthresh<S>;
  if (b.pacing != nullptr) o.pacing = fw_pacing<S>;
  g_ops[S] = o;
  vegas::cc::register_ops(g_ops[S]);
}

}  // namespace

void install_timed_cc() {
  static std::once_flag once;
  std::call_once(once, [] {
    build<0>(*vegas::cc::find(kBase[0]));
    build<1>(*vegas::cc::find(kBase[1]));
  });
}

std::string timed_name(const std::string& name) {
  for (int s = 0; s < kSlots; ++s) {
    if (name == kBase[static_cast<std::size_t>(s)]) {
      return kWrapped[static_cast<std::size_t>(s)];
    }
  }
  return {};
}

HookTotals hook_totals() {
  HookTotals h;
  const std::scoped_lock lock(g_totals_mu);
  for (const auto& t : g_totals) {
    for (int k = 0; k < kHooks; ++k) {
      h.calls += t->calls[k].load(std::memory_order_relaxed);
      h.ns += t->ns[k].load(std::memory_order_relaxed);
    }
    h.on_ack_calls += t->calls[kOnAck].load(std::memory_order_relaxed);
    h.on_ack_ns += t->ns[kOnAck].load(std::memory_order_relaxed);
  }
  return h;
}

void reset_hook_totals() {
  const std::scoped_lock lock(g_totals_mu);
  for (const auto& t : g_totals) {
    for (int k = 0; k < kHooks; ++k) {
      t->calls[k].store(0, std::memory_order_relaxed);
      t->ns[k].store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace perfbench
