// Timed forwarding CongOps tables for the benchmark's traced runs.
//
// install_timed_cc() registers one forwarding table per wrapped module
// ("perfbench_vegas" over Vegas, "perfbench_reno" over Reno).  Each table
// keeps its base module's label, private-state layout and null-hook
// pattern, and times every hook call with the steady clock.  Reno's
// on_ack/on_dup_ack/on_loss are null (the base engine runs them); the
// wrapper forwards those to CcSender's public reno_* entry points, which
// is exactly what a null hook does, so the wrapper is behaviour-neutral
// and every trace digest stays unchanged.
//
// Registering extra modules changes sweep::cc_fingerprint(), so sweep
// keys computed after install_timed_cc() differ from an untraced
// process's keys; outcome digests do not include keys.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

void install_timed_cc();

/// Registry name of the timed wrapper over base module `name`
/// (canonical spelling), or empty when the module is not wrapped.
std::string timed_name(const std::string& name);

struct HookTotals {
  std::uint64_t calls = 0;  // every timed hook call
  std::uint64_t ns = 0;     // wall time inside them
  std::uint64_t on_ack_calls = 0;
  std::uint64_t on_ack_ns = 0;
};

/// Totals over every thread since the last reset.  Call only while no
/// simulation is running.
HookTotals hook_totals();
void reset_hook_totals();

}  // namespace perfbench
