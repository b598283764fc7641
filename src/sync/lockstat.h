// Lock statistics registry.
//
// Appendix A: "A simple lock is stored in a C language int variable, which
// is part of a structure to allow the simple addition of debugging and
// statistics information." This module is that addition, system-wide:
// every simple and complex lock registers itself on initialization and
// unregisters on destruction, and the registry can snapshot acquisition /
// contention counts for all live locks — the moral equivalent of a
// kernel's lockstat.
//
// Counter updates need no extra synchronization: a simple lock's
// counters are mutated only while the lock itself is held; a complex
// lock's counters live in its interlock-protected stats. Snapshots read
// them while the locks are in use (counts may be one op stale), so each
// counter is a stat_counter: a relaxed atomic that its writers bump with a
// plain load and store.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace mach {

struct lock_data_t;
struct simple_lock_data_t;

// A statistics counter written only under the lock that guards it and read
// by snapshots without that lock. ++ is a relaxed load plus a relaxed
// store, not a read-modify-write: the guarding lock already serialises
// writers, so a bump costs what a plain increment does, and a concurrent
// reader sees a whole value instead of racing.
class stat_counter {
 public:
  stat_counter() = default;
  stat_counter(const stat_counter& o) noexcept : v_(o.load()) {}
  stat_counter& operator=(const stat_counter& o) noexcept {
    v_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }

  stat_counter& operator++() noexcept {
    v_.store(v_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    return *this;
  }
  std::uint64_t load() const noexcept { return v_.load(std::memory_order_relaxed); }
  operator std::uint64_t() const noexcept { return load(); }  // NOLINT(google-explicit-constructor)

 private:
  std::atomic<std::uint64_t> v_{0};
};

struct lock_stat_entry {
  const void* address;
  const char* name;
  bool is_complex;
  std::uint64_t acquisitions;  // simple: lock+try-success; complex: read+write
  std::uint64_t contended;     // simple: not-first-try; complex: sleeps+spins
  // Hold/wait-time profile, populated only while ktrace is enabled (the
  // per-lock latency histograms are clock-gated; see trace/ktrace.h).
  // Quantiles are log2-bucket upper bounds in nanoseconds; counts of 0
  // mean "never timed", not "instantaneous".
  std::uint64_t hold_samples = 0;
  std::uint64_t hold_p50_nanos = 0;
  std::uint64_t hold_p99_nanos = 0;
  std::uint64_t wait_samples = 0;
  std::uint64_t wait_p50_nanos = 0;
  std::uint64_t wait_p99_nanos = 0;
};

class lock_registry {
 public:
  // Never destroyed (locks with static storage may unregister after main).
  static lock_registry& instance() noexcept;

  void add(simple_lock_data_t* l);
  void remove(simple_lock_data_t* l);
  void add(lock_data_t* l);
  void remove(lock_data_t* l);

  std::size_t live_locks() const;

  // Snapshot all live locks, most contended first. Order is fully
  // deterministic: contended desc, acquisitions desc, then name and
  // finally address as tie-breaks.
  std::vector<lock_stat_entry> snapshot() const;

  // Print the top `max_rows` most contended locks as a table on stdout,
  // including hold/wait p50/p99 (ktrace-populated; see snapshot()).
  void print_top(std::size_t max_rows = 20) const;

  // Machine-readable snapshot: a JSON array of per-lock objects, so CI
  // and scripts can consume lock stats without parsing the print_top
  // table. The "hold"/"wait" quantile objects are OMITTED for a lock whose
  // profile never sampled (profiling is ktrace-gated), matching the "-"
  // cells in print_top — absent means "not measured", never "measured 0".
  // The bench harness emits this on exit when MACHLOCK_LOCKSTAT=json
  // (see trace/trace_session.h).
  std::string snapshot_json() const;

 private:
  lock_registry() = default;
  struct impl;
  impl& self() const;
};

}  // namespace mach
