// lock_event — the one stage between lock/wait code and its observers,
// where Appendix A's "simple addition of debugging and statistics
// information" plugs in. Lock and wait code reports waits (begin/end),
// holds (acquired/released) and event blocks (blocked/unblocked, and the
// waker's side of the handoff) here only; the stage feeds each event to the
// subscribed consumers:
//
//   consumer    mask bit    receives
//   ktrace      k_trace     hold/wait timing (lock_timing), span records
//   kspan       k_span      span_blocked_on at lock waits, span_unblock
//   wait_graph  k_graph     wait and hold edges
//   watchdog    k_watchdog  stall-table entries (spin, blocked, writer)
//   kprof       k_prof      activity words; also fed while k_watchdog is
//                           set, because trip reports print them
//   kmon        k_mon       sched_block_nanos
//
// A consumer's bit is its on/off switch. Cost: every event loads the mask
// (relaxed); at 0 that load and a branch are all, inline, with no call and
// no clock read. Otherwise one out-of-line call feeds every subscriber.
//
// Contract: wait_end undoes exactly what its wait_begin did, recorded in the
// token begin returned, even if a consumer unsubscribed in between. A timed
// hold's token is the lock_timing::hold_start stamp in the lock itself.
#pragma once

#include <atomic>
#include <cstdint>

#include "base/stats.h"

namespace mach {

// Hold/wait timing in every simple and complex lock; mutated under the lock.
struct lock_timing {
  std::uint64_t hold_start = 0;  // start of the current timed hold; 0 = untimed
  latency_histogram hold_hist;
  latency_histogram wait_hist;
};

namespace lock_event {

inline constexpr std::uint32_t k_trace = 1u << 0;
inline constexpr std::uint32_t k_span = 1u << 1;
inline constexpr std::uint32_t k_graph = 1u << 2;
inline constexpr std::uint32_t k_watchdog = 1u << 3;
inline constexpr std::uint32_t k_prof = 1u << 4;
inline constexpr std::uint32_t k_mon = 1u << 5;

// What a thread waits on or holds.
enum class site : std::uint8_t {
  simple,           // simple lock
  complex_read,     // complex lock, read side
  complex_write,    // complex lock, write side
  complex_upgrade,  // complex lock, read-to-write upgrade (waits only)
  barrier,          // interrupt-barrier entry / release slot
  zone,             // zone memory
  event,            // thread_block on an event (waits only)
};

// What a wait_begin did, for its wait_end to undo; fed == 0: nothing.
struct wait_token {
  std::uint32_t fed = 0;  // consumers fed at begin
  site kind = site::simple;
  const void* resource = nullptr;
  const char* name = nullptr;
  lock_timing* timing = nullptr;
  std::uint64_t start_nanos = 0;
  std::uint64_t prev_activity = 0;  // kprof word to restore
  std::atomic<std::uint64_t>* handoff = nullptr;  // event blocks: waker's span
};

namespace detail {
extern std::atomic<std::uint32_t> g_mask;
wait_token wait_begin_slow(std::uint32_t m, site k, const void* resource, const char* name,
                           const void* holder, lock_timing* timing) noexcept;
void wait_end_slow(const wait_token& t) noexcept;
void thread_unblocked_slow(std::atomic<std::uint64_t>& handoff) noexcept;
void hold_acquired_slow(std::uint32_t m, site k, const void* lock, const void* holder,
                        const char* name, lock_timing* timing) noexcept;
void hold_released_slow(std::uint32_t m, site k, const void* lock, const void* holder,
                        const char* name, lock_timing* timing) noexcept;
}  // namespace detail

inline bool subscribed(std::uint32_t bit) noexcept {
  return (detail::g_mask.load(std::memory_order_relaxed) & bit) != 0;
}
void set_subscribed(std::uint32_t bit, bool on) noexcept;

// The calling thread starts waiting on `resource`, held by `holder` (null
// when unknown). `timing` receives the wait time; null leaves it untimed.
[[nodiscard]] inline wait_token wait_begin(site k, const void* resource, const char* name,
                                           const void* holder = nullptr,
                                           lock_timing* timing = nullptr) noexcept {
  const std::uint32_t m = detail::g_mask.load(std::memory_order_relaxed);
  if (m == 0) [[likely]] return {};
  return detail::wait_begin_slow(m, k, resource, name, holder, timing);
}

inline void wait_end(const wait_token& t) noexcept {
  if (t.fed != 0) [[unlikely]] detail::wait_end_slow(t);
}

// The calling thread may suspend on `event` (it may yet find its wakeup
// pending and not suspend at all); wait_end marks its resumption, and
// reports the waker's span that thread_unblocked left in `handoff`.
[[nodiscard]] inline wait_token thread_blocked(const void* event,
                                               std::atomic<std::uint64_t>& handoff) noexcept {
  wait_token t = wait_begin(site::event, event, nullptr);
  t.handoff = &handoff;
  return t;
}

// A waker wakes the thread owning `handoff`.
inline void thread_unblocked(std::atomic<std::uint64_t>& handoff) noexcept {
  if (subscribed(k_span)) [[unlikely]] detail::thread_unblocked_slow(handoff);
}

// `holder` now holds `lock`; a non-null `timing` times the hold.
inline void hold_acquired(site k, const void* lock, const void* holder, const char* name,
                          lock_timing* timing = nullptr) noexcept {
  const std::uint32_t m = detail::g_mask.load(std::memory_order_relaxed);
  if (m != 0) [[unlikely]] detail::hold_acquired_slow(m, k, lock, holder, name, timing);
}

// `holder` released `lock`. A hold timed at acquisition is finished
// whatever the mask says now.
inline void hold_released(site k, const void* lock, const void* holder, const char* name,
                          lock_timing* timing = nullptr) noexcept {
  const std::uint32_t m = detail::g_mask.load(std::memory_order_relaxed);
  if (m != 0 || (timing != nullptr && timing->hold_start != 0)) [[unlikely]] {
    detail::hold_released_slow(m, k, lock, holder, name, timing);
  }
}

}  // namespace lock_event
}  // namespace mach
