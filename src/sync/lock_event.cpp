#include "sync/lock_event.h"

#include "metrics/kmetrics.h"
#include "metrics/watchdog.h"
#include "prof/kprof.h"
#include "sync/deadlock.h"
#include "trace/kspan.h"
#include "trace/ktrace.h"

namespace mach::lock_event {

namespace detail {
std::atomic<std::uint32_t> g_mask{0};
}  // namespace detail

void set_subscribed(std::uint32_t bit, bool on) noexcept {
  if (on) detail::g_mask.fetch_or(bit, std::memory_order_relaxed);
  else detail::g_mask.fetch_and(~bit, std::memory_order_relaxed);
}

namespace {

// Activity words are read by the kprof sampler and by watchdog trip reports.
constexpr std::uint32_t k_activity = k_prof | k_watchdog;

// Per-site routing of a wait: its span kind, its watchdog stall class (an
// upgrader shares the writer class: both hold new readers off while the
// current ones drain) and the kprof state it publishes (running: none).
struct wait_route {
  trace_kind span;
  stall_kind stall;
  kprof::activity state;
};
constexpr wait_route k_routes[] = {
    {trace_kind::simple_lock_wait, stall_kind::simple_spin, kprof::activity::spinning},
    {trace_kind::complex_read_wait, stall_kind::none, kprof::activity::lock_waiting},
    {trace_kind::complex_write_wait, stall_kind::writer_wait, kprof::activity::lock_waiting},
    {trace_kind::complex_upgrade_wait, stall_kind::writer_wait, kprof::activity::lock_waiting},
    {trace_kind::none, stall_kind::none, kprof::activity::running},  // barrier
    {trace_kind::none, stall_kind::none, kprof::activity::running},  // zone
    {trace_kind::thread_blocked, stall_kind::thread_blocked, kprof::activity::blocked},
};
const wait_route& route(site k) { return k_routes[static_cast<int>(k)]; }

bool is_complex(site k) { return route(k).state == kprof::activity::lock_waiting; }

}  // namespace

namespace detail {

wait_token wait_begin_slow(std::uint32_t m, site k, const void* resource, const char* name,
                           const void* holder, lock_timing* timing) noexcept {
  const wait_route& r = route(k);
  wait_token t{0, k, resource, name, timing};
  // Timed: lock waits with a timing struct, and event blocks (kmon too).
  const std::uint32_t timers = k == site::event ? (k_trace | k_mon) : timing ? k_trace : 0;
  if ((m & timers) != 0) {
    t.start_nanos = now_nanos();
    t.fed |= m & timers;
  }
  if ((m & k_span) != 0) {
    if (k == site::event) {
      t.fed |= k_span;  // the resume consumes the waker's handoff
    } else if (timing != nullptr) {
      kspan::note_blocked(name, resource, holder);
    }
  }
  if ((m & k_graph) != 0 && k != site::event) {
    wait_graph::instance().thread_waits(current_thread_token(), resource, name);
    t.fed |= k_graph;
  }
  if ((m & k_watchdog) != 0 && r.stall != stall_kind::none) {
    watchdog_note_wait_begin(r.stall, resource, k == site::event ? "event-wait" : name);
    t.fed |= k_watchdog;
  }
  if ((m & k_activity) != 0 && r.state != kprof::activity::running) {
    // Save the outer word for the end to restore, so nested waits (the
    // interlock spin or the sleep inside a complex-lock wait) keep sampling
    // as lock_waiting on the lock, not as blocked on the lock's event.
    t.prev_activity = kprof::self_word();
    if (k != site::event) {
      kprof::publish(r.state, name);
    } else if (kprof::unpack_state(t.prev_activity) != kprof::activity::lock_waiting) {
      kprof::publish(r.state, resource);
    }
    t.fed |= k_prof;
  }
  return t;
}

void wait_end_slow(const wait_token& t) noexcept {
  if ((t.fed & k_prof) != 0) kprof::publish_word(t.prev_activity);
  if ((t.fed & k_watchdog) != 0) watchdog_note_wait_end();
  if ((t.fed & k_graph) != 0) {
    wait_graph::instance().thread_wait_done(current_thread_token(), t.resource);
  }
  if ((t.fed & (k_trace | k_mon)) != 0) {
    const std::uint64_t end = now_nanos();
    const std::uint64_t wait = end - t.start_nanos;
    if ((t.fed & k_trace) != 0) {
      if (t.timing != nullptr) t.timing->wait_hist.record(wait);
      ktrace::emit_span(route(t.kind).span, t.name, reinterpret_cast<std::uint64_t>(t.resource),
                        wait, end);
    }
    if ((t.fed & k_mon) != 0) kmet().sched_block_nanos.record(wait);
  }
  if ((t.fed & k_span) != 0 && t.handoff != nullptr) {
    // Record that this block was ended by a wakeup sent under the
    // waker's span: the blocking half of kspan's cross-thread propagation.
    const std::uint64_t waker = t.handoff->exchange(0, std::memory_order_relaxed);
    if (waker != 0) {
      ktrace::emit(trace_kind::span_unblock, nullptr, waker,
                   reinterpret_cast<std::uint64_t>(t.resource));
    }
  }
}

void thread_unblocked_slow(std::atomic<std::uint64_t>& handoff) noexcept {
  handoff.store(kspan::current(), std::memory_order_relaxed);
}

void hold_acquired_slow(std::uint32_t m, site k, const void* lock, const void* holder,
                        const char* name, lock_timing* timing) noexcept {
  if ((m & k_trace) != 0 && timing != nullptr) timing->hold_start = now_nanos();
  if ((m & k_graph) != 0) wait_graph::instance().resource_held(lock, holder, name);
  // Simple-lock holds are nanosecond-scale and never published.
  if ((m & k_activity) != 0 && is_complex(k)) kprof::publish(kprof::activity::holding, name);
}

void hold_released_slow(std::uint32_t m, site k, const void* lock, const void* holder,
                        const char* name, lock_timing* timing) noexcept {
  if (timing != nullptr && timing->hold_start != 0) {
    const std::uint64_t end = now_nanos();
    const std::uint64_t hold = end - timing->hold_start;
    timing->hold_start = 0;
    timing->hold_hist.record(hold);
    ktrace::emit_span(k == site::simple ? trace_kind::simple_lock_held
                                        : trace_kind::complex_write_held,
                      name, reinterpret_cast<std::uint64_t>(lock), hold, end);
  }
  if ((m & k_graph) != 0) wait_graph::instance().resource_released(lock, holder);
  if ((m & k_activity) != 0 && is_complex(k)) kprof::publish(kprof::activity::running, nullptr);
}

}  // namespace detail
}  // namespace mach::lock_event
