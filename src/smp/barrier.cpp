#include "smp/barrier.h"

#include <string>
#include <thread>

#include "base/backoff.h"
#include "base/panic.h"
#include "metrics/kmetrics.h"
#include "sync/lock_event.h"
#include "trace/ktrace.h"

namespace mach {

using lock_event::site;

interrupt_barrier::interrupt_barrier(const char* name) : name_(name) {}

void interrupt_barrier::attach(spl_t level, std::function<void(virtual_cpu&)> on_interrupt) {
  level_ = level;
  on_interrupt_ = std::move(on_interrupt);
  vector_ = machine::instance().register_vector(name_, level,
                                                [this](virtual_cpu& c) { isr(c); });
}

void interrupt_barrier::isr(virtual_cpu& cpu) {
  const std::uint32_t bit = 1u << cpu.id();
  // Process posted work on entry: by the time the initiator's round
  // completes, every participant that entered has already applied its
  // updates (it is parked in the ISR and cannot use stale state anyway).
  if (on_interrupt_) on_interrupt_(cpu);
  if (phase_.load() == gathering && (needed_.load() & bit) != 0 &&
      (entered_.load() & bit) == 0) {
    // generation_ is written before phase_ at round start, so having
    // observed an open round we read its generation (or a later one, in
    // which case our round is over).
    const std::uint64_t my_round = generation_.load();
    entered_.fetch_or(bit);
    kmet().smp_barrier_isr_parks.inc();
    // Our entry obligation is met: drop it before waiting on the release,
    // so the initiator's wait on our entry and our wait on its release
    // never coexist as a (false) cycle in the wait graph.
    lock_event::hold_released(site::barrier, &entry_slot_[cpu.id()], cpu.bound_token(),
                              "barrier-entry");
    // Spin *inside the ISR* until the initiator releases — the barrier
    // property: nobody leaves before everybody (that must) has entered.
    const std::uint64_t isr_start = ktrace::enabled() ? now_nanos() : 0;
    const lock_event::wait_token release_wait =
        lock_event::wait_begin(site::barrier, &release_slot_, "barrier-release");
    backoff bo;
    while (generation_.load() == my_round && !decided(phase_.load())) bo.pause();
    lock_event::wait_end(release_wait);
    if (isr_start != 0) {
      // The time this CPU was parked at interrupt level — the per-CPU
      // cost of the paper's "costly operation".
      const std::uint64_t end = now_nanos();
      ktrace::emit_span(trace_kind::barrier_isr, name_, static_cast<std::uint64_t>(cpu.id()),
                        end - isr_start, end);
    }
    // Drain again on the way out: the initiator's update may have posted
    // more work while we were parked.
    if (on_interrupt_) on_interrupt_(cpu);
  }
}

interrupt_barrier::status interrupt_barrier::run(std::uint32_t participant_mask,
                                                 const std::function<void()>& update,
                                                 std::chrono::milliseconds timeout) {
  MACH_ASSERT(vector_ >= 0, "interrupt_barrier::run before attach");
  machine& m = machine::instance();
  const void* me = current_thread_token();

  // The initiator cannot take its own IPI while spinning at the vector's
  // level; it participates implicitly.
  virtual_cpu* self = machine::current_cpu();
  const std::uint32_t self_bit = self != nullptr ? (1u << self->id()) : 0;
  const std::uint32_t others = participant_mask & ~self_bit;

  simple_lock(&round_lock_);  // one round at a time
  const std::uint64_t round_start = ktrace::enabled() ? now_nanos() : 0;
  generation_.fetch_add(1);   // unwedges stragglers from the previous round
  entered_.store(0);
  needed_.store(others);

  // Deadlock-detector bookkeeping: each participant's entry is a resource
  // held by whatever thread is bound to its CPU until the participant
  // enters. Registered before the round opens, so it precedes the drop.
  lock_event::hold_acquired(site::barrier, &release_slot_, me, "barrier-release");
  const void* owners[k_max_cpus] = {};
  lock_event::wait_token entry_waits[k_max_cpus];
  std::uint32_t tracked = 0;
  for (int i = 0; i < m.ncpus(); ++i) {
    const std::uint32_t bit = 1u << i;
    if ((others & bit) == 0) continue;
    owners[i] = m.cpu(i).bound_token();
    if (owners[i] == nullptr) continue;  // unbound CPU: nothing to attribute
    lock_event::hold_acquired(site::barrier, &entry_slot_[i], owners[i], "barrier-entry");
    entry_waits[i] = lock_event::wait_begin(site::barrier, &entry_slot_[i], "barrier-entry");
    tracked |= bit;
  }
  phase_.store(gathering);

  // Post the IPIs with our own spl raised to the barrier level (the
  // paper's shootdown initiator runs the whole round at interrupt level).
  spl_guard raised(level_);
  for (int i = 0; i < m.ncpus(); ++i) {
    if ((others & (1u << i)) != 0) m.post_ipi(i, vector_);
  }

  // The outcome is decided exactly once: this loop commits the round when
  // every participant is in, unless an abort or the timeout ended it
  // first. Whichever moves phase_ out of `gathering` first wins.
  status result = status::ok;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  backoff bo;
  for (;;) {
    int expected = gathering;
    if ((entered_.load() & others) == others) {
      if (!phase_.compare_exchange_strong(expected, committed)) result = status::aborted;
      break;
    }
    if (phase_.load() == aborted) {
      result = status::aborted;
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      result = phase_.compare_exchange_strong(expected, aborted) ? status::timed_out
                                                                  : status::aborted;
      break;
    }
    machine::interrupt_point();  // still accept higher-priority interrupts
    bo.pause();
  }
  for (int i = 0; i < m.ncpus(); ++i) {
    if ((tracked & (1u << i)) == 0) continue;
    lock_event::wait_end(entry_waits[i]);
    lock_event::hold_released(site::barrier, &entry_slot_[i], owners[i], "barrier-entry");
  }

  if (result == status::ok) {
    update();  // every participant is parked until the release below
    phase_.store(released);
    rounds_ok_.fetch_add(1, std::memory_order_relaxed);
    kmet().smp_barrier_rounds.inc();
  } else {
    rounds_failed_.fetch_add(1, std::memory_order_relaxed);
    kmet().smp_barrier_rounds_failed.inc();
  }
  lock_event::hold_released(site::barrier, &release_slot_, me, "barrier-release");
  if (round_start != 0) {
    const std::uint64_t end = now_nanos();
    ktrace::emit_span(trace_kind::barrier_round, name_,
                      static_cast<std::uint64_t>(participant_mask), end - round_start, end);
  }
  simple_unlock(&round_lock_);

  // The initiator's own CPU processes its posted work directly.
  if (result == status::ok && self != nullptr && (participant_mask & self_bit) != 0 &&
      on_interrupt_) {
    on_interrupt_(*self);
  }
  return result;
}

}  // namespace mach
