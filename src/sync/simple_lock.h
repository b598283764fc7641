// Simple locks — the paper's Appendix A interface.
//
// A simple lock is Mach's machine-dependent spinning mutual-exclusion
// primitive: "a C integer, which is part of a structure to allow the simple
// addition of debugging and statistics information". That is exactly what
// simple_lock_data_t is here. The machine-dependent part (the atomic
// test-and-set and the spin discipline) lives in sync/spin_policies.*; this
// header supplies the machine-independent interface:
//
//   decl_simple_lock_data(class, name)   declaration macro
//   simple_lock_init(&l)                 initialize to unlocked
//   simple_lock(&l)                      spin until acquired
//   simple_unlock(&l)                    release
//   simple_lock_try(&l)                  single attempt, returns success
//   simple_lock_addr(l)                  address-of macro
//
// Design requirements carried over from the paper, enforced here in debug
// bookkeeping (always compiled in — they are the point of this library):
//   * a holder may not block or context switch while holding a simple lock
//     (checked by thread_block, via held_tracked_simple_locks());
//   * recursive acquisition deadlocks immediately (detected and panicked);
//   * unlock by a non-holder is a fatal invariant violation.
//
// Internal locks of the event system itself set `tracked = false` so that
// the blocking assertion describes *client* locks only.
#pragma once

#include <atomic>

#include "base/panic.h"
#include "sync/deadlock.h"
#include "sync/lock_event.h"
#include "sync/lockstat.h"
#include "sync/spin_policies.h"
#include "sync/spin_stats.h"

namespace mach {

struct simple_lock_data_t {
  std::atomic<int> word{0};  // the paper's "C integer"
  // Debugging & statistics extension, per Appendix A.1:
  std::atomic<const void*> holder{nullptr};
  const char* name = "simple-lock";
  spin_policy policy = spin_policy::tas_then_ttas;
  bool tracked = true;
  // lockstat counters, mutated only while the lock is held (see
  // sync/lockstat.h).
  stat_counter stat_acquisitions;
  stat_counter stat_contended;
  // Hold/wait-time profiling of tracked locks, populated only while ktrace
  // is subscribed to lock events (see sync/lock_event.h).
  lock_timing timing;

  simple_lock_data_t() { lock_registry::instance().add(this); }
  explicit simple_lock_data_t(const char* n, bool track = true,
                              spin_policy p = spin_policy::tas_then_ttas)
      : name(n), policy(p), tracked(track) {
    lock_registry::instance().add(this);
  }
  ~simple_lock_data_t() { lock_registry::instance().remove(this); }

  simple_lock_data_t(const simple_lock_data_t&) = delete;
  simple_lock_data_t& operator=(const simple_lock_data_t&) = delete;
};

// Appendix A declaration macro: `class` is a storage-class prefix
// (e.g. static), `name` the variable name.
#define decl_simple_lock_data(storage_class, name) storage_class ::mach::simple_lock_data_t name;
#define simple_lock_addr(lock) (&(lock))

inline void simple_lock_init(simple_lock_data_t* l, const char* name = "simple-lock",
                             bool tracked = true,
                             spin_policy policy = spin_policy::tas_then_ttas) {
  l->word.store(0, std::memory_order_relaxed);
  l->holder.store(nullptr, std::memory_order_relaxed);
  l->name = name;
  l->policy = policy;
  l->tracked = tracked;
  l->timing = lock_timing{};
}

namespace detail {

inline void note_acquired(simple_lock_data_t* l, const void* me) {
  l->holder.store(me, std::memory_order_relaxed);
  ++l->stat_acquisitions;  // safe: we hold the lock
  if (l->tracked) {
    ++held_tracked_simple_locks();
    lock_event::hold_acquired(lock_event::site::simple, l, me, l->name, &l->timing);
  }
}

// The contended slow path, kept out of line so the inlined uncontended
// lock stays a TAS plus bookkeeping.
[[gnu::noinline]] inline void simple_lock_contended(simple_lock_data_t* l, spin_stats* stats) {
  // Untracked (internal) locks are not timed.
  const lock_event::wait_token wait =
      lock_event::wait_begin(lock_event::site::simple, l, l->name,
                             l->holder.load(std::memory_order_relaxed),
                             l->tracked ? &l->timing : nullptr);
  spin_acquire(l->word, l->policy, stats);
  lock_event::wait_end(wait);
  ++l->stat_contended;  // safe: we hold the lock
}

}  // namespace detail

// True if the current thread holds `l`. (Debug aid; exact, since holder is
// maintained unconditionally.)
inline bool simple_lock_held(const simple_lock_data_t* l) {
  return l->holder.load(std::memory_order_relaxed) == current_thread_token();
}

inline void simple_lock(simple_lock_data_t* l, spin_stats* stats = nullptr) {
  const void* me = current_thread_token();
  MACH_ASSERT(l->holder.load(std::memory_order_relaxed) != me,
              std::string("recursive simple_lock on ") + l->name);
  if (!spin_try_acquire(l->word, stats)) [[unlikely]] detail::simple_lock_contended(l, stats);
  detail::note_acquired(l, me);
}

inline bool simple_lock_try(simple_lock_data_t* l, spin_stats* stats = nullptr) {
  const void* me = current_thread_token();
  MACH_ASSERT(l->holder.load(std::memory_order_relaxed) != me,
              std::string("recursive simple_lock_try on ") + l->name);
  if (!spin_try_acquire(l->word, stats)) return false;
  detail::note_acquired(l, me);
  return true;
}

inline void simple_unlock(simple_lock_data_t* l) {
  const void* me = current_thread_token();
  MACH_ASSERT(l->holder.load(std::memory_order_relaxed) == me,
              std::string("simple_unlock by non-holder of ") + l->name);
  if (l->tracked) {
    --held_tracked_simple_locks();
    lock_event::hold_released(lock_event::site::simple, l, me, l->name, &l->timing);
  }
  l->holder.store(nullptr, std::memory_order_relaxed);
  spin_release(l->word);
}

// RAII guard (CP.20): the C-style interface above mirrors the paper;
// new C++ call sites should prefer this.
class simple_locker {
 public:
  explicit simple_locker(simple_lock_data_t& l) : lock_(&l) { simple_lock(lock_); }
  ~simple_locker() {
    if (lock_ != nullptr) simple_unlock(lock_);
  }
  simple_locker(const simple_locker&) = delete;
  simple_locker& operator=(const simple_locker&) = delete;

  // Release early (e.g. before a blocking call).
  void unlock() {
    simple_unlock(lock_);
    lock_ = nullptr;
  }

 private:
  simple_lock_data_t* lock_;
};

}  // namespace mach
