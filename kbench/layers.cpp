// Span bookkeeping, host/floor calibration and kernel counter snapshots.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "base/rng.h"
#include "base/stats.h"
#include "kbench.h"
#include "metrics/kmetrics.h"
#include "sched/event.h"
#include "sync/lockstat.h"

namespace kbench {

using mach::now_nanos;

const char* span_label(int name) {
  static const char* const labels[num_span_names] = {
      "request", "ipc.send", "ipc.reply_wait", "ipc.msg_rpc", "ipc.lookup",
      "ipc.translate", "svc.get", "svc.set", "svc.del"};
  return name >= 0 && name < num_span_names ? labels[name] : "?";
}

void span_stats::add(const span_buffer& b) {
  const std::vector<span>& v = b.spans();
  // Children of each span, as linked lists threaded through `next`.
  std::vector<int> first(v.size(), -1), next(v.size(), -1);
  for (std::size_t i = v.size(); i-- > 0;) {
    const int p = v[i].parent;
    if (p >= 0) {
      next[i] = first[static_cast<std::size_t>(p)];
      first[static_cast<std::size_t>(p)] = static_cast<int>(i);
    }
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const span& s = v[i];
    if (s.end < s.start) continue;  // never closed (request still outstanding at stop)
    const std::uint64_t dur = s.end - s.start;
    // Union of the children's intervals, clipped to this span.
    kids.clear();
    for (int c = first[i]; c >= 0; c = next[static_cast<std::size_t>(c)]) {
      const span& k = v[static_cast<std::size_t>(c)];
      const std::uint64_t a = std::max(k.start, s.start), e = std::min(k.end, s.end);
      if (e > a) kids.emplace_back(a, e);
    }
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0, reach = s.start;
    for (const auto& [a, e] : kids) {
      const std::uint64_t from = std::max(a, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
    ++count[s.name];
    total_ns[s.name] += static_cast<double>(dur);
    self_ns[s.name] += static_cast<double>(dur - covered);
  }
}

bool write_spans(const std::string& path, const std::vector<span_buffer>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // One span per line: [thread, index, parent, request, name, start_ns, end_ns].
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    const std::vector<span>& v = buffers[t].spans();
    for (std::size_t i = 0; i < v.size(); ++i) {
      const span& s = v[i];
      std::fprintf(f, "[%zu,%zu,%d,%llu,\"%s\",%llu,%llu]\n", t, i, s.parent,
                   static_cast<unsigned long long>(s.req), span_label(s.name),
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end));
    }
  }
  return std::fclose(f) == 0;
}

// --- host and floors ---

namespace {

// Spins for `nanos`, returning loop iterations per nanosecond.
double spin_rate(std::uint64_t nanos) {
  mach::xorshift64 rng(nanos);
  std::uint64_t sink = 0, iters = 0;
  const std::uint64_t start = now_nanos();
  std::uint64_t now = start;
  while (now - start < nanos) {
    for (int i = 0; i < 256; ++i) sink += rng.next();
    iters += 256;
    now = now_nanos();
  }
  asm volatile("" : : "r"(sink));
  return static_cast<double>(iters) / static_cast<double>(now - start);
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

}  // namespace

host_info measure_host() {
  host_info h;
  h.nproc = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  constexpr std::uint64_t window = 50'000'000;
  // Three rounds of one window alone, then nproc windows at once; the
  // median round's ratio, so one disturbed window does not set the class.
  std::vector<double> ratios;
  for (int round = 0; round < 3; ++round) {
    const double single = spin_rate(window);
    std::vector<double> rates(static_cast<std::size_t>(h.nproc), 0.0);
    std::vector<std::thread> ts;
    for (int i = 0; i < h.nproc; ++i) {
      ts.emplace_back([&rates, i] { rates[static_cast<std::size_t>(i)] = spin_rate(window); });
    }
    for (std::thread& t : ts) t.join();
    double total = 0.0;
    for (double r : rates) total += r;
    ratios.push_back(single > 0.0 ? total / single : 0.0);
  }
  h.effective_cpus = median_of(ratios);
  return h;
}

floors measure_floors() {
  floors f;
  constexpr int trials = 5;
  std::vector<double> tas, inc, handoff;
  for (int t = 0; t < trials; ++t) {
    constexpr int n = 2'000'000;
    std::atomic_flag flag = ATOMIC_FLAG_INIT;
    std::uint64_t start = now_nanos();
    for (int i = 0; i < n; ++i) {
      while (flag.test_and_set(std::memory_order_acquire)) {
      }
      flag.clear(std::memory_order_release);
    }
    tas.push_back(static_cast<double>(now_nanos() - start) / n);

    std::atomic<std::uint64_t> counter{0};
    start = now_nanos();
    for (int i = 0; i < n; ++i) counter.fetch_add(1);
    inc.push_back(static_cast<double>(now_nanos() - start) / n);
  }
  for (int t = 0; t < 3; ++t) {
    // Two threads pass a turn back and forth; each pass is one handoff.
    constexpr int rounds = 20'000;
    std::mutex m;
    std::condition_variable cv;
    int turn = 0;  // guarded by m
    const std::uint64_t start = now_nanos();
    std::thread other([&] {
      for (int i = 0; i < rounds; ++i) {
        std::unique_lock<std::mutex> g(m);
        cv.wait(g, [&] { return turn == 1; });
        turn = 0;
        cv.notify_one();
      }
    });
    for (int i = 0; i < rounds; ++i) {
      std::unique_lock<std::mutex> g(m);
      turn = 1;
      cv.notify_one();
      cv.wait(g, [&] { return turn == 0; });
    }
    other.join();
    handoff.push_back(static_cast<double>(now_nanos() - start) / (2.0 * rounds));
  }
  f.tas_pair_ns = median_of(tas);
  f.atomic_inc_ns = median_of(inc);
  f.handoff_ns = median_of(handoff);
  return f;
}

// --- layer counters ---

layer_snapshot layer_snapshot::take() {
  layer_snapshot s;
  const mach::event_system_counters ev = mach::event_counters();
  s.blocks = ev.blocks_suspended;
  s.short_circuited = ev.blocks_short_circuited;
  s.wakeups = ev.wakeups_delivered;
  s.wakeups_no_waiter = ev.wakeups_no_waiter;
  for (const mach::lock_stat_entry& e : mach::lock_registry::instance().snapshot()) {
    if (e.name == nullptr) continue;
    if (std::strcmp(e.name, "event-bucket") == 0) {
      s.bucket_acq += e.acquisitions;
      s.bucket_cont += e.contended;
    } else if (std::strcmp(e.name, "mc-shard") == 0) {
      s.shard_acq += e.acquisitions;
      s.shard_cont += e.contended;
    } else if (std::strcmp(e.name, "ipc-space") == 0) {
      s.space_acq += e.acquisitions;
      s.space_cont += e.contended;
    }
  }
  mach::kmetrics_t& k = mach::kmet();
  s.blocked_ns = k.sched_block_nanos.merged().total_nanos();
  s.zallocs = k.kern_zalloc_allocs.value();
  s.ref_ops = k.kern_ref_takes.value() + k.kern_ref_releases.value();
  s.lockref_fast = k.kern_lockref_fast.value();
  s.lockref_slow = k.kern_lockref_slow.value();
  const mach::latency_histogram serve = k.svc_serve_nanos.merged();
  s.serve_ns = serve.total_nanos();
  s.serve_count = serve.count();
  return s;
}

namespace {

template <typename F>
void each_field(layer_snapshot& a, const layer_snapshot& b, F f) {
  f(a.blocks, b.blocks);
  f(a.short_circuited, b.short_circuited);
  f(a.wakeups, b.wakeups);
  f(a.wakeups_no_waiter, b.wakeups_no_waiter);
  f(a.blocked_ns, b.blocked_ns);
  f(a.bucket_acq, b.bucket_acq);
  f(a.bucket_cont, b.bucket_cont);
  f(a.shard_acq, b.shard_acq);
  f(a.shard_cont, b.shard_cont);
  f(a.space_acq, b.space_acq);
  f(a.space_cont, b.space_cont);
  f(a.zallocs, b.zallocs);
  f(a.ref_ops, b.ref_ops);
  f(a.lockref_fast, b.lockref_fast);
  f(a.lockref_slow, b.lockref_slow);
  f(a.serve_ns, b.serve_ns);
  f(a.serve_count, b.serve_count);
}

}  // namespace

layer_snapshot layer_snapshot::operator-(const layer_snapshot& o) const {
  layer_snapshot d = *this;
  // Lock entries can unregister between snapshots; never report a
  // negative delta.
  each_field(d, o, [](std::uint64_t& a, std::uint64_t b) { a = a > b ? a - b : 0; });
  return d;
}

layer_snapshot& layer_snapshot::operator+=(const layer_snapshot& o) {
  each_field(*this, o, [](std::uint64_t& a, std::uint64_t b) { a += b; });
  return *this;
}

}  // namespace kbench
