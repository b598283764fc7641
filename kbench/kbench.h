// kbench — the repository benchmark: closed-loop request traffic through
// the kernel substrate (machcached key/value service, local kernel RPC),
// measured end to end and, in a separate traced run, layer by layer.
//
// Every layer is measured from outside: spans are recorded by this
// package's own code around calls into public functions (port::send /
// receive, msg_rpc, ipc_space::lookup, port::translate, mc_cache::get /
// set / del), and counts come from the kernel's existing public counters
// (event_counters, lock_registry, kmon, rpc_stats). README.md in this
// directory maps each per-layer metric to the end-to-end metric it should
// move.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace kbench {

// What the load threads do right now. main.cpp moves a repetition
// through warmup → untraced [→ counted → probed] → stop.
enum phase : int {
  warmup,    // load runs, nothing is recorded
  untraced,  // end-to-end latency samples are recorded
  counted,   // spans on sampled requests; kmon enabled by main.cpp
  probed,    // as counted, plus direct timed calls into the inner layer
  stop,      // stop issuing, drain, exit
};

// --- spans ---

enum span_name : std::uint16_t {
  sp_request,      // one request, issue to completion (root)
  sp_send,         // port::send of the request
  sp_reply_wait,   // port::receive on the reply port that returned it
  sp_msg_rpc,      // msg_rpc
  sp_lookup,       // ipc_space::lookup (probe)
  sp_translate,    // port::translate (probe)
  sp_get,          // mc_cache::get (probe)
  sp_set,          // mc_cache::set (probe)
  sp_del,          // mc_cache::del (probe)
  num_span_names,
};
const char* span_label(int name);

struct span {
  std::uint64_t req;    // request id, shared by every span of one request
  std::uint64_t start;  // now_nanos()
  std::uint64_t end;
  std::int32_t parent;  // index in the same buffer, -1 for a root
  std::uint16_t name;
};

// Spans recorded by one load thread, kept in memory until the run ends.
// Full buffers drop new spans and count them.
class span_buffer {
 public:
  explicit span_buffer(std::size_t cap) { spans_.reserve(cap); }

  // Returns the span's index, or -1 when the buffer is full.
  int add(span_name name, std::uint64_t req, int parent, std::uint64_t start,
          std::uint64_t end = 0) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(span{req, start, end, parent, name});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int idx, std::uint64_t end) { spans_[static_cast<std::size_t>(idx)].end = end; }

  const std::vector<span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::vector<span> spans_;
  std::uint64_t dropped_ = 0;
};

// Per span name: count, mean duration, and mean self time (duration minus
// the part of it covered by the span's children).
struct span_stats {
  std::uint64_t count[num_span_names] = {};
  double total_ns[num_span_names] = {};
  double self_ns[num_span_names] = {};

  void add(const span_buffer& b);
  double mean_ns(int name) const {
    return count[name] == 0 ? 0.0 : total_ns[name] / static_cast<double>(count[name]);
  }
  double mean_self_ns(int name) const {
    return count[name] == 0 ? 0.0 : self_ns[name] / static_cast<double>(count[name]);
  }
};

// Writes every span, one JSON array per line, to `path`. Returns false on
// I/O failure.
bool write_spans(const std::string& path, const std::vector<span_buffer>& buffers);

// --- per-thread tallies ---

// Counters main.cpp reads while the load runs. Each has one writer (its
// load thread), so bump() is a plain relaxed load/store pair.
struct alignas(64) live_tally {
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> sends{0};
  std::atomic<std::uint64_t> refused{0};
};
inline void bump(std::atomic<std::uint64_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

// Latency samples of one load thread, kept in storage main.cpp
// allocates and touches once per run, so sample memory does not move
// with throughput and peak RSS measures the program.
struct sample_buffer {
  std::uint32_t* data = nullptr;
  std::size_t cap = 0;
  std::size_t n = 0;
  void add(std::uint64_t ns) noexcept {
    if (n < cap) data[n++] = ns > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(ns);
  }
};

// What one repetition hands back after stop + teardown.
struct rep_output {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<span_buffer> spans;
  std::vector<std::string> errors;  // failed output checks
};

// Sums main.cpp samples at slice boundaries.
struct live_counts {
  std::uint64_t completed = 0;
  std::uint64_t sends = 0;
  std::uint64_t refused = 0;
  std::uint64_t hits = 0;    // cache GET hits (kv workloads)
  std::uint64_t misses = 0;  // cache GET misses
};

class workload {
 public:
  virtual ~workload() = default;

  // Runs the output checker against one real reply and deliberately
  // corrupted copies of it; records a failure when the checker accepts a
  // corrupted one. Called before start().
  virtual void self_test(std::vector<std::string>& errors) = 0;
  // Spawns the load threads (they begin in the warmup phase).
  virtual void start() = 0;
  virtual live_counts live() const = 0;
  // Stops the load, joins, checks outputs, and tears the system down.
  virtual void finish(rep_output& out) = 0;

  void set_phase(phase p) noexcept { phase_.store(p, std::memory_order_relaxed); }

 protected:
  phase current_phase() const noexcept {
    return static_cast<phase>(phase_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<int> phase_{warmup};
};

// Both workloads run this many load threads; thread i records its
// untraced-phase latency samples into samples[i].
constexpr int kLoadThreads = 2;

// machcached traffic: `read_pct` GETs; of the rest one in eight is a DEL
// and the others are SETs.
std::unique_ptr<workload> make_kv(int read_pct, std::uint64_t seed, sample_buffer* samples);
// Synchronous msg_rpc(OP_COUNTER_ADD) against 64 counter objects.
std::unique_ptr<workload> make_rpc_local(std::uint64_t seed, sample_buffer* samples);

// --- host and floors ---

struct host_info {
  int nproc = 0;
  // Work rate of nproc spinning threads over that of one (50 ms windows,
  // median of three rounds).
  double effective_cpus = 0.0;
};
host_info measure_host();

struct floors {
  double tas_pair_ns = 0.0;    // atomic_flag test_and_set + clear
  double atomic_inc_ns = 0.0;  // fetch_add on one atomic
  double handoff_ns = 0.0;     // one std::mutex + condvar handoff between two threads
};
floors measure_floors();

// --- layer counters ---

// Cumulative kernel counters; main.cpp subtracts two snapshots taken
// around a counted slice.
struct layer_snapshot {
  std::uint64_t blocks = 0, short_circuited = 0, wakeups = 0, wakeups_no_waiter = 0;
  std::uint64_t blocked_ns = 0;
  std::uint64_t bucket_acq = 0, bucket_cont = 0;
  std::uint64_t shard_acq = 0, shard_cont = 0;
  std::uint64_t space_acq = 0, space_cont = 0;
  std::uint64_t zallocs = 0, ref_ops = 0, lockref_fast = 0, lockref_slow = 0;
  std::uint64_t serve_ns = 0, serve_count = 0;

  static layer_snapshot take();
  layer_snapshot operator-(const layer_snapshot& o) const;
  layer_snapshot& operator+=(const layer_snapshot& o);
};

}  // namespace kbench
