// rpc-local: the paper's section 10 request path with no thread handoff.
//
// Two caller threads issue synchronous msg_rpc(OP_COUNTER_ADD) calls, each
// against one of 64 counter objects picked at random, all behind ports in
// one shared ipc_space. Each call looks the name up, translates the port
// to its object, adds under the object lock, and releases the references.
// Every reply must report success and a counter value at least as large
// as the increment; at the end the counters must sum to the increments of
// the successful calls.
#include <string>

#include "base/rng.h"
#include "base/stats.h"
#include "ipc/stubs.h"
#include "kbench.h"

namespace kbench {

using mach::KERN_SUCCESS;
using mach::message;
using mach::now_nanos;
using mach::port;
using mach::ref_ptr;

namespace {

constexpr int kCallers = kLoadThreads;
constexpr int kObjects = 64;
constexpr int kTimeEvery = 64;   // one call in 64 is timed, so clock reads stay negligible
constexpr int kSpanEvery = 128;  // traced phases: one call in 128 carries spans
constexpr std::size_t kSpanCap = 200'000;

// A reply is correct when the add succeeded and the returned counter value
// includes this call's increment.
bool reply_ok(const message& reply, std::uint64_t delta) {
  return reply.ret == KERN_SUCCESS && reply.data.size() == 1 && reply.data[0] >= delta;
}

class rpc_workload final : public workload {
 public:
  rpc_workload(std::uint64_t seed, sample_buffer* samples) : seed_(seed), samples_(samples) {
    for (int i = 0; i < kObjects; ++i) {
      ref_ptr<mach::counter_object> obj = mach::make_object<mach::counter_object>();
      ref_ptr<port> p = mach::make_object<port>("counter-port");
      p->set_translation(obj);
      names_[i] = space_.insert(std::move(p));
      objects_[i] = std::move(obj);
    }
  }

  ~rpc_workload() override {
    set_phase(stop);
    for (auto& c : callers_) {
      if (c.thread) c.thread->join();
    }
  }

  void self_test(std::vector<std::string>& errors) override {
    message req(mach::OP_COUNTER_ADD, {1});
    message reply;
    const mach::kern_return_t kr =
        mach::msg_rpc(space_, names_[0], req, reply, mach::standard_router());
    if (kr != KERN_SUCCESS || !reply_ok(reply, 1)) {
      errors.push_back("checker self-test: a correct counter_add reply was not accepted");
      return;
    }
    self_test_sum_ = 1;
    message corrupted = reply;
    corrupted.data[0] = 0;
    if (reply_ok(corrupted, 1)) {
      errors.push_back("checker self-test: a counter value missing its increment was accepted");
    }
    if (sum_matches(self_test_sum_ + 1)) {
      errors.push_back("checker self-test: a counter sum off by one was accepted");
    }
  }

  void start() override {
    rpc0_ = mach::rpc_stats();
    for (int i = 0; i < kCallers; ++i) {
      callers_[i].thread =
          mach::kthread::spawn("kbench-caller-" + std::to_string(i), [this, i] { run(i); });
    }
  }

  live_counts live() const override {
    live_counts l;
    for (const caller& c : callers_) {
      l.completed += c.tally.completed.load(std::memory_order_relaxed);
    }
    return l;
  }

  void finish(rep_output& out) override {
    set_phase(stop);
    std::uint64_t expected = self_test_sum_, ok = 0;
    for (caller& c : callers_) {
      c.thread->join();
      c.thread.reset();
      out.attempted += c.attempted;
      out.failed += c.failed;
      expected += c.delta_sum;
      ok += c.ok;
      out.spans.push_back(std::move(c.spans));
      out.errors.insert(out.errors.end(), c.errors.begin(), c.errors.end());
    }
    if (!sum_matches(expected)) {
      out.errors.push_back("counters do not sum to the " + std::to_string(ok) +
                           " successful increments (expected " + std::to_string(expected) +
                           ")");
    }
    const mach::rpc_counters rpc = mach::rpc_stats();
    if (rpc.calls - rpc0_.calls != out.attempted || rpc.ok - rpc0_.ok != ok) {
      out.errors.push_back("rpc_stats disagrees with the callers' tallies");
    }
  }

 private:
  struct caller {
    std::unique_ptr<mach::kthread> thread;
    live_tally tally;
    // Owned by the caller thread until it is joined.
    std::uint64_t attempted = 0, failed = 0, ok = 0, delta_sum = 0;
    span_buffer spans{kSpanCap};
    std::vector<std::string> errors;
  };

  bool sum_matches(std::uint64_t expected) {
    std::uint64_t sum = 0;
    for (const auto& obj : objects_) {
      std::uint64_t v = 0;
      if (obj->read(v) != KERN_SUCCESS) return false;
      sum += v;
    }
    return sum == expected;
  }

  void run(int idx) {
    caller& c = callers_[idx];
    std::uint64_t stream = seed_ + static_cast<std::uint64_t>(idx) * 0x9e3779b97f4a7c15ull;
    mach::xorshift64 rng(mach::splitmix64(stream));
    sample_buffer& samples = samples_[idx];
    const mach::rpc_router& router = mach::standard_router();
    message req(mach::OP_COUNTER_ADD, {0});
    message reply;
    std::uint64_t seq = 0;
    for (;;) {
      const phase ph = current_phase();
      if (ph == stop) break;
      const mach::port_name_t name = names_[rng.next_below(kObjects)];
      const std::uint64_t delta = 1 + rng.next_below(8);
      req.data[0] = delta;
      ++seq;
      mach::kern_return_t kr;
      if (ph >= counted && seq % kSpanEvery == 0) {
        kr = traced_call(c, (static_cast<std::uint64_t>(idx) << 48) | seq, ph, name, req, reply,
                         router);
      } else if (ph == untraced && seq % kTimeEvery == 0) {
        const std::uint64_t start = now_nanos();
        kr = mach::msg_rpc(space_, name, req, reply, router);
        samples.add(now_nanos() - start);
      } else {
        kr = mach::msg_rpc(space_, name, req, reply, router);
      }
      ++c.attempted;
      if (kr == KERN_SUCCESS && reply_ok(reply, delta)) {
        ++c.ok;
        c.delta_sum += delta;
      } else {
        ++c.failed;
        if (kr == KERN_SUCCESS && c.errors.size() < 8) {
          c.errors.push_back("rpc: counter_add reply carries no valid counter value");
        }
      }
      bump(c.tally.completed);
    }
  }

  // One sampled call: a request span around msg_rpc and, in the probed
  // phase, timed lookup and translate calls on the same name before it.
  mach::kern_return_t traced_call(caller& c, std::uint64_t rid, phase ph, mach::port_name_t name,
                                  const message& req, message& reply,
                                  const mach::rpc_router& router) {
    const int root = c.spans.add(sp_request, rid, -1, now_nanos());
    if (ph == probed && root >= 0) {
      std::uint64_t t = now_nanos();
      ref_ptr<port> p = space_.lookup(name);
      std::uint64_t t2 = now_nanos();
      c.spans.add(sp_lookup, rid, root, t, t2);
      if (p) {
        ref_ptr<mach::kobject> obj = p->translate();
        t = now_nanos();
        c.spans.add(sp_translate, rid, root, t2, t);
      }
    }
    const std::uint64_t start = now_nanos();
    const mach::kern_return_t kr = mach::msg_rpc(space_, name, req, reply, router);
    const std::uint64_t end = now_nanos();
    if (root >= 0) {
      c.spans.add(sp_msg_rpc, rid, root, start, end);
      c.spans.close(root, end);
    }
    return kr;
  }

  const std::uint64_t seed_;
  sample_buffer* const samples_;
  mach::ipc_space space_;
  mach::port_name_t names_[kObjects] = {};
  ref_ptr<mach::counter_object> objects_[kObjects];
  caller callers_[kCallers];
  mach::rpc_counters rpc0_;
  std::uint64_t self_test_sum_ = 0;
};

}  // namespace

std::unique_ptr<workload> make_rpc_local(std::uint64_t seed, sample_buffer* samples) {
  return std::make_unique<rpc_workload>(seed, samples);
}

}  // namespace kbench
