// kv-read / kv-write: closed-loop machcached traffic.
//
// Two client connections each keep eight requests outstanding against a
// two-worker machcached_server over a 4096-key prefilled, 4-shard cache.
// Every reply is checked: its stamp must name a request still outstanding
// on that connection, its op must echo the request's, and a GET hit must
// carry exactly the value words derived from the key.
#include <string>

#include "base/rng.h"
#include "base/stats.h"
#include "kbench.h"
#include "kern/object.h"
#include "svc/machcached.h"

namespace kbench {

using mach::KERN_INVALID_NAME;
using mach::KERN_RESOURCE_SHORTAGE;
using mach::KERN_SUCCESS;
using mach::message;
using mach::now_nanos;
using mach::port;
using mach::ref_ptr;

namespace {

constexpr int kConnections = kLoadThreads;
constexpr int kWindow = 8;  // requests outstanding per connection
constexpr int kWorkers = 2;
constexpr std::uint64_t kKeyspace = 4096;
constexpr int kShards = 4;
constexpr std::size_t kValueWords = 8;
constexpr int kDelEvery = 8;          // of the non-GET requests
constexpr int kSpanEvery = 64;  // traced phases: one request in 64 carries spans
constexpr std::size_t kSpanCap = 200'000;  // spans kept per connection
constexpr auto kReplyTimeout = std::chrono::milliseconds(1000);

// The value word `i` of key `key`: every SET writes these words, so every
// GET hit must return them.
std::uint64_t value_word(std::uint64_t key, std::size_t i) {
  std::uint64_t s = key * 64 + i + 0x6b62656e6368ull;
  return mach::splitmix64(s);
}

// One outstanding request.
struct slot {
  bool live = false;
  std::uint64_t stamp = 0;  // seq * kWindow + slot index
  std::uint64_t key = 0;
  std::uint32_t op = 0;
  std::uint64_t sent_ns = 0;
  int root = -1;  // request span, -1 when not sampled
};

enum class verdict { ok, failed, wrong };

// Checks one reply against the connection's outstanding requests. On `ok`
// or `failed` (a refusal the service reports, such as zone exhaustion)
// `*which` is the answered slot; on `wrong` `*why` says what is wrong.
verdict check_reply(const slot* table, int window, const message& m, int* which,
                    std::string* why) {
  if (m.data.empty()) {
    *why = "reply carries no stamp";
    return verdict::wrong;
  }
  const std::uint64_t stamp = m.data[0];
  const int idx = static_cast<int>(stamp % static_cast<std::uint64_t>(window));
  const slot& s = table[idx];
  if (!s.live || s.stamp != stamp) {
    *why = "reply stamp " + std::to_string(stamp) + " matches no outstanding request";
    return verdict::wrong;
  }
  *which = idx;
  if (m.op != s.op) {
    *why = "reply op " + std::to_string(m.op) + " does not echo request op " +
           std::to_string(s.op);
    return verdict::wrong;
  }
  switch (s.op) {
    case mach::MC_GET:
      if (m.ret == KERN_INVALID_NAME && m.data.size() == 1) return verdict::ok;  // miss
      if (m.ret != KERN_SUCCESS || m.data.size() != 1 + kValueWords) break;
      for (std::size_t i = 0; i < kValueWords; ++i) {
        if (m.data[1 + i] != value_word(s.key, i)) {
          *why = "GET key " + std::to_string(s.key) + " returned word " + std::to_string(i) +
                 " not derived from the key";
          return verdict::wrong;
        }
      }
      return verdict::ok;
    case mach::MC_SET:
      if (m.ret == KERN_SUCCESS) return verdict::ok;
      if (m.ret == KERN_RESOURCE_SHORTAGE) return verdict::failed;
      break;
    case mach::MC_DEL:
      if (m.ret == KERN_SUCCESS || m.ret == KERN_INVALID_NAME) return verdict::ok;
      break;
  }
  *why = "reply to op " + std::to_string(s.op) + " has unexpected code " +
         mach::to_string(m.ret) + " with " + std::to_string(m.data.size()) + " words";
  return verdict::wrong;
}

message make_request(std::uint32_t op, std::uint64_t key, std::uint64_t stamp) {
  message req(op);
  req.data.reserve(op == mach::MC_SET ? 2 + kValueWords : 2);
  req.data.push_back(key);
  req.data.push_back(stamp);
  if (op == mach::MC_SET) {
    for (std::size_t i = 0; i < kValueWords; ++i) req.data.push_back(value_word(key, i));
  }
  return req;
}

class kv_workload final : public workload {
 public:
  kv_workload(int read_pct, std::uint64_t seed, sample_buffer* samples)
      : read_pct_(read_pct),
        seed_(seed),
        samples_(samples),
        cache_(cache_config()),
        server_(cache_, server_config()) {
    for (std::uint64_t k = 0; k < kKeyspace; ++k) {
      std::uint64_t words[kValueWords];
      for (std::size_t i = 0; i < kValueWords; ++i) words[i] = value_word(k, i);
      (void)cache_.set(k, words, kValueWords);  // the zone holds 2x keyspace: cannot fail
    }
    for (int i = 0; i < kConnections; ++i) {
      auto c = std::make_unique<conn>();
      c->reply = mach::make_object<port>("kbench-reply");
      conns_.push_back(std::move(c));
    }
  }

  ~kv_workload() override {
    // finish() normally did this; it covers an early exit.
    if (conns_.empty() || !conns_[0]->thread) return;
    set_phase(stop);
    for (auto& c : conns_) c->thread->join();
    server_.stop();
  }

  void self_test(std::vector<std::string>& errors) override {
    constexpr std::uint64_t key = 1;
    slot table[1];
    table[0] = slot{true, 7, key, mach::MC_GET, 0, -1};
    ref_ptr<port> reply = mach::make_object<port>("kbench-selftest-reply");
    message req = make_request(mach::MC_GET, key, table[0].stamp);
    req.reply_to = reply;
    if (server_.service().send(std::move(req)) != KERN_SUCCESS) {
      errors.push_back("checker self-test: service refused the probe GET");
      return;
    }
    ++self_test_sends_;
    std::optional<message> m = reply->receive(kReplyTimeout);
    if (!m.has_value()) {
      errors.push_back("checker self-test: no reply to the probe GET");
      return;
    }
    int which = -1;
    std::string why;
    if (m->ret != KERN_SUCCESS || check_reply(table, 1, *m, &which, &why) != verdict::ok) {
      errors.push_back("checker self-test: a correct GET hit was not accepted: " + why);
      return;
    }
    message corrupted = *m;
    corrupted.data[3] ^= 1;
    if (check_reply(table, 1, corrupted, &which, &why) != verdict::wrong) {
      errors.push_back("checker self-test: a corrupted value word was accepted");
    }
    message stale = *m;
    stale.data[0] += 1;
    if (check_reply(table, 1, stale, &which, &why) != verdict::wrong) {
      errors.push_back("checker self-test: a reply with an unknown stamp was accepted");
    }
  }

  void start() override {
    for (int i = 0; i < kConnections; ++i) {
      conns_[static_cast<std::size_t>(i)]->thread =
          mach::kthread::spawn("kbench-conn-" + std::to_string(i), [this, i] { run(i); });
    }
  }

  live_counts live() const override {
    live_counts l;
    for (const auto& c : conns_) {
      l.completed += c->tally.completed.load(std::memory_order_relaxed);
      l.sends += c->tally.sends.load(std::memory_order_relaxed);
      l.refused += c->tally.refused.load(std::memory_order_relaxed);
    }
    const mach::mc_cache_stats s = cache_.stats();
    l.hits = s.hits;
    l.misses = s.misses;
    return l;
  }

  void finish(rep_output& out) override {
    set_phase(stop);
    for (auto& c : conns_) c->thread->join();
    // A worker can still be inside the wakeup that delivered a
    // connection's last reply, so connection threads are destroyed only
    // after the workers have stopped.
    server_.stop();
    std::uint64_t accepted = self_test_sends_, replies = self_test_sends_;
    for (auto& c : conns_) {
      c->thread.reset();
      accepted += c->accepted;
      replies += c->replies;
      out.attempted += c->attempted;
      out.failed += c->failed;
      out.spans.push_back(std::move(c->spans));
      out.errors.insert(out.errors.end(), c->errors.begin(), c->errors.end());
    }
    const std::uint64_t served = server_.served();
    if (replies != accepted || served != accepted) {
      out.errors.push_back("message conservation: " + std::to_string(accepted) +
                           " accepted sends, " + std::to_string(replies) + " replies, " +
                           std::to_string(served) + " served");
    }
    std::string why;
    if (!cache_.check_quiesced(&why)) out.errors.push_back("cache not quiesced: " + why);
  }

 private:
  struct conn {
    ref_ptr<port> reply;
    std::unique_ptr<mach::kthread> thread;
    live_tally tally;
    // Owned by the connection thread until it is joined.
    std::uint64_t attempted = 0, failed = 0, accepted = 0, replies = 0;
    span_buffer spans{kSpanCap};
    std::vector<std::string> errors;
  };

  static mach::mc_cache_config cache_config() {
    mach::mc_cache_config c;
    c.shards = kShards;
    c.max_items = 2 * kKeyspace;
    c.value_words = kValueWords;
    return c;
  }
  static mach::machcached_config server_config() {
    mach::machcached_config c;
    c.workers = kWorkers;
    return c;
  }

  // One connection's closed loop: keep kWindow requests outstanding; on
  // each reply, check it and issue the next request in its slot.
  void run(int idx) {
    conn& c = *conns_[static_cast<std::size_t>(idx)];
    std::uint64_t stream = seed_ + static_cast<std::uint64_t>(idx) * 0x9e3779b97f4a7c15ull;
    mach::xorshift64 rng(mach::splitmix64(stream));
    port& service = server_.service();
    slot table[kWindow];
    int outstanding = 0;
    std::uint64_t seq = 0;
    sample_buffer& samples = samples_[idx];

    auto issue = [&](int i, phase ph) {
      const std::uint64_t key = rng.next_below(kKeyspace);
      std::uint32_t op = mach::MC_GET;
      if (rng.next_below(100) >= static_cast<std::uint64_t>(read_pct_)) {
        op = rng.next_below(kDelEvery) == 0 ? mach::MC_DEL : mach::MC_SET;
      }
      ++seq;
      const std::uint64_t rid = (static_cast<std::uint64_t>(idx) << 48) | seq;
      slot& s = table[i];
      s = slot{false, seq * kWindow + static_cast<std::uint64_t>(i), key, op, 0, -1};
      if (ph >= counted && ph != stop && seq % kSpanEvery == 0) {
        s.root = c.spans.add(sp_request, rid, -1, now_nanos());
        if (ph == probed && s.root >= 0) probe(c, rid, s.root, op, key);
      }
      message req = make_request(op, key, s.stamp);
      req.reply_to = c.reply;
      ++c.attempted;
      bump(c.tally.sends);
      s.sent_ns = now_nanos();
      const mach::kern_return_t kr = service.send(std::move(req));
      if (s.root >= 0) c.spans.add(sp_send, rid, s.root, s.sent_ns, now_nanos());
      if (kr != KERN_SUCCESS) {
        ++c.failed;
        bump(c.tally.refused);
        if (s.root >= 0) c.spans.close(s.root, now_nanos());
        return;
      }
      ++c.accepted;
      s.live = true;
      ++outstanding;
    };

    auto complete = [&](const message& m, std::uint64_t wait_start, std::uint64_t now, phase ph) {
      int i = -1;
      std::string why;
      const verdict v = check_reply(table, kWindow, m, &i, &why);
      if (v == verdict::wrong) {
        record_error(c, why);
        ++c.failed;
        if (i < 0) return -1;  // unknown stamp: nothing to retire
      }
      if (v == verdict::failed) ++c.failed;
      slot& s = table[i];
      if (ph == untraced) samples.add(now - s.sent_ns);
      if (s.root >= 0) {
        const span& root = c.spans.spans()[static_cast<std::size_t>(s.root)];
        c.spans.add(sp_reply_wait, root.req, s.root, wait_start, now);
        c.spans.close(s.root, now);
      }
      s.live = false;
      --outstanding;
      ++c.replies;
      bump(c.tally.completed);
      return i;
    };

    for (int i = 0; i < kWindow; ++i) issue(i, current_phase());
    for (;;) {
      const phase ph = current_phase();
      if (ph == stop) break;
      if (outstanding < kWindow) {
        // A refused send left a slot free: retry it before waiting.
        for (int i = 0; i < kWindow; ++i) {
          if (!table[i].live) issue(i, ph);
        }
        if (outstanding == 0) continue;
      }
      const std::uint64_t wait_start = now_nanos();
      std::optional<message> m = c.reply->receive(kReplyTimeout);
      const std::uint64_t now = now_nanos();
      if (!m.has_value()) {
        record_error(c, "reply timed out");
        ++c.failed;
        continue;
      }
      const int i = complete(*m, wait_start, now, ph);
      if (i >= 0) issue(i, ph);
    }
    // Drain: every accepted request gets exactly one reply.
    while (outstanding > 0) {
      const std::uint64_t wait_start = now_nanos();
      std::optional<message> m = c.reply->receive(kReplyTimeout);
      if (!m.has_value()) {
        record_error(c, std::to_string(outstanding) + " replies never arrived");
        c.failed += static_cast<std::uint64_t>(outstanding);
        break;
      }
      complete(*m, wait_start, now_nanos(), stop);
    }
  }

  static void record_error(conn& c, std::string why) {
    if (c.errors.size() < 8) c.errors.push_back("kv: " + std::move(why));
  }

  // Times the request's own cache operation, called directly, so the
  // cache layer's unit cost is measured under the same load.
  void probe(conn& c, std::uint64_t rid, int root, std::uint32_t op, std::uint64_t key) {
    const std::uint64_t start = now_nanos();
    if (op == mach::MC_GET) {
      ref_ptr<mach::mc_item> item = cache_.get(key);
      c.spans.add(sp_get, rid, root, start, now_nanos());
      if (item && (item->size() != kValueWords || item->value()[0] != value_word(key, 0))) {
        record_error(c, "probe GET key " + std::to_string(key) + " returned a foreign value");
      }
    } else if (op == mach::MC_SET) {
      std::uint64_t words[kValueWords];
      for (std::size_t i = 0; i < kValueWords; ++i) words[i] = value_word(key, i);
      const mach::kern_return_t kr = cache_.set(key, words, kValueWords);
      c.spans.add(sp_set, rid, root, start, now_nanos());
      if (kr != KERN_SUCCESS) {
        record_error(c, std::string("probe SET refused: ") + mach::to_string(kr));
      }
    } else {
      (void)cache_.del(key);
      c.spans.add(sp_del, rid, root, start, now_nanos());
    }
  }

  const int read_pct_;
  const std::uint64_t seed_;
  sample_buffer* const samples_;
  mach::mc_cache cache_;
  mach::machcached_server server_;
  std::vector<std::unique_ptr<conn>> conns_;
  std::uint64_t self_test_sends_ = 0;
};

}  // namespace

std::unique_ptr<workload> make_kv(int read_pct, std::uint64_t seed, sample_buffer* samples) {
  return std::make_unique<kv_workload>(read_pct, seed, samples);
}

}  // namespace kbench
