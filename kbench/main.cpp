// kbench: the benchmark program.
//
//   kbench --workload kv-read|kv-write|rpc-local --seed N --seconds S --trace 0|1
//          [--spans-out PATH]
//
// A run is kReps repetitions. Each repetition sets the system up anew
// (timed: setup_s), runs a warm-up, measures its share of the run
// time, then stops, drains, tears down and checks every output. End-to-end
// metrics are medians over the repetitions. With --trace 1 each
// repetition's window is split into an untraced slice, a counted slice
// (kmon on, spans on sampled requests) and a probed slice (spans plus
// direct timed calls into the inner layer); the per-layer metrics come
// from the traced slices. The last line of stdout is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>

#include "base/rng.h"
#include "base/stats.h"
#include "kbench.h"
#include "kern/object.h"
#include "metrics/kmon.h"

namespace kbench {
namespace {

using mach::now_nanos;

constexpr int kReps = 10;
constexpr double kWarmupSeconds = 0.2;
constexpr std::size_t kSamplesPerThread = 4'000'000;

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "kbench: %s\nusage: kbench --workload kv-read|kv-write|rpc-local --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH]\n",
               why);
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("--seed must be a whole number");
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds > 0 && o.seconds <= 120)) {
        usage("--seconds must be in (0, 120]");
      }
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("--trace must be 0 or 1");
      o.trace = v[0] == '1';
    } else if (a == "--spans-out") {
      o.spans_out = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload != "kv-read" && o.workload != "kv-write" && o.workload != "rpc-local") {
    usage("--workload must be kv-read, kv-write or rpc-local");
  }
  if (!have_seed || o.seconds <= 0) usage("--seed and --seconds are required");
  return o;
}

void sleep_seconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// 0-based index of the nearest-rank q-quantile of n > 0 samples.
std::size_t rank(std::size_t n, double q) {
  const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(k, 1, n) - 1;
}

// The k-th smallest sample; partially reorders `v`.
double nth_ns(std::span<std::uint32_t> v, std::size_t k) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

struct rep_result {
  double setup_s = 0;
  double ops_s = 0;  // untraced slice
  double p50_us = 0, p99_us = 0;
  double traced_ops_s = 0;  // counted slice
  layer_snapshot layers;
  live_counts live_counted;
};

// Live counters of a slice (end minus start), summed over repetitions.
live_counts operator-(const live_counts& a, const live_counts& b) {
  return live_counts{a.completed - b.completed, a.sends - b.sends, a.refused - b.refused,
                     a.hits - b.hits, a.misses - b.misses};
}
live_counts& operator+=(live_counts& a, const live_counts& b) {
  a.completed += b.completed;
  a.sends += b.sends;
  a.refused += b.refused;
  a.hits += b.hits;
  a.misses += b.misses;
  return a;
}

std::unique_ptr<workload> make(const std::string& name, std::uint64_t seed,
                               sample_buffer* samples) {
  if (name == "kv-read") return make_kv(95, seed, samples);
  if (name == "kv-write") return make_kv(50, seed, samples);
  return make_rpc_local(seed, samples);
}

struct metric_out {
  std::string name;
  double value;
  const char* unit;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<metric_out>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

int run(const options& opt) {
  const host_info host = measure_host();
  std::printf("kbench: host nproc=%d effective_cpus=%.2f class=nproc%d-eff%.0f\n", host.nproc,
              host.effective_cpus, host.nproc, std::round(host.effective_cpus));
  floors fl;
  if (opt.trace) fl = measure_floors();

  // Sample storage is allocated and touched once, before any repetition;
  // thread i owns the i-th stretch of it.
  std::vector<std::uint32_t> storage(kLoadThreads * kSamplesPerThread, 0);
  sample_buffer samples[kLoadThreads];
  for (int i = 0; i < kLoadThreads; ++i) {
    samples[i].data = storage.data() + static_cast<std::size_t>(i) * kSamplesPerThread;
    samples[i].cap = kSamplesPerThread;
  }

  struct slice {
    phase ph;
    double share;
  };
  const std::vector<slice> plan =
      opt.trace ? std::vector<slice>{{untraced, 0.4}, {counted, 0.3}, {probed, 0.3}}
                : std::vector<slice>{{untraced, 1.0}};
  const double window = opt.seconds / kReps;

  std::vector<rep_result> reps;
  std::vector<std::string> errors;
  std::vector<span_buffer> spans;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t seed_state = opt.seed;

  for (int r = 0; r < kReps; ++r) {
    rep_result rr;
    for (sample_buffer& s : samples) s.n = 0;
    const std::uint64_t live_before = mach::kobject::live_objects();
    const std::uint64_t rep_seed = mach::splitmix64(seed_state);

    std::uint64_t t0 = now_nanos();
    std::unique_ptr<workload> w = make(opt.workload, rep_seed, samples);
    std::uint64_t setup_ns = now_nanos() - t0;
    w->self_test(errors);
    t0 = now_nanos();
    w->start();
    setup_ns += now_nanos() - t0;
    rr.setup_s = static_cast<double>(setup_ns) * 1e-9;

    sleep_seconds(kWarmupSeconds);
    for (const slice& s : plan) {
      if (s.ph == counted) mach::kmon::enable();
      const layer_snapshot l0 = s.ph == counted ? layer_snapshot::take() : layer_snapshot{};
      const live_counts c0 = w->live();
      const std::uint64_t s0 = now_nanos();
      w->set_phase(s.ph);
      sleep_seconds(window * s.share);
      const live_counts c1 = w->live();
      const std::uint64_t s1 = now_nanos();
      const double ops_s = ratio(static_cast<double>(c1.completed - c0.completed) * 1e9,
                                 static_cast<double>(s1 - s0));
      if (s.ph == untraced) rr.ops_s = ops_s;
      if (s.ph == counted) {
        rr.layers = layer_snapshot::take() - l0;
        rr.live_counted = c1 - c0;
        rr.traced_ops_s = ops_s;
        mach::kmon::disable();
      }
    }
    rep_output out;
    w->finish(out);
    w.reset();
    const std::uint64_t live_after = mach::kobject::live_objects();
    if (live_after != live_before) {
      errors.push_back("live kobjects went from " + std::to_string(live_before) + " to " +
                       std::to_string(live_after) + " across a repetition");
    }

    // Compact the threads' samples into one range, then take exact
    // quantiles in place: the sample count with each, and the highest
    // percentile that still has ten samples beyond it.
    std::size_t n = 0;
    for (const sample_buffer& s : samples) {
      std::copy(s.data, s.data + s.n, storage.data() + n);
      n += s.n;
    }
    const std::span<std::uint32_t> lat(storage.data(), n);
    std::size_t above50 = 0, above99 = 0;
    double tail_pct = 0, tail_us = 0;
    if (n > 10) {
      const std::size_t k50 = rank(n, 0.50), k99 = rank(n, 0.99);
      above50 = n - 1 - k50;
      above99 = n - 1 - k99;
      rr.p50_us = nth_ns(lat, k50) * 1e-3;
      rr.p99_us = nth_ns(lat, k99) * 1e-3;
      tail_pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
      tail_us = nth_ns(lat, n - 11) * 1e-3;
    } else {
      errors.push_back("repetition recorded too few latency samples");
    }
    attempted += out.attempted;
    failed += out.failed;
    errors.insert(errors.end(), out.errors.begin(), out.errors.end());
    for (span_buffer& b : out.spans) {
      if (!b.spans().empty() || b.dropped() != 0) spans.push_back(std::move(b));
    }
    std::printf(
        "kbench: rep %d setup_s=%.6f ops_s=%.0f latency n=%zu p50_us=%.3f (%zu above) "
        "p99_us=%.3f (%zu above) p%.5f_us=%.3f (10 above)",
        r + 1, rr.setup_s, rr.ops_s, n, rr.p50_us, above50, rr.p99_us, above99, tail_pct,
        tail_us);
    if (opt.trace) std::printf(" traced_ops_s=%.0f", rr.traced_ops_s);
    std::printf("\n");
    reps.push_back(rr);
  }

  auto med = [&reps](double rep_result::*f) {
    std::vector<double> v;
    for (const rep_result& r : reps) v.push_back(r.*f);
    return median(v);
  };
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const double success = attempted == 0 ? 0.0 : 1.0 - ratio(double(failed), double(attempted));

  std::printf(
      "kbench: end-to-end %s throughput_ops_s=%.0f p50_us=%.3f p99_us=%.3f success_rate=%.6f "
      "(error_rate=%.6f, %llu failed of %llu) setup_s=%.6f peak_rss_mb=%.1f\n",
      opt.workload.c_str(), med(&rep_result::ops_s), med(&rep_result::p50_us),
      med(&rep_result::p99_us), success, 1.0 - success, static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(attempted), med(&rep_result::setup_s), rss_mb);
  for (const std::string& e : errors) std::printf("kbench: CHECK FAILED: %s\n", e.c_str());
  const bool correct = errors.empty();

  std::vector<metric_out> metrics;
  if (!opt.trace) {
    metrics = {{"throughput_ops_s", med(&rep_result::ops_s), "1/s"},
               {"p50_us", med(&rep_result::p50_us), "us"},
               {"p99_us", med(&rep_result::p99_us), "us"},
               {"success_rate", success, "ratio"},
               {"setup_s", med(&rep_result::setup_s), "s"},
               {"peak_rss_mb", rss_mb, "MB"}};
  } else {
    layer_snapshot L;
    live_counts C;
    std::vector<double> overhead;
    for (const rep_result& r : reps) {
      L += r.layers;
      C += r.live_counted;
      overhead.push_back(ratio(r.ops_s - r.traced_ops_s, r.ops_s));
    }
    const double ops = static_cast<double>(C.completed);
    span_stats st;
    std::uint64_t dropped = 0;
    for (const span_buffer& b : spans) {
      st.add(b);
      dropped += b.dropped();
    }
    for (int i = 0; i < num_span_names; ++i) {
      if (st.count[i] == 0) continue;
      std::printf("kbench: span %-15s n=%-8llu mean_ns=%-10.1f self_ns=%.1f\n", span_label(i),
                  static_cast<unsigned long long>(st.count[i]), st.mean_ns(i),
                  st.mean_self_ns(i));
    }
    if (dropped != 0) {
      std::printf("kbench: %llu spans dropped (buffers full)\n",
                  static_cast<unsigned long long>(dropped));
    }
    if (!opt.spans_out.empty()) {
      if (write_spans(opt.spans_out, spans)) {
        std::printf("kbench: spans written to %s\n", opt.spans_out.c_str());
      } else {
        std::printf("kbench: could not write spans to %s\n", opt.spans_out.c_str());
      }
    }
    auto per_op = [ops](std::uint64_t v) { return ratio(static_cast<double>(v), ops); };
    auto share = [](std::uint64_t a, std::uint64_t b) {
      return ratio(static_cast<double>(a), static_cast<double>(a + b));
    };
    metrics = {
        {"sched.wakeups_no_waiter_per_op", per_op(L.wakeups_no_waiter), "count"},
        {"sched.blocks_per_op", per_op(L.blocks), "count"},
        {"sched.wakeups_per_op", per_op(L.wakeups), "count"},
        {"sched.short_circuit_ratio", share(L.short_circuited, L.blocks), "ratio"},
        {"sched.blocked_ns_per_op", per_op(L.blocked_ns), "ns"},
        {"sync.event-bucket.acq_per_op", per_op(L.bucket_acq), "count"},
        {"sync.mc-shard.acq_per_op", per_op(L.shard_acq), "count"},
        {"sync.mc-shard.contended_ratio", ratio(double(L.shard_cont), double(L.shard_acq)),
         "ratio"},
        {"sync.ipc-space.acq_per_op", per_op(L.space_acq), "count"},
        {"sync.ipc-space.contended_ratio", ratio(double(L.space_cont), double(L.space_acq)),
         "ratio"},
        {"ipc.send_ns", st.mean_ns(sp_send), "ns"},
        {"ipc.reply_wait_ns", st.mean_ns(sp_reply_wait), "ns"},
        {"ipc.backpressure_ratio", ratio(double(C.refused), double(C.sends)), "ratio"},
        {"ipc.msg_rpc_ns", st.mean_ns(sp_msg_rpc), "ns"},
        {"ipc.lookup_ns", st.mean_ns(sp_lookup), "ns"},
        {"ipc.translate_ns", st.mean_ns(sp_translate), "ns"},
        {"svc.get_ns", st.mean_ns(sp_get), "ns"},
        {"svc.set_ns", st.mean_ns(sp_set), "ns"},
        {"svc.del_ns", st.mean_ns(sp_del), "ns"},
        {"svc.serve_ns", ratio(double(L.serve_ns), double(L.serve_count)), "ns"},
        {"svc.hit_ratio", share(C.hits, C.misses), "ratio"},
        {"kern.zalloc_per_op", per_op(L.zallocs), "count"},
        {"kern.ref_ops_per_op", per_op(L.ref_ops), "count"},
        {"kern.lockref_fast_ratio", share(L.lockref_fast, L.lockref_slow), "ratio"},
        {"trace.overhead_ratio", median(overhead), "ratio"},
        {"floor.tas_pair_ns", fl.tas_pair_ns, "ns"},
        {"floor.atomic_inc_ns", fl.atomic_inc_ns, "ns"},
        {"floor.handoff_ns", fl.handoff_ns, "ns"},
        {"host.nproc", static_cast<double>(host.nproc), "count"},
        {"host.effective_cpus", host.effective_cpus, "count"},
    };
    for (const metric_out& m : metrics) {
      std::printf("kbench: layer %s %s=%.6g %s\n", opt.workload.c_str(), m.name.c_str(),
                  m.value, m.unit);
    }
  }
  std::fflush(stdout);
  print_json(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace kbench

int main(int argc, char** argv) { return kbench::run(kbench::parse(argc, argv)); }
