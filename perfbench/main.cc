// perfbench: one run of one workload against the sunmt library as it ships.
//
//   perfbench --workload http_keepalive|http_churn|threads --seed N
//             --seconds S --trace 0|1 --client PATH --out DIR [--inject F]
//
// Set-up (a parked population of unbound threads plus the workload's own
// server and warm-up) is done kSetupRounds times and timed; the last round
// stays up for the timed window. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, holding the end-to-end
// metrics, or with --trace 1 the per-layer ones.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common.h"
#include "src/net/backend.h"

namespace perfbench {
namespace {

constexpr int kSetupRounds = 9;
constexpr int kPopulation = 4096;

const char* const kEndToEnd[] = {
    "req_per_s",       "req_p50_us",      "req_p99_us",
    "cpu_us_per_req",  "lwps",            "create_unbound_us",
    "create_bound_us", "sync_unbound_us", "sync_bound_us",
    "sync_xproc_us",   "rss_kib_per_thread", "setup_s",
};

const char* const kPerLayer[] = {
    "http.cache_hit_ratio",
    "http.cache_evictions_per_kreq",
    "http.parse_ns",
    "http.cache_lookup_ns",
    "net.parks_per_req",
    "net.pingpong_ns",
    "net.epoll_batch_mean",
    "timer.arms_per_req",
    "timer.fires_per_s",
    "sched.dispatches_per_req",
    "sched.lwp_wakes_per_req",
    "sched.dispatch_latency_mean_us",
    "sched.dispatch_latency_p99_us",
    "sched.run_queue_lock_wait_p99_us",
    "core.first_run_us",
    "lwp.kernel_waits_per_req",
    "lwp.pool_cpu_us_per_req",
    "lwp.service_cpu_us_per_req",
    "sync.rwlock_waits_per_kreq",
    "sync.mutex_waits_per_kreq",
    "sync.sema_v_ns",
    "sync.sema_p_ns",
    "sync.sema_wait_shared_mean_us",
    "arch.yield_switch_ns",
    "objcache.misses_per_kreq",
    "objcache.stack_hit_ratio",
    "trace.overhead_pct",
};

int Usage() {
  fprintf(stderr,
          "usage: perfbench --workload http_keepalive|http_churn|threads "
          "--seed N --seconds S --trace 0|1 --client PATH --out DIR "
          "[--inject status|body|short|handshake|child_exit]\n");
  return 2;
}

template <size_t N>
bool PrintResult(const Result& r, const char* const (&names)[N]) {
  std::string metrics;
  bool correct = r.correct();
  for (const char* name : names) {
    if (!r.Has(name)) {
      fprintf(stderr, "metric %s was not measured\n", name);
      return false;
    }
    double v = r.Get(name);
    if (!std::isfinite(v)) {
      fprintf(stderr, "metric %s is not finite\n", name);
      correct = false;
      v = 0;
    }
    char buf[160];
    snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
             metrics.empty() ? "" : ", ", name, v, r.Unit(name));
    metrics += buf;
  }
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {%s}}\n",
         correct ? "true" : "false",
         static_cast<unsigned long long>(r.attempted()),
         static_cast<unsigned long long>(r.failed()), metrics.c_str());
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = atof(v.c_str());
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--inject") {
      opt.inject = v;
    } else if (k == "--client") {
      opt.client_path = v;
    } else if (k == "--out") {
      opt.out_dir = v;
    } else {
      return Usage();
    }
  }
  opt.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::unique_ptr<Workload> workload;
  if (opt.workload == "http_keepalive" || opt.workload == "http_churn") {
    workload.reset(NewHttpWorkload(opt, opt.workload == "http_churn"));
  } else if (opt.workload == "threads") {
    workload.reset(NewThreadsWorkload(opt));
  }
  if (workload == nullptr || opt.seconds <= 0 || opt.out_dir.empty() ||
      opt.client_path.empty()) {
    return Usage();
  }

  Result r;
  ParkedPopulation population;
  std::vector<double> setup_s;
  std::vector<double> rss_kib;
  for (int round = 0; round < kSetupRounds; ++round) {
    int64_t start = NowNs();
    rss_kib.push_back(population.Create(kPopulation));
    bool ok = workload->Setup(&r);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!ok) {
      fprintf(stderr, "set-up failed\n");
      return 1;
    }
    if (round + 1 < kSetupRounds) {
      workload->Teardown();
      population.Release(&r);
    }
  }
  r.Set("setup_s", Median(setup_s), "s");
  r.Set("rss_kib_per_thread", Median(rss_kib), "KiB");

  HostTicks before = HostTicks::Read();
  workload->Run(&r);
  double steal = HostTicks::StealShare(before, HostTicks::Read());
  population.Release(&r);
  workload.reset();

  if (opt.trace) {
    bool http = opt.workload != "threads";
    WriteSpanFile(opt.out_dir + "/spans_" + opt.workload + ".json",
                  http ? opt.out_dir + "/client_spans.txt" : "");
  }
  printf("engine %s\n",
         sunmt::net_backend_exists() ? sunmt::net_backend_name() : "none");
  printf("steal %.4f\n", steal);
  bool printed = opt.trace ? PrintResult(r, kPerLayer) : PrintResult(r, kEndToEnd);
  fflush(stdout);
  // Threads still parked in the library (the poller, the pool) are not
  // joined; leave without running static destructors under them.
  _exit(printed ? 0 : 1);
}
