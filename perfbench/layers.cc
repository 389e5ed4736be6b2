// Per-layer measurement from outside the program: snapshots of the counters
// each layer already exports, taken around traced slices, and the span buffer
// the benchmark fills around its own calls into the library.

#include <stdarg.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

#include "bench.h"
#include "common.h"
#include "src/core/runtime.h"
#include "src/introspect/introspect.h"
#include "src/lwp/lwp.h"
#include "src/timer/timer.h"
#include "src/util/object_cache.h"

namespace perfbench {

void Result::Check(bool ok, const char* fmt, ...) {
  if (ok) {
    return;
  }
  correct_ = false;
  va_list ap;
  va_start(ap, fmt);
  fprintf(stderr, "CHECK FAILED: ");
  vfprintf(stderr, fmt, ap);
  fprintf(stderr, "\n");
  va_end(ap);
}

// ---- Spans --------------------------------------------------------------------

std::atomic<bool> g_tracing{false};

namespace {

constexpr size_t kMaxSpans = 1 << 16;
std::unique_ptr<Span[]> g_spans(new Span[kMaxSpans]);
std::atomic<size_t> g_span_count{0};

// The LWP carrying main(); its CPU is the benchmark's own, not a service's.
int g_main_lwp_id = -1;

}  // namespace

void RecordSpan(const char* name, uint64_t id, int64_t start_ns,
                int64_t end_ns) {
  // Once the buffer is full the cost drops to two relaxed loads.
  if (!g_tracing.load(std::memory_order_relaxed) ||
      g_span_count.load(std::memory_order_relaxed) >= kMaxSpans) {
    return;
  }
  size_t slot = g_span_count.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSpans) {
    g_spans[slot] = Span{name, id, start_ns, end_ns};
  }
}

void SetTracing(bool on) {
  if (g_main_lwp_id < 0 && sunmt::Lwp::Current() != nullptr) {
    g_main_lwp_id = sunmt::Lwp::Current()->id();
  }
  if (on) {
    sunmt::Stats::Enable();
  } else {
    sunmt::Stats::Disable();
  }
  g_tracing.store(on, std::memory_order_relaxed);
}

void WriteSpanFile(const std::string& path, const std::string& client_spans) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  auto emit = [&](const char* name, int pid, uint64_t id, int64_t start,
                  int64_t end) {
    fprintf(f,
            "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%llu,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%llx\"}}",
            first ? "" : ",\n", name, pid,
            static_cast<unsigned long long>(id >> 40),
            static_cast<double>(start) / 1e3,
            static_cast<double>(end - start) / 1e3,
            static_cast<unsigned long long>(id));
    first = false;
  };
  size_t n = std::min(g_span_count.load(), kMaxSpans);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = g_spans[i];
    emit(s.name, 1, s.id, s.start_ns, s.end_ns);
  }
  if (!client_spans.empty()) {
    std::ifstream in(client_spans);
    std::string line;
    while (std::getline(in, line)) {
      unsigned long long id = 0;
      long long start = 0;
      long long end = 0;
      if (sscanf(line.c_str(), "%llx %lld %lld", &id, &start, &end) == 3) {
        emit("request", 2, id, start, end);
      }
    }
  }
  fprintf(f, "\n]}\n");
  fclose(f);
}

// ---- Layer counters -------------------------------------------------------------

LayerCounters LayerCounters::Take() {
  LayerCounters c;
  c.wall_ns = NowNs();
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  c.process_cpu_ns = static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;

  sunmt::SchedStatsSnapshot s = sunmt::SnapshotSchedStats();
  c.dispatches = s.dispatches;
  c.lwp_wakes = s.notify_wakes;
  c.threads_created = s.threads_created;
  c.net_parks = sunmt::GlobalSchedStats().net_parks.Load();

  sunmt::TimerEngineStats t = sunmt::timer_engine_stats();
  c.timer_arms = t.arms;
  c.timer_fires = t.fires;

  std::vector<sunmt::LwpSnapshot> lwps;
  sunmt::SnapshotLwps(&lwps);
  for (const sunmt::LwpSnapshot& l : lwps) {
    c.lwp_cpu[l.id] = {l.user_ns, l.kernel_calls, l.pool};
  }

  sunmt::ObjectCacheStats caches[64];
  size_t n = sunmt::ObjectCacheSnapshotAll(caches, 64);
  for (size_t i = 0; i < n; ++i) {
    c.objcache_misses += caches[i].misses;
    if (strcmp(caches[i].name, "stack") == 0) {
      c.stack_hits += caches[i].hits;
      c.stack_misses += caches[i].misses;
    }
  }
  for (int i = 0; i < static_cast<int>(sunmt::LatencyStat::kCount); ++i) {
    sunmt::Stats::Snapshot(static_cast<sunmt::LatencyStat>(i), &c.hist[i]);
  }
  return c;
}

void LayerCounters::AddDelta(const LayerCounters& b, const LayerCounters& a) {
  LayerCounters d;
  d.wall_ns = a.wall_ns - b.wall_ns;
  d.process_cpu_ns = a.process_cpu_ns - b.process_cpu_ns;
  d.dispatches = a.dispatches - b.dispatches;
  d.lwp_wakes = a.lwp_wakes - b.lwp_wakes;
  d.net_parks = a.net_parks - b.net_parks;
  d.threads_created = a.threads_created - b.threads_created;
  d.timer_arms = a.timer_arms - b.timer_arms;
  d.timer_fires = a.timer_fires - b.timer_fires;
  d.objcache_misses = a.objcache_misses - b.objcache_misses;
  d.stack_hits = a.stack_hits - b.stack_hits;
  d.stack_misses = a.stack_misses - b.stack_misses;
  // LWPs that exited between the snapshots are lost; LWPs that appeared
  // count from zero.
  for (const auto& [id, after] : a.lwp_cpu) {
    if (id == g_main_lwp_id) {
      continue;
    }
    auto it = b.lwp_cpu.find(id);
    int64_t cpu = after.cpu_ns;
    uint64_t waits = after.kernel_calls;
    if (it != b.lwp_cpu.end()) {
      cpu -= it->second.cpu_ns;
      waits -= it->second.kernel_calls;
    }
    (after.pool ? d.pool_cpu_ns : d.service_cpu_ns) += cpu;
    d.kernel_waits += waits;
  }
  for (int i = 0; i < static_cast<int>(sunmt::LatencyStat::kCount); ++i) {
    sunmt::HistogramSnapshot& h = d.hist[i];
    for (int k = 0; k < sunmt::HistogramSnapshot::kBuckets; ++k) {
      h.buckets[k] = a.hist[i].buckets[k] - b.hist[i].buckets[k];
    }
    h.count = a.hist[i].count - b.hist[i].count;
    h.sum = a.hist[i].sum - b.hist[i].sum;
    h.max = a.hist[i].max;
  }
  Add(d);
}

void LayerCounters::Add(const LayerCounters& d) {
  wall_ns += d.wall_ns;
  process_cpu_ns += d.process_cpu_ns;
  dispatches += d.dispatches;
  lwp_wakes += d.lwp_wakes;
  net_parks += d.net_parks;
  threads_created += d.threads_created;
  timer_arms += d.timer_arms;
  timer_fires += d.timer_fires;
  objcache_misses += d.objcache_misses;
  stack_hits += d.stack_hits;
  stack_misses += d.stack_misses;
  pool_cpu_ns += d.pool_cpu_ns;
  service_cpu_ns += d.service_cpu_ns;
  kernel_waits += d.kernel_waits;
  for (int i = 0; i < static_cast<int>(sunmt::LatencyStat::kCount); ++i) {
    for (int k = 0; k < sunmt::HistogramSnapshot::kBuckets; ++k) {
      hist[i].buckets[k] += d.hist[i].buckets[k];
    }
    hist[i].count += d.hist[i].count;
    hist[i].sum += d.hist[i].sum;
    hist[i].max = std::max(hist[i].max, d.hist[i].max);
  }
}

void SetLayerMetrics(const LayerCounters& d, double requests, Result* r) {
  using sunmt::LatencyStat;
  double req = requests > 0 ? requests : 1;
  double seconds = d.wall_ns > 0 ? static_cast<double>(d.wall_ns) / 1e9 : 1;
  r->Set("sched.dispatches_per_req", static_cast<double>(d.dispatches) / req,
         "count");
  r->Set("sched.lwp_wakes_per_req", static_cast<double>(d.lwp_wakes) / req,
         "count");
  const sunmt::HistogramSnapshot& disp = d.H(LatencyStat::kDispatchLatency);
  r->Set("sched.dispatch_latency_mean_us", disp.Mean() / 1e3, "us");
  r->Set("sched.dispatch_latency_p99_us", disp.Quantile(0.99) / 1e3, "us");
  r->Set("sched.run_queue_lock_wait_p99_us",
         d.H(LatencyStat::kRunQueueLockWait).Quantile(0.99) / 1e3, "us");
  r->Set("net.parks_per_req", static_cast<double>(d.net_parks) / req, "count");
  r->Set("net.epoll_batch_mean", d.H(LatencyStat::kNetEpollBatch).Mean(),
         "count");
  r->Set("timer.arms_per_req", static_cast<double>(d.timer_arms) / req,
         "count");
  r->Set("timer.fires_per_s", static_cast<double>(d.timer_fires) / seconds,
         "1/s");
  r->Set("lwp.kernel_waits_per_req", static_cast<double>(d.kernel_waits) / req,
         "count");
  r->Set("lwp.pool_cpu_us_per_req",
         static_cast<double>(d.pool_cpu_ns) / 1e3 / req, "us");
  r->Set("lwp.service_cpu_us_per_req",
         static_cast<double>(d.service_cpu_ns) / 1e3 / req, "us");
  r->Set("sync.rwlock_waits_per_kreq",
         static_cast<double>(d.H(LatencyStat::kRwlockWaitLocal).count) * 1e3 /
             req,
         "count");
  uint64_t mutex_waits = d.H(LatencyStat::kMutexWaitAdaptive).count +
                         d.H(LatencyStat::kMutexWaitSpin).count +
                         d.H(LatencyStat::kMutexWaitDebug).count +
                         d.H(LatencyStat::kMutexWaitShared).count;
  r->Set("sync.mutex_waits_per_kreq",
         static_cast<double>(mutex_waits) * 1e3 / req, "count");
  r->Set("objcache.misses_per_kreq",
         static_cast<double>(d.objcache_misses) * 1e3 / req, "count");
  uint64_t stack_lookups = d.stack_hits + d.stack_misses;
  r->Set("objcache.stack_hit_ratio",
         stack_lookups == 0 ? 0.0
                            : static_cast<double>(d.stack_hits) /
                                  static_cast<double>(stack_lookups),
         "ratio");
}

double RssKib() {
  std::ifstream statm("/proc/self/statm");
  long size = 0;
  long resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

}  // namespace perfbench
