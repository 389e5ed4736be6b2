// The threads workload: the paper's Figures 5 and 6 run long, interleaved
// with request/reply segments between pairs of unbound threads at the shipped
// concurrency. No net, timer or HTTP code runs here, so a change to those
// layers should leave every number of this workload where it was.

#include <memory>
#include <vector>

#include "bench.h"
#include "common.h"
#include "src/core/thread.h"
#include "src/lwp/lwp.h"

namespace perfbench {
namespace {

constexpr int kSegments = 8;
constexpr double kRequestShare = 0.3;

// One client/server pair: the client's v(request); p(reply) is one request.
struct Pair {
  Pair(int64_t start, double seconds) : latency(start, seconds) {}

  sunmt::sema_t request = {};
  sunmt::sema_t reply = {};
  std::atomic<bool> stop{false};
  int64_t deadline = 0;
  int index = 0;
  std::atomic<uint64_t> sent{0};
  uint64_t seen = 0;
  WindowedLatency latency;
};

void PairServer(void* arg) {
  auto* p = static_cast<Pair*>(arg);
  for (;;) {
    sunmt::sema_p(&p->request);
    if (p->stop.load(std::memory_order_acquire)) {
      return;
    }
    ++p->seen;
    sunmt::sema_v(&p->reply);
  }
}

void PairClient(void* arg) {
  auto* p = static_cast<Pair*>(arg);
  uint64_t seq = 0;
  while (NowNs() < p->deadline) {
    int64_t start = NowNs();
    sunmt::sema_v(&p->request);
    sunmt::sema_p(&p->reply);
    int64_t end = NowNs();
    p->latency.Add(end, end - start);
    RecordSpan("request", (static_cast<uint64_t>(p->index) << 40) | seq++,
               start, end);
    p->sent.fetch_add(1, std::memory_order_relaxed);
  }
  p->stop.store(true, std::memory_order_release);
  sunmt::sema_v(&p->request);
}

class ThreadsWorkload : public Workload {
 public:
  explicit ThreadsWorkload(const Options& opt) : opt_(opt) {}

  bool Setup(Result*) override { return true; }
  void Teardown() override {}

  // kSegments request segments, each followed by a round of the figures; the
  // requests take kRequestShare of the window. In a traced run every other
  // request segment is traced, to measure the tracing overhead on the same
  // load.
  void Run(Result* r) override {
    const double requests_s = kRequestShare * opt_.seconds / kSegments;
    const double figures_s = (1 - kRequestShare) * opt_.seconds / kSegments;
    Figures figures(opt_);
    LayerCounters figure_counters;
    LayerCounters traced;
    WindowedLatency latency;
    uint64_t requests = 0;
    uint64_t segment_requests[2] = {0, 0};
    int64_t segment_ns[2] = {0, 0};
    for (int seg = 0; seg < kSegments; ++seg) {
      bool traced_seg = opt_.trace && seg % 2 == 1;
      SetTracing(traced_seg);
      LayerCounters before = LayerCounters::Take();
      int64_t start = NowNs();
      uint64_t n = RunRequests(requests_s, r, &latency);
      int64_t ns = NowNs() - start;
      LayerCounters after = LayerCounters::Take();
      SetTracing(false);
      if (traced_seg) {
        traced.AddDelta(before, after);
      }
      requests += n;
      segment_requests[traced_seg] += n;
      segment_ns[traced_seg] += ns;
      figures.Run(figures_s, r, &figure_counters);
    }
    r->AddOps(requests, 0);
    r->Set("req_per_s", latency.QuietRate(), "req/s");
    r->Set("req_p50_us", latency.QuietQuantile(0.50) / 1e3, "us");
    r->Set("req_p99_us", latency.QuietQuantile(0.99) / 1e3, "us");
    r->Set("cpu_us_per_req", latency.QuietCpuNsPerOp() / 1e3, "us");
    r->Set("lwps", static_cast<double>(sunmt::LwpRegistry::Count()), "count");
    SetLayerMetrics(traced, static_cast<double>(segment_requests[1]), r);
    double untraced_rate =
        segment_ns[0] > 0 ? static_cast<double>(segment_requests[0]) /
                                static_cast<double>(segment_ns[0])
                          : 0;
    double traced_rate =
        segment_ns[1] > 0 ? static_cast<double>(segment_requests[1]) /
                                static_cast<double>(segment_ns[1])
                          : 0;
    r->Set("trace.overhead_pct",
           untraced_rate > 0 ? (1 - traced_rate / untraced_rate) * 100 : 0,
           "%");

    figures.Finish(r, &figure_counters);
    // The stack cache serves the create phases of the figures.
    uint64_t stack_lookups =
        figure_counters.stack_hits + figure_counters.stack_misses;
    r->Set("objcache.stack_hit_ratio",
           stack_lookups == 0
               ? 0
               : static_cast<double>(figure_counters.stack_hits) /
                     static_cast<double>(stack_lookups),
           "ratio");
    // Layers that never run in this workload read 0.
    r->Set("http.cache_hit_ratio", 0, "ratio");
    r->Set("http.cache_evictions_per_kreq", 0, "count");
    r->Set("http.parse_ns", 0, "ns");
    r->Set("http.cache_lookup_ns", 0, "ns");
    r->Set("net.pingpong_ns", 0, "ns");
    if (opt_.trace) {
      r->Set("core.first_run_us", FirstRunUs(2048), "us");
    }
  }

 private:
  // nproc client/server pairs of unbound threads for `seconds`; appends the
  // segment's latency windows to *latency and returns its request count.
  uint64_t RunRequests(double seconds, Result* r, WindowedLatency* latency) {
    std::vector<std::unique_ptr<Pair>> pairs;
    std::vector<sunmt::thread_id_t> ids;
    int64_t start = NowNs();
    WindowedLatency segment(start, seconds);
    HostSampler host(start, WindowedLatency::kWindowNs, segment.windows());
    for (int i = 0; i < opt_.nproc; ++i) {
      auto p = std::make_unique<Pair>(start, seconds);
      sunmt::sema_init(&p->request, 0, 0, nullptr);
      sunmt::sema_init(&p->reply, 0, 0, nullptr);
      p->deadline = start + static_cast<int64_t>(seconds * 1e9);
      p->index = i;
      ids.push_back(sunmt::thread_create(nullptr, 0, &PairServer, p.get(),
                                         sunmt::THREAD_WAIT));
      ids.push_back(sunmt::thread_create(nullptr, 0, &PairClient, p.get(),
                                         sunmt::THREAD_WAIT));
      pairs.push_back(std::move(p));
    }
    for (sunmt::thread_id_t id : ids) {
      sunmt::thread_wait(id);
    }
    segment.SetHost(host.Finish());
    uint64_t requests = 0;
    for (auto& p : pairs) {
      uint64_t n = p->sent.load();
      r->Check(p->seen == n, "requests: pair %d sent %llu, server saw %llu",
               p->index, static_cast<unsigned long long>(n),
               static_cast<unsigned long long>(p->seen));
      requests += n;
      segment.Merge(p->latency);
    }
    latency->Append(segment);
    return requests;
  }

  Options opt_;
};

}  // namespace

Workload* NewThreadsWorkload(const Options& opt) {
  return new ThreadsWorkload(opt);
}

}  // namespace perfbench
