// Server-side pieces of the benchmark: the run's options and result, the
// per-layer snapshot taken around traced slices, the span buffer, and the
// workload entry points (http.cc, threads.cc).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/stats/histogram.h"
#include "src/stats/stats.h"
#include "src/sync/sync.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string inject;       // self-test fault, "" in measured runs
  std::string client_path;  // the load generator executable
  std::string out_dir;      // span file and client scratch files
  int nproc = 1;
};

// Metrics by name, plus the run's operation counts and check verdicts.
class Result {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  bool Has(const std::string& name) const { return metrics_.count(name) != 0; }
  double Get(const std::string& name) const { return metrics_.at(name).value; }
  const char* Unit(const std::string& name) const {
    return metrics_.at(name).unit;
  }
  // Records a failed check; the run then reports correct=false.
  void Check(bool ok, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));
  void AddOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  struct Metric {
    double value;
    const char* unit;
  };
  std::map<std::string, Metric> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---- Tracing ----------------------------------------------------------------

// True while a traced slice runs: the program's stats are on and the
// benchmark records spans.
extern std::atomic<bool> g_tracing;

// Spans kept in memory and written out when the run ends.
struct Span {
  const char* name;
  uint64_t id;  // shared by the spans of one request / operation
  int64_t start_ns;
  int64_t end_ns;
};

// Appends a span if tracing is on and the buffer has room (lock-free).
void RecordSpan(const char* name, uint64_t id, int64_t start_ns, int64_t end_ns);

// Writes every recorded span, plus the client's round-trip spans from
// `client_spans` (may be empty), as a Chrome trace JSON file.
void WriteSpanFile(const std::string& path, const std::string& client_spans);

// Turns the program's stats and the benchmark's spans on or off together.
void SetTracing(bool on);

// Cumulative counters of every layer, read through the program's public
// snapshot calls. Deltas between two snapshots are summed over traced slices.
struct LayerCounters {
  int64_t wall_ns = 0;
  int64_t process_cpu_ns = 0;
  // src/core
  uint64_t dispatches = 0;
  uint64_t lwp_wakes = 0;  // NotifyWork unparked an idle pool LWP
  uint64_t net_parks = 0;
  uint64_t threads_created = 0;
  // src/timer
  uint64_t timer_arms = 0;
  uint64_t timer_fires = 0;
  // src/lwp: per-LWP readings in a snapshot, summed into the deltas
  struct LwpReading {
    int64_t cpu_ns;
    uint64_t kernel_calls;
    bool pool;
  };
  std::map<int, LwpReading> lwp_cpu;
  int64_t pool_cpu_ns = 0;
  int64_t service_cpu_ns = 0;
  uint64_t kernel_waits = 0;
  // src/util object caches
  uint64_t objcache_misses = 0;
  uint64_t stack_hits = 0;
  uint64_t stack_misses = 0;
  // Histograms of the stats layer (recorded only while stats are on).
  sunmt::HistogramSnapshot hist[static_cast<int>(sunmt::LatencyStat::kCount)];

  static LayerCounters Take();
  // this += (after - before), for two snapshots from Take()
  void AddDelta(const LayerCounters& before, const LayerCounters& after);
  // this += delta, for an accumulated delta
  void Add(const LayerCounters& delta);
  const sunmt::HistogramSnapshot& H(sunmt::LatencyStat s) const {
    return hist[static_cast<int>(s)];
  }
};

// Sets the per-layer metrics that come from counter deltas, normalized by
// `requests` served in the same slices.
void SetLayerMetrics(const LayerCounters& d, double requests, Result* r);

// ---- Shared phases ----------------------------------------------------------

// Thousands of unbound threads parked on one semaphore beside the workload.
class ParkedPopulation {
 public:
  // Creates `n` threads and waits until each has parked; returns the
  // resident-memory growth per thread in KiB.
  double Create(int n);
  // Wakes every thread, waits for all to exit, and checks each ran once.
  void Release(Result* r);

  ~ParkedPopulation();

 private:
  static void Main(void* arg);

  struct Member {
    ParkedPopulation* population;
    std::atomic<int> ran{0};
  };
  int n_ = 0;
  std::unique_ptr<Member[]> members_;
  sunmt::sema_t release_ = {};
  sunmt::sema_t exited_ = {};
  std::atomic<int> parked_{0};
};

// The paper's Figures 5 and 6, measured in short rounds that a workload
// interleaves with its own load, so a slow stretch of the machine lands on
// every figure and on the load a little rather than on one of them entirely.
class Figures {
 public:
  explicit Figures(const Options& opt) : opt_(opt) {}

  // Runs the figures for about `seconds`, summing the counter deltas of
  // traced rounds into *traced.
  void Run(double seconds, Result* r, LayerCounters* traced);
  // Sets the create_*, sync_* and (traced) arch/sync metrics from the rounds
  // run so far, and checks unbound below bound.
  void Finish(Result* r, LayerCounters* traced);

 private:
  // Timed blocks of one figure, in µs, by phase (one per round), with the
  // host's steal share during each phase.
  struct Blocks {
    std::vector<double> steal;
    std::vector<std::vector<double>> blocks;
  };
  // Runs one phase of a figure, appending its blocks and steal to *b.
  template <typename Fn>
  static void Timed(Blocks* b, Fn fn);
  // The best decile of the blocks of the quiet phases (see QuietWindows).
  static double Best(const Blocks& b);

  Options opt_;
  int rounds_ = 0;
  double seconds_ = 0;
  Blocks create_unbound_, create_bound_;
  Blocks sync_unbound_, sync_bound_, sync_xproc_;
  int64_t v_ns_ = 0;  // traced: time inside sema_v / sema_p
  int64_t p_ns_ = 0;
  uint64_t traced_handshakes_ = 0;
  LayerCounters xproc_;
};

// Replays run after the timed window of a traced run.
double PingPongNs(double seconds);
double FirstRunUs(int threads);

// Resident set size of this process in KiB.
double RssKib();

// ---- Workloads ----------------------------------------------------------------

// Each sets every end-to-end metric (trace off) or per-layer metric (trace on)
// except setup_s, which main measures around Setup().
class Workload {
 public:
  virtual ~Workload() = default;
  virtual bool Setup(Result* r) = 0;
  virtual void Teardown() = 0;
  virtual void Run(Result* r) = 0;
};

Workload* NewHttpWorkload(const Options& opt, bool churn);
Workload* NewThreadsWorkload(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
