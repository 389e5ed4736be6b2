// Inputs shared by the load generator and the server side of the benchmark.
//
// Everything here is a pure function of the seed, so the client process (which
// never links the sunmt library) and the server process derive the same
// request stream and the same expected response bodies independently: the
// client checks each body against its own computation, never against a copy
// of what the server sent earlier.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

// SplitMix64, written out here so the client does not depend on src/.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

inline uint64_t Mix(uint64_t x) { return Rng(x).Next(); }

inline int64_t NowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// ---- Workload shapes --------------------------------------------------------

// Keep-alive: a key set small enough that every key stays cached.
inline constexpr uint32_t kKeepAliveKeys = 64;
// Churn: a key space whose bodies (~2.2 MB) are about twice the cache budget.
inline constexpr uint32_t kChurnKeys = 4096;
inline constexpr size_t kCacheBudgetBytes = 1 << 20;
inline constexpr int kCacheShards = 16;
inline constexpr size_t kMinBody = 64;
inline constexpr size_t kMaxBody = 1024;

// Key k of a run: the key space is salted by the seed so two seeds exercise
// different bodies and different cache placements.
inline std::string KeyTarget(uint64_t seed, uint32_t k) {
  char buf[48];
  snprintf(buf, sizeof(buf), "/k/%llx/%u",
           static_cast<unsigned long long>(Mix(seed) & 0xffffff), k);
  return buf;
}

// The response body for a target: length in [kMinBody, kMaxBody], letters
// drawn from a hash of the target.
inline std::string BodyFor(const std::string& target) {
  uint64_t h = 1469598103934665603ull;
  for (char c : target) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  Rng rng(h);
  size_t len = kMinBody + rng.Below(kMaxBody - kMinBody + 1);
  std::string body(len, 'a');
  for (size_t i = 0; i < len; i += 8) {
    uint64_t r = rng.Next();
    for (size_t j = i; j < len && j < i + 8; ++j) {
      body[j] = static_cast<char>('a' + (r & 0xff) % 26);
      r >>= 8;
    }
  }
  return body;
}

// The request bytes for one request. X-Req carries the client's request id so
// the server-side handler span can be joined to the client's round-trip span.
inline std::string RequestFor(const std::string& target, bool close,
                              uint64_t req_id) {
  char buf[160];
  snprintf(buf, sizeof(buf),
           "GET %s HTTP/1.1\r\nHost: perfbench\r\nX-Req: %llx\r\n%s\r\n",
           target.c_str(), static_cast<unsigned long long>(req_id),
           close ? "Connection: close\r\n" : "");
  return buf;
}

// Per-client-thread key stream: thread t of a run draws keys from its own
// generator, so the stream does not depend on how threads interleave.
inline Rng KeyStream(uint64_t seed, int thread) {
  return Rng(Mix(seed ^ (0x517cc1b727220a95ull * (thread + 1))));
}

// Latency histogram with 64 linear sub-buckets per power of two: exact below
// 64 ns, within 1.6% above, up to 2^40 ns. Fixed size, no allocation per
// sample.
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kSize, 0) {}

  void Add(int64_t ns) {
    ++buckets_[Index(ns < 0 ? 0 : static_cast<uint64_t>(ns))];
    ++count_;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kSize; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  // Nearest-rank quantile, placed inside its bucket by its rank among the
  // bucket's samples (samples taken as evenly spread over the bucket).
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
    uint64_t seen = 0;
    for (size_t i = 0; i < kSize; ++i) {
      if (seen + buckets_[i] > rank) {
        double frac = (static_cast<double>(rank - seen) + 0.5) /
                      static_cast<double>(buckets_[i]);
        return Low(i) + frac * Width(i);
      }
      seen += buckets_[i];
    }
    return Low(kSize - 1);
  }

 private:
  static constexpr int kSub = 64;
  static constexpr int kMaxPower = 40;
  static constexpr size_t kSize = (kMaxPower - 4) * kSub;

  static size_t Index(uint64_t v) {
    if (v < kSub) {
      return v;
    }
    int power = 63 - __builtin_clzll(v);
    if (power > kMaxPower - 1) {
      return kSize - 1;
    }
    int shift = power - 6;
    return static_cast<size_t>((power - 5) * kSub) +
           static_cast<size_t>((v >> shift) - kSub);
  }

  static double Width(size_t i) {
    if (i < static_cast<size_t>(kSub)) {
      return 1.0;
    }
    int power = static_cast<int>(i / kSub) + 5;
    return static_cast<double>(uint64_t{1} << (power - 6));
  }

  static double Low(size_t i) {
    if (i < static_cast<size_t>(kSub)) {
      return static_cast<double>(i);
    }
    return static_cast<double>(kSub + i % kSub) * Width(i);
  }

  std::vector<uint32_t> buckets_;
  uint64_t count_ = 0;
};

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Quantile q of a sample, interpolating between neighbouring ranks.
inline double QuantileOf(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// The best tenth of a run's timed blocks: the fastest decile of times.
// Interference from outside the program only ever slows a block, so the best
// decile is the figure that repeats from run to run; a change that slows
// every block still moves it.
inline double BestDecileTime(const std::vector<double>& v) {
  return QuantileOf(v, 0.1);
}

// ---- Host interference --------------------------------------------------------
//
// The benchmark runs on a virtual machine whose host is shared. While the
// host runs other guests' work on this machine's CPUs ("steal" in /proc/stat),
// the program under test slows far more than the stolen share: its LWPs spin
// on a lock whose holder's CPU has been taken away. Steal comes and goes within
// a run, so each timed segment is cut into windows, the host's steal is read
// at every window boundary, and the load metrics come from the quietest
// windows: the quarter with the least steal, and every window that ties with
// them. Without steal (or without /proc/stat) every window counts.

// A reading at one instant: the machine's steal and total CPU ticks, and this
// process's CPU time.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
  int64_t process_cpu_ns = 0;

  static HostTicks Read() {
    HostTicks t;
    unsigned long long v[8] = {};
    FILE* f = fopen("/proc/stat", "r");
    if (f != nullptr) {
      if (fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                 &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
        t.steal = v[7];
        for (unsigned long long x : v) {
          t.total += x;
        }
      }
      fclose(f);
    }
    struct timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    t.process_cpu_ns =
        static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
    return t;
  }

  // Share of the CPU ticks between `a` and `b` that the host stole.
  static double StealShare(const HostTicks& a, const HostTicks& b) {
    return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                   static_cast<double>(b.total - a.total)
                             : 0.0;
  }
};

// The windows of the quietest quarter by steal share, and every other window
// whose share is no higher than the noisiest of that quarter.
inline std::vector<size_t> QuietWindows(const std::vector<double>& steal) {
  if (steal.empty()) {
    return {};
  }
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  double cutoff = sorted[(sorted.size() - 1) / 4];
  std::vector<size_t> quiet;
  for (size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= cutoff) {
      quiet.push_back(i);
    }
  }
  return quiet;
}

// Reads HostTicks at each window boundary of a timed segment, on a thread of
// its own that sleeps in between.
class HostSampler {
 public:
  HostSampler(int64_t start_ns, int64_t window_ns, size_t windows)
      : ticks_(windows + 1), thread_([this, start_ns, window_ns] {
          for (size_t i = 0; i < ticks_.size(); ++i) {
            int64_t at = start_ns + static_cast<int64_t>(i) * window_ns;
            struct timespec ts = {static_cast<time_t>(at / 1000000000),
                                  static_cast<long>(at % 1000000000)};
            while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts,
                                   nullptr) != 0) {
            }
            ticks_[i] = HostTicks::Read();
          }
        }) {}

  ~HostSampler() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  // Waits for the last boundary and returns the readings.
  const std::vector<HostTicks>& Finish() {
    thread_.join();
    return ticks_;
  }

 private:
  std::vector<HostTicks> ticks_;
  std::thread thread_;
};

// Request latencies of timed segments, kept per 0.25 s window together with
// the host's steal and the process's CPU time in each window.
class WindowedLatency {
 public:
  static constexpr int64_t kWindowNs = 250 * 1000 * 1000;
  static constexpr uint64_t kMinSamples = 100;  // for a window's quantiles

  // No windows yet; Append() adds those of timed segments.
  WindowedLatency() = default;
  // The whole windows of a segment of `seconds` from `start_ns`.
  WindowedLatency(int64_t start_ns, double seconds)
      : start_ns_(start_ns),
        windows_(static_cast<size_t>(std::max<int64_t>(
            1, static_cast<int64_t>(seconds * 1e9 + 1e6) / kWindowNs))),
        steal_(windows_.size(), 0.0),
        cpu_ns_(windows_.size(), 0) {}

  // Completions after the last whole window are not counted.
  void Add(int64_t end_ns, int64_t latency_ns) {
    int64_t i = (end_ns - start_ns_) / kWindowNs;
    if (i >= 0 && static_cast<size_t>(i) < windows_.size()) {
      windows_[static_cast<size_t>(i)].Add(latency_ns);
    }
  }

  // Sums another thread's latencies of the same segment into this one.
  void Merge(const WindowedLatency& other) {
    for (size_t i = 0; i < windows_.size() && i < other.windows_.size(); ++i) {
      windows_[i].Merge(other.windows_[i]);
    }
  }

  // Takes each window's steal share and process CPU time from a HostSampler
  // of the same segment (windows() + 1 readings).
  void SetHost(const std::vector<HostTicks>& ticks) {
    for (size_t i = 0; i < windows_.size() && i + 1 < ticks.size(); ++i) {
      steal_[i] = HostTicks::StealShare(ticks[i], ticks[i + 1]);
      cpu_ns_[i] = ticks[i + 1].process_cpu_ns - ticks[i].process_cpu_ns;
    }
  }

  // Adds the windows of a later segment.
  void Append(const WindowedLatency& other) {
    windows_.insert(windows_.end(), other.windows_.begin(),
                    other.windows_.end());
    steal_.insert(steal_.end(), other.steal_.begin(), other.steal_.end());
    cpu_ns_.insert(cpu_ns_.end(), other.cpu_ns_.begin(), other.cpu_ns_.end());
  }

  // Median completions per second over the quiet windows.
  double QuietRate() const {
    std::vector<double> rates;
    for (size_t i : QuietWindows(steal_)) {
      rates.push_back(static_cast<double>(windows_[i].count()) * 1e9 /
                      kWindowNs);
    }
    return Median(rates);
  }

  // Median over the quiet windows (of those with enough samples) of each
  // window's latency quantile q.
  double QuietQuantile(double q) const {
    std::vector<double> values;
    for (size_t i : QuietWindows(steal_)) {
      if (windows_[i].count() >= kMinSamples) {
        values.push_back(windows_[i].Quantile(q));
      }
    }
    return Median(values);
  }

  // The process's CPU time per completion over the quiet windows.
  double QuietCpuNsPerOp() const {
    int64_t cpu = 0;
    uint64_t ops = 0;
    for (size_t i : QuietWindows(steal_)) {
      cpu += cpu_ns_[i];
      ops += windows_[i].count();
    }
    return ops == 0 ? 0.0 : static_cast<double>(cpu) / static_cast<double>(ops);
  }

  size_t windows() const { return windows_.size(); }

 private:
  int64_t start_ns_ = 0;
  std::vector<LatencyHistogram> windows_;
  std::vector<double> steal_;
  std::vector<int64_t> cpu_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
