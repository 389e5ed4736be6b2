// The HTTP workloads: the library's HttpServer, as it ships, serving a
// closed-loop load from the separate client process (client.cc).
//
//   http_keepalive: one keep-alive connection per client thread, a small key
//     set that always hits the response cache, access log on.
//   http_churn: a fresh connection per request and a key space about twice
//     the cache budget, so a steady share of requests miss, run the handler,
//     insert and evict; one server thread is created per request.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>

#include "bench.h"
#include "common.h"
#include "src/http/server.h"
#include "src/lwp/lwp.h"
#include "src/net/net.h"

extern char** environ;

namespace perfbench {
namespace {

// The timed window is kSegments load segments, each followed by a round of
// the figures; the load takes kLoadShare of the window.
constexpr int kSegments = 8;
constexpr double kLoadShare = 0.75;

// Parsed "result k=v ..." line of the client.
struct ClientResult {
  std::map<std::string, double> v;
  bool Parse(const std::string& line) {
    std::istringstream in(line);
    std::string word;
    in >> word;
    if (word != "result") {
      return false;
    }
    while (in >> word) {
      size_t eq = word.find('=');
      if (eq != std::string::npos) {
        v[word.substr(0, eq)] = atof(word.c_str() + eq + 1);
      }
    }
    return v.count("completed") != 0 && v.count("p99_ns") != 0;
  }
  uint64_t U(const char* k) const {
    auto it = v.find(k);
    return it == v.end() ? 0 : static_cast<uint64_t>(it->second);
  }
  double D(const char* k) const {
    auto it = v.find(k);
    return it == v.end() ? 0 : it->second;
  }
};

class HttpWorkload : public Workload {
 public:
  HttpWorkload(const Options& opt, bool churn)
      : opt_(opt), churn_(churn), key0_(KeyTarget(opt.seed, 0)) {}

  ~HttpWorkload() override { Teardown(); }

  bool Setup(Result* r) override {
    if (sunmt::net_poller_start() != 0) {
      r->Check(false, "net_poller_start failed");
      return false;
    }
    devnull_ = open("/dev/null", O_WRONLY | O_CLOEXEC);
    cache_ = std::make_unique<sunmt::HttpCache>(kCacheShards, kCacheBudgetBytes);
    log_ = std::make_unique<sunmt::HttpAccessLog>(devnull_, 1024,
                                                  /*blocking=*/true);
    sunmt::HttpServerConfig config;
    config.cache = cache_.get();
    config.access_log = log_.get();
    config.handler = [this](const sunmt::HttpMessage& req,
                            sunmt::HttpExchange* ex) { Handle(req, ex); };
    server_ = std::make_unique<sunmt::HttpServer>(std::move(config));
    if (server_->Start() != 0) {
      r->Check(false, "HttpServer::Start failed");
      return false;
    }
    if (!SpawnClient()) {
      r->Check(false, "could not start the load generator");
      return false;
    }
    std::string line;
    if (!ReadLine(&line, 120000) || line != "ready") {
      r->Check(false, "load generator did not get ready");
      return false;
    }
    return true;
  }

  void Teardown() override {
    if (client_ > 0) {
      WriteLine("quit");
      ReapClient();
    }
    StopServer();
  }

  void Run(Result* r) override;

 private:
  void Handle(const sunmt::HttpMessage& req, sunmt::HttpExchange* ex) {
    int64_t start = NowNs();
    std::string body = BodyFor(req.target);
    int status = 200;
    if (req.target == key0_) {
      if (opt_.inject == "status") {
        status = 503;
      } else if (opt_.inject == "body") {
        body[body.size() / 2] ^= 1;
      }
    }
    ex->Respond(status, "text/plain", body);
    if (g_tracing.load(std::memory_order_relaxed)) {
      const std::string* id = req.FindHeader("X-Req");
      RecordSpan("handler", id == nullptr ? 0 : strtoull(id->c_str(), nullptr, 16),
                 start, NowNs());
    }
  }

  bool SpawnClient() {
    int in_pipe[2];
    int out_pipe[2];
    if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) {
      return false;
    }
    std::vector<std::string> args = {
        opt_.client_path,
        "--port", std::to_string(server_->port()),
        "--mode", churn_ ? "churn" : "keepalive",
        "--seed", std::to_string(opt_.seed),
        "--threads", std::to_string(opt_.nproc),
        "--trace", opt_.trace ? "1" : "0",
        "--spans", opt_.out_dir + "/client_spans.txt",
        "--inject", opt_.inject.empty() ? "none" : opt_.inject};
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
    int rc = posix_spawn(&client_, opt_.client_path.c_str(), &actions, nullptr,
                         argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(in_pipe[0]);
    close(out_pipe[1]);
    to_client_ = in_pipe[1];
    from_client_ = out_pipe[0];
    if (rc != 0) {
      client_ = -1;
      return false;
    }
    return true;
  }

  // Reads one line from the client within `timeout_ms`; false on timeout
  // or EOF.
  bool ReadLine(std::string* line, int timeout_ms) {
    int64_t deadline = NowNs() + static_cast<int64_t>(timeout_ms) * 1000000;
    for (;;) {
      size_t nl = pending_.find('\n');
      if (nl != std::string::npos) {
        *line = pending_.substr(0, nl);
        pending_.erase(0, nl + 1);
        return true;
      }
      int64_t left_ms = (deadline - NowNs()) / 1000000;
      if (left_ms <= 0) {
        return false;
      }
      struct pollfd pfd = {from_client_, POLLIN, 0};
      if (poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) {
        continue;
      }
      char buf[4096];
      ssize_t n = read(from_client_, buf, sizeof(buf));
      if (n <= 0) {
        return false;
      }
      pending_.append(buf, static_cast<size_t>(n));
    }
  }

  // One load segment: the client runs its closed loop for `seconds` and
  // answers "done". Tracks the most LWPs seen meanwhile in *lwps_max.
  // Also records the server's share of each 0.25 s window in intervals_.
  bool RunSegment(double seconds, size_t* lwps_max) {
    char go[64];
    snprintf(go, sizeof(go), "go %.6f", seconds);
    WriteLine(go);
    int64_t start = NowNs();
    int64_t deadline =
        start + static_cast<int64_t>(seconds * 1e9) + 60ll * 1000000000;
    int64_t next = start + WindowedLatency::kWindowNs;
    HostTicks last = HostTicks::Read();
    uint64_t last_responses = server_->SnapshotStats().responses;
    std::string line;
    while (NowNs() < deadline) {
      *lwps_max = std::max(*lwps_max, sunmt::LwpRegistry::Count());
      if (NowNs() >= next) {
        HostTicks now = HostTicks::Read();
        uint64_t responses = server_->SnapshotStats().responses;
        intervals_.push_back({HostTicks::StealShare(last, now),
                              now.process_cpu_ns - last.process_cpu_ns,
                              responses - last_responses});
        last = now;
        last_responses = responses;
        next += WindowedLatency::kWindowNs;
      }
      if (ReadLine(&line, 20) && line == "done") {
        return true;
      }
    }
    return false;
  }

  // The server's CPU time per response over the quiet windows (see
  // QuietWindows) of every load segment.
  double QuietCpuNsPerResponse() const {
    std::vector<double> steal;
    for (const Interval& i : intervals_) {
      steal.push_back(i.steal);
    }
    int64_t cpu = 0;
    uint64_t responses = 0;
    for (size_t i : QuietWindows(steal)) {
      cpu += intervals_[i].cpu_ns;
      responses += intervals_[i].responses;
    }
    return responses == 0
               ? 0.0
               : static_cast<double>(cpu) / static_cast<double>(responses);
  }

  void WriteLine(const char* s) {
    std::string line = std::string(s) + "\n";
    if (write(to_client_, line.data(), line.size()) < 0) {
      // The client is gone; ReapClient() reports its status.
    }
  }

  // Waits for the client to exit; returns its wait status.
  int ReapClient() {
    int status = 0;
    int64_t deadline = NowNs() + 30ll * 1000000000;
    while (waitpid(client_, &status, WNOHANG) == 0) {
      if (NowNs() > deadline) {
        kill(client_, SIGKILL);
        waitpid(client_, &status, 0);
        break;
      }
      usleep(1000);
    }
    client_ = -1;
    close(to_client_);
    close(from_client_);
    to_client_ = from_client_ = -1;
    pending_.clear();
    return status;
  }

  void StopServer() {
    if (server_ != nullptr) {
      server_->Stop();
    }
    if (log_ != nullptr) {
      log_->Stop();
    }
    server_.reset();
    log_.reset();
    cache_.reset();
    if (devnull_ >= 0) {
      close(devnull_);
      devnull_ = -1;
    }
  }

  // Replays for the traced run, over the window's own request stream.
  std::vector<std::string> WindowTargets(int per_thread) const {
    uint32_t space = churn_ ? kChurnKeys : kKeepAliveKeys;
    std::vector<std::string> targets;
    for (uint32_t k = 0; k < space; ++k) {
      targets.push_back(KeyTarget(opt_.seed, k));
    }
    std::vector<std::string> stream;
    for (int t = 0; t < opt_.nproc; ++t) {
      Rng keys = KeyStream(opt_.seed, t);
      for (int i = 0; i < per_thread; ++i) {
        stream.push_back(targets[keys.Below(space)]);
      }
    }
    return stream;
  }

  double ParseNs(const std::vector<std::string>& targets) const {
    std::vector<std::string> requests;
    for (size_t i = 0; i < targets.size(); ++i) {
      requests.push_back(RequestFor(targets[i], churn_, i));
    }
    std::vector<double> passes;
    sunmt::HttpParser parser(sunmt::HttpParser::kRequest);
    sunmt::HttpMessage msg;
    for (int pass = 0; pass < 5; ++pass) {
      int64_t start = NowNs();
      for (const std::string& req : requests) {
        parser.Feed(req.data(), req.size());
        if (parser.Next(&msg) != sunmt::HttpParser::kMessage) {
          return 0;
        }
      }
      passes.push_back(static_cast<double>(NowNs() - start) /
                       static_cast<double>(requests.size()));
    }
    return Median(passes);
  }

  double LookupNs(const std::vector<std::string>& targets) const {
    sunmt::HttpCache cache(kCacheShards, kCacheBudgetBytes);
    for (const std::string& t : targets) {
      if (cache.Lookup(t) == nullptr) {
        sunmt::HttpCache::Entry e;
        e.content_type = "text/plain";
        e.body = BodyFor(t);
        cache.Insert(t, std::move(e));
      }
    }
    std::vector<double> passes;
    size_t hits = 0;
    for (int pass = 0; pass < 5; ++pass) {
      int64_t start = NowNs();
      for (const std::string& t : targets) {
        hits += cache.Lookup(t) != nullptr;
      }
      passes.push_back(static_cast<double>(NowNs() - start) /
                       static_cast<double>(targets.size()));
    }
    return hits == 0 ? 0 : Median(passes);
  }

  Options opt_;
  bool churn_;
  std::string key0_;
  int devnull_ = -1;
  std::unique_ptr<sunmt::HttpCache> cache_;
  std::unique_ptr<sunmt::HttpAccessLog> log_;
  std::unique_ptr<sunmt::HttpServer> server_;
  struct Interval {
    double steal;
    int64_t cpu_ns;
    uint64_t responses;
  };
  std::vector<Interval> intervals_;
  pid_t client_ = -1;
  int to_client_ = -1;
  int from_client_ = -1;
  std::string pending_;
};

void HttpWorkload::Run(Result* r) {
  const char* what = churn_ ? "http_churn" : "http_keepalive";
  sunmt::HttpServerStats s0 = server_->SnapshotStats();
  sunmt::HttpCache::Stats c0 = cache_->SnapshotStats();
  const double load_s = kLoadShare * opt_.seconds / kSegments;
  const double figures_s = (1 - kLoadShare) * opt_.seconds / kSegments;

  // The timed window: load segments interleaved with rounds of the figures.
  // In a traced run every other load segment is traced, so the tracing
  // overhead is measured against the same load.
  Figures figures(opt_);
  LayerCounters figure_counters;
  LayerCounters traced;
  uint64_t segment_responses[2] = {0, 0};
  int64_t segment_ns[2] = {0, 0};
  uint64_t threads_created = 0;
  uint64_t accepted = 0;
  size_t lwps_end = 0;
  bool segments_done = true;
  for (int seg = 0; seg < kSegments && segments_done; ++seg) {
    bool traced_seg = opt_.trace && seg % 2 == 1;
    SetTracing(traced_seg);
    size_t lwps_start = sunmt::LwpRegistry::Count();
    sunmt::HttpServerStats before_stats = server_->SnapshotStats();
    LayerCounters before = LayerCounters::Take();
    int64_t start = NowNs();
    size_t lwps_max = lwps_start;
    segments_done = RunSegment(load_s, &lwps_max);
    int64_t ns = NowNs() - start;
    LayerCounters after = LayerCounters::Take();
    sunmt::HttpServerStats after_stats = server_->SnapshotStats();
    lwps_end = sunmt::LwpRegistry::Count();
    SetTracing(false);
    if (traced_seg) {
      traced.AddDelta(before, after);
    }
    segment_responses[traced_seg] +=
        after_stats.responses - before_stats.responses;
    segment_ns[traced_seg] += ns;
    threads_created += after.threads_created - before.threads_created;
    accepted += after_stats.accepted - before_stats.accepted;
    r->Check(lwps_max <= lwps_start, "%s: LWPs grew from %zu to %zu", what,
             lwps_start, lwps_max);
    figures.Run(figures_s, r, &figure_counters);
  }
  sunmt::HttpServerStats s1 = server_->SnapshotStats();
  sunmt::HttpCache::Stats c1 = cache_->SnapshotStats();
  r->Check(segments_done, "%s: the load generator did not finish a segment",
           what);

  std::string line;
  WriteLine("report");
  ClientResult cr;
  bool have_result = ReadLine(&line, 30000) && cr.Parse(line);
  int status = ReapClient();
  r->Check(have_result, "%s: no result from the load generator", what);
  r->Check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
           "%s: load generator exit status 0x%x", what, status);

  uint64_t failed = cr.U("bad_status") + cr.U("bad_body") + cr.U("resets") +
                    cr.U("timeouts") + cr.U("warm_failed");
  r->AddOps(cr.U("attempted") + cr.U("warm_attempted"), failed);
  if (failed != 0) {
    fprintf(stderr,
            "%s: failed requests: bad_status=%llu bad_body=%llu resets=%llu "
            "timeouts=%llu warm_failed=%llu\n",
            what, static_cast<unsigned long long>(cr.U("bad_status")),
            static_cast<unsigned long long>(cr.U("bad_body")),
            static_cast<unsigned long long>(cr.U("resets")),
            static_cast<unsigned long long>(cr.U("timeouts")),
            static_cast<unsigned long long>(cr.U("warm_failed")));
  }

  uint64_t window_responses = s1.responses - s0.responses;
  r->Set("req_per_s", cr.D("rate"), "req/s");
  r->Set("req_p50_us", cr.D("p50_ns") / 1e3, "us");
  r->Set("req_p99_us", cr.D("p99_ns") / 1e3, "us");
  r->Set("cpu_us_per_req", QuietCpuNsPerResponse() / 1e3, "us");
  r->Set("lwps", static_cast<double>(lwps_end), "count");

  // Per-layer metrics of the traced segments, and the replays.
  SetLayerMetrics(traced, static_cast<double>(segment_responses[1]), r);
  uint64_t lookups = (c1.hits - c0.hits) + (c1.misses - c0.misses);
  r->Set("http.cache_hit_ratio",
         lookups == 0 ? 0
                      : static_cast<double>(c1.hits - c0.hits) /
                            static_cast<double>(lookups),
         "ratio");
  r->Set("http.cache_evictions_per_kreq",
         window_responses == 0 ? 0
                               : static_cast<double>(c1.evictions -
                                                     c0.evictions) *
                                     1e3 /
                                     static_cast<double>(window_responses),
         "count");
  double untraced_rate =
      segment_ns[0] > 0 ? static_cast<double>(segment_responses[0]) /
                              static_cast<double>(segment_ns[0])
                        : 0;
  double traced_rate =
      segment_ns[1] > 0 ? static_cast<double>(segment_responses[1]) /
                              static_cast<double>(segment_ns[1])
                        : 0;
  r->Set("trace.overhead_pct",
         untraced_rate > 0 ? (1 - traced_rate / untraced_rate) * 100 : 0, "%");
  if (opt_.trace) {
    std::vector<std::string> targets = WindowTargets(5000);
    r->Set("http.parse_ns", ParseNs(targets), "ns");
    r->Set("http.cache_lookup_ns", LookupNs(targets), "ns");
    r->Set("net.pingpong_ns", PingPongNs(0.3), "ns");
    r->Set("core.first_run_us", FirstRunUs(2048), "us");
  }

  // Checks against properties the server must have. Stop() first, so every
  // connection thread has finished and the access log is drained.
  server_->Stop();
  log_->Stop();
  sunmt::HttpServerStats sf = server_->SnapshotStats();
  sunmt::HttpCache::Stats cf = cache_->SnapshotStats();
  uint64_t received = cr.U("received");
  r->Check(sf.requests == sf.responses && sf.responses == received,
           "%s: server requests %llu, responses %llu, client received %llu",
           what, static_cast<unsigned long long>(sf.requests),
           static_cast<unsigned long long>(sf.responses),
           static_cast<unsigned long long>(received));
  r->Check(sf.parse_errors == 0 && sf.request_timeouts == 0 &&
               sf.idle_timeouts == 0,
           "%s: parse errors %llu, request timeouts %llu, idle timeouts %llu",
           what, static_cast<unsigned long long>(sf.parse_errors),
           static_cast<unsigned long long>(sf.request_timeouts),
           static_cast<unsigned long long>(sf.idle_timeouts));
  r->Check(cf.hits + cf.misses == sf.requests && cf.inserts == cf.misses,
           "%s: cache hits %llu + misses %llu vs GETs %llu, inserts %llu", what,
           static_cast<unsigned long long>(cf.hits),
           static_cast<unsigned long long>(cf.misses),
           static_cast<unsigned long long>(sf.requests),
           static_cast<unsigned long long>(cf.inserts));
  r->Check(log_->lines_written() == sf.responses && log_->lines_dropped() == 0,
           "%s: access log wrote %llu lines, dropped %llu, for %llu responses",
           what, static_cast<unsigned long long>(log_->lines_written()),
           static_cast<unsigned long long>(log_->lines_dropped()),
           static_cast<unsigned long long>(sf.responses));
  r->Check(threads_created == accepted,
           "%s: %llu threads created for %llu accepted connections", what,
           static_cast<unsigned long long>(threads_created),
           static_cast<unsigned long long>(accepted));
  r->Check(server_->active_connections() == 0,
           "%s: %d connections still active after Stop", what,
           server_->active_connections());
  StopServer();
  figures.Finish(r, &figure_counters);
}

}  // namespace

Workload* NewHttpWorkload(const Options& opt, bool churn) {
  return new HttpWorkload(opt, churn);
}

}  // namespace perfbench
