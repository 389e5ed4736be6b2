// Load generator for the HTTP workloads: one process of plain kernel threads
// with blocking sockets. It never links the sunmt library, so none of its cost
// is charged to the runtime under test.
//
// Closed loop: each of --threads threads has exactly one request in flight and
// sends the next only after the previous reply has been read and checked.
//   keepalive: each thread owns one keep-alive connection;
//   churn:     each request opens a fresh connection with Connection: close,
//              and the client closes only after the server's FIN, so the
//              server side holds TIME_WAIT and client ports stay free.
//
// Control protocol with the server process (line-based):
//   stdout "ready"            connections made and warm-up finished
//   stdin  "go S"             run a timed segment of S seconds
//   stdout "done"             every thread has finished its last request
//   stdin  "report"           print the result and exit
//   stdout "result k=v ..."   counts and latency quantiles of all segments
//   stdin  "quit" (or EOF)    exit now

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <strings.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

struct Options {
  int port = 0;
  bool churn = false;
  uint64_t seed = 1;
  int threads = 1;
  bool trace = false;
  std::string spans;
  bool inject_short = false;
};

// Per-thread results.
struct Tally {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t bad_status = 0;
  uint64_t bad_body = 0;
  uint64_t resets = 0;
  uint64_t timeouts = 0;
  struct Span {
    uint64_t id;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::vector<Span> spans;
  uint64_t failed() const { return bad_status + bad_body + resets + timeouts; }
};

constexpr size_t kMaxSpansPerThread = 16384;
constexpr int kIoTimeoutSec = 5;

enum class Outcome { kOk, kBadStatus, kBadBody, kReset, kTimeout };

int Connect(int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  struct timeval tv = {kIoTimeoutSec, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

Outcome IoError() {
  return errno == EAGAIN || errno == EWOULDBLOCK ? Outcome::kTimeout
                                                 : Outcome::kReset;
}

// Sends `req` and reads one response; with `until_eof` also requires the
// server to close right after it. The response is parsed here, apart from the
// program's own parser.
Outcome RoundTrip(int fd, const std::string& req, const std::string& expect,
                  bool until_eof, std::string* buf) {
  size_t off = 0;
  while (off < req.size()) {
    ssize_t n = send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      return IoError();
    }
    off += static_cast<size_t>(n);
  }
  buf->clear();
  size_t head_end = std::string::npos;
  size_t need = 0;
  char chunk[16384];
  for (;;) {
    if (head_end == std::string::npos) {
      head_end = buf->find("\r\n\r\n");
      if (head_end != std::string::npos) {
        // Status line: "HTTP/1.1 200 OK".
        if (buf->compare(0, 9, "HTTP/1.1 ") != 0) {
          return Outcome::kBadStatus;
        }
        if (buf->compare(9, 4, "200 ") != 0) {
          return Outcome::kBadStatus;
        }
        size_t pos = 0;
        long length = -1;
        while ((pos = buf->find("\r\n", pos)) != std::string::npos &&
               pos < head_end) {
          pos += 2;
          if (strncasecmp(buf->c_str() + pos, "content-length:", 15) == 0) {
            length = strtol(buf->c_str() + pos + 15, nullptr, 10);
          }
        }
        if (length < 0) {
          return Outcome::kBadBody;
        }
        need = head_end + 4 + static_cast<size_t>(length);
      }
    }
    if (head_end != std::string::npos && buf->size() >= need && !until_eof) {
      break;
    }
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      return IoError();
    }
    if (n == 0) {
      if (until_eof && head_end != std::string::npos && buf->size() >= need) {
        break;
      }
      return Outcome::kReset;
    }
    buf->append(chunk, static_cast<size_t>(n));
  }
  if (buf->size() != need ||
      buf->compare(head_end + 4, std::string::npos, expect) != 0) {
    return Outcome::kBadBody;
  }
  return Outcome::kOk;
}

class Client {
 public:
  explicit Client(const Options& opt) : opt_(opt) {
    uint32_t keys = opt.churn ? kChurnKeys : kKeepAliveKeys;
    for (uint32_t k = 0; k < keys; ++k) {
      targets_.push_back(KeyTarget(opt.seed, k));
      bodies_.push_back(BodyFor(targets_.back()));
    }
    fds_.assign(static_cast<size_t>(opt.threads), -1);
    tallies_.resize(static_cast<size_t>(opt.threads));
    for (int t = 0; t < opt.threads; ++t) {
      keys_.push_back(KeyStream(opt.seed, t));
    }
  }

  ~Client() {
    for (int fd : fds_) {
      if (fd >= 0) {
        close(fd);
      }
    }
  }

  // Connects (keep-alive) and runs the fixed warm-up: every key once, then
  // a fixed number of requests per thread. Failures are counted, not fatal.
  void WarmUp() {
    const int per_thread = opt_.churn ? 300 : 2000;
    std::vector<Tally> warm(static_cast<size_t>(opt_.threads));
    RunThreads([&](int t) {
      Rng keys = KeyStream(opt_.seed ^ 0x77, t);
      for (size_t k = static_cast<size_t>(t); k < targets_.size();
           k += static_cast<size_t>(opt_.threads)) {
        Request(t, static_cast<uint32_t>(k), &warm[static_cast<size_t>(t)],
                nullptr);
      }
      for (int i = 0; i < per_thread; ++i) {
        Request(t, static_cast<uint32_t>(keys.Below(targets_.size())),
                &warm[static_cast<size_t>(t)], nullptr);
      }
    });
    for (const Tally& w : warm) {
      warm_attempted_ += w.attempted;
      warm_received_ += w.completed + w.bad_status + w.bad_body;
      warm_failed_ += w.failed();
    }
  }

  // One timed segment: every thread loops until the deadline, then finishes
  // the request it has in flight. Each thread's key stream carries on from
  // one segment to the next.
  void Run(double seconds) {
    int64_t start = NowNs();
    int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<WindowedLatency> windows(static_cast<size_t>(opt_.threads),
                                         WindowedLatency(start, seconds));
    HostSampler host(start, WindowedLatency::kWindowNs, windows[0].windows());
    RunThreads([&](int t) {
      Rng* keys = &keys_[static_cast<size_t>(t)];
      Tally* tally = &tallies_[static_cast<size_t>(t)];
      WindowedLatency* latency = &windows[static_cast<size_t>(t)];
      while (NowNs() < deadline) {
        Request(t, static_cast<uint32_t>(keys->Below(targets_.size())), tally,
                latency);
      }
    });
    elapsed_ns_ += NowNs() - start;
    for (size_t t = 1; t < windows.size(); ++t) {
      windows[0].Merge(windows[t]);
    }
    windows[0].SetHost(host.Finish());
    windows_.Append(windows[0]);
  }

  void Report() {
    Tally all;
    for (Tally& t : tallies_) {
      all.attempted += t.attempted;
      all.completed += t.completed;
      all.bad_status += t.bad_status;
      all.bad_body += t.bad_body;
      all.resets += t.resets;
      all.timeouts += t.timeouts;
    }
    // Every response read, whatever its verdict, in warm-up and window.
    uint64_t received =
        warm_received_ + all.completed + all.bad_status + all.bad_body;
    if (opt_.inject_short) {
      received -= 1;  // self-test: under-report one response
    }
    const WindowedLatency& lat = windows_;
    printf("result attempted=%llu completed=%llu bad_status=%llu bad_body=%llu "
           "resets=%llu timeouts=%llu warm_attempted=%llu received=%llu "
           "warm_failed=%llu elapsed_ns=%lld rate=%.3f p50_ns=%.1f "
           "p99_ns=%.1f windows=%zu\n",
           static_cast<unsigned long long>(all.attempted),
           static_cast<unsigned long long>(all.completed),
           static_cast<unsigned long long>(all.bad_status),
           static_cast<unsigned long long>(all.bad_body),
           static_cast<unsigned long long>(all.resets),
           static_cast<unsigned long long>(all.timeouts),
           static_cast<unsigned long long>(warm_attempted_),
           static_cast<unsigned long long>(received),
           static_cast<unsigned long long>(warm_failed_),
           static_cast<long long>(elapsed_ns_), lat.QuietRate(),
           lat.QuietQuantile(0.50), lat.QuietQuantile(0.99), lat.windows());
    fflush(stdout);
  }

  // Round-trip spans as "id start_ns end_ns" lines; the server folds them
  // into its span file.
  void WriteSpans() {
    if (!opt_.trace || opt_.spans.empty()) {
      return;
    }
    FILE* f = fopen(opt_.spans.c_str(), "w");
    if (f == nullptr) {
      return;
    }
    for (const Tally& t : tallies_) {
      for (const Tally::Span& s : t.spans) {
        fprintf(f, "%llx %lld %lld\n", static_cast<unsigned long long>(s.id),
                static_cast<long long>(s.start_ns),
                static_cast<long long>(s.end_ns));
      }
    }
    fclose(f);
  }

 private:
  template <typename Fn>
  void RunThreads(Fn fn) {
    std::vector<std::thread> threads;
    for (int t = 0; t < opt_.threads; ++t) {
      threads.emplace_back(fn, t);
    }
    for (std::thread& th : threads) {
      th.join();
    }
  }

  // One request; `latency` is null during warm-up.
  void Request(int t, uint32_t key, Tally* tally, WindowedLatency* latency) {
    uint64_t id = (static_cast<uint64_t>(t) << 40) | next_id_[t % 64]++;
    std::string req = RequestFor(targets_[key], opt_.churn, id);
    int& fd = fds_[static_cast<size_t>(t)];
    ++tally->attempted;
    int64_t start = NowNs();
    Outcome out;
    if (fd < 0) {
      fd = Connect(opt_.port);
    }
    if (fd < 0) {
      out = IoError();
    } else {
      out = RoundTrip(fd, req, bodies_[key], opt_.churn, &buf_[t % 64]);
    }
    int64_t end = NowNs();
    if (opt_.churn || out != Outcome::kOk) {
      if (fd >= 0) {
        close(fd);
      }
      fd = -1;
    }
    switch (out) {
      case Outcome::kOk:
        ++tally->completed;
        if (latency != nullptr) {
          latency->Add(end, end - start);
          if (opt_.trace && tally->spans.size() < kMaxSpansPerThread) {
            tally->spans.push_back({id, start, end});
          }
        }
        break;
      case Outcome::kBadStatus:
        ++tally->bad_status;
        break;
      case Outcome::kBadBody:
        ++tally->bad_body;
        break;
      case Outcome::kReset:
        ++tally->resets;
        break;
      case Outcome::kTimeout:
        ++tally->timeouts;
        break;
    }
  }

  Options opt_;
  std::vector<std::string> targets_;
  std::vector<std::string> bodies_;
  std::vector<int> fds_;
  std::vector<Tally> tallies_;
  std::vector<Rng> keys_;   // per thread, the timed segments' key stream
  WindowedLatency windows_;  // every timed segment's windows
  uint64_t next_id_[64] = {};
  std::string buf_[64];
  uint64_t warm_attempted_ = 0;
  uint64_t warm_received_ = 0;
  uint64_t warm_failed_ = 0;
  int64_t elapsed_ns_ = 0;
};

bool ReadCommand(std::string* cmd) {
  char line[64];
  if (fgets(line, sizeof(line), stdin) == nullptr) {
    return false;
  }
  *cmd = line;
  while (!cmd->empty() && (cmd->back() == '\n' || cmd->back() == '\r')) {
    cmd->pop_back();
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--port") {
      opt.port = atoi(v);
    } else if (k == "--mode") {
      opt.churn = std::string(v) == "churn";
    } else if (k == "--seed") {
      opt.seed = strtoull(v, nullptr, 10);
    } else if (k == "--threads") {
      opt.threads = atoi(v);
    } else if (k == "--trace") {
      opt.trace = atoi(v) != 0;
    } else if (k == "--spans") {
      opt.spans = v;
    } else if (k == "--inject") {
      opt.inject_short = std::string(v) == "short";
    } else {
      fprintf(stderr, "client: unknown option %s\n", k.c_str());
      return 2;
    }
  }
  if (opt.port <= 0 || opt.threads < 1 || opt.threads > 64) {
    fprintf(stderr, "client: need --port and 1..64 --threads\n");
    return 2;
  }
  perfbench::Client client(opt);
  client.WarmUp();
  printf("ready\n");
  fflush(stdout);
  std::string cmd;
  while (perfbench::ReadCommand(&cmd)) {
    if (cmd.compare(0, 3, "go ") == 0) {
      client.Run(atof(cmd.c_str() + 3));
      printf("done\n");
      fflush(stdout);
    } else if (cmd == "report") {
      client.Report();
      client.WriteSpans();
      return 0;
    } else {
      return 0;
    }
  }
  return 0;
}
