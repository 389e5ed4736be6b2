// The paper's own evaluation, timed from outside the library: Figure 5
// (thread creation, unbound vs bound) and Figure 6 (synchronization through
// two semaphores, unbound vs bound vs cross-process), beside a population of
// parked unbound threads. Also the small replays of a traced run: a one-byte
// ping-pong over the netpoller and the create-to-first-instruction span.
//
// The figures run interleaved in short rounds, which the workloads in turn
// interleave with their own load, so a slow stretch of the machine lands on
// every figure a little rather than on one figure entirely. Each figure is
// the best decile of its timed blocks in the phases with the least host steal
// (see QuietWindows in common.h).

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <vector>

#include "bench.h"
#include "common.h"
#include "src/core/thread.h"
#include "src/ipc/fork1.h"
#include "src/ipc/shared_arena.h"
#include "src/net/net.h"

namespace perfbench {
namespace {

using sunmt::thread_id_t;

constexpr double kRoundSeconds = 0.5;

std::atomic<uint64_t> g_op_id{1};

int64_t DeadlineAfter(double seconds) {
  return NowNs() + static_cast<int64_t>(seconds * 1e9);
}

// ---- Figure 5 -------------------------------------------------------------------

void CountRun(void* arg) {
  static_cast<std::atomic<uint64_t>*>(arg)->fetch_add(1);
}

// Creates threads THREAD_STOP in batches, timing only the thread_create()
// calls (the paper excludes the first context switch); continue and wait run
// untimed between batches. Appends the mean microseconds per create of each
// batch to *per_batch.
void MeasureCreate(int flags, int batch, double seconds, Result* r,
                   const char* what, std::vector<double>* per_batch) {
  std::atomic<uint64_t> ran{0};
  std::vector<thread_id_t> ids(static_cast<size_t>(batch));
  std::vector<uint64_t> span_ids(static_cast<size_t>(batch));
  uint64_t created = 0;
  int64_t deadline = DeadlineAfter(seconds);
  do {
    int64_t total = 0;
    for (int i = 0; i < batch; ++i) {
      span_ids[i] = g_op_id.fetch_add(1);
      int64_t t0 = NowNs();
      ids[i] = sunmt::thread_create(
          nullptr, 0, &CountRun, &ran,
          flags | sunmt::THREAD_STOP | sunmt::THREAD_WAIT);
      int64_t t1 = NowNs();
      total += t1 - t0;
      RecordSpan("thread_create", span_ids[i], t0, t1);
      if (ids[i] == 0) {
        r->Check(false, "%s: thread_create failed", what);
        return;
      }
    }
    for (int i = 0; i < batch; ++i) {
      sunmt::thread_continue(ids[i]);
      int64_t t0 = NowNs();
      sunmt::thread_wait(ids[i]);
      RecordSpan("thread_wait", span_ids[i], t0, NowNs());
    }
    created += static_cast<uint64_t>(batch);
    per_batch->push_back(static_cast<double>(total) / 1e3 / batch);
  } while (NowNs() < deadline);
  r->Check(ran.load() == created, "%s: %llu threads created, %llu ran", what,
           static_cast<unsigned long long>(created),
           static_cast<unsigned long long>(ran.load()));
  r->AddOps(created, 0);
}

// ---- Figure 6, in-process ------------------------------------------------------

struct Handshake {
  sunmt::sema_t s1 = {};
  sunmt::sema_t s2 = {};
  std::atomic<bool> stop{false};
  int64_t deadline = 0;
  int block = 0;
  bool miss_one = false;  // self-test: the partner misses one round
  uint64_t rounds = 0;    // completed by the timing thread
  uint64_t seen = 0;      // counted by the partner
  std::vector<double>* per_sync_us = nullptr;
  int64_t v_ns = 0;  // traced: time inside sema_v / sema_p
  int64_t p_ns = 0;
  uint64_t traced_rounds = 0;
};

void HandshakePartner(void* arg) {
  auto* h = static_cast<Handshake*>(arg);
  for (;;) {
    sunmt::sema_p(&h->s1);
    if (h->stop.load(std::memory_order_acquire)) {
      return;
    }
    if (h->miss_one && h->seen == 100) {
      h->miss_one = false;
    } else {
      ++h->seen;
    }
    sunmt::sema_v(&h->s2);
  }
}

// The paper's timing thread: v(s1); p(s2) per round, halved because each
// round trip holds two synchronizations.
void HandshakeTimer(void* arg) {
  auto* h = static_cast<Handshake*>(arg);
  sunmt::sema_v(&h->s1);  // warm-up round, untimed
  sunmt::sema_p(&h->s2);
  h->rounds = 1;
  while (NowNs() < h->deadline) {
    int64_t start = NowNs();
    if (g_tracing.load(std::memory_order_relaxed)) {
      for (int i = 0; i < h->block; ++i) {
        uint64_t id = g_op_id.fetch_add(1, std::memory_order_relaxed);
        int64_t t0 = NowNs();
        sunmt::sema_v(&h->s1);
        int64_t t1 = NowNs();
        sunmt::sema_p(&h->s2);
        int64_t t2 = NowNs();
        h->v_ns += t1 - t0;
        h->p_ns += t2 - t1;
        RecordSpan("sema_v", id, t0, t1);
        RecordSpan("sema_p", id, t1, t2);
      }
      h->traced_rounds += static_cast<uint64_t>(h->block);
    } else {
      for (int i = 0; i < h->block; ++i) {
        sunmt::sema_v(&h->s1);
        sunmt::sema_p(&h->s2);
      }
    }
    h->per_sync_us->push_back(static_cast<double>(NowNs() - start) / 1e3 /
                              h->block / 2);
    h->rounds += static_cast<uint64_t>(h->block);
  }
  h->stop.store(true, std::memory_order_release);
  sunmt::sema_v(&h->s1);
}

// Both handshake threads carry `flags` (0: unbound, THREAD_BIND_LWP: bound);
// main stays out of the loop.
void MeasureSync(int flags, int block, double seconds, bool miss_one,
                 Result* r, Handshake* h, const char* what) {
  sunmt::sema_init(&h->s1, 0, 0, nullptr);
  sunmt::sema_init(&h->s2, 0, 0, nullptr);
  h->stop.store(false);
  h->deadline = DeadlineAfter(seconds);
  h->block = block;
  h->miss_one = miss_one;
  h->rounds = 0;
  h->seen = 0;
  thread_id_t partner = sunmt::thread_create(
      nullptr, 0, &HandshakePartner, h, flags | sunmt::THREAD_WAIT);
  thread_id_t timer = sunmt::thread_create(nullptr, 0, &HandshakeTimer, h,
                                           flags | sunmt::THREAD_WAIT);
  if (partner == 0 || timer == 0) {
    r->Check(false, "%s: thread_create failed", what);
    return;
  }
  sunmt::thread_wait(timer);
  sunmt::thread_wait(partner);
  r->Check(h->seen == h->rounds, "%s: %llu rounds, partner saw %llu", what,
           static_cast<unsigned long long>(h->rounds),
           static_cast<unsigned long long>(h->seen));
  r->AddOps(h->rounds, 0);
}

// ---- Figure 6, cross-process -----------------------------------------------------

struct SharedHandshake {
  sunmt::sema_t s1;
  sunmt::sema_t s2;
  uint64_t seen;
  uint32_t stop;
};

// The partner is a fork1() child; the semaphores live in an anonymous shared
// mapping.
void MeasureCrossProcess(int block, double seconds, bool child_fails,
                         Result* r, std::vector<double>* per_sync) {
  sunmt::SharedArena arena = sunmt::SharedArena::CreateAnonymous(64 * 1024);
  auto* sh = arena.New<SharedHandshake>();
  sunmt::sema_init(&sh->s1, 0, sunmt::THREAD_SYNC_SHARED, nullptr);
  sunmt::sema_init(&sh->s2, 0, sunmt::THREAD_SYNC_SHARED, nullptr);
  fflush(stdout);
  fflush(stderr);
  pid_t pid = sunmt::fork1();
  if (pid < 0) {
    r->Check(false, "sync_xproc: fork1 failed");
    return;
  }
  if (pid == 0) {
    for (;;) {
      sunmt::sema_p(&sh->s1);
      if (__atomic_load_n(&sh->stop, __ATOMIC_ACQUIRE) != 0) {
        break;
      }
      ++sh->seen;
      sunmt::sema_v(&sh->s2);
    }
    _exit(child_fails ? 3 : 0);
  }
  sunmt::sema_v(&sh->s1);  // warm-up round, untimed
  sunmt::sema_p(&sh->s2);
  uint64_t rounds = 1;
  int64_t deadline = DeadlineAfter(seconds);
  while (NowNs() < deadline) {
    int64_t start = NowNs();
    for (int i = 0; i < block; ++i) {
      sunmt::sema_v(&sh->s1);
      sunmt::sema_p(&sh->s2);
    }
    per_sync->push_back(static_cast<double>(NowNs() - start) / 1e3 / block /
                        2);
    rounds += static_cast<uint64_t>(block);
  }
  __atomic_store_n(&sh->stop, 1, __ATOMIC_RELEASE);
  sunmt::sema_v(&sh->s1);
  int status = 0;
  pid_t waited = waitpid(pid, &status, 0);
  r->Check(waited == pid && WIFEXITED(status) && WEXITSTATUS(status) == 0,
           "sync_xproc: child exit status 0x%x", status);
  r->Check(sh->seen == rounds, "sync_xproc: %llu rounds, child saw %llu",
           static_cast<unsigned long long>(rounds),
           static_cast<unsigned long long>(sh->seen));
  r->AddOps(rounds, 0);
}

// ---- Yield switch (src/arch) -------------------------------------------------------

struct YieldPair {
  int64_t deadline;
  std::atomic<uint64_t> yields{0};
};

void YieldLoop(void* arg) {
  auto* y = static_cast<YieldPair*>(arg);
  uint64_t n = 0;
  while (NowNs() < y->deadline) {
    for (int i = 0; i < 1000; ++i) {
      sunmt::thread_yield();
    }
    n += 1000;
  }
  y->yields.fetch_add(n);
}

// Two unbound threads yielding to each other on one LWP: ns per switch.
double YieldSwitchNs(double seconds, int nproc) {
  sunmt::thread_setconcurrency(1);
  YieldPair y;
  y.deadline = DeadlineAfter(seconds);
  int64_t start = NowNs();
  thread_id_t a = sunmt::thread_create(nullptr, 0, &YieldLoop, &y,
                                       sunmt::THREAD_WAIT);
  thread_id_t b = sunmt::thread_create(nullptr, 0, &YieldLoop, &y,
                                       sunmt::THREAD_WAIT);
  sunmt::thread_wait(a);
  sunmt::thread_wait(b);
  int64_t elapsed = NowNs() - start;
  // Back to the shipped configuration: one pool LWP per CPU, automatic mode.
  sunmt::thread_setconcurrency(nproc);
  sunmt::thread_setconcurrency(0);
  return y.yields.load() == 0
             ? 0
             : static_cast<double>(elapsed) /
                   static_cast<double>(y.yields.load());
}

// Runs `fn` with tracing on (when the run is traced), summing the layer
// counter deltas of the phase into *traced.
template <typename Fn>
void Phase(const Options& opt, LayerCounters* traced, Fn fn) {
  if (!opt.trace) {
    fn();
    return;
  }
  SetTracing(true);
  LayerCounters before = LayerCounters::Take();
  fn();
  LayerCounters after = LayerCounters::Take();
  SetTracing(false);
  traced->AddDelta(before, after);
}

}  // namespace

// ---- Parked population ---------------------------------------------------------------

void ParkedPopulation::Main(void* arg) {
  auto* m = static_cast<Member*>(arg);
  ParkedPopulation* p = m->population;
  p->parked_.fetch_add(1);
  sunmt::sema_p(&p->release_);
  m->ran.fetch_add(1);
  sunmt::sema_v(&p->exited_);
}

double ParkedPopulation::Create(int n) {
  n_ = n;
  members_.reset(new Member[static_cast<size_t>(n)]);
  sunmt::sema_init(&release_, 0, 0, nullptr);
  sunmt::sema_init(&exited_, 0, 0, nullptr);
  parked_.store(0);
  double before = RssKib();
  for (int i = 0; i < n; ++i) {
    members_[i].population = this;
    if (sunmt::thread_create(nullptr, 0, &Main, &members_[i], 0) == 0) {
      n_ = i;
      break;
    }
  }
  while (parked_.load() < n_) {
    usleep(100);
  }
  return (RssKib() - before) / n;
}

void ParkedPopulation::Release(Result* r) {
  for (int i = 0; i < n_; ++i) {
    sunmt::sema_v(&release_);
  }
  for (int i = 0; i < n_; ++i) {
    sunmt::sema_p(&exited_);
  }
  int bad = 0;
  for (int i = 0; i < n_; ++i) {
    bad += members_[i].ran.load() != 1;
  }
  r->Check(n_ > 0 && bad == 0, "population: %d of %d threads did not run once",
           bad, n_);
  r->AddOps(static_cast<uint64_t>(n_), 0);
  n_ = 0;
}

ParkedPopulation::~ParkedPopulation() {
  Result ignored;
  if (n_ > 0) {
    Release(&ignored);
  }
}

// ---- The figures -------------------------------------------------------------------

template <typename Fn>
void Figures::Timed(Blocks* b, Fn fn) {
  b->blocks.emplace_back();
  HostTicks start = HostTicks::Read();
  fn(&b->blocks.back());
  b->steal.push_back(HostTicks::StealShare(start, HostTicks::Read()));
}

double Figures::Best(const Blocks& b) {
  std::vector<double> quiet;
  for (size_t i : QuietWindows(b.steal)) {
    quiet.insert(quiet.end(), b.blocks[i].begin(), b.blocks[i].end());
  }
  return BestDecileTime(quiet);
}

void Figures::Run(double seconds, Result* r, LayerCounters* traced) {
  bool child_fails = opt_.inject == "child_exit";
  int rounds = std::max(1, static_cast<int>(seconds / kRoundSeconds + 0.5));
  double round_s = seconds / rounds;
  for (int i = 0; i < rounds; ++i, ++rounds_) {
    bool first = rounds_ == 0;
    Phase(opt_, traced, [&] {
      Timed(&sync_unbound_, [&](std::vector<double>* blocks) {
        Handshake unbound;
        unbound.per_sync_us = blocks;
        MeasureSync(0, 1000, 0.15 * round_s,
                    first && opt_.inject == "handshake", r, &unbound,
                    "sync_unbound");
        v_ns_ += unbound.v_ns;
        p_ns_ += unbound.p_ns;
        traced_handshakes_ += unbound.traced_rounds;
      });
      Timed(&create_unbound_, [&](std::vector<double>* blocks) {
        MeasureCreate(0, 64, 0.15 * round_s, r, "create_unbound", blocks);
      });
      Timed(&create_bound_, [&](std::vector<double>* blocks) {
        MeasureCreate(sunmt::THREAD_BIND_LWP, 16, 0.2 * round_s, r,
                      "create_bound", blocks);
      });
      Timed(&sync_bound_, [&](std::vector<double>* blocks) {
        Handshake bound;
        bound.per_sync_us = blocks;
        MeasureSync(sunmt::THREAD_BIND_LWP, 100, 0.2 * round_s, false, r,
                    &bound, "sync_bound");
      });
    });
    Phase(opt_, &xproc_, [&] {
      Timed(&sync_xproc_, [&](std::vector<double>* blocks) {
        MeasureCrossProcess(100, 0.3 * round_s, first && child_fails, r,
                            blocks);
      });
    });
  }
  seconds_ += seconds;
}

void Figures::Finish(Result* r, LayerCounters* traced) {
  r->Set("sync_unbound_us", Best(sync_unbound_), "us");
  r->Set("create_unbound_us", Best(create_unbound_), "us");
  r->Set("create_bound_us", Best(create_bound_), "us");
  r->Set("sync_bound_us", Best(sync_bound_), "us");
  r->Set("sync_xproc_us", Best(sync_xproc_), "us");

  double handshakes = traced_handshakes_ > 0 ? traced_handshakes_ : 1;
  r->Set("sync.sema_v_ns", static_cast<double>(v_ns_) / handshakes, "ns");
  r->Set("sync.sema_p_ns", static_cast<double>(p_ns_) / handshakes, "ns");
  r->Set("sync.sema_wait_shared_mean_us",
         xproc_.H(sunmt::LatencyStat::kSemaWaitShared).Mean() / 1e3, "us");
  traced->Add(xproc_);
  if (opt_.trace) {
    r->Set("arch.yield_switch_ns", YieldSwitchNs(0.05 * seconds_, opt_.nproc),
           "ns");
  }

  r->Check(r->Get("create_unbound_us") < r->Get("create_bound_us"),
           "create_unbound_us %.3f not below create_bound_us %.3f",
           r->Get("create_unbound_us"), r->Get("create_bound_us"));
  r->Check(r->Get("sync_unbound_us") < r->Get("sync_bound_us"),
           "sync_unbound_us %.3f not below sync_bound_us %.3f",
           r->Get("sync_unbound_us"), r->Get("sync_bound_us"));
}

// ---- Replays ----------------------------------------------------------------------------

namespace {

struct PingPong {
  int fd[2];
  int64_t deadline;
  uint64_t rounds = 0;
  bool ok = true;
};

void PingSide(void* arg) {
  auto* p = static_cast<PingPong*>(arg);
  char c = 'p';
  while (NowNs() < p->deadline) {
    for (int i = 0; i < 100; ++i) {
      if (sunmt::net_write(p->fd[0], &c, 1) != 1 ||
          sunmt::net_read(p->fd[0], &c, 1) != 1) {
        p->ok = false;
        return;
      }
    }
    p->rounds += 100;
  }
  c = 'q';
  sunmt::net_write(p->fd[0], &c, 1);
}

void PongSide(void* arg) {
  auto* p = static_cast<PingPong*>(arg);
  char c = 0;
  while (sunmt::net_read(p->fd[1], &c, 1) == 1 && c != 'q') {
    if (sunmt::net_write(p->fd[1], &c, 1) != 1) {
      return;
    }
  }
}

struct FirstRun {
  int64_t created_ns = 0;
  int64_t first_ns = 0;
};

void FirstRunMain(void* arg) { static_cast<FirstRun*>(arg)->first_ns = NowNs(); }

}  // namespace

double PingPongNs(double seconds) {
  PingPong p;
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, p.fd) != 0) {
    return 0;
  }
  sunmt::net_register(p.fd[0]);
  sunmt::net_register(p.fd[1]);
  p.deadline = DeadlineAfter(seconds);
  int64_t start = NowNs();
  thread_id_t pong = sunmt::thread_create(nullptr, 0, &PongSide, &p,
                                          sunmt::THREAD_WAIT);
  thread_id_t ping = sunmt::thread_create(nullptr, 0, &PingSide, &p,
                                          sunmt::THREAD_WAIT);
  sunmt::thread_wait(ping);
  sunmt::thread_wait(pong);
  int64_t elapsed = NowNs() - start;
  for (int fd : p.fd) {
    sunmt::net_unregister(fd);
    close(fd);
  }
  return p.ok && p.rounds > 0
             ? static_cast<double>(elapsed) / static_cast<double>(p.rounds)
             : 0;
}

double FirstRunUs(int threads) {
  constexpr int kBatch = 64;
  std::vector<FirstRun> runs(kBatch);
  std::vector<thread_id_t> ids(kBatch);
  int64_t total = 0;
  int done = 0;
  while (done < threads) {
    for (int i = 0; i < kBatch; ++i) {
      runs[i].created_ns = NowNs();
      ids[i] = sunmt::thread_create(nullptr, 0, &FirstRunMain, &runs[i],
                                    sunmt::THREAD_WAIT);
    }
    for (int i = 0; i < kBatch; ++i) {
      sunmt::thread_wait(ids[i]);
      total += runs[i].first_ns - runs[i].created_ns;
    }
    done += kBatch;
  }
  return static_cast<double>(total) / 1e3 / done;
}

}  // namespace perfbench
