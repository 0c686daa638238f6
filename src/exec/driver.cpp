// The framed-worker driver behind --backend=procs and --backend=net
// (executor.h). It opens one channel per worker slot, streams kTask
// frames to idle slots — demand-driven, so the pool load-balances uneven
// cells — feeds the frames it reads back to the shared TaskScheduler, and
// once the run is done drains every worker's kObs goodbye. Channels come
// from one of two connectors:
//
//   PipeConnector (procs)  forks workers (SpawnWorkerProcess), each with
//                          an equal slice of the DISCO_THREADS budget. A
//                          dead worker's slot stays dead, so capacity
//                          degrades until none remain; a spawn failure
//                          fails the run.
//   TcpConnector (net)     has a disco_workerd daemon per hosts entry
//                          spawn the worker. A lost connection charges the
//                          in-flight task one attempt and the slot
//                          reconnects with bounded exponential backoff: a
//                          SIGKILLed worker comes back as a fresh one, a
//                          restarted daemon is picked back up mid-run, and
//                          a lost daemon burns its slot's budget while the
//                          run finishes on the survivors.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "exec/exec_internal.h"
#include "exec/net_daemon.h"
#include "exec/task_scheduler.h"
#include "exec/wire.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace disco::exec {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::duration_cast;
using std::chrono::milliseconds;

using internal::Channel;

// What differs between the transports beyond opening a channel.
struct Transport {
  const char* span;               // the run's trace span
  const char* lost_mid_task;      // slot-death reason: EOF or read error
  const char* lost_mid_dispatch;  // slot-death reason: task write failed
  const char* all_lost;           // run error once no slot can serve
  // Reopens a lost slot with backoff; nullopt leaves it dead, and then a
  // failed first open fails the run.
  std::optional<internal::Backoff> reconnect;
};

class Connector {
 public:
  explicit Connector(const Transport& t) : transport(t) {}
  virtual ~Connector() = default;

  /// The number of slots for a run of `count` tasks; 0 with *error when
  /// the run cannot start.
  virtual std::size_t Plan(std::size_t count, std::string* error) = 0;

  /// Opens `slot`'s channel to a fresh worker running `argv`. On failure
  /// *why names the peer and the cause.
  virtual bool Open(std::size_t slot, const std::vector<std::string>& argv,
                    Channel* ch, std::string* why) = 0;

  /// Run errors for a frame from `slot` that does not parse, or whose type
  /// the driver never expects.
  virtual std::string MalformedFrame(std::size_t slot,
                                     const std::string& parse_error) const = 0;
  virtual std::string UnexpectedFrame(std::size_t slot, char type) const = 0;

  const Transport transport;
};

class PipeConnector : public Connector {
 public:
  explicit PipeConnector(const ExecOptions& opts)
      : Connector({"exec.run.procs", "worker process exited mid-task",
                   "worker process exited mid-task", "all workers exited",
                   std::nullopt}),
        num_workers_(opts.workers != 0 ? opts.workers
                                       : runtime::DefaultThreadCount()) {}

  std::size_t Plan(std::size_t count, std::string*) override {
    const std::size_t slots = std::min(num_workers_, count);
    // Split the machine between workers: each gets an equal slice of the
    // default thread budget (an explicit --threads in worker_argv
    // overrides the env in the worker's own flag parsing).
    threads_env_ = "DISCO_THREADS=" +
                   std::to_string(std::max<std::size_t>(
                       1, runtime::DefaultThreadCount() / slots));
    return slots;
  }

  bool Open(std::size_t, const std::vector<std::string>& argv, Channel* ch,
            std::string* why) override {
    if (!internal::SpawnWorkerProcess(argv, {threads_env_}, ch, why)) {
      *why = "cannot spawn worker: " + *why;
      return false;
    }
    return true;
  }

  std::string MalformedFrame(std::size_t,
                             const std::string& parse_error) const override {
    return "malformed worker frame: " + parse_error;
  }
  std::string UnexpectedFrame(std::size_t, char type) const override {
    return std::string("unexpected worker frame type '") + type + "'";
  }

 private:
  const std::size_t num_workers_;
  std::string threads_env_;
};

constexpr int kConnectTimeoutMs = 1000;  // per TCP connect attempt
constexpr int kHelloTimeoutMs = 5000;    // daemon accept -> hello frame

// A blocking socket connected to host:port, or -1. Linux bounds a
// blocking connect by SO_SNDTIMEO; the timeout is lifted once connected.
int Connect(const std::string& host, int port, std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  const int gai = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints,
                                &res);
  if (gai != 0) {
    *error = "resolve " + host + ": " + ::gai_strerror(gai);
    return -1;
  }
  const timeval connect_timeout{kConnectTimeoutMs / 1000, 0};
  const timeval no_timeout{0, 0};
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) continue;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &connect_timeout,
                 sizeof connect_timeout);
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &no_timeout,
                   sizeof no_timeout);
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) *error = "connect " + host + ":" + port_str + " failed";
  return fd;
}

class TcpConnector : public Connector {
 public:
  explicit TcpConnector(const ExecOptions& opts)
      : Connector({"exec.run.net", "daemon connection lost mid-task",
                   "daemon connection lost mid-dispatch",
                   "all daemons lost or unreachable",
                   internal::Backoff::FromEnv()}),
        hosts_(opts.hosts) {}

  std::size_t Plan(std::size_t, std::string* error) override {
    if (hosts_.empty()) {
      *error = "net backend needs at least one --hosts= daemon endpoint";
      return 0;
    }
    endpoints_.assign(hosts_.size(), Endpoint{});
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      Endpoint& e = endpoints_[i];
      if (!ParseHostPort(hosts_[i], &e.host, &e.port)) {
        *error = "bad --hosts entry \"" + hosts_[i] + "\" (want host:port)";
        return 0;
      }
      e.peer = e.host + ":" + std::to_string(e.port);
    }
    return endpoints_.size();
  }

  // Connect, check the daemon's kHello, send kSpawn: on success a worker
  // runs behind the socket.
  bool Open(std::size_t slot, const std::vector<std::string>& argv,
            Channel* ch, std::string* why) override {
    const Endpoint& e = endpoints_[slot];
    const int fd = Connect(e.host, e.port, why);
    const auto fail = [&](const std::string& cause) {
      *why = "daemon " + e.peer + ": " + cause;
      if (fd >= 0) ::close(fd);
      return false;
    };
    if (fd < 0) return fail(*why);

    // Hello: refuse a daemon speaking another protocol era before handing
    // it a command to exec. The receive timeout bounds each blocking read
    // here; the driver only reads after a poll, which never blocks.
    const timeval hello_timeout{kHelloTimeoutMs / 1000, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &hello_timeout,
                 sizeof hello_timeout);
    FrameBuffer frames;
    Frame hello;
    std::string parse_error;
    FrameBuffer::Status st;
    while ((st = frames.Next(&hello, &parse_error)) ==
           FrameBuffer::Status::kNeedMore) {
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return fail("daemon hello timed out");
      }
      if (n <= 0) return fail("daemon closed during handshake");
      frames.Append(chunk, static_cast<std::size_t>(n));
    }
    if (st == FrameBuffer::Status::kMalformed) {
      return fail("daemon handshake: " + parse_error);
    }
    if (hello.type != static_cast<char>(FrameType::kHello) ||
        hello.index != kWireProtocolVersion) {
      return fail("daemon protocol mismatch (got version " +
                  std::to_string(hello.index) + ", want " +
                  std::to_string(kWireProtocolVersion) + ")");
    }

    // Spawn the worker, environment left to the daemon's host (remote
    // machines size their own pools).
    const std::string spawn =
        EncodeFrame(static_cast<char>(FrameType::kSpawn), 0,
                    EncodeSpawnPayload(argv, {}));
    if (!internal::WriteAll(fd, spawn.data(), spawn.size())) {
      return fail("daemon connection lost sending spawn");
    }
    ch->read_fd = ch->write_fd = fd;
    static obs::Counter& reconnects = obs::Global().RegisterCounter(
        "disco_exec_net_reconnects_total",
        "Successful daemon (re)connections by the net backend", "exec net",
        "reconnects");
    reconnects.Inc();
    obs::Log(obs::LogLevel::kInfo, "[exec] connected to daemon %s",
             e.peer.c_str());
    return true;
  }

  std::string MalformedFrame(std::size_t slot,
                             const std::string& parse_error) const override {
    return "malformed frame from daemon " + endpoints_[slot].peer + ": " +
           parse_error;
  }
  std::string UnexpectedFrame(std::size_t slot, char type) const override {
    return std::string("unexpected frame type '") + type +
           "' from daemon " + endpoints_[slot].peer;
  }

 private:
  struct Endpoint {
    std::string host;
    int port = 0;
    std::string peer;  // "host:port", for messages
  };

  const std::vector<std::string> hosts_;
  std::vector<Endpoint> endpoints_;
};

// ------------------------------------------------------------------ driver

struct Slot {
  Channel ch;
  FrameBuffer frames;
  bool abandoned = false;      // never to be reopened
  int attempts_left = 1;       // consecutive open attempts left
  int backoff_ms = 0;          // delay after the next failed attempt
  Clock::time_point retry_at;  // next open attempt; the epoch = right away
};

RunResult Fail(std::vector<Slot>* slots, std::size_t task, bool task_known,
               std::string message) {
  for (Slot& s : *slots) s.ch.Drop();
  return {false, task, task_known, std::move(message)};
}

RunResult FailFromScheduler(std::vector<Slot>* slots,
                            const TaskScheduler& sched) {
  return Fail(slots, sched.failed_task(), sched.task_known(), sched.error());
}

// Waits up to `timeout_ms` on the open channels and lists the slots that
// became readable or hung up. False on a poll error other than EINTR.
bool PollSlots(const std::vector<Slot>& slots, int timeout_ms,
               std::vector<std::size_t>* ready) {
  std::vector<pollfd> fds;
  std::vector<std::size_t> polled;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].ch.open()) continue;
    fds.push_back({slots[i].ch.read_fd, POLLIN, 0});
    polled.push_back(i);
  }
  ready->clear();
  if (::poll(fds.data(), fds.size(), timeout_ms) < 0) return errno == EINTR;
  for (std::size_t k = 0; k < fds.size(); ++k) {
    if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      ready->push_back(polled[k]);
    }
  }
  return true;
}

enum class ReadStatus { kOpen, kClosed, kMalformed };

// One read from a ready slot. Fills *out with the frames it completed —
// also when the stream then desyncs (kMalformed, with *parse_error).
// kClosed on EOF or a read error.
ReadStatus ReadFrames(Slot* s, std::vector<Frame>* out,
                      std::string* parse_error) {
  out->clear();
  char chunk[65536];
  const ssize_t n = ::read(s->ch.read_fd, chunk, sizeof chunk);
  if (n < 0 && errno == EINTR) return ReadStatus::kOpen;
  if (n <= 0) return ReadStatus::kClosed;
  s->frames.Append(chunk, static_cast<std::size_t>(n));
  Frame f;
  FrameBuffer::Status st;
  while ((st = s->frames.Next(&f, parse_error)) ==
         FrameBuffer::Status::kFrame) {
    out->push_back(std::move(f));
  }
  return st == FrameBuffer::Status::kMalformed ? ReadStatus::kMalformed
                                               : ReadStatus::kOpen;
}

class FramedDriver : public Executor {
 public:
  FramedDriver(const ExecOptions& opts, std::unique_ptr<Connector> connector)
      : connector_(std::move(connector)),
        worker_argv_(opts.worker_argv),
        max_retries_(EffectiveMaxRetries(opts.max_retries)),
        straggler_ms_(EffectiveStragglerMs(opts.straggler_ms)) {}

  RunResult Run(std::size_t count, const TaskFn& fn,
                std::vector<std::string>* results) override;

 private:
  const std::unique_ptr<Connector> connector_;
  const std::vector<std::string> worker_argv_;  // "--worker=<job>" appended
  const int max_retries_;
  const int straggler_ms_;
};

RunResult FramedDriver::Run(std::size_t count, const TaskFn& fn,
                            std::vector<std::string>* results) {
  (void)fn;  // tasks are evaluated in worker processes, never here
  const std::size_t job = internal::ClaimJobNumber();
  if (count == 0) {
    results->clear();
    return RunResult{};
  }
  std::vector<std::string> argv = worker_argv_;
  argv.push_back(WorkerFlag(job));
  const Transport& transport = connector_->transport;
  DISCO_TRACE_SPAN(transport.span);

  // A dead worker's or daemon's write end must raise EPIPE, not a
  // process-killing SIGPIPE — but only while this Run is scheduling. The
  // previous disposition comes back on every return path, so driver code
  // keeps its normal die-on-closed-stdout behavior outside the scheduler.
  struct SigpipeGuard {
    void (*previous)(int);
    SigpipeGuard() : previous(std::signal(SIGPIPE, SIG_IGN)) {}
    ~SigpipeGuard() { std::signal(SIGPIPE, previous); }
  } sigpipe_guard;

  TaskScheduler sched(count, max_retries_, straggler_ms_, results);
  std::string plan_error;
  const std::size_t num_slots = connector_->Plan(count, &plan_error);
  if (num_slots == 0) return RunResult{false, 0, false, plan_error};
  std::vector<Slot> slots(num_slots);

  // A lost channel charges its slot's in-flight task, then the slot waits
  // out its reconnect delay, or retires when the connector never
  // reconnects. False when the charge exhausted the task's retries.
  const auto lose = [&](std::size_t i, const char* why) {
    Slot& s = slots[i];
    s.ch.Drop();
    if (!sched.OnSlotDeath(i, why)) return false;
    s.abandoned = !transport.reconnect;
    if (transport.reconnect) {
      s.attempts_left = transport.reconnect->attempts;
      s.backoff_ms = transport.reconnect->first_ms;
      s.retry_at = Clock::now() + milliseconds(s.backoff_ms);
    }
    return true;
  };
  // Scheduler slot ids are the indexes into `slots` (AddSlot counts up
  // from 0). A reconnecting slot starts out lost — scheduler-dead until
  // its first handshake succeeds (ReviveSlot) — but due at once.
  for (std::size_t i = 0; i < num_slots; ++i) {
    sched.AddSlot();
    if (transport.reconnect) {
      lose(i, "not yet connected");
      slots[i].retry_at = Clock::time_point{};
    }
  }

  std::vector<std::size_t> ready;
  std::vector<Frame> frames;
  while (!sched.done()) {
    const Clock::time_point now = Clock::now();

    // Open pass: every closed slot whose timer expired gets one attempt.
    // A failed attempt re-arms the timer with doubled (bounded) delay
    // until the slot's budget runs dry — or, for a connector that never
    // reconnects, fails the run.
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& s = slots[i];
      if (s.ch.open() || s.abandoned || now < s.retry_at) continue;
      s.frames = FrameBuffer{};  // fresh worker, fresh stream
      std::string why;
      if (connector_->Open(i, argv, &s.ch, &why)) {
        sched.ReviveSlot(i);
      } else if (!transport.reconnect) {
        return Fail(&slots, 0, false, why);
      } else if (--s.attempts_left <= 0) {
        s.abandoned = true;
        obs::Log(obs::LogLevel::kWarn, "[exec] giving up on %s",
                 why.c_str());
      } else {
        s.retry_at = now + milliseconds(s.backoff_ms);
        s.backoff_ms = transport.reconnect->Next(s.backoff_ms);
      }
    }

    // Dispatch pass: pending tasks first, then — past the straggler
    // deadline — a speculative duplicate of the slowest single-copy task
    // (TaskScheduler::NextTask).
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].ch.open() ||
          sched.task_of(i) != TaskScheduler::kNoTask) {
        continue;
      }
      const std::size_t task = sched.NextTask(i, now);
      if (task == TaskScheduler::kNoTask) continue;
      const std::string frame = EncodeFrame(
          static_cast<char>(FrameType::kTask), task, std::string());
      if (!internal::WriteAll(slots[i].ch.write_fd, frame.data(),
                              frame.size()) &&
          !lose(i, transport.lost_mid_dispatch)) {
        return FailFromScheduler(&slots, sched);
      }
    }

    // Poll with a timeout short enough to service both the straggler scan
    // and the earliest reconnect timer. Some channel is open or some timer
    // pending, or the run has nothing left to wait for.
    int timeout = straggler_ms_ > 0
                      ? std::max(10, std::min(straggler_ms_, 200))
                      : -1;
    bool usable = false;
    for (const Slot& s : slots) {
      usable = usable || s.ch.open() || !s.abandoned;
      if (s.ch.open() || s.abandoned) continue;
      const int ms = static_cast<int>(std::max<long long>(
          1, duration_cast<milliseconds>(s.retry_at - now).count()));
      timeout = timeout < 0 ? ms : std::min(timeout, ms);
    }
    if (!usable) {
      const std::size_t first_unfinished = sched.FirstUnfinished();
      return Fail(&slots, first_unfinished, true,
                  std::string(transport.all_lost) + " with task " +
                      std::to_string(first_unfinished) + " unfinished");
    }
    if (!PollSlots(slots, timeout, &ready)) {
      return Fail(&slots, 0, false,
                  std::string("poll: ") + std::strerror(errno));
    }

    for (const std::size_t i : ready) {
      std::string parse_error;
      const ReadStatus st = ReadFrames(&slots[i], &frames, &parse_error);
      for (Frame& f : frames) {
        bool ok;
        if (f.type == static_cast<char>(FrameType::kResult)) {
          ok = sched.OnResult(i, f.index, std::move(f.payload));
        } else if (f.type == static_cast<char>(FrameType::kTaskError)) {
          ok = sched.OnTaskError(i, f.index, f.payload);
        } else if (f.type == static_cast<char>(FrameType::kProtocolError)) {
          ok = sched.OnProtocolError(i, f.payload);
        } else {
          return Fail(&slots, 0, false,
                      connector_->UnexpectedFrame(i, f.type));
        }
        if (!ok) return FailFromScheduler(&slots, sched);
      }
      if (st == ReadStatus::kMalformed) {
        return Fail(&slots, 0, false,
                    connector_->MalformedFrame(i, parse_error));
      }
      if (st == ReadStatus::kClosed && !lose(i, transport.lost_mid_task)) {
        return FailFromScheduler(&slots, sched);
      }
    }
  }

  // Done. A slot still running a stale straggler duplicate would block
  // completion, so it is dropped outright. Idle slots get the goodbye
  // (CloseWrite): each worker answers with one kObs frame (trace sidecar
  // path + Prometheus metrics) before exiting. Drain those so per-process
  // counters aggregate and trace sidecars merge. The drain is bounded — a
  // worker dawdling past the deadline is dropped like a straggler, costing
  // only its observability data.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (sched.task_of(i) != TaskScheduler::kNoTask) {
      slots[i].ch.Drop();
    } else if (slots[i].ch.open()) {
      slots[i].ch.CloseWrite();
    }
  }
  const Clock::time_point drain_deadline =
      Clock::now() + std::chrono::seconds(5);
  while (std::any_of(slots.begin(), slots.end(),
                     [](const Slot& s) { return s.ch.open(); })) {
    const long long remaining_ms =
        duration_cast<milliseconds>(drain_deadline - Clock::now()).count();
    if (remaining_ms <= 0 ||
        !PollSlots(slots,
                   static_cast<int>(std::min<long long>(remaining_ms, 200)),
                   &ready)) {
      break;
    }
    for (const std::size_t i : ready) {
      std::string parse_error;
      const ReadStatus st = ReadFrames(&slots[i], &frames, &parse_error);
      for (const Frame& f : frames) {
        // Anything but kObs is a stale straggler result: ignore it.
        std::string sidecar_path, metrics_text;
        if (f.type == static_cast<char>(FrameType::kObs) &&
            ParseObsPayload(f.payload, &sidecar_path, &metrics_text)) {
          obs::RecordWorkerSidecar(sidecar_path);
          obs::Global().MergeFromPrometheusText(metrics_text);
          obs::Global().NoteMergedSource();
        }
      }
      // EOF: the worker is gone. Malformed: the run already succeeded; a
      // desynced goodbye only forfeits this worker's observability data.
      if (st != ReadStatus::kOpen) slots[i].ch.Drop();
    }
  }
  for (Slot& s : slots) s.ch.Drop();
  return RunResult{};
}

}  // namespace

std::unique_ptr<Executor> MakeFramedDriver(const ExecOptions& opts) {
  if (opts.backend == Backend::kNet) {
    return std::make_unique<FramedDriver>(
        opts, std::make_unique<TcpConnector>(opts));
  }
  return std::make_unique<FramedDriver>(
      opts, std::make_unique<PipeConnector>(opts));
}

}  // namespace disco::exec
