// The worker end of the framed protocol, the fork/exec that starts a
// worker, and the Channel both the driver and disco_workerd hold to one.
//
// Worker side (WorkerServer): calls before the assigned job evaluate
// in-process (their results may feed the assigned job's task function);
// the assigned job serves kTask frames from stdin and, at stdin EOF,
// ships one kObs frame (trace sidecar path + metrics text) so the driver
// can aggregate per-process observability. A request it cannot honor —
// malformed frame, out-of-range index — is answered with a
// kProtocolError frame: a protocol error is attributable to no task, so
// it must never charge a retry to an innocent one.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exec/exec_internal.h"
#include "exec/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

extern char** environ;

namespace disco::exec {
namespace {

constexpr int kResultFd = 3;  // worker-side frame stream, by convention

bool WriteFrame(int fd, FrameType type, std::uint64_t index,
                const std::string& payload) {
  const std::string frame =
      EncodeFrame(static_cast<char>(type), index, payload);
  return internal::WriteAll(fd, frame.data(), frame.size());
}

[[noreturn]] void ServeTasks(std::size_t count, const TaskFn& fn) {
  FrameBuffer frames;
  char chunk[4096];
  for (;;) {
    for (;;) {
      Frame f;
      std::string parse_error;
      const FrameBuffer::Status st = frames.Next(&f, &parse_error);
      if (st == FrameBuffer::Status::kNeedMore) break;
      if (st == FrameBuffer::Status::kMalformed) {
        // The request stream is unusable from here on: report and exit.
        WriteFrame(kResultFd, FrameType::kProtocolError, 0,
                   "malformed task frame: " + parse_error);
        std::exit(1);
      }
      if (f.type != static_cast<char>(FrameType::kTask) ||
          f.index >= count) {
        // A bad request names no runnable task. Answering with a task
        // error at the garbage index would either kill the run as
        // "out-of-range task" or charge a retry to whatever innocent task
        // the index happens to alias — so it gets its own frame type the
        // driver maps to a run-level error.
        WriteFrame(kResultFd, FrameType::kProtocolError, 0,
                   std::string("bad task request: type '") + f.type +
                       "' index " + std::to_string(f.index) + " (count " +
                       std::to_string(count) + ")");
        continue;
      }
      std::string payload;
      FrameType type = FrameType::kResult;
      obs::Span task_span("exec.task");
      try {
        payload = fn(static_cast<std::size_t>(f.index));
      } catch (const std::exception& e) {
        type = FrameType::kTaskError;
        payload = e.what();
      } catch (...) {
        type = FrameType::kTaskError;
        payload = "non-std exception";
      }
      if (!WriteFrame(kResultFd, type, f.index, payload)) {
        std::exit(1);  // driver went away
      }
    }
    const ssize_t n = ::read(0, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // driver closed our stdin: done
    frames.Append(chunk, static_cast<std::size_t>(n));
  }
  // Clean shutdown: ship observability home before exiting. The trace
  // sidecar path is empty when tracing is off; metrics always travel so
  // the driver's [metrics] dump aggregates every worker's counters. A
  // driver from before kObs existed has closed our stdin and may close the
  // result pipe too — a failed write here is fine.
  const std::string sidecar = obs::FlushTrace();
  WriteFrame(kResultFd, FrameType::kObs,
             static_cast<std::uint64_t>(::getpid()),
             EncodeObsPayload(sidecar, obs::Global().PrometheusText()));
  std::exit(0);
}

class WorkerServer : public Executor {
 public:
  explicit WorkerServer(const ExecOptions& opts) : pool_(opts.pool) {}

  RunResult Run(std::size_t count, const TaskFn& fn,
                std::vector<std::string>* results) override {
    const std::size_t job = internal::ClaimJobNumber();
    if (job != internal::WorkerJob()) {
      // A fan-out preceding the one we were spawned for: evaluate it
      // locally so state derived from its results exists when the
      // assigned job's task function is built.
      return internal::RunInProcess(count, fn, results, pool_);
    }
    ServeTasks(count, fn);
  }

 private:
  runtime::ThreadPool* pool_;
};

}  // namespace

namespace internal {

bool WriteAll(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

void Channel::CloseWrite() {
  if (pid > 0) {
    ::close(write_fd);
    write_fd = -1;
  } else {
    ::shutdown(write_fd, SHUT_WR);
  }
}

void Channel::Drop() {
  if (pid > 0) ::kill(pid, SIGKILL);
  if (write_fd >= 0 && write_fd != read_fd) ::close(write_fd);
  if (read_fd >= 0) ::close(read_fd);
  read_fd = write_fd = -1;
  if (pid > 0) ::waitpid(pid, nullptr, 0);
  pid = -1;
}

bool SpawnWorkerProcess(const std::vector<std::string>& argv_in,
                        const std::vector<std::string>& env_in, Channel* out,
                        std::string* error) {
  // Everything the child needs is prepared before fork(): the parent may
  // have pool threads running, so the child must restrict itself to
  // async-signal-safe calls (dup2/fcntl/execve/_exit) until exec.
  std::vector<std::string> argv_strings = argv_in;
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (std::string& a : argv_strings) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::vector<std::string> env_strings = env_in;
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view var(*e);
    const std::string_view key = var.substr(0, var.find('='));
    const bool overridden = std::any_of(
        env_strings.begin(), env_strings.end(), [&](const std::string& o) {
          return o.size() > key.size() && o.compare(0, key.size(), key) == 0 &&
                 o[key.size()] == '=';
        });
    if (!overridden) envp.push_back(*e);
  }
  for (std::string& o : env_strings) envp.push_back(o.data());
  envp.push_back(nullptr);

  int task_pipe[2] = {-1, -1}, result_pipe[2] = {-1, -1};
  int devnull = -1;
  const auto fail = [&](const char* call) {
    *error = std::string(call) + ": " + std::strerror(errno);
    for (const int fd : {task_pipe[0], task_pipe[1], result_pipe[0],
                         result_pipe[1], devnull}) {
      if (fd >= 0) ::close(fd);
    }
    return false;
  };
  if (::pipe2(task_pipe, O_CLOEXEC) != 0) return fail("pipe2");
  if (::pipe2(result_pipe, O_CLOEXEC) != 0) return fail("pipe2");
  devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);

  const pid_t pid = ::fork();
  if (pid < 0) return fail("fork");
  if (pid == 0) {
    // Child. dup2 clears O_CLOEXEC on the target fd; every original pipe
    // end still carries it and vanishes at exec. When a pipe end already
    // landed on its target fd (pipe2 hands out the lowest free fd, so a
    // driver launched with stdin/stdout closed gets task_pipe[0] == 0),
    // dup2 would be a no-op that leaves O_CLOEXEC set and the fd would
    // vanish at exec — clear the flag in place instead.
    const auto install = [](int from, int to) {
      if (from == to) {
        ::fcntl(to, F_SETFD, 0);
      } else {
        ::dup2(from, to);
      }
    };
    install(task_pipe[0], 0);
    if (devnull >= 0) install(devnull, 1);
    install(result_pipe[1], kResultFd);
    ::execvpe(argv[0], argv.data(), envp.data());
    _exit(127);
  }
  ::close(task_pipe[0]);
  ::close(result_pipe[1]);
  if (devnull >= 0) ::close(devnull);

  out->pid = pid;
  out->write_fd = task_pipe[1];
  out->read_fd = result_pipe[0];
  return true;
}

}  // namespace internal

std::unique_ptr<Executor> MakeWorkerServer(const ExecOptions& opts) {
  return std::make_unique<WorkerServer>(opts);
}

}  // namespace disco::exec
