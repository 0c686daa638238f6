// Shared by the exec sources (executor, worker, driver, net_daemon). Not
// part of the public exec API.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "exec/executor.h"

namespace disco::exec::internal {

/// Consumes the next process-wide Run-call number. Every Executor::Run
/// implementation claims exactly one, so driver and worker processes —
/// which execute the same deterministic sequence of Run calls — agree on
/// which call each job number names.
std::size_t ClaimJobNumber();

/// The job this worker process was told to serve (--worker=<job>).
std::size_t WorkerJob();

/// In-process task evaluation over the runtime pool; the body of the
/// thread backend, also used by workers to locally evaluate fan-outs that
/// precede their assigned job.
RunResult RunInProcess(std::size_t count, const TaskFn& fn,
                       std::vector<std::string>* results,
                       runtime::ThreadPool* pool);

/// Writes all `len` bytes, retrying short writes and EINTR. False on any
/// other write error (EPIPE: the reader is gone).
bool WriteAll(int fd, const char* data, std::size_t len);

/// The parent's ends of one worker's frame stream: kTask frames go out on
/// write_fd, result frames come back on read_fd. A forked worker has a
/// pid and one pipe per direction; a daemon connection is one socket for
/// both directions and no pid.
struct Channel {
  pid_t pid = -1;
  int read_fd = -1;
  int write_fd = -1;

  bool open() const { return read_fd >= 0; }

  /// The finished-run goodbye: the worker sees stdin EOF (a daemon turns a
  /// socket half-close into that), ships its kObs frame and exits.
  void CloseWrite();

  /// Closes the channel whatever the worker is doing: a forked worker is
  /// SIGKILLed and reaped, a daemon does the same when its socket closes.
  /// Tasks are pure, so a dropped stale straggler loses nothing.
  void Drop();
};

/// Forks and execs `argv` as a worker: stdin is the task pipe, stdout is
/// /dev/null (stray prints cannot corrupt the frame stream), fd 3 is the
/// result pipe, stderr is inherited. `env` entries ("K=V") replace the
/// same-named variables of this process's environment. The procs
/// backend's pipe connector and disco_workerd both start workers here.
bool SpawnWorkerProcess(const std::vector<std::string>& argv,
                        const std::vector<std::string>& env, Channel* out,
                        std::string* error);

/// The net connector's reconnect knobs, clamped once when the driver is
/// built: at least one attempt per outage and delays of at least 1 ms.
struct Backoff {
  int first_ms;  // DISCO_EXEC_NET_BACKOFF_MS
  int max_ms;    // DISCO_EXEC_NET_BACKOFF_MAX_MS
  int attempts;  // DISCO_EXEC_NET_RECONNECTS

  static Backoff FromEnv() {
    return {std::max(1, EffectiveNetBackoffMs()),
            std::max(1, EffectiveNetBackoffMaxMs()),
            std::max(1, EffectiveNetReconnects())};
  }

  /// The delay after one more failed attempt: doubled, capped at max_ms.
  /// Saturates instead of overflowing for knobs near INT_MAX.
  int Next(int delay_ms) const {
    return static_cast<int>(std::min<long long>(2LL * delay_ms, max_ms));
  }
};

}  // namespace disco::exec::internal

namespace disco::exec {

/// The worker-mode executor: serves its assigned job over fd 0 / fd 3.
std::unique_ptr<Executor> MakeWorkerServer(const ExecOptions& opts);

/// The framed-worker driver for kProcs (pipe connector) and kNet (TCP
/// connector).
std::unique_ptr<Executor> MakeFramedDriver(const ExecOptions& opts);

}  // namespace disco::exec
