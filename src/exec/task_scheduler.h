// Transport-agnostic scheduling core shared by the distributed executor
// backends (process pool over pipes, daemon cluster over TCP).
//
// A TaskScheduler owns the per-run failure accounting — the pending queue,
// per-task done/failures/inflight state, retry budgets, and the straggler
// scan — while the transport owns everything byte-shaped: spawning or
// connecting to workers, writing task frames, reading result frames, and
// noticing that a peer died. The contract between them is a set of "slots"
// (one per worker process or daemon connection):
//
//   - AddSlot() registers a slot; NextTask() hands an idle slot its next
//     task (a pending task first, else — past the straggler deadline — a
//     speculative duplicate of the slowest single-copy task);
//   - OnResult/OnTaskError/OnProtocolError report a frame the transport
//     read from that slot; OnSlotDeath reports a dead pipe or connection.
//     Each returns false when the run must fail — the message and failing
//     task are then available from error()/failed_task().
//
// Frame accounting validates the worker-reported index against the slot's
// assigned task: a duplicated, reordered, or forged frame is a protocol
// failure for the whole run, never a silent decrement of some innocent
// task's inflight count (which would strand it: the inflight==0 requeue
// guard could then never fire).
//
// The scheduler is single-threaded by design — both transports drive it
// from one poll loop — and never blocks or touches fds.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <string>
#include <vector>

namespace disco::exec {

class TaskScheduler {
 public:
  using Clock = std::chrono::steady_clock;

  static constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);

  /// `results` outlives the scheduler and receives (*results)[i] = task
  /// i's payload; it is assigned count empty strings up front.
  TaskScheduler(std::size_t count, int max_retries, int straggler_ms,
                std::vector<std::string>* results);

  /// Registers a worker slot (initially alive and idle); returns its id.
  std::size_t AddSlot();

  /// The task in flight on `slot`, or kNoTask. A dead slot holds no task
  /// and is skipped by the straggler scan until ReviveSlot (a transport
  /// reconnect) restores it.
  std::size_t task_of(std::size_t slot) const { return slots_[slot].task; }

  /// Re-arms a slot whose transport reconnected. The slot must be dead;
  /// its previous in-flight task was already requeued by OnSlotDeath.
  void ReviveSlot(std::size_t slot);

  /// Picks the next task for an idle live slot and marks it in flight
  /// there: the first still-unfinished pending task (stale entries for
  /// already-finished tasks are dropped, not returned — the slot must
  /// never idle while live work is queued behind a stale entry), else,
  /// with a straggler deadline configured, a speculative duplicate of the
  /// oldest single-copy task past the deadline. kNoTask when there is
  /// nothing for this slot to do right now.
  std::size_t NextTask(std::size_t slot, Clock::time_point now);

  /// Result frame from `slot` for task `index`. False = fail the run.
  bool OnResult(std::size_t slot, std::size_t index, std::string payload);

  /// Task-error frame ("E"): charges one failed attempt to the task.
  bool OnTaskError(std::size_t slot, std::size_t index,
                   const std::string& why);

  /// Protocol-error frame ("B"): the worker rejected the request stream
  /// itself. Never attributable to a task — always fails the run.
  bool OnProtocolError(std::size_t slot, const std::string& message);

  /// The slot's transport died (worker crash, connection reset). Charges
  /// the in-flight task (if any) and marks the slot dead.
  bool OnSlotDeath(std::size_t slot, const std::string& why);

  bool done() const { return done_count_ == count_; }
  std::size_t count() const { return count_; }
  int straggler_ms() const { return straggler_ms_; }

  /// Lowest task id not yet finished (count() when all are) — transports
  /// name it when the pool drains before the run completes.
  std::size_t FirstUnfinished() const;

  /// Failure details, valid after any handler returned false.
  const std::string& error() const { return error_; }
  std::size_t failed_task() const { return failed_task_; }
  bool task_known() const { return task_known_; }

  /// Test-only: pushes a (possibly stale) entry at the front of the
  /// pending queue, bypassing the accounting invariants — regression
  /// seam for NextTask's stale-entry handling.
  void PushPendingFrontForTest(std::size_t task);

 private:
  struct TaskState {
    bool done = false;
    int failures = 0;  // failed attempts so far (deaths and E frames)
    int inflight = 0;  // copies currently running (straggler duplication)
  };

  struct Slot {
    bool alive = true;
    std::size_t task = kNoTask;
    Clock::time_point since;  // when `task` was assigned
  };

  // Requeues (or finally fails) a task whose attempt just died. False
  // when retries are exhausted; error_/failed_task_ then name it.
  bool AttemptFailed(std::size_t task, const std::string& why);

  bool Fail(std::size_t task, bool task_known, std::string message);

  const std::size_t count_;
  const int max_retries_;
  const int straggler_ms_;
  std::vector<std::string>* const results_;

  std::vector<TaskState> tasks_;
  std::vector<Slot> slots_;
  std::deque<std::size_t> pending_;
  std::size_t done_count_ = 0;

  std::string error_;
  std::size_t failed_task_ = 0;
  bool task_known_ = false;
};

}  // namespace disco::exec
